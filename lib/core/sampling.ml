open Cheffp_ir
module Config = Cheffp_precision.Config
module Rng = Cheffp_util.Rng
module Metrics = Cheffp_obs.Metrics

exception Spec_error of string

let spec_fail fmt = Format.kasprintf (fun s -> raise (Spec_error s)) fmt

type dist =
  | Fixed of float
  | Uniform of { lo : float; hi : float }
  | Normal of { mu : float; sigma : float }

let dist_to_string = function
  | Fixed v -> Printf.sprintf "fixed:%g" v
  | Uniform { lo; hi } -> Printf.sprintf "uniform:%g,%g" lo hi
  | Normal { mu; sigma } -> Printf.sprintf "normal:%g,%g" mu sigma

let float_of_spec s =
  match float_of_string_opt (String.trim s) with
  | Some v -> v
  | None -> spec_fail "bad number %S in distribution spec" s

let dist_of_string s =
  match String.index_opt s ':' with
  | None -> spec_fail "bad distribution %S (want kind:params)" s
  | Some i -> (
      let kind = String.sub s 0 i
      and rest = String.sub s (i + 1) (String.length s - i - 1) in
      let params = String.split_on_char ',' rest in
      match (kind, params) with
      | "fixed", [ v ] -> Fixed (float_of_spec v)
      | "uniform", [ lo; hi ] ->
          let lo = float_of_spec lo and hi = float_of_spec hi in
          if not (hi > lo) then
            spec_fail "uniform:%g,%g needs lo < hi" lo hi;
          Uniform { lo; hi }
      | "normal", [ mu; sigma ] ->
          let mu = float_of_spec mu and sigma = float_of_spec sigma in
          if not (sigma > 0.) then spec_fail "normal needs sigma > 0";
          Normal { mu; sigma }
      | _, _ ->
          spec_fail
            "bad distribution %S (want fixed:v | uniform:lo,hi | \
             normal:mu,sigma)"
            s)

(* "x=uniform:0,1 y=normal:0,2" — entries separated by ';' or
   whitespace, each NAME=DIST. *)
let dists_of_string spec =
  String.split_on_char ';' spec
  |> List.concat_map (String.split_on_char ' ')
  |> List.filter (fun s -> String.trim s <> "")
  |> List.map (fun entry ->
         let entry = String.trim entry in
         match String.index_opt entry '=' with
         | Some i ->
             ( String.sub entry 0 i,
               dist_of_string
                 (String.sub entry (i + 1) (String.length entry - i - 1)) )
         | None -> spec_fail "bad entry %S in --dist (want name=dist)" entry)

(* ------------------------------------------------------------------ *)
(* Sampling plans.                                                     *)

(* The default box around a base value: +/- 50% of its magnitude. At
   zero a relative box degenerates (+/- 0.5 barely leaves the origin,
   and scaling it by the base magnitude would collapse it to a point),
   so zero-valued defaults get the absolute interval [-1, 1] instead —
   sweeps and range boxes stay non-trivial there. Used when neither an
   explicit distribution nor an FPCore :pre range constrains the
   variable; {!Cheffp_range.Box.default_iv} mirrors the same rule. *)
let default_box v =
  let d = if v = 0. then 1.0 else 0.5 *. Float.abs v in
  Uniform { lo = v -. d; hi = v +. d }

type slot =
  | Sfixed of Interp.arg  (** integers, int arrays, out params: pass through *)
  | Sscalar of dist  (** float scalar drawn per sample *)
  | Sarray of float array * [ `Dist of dist | `Relative of float ]
      (** float array: every element drawn per sample, either from one
          explicit distribution or from the default box around its base
          value *)

type plan = { slots : (string * slot) list }

let plan ?(dists = []) ?(ranges = []) ~(func : Ast.func)
    ~(args : Interp.arg list) () =
  if List.length args <> List.length func.params then
    spec_fail "function %S expects %d arguments, got %d" func.fname
      (List.length func.params) (List.length args);
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun p -> p.Ast.pname = name) func.params) then
        spec_fail "--dist names unknown parameter %S of %S" name func.fname)
    dists;
  let slots =
    List.map2
      (fun (p : Ast.param) arg ->
        let name = p.pname in
        let slot =
          match (p.pmode, p.pty, arg) with
          | Ast.Out, _, _ -> Sfixed arg
          | Ast.In, Ast.Tscalar (Ast.Sflt _), Interp.Aflt v -> (
              match List.assoc_opt name dists with
              | Some d -> Sscalar d
              | None -> (
                  match List.assoc_opt name ranges with
                  | Some (Some lo, Some hi) when hi > lo ->
                      Sscalar (Uniform { lo; hi })
                  | _ -> Sscalar (default_box v)))
          | Ast.In, Ast.Tarr (Ast.Sflt _), Interp.Afarr a -> (
              match List.assoc_opt name dists with
              | Some d -> Sarray (Array.copy a, `Dist d)
              | None -> Sarray (Array.copy a, `Relative 0.5))
          | _, _, a -> Sfixed a
        in
        (name, slot))
      func.params args
  in
  { slots }

let describe plan =
  List.map
    (fun (name, slot) ->
      ( name,
        match slot with
        | Sfixed _ -> "fixed"
        | Sscalar d -> dist_to_string d
        | Sarray (a, `Dist d) ->
            Printf.sprintf "%s per element (%d)" (dist_to_string d)
              (Array.length a)
        | Sarray (a, `Relative f) ->
            Printf.sprintf "+/-%g%% per element (%d)" (f *. 100.)
              (Array.length a) ))
    plan.slots

(* The plan's per-parameter support, as plain pairs: the bridge the CLI
   and bench use to hand a sampling plan to the rigorous range analysis
   (lib/range sits beside lib/core in the dependency order, so neither
   can see the other's types). Normal draws have unbounded support — no
   finite box exists, and callers must not prune. *)
let box_view plan =
  List.map
    (fun (name, slot) ->
      ( name,
        match slot with
        | Sfixed a -> `Fixed a
        | Sscalar (Fixed v) -> `Interval (v, v)
        | Sscalar (Uniform { lo; hi }) -> `Interval (lo, hi)
        | Sscalar (Normal _) -> `Unbounded
        | Sarray (base, `Dist (Fixed v)) ->
            `Intervals (Array.map (fun _ -> (v, v)) base)
        | Sarray (base, `Dist (Uniform { lo; hi })) ->
            `Intervals (Array.map (fun _ -> (lo, hi)) base)
        | Sarray (_, `Dist (Normal _)) -> `Unbounded
        | Sarray (base, `Relative f) ->
            `Intervals
              (Array.map
                 (fun e ->
                   let d = if e = 0. then 1.0 else f *. Float.abs e in
                   (e -. d, e +. d))
                 base) ))
    plan.slots

let sampled_vars plan =
  List.filter_map
    (fun (name, slot) ->
      match slot with Sfixed _ -> None | _ -> Some name)
    plan.slots

(* ------------------------------------------------------------------ *)
(* Drawing. Sample [i] draws every parameter, in declaration order,
   from [Rng.substream seed i] — a pure function of (seed, i), so the
   stream is invariant to how samples are later chunked across lanes
   and pool domains (the determinism the fuzz suite pins). *)

let samples_c = Metrics.counter "sampling.samples_total"

let draw_dist rng = function
  | Fixed v -> v
  | Uniform { lo; hi } -> Rng.uniform rng ~lo ~hi
  | Normal { mu; sigma } -> Rng.gaussian rng ~mu ~sigma

let draw plan ~seed index =
  let rng = Rng.substream seed index in
  Metrics.incr samples_c;
  let rec go = function
    | [] -> []
    | (_, slot) :: rest ->
        let arg =
          match slot with
          | Sfixed (Interp.Afarr a) -> Interp.Afarr (Array.copy a)
          | Sfixed (Interp.Aiarr a) -> Interp.Aiarr (Array.copy a)
          | Sfixed x -> x
          | Sscalar d -> Interp.Aflt (draw_dist rng d)
          | Sarray (base, `Dist d) ->
              Interp.Afarr (Array.map (fun _ -> draw_dist rng d) base)
          | Sarray (base, `Relative f) ->
              Interp.Afarr
                (Array.map
                   (fun e ->
                     (* same zero-widening as [default_box]: a relative
                        box around a zero element is degenerate *)
                     let d = if e = 0. then 1.0 else f *. Float.abs e in
                     Rng.uniform rng ~lo:(e -. d) ~hi:(e +. d))
                   base)
        in
        arg :: go rest
  in
  go plan.slots

let draw_many plan ~seed n = Array.init n (fun i -> draw plan ~seed i)

(* ------------------------------------------------------------------ *)
(* Input sweeps: the batched hot path.                                 *)

let sweep ?(jobs = 1) ?(lanes = Batch.default_sweep_lanes) ?builtins ?mode ~prog
    ~func ~config inputs =
  let b = Compile_cache.compile_batch ?builtins ?mode ~prog ~func () in
  let fallback config =
    Compile_cache.compile ?builtins ?mode ~meter:true ~config ~prog ~func ()
  in
  Batch.run_inputs_many ~jobs ~lanes ~fallback b ~config inputs

let measured_errors ?jobs ?lanes ?builtins ?mode ?reference ~prog ~func
    ~config inputs =
  let reference =
    match reference with
    | Some r ->
        if Array.length r <> Array.length inputs then
          invalid_arg
            (Printf.sprintf
               "Sampling.measured_errors: reference length mismatch (%d <> %d)"
               (Array.length r) (Array.length inputs));
        r
    | None ->
        sweep ?jobs ?lanes ?builtins ?mode ~prog ~func ~config:Config.double
          inputs
  in
  let vals = sweep ?jobs ?lanes ?builtins ?mode ~prog ~func ~config inputs in
  (Array.map2 (fun v r -> Float.abs (v -. r)) vals reference, reference)

let measured_summary ?jobs ?lanes ?builtins ?mode ?reference ~prog ~func
    ~config inputs =
  let errs, reference =
    measured_errors ?jobs ?lanes ?builtins ?mode ?reference ~prog ~func
      ~config inputs
  in
  (Quantile.summary_of_array errs, reference)
