open Cheffp_ir
open Ast
module Config = Cheffp_precision.Config
module Fp = Cheffp_precision.Fp
module Cost = Cheffp_precision.Cost
module Trace = Cheffp_obs.Trace

type evaluation = {
  config : Config.t;
  actual_error : float;
  modelled_speedup : float;
  casts : int;
}

let float_variables f =
  let params =
    List.filter_map
      (fun p ->
        match p.pty with
        | Tscalar (Sflt _) | Tarr (Sflt _) -> Some p.pname
        | _ -> None)
      f.params
  in
  let locals = ref [] in
  let rec stmt = function
    | Decl { name; dty = Dscalar (Sflt _); _ }
    | Decl { name; dty = Darr (Sflt _, _); _ } ->
        locals := name :: !locals
    | Decl _ -> ()
    | If (_, a, b) ->
        List.iter stmt a;
        List.iter stmt b
    | For { body; _ } | While (_, body) -> List.iter stmt body
    | Assign _ | Return _ | Call_stmt _ | Push _ | Pop _ -> ()
  in
  List.iter stmt f.body;
  params @ List.rev !locals

let run_with ?builtins ?mode ~prog ~func ~args config =
  (* Metered compilation through the cache; the counter is threaded
     per run, so the cached instance is shared across configurations,
     repeated evaluations and pool workers alike. *)
  let counter = Cost.Counter.create Cost.default in
  let compiled =
    Compile_cache.compile ?builtins ?mode ~meter:true ~config ~prog ~func ()
  in
  let value =
    Trace.with_span "run" (fun () ->
        if Trace.enabled () then
          Trace.add_attr "config" (Trace.Str (Config.to_string config));
        Compile.run_float ~counter compiled (Interp.copy_args args))
  in
  (value, Cost.Counter.total counter, Cost.Counter.casts counter)

let evaluate ?builtins ?mode ?(jobs = 1) ~prog ~func ~args config =
  Trace.with_span "tuner.evaluate" @@ fun () ->
  (* The reference run and the configured run are independent; with
     [jobs > 1] they execute on separate domains. *)
  match
    Cheffp_util.Pool.parallel_map ~jobs
      (fun cfg -> run_with ?builtins ?mode ~prog ~func ~args cfg)
      [ Config.double; config ]
  with
  | [ (reference, ref_cost, _); (value, cost, casts) ] ->
      let ev =
        {
          config;
          actual_error = Float.abs (value -. reference);
          modelled_speedup = (if cost > 0. then ref_cost /. cost else 1.);
          casts;
        }
      in
      if Trace.enabled () then begin
        Trace.add_attr "actual_error" (Trace.Float ev.actual_error);
        Trace.add_attr "modelled_speedup" (Trace.Float ev.modelled_speedup)
      end;
      ev
  | _ -> assert false

(* Batched evaluation: every chunk's lane sweep carries the all-double
   reference in lane 0, so each evaluation's actual_error and
   modelled_speedup come from the same sweep — one batch run replaces
   |chunk| + 1 scalar runs. The batch artifact and the divergence
   fallback both go through the compile cache, so a whole session pays
   one batch compile per (program, func, mode). *)
let evaluate_many ?builtins ?mode ?(jobs = 1) ?(lanes = Batch.default_lanes)
    ~prog ~func ~args configs =
  Trace.with_span "tuner.evaluate_many" @@ fun () ->
  if Trace.enabled () then begin
    Trace.add_attr "configs" (Trace.Int (List.length configs));
    Trace.add_attr "lanes" (Trace.Int lanes)
  end;
  let b = Compile_cache.compile_batch ?builtins ?mode ~meter:true ~prog ~func () in
  let fallback config =
    Compile_cache.compile ?builtins ?mode ~meter:true ~config ~prog ~func ()
  in
  let chunk_size = max 1 (lanes - 1) in
  let rec chunks = function
    | [] -> []
    | l ->
        let rec take n acc = function
          | rest when n = 0 -> (List.rev acc, rest)
          | [] -> (List.rev acc, [])
          | c :: rest -> take (n - 1) (c :: acc) rest
        in
        let h, t = take chunk_size [] l in
        h :: chunks t
  in
  chunks configs
  |> Cheffp_util.Pool.parallel_map ~jobs (fun chunk ->
         let cfgs = Array.of_list (Config.double :: chunk) in
         let counters =
           Array.init (Array.length cfgs) (fun _ ->
               Cost.Counter.create Cost.default)
         in
         let r = Batch.run ~counters ~fallback b ~configs:cfgs args in
         let value l =
           match r.Batch.lanes.(l).Interp.ret with
           | Some (Builtins.F x) -> x
           | _ ->
               invalid_arg "Tuner.evaluate_many: function must return a float"
         in
         let reference = value 0 in
         let ref_cost = Cost.Counter.total counters.(0) in
         List.mapi
           (fun i config ->
             let l = i + 1 in
             let cost = Cost.Counter.total counters.(l) in
             {
               config;
               actual_error = Float.abs (value l -. reference);
               modelled_speedup = (if cost > 0. then ref_cost /. cost else 1.);
               casts = Cost.Counter.casts counters.(l);
             })
           chunk)
  |> List.concat

type outcome = {
  threshold : float;
  demoted : string list;
  vetoed : string list;
  estimated_error : float;
  contributions : (string * float) list;
  evaluation : evaluation;
}

let tune ?model ?profile ?(target = Fp.F32) ?mode ?builtins ?(margin = 2.0)
    ?(jobs = 1) ?batch ~prog ~func ~args ~threshold () =
  Trace.with_span "tuner.tune" @@ fun () ->
  if Trace.enabled () then begin
    Trace.add_attr "func" (Trace.Str func);
    Trace.add_attr "threshold" (Trace.Float threshold);
    Trace.add_attr "jobs" (Trace.Int jobs);
    Trace.add_attr "profiled" (Trace.Bool (profile <> None))
  end;
  (* Contribution and range queries come either from a caller-supplied
     error-atom profile — a previous augmented run, answered without any
     new analysis or execution — or from a fresh adapt-model estimate. *)
  let per_var, range_of =
    match profile with
    | Some p ->
        let eps = Fp.unit_roundoff target in
        ( (fun v -> Profile.atom p v *. eps),
          fun v -> List.assoc_opt v (Profile.ranges p) )
    | None ->
        let model =
          match model with Some m -> m | None -> Model.adapt ~target ()
        in
        let est =
          Estimate.estimate_error ~model
            ~options:
              { Estimate.default_options with Estimate.track_ranges = true }
            ~prog ~func ()
        in
        let report = Estimate.run est args in
        ( (fun v ->
            Option.value ~default:0.
              (List.assoc_opt v report.Estimate.per_variable)),
          fun v -> List.assoc_opt v report.Estimate.ranges )
  in
  let candidates = float_variables (func_exn prog func) in
  (* A variable whose observed magnitude approaches the target format's
     largest finite value would overflow when demoted: veto it outright
     (first-order error models cannot see overflow). *)
  let limit = 0.5 *. Fp.max_finite target in
  let overflows v =
    match range_of v with
    | Some (lo, hi) -> Float.max (Float.abs lo) (Float.abs hi) > limit
    | None -> false
  in
  let vetoed = List.filter overflows candidates in
  let candidates = List.filter (fun v -> not (overflows v)) candidates in
  let contributions =
    List.map (fun v -> (v, per_var v)) candidates
    |> List.sort (fun (_, a) (_, b) -> compare a b)
  in
  let budget = threshold /. margin in
  let demoted, estimated_error =
    List.fold_left
      (fun (chosen, acc) (v, e) ->
        if acc +. e <= budget then (v :: chosen, acc +. e)
        else (chosen, acc))
      ([], 0.) contributions
  in
  let demoted = List.rev demoted in
  let config = Config.demote_all Config.double demoted target in
  let evaluation =
    match batch with
    | Some lanes when lanes > 1 -> (
        match
          evaluate_many ?builtins ?mode ~jobs ~lanes ~prog ~func ~args
            [ config ]
        with
        | [ ev ] -> ev
        | _ -> assert false)
    | _ -> evaluate ?builtins ?mode ~jobs ~prog ~func ~args config
  in
  { threshold; demoted; vetoed; estimated_error; contributions; evaluation }
