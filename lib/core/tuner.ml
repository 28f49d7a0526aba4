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

type selection = {
  demoted : string list;
  vetoed : string list;
  estimated_error : float;
  contributions : (string * float) list;
}

(* The one greedy selection: veto the candidates that would overflow,
   sort the rest by contribution, ascending, and take each one whose
   contribution still fits the running sum within [budget]. *)
let greedy ~contribution ~overflows ~budget candidates =
  let vetoed, kept = List.partition overflows candidates in
  let contributions =
    List.map (fun v -> (v, contribution v)) kept
    |> List.sort (fun (_, a) (_, b) -> compare a b)
  in
  let demoted, estimated_error =
    List.fold_left
      (fun (chosen, acc) (v, e) ->
        if acc +. e <= budget then (v :: chosen, acc +. e) else (chosen, acc))
      ([], 0.) contributions
  in
  { demoted = List.rev demoted; vetoed; estimated_error; contributions }

let select profile ~target ~budget candidates =
  let eps = Fp.unit_roundoff target in
  greedy
    ~contribution:(fun v -> Profile.atom profile v *. eps)
    ~overflows:(Profile.overflows profile ~target)
    ~budget candidates

type outcome = {
  threshold : float;
  demoted : string list;
  vetoed : string list;
  estimated_error : float;
  contributions : (string * float) list;
  evaluation : evaluation;
}

let tune ?model ?profile ?(target = Fp.F32) ?mode ?builtins ?(margin = 2.0)
    ?(jobs = 1) ~prog ~func ~args ~threshold () =
  Trace.with_span "tuner.tune" @@ fun () ->
  if Trace.enabled () then begin
    Trace.add_attr "func" (Trace.Str func);
    Trace.add_attr "threshold" (Trace.Float threshold);
    Trace.add_attr "jobs" (Trace.Int jobs);
    Trace.add_attr "profiled" (Trace.Bool (profile <> None))
  end;
  let budget = threshold /. margin in
  (* Contribution and range queries come either from a caller-supplied
     error-atom profile — a previous augmented run, answered without any
     new analysis or execution — or from a fresh adapt-model estimate. *)
  let pick =
    match profile with
    | Some p -> select p ~target ~budget
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
        (* A variable whose observed magnitude approaches the target
           format's largest finite value would overflow when demoted:
           veto it outright (first-order error models cannot see
           overflow). *)
        let limit = 0.5 *. Fp.max_finite target in
        greedy
          ~contribution:(fun v ->
            Option.value ~default:0.
              (List.assoc_opt v report.Estimate.per_variable))
          ~overflows:(fun v ->
            match List.assoc_opt v report.Estimate.ranges with
            | Some (lo, hi) -> Float.max (Float.abs lo) (Float.abs hi) > limit
            | None -> false)
          ~budget
  in
  let s = pick (float_variables (func_exn prog func)) in
  let config = Config.demote_all Config.double s.demoted target in
  {
    threshold;
    demoted = s.demoted;
    vetoed = s.vetoed;
    estimated_error = s.estimated_error;
    contributions = s.contributions;
    evaluation = evaluate ?builtins ?mode ~jobs ~prog ~func ~args config;
  }
