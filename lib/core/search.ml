open Cheffp_ir
module Config = Cheffp_precision.Config
module Fp = Cheffp_precision.Fp
module Cost = Cheffp_precision.Cost
module Pool = Cheffp_util.Pool
module Trace = Cheffp_obs.Trace
module Metrics = Cheffp_obs.Metrics

type strategy = [ `Measured | `Modelled | `Hybrid ]

let strategy_name = function
  | `Measured -> "measured"
  | `Modelled -> "modelled"
  | `Hybrid -> "hybrid"

let strategy_of_string = function
  | "measured" -> Some `Measured
  | "modelled" -> Some `Modelled
  | "hybrid" -> Some `Hybrid
  | _ -> None

type outcome = {
  demoted : string list;
  executions : int;
  batched_runs : int;
  runs_avoided : int;
  pruned : int;
  strategy : strategy;
  evaluation : Tuner.evaluation;
  modelled_error : float;
  measured_error : float option;
  threshold : float;
  samples : int;
}

type sampling = { inputs : Interp.arg list array; quantile : float }

let runs_avoided_c = Metrics.counter "search.runs_avoided"
let pruned_c = Metrics.counter "search.pruned_total"

let tune ?(target = Fp.F32) ?mode ?builtins ?(jobs = 1) ?batch ?sampling
    ?measure ?(strategy = `Hybrid) ?(prune_margin = 64.) ?prune_bound ~prog
    ~func ~args ~threshold () =
  if prune_margin < 1. then
    invalid_arg "Search.tune: prune_margin must be >= 1";
  (match sampling with
  | Some s ->
      if Array.length s.inputs = 0 then
        invalid_arg "Search.tune: sampling needs at least one input vector";
      if s.quantile < 0. || s.quantile > 1. then
        invalid_arg "Search.tune: sampling quantile outside [0, 1]"
  | None -> ());
  Trace.with_span "search.tune" @@ fun () ->
  if Trace.enabled () then begin
    Trace.add_attr "func" (Trace.Str func);
    Trace.add_attr "threshold" (Trace.Float threshold);
    Trace.add_attr "jobs" (Trace.Int jobs);
    Trace.add_attr "strategy" (Trace.Str (strategy_name strategy));
    (match sampling with
    | Some s ->
        Trace.add_attr "samples" (Trace.Int (Array.length s.inputs));
        Trace.add_attr "quantile" (Trace.Float s.quantile)
    | None -> ());
    match batch with
    | Some lanes -> Trace.add_attr "batch" (Trace.Int lanes)
    | None -> ()
  end;
  (* One gradient-augmented run (memoized across tuning sessions) yields
     every variable's precision-independent error atom; every strategy
     uses it — [`Modelled]/[`Hybrid] to score candidates without
     executing them, and the final [modelled_error] cross-check as a dot
     product instead of a fresh analysis. Not counted in [executions]:
     it is the analysis the search baseline is compared against. *)
  let profile = Profile.build_cached ?builtins ~prog ~func ~args () in
  let executions = Atomic.make 0 in
  let batched_runs = Atomic.make 0 in
  let avoided = Atomic.make 0 in
  let pruned = Atomic.make 0 in
  let skip n =
    ignore (Atomic.fetch_and_add avoided n);
    Metrics.add runs_avoided_c n
  in
  let prune_skip n =
    ignore (Atomic.fetch_and_add pruned n);
    Metrics.add pruned_c n
  in
  (* Rigorous acceptance: [prune_bound vars] is a certified upper bound
     on the measured error of demoting [vars] (None = not certified —
     see [Cheffp_range.Range.score]). A candidate whose bound clears
     the threshold would also pass its measured accept, so taking it
     without executing keeps the chosen set bit-identical; bounds are
     never used to *reject* (an over-wide bound must cost executions,
     not correctness), and probes are never pruned (their measured
     errors are the greedy sort key). *)
  let certified vars =
    match prune_bound with
    | None -> false
    | Some bound -> (
        match bound vars with Some b -> b <= threshold | None -> false)
  in
  (* The model rejects a candidate set when its scored error clears the
     threshold with [prune_margin] to spare. The rejection is a
     prediction, not a proof: on self-correcting iterative kernels
     (HPCCG's CG loop) the measured error of an accepted set can sit
     four orders of magnitude below its first-order score, so `Hybrid
     only acts on a rejection where a wrong prediction cannot change
     the chosen set (see the grow phase) or where the margin has been
     validated to hold (the all-demoted shortcut). *)
  let model_rejects vars =
    Profile.score_vars profile ~target vars > prune_margin *. threshold
  in
  let run config =
    Atomic.incr executions;
    (* Metered compilation (counters are per-run, dropped here) so the
       cache key space is shared with Tuner.evaluate: the reference and
       the finally chosen configuration compile once across the whole
       tuning run. Argument copies keep concurrent runs independent. *)
    let compiled =
      Compile_cache.compile ?builtins ?mode ~meter:true ~config ~prog ~func ()
    in
    Trace.with_span "run" (fun () ->
        Compile.run_float compiled (Interp.copy_args args))
  in
  let candidates = Tuner.float_variables (Ast.func_exn prog func) in
  let chosen =
    match strategy with
    | `Modelled ->
        (* Pure fast path: zero candidate executions. {!Tuner.tune}'s
           profiled selection under half the threshold — the same
           factor-2 headroom its default margin budgets for Source-mode
           rounding the first-order model does not see. *)
        Trace.with_span "search.model_score" @@ fun () ->
        let budget = threshold /. 2. in
        skip (List.length candidates);
        if Trace.enabled () then begin
          Trace.add_attr "scored" (Trace.Int (List.length candidates));
          Trace.add_attr "budget" (Trace.Float budget)
        end;
        (Tuner.select profile ~target ~budget candidates).Tuner.demoted
    | (`Measured | `Hybrid) as strategy ->
        let prune = strategy = `Hybrid in
        (* What one candidate configuration's "error" means. Point mode:
           |y_config - y_double| at the single base args. Sampled mode
           ([sampling]): a Monte-Carlo input sweep through the batched
           input-sweep runner — the configuration's error is the chosen
           quantile (e.g. p99) of |y_config(x_i) - y_double(x_i)| over
           the sampled inputs, with the double reference sweep computed
           once and shared across every candidate. In both modes one
           candidate evaluation counts one [execution] (set units, so
           the hybrid-vs-measured accounting is mode-independent);
           sampled evaluations additionally count the lane sweeps they
           ran in [batched_runs]. *)
        let point_reference =
          match sampling with
          | None ->
              Some
                (Trace.with_span "search.reference" (fun () ->
                     run Config.double))
          | Some _ -> None
        in
        let measure_config =
          match point_reference with
          | Some reference ->
              fun config -> Float.abs (run config -. reference)
          | None ->
              let s = Option.get sampling in
              let nsamp = Array.length s.inputs in
              let lanes =
                match batch with
                | Some l when l > 1 -> l
                | _ -> Batch.default_lanes
              in
              let b =
                Compile_cache.compile_batch ?builtins ?mode ~prog ~func ()
              in
              let fallback config =
                Compile_cache.compile ?builtins ?mode ~meter:true ~config
                  ~prog ~func ()
              in
              let nchunks = (nsamp + lanes - 1) / lanes in
              let need = Quantile.settle_count nsamp s.quantile in
              (* The one chunk loop, for the reference and every
                 candidate alike: [config] runs over the inputs in input
                 order, one [lanes]-wide sweep per chunk, [jobs] chunks
                 per wave. Alone it yields the values. Against a
                 [reference] it yields the |deviations| and stops after
                 the first wave that puts [need] of them strictly above
                 the threshold, where the quantile must exceed it too.
                 The inputs it never ran keep a NaN error, which sorts
                 lowest, so the quantile of what it returns is exact
                 when every chunk ran and a lower bound above the
                 threshold when it settled. A failing candidate's error
                 is only ever compared with the threshold, so settling
                 changes no decision, only the sweeps spent. *)
              let sweep ?reference config =
                Atomic.incr executions;
                let out = Array.make nsamp Float.nan in
                let above = ref 0 in
                let run_chunk c =
                  let lo = c * lanes in
                  ( lo,
                    Batch.run_inputs_floats ~fallback b ~config
                      (Array.sub s.inputs lo (min lanes (nsamp - lo))) )
                in
                let rec wave first =
                  let chunks =
                    List.init (min (max 1 jobs) (nchunks - first)) (( + ) first)
                  in
                  Pool.parallel_map ~jobs run_chunk chunks
                  |> List.iter (fun (lo, vals) ->
                         Array.iteri
                           (fun i v ->
                             out.(lo + i) <-
                               (match reference with
                               | None -> v
                               | Some r ->
                                   let e = Float.abs (v -. r.(lo + i)) in
                                   if e > threshold then incr above;
                                   e))
                           vals);
                  let next = first + List.length chunks in
                  if !above >= need then (next, true)
                  else if next < nchunks then wave next
                  else (next, false)
                in
                let sweeps, settled = wave 0 in
                ignore (Atomic.fetch_and_add batched_runs sweeps);
                (out, sweeps, settled)
              in
              let reference, _, _ =
                Trace.with_span "search.reference" (fun () ->
                    sweep Config.double)
              in
              fun config ->
                let errs, sweeps, settled = sweep ~reference config in
                if Trace.enabled () then begin
                  Trace.add_attr "sweeps" (Trace.Int sweeps);
                  Trace.add_attr "settled" (Trace.Bool settled)
                end;
                Quantile.quantile_of_array errs s.quantile
        in
        (* Per-candidate spans carry the probed variable set and its
           observed error; they run inside pool workers and nest under
           the batch's phase span. *)
        let error_of ?(span = "search.candidate") vars =
          Trace.with_span span @@ fun () ->
          if Trace.enabled () then
            Trace.add_attr "vars" (Trace.Str (String.concat "," vars));
          let config = Config.demote_all Config.double vars target in
          let e = measure_config config in
          if Trace.enabled () then Trace.add_attr "error" (Trace.Float e);
          e
        in
        (* Errors of a list of candidate variable-sets at once. With
           [batch] set this is the searched-for hot path: n sets
           evaluate as ⌈n/K⌉ lane sweeps of one configuration-generic
           compilation instead of n scalar compile+run pairs.
           [executions] still counts one per set
           (program-runs-equivalent, keeping the Precimonious
           comparison honest); [batched_runs] counts the sweeps.
           Per-set observability drops from spans to events — the sets
           inside one sweep have no meaningful individual duration. *)
        let errors_of_sets sets =
          match (sampling, batch) with
          | Some _, _ ->
              (* Sampled mode: each set already runs its input chunks
                 in [jobs]-wide waves, so sets evaluate in sequence —
                 parallelism lives inside the sweep, not across sets. *)
              List.map (fun vars -> error_of vars) sets
          | None, Some lanes when lanes > 1 && List.length sets > 1 ->
              let n = List.length sets in
              let configs =
                List.map
                  (fun vars -> Config.demote_all Config.double vars target)
                  sets
              in
              ignore (Atomic.fetch_and_add executions n);
              ignore
                (Atomic.fetch_and_add batched_runs ((n + lanes - 1) / lanes));
              let b =
                Compile_cache.compile_batch ?builtins ?mode ~prog ~func ()
              in
              let fallback config =
                Compile_cache.compile ?builtins ?mode ~meter:true ~config
                  ~prog ~func ()
              in
              let vals = Batch.run_many ~jobs ~lanes ~fallback b ~configs args in
              let reference = Option.get point_reference in
              List.map2
                (fun vars v ->
                  let e = Float.abs (v -. reference) in
                  Trace.event "search.candidate"
                    ~attrs:
                      [
                        ("vars", Trace.Str (String.concat "," vars));
                        ("error", Trace.Float e);
                      ];
                  e)
                sets vals
          | _, _ -> Pool.parallel_map ~jobs (fun vars -> error_of vars) sets
        in
        (* The all-demoted shortcut costs one run under `Measured.
           When the model rejects the full set with margin to spare,
           `Hybrid skips that certain-to-fail run: on every workload
           where search is non-trivial, one execution saved before any
           probing. *)
        if certified candidates then begin
          (* Rigorous all-demoted accept: the bound certifies the most
             aggressive configuration, so the search is over before its
             first candidate execution. *)
          prune_skip 1;
          Trace.event "search.prune"
            ~attrs:
              [ ("phase", Trace.Str "all_demoted"); ("pruned", Trace.Int 1) ];
          candidates
        end
        else
        let all_error =
          if prune && model_rejects candidates then begin
            skip 1;
            Trace.event "search.model_score"
              ~attrs:
                [
                  ("phase", Trace.Str "all_demoted");
                  ("pruned", Trace.Int 1);
                ];
            None
          end
          else Some (error_of ~span:"search.all_demoted" candidates)
        in
        (match all_error with
        | Some e when e <= threshold -> candidates
        | _ ->
            (* Individual probing: every candidate's solo demotion error
               is an independent execution — one parallel batch. Probes
               are never model-pruned: a solo score can overestimate the
               measured error without bound (exactly-representable
               values, self-correcting iteration), so any margin large
               enough to be safe would also never fire. The savings live
               where a wrong model cannot change the outcome. *)
            let individual =
              Trace.with_span "search.probe" (fun () ->
                  let errs =
                    errors_of_sets (List.map (fun v -> [ v ]) candidates)
                  in
                  List.combine candidates errs)
              |> List.filter (fun (_, e) -> e <= threshold)
              |> List.sort (fun (_, a) (_, b) -> compare a b)
            in
            (* Greedy growth, batched per round by speculation: round k
               evaluates in parallel the prefix trials
               [chosen @ pending_1..i] for every pending candidate i,
               i.e. the trials the sequential greedy would run if every
               earlier candidate were accepted. Up to the first failure
               those are exactly the sequential trials; at a failure the
               failing candidate is dropped and the next round restarts
               from the survivors, so accepted sets are bit-identical to
               the one-at-a-time greedy for any [jobs] (the speculated
               trials past a failure are wasted executions — the price
               of the batch, counted like any other run).

               Under `Hybrid, a round's prefixes are nested and atoms
               are non-negative, so their model scores are monotone
               non-decreasing: the first model-rejected prefix caps the
               round's speculation depth (never below one trial — that
               keeps the rounds making progress even when the model
               rejects everything). Capped trials surface as [None] and
               accept treats a [None] as a round boundary — the
               candidate stays pending and is re-speculated next round
               — NOT as a failure, so the decision sequence, and with
               it the chosen set, is bit-identical to `Measured no
               matter how wrong the model is. The executions saved are
               exactly the post-failure speculation waste `Measured
               pays: when a round's last measured trial fails, the
               capped tail is waste the model predicted away, and it is
               only then that the cut counts as avoided. This keeps the
               invariant [hybrid executions + runs avoided = measured
               executions] whenever the all-demoted shortcut's margin
               holds. *)
            let rec grow chosen pending =
              match pending with
              | [] -> chosen
              | _ ->
                  (* Rigorous prefix accepts: round prefixes are nested,
                     so certified bounds are monotone — the longest
                     certified prefix from the round's start is accepted
                     without executing (each accept is a run `Measured
                     must perform). The first non-certified candidate
                     falls through to the measured machinery below,
                     which decides it exactly as before. *)
                  let chosen, pending =
                    if prune_bound = None then (chosen, pending)
                    else begin
                      let rec certify acc pend trial k =
                        match pend with
                        | (v, _) :: rest ->
                            let trial = trial @ [ v ] in
                            if certified trial then
                              certify (acc @ [ v ]) rest trial (k + 1)
                            else (acc, pend, k)
                        | [] -> (acc, [], k)
                      in
                      let chosen', pending', k =
                        certify chosen pending chosen 0
                      in
                      if k > 0 then begin
                        prune_skip k;
                        Trace.event "search.prune"
                          ~attrs:
                            [
                              ("phase", Trace.Str "grow");
                              ("pruned", Trace.Int k);
                            ]
                      end;
                      (chosen', pending')
                    end
                  in
                  match pending with
                  | [] -> chosen
                  | _ ->
                  let prefixes =
                    List.rev
                      (fst
                         (List.fold_left
                            (fun (acc, trial) (v, _) ->
                              let trial = trial @ [ v ] in
                              ((v, trial) :: acc, trial))
                            ([], chosen) pending))
                  in
                  let errs, cut_len =
                    Trace.with_span "search.grow" (fun () ->
                        if Trace.enabled () then
                          Trace.add_attr "pending"
                            (Trace.Int (List.length pending));
                        let to_run, cut =
                          if prune then
                            Trace.with_span "search.model_score" (fun () ->
                                let rec split acc = function
                                  | [] -> (List.rev acc, [])
                                  | ((_, trial) as p) :: rest ->
                                      if model_rejects trial then
                                        (List.rev acc, p :: rest)
                                      else split (p :: acc) rest
                                in
                                let to_run, cut = split [] prefixes in
                                (* Forced progress: always measure at
                                   least the round's first trial. *)
                                let to_run, cut =
                                  match (to_run, cut) with
                                  | [], p :: rest -> ([ p ], rest)
                                  | _ -> (to_run, cut)
                                in
                                if Trace.enabled () then begin
                                  Trace.add_attr "scored"
                                    (Trace.Int (List.length prefixes));
                                  Trace.add_attr "cut"
                                    (Trace.Int (List.length cut))
                                end;
                                (to_run, cut))
                          else (prefixes, [])
                        in
                        let measured =
                          errors_of_sets (List.map snd to_run)
                        in
                        ( List.map (fun e -> Some e) measured
                          @ List.map (fun _ -> None) cut,
                          List.length cut ))
                  in
                  let rec accept chosen pend errs =
                    match (pend, errs) with
                    | [], _ | _, [] -> (chosen, [], false)
                    | (v, _) :: pend', e :: errs' -> (
                        match e with
                        | Some e when e <= threshold ->
                            accept (chosen @ [ v ]) pend' errs'
                        | Some _ ->
                            (* Measured failure: drop the candidate.
                               `Measured would have speculated the cut
                               tail past this failure and wasted it. *)
                            (chosen, pend', true)
                        | None ->
                            (* Cap reached with no failure: keep the
                               candidate for the next round. *)
                            (chosen, pend, false))
                  in
                  let chosen', rest, dropped = accept chosen pending errs in
                  if dropped && cut_len > 0 then skip cut_len;
                  grow chosen' rest
            in
            grow [] individual)
  in
  let config = Config.demote_all Config.double chosen target in
  let evaluation =
    Tuner.evaluate ?builtins ?mode ~jobs ~prog ~func ~args config
  in
  (* Cross-check the searched configuration against the CHEF-FP error
     model: the profile already paid for the one gradient-augmented
     execution, so the estimate for the chosen set is a dot product. *)
  let modelled_error = Profile.score profile config in
  (* Ground-truth cross-check of the chosen configuration, when the
     caller supplied one (the shadow oracle lives in a library above
     this one; see the .mli). Traced like any other phase. *)
  let measured_error =
    Option.map
      (fun m ->
        Trace.with_span "search.measure" (fun () ->
            let e = m config in
            if Trace.enabled () then Trace.add_attr "error" (Trace.Float e);
            e))
      measure
  in
  if Trace.enabled () then begin
    Trace.add_attr "runs_avoided" (Trace.Int (Atomic.get avoided));
    Trace.add_attr "pruned" (Trace.Int (Atomic.get pruned))
  end;
  {
    demoted = chosen;
    executions = Atomic.get executions;
    batched_runs = Atomic.get batched_runs;
    runs_avoided = Atomic.get avoided;
    pruned = Atomic.get pruned;
    strategy;
    evaluation;
    modelled_error;
    measured_error;
    threshold;
    samples =
      (match sampling with Some s -> Array.length s.inputs | None -> 0);
  }
