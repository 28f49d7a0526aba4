(* Performance tracking for the tuning hot path: times Search.tune
   sequentially (-j 1), domain-parallel (-j N), and warm-cache, checks
   the outcomes are bit-identical, and emits the numbers both as a table
   and as machine-readable BENCH_search.json (written next to the
   tables, i.e. in the current directory) so the perf trajectory of
   future PRs can be tracked. *)

module B = Cheffp_benchmarks
module Search = Cheffp_core.Search
module Tuner = Cheffp_core.Tuner
module Compile_cache = Cheffp_ir.Compile_cache
module Meter = Cheffp_util.Meter
module Table = Cheffp_util.Table
module Pool = Cheffp_util.Pool
module Trace = Cheffp_obs.Trace
module Metrics = Cheffp_obs.Metrics

type workload = {
  name : string;
  prog : Cheffp_ir.Ast.program;
  func : string;
  args : Cheffp_ir.Interp.arg list;
  threshold : float;
}

(* Thresholds are chosen below each benchmark's all-demoted error so the
   search takes its expensive path (individual probing + greedy growth)
   — the regime the paper's SS I cost argument is about, and the one the
   worker pool accelerates. *)
let default_workloads ?(scale = 1) () =
  let n = 60_000 * scale in
  [
    {
      name = "arclength";
      prog = B.Arclength.program;
      func = B.Arclength.func_name;
      args = B.Arclength.args ~n;
      threshold = 1e-6;
    };
    {
      name = "simpsons";
      prog = B.Simpsons.program;
      func = B.Simpsons.func_name;
      args = B.Simpsons.args ~a:0. ~b:Float.pi ~n;
      threshold = 1e-10;
    };
    {
      name = "kmeans";
      prog = B.Kmeans.program;
      func = B.Kmeans.func_name;
      args = B.Kmeans.args (B.Kmeans.generate ~npoints:(3_000 * scale) ());
      threshold = 1e-7;
    };
  ]

let smoke_workloads () =
  default_workloads ~scale:1 ()
  |> List.map (fun w ->
         match w.name with
         | "arclength" ->
             { w with args = B.Arclength.args ~n:2_000 }
         | "simpsons" ->
             { w with args = B.Simpsons.args ~a:0. ~b:Float.pi ~n:2_000 }
         | "kmeans" ->
             { w with args = B.Kmeans.args (B.Kmeans.generate ~npoints:300 ()) }
         | _ -> w)

(* The batch block covers all five paper workloads (the search trio
   plus per-option Black-Scholes and HPCCG): thresholds sit below each
   benchmark's all-demoted error so the search takes the expensive
   probe + grow path — the phase batching amortizes. *)
let batch_workloads ?(small = false) () =
  let base = if small then smoke_workloads () else default_workloads () in
  let blackscholes =
    let w = B.Blackscholes.generate ~n:4 () in
    {
      name = "blackscholes";
      prog = B.Blackscholes.program B.Blackscholes.Exact;
      func = B.Blackscholes.price_func;
      args = B.Blackscholes.price_args w 0;
      threshold = 1e-9;
    }
  in
  let hpccg =
    let d = if small then 5 else 7 in
    let w = B.Hpccg.generate ~nx:d ~ny:d ~nz:d ~max_iter:10 () in
    {
      name = "hpccg";
      prog = B.Hpccg.program;
      func = B.Hpccg.func_name;
      args = B.Hpccg.args w;
      threshold = 1e-10;
    }
  in
  base @ [ blackscholes; hpccg ]

type phase = { pname : string; pcount : int; ptotal_s : float }

type pool_util = {
  pu_tasks : int;
  pu_workers : (int * int) list;  (** (worker slot, tasks), slot order *)
  pu_queue_wait_s : float;
  pu_busy_s : float;
}

type row = {
  w : workload;
  executions : int;
  demoted : int;
  seq_s : float;  (** jobs = 1, cold compile cache *)
  par_s : float;  (** jobs = par_jobs, cold compile cache *)
  par_jobs : int;
  warm_s : float;  (** jobs = 1 again, warm compile cache *)
  cache : Compile_cache.stats;  (** stats of the warm run *)
  identical : bool;  (** all runs' outcomes bit-identical *)
  phases : phase list;  (** per-span-name totals of the traced run *)
  pool : pool_util;  (** pool metrics of the traced run *)
  instrumented_ops : int;  (** spans + events + metric updates observed *)
}

(* Aggregate a traced run's spans into a per-phase (span name) breakdown,
   heaviest first. Events carry no duration and are skipped. *)
let phases_of spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s : Trace.span) ->
      match s.Trace.kind with
      | Trace.Event -> ()
      | Trace.Span ->
          let d =
            Int64.to_float (Int64.sub s.Trace.end_ns s.Trace.start_ns) *. 1e-9
          in
          let c, t =
            Option.value ~default:(0, 0.) (Hashtbl.find_opt tbl s.Trace.name)
          in
          Hashtbl.replace tbl s.Trace.name (c + 1, t +. d))
    spans;
  Hashtbl.fold
    (fun pname (pcount, ptotal_s) acc -> { pname; pcount; ptotal_s } :: acc)
    tbl []
  |> List.sort (fun a b -> compare b.ptotal_s a.ptotal_s)

(* Pool utilization from the metrics registry (DESIGN.md §9 names). *)
let pool_util_of_snapshot snap =
  let tasks = ref 0
  and workers = ref []
  and qw = ref 0.
  and busy = ref 0. in
  List.iter
    (fun (name, v) ->
      match (name, v) with
      | "pool.tasks", Metrics.Counter n -> tasks := n
      | "pool.queue_wait_seconds", Metrics.Histogram { sum; _ } -> qw := sum
      | "pool.busy_seconds", Metrics.Histogram { sum; _ } -> busy := sum
      | name, Metrics.Counter n -> (
          match String.split_on_char '.' name with
          | [ "pool"; "worker"; w; "tasks" ] -> (
              match int_of_string_opt w with
              | Some w -> workers := (w, n) :: !workers
              | None -> ())
          | _ -> ())
      | _ -> ())
    snap;
  {
    pu_tasks = !tasks;
    pu_workers = List.sort compare !workers;
    pu_queue_wait_s = !qw;
    pu_busy_s = !busy;
  }

let same_outcome (a : Search.outcome) (b : Search.outcome) =
  a.Search.demoted = b.Search.demoted
  && a.Search.executions = b.Search.executions
  && a.Search.modelled_error = b.Search.modelled_error
  && a.Search.evaluation.Tuner.actual_error
     = b.Search.evaluation.Tuner.actual_error
  && a.Search.evaluation.Tuner.modelled_speedup
     = b.Search.evaluation.Tuner.modelled_speedup

let measure ~jobs w =
  (* Pinned to `Measured: this block tracks the measured search's wall
     clock across PRs, so its execution counts must stay comparable —
     the profile-guided strategies get their own model_guided block. *)
  let tune j =
    Search.tune ~jobs:j ~strategy:`Measured ~prog:w.prog ~func:w.func
      ~args:w.args ~threshold:w.threshold ()
  in
  Gc.compact ();
  Compile_cache.clear ();
  let seq, seq_s = Meter.time (fun () -> tune 1) in
  Gc.compact ();
  Compile_cache.clear ();
  let par, par_s = Meter.time (fun () -> tune jobs) in
  (* Third run without clearing: every configuration the search visits
     was compiled by the run above, so this isolates the compile cache's
     contribution (and its stats prove the hits happened). *)
  Gc.compact ();
  Compile_cache.reset_stats ();
  let warm, warm_s = Meter.time (fun () -> tune 1) in
  let cache = Compile_cache.stats () in
  (* Fourth run, fully instrumented (warm cache, same jobs as the
     parallel run): its spans become the per-phase breakdown, the pool
     histograms become the utilization block, and its outcome must stay
     bit-identical — instrumentation is observation only. Its wall clock
     is deliberately not compared against the uninstrumented runs. *)
  Gc.compact ();
  Metrics.reset ();
  Metrics.set_enabled true;
  Trace.reset ();
  Trace.set_enabled true;
  let traced = tune jobs in
  Trace.set_enabled false;
  Metrics.set_enabled false;
  let spans = Trace.spans () in
  Trace.reset ();
  let pool = pool_util_of_snapshot (Metrics.snapshot ()) in
  (* Every span/event is one disabled-path branch when tracing is off;
     every pool task updates two counters and two histograms; every
     cache lookup bumps one counter. This op count feeds the overhead
     guard below. *)
  let instrumented_ops =
    List.length spans
    + (4 * pool.pu_tasks)
    + cache.Compile_cache.hits + cache.Compile_cache.misses
  in
  Metrics.reset ();
  {
    w;
    executions = seq.Search.executions;
    demoted = List.length seq.Search.demoted;
    seq_s;
    par_s;
    par_jobs = jobs;
    warm_s;
    cache;
    identical =
      same_outcome seq par && same_outcome seq warm
      && same_outcome seq traced;
    phases = phases_of spans;
    pool;
    instrumented_ops;
  }

(* ------------------------------------------------------------------ *)
(* Batched multi-configuration execution (Ir.Batch): same search, same
   outcome, K candidate configs per lane sweep. The scalar and batched
   searches both run cold-cache, jobs = 1, so the measured ratio
   isolates the lane batching itself. *)

type batch_row = {
  bw : workload;
  b_lanes : int;
  b_executions : int;  (** program-runs-equivalent (identical both ways) *)
  b_batched_runs : int;  (** lane sweeps of the batched search *)
  b_divergences : int;  (** lanes that fell back to scalar re-runs *)
  b_scalar_s : float;
  b_batched_s : float;
  b_identical : bool;  (** batched outcome bit-identical to scalar *)
}

let batch_divergence_c = Metrics.counter "batch.divergence_total"

let measure_batch ?(lanes = Cheffp_ir.Batch.default_lanes) w =
  (* Pinned to `Measured for the same comparability reason as [measure]. *)
  let tune ?batch () =
    Search.tune ~jobs:1 ~strategy:`Measured ?batch ~prog:w.prog ~func:w.func
      ~args:w.args ~threshold:w.threshold ()
  in
  Gc.compact ();
  Compile_cache.clear ();
  let scalar, b_scalar_s = Meter.time (fun () -> tune ()) in
  Gc.compact ();
  Compile_cache.clear ();
  let d0 = Metrics.counter_value batch_divergence_c in
  let batched, b_batched_s = Meter.time (fun () -> tune ~batch:lanes ()) in
  {
    bw = w;
    b_lanes = lanes;
    b_executions = scalar.Search.executions;
    b_batched_runs = batched.Search.batched_runs;
    b_divergences = Metrics.counter_value batch_divergence_c - d0;
    b_scalar_s;
    b_batched_s;
    b_identical = same_outcome scalar batched;
  }

let batch_speedup r =
  if r.b_batched_s > 0. then r.b_scalar_s /. r.b_batched_s else 1.

let batch_divergence_rate r =
  if r.b_executions > 0 then
    float_of_int r.b_divergences /. float_of_int r.b_executions
  else 0.

let print_batch_rows rows =
  Table.print
    ~header:
      [
        "workload"; "runs"; "sweeps"; "diverged"; "scalar"; "batched";
        "batch x"; "identical";
      ]
    (List.map
       (fun r ->
         [
           r.bw.name;
           string_of_int r.b_executions;
           string_of_int r.b_batched_runs;
           string_of_int r.b_divergences;
           Printf.sprintf "%.3f s" r.b_scalar_s;
           Printf.sprintf "%.3f s" r.b_batched_s;
           Printf.sprintf "%.2fx" (batch_speedup r);
           string_of_bool r.b_identical;
         ])
       rows)

(* ------------------------------------------------------------------ *)
(* Profile-guided search (Core.Profile): one gradient-augmented run
   scores every candidate configuration, so `Hybrid skips the
   executions measured search wastes on speculation past a failure
   (chosen set bit-identical, strictly fewer executions) and `Modelled
   picks a configuration with zero candidate executions. All runs are
   jobs=1, so the comparison is core-count independent. *)

type model_row = {
  mw : workload;
  m_lanes : int;
  m_prune_margin : float;
  m_measured_execs : int;
  m_measured_batched_runs : int;
  m_measured_s : float;
  m_hybrid_execs : int;
  m_hybrid_batched_runs : int;
  m_hybrid_avoided : int;
  m_hybrid_s : float;
  m_modelled_execs : int;
  m_modelled_avoided : int;
  m_modelled_augmented_runs : int;  (** profile builds of the cold run *)
  m_modelled_confirmations : int;  (** Tuner.evaluate: reference + config *)
  m_modelled_s : float;
  m_modelled_warm_s : float;  (** re-run with the profile cached *)
  m_profile_cache_hits : int;  (** hits of the warm re-run *)
  m_modelled_config : Cheffp_precision.Config.t;
  m_modelled_demoted : int;
  m_demoted_identical : bool;  (** hybrid chose the same set as measured *)
}

let profile_builds_c = Metrics.counter "profile.builds"
let profile_cache_hits_c = Metrics.counter "profile.cache_hits"

let measure_model ?(lanes = Cheffp_ir.Batch.default_lanes)
    ?(prune_margin = 64.) w =
  let tune ~strategy ?batch () =
    Search.tune ~jobs:1 ~strategy ~prune_margin ?batch ~prog:w.prog
      ~func:w.func ~args:w.args ~threshold:w.threshold ()
  in
  Gc.compact ();
  Compile_cache.clear ();
  let measured, m_measured_s =
    Meter.time (fun () -> tune ~strategy:`Measured ~batch:lanes ())
  in
  Gc.compact ();
  Compile_cache.clear ();
  let hybrid, m_hybrid_s =
    Meter.time (fun () -> tune ~strategy:`Hybrid ~batch:lanes ())
  in
  Gc.compact ();
  Compile_cache.clear ();
  let b0 = Metrics.counter_value profile_builds_c in
  let modelled, m_modelled_s =
    Meter.time (fun () -> tune ~strategy:`Modelled ())
  in
  let m_modelled_augmented_runs = Metrics.counter_value profile_builds_c - b0 in
  (* Same inputs again, cache kept: the augmented run is served from the
     shared LRU, proving a whole tuning session pays for one profile. *)
  let h0 = Metrics.counter_value profile_cache_hits_c in
  let _, m_modelled_warm_s =
    Meter.time (fun () -> tune ~strategy:`Modelled ())
  in
  let m_profile_cache_hits =
    Metrics.counter_value profile_cache_hits_c - h0
  in
  {
    mw = w;
    m_lanes = lanes;
    m_prune_margin = prune_margin;
    m_measured_execs = measured.Search.executions;
    m_measured_batched_runs = measured.Search.batched_runs;
    m_measured_s;
    m_hybrid_execs = hybrid.Search.executions;
    m_hybrid_batched_runs = hybrid.Search.batched_runs;
    m_hybrid_avoided = hybrid.Search.runs_avoided;
    m_hybrid_s;
    m_modelled_execs = modelled.Search.executions;
    m_modelled_avoided = modelled.Search.runs_avoided;
    m_modelled_augmented_runs;
    m_modelled_confirmations = 2;
    m_modelled_s;
    m_modelled_warm_s;
    m_profile_cache_hits;
    m_modelled_config = modelled.Search.evaluation.Tuner.config;
    m_modelled_demoted = List.length modelled.Search.demoted;
    m_demoted_identical = hybrid.Search.demoted = measured.Search.demoted;
  }

let print_model_rows rows =
  Table.print
    ~header:
      [
        "workload"; "measured"; "hybrid"; "avoided"; "modelled"; "aug";
        "meas s"; "hyb s"; "model s"; "identical";
      ]
    (List.map
       (fun r ->
         [
           r.mw.name;
           string_of_int r.m_measured_execs;
           string_of_int r.m_hybrid_execs;
           string_of_int r.m_hybrid_avoided;
           string_of_int r.m_modelled_execs;
           string_of_int r.m_modelled_augmented_runs;
           Printf.sprintf "%.3f s" r.m_measured_s;
           Printf.sprintf "%.3f s" r.m_hybrid_s;
           Printf.sprintf "%.3f s" r.m_modelled_s;
           string_of_bool r.m_demoted_identical;
         ])
       rows)

(* ------------------------------------------------------------------ *)
(* Rigorous range bounds (DESIGN.md §17). Two claims, separately gated:

   - Soundness: on every FPCore corpus kernel whose analysis certifies a
     bound, the all-charged-vars-at-f32 bound must dominate the measured
     demotion error |y_f32config − y_f64| at inputs sampled from the
     kernel's [:pre] box (the same quantity the shadow oracle reports as
     [demotion_error]). UNBOUNDED and not-certified verdicts claim
     nothing and are vacuously sound — what is gated is zero UNSOUND.

   - Pruning: `Hybrid search with the rigorous [prune_bound] must pick
     the bit-identical demoted set at no more executions on every paper
     workload, and strictly fewer on the ones where bounds certify. *)

module Range = Cheffp_range.Range
module Rbox = Cheffp_range.Box

type range_sound_row = {
  g_name : string;
  g_verdict : string;  (** BOUNDED | UNBOUNDED | NOT_CERTIFIED *)
  g_bound : float;  (** certified f32 bound; [nan] when nothing is claimed *)
  g_sampled_max : float;  (** max measured demotion error over the points *)
  g_points : int;
  g_sound : bool;  (** bound >= sampled max; vacuously true without a claim *)
}

let range_soundness ?(samples = 24) () =
  let module Import = Cheffp_fpcore.Import in
  let module Interp = Cheffp_ir.Interp in
  let module Config = Cheffp_precision.Config in
  let module Sampling = Cheffp_core.Sampling in
  let entries = B.Corpus.load () in
  List.map
    (fun (e : B.Corpus.entry) ->
      let func = e.core.Import.name in
      let f = Cheffp_ir.Ast.func_exn e.prog func in
      let args = e.core.Import.default_args in
      let ranges = e.core.Import.ranges in
      let box = Rbox.of_args ~ranges ~func:f ~args () in
      let a = Range.analyze ~prog:e.prog ~func ~box () in
      let vacuous verdict =
        {
          g_name = func;
          g_verdict = verdict;
          g_bound = Float.nan;
          g_sampled_max = Float.nan;
          g_points = 0;
          g_sound = true;
        }
      in
      match a.Range.verdict with
      | Range.Unbounded _ -> vacuous "UNBOUNDED"
      | Range.Bounded -> (
          let vars = Range.charged_vars a in
          match Range.score a ~target:Cheffp_precision.Fp.F32 vars with
          | None -> vacuous "NOT_CERTIFIED"
          | Some bound ->
              let config =
                Config.demote_all Config.double vars Cheffp_precision.Fp.F32
              in
              let plan = Sampling.plan ~ranges ~func:f ~args () in
              let inputs = Sampling.draw_many plan ~seed:42L samples in
              let demotion_error input =
                let y config =
                  Interp.run_float ~config ~prog:e.prog ~func input
                in
                Float.abs (y config -. y Config.double)
              in
              let worst =
                Array.fold_left
                  (fun acc input -> Float.max acc (demotion_error input))
                  (demotion_error args) inputs
              in
              {
                g_name = func;
                g_verdict = "BOUNDED";
                g_bound = bound;
                g_sampled_max = worst;
                g_points = Array.length inputs + 1;
                g_sound = worst <= bound;
              }))
    entries

let range_unsound rows = List.filter (fun r -> not r.g_sound) rows

let range_certified rows =
  List.length (List.filter (fun r -> r.g_verdict = "BOUNDED") rows)

let print_range_soundness rows =
  Printf.printf
    "range soundness: %d corpus kernel(s), %d certified bounds, %d \
     UNBOUNDED/not-certified (vacuous), %d UNSOUND\n"
    (List.length rows) (range_certified rows)
    (List.length rows - range_certified rows)
    (List.length (range_unsound rows));
  List.iter
    (fun r ->
      if not r.g_sound then
        Printf.printf "  UNSOUND %s: bound %.6e < sampled max %.6e\n" r.g_name
          r.g_bound r.g_sampled_max)
    rows;
  let tight =
    List.filter_map
      (fun r ->
        if r.g_verdict = "BOUNDED" && r.g_sampled_max > 0. then
          Some (r.g_bound /. r.g_sampled_max)
        else None)
      rows
  in
  match tight with
  | [] -> ()
  | _ ->
      let sorted = List.sort compare tight in
      Printf.printf
        "bound / sampled-max overestimation over %d kernels: median %.1fx\n"
        (List.length sorted)
        (List.nth sorted (List.length sorted / 2))

(* Pruning is measured in two threshold regimes per workload, against
   the same `Hybrid baseline each time:

   - tight: the workload's paper threshold, sitting below the
     all-demoted error so the search takes its expensive probe + grow
     path. Rigorous bounds rarely certify here (they over-approximate
     the measured error by ~an order of magnitude); what is gated is
     that they never change the chosen set and never cost executions.

   - loose: the threshold is the certified all-candidates bound itself
     — the "can everything demote?" fast-path question the analysis can
     answer outright. Here the search must accept without executing a
     single candidate (strictly fewer executions, same set). Workloads
     whose analysis is UNBOUNDED fall back to twice the measured
     all-demoted error, where certification cannot fire and both runs
     must match exactly. *)
type range_prune_row = {
  pw : workload;
  p_verdict : string;
  p_analyze_ms : float;  (** one-off cost of the rigorous analysis *)
  p_baseline_execs : int;  (** tight: `Hybrid, no prune_bound *)
  p_pruned_execs : int;  (** tight: `Hybrid + rigorous prune_bound *)
  p_pruned : int;
  p_identical : bool;
  p_loose_threshold : float;
  p_loose_baseline_execs : int;
  p_loose_pruned_execs : int;
  p_loose_pruned : int;
  p_loose_identical : bool;
}

let measure_range_prune w =
  let module Config = Cheffp_precision.Config in
  let module Interp = Cheffp_ir.Interp in
  let tune ~threshold ?prune_bound () =
    Gc.compact ();
    Compile_cache.clear ();
    Search.tune ~jobs:1 ?prune_bound ~prog:w.prog ~func:w.func ~args:w.args
      ~threshold ()
  in
  let f = Cheffp_ir.Ast.func_exn w.prog w.func in
  (* Point-mode search measures at the base args, so the certificate
     only needs the degenerate point box — the tightest the Taylor
     forms get. *)
  let box = Rbox.point_of_args ~func:f ~args:w.args () in
  let a, analyze_s =
    Meter.time (fun () -> Range.analyze ~prog:w.prog ~func:w.func ~box ())
  in
  let prune_bound = Range.pruner a ~target:Cheffp_precision.Fp.F32 in
  let candidates = Tuner.float_variables f in
  let loose_threshold =
    match prune_bound candidates with
    | Some b -> b
    | None ->
        (* Nothing certifies: park the loose regime at twice the
           measured all-demoted error, where both runs must agree. *)
        let y config =
          Interp.run_float ~config ~prog:w.prog ~func:w.func
            (Interp.copy_args w.args)
        in
        let demotion =
          Float.abs
            (y (Config.demote_all Config.double candidates
                  Cheffp_precision.Fp.F32)
            -. y Config.double)
        in
        2. *. Float.max demotion 1e-300
  in
  let baseline = tune ~threshold:w.threshold () in
  let pruned = tune ~threshold:w.threshold ~prune_bound () in
  let loose_baseline = tune ~threshold:loose_threshold () in
  let loose_pruned = tune ~threshold:loose_threshold ~prune_bound () in
  {
    pw = w;
    p_verdict = Range.verdict_to_string a.Range.verdict;
    p_analyze_ms = analyze_s *. 1000.;
    p_baseline_execs = baseline.Search.executions;
    p_pruned_execs = pruned.Search.executions;
    p_pruned = pruned.Search.pruned;
    p_identical = pruned.Search.demoted = baseline.Search.demoted;
    p_loose_threshold = loose_threshold;
    p_loose_baseline_execs = loose_baseline.Search.executions;
    p_loose_pruned_execs = loose_pruned.Search.executions;
    p_loose_pruned = loose_pruned.Search.pruned;
    p_loose_identical = loose_pruned.Search.demoted = loose_baseline.Search.demoted;
  }

let print_range_prune_rows rows =
  Table.print
    ~header:
      [
        "workload"; "tight"; "+bounds"; "loose"; "+bounds"; "pruned";
        "verdict"; "analyze"; "identical";
      ]
    (List.map
       (fun r ->
         [
           r.pw.name;
           string_of_int r.p_baseline_execs;
           string_of_int r.p_pruned_execs;
           string_of_int r.p_loose_baseline_execs;
           string_of_int r.p_loose_pruned_execs;
           string_of_int (r.p_pruned + r.p_loose_pruned);
           r.p_verdict;
           Printf.sprintf "%.1f ms" r.p_analyze_ms;
           string_of_bool (r.p_identical && r.p_loose_identical);
         ])
       rows)

type range_block = {
  rg_sound : range_sound_row list;
  rg_prune : range_prune_row list;
}

let range_bench ?(samples = 24) ~workloads () =
  let rg_sound = range_soundness ~samples () in
  print_range_soundness rg_sound;
  let rg_prune = List.map measure_range_prune workloads in
  print_range_prune_rows rg_prune;
  { rg_sound; rg_prune }

(* Overhead guard: the disabled instrumentation path must be paid-for by
   design, not by measurement luck. We microbenchmark the disabled
   [with_span] (one atomic load + branch + call), assert it allocates
   nothing, and bound each workload's worst-case instrumentation cost as
   [observed ops x per-op cost] relative to its uninstrumented wall
   clock. The op count comes from the traced run, so it is the real
   number of branch points the workload crosses, not a guess. *)

let noop () = ()

type probe = { span_ns : float; alloc_words : float }

let probe_disabled_path () =
  assert (not (Trace.enabled ()));
  let iters = 2_000_000 in
  for _ = 1 to 10_000 do
    Trace.with_span "overhead-probe" noop
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    Trace.with_span "overhead-probe" noop
  done;
  let alloc_words = Gc.minor_words () -. w0 in
  let _, s =
    Meter.time (fun () ->
        for _ = 1 to iters do
          Trace.with_span "overhead-probe" noop
        done)
  in
  { span_ns = s *. 1e9 /. float_of_int iters; alloc_words }

let overhead_pct probe r =
  if r.seq_s <= 0. then 0.
  else
    float_of_int r.instrumented_ops *. probe.span_ns *. 1e-9 /. r.seq_s
    *. 100.

let overhead_guard ?(limit_pct = 2.0) rows =
  let probe = probe_disabled_path () in
  Printf.printf
    "overhead guard: disabled with_span = %.1f ns/call, %.0f minor words \
     allocated over 2M calls\n"
    probe.span_ns probe.alloc_words;
  let ok_alloc = probe.alloc_words = 0. in
  if not ok_alloc then
    Printf.printf "overhead guard: FAIL — disabled path allocates\n";
  let ok_cost =
    List.for_all
      (fun r ->
        let pct = overhead_pct probe r in
        Printf.printf
          "overhead guard: %-12s %6d ops x %.1f ns = %.4f%% of %.3f s \
           (limit %.1f%%)%s\n"
          r.w.name r.instrumented_ops probe.span_ns pct r.seq_s limit_pct
          (if pct < limit_pct then "" else "  FAIL");
        pct < limit_pct)
      rows
  in
  ok_alloc && ok_cost

(* ------------------------------------------------------------------ *)
(* Estimate-soundness block: every built-in benchmark is checked
   against the double-double shadow oracle at its EXPERIMENTS.md-style
   configuration (tuner-chosen for the Table I trio, the Fig. 9
   split set for HPCCG, uniform F32 for per-option Black-Scholes).
   BENCH_search.json carries the coverage rate and the median
   tightness so estimate-quality regressions show up in the perf
   trajectory, not only in unit tests. *)

module Oracle = Cheffp_shadow.Oracle
module Config = Cheffp_precision.Config
module Fp = Cheffp_precision.Fp

type soundness_row = { sbench : string; verdict : Oracle.verdict }

let soundness_rows ?(small = false) () =
  let tuned ~prog ~func ~args ~threshold =
    (Tuner.tune ~prog ~func ~args ~threshold ()).Tuner.evaluation.Tuner.config
  in
  let check sbench ~prog ~func ~args config =
    {
      sbench;
      verdict = Oracle.check_estimate ~prog ~func ~config args;
    }
  in
  let n = if small then 2_000 else 10_000 in
  let arc =
    let args = B.Arclength.args ~n in
    let prog = B.Arclength.program and func = B.Arclength.func_name in
    check "arclength" ~prog ~func ~args
      (tuned ~prog ~func ~args ~threshold:1e-5)
  in
  let simpsons =
    let args = B.Simpsons.args ~a:0. ~b:Float.pi ~n in
    let prog = B.Simpsons.program and func = B.Simpsons.func_name in
    check "simpsons" ~prog ~func ~args
      (tuned ~prog ~func ~args ~threshold:1e-6)
  in
  let kmeans =
    let w = B.Kmeans.generate ~npoints:(if small then 300 else 1_000) () in
    let args = B.Kmeans.args w in
    let prog = B.Kmeans.program and func = B.Kmeans.func_name in
    check "kmeans" ~prog ~func ~args (tuned ~prog ~func ~args ~threshold:1e-6)
  in
  let blackscholes =
    let w = B.Blackscholes.generate ~n:4 () in
    check "blackscholes"
      ~prog:(B.Blackscholes.program B.Blackscholes.Exact)
      ~func:B.Blackscholes.price_func
      ~args:(B.Blackscholes.price_args w 0)
      (Config.uniform Fp.F32)
  in
  let hpccg =
    let d = if small then 6 else 8 in
    let w = B.Hpccg.generate ~nx:d ~ny:d ~nz:d ~max_iter:10 () in
    check "hpccg" ~prog:B.Hpccg.program ~func:B.Hpccg.func_name
      ~args:(B.Hpccg.args w)
      (Config.demote_all Config.double
         [ "r"; "p"; "ap"; "sum"; "alpha"; "beta"; "rtrans"; "oldrtrans" ]
         Fp.F32)
  in
  [ arc; simpsons; kmeans; blackscholes; hpccg ]

let soundness_coverage rows =
  let sound = List.filter (fun r -> r.verdict.Oracle.sound) rows in
  float_of_int (List.length sound) /. float_of_int (max 1 (List.length rows))

let soundness_median_tightness rows =
  match
    List.filter_map (fun r -> r.verdict.Oracle.tightness) rows
    |> Array.of_list
  with
  | [||] -> Float.nan
  | a -> Cheffp_util.Stats.median a

let print_soundness rows =
  print_endline
    "estimate soundness vs double-double shadow oracle (extended mode, \
     margin 1):";
  Table.print
    ~header:[ "benchmark"; "measured"; "bound"; "tightness"; "sound" ]
    (List.map
       (fun r ->
         let v = r.verdict in
         [
           r.sbench;
           Printf.sprintf "%.3e" v.Oracle.measured_error;
           Printf.sprintf "%.3e" v.Oracle.bound;
           (match v.Oracle.tightness with
           | Some t -> Printf.sprintf "%.2fx" t
           | None -> "-");
           string_of_bool v.Oracle.sound;
         ])
       rows);
  Printf.printf "coverage %.0f%%, median tightness %.2fx\n"
    (100. *. soundness_coverage rows)
    (soundness_median_tightness rows)

(* ------------------------------------------------------------------ *)
(* Distribution block (DESIGN.md §16): Monte-Carlo input sweeps at SoA
   lane speed. Per workload: samples/sec of N sampled evaluations run
   (a) scalar one-by-one, (b) as SoA input sweeps on one domain,
   (c) as sweep chunks fanned over the pool — all three bit-identical
   per sample — plus the quantile-targeted vs single-point search
   comparison with a shadow-oracle soundness check at sampled points. *)

module Sampling = Cheffp_core.Sampling
module Quantile = Cheffp_core.Quantile

type dist_row = {
  dw : workload;
  d_samples : int;
  d_sampled_vars : int;  (** plan slots actually drawn (0 = all-int args) *)
  d_scalar_s : float;  (** per-sample scalar Compile.run loop, warm cache *)
  d_sweep_s : float;  (** Batch.run_inputs_many, jobs = 1 *)
  d_pool_s : float;  (** Batch.run_inputs_many, jobs = d_pool_jobs *)
  d_pool_jobs : int;
  d_divergences : int;  (** batch.divergence_total delta over the sweeps *)
  d_identical : bool;  (** every sweep's per-sample results = scalar *)
  d_point_demoted : string list;  (** single-point Search.tune set *)
  d_quantile_demoted : string list;  (** quantile-targeted set *)
  d_point_p99 : float;  (** sampled p99 error of the point-tuned config *)
  d_quantile_p99 : float;  (** sampled p99 error of the quantile-tuned config *)
  d_sound : bool;  (** oracle SOUND for the quantile config at sampled points *)
}

let dist_rate n s = if s > 0. then float_of_int n /. s else 0.
let dist_scalar_rate r = dist_rate r.d_samples r.d_scalar_s
let dist_sweep_rate r = dist_rate r.d_samples r.d_sweep_s
let dist_pool_rate r = dist_rate r.d_samples r.d_pool_s

(* Microsecond kernels (per-option Black-Scholes) make a single pass
   over the samples too short to time against scheduler noise: repeat
   the run until the window reaches [min_elapsed] and report the mean.
   The first pass's result is returned for the identity checks. *)
let time_stable ?(min_elapsed = 0.05) f =
  let r, t = Meter.time f in
  if t >= min_elapsed then (r, t)
  else begin
    let reps =
      max 1 (int_of_float (Float.ceil (min_elapsed /. Float.max 1e-6 t)))
    in
    let _, total =
      Meter.time (fun () ->
          for _ = 1 to reps do
            ignore (f ())
          done)
    in
    (r, total /. float_of_int reps)
  end

let measure_dist ?(samples = 192) ?(lanes = Cheffp_ir.Batch.default_sweep_lanes)
    ?(jobs = 4) ?(quantile = 0.99) w =
  let module Batch = Cheffp_ir.Batch in
  let module Compile = Cheffp_ir.Compile in
  let func_decl = Cheffp_ir.Ast.func_exn w.prog w.func in
  let plan = Sampling.plan ~func:func_decl ~args:w.args () in
  let inputs = Sampling.draw_many plan ~seed:42L samples in
  (* All three throughput axes evaluate the same demoted configuration —
     the axis under test is one config x K sampled inputs. *)
  let config = Config.uniform Fp.F32 in
  Compile_cache.clear ();
  (* Warm both artifacts so the timed loops measure execution, not
     compilation (mirrors the warm-cache row of the search block). *)
  let scalar_c = Compile.compile ~config ~prog:w.prog ~func:w.func () in
  let run_scalar () =
    Array.map
      (fun args ->
        Compile.run_float scalar_c (Cheffp_ir.Interp.copy_args args))
      inputs
  in
  let run_sweep jobs () =
    Sampling.sweep ~jobs ~lanes ~prog:w.prog ~func:w.func ~config inputs
  in
  (* Identity and divergence accounting on single untimed passes (the
     timed loops below repeat, which would inflate the counter). *)
  let scalar_res = run_scalar () in
  let d0 = Metrics.counter_value batch_divergence_c in
  let sweep_res = run_sweep 1 () in
  let pool_res = run_sweep jobs () in
  let d_divergences = Metrics.counter_value batch_divergence_c - d0 in
  let d_identical = sweep_res = scalar_res && pool_res = scalar_res in
  Gc.compact ();
  let _, d_scalar_s = time_stable run_scalar in
  Gc.compact ();
  let _, d_sweep_s = time_stable (run_sweep 1) in
  Gc.compact ();
  let _, d_pool_s = time_stable (run_sweep jobs) in
  (* Quantile-targeted vs single-point tuning: same threshold, but the
     quantile search judges every candidate by the p-quantile of its
     measured error over the sampled inputs instead of the midpoint. *)
  let tune ?sampling () =
    Search.tune ~jobs:1 ~strategy:`Measured ~batch:lanes ?sampling
      ~prog:w.prog ~func:w.func ~args:w.args ~threshold:w.threshold ()
  in
  let point = tune () in
  let quantile_o = tune ~sampling:{ Search.inputs; quantile } () in
  let p99_of config =
    let s, _ =
      Sampling.measured_summary ~lanes ~prog:w.prog ~func:w.func ~config
        inputs
    in
    s.Quantile.p99
  in
  let d_point_p99 = p99_of point.Search.evaluation.Tuner.config in
  let quantile_config = quantile_o.Search.evaluation.Tuner.config in
  let d_quantile_p99 = p99_of quantile_config in
  (* Oracle gate at sampled points: the quantile-chosen configuration
     must stay SOUND against the double-double shadow at the inputs the
     statistics were computed from, not just at the midpoint. Margin 2
     for the same first-order headroom as the model-soundness gates. *)
  let d_sound =
    Array.for_all
      (fun args ->
        (Oracle.check_estimate ~margin:2.0 ~prog:w.prog ~func:w.func
           ~config:quantile_config (Cheffp_ir.Interp.copy_args args))
          .Oracle.sound)
      (Array.sub inputs 0 (min 3 (Array.length inputs)))
  in
  {
    dw = w;
    d_samples = samples;
    d_sampled_vars = List.length (Sampling.sampled_vars plan);
    d_scalar_s;
    d_sweep_s;
    d_pool_s;
    d_pool_jobs = jobs;
    d_divergences;
    d_identical;
    d_point_demoted = point.Search.demoted;
    d_quantile_demoted = quantile_o.Search.demoted;
    d_point_p99;
    d_quantile_p99;
    d_sound;
  }

let print_dist_rows rows =
  Table.print
    ~header:
      [
        "workload"; "sampled"; "scalar/s"; "sweep/s"; "pool/s"; "sweep x";
        "diverged"; "identical"; "sets differ"; "sound";
      ]
    (List.map
       (fun r ->
         [
           r.dw.name;
           string_of_int r.d_sampled_vars;
           Printf.sprintf "%.0f" (dist_scalar_rate r);
           Printf.sprintf "%.0f" (dist_sweep_rate r);
           Printf.sprintf "%.0f (j=%d)" (dist_pool_rate r) r.d_pool_jobs;
           Printf.sprintf "%.2fx" (dist_sweep_rate r /. dist_scalar_rate r);
           string_of_int r.d_divergences;
           string_of_bool r.d_identical;
           string_of_bool (r.d_point_demoted <> r.d_quantile_demoted);
           string_of_bool r.d_sound;
         ])
       rows);
  List.iter
    (fun r ->
      if r.d_point_demoted <> r.d_quantile_demoted then
        Printf.printf
          "%s: point tuning demotes {%s} (sampled p99 %.3e); p99-targeted \
           tuning demotes {%s} (sampled p99 %.3e)\n"
          r.dw.name
          (String.concat ", " r.d_point_demoted)
          r.d_point_p99
          (String.concat ", " r.d_quantile_demoted)
          r.d_quantile_p99)
    rows

(* Server block: the paper workloads driven through a live in-process
   [cheffp serve] daemon as search requests over loopback TCP. One cold
   round pays the cross-request compile misses, a warm sequential
   replay and a warm concurrent round (one connection + thread per
   workload, same request count) then measure throughput and
   client-observed latency, and every response's outcome is checked
   field-for-field against a direct in-process [Search.tune] on the
   same rendered source — the bench-side version of the serve-smoke
   bit-identity gate. *)

module Server = Cheffp_server.Server
module Client = Cheffp_server.Client
module Sjson = Cheffp_server.Json
module Shadow = Cheffp_shadow.Shadow
module Stats = Cheffp_util.Stats

type server_row = {
  vw : workload;
  v_identical : bool;  (** every response == direct Search.tune outcome *)
  v_cold_ms : float;  (** first-request latency, cold compile cache *)
  v_cold_hits : int;
  v_cold_misses : int;
}

type server_block = {
  sv_rows : server_row list;
  sv_workers : int;
  sv_rounds : int;
  sv_requests : int;  (** warm requests per mode (rounds * workloads) *)
  sv_seq_s : float;  (** warm sequential replay wall clock *)
  sv_conc_s : float;  (** warm concurrent wall clock, same request count *)
  sv_p50_ms : float;  (** over all warm client-observed latencies *)
  sv_p99_ms : float;
  sv_warm_hit_rate : float;  (** compile-cache hits/lookups across warm *)
}

let sv_seq_rps b =
  if b.sv_seq_s > 0. then float_of_int b.sv_requests /. b.sv_seq_s else 0.

let sv_conc_rps b =
  if b.sv_conc_s > 0. then float_of_int b.sv_requests /. b.sv_conc_s else 0.

(* CLI argument syntax (arrays as v1:v2:...); %.17g round-trips every
   finite float, which is what keeps the wire detour bit-exact. *)
let arg_string = function
  | Cheffp_ir.Interp.Aint i -> string_of_int i
  | Cheffp_ir.Interp.Aflt x -> Printf.sprintf "%.17g" x
  | Cheffp_ir.Interp.Afarr a ->
      String.concat ":"
        (List.map (Printf.sprintf "%.17g") (Array.to_list a))
  | Cheffp_ir.Interp.Aiarr a ->
      String.concat ":" (List.map string_of_int (Array.to_list a))

(* The direct baseline must see exactly what the server parsed: the
   same rendered source and arguments round-tripped through the same
   string syntax. *)
let reparse_arg = function
  | Cheffp_ir.Interp.Aint i -> Cheffp_ir.Interp.Aint i
  | Cheffp_ir.Interp.Aflt x ->
      Cheffp_ir.Interp.Aflt (float_of_string (Printf.sprintf "%.17g" x))
  | Cheffp_ir.Interp.Afarr a ->
      Cheffp_ir.Interp.Afarr
        (Array.map (fun x -> float_of_string (Printf.sprintf "%.17g" x)) a)
  | Cheffp_ir.Interp.Aiarr a -> Cheffp_ir.Interp.Aiarr (Array.copy a)

let search_request ~id w =
  Client.request ~id ~cmd:"search"
    [
      ("program", Sjson.Str (Cheffp_ir.Pp.program_to_string w.prog));
      ("func", Sjson.Str w.func);
      ( "args",
        Sjson.List (List.map (fun a -> Sjson.Str (arg_string a)) w.args) );
      ("threshold", Sjson.Num w.threshold);
      ("tenant", Sjson.Str "bench");
    ]

(* The outcome fields [same_outcome] compares, as they cross the wire. *)
type wire_outcome = {
  wo_demoted : string list;
  wo_executions : int;
  wo_modelled_error : float;
  wo_actual_error : float;
  wo_modelled_speedup : float;
}

let expect_ok resp =
  (match Sjson.to_bool_opt (Sjson.member "ok" resp) with
  | Some true -> ()
  | _ -> failwith ("server error response: " ^ Sjson.to_string resp));
  let c = Sjson.member "cache" resp in
  let geti n =
    Option.value ~default:0 (Sjson.to_int_opt (Sjson.member n c))
  in
  (geti "hits", geti "misses")

let wire_outcome_of resp =
  let r = Sjson.member "result" resp in
  let num n =
    Option.value ~default:Float.nan (Sjson.to_float_opt (Sjson.member n r))
  in
  {
    wo_demoted = Sjson.string_list (Sjson.member "demoted" r);
    wo_executions =
      Option.value ~default:(-1) (Sjson.to_int_opt (Sjson.member "executions" r));
    wo_modelled_error = num "modelled_error";
    wo_actual_error = num "actual_error";
    wo_modelled_speedup = num "modelled_speedup";
  }

let feq a b = Int64.bits_of_float a = Int64.bits_of_float b

let same_wire a b =
  a.wo_demoted = b.wo_demoted
  && a.wo_executions = b.wo_executions
  && feq a.wo_modelled_error b.wo_modelled_error
  && feq a.wo_actual_error b.wo_actual_error
  && feq a.wo_modelled_speedup b.wo_modelled_speedup

(* Run the request's exact code path in-process: handler defaults
   (target f32, hybrid, prune_margin 64, default lanes, jobs 1, shadow
   Source-mode measure) on the reparsed source — see
   [Cheffp_server.Api.search]. *)
let direct_outcome w =
  let builtins = Cheffp_ir.Builtins.create () in
  Cheffp_fastapprox.Fastapprox.register_builtins builtins;
  let prog =
    Cheffp_ir.Parser.parse_program (Cheffp_ir.Pp.program_to_string w.prog)
  in
  Cheffp_ir.Typecheck.check_program ~builtins prog;
  let args = List.map reparse_arg w.args in
  let measure config =
    Shadow.measured_error
      (Shadow.run ~builtins ~config ~mode:Config.Source ~prog ~func:w.func
         (Cheffp_ir.Interp.copy_args args))
  in
  let o =
    Search.tune ~target:Fp.F32 ~builtins ~jobs:1 ~strategy:`Hybrid
      ~prune_margin:64. ~batch:Cheffp_ir.Batch.default_lanes ~measure ~prog
      ~func:w.func ~args ~threshold:w.threshold ()
  in
  {
    wo_demoted = o.Search.demoted;
    wo_executions = o.Search.executions;
    wo_modelled_error = o.Search.modelled_error;
    wo_actual_error = o.Search.evaluation.Tuner.actual_error;
    wo_modelled_speedup = o.Search.evaluation.Tuner.modelled_speedup;
  }

let server_bench ?(workers = 2) ?(rounds = 3) ?(workloads = batch_workloads ())
    () =
  Gc.compact ();
  Compile_cache.clear ();
  Compile_cache.reset_stats ();
  let srv = Server.create ~workers (Server.Tcp 0) in
  let port = Option.get (Server.port srv) in
  let accept = Thread.create Server.run srv in
  let connect () = Client.retry_connect (fun () -> Client.connect_tcp port) in
  let next_id = Atomic.make 1 in
  let rpc conn w =
    let id = Atomic.fetch_and_add next_id 1 in
    let resp, s =
      Meter.time (fun () -> Client.rpc conn (search_request ~id w))
    in
    let hits, misses = expect_ok resp in
    (wire_outcome_of resp, hits, misses, s *. 1e3)
  in
  let conn0 = connect () in
  (* Cold round: every later request's compiles were cached here. *)
  let cold = List.map (fun w -> (w, rpc conn0 w)) workloads in
  let latencies = ref [] in
  let warm_hits = ref 0 and warm_misses = ref 0 in
  let outcomes : (string, wire_outcome list) Hashtbl.t = Hashtbl.create 8 in
  let record w (o, h, m, ms) =
    latencies := ms :: !latencies;
    warm_hits := !warm_hits + h;
    warm_misses := !warm_misses + m;
    Hashtbl.replace outcomes w.name
      (o :: Option.value ~default:[] (Hashtbl.find_opt outcomes w.name))
  in
  let (), sv_seq_s =
    Meter.time (fun () ->
        for _ = 1 to rounds do
          List.iter (fun w -> record w (rpc conn0 w)) workloads
        done)
  in
  let n = List.length workloads in
  let results = Array.make n [] in
  let (), sv_conc_s =
    Meter.time (fun () ->
        let ths =
          List.mapi
            (fun i w ->
              Thread.create
                (fun () ->
                  let conn = connect () in
                  let acc = ref [] in
                  for _ = 1 to rounds do
                    acc := rpc conn w :: !acc
                  done;
                  Client.close conn;
                  results.(i) <- !acc)
                ())
            workloads
        in
        List.iter Thread.join ths)
  in
  List.iteri
    (fun i w -> List.iter (fun r -> record w r) results.(i))
    workloads;
  ignore
    (Client.rpc conn0
       (Client.request ~id:(Atomic.fetch_and_add next_id 1) ~cmd:"shutdown" []));
  Client.close conn0;
  Thread.join accept;
  (* Direct baselines last, so they cannot pre-warm the cold round. *)
  let sv_rows =
    List.map
      (fun (w, (o_cold, ch, cm, cold_ms)) ->
        let base = direct_outcome w in
        let all =
          o_cold :: Option.value ~default:[] (Hashtbl.find_opt outcomes w.name)
        in
        {
          vw = w;
          v_identical = List.for_all (same_wire base) all;
          v_cold_ms = cold_ms;
          v_cold_hits = ch;
          v_cold_misses = cm;
        })
      cold
  in
  let lat = Array.of_list !latencies in
  let lookups = !warm_hits + !warm_misses in
  {
    sv_rows;
    sv_workers = workers;
    sv_rounds = rounds;
    sv_requests = rounds * n;
    sv_seq_s;
    sv_conc_s;
    sv_p50_ms = Stats.percentile lat 50.;
    sv_p99_ms = Stats.percentile lat 99.;
    sv_warm_hit_rate =
      (if lookups > 0 then float_of_int !warm_hits /. float_of_int lookups
       else 0.);
  }

let print_server b =
  Printf.printf
    "cheffp serve (%d workers): %d warm search requests per mode over \
     loopback TCP\n"
    b.sv_workers b.sv_requests;
  Table.print
    ~header:[ "workload"; "cold ms"; "cold hits/misses"; "identical" ]
    (List.map
       (fun r ->
         [
           r.vw.name;
           Printf.sprintf "%.1f" r.v_cold_ms;
           Printf.sprintf "%d/%d" r.v_cold_hits r.v_cold_misses;
           string_of_bool r.v_identical;
         ])
       b.sv_rows);
  Printf.printf
    "sequential replay %.3f s (%.1f req/s), concurrent %.3f s (%.1f \
     req/s), p50 %.2f ms, p99 %.2f ms, warm cache hit rate %.3f\n"
    b.sv_seq_s (sv_seq_rps b) b.sv_conc_s (sv_conc_rps b) b.sv_p50_ms
    b.sv_p99_ms b.sv_warm_hit_rate;
  if Domain.recommended_domain_count () < 2 then
    Printf.printf
      "(single-core host: concurrent requests time-slice one CPU, so the \
       concurrent >= sequential throughput expectation is skipped)\n"

(* ------------------------------------------------------------------ *)
(* Continuous telemetry (DESIGN.md §14): what the always-on layer costs.
   Fresh daemons run the same warm analyze workload, alternating
   --no-telemetry semantics and telemetry on (span recording, tail
   retention, window ticker) for three daemons per mode, so host drift
   over the block lands on both modes alike. The block records the
   wall-clock delta between each mode's best round. Analyze
   requests are the unit: heavy enough to be a real request, light
   enough that per-request telemetry work would register. The block
   also prices a scrape: mean client-observed latency of stats /
   Prometheus metrics / traces requests issued mid-traffic (a second
   connection keeps analyze requests flowing while the first scrapes,
   the acceptance setting: a live daemon answering without restart). *)

type telemetry_block = {
  tl_requests : int;  (** timed analyze requests per round *)
  tl_turns : int;  (** fresh daemons per mode, alternating with the other *)
  tl_rounds : int;  (** rounds per mode over its turns; best is kept *)
  tl_enabled_s : float;  (** best-of-rounds wall clock, telemetry on *)
  tl_disabled_s : float;  (** same, telemetry off *)
  tl_stats_us : float;  (** mean stats scrape latency *)
  tl_prom_us : float;  (** mean Prometheus metrics scrape latency *)
  tl_traces_us : float;  (** mean traces scrape latency *)
  tl_prom_bytes : int;  (** one Prometheus exposition payload *)
  tl_scrapes_ok : bool;  (** every mid-traffic scrape answered sanely *)
}

let telemetry_delta_pct b =
  if b.tl_disabled_s > 0. then
    (b.tl_enabled_s -. b.tl_disabled_s) /. b.tl_disabled_s *. 100.
  else 0.

let analyze_request ~id w =
  Client.request ~id ~cmd:"analyze"
    [
      ("program", Sjson.Str (Cheffp_ir.Pp.program_to_string w.prog));
      ("func", Sjson.Str w.func);
      ( "args",
        Sjson.List (List.map (fun a -> Sjson.Str (arg_string a)) w.args) );
      ("tenant", Sjson.Str "bench");
    ]

let telemetry_bench ?(workers = 2) ?(rounds = 3) ?(passes = 4)
    ?(workloads = batch_workloads ~small:true ()) () =
  let turns = 3 in
  Gc.compact ();
  let next_id = Atomic.make 1 in
  let fresh_id () = Atomic.fetch_and_add next_id 1 in
  (* One daemon's turn: its best of [rounds] timed rounds, and with
     [scrape] the mid-traffic scrapes (telemetry on only). *)
  let run_mode ~telemetry ~scrape =
    Compile_cache.clear ();
    Compile_cache.reset_stats ();
    (* A traced earlier bench stage may have left span recording on;
       the disabled mode must measure the real --no-telemetry path. *)
    if not telemetry then Cheffp_obs.Trace.set_enabled false;
    let srv =
      Server.create ~workers ~telemetry ~window_epochs:4 ~window_epoch_s:0.5
        (Server.Tcp 0)
    in
    let port = Option.get (Server.port srv) in
    let accept = Thread.create Server.run srv in
    let connect () = Client.retry_connect (fun () -> Client.connect_tcp port) in
    let conn = connect () in
    let do_req c w =
      ignore (expect_ok (Client.rpc c (analyze_request ~id:(fresh_id ()) w)))
    in
    (* Cold pass caches every compile; the timed rounds are warm. *)
    List.iter (do_req conn) workloads;
    let best = ref infinity in
    for _ = 1 to rounds do
      let (), s =
        Meter.time (fun () ->
            for _ = 1 to passes do
              List.iter (do_req conn) workloads
            done)
      in
      if s < !best then best := s
    done;
    let scrapes =
      if not scrape then None
      else begin
        (* Scrape while a second connection keeps traffic flowing. *)
        let stop = Atomic.make false in
        let bg =
          Thread.create
            (fun () ->
              let c = connect () in
              while not (Atomic.get stop) do
                do_req c (List.hd workloads)
              done;
              Client.close c)
            ()
        in
        let ok = ref true in
        let scrape cmd fields check =
          let resp, s =
            Meter.time (fun () ->
                Client.rpc conn (Client.request ~id:(fresh_id ()) ~cmd fields))
          in
          (match Sjson.to_bool_opt (Sjson.member "ok" resp) with
          | Some true -> if not (check resp) then ok := false
          | _ -> ok := false);
          s *. 1e6
        in
        let mean f =
          let n = 5 in
          let t = ref 0. in
          for _ = 1 to n do
            t := !t +. f ()
          done;
          !t /. float_of_int n
        in
        let stats_us =
          mean (fun () ->
              scrape "stats" [] (fun r ->
                  let res = Sjson.member "result" r in
                  Sjson.to_bool_opt (Sjson.member "telemetry" res) = Some true
                  && Option.value ~default:(-1.)
                       (Sjson.to_float_opt (Sjson.member "window_s" res))
                     >= 0.))
        in
        let prom_bytes = ref 0 in
        let prom_us =
          mean (fun () ->
              scrape "metrics"
                [ ("format", Sjson.Str "prometheus") ]
                (fun r ->
                  match
                    Sjson.to_string_opt
                      (Sjson.member "metrics" (Sjson.member "result" r))
                  with
                  | Some body ->
                      prom_bytes := String.length body;
                      String.length body > 0
                  | None -> false))
        in
        let traces_us =
          mean (fun () ->
              scrape "traces" [] (fun r ->
                  match
                    Sjson.member "slowest" (Sjson.member "result" r)
                  with
                  | Sjson.List _ -> true
                  | _ -> false))
        in
        Atomic.set stop true;
        Thread.join bg;
        Some (stats_us, prom_us, traces_us, !prom_bytes, !ok)
      end
    in
    ignore
      (Client.rpc conn (Client.request ~id:(fresh_id ()) ~cmd:"shutdown" []));
    Client.close conn;
    Thread.join accept;
    (!best, scrapes)
  in
  let rec alternate turn disabled_s enabled_s =
    let d, _ = run_mode ~telemetry:false ~scrape:false in
    let last = turn >= turns in
    let e, scrapes = run_mode ~telemetry:true ~scrape:last in
    let disabled_s = Float.min disabled_s d
    and enabled_s = Float.min enabled_s e in
    if last then (disabled_s, enabled_s, scrapes)
    else alternate (turn + 1) disabled_s enabled_s
  in
  let disabled_s, enabled_s, scrapes = alternate 1 infinity infinity in
  (* The telemetry-on daemon turns span recording on; later stages (the
     disabled-path probe in [write_json]) need it off again. *)
  Cheffp_obs.Trace.set_enabled false;
  let stats_us, prom_us, traces_us, prom_bytes, scrapes_ok =
    match scrapes with
    | Some s -> s
    | None -> (0., 0., 0., 0, false)
  in
  {
    tl_requests = passes * List.length workloads;
    tl_turns = turns;
    tl_rounds = turns * rounds;
    tl_enabled_s = enabled_s;
    tl_disabled_s = disabled_s;
    tl_stats_us = stats_us;
    tl_prom_us = prom_us;
    tl_traces_us = traces_us;
    tl_prom_bytes = prom_bytes;
    tl_scrapes_ok = scrapes_ok;
  }

let print_telemetry b =
  Printf.printf
    "telemetry: %d warm analyze requests/round (best of %d over %d \
     alternating daemons per mode): enabled %.3f s, disabled %.3f s \
     (delta %+.2f%%)\n"
    b.tl_requests b.tl_rounds b.tl_turns b.tl_enabled_s b.tl_disabled_s
    (telemetry_delta_pct b);
  Printf.printf
    "scrape cost mid-traffic: stats %.0f us, prometheus %.0f us (%d \
     bytes), traces %.0f us; scrapes sane: %b\n"
    b.tl_stats_us b.tl_prom_us b.tl_prom_bytes b.tl_traces_us b.tl_scrapes_ok;
  if Domain.recommended_domain_count () < 2 then
    Printf.printf
      "(single-core host: the window ticker and the measured requests \
       time-slice one CPU, so the <= 5%% enabled-vs-disabled gate is \
       skipped — re-run on a multi-core host for the delta)\n"

(* FPCore interop over the vendored FPBench corpus (DESIGN.md §15):
   times one parse+typecheck pass over examples/fpbench/*.fpcore, one
   CHEF-FP estimate per kernel at its :pre-derived sample point, and
   the export -> reimport round trip, and gates that every round trip
   reproduces the identical AST and a bit-identical estimate. *)
type fpcore_bench = {
  fp_kernels : int;
  fp_import_s : float;
  fp_analyze_s : float;
  fp_roundtrip_s : float;
  fp_roundtrip_exact : bool;
}

let fpcore_bench () =
  let module E = Cheffp_core.Estimate in
  let module Import = Cheffp_fpcore.Import in
  let module Export = Cheffp_fpcore.Export in
  let entries, fp_import_s = Meter.time (fun () -> B.Corpus.load ()) in
  let analyze prog func args =
    let est = E.estimate_error ~prog ~func () in
    (E.run est args).E.total_error
  in
  let totals, fp_analyze_s =
    Meter.time (fun () ->
        List.map
          (fun (e : B.Corpus.entry) ->
            analyze e.prog e.core.Import.name e.core.Import.default_args)
          entries)
  in
  let fp_roundtrip_exact, fp_roundtrip_s =
    Meter.time (fun () ->
        List.for_all2
          (fun (e : B.Corpus.entry) total ->
            let func = e.core.Import.name in
            let text = Export.func_to_fpcore ~prog:e.prog ~func () in
            match Import.parse_string ~file:"<roundtrip>" text with
            | [ c ] ->
                let prog' : Cheffp_ir.Ast.program =
                  { funcs = [ c.Import.func ] }
                in
                c.Import.func = Cheffp_ir.Ast.func_exn e.prog func
                && Float.equal
                     (analyze prog' func e.core.Import.default_args)
                     total
            | _ -> false)
          entries totals)
  in
  {
    fp_kernels = List.length entries;
    fp_import_s;
    fp_analyze_s;
    fp_roundtrip_s;
    fp_roundtrip_exact;
  }

let print_fpcore b =
  Printf.printf
    "fpcore: %d kernels imported in %.3f s, analyzed in %.3f s, \
     export->reimport round trip in %.3f s, exact %b\n"
    b.fp_kernels b.fp_import_s b.fp_analyze_s b.fp_roundtrip_s
    b.fp_roundtrip_exact

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_json ~path ~soundness ~batch ~model ~dist ~server ~telemetry ~fpcore
    ~range rows =
  let probe = probe_disabled_path () in
  let oc = open_out path in
  let pf fmt = Printf.fprintf oc fmt in
  pf "{\n";
  pf "  \"bench\": \"search\",\n";
  pf "  \"description\": \"Search.tune wall clock: sequential vs domain-parallel vs warm compile cache\",\n";
  pf "  \"host_cores\": %d,\n" (Domain.recommended_domain_count ());
  pf "  \"default_jobs\": %d,\n" (Pool.default_jobs ());
  pf "  \"disabled_span_ns_per_call\": %.2f,\n" probe.span_ns;
  pf "  \"disabled_span_alloc_words\": %.0f,\n" probe.alloc_words;
  (if Domain.recommended_domain_count () < 2 then
     pf
       "  \"note\": \"single-core host: domains time-slice one CPU, so \
        parallel_speedup < 1 here; re-run on a multi-core host for the \
        parallel numbers\",\n");
  pf "  \"workloads\": [\n";
  List.iteri
    (fun i r ->
      pf "    {\n";
      pf "      \"name\": \"%s\",\n" (json_escape r.w.name);
      pf "      \"threshold\": %.17g,\n" r.w.threshold;
      pf "      \"executions\": %d,\n" r.executions;
      pf "      \"demoted\": %d,\n" r.demoted;
      pf "      \"seconds_jobs1\": %.6f,\n" r.seq_s;
      pf "      \"jobs\": %d,\n" r.par_jobs;
      pf "      \"seconds_jobsN\": %.6f,\n" r.par_s;
      pf "      \"parallel_speedup\": %.3f,\n"
        (if r.par_s > 0. then r.seq_s /. r.par_s else 1.);
      pf "      \"seconds_warm_cache\": %.6f,\n" r.warm_s;
      pf "      \"warm_cache_speedup\": %.3f,\n"
        (if r.warm_s > 0. then r.seq_s /. r.warm_s else 1.);
      pf "      \"cache_hits\": %d,\n" r.cache.Compile_cache.hits;
      pf "      \"cache_misses\": %d,\n" r.cache.Compile_cache.misses;
      pf "      \"cache_evictions\": %d,\n" r.cache.Compile_cache.evictions;
      pf "      \"outcomes_identical\": %b,\n" r.identical;
      pf "      \"phases\": {\n";
      List.iteri
        (fun j p ->
          pf "        \"%s\": {\"count\": %d, \"seconds\": %.6f}%s\n"
            (json_escape p.pname) p.pcount p.ptotal_s
            (if j < List.length r.phases - 1 then "," else ""))
        r.phases;
      pf "      },\n";
      pf "      \"pool\": {\n";
      pf "        \"tasks\": %d,\n" r.pool.pu_tasks;
      pf "        \"worker_tasks\": {%s},\n"
        (String.concat ", "
           (List.map
              (fun (w, n) -> Printf.sprintf "\"%d\": %d" w n)
              r.pool.pu_workers));
      pf "        \"queue_wait_seconds\": %.6f,\n" r.pool.pu_queue_wait_s;
      pf "        \"busy_seconds\": %.6f\n" r.pool.pu_busy_s;
      pf "      },\n";
      pf "      \"instrumented_ops\": %d,\n" r.instrumented_ops;
      pf "      \"disabled_overhead_pct\": %.4f\n" (overhead_pct probe r);
      pf "    }%s\n" (if i < List.length rows - 1 then "," else ""))
    rows;
  pf "  ],\n";
  pf "  \"batch\": {\n";
  pf "    \"description\": \"Search.tune scalar vs K-lane batched candidate evaluation (Ir.Batch), cold cache, jobs=1\",\n";
  pf "    \"lanes\": %d,\n"
    (match batch with r :: _ -> r.b_lanes | [] -> 0);
  pf "    \"workloads\": [\n";
  List.iteri
    (fun i r ->
      pf "      {\"name\": \"%s\", \"threshold\": %.17g, \"executions\": %d, \
          \"batched_runs\": %d, \"divergences\": %d, \"divergence_rate\": \
          %.4f, \"seconds_scalar\": %.6f, \"seconds_batched\": %.6f, \
          \"batch_speedup\": %.3f, \"outcomes_identical\": %b}%s\n"
        (json_escape r.bw.name) r.bw.threshold r.b_executions r.b_batched_runs
        r.b_divergences (batch_divergence_rate r) r.b_scalar_s r.b_batched_s
        (batch_speedup r) r.b_identical
        (if i < List.length batch - 1 then "," else ""))
    batch;
  pf "    ]\n";
  pf "  },\n";
  pf "  \"model_guided\": {\n";
  pf "    \"description\": \"Profile-guided search (Core.Profile): one \
      gradient-augmented run scores every candidate; hybrid skips the \
      executions measured search wastes on speculation past a failure \
      (chosen set bit-identical), modelled picks with zero candidate \
      executions\",\n";
  pf "    \"jobs\": 1,\n";
  pf "    \"note\": \"all strategies run jobs=1, so the comparison is \
      core-count independent (see host_cores above for the parallel \
      blocks)\",\n";
  pf "    \"lanes\": %d,\n" (match model with r :: _ -> r.m_lanes | [] -> 0);
  pf "    \"prune_margin\": %g,\n"
    (match model with r :: _ -> r.m_prune_margin | [] -> 0.);
  pf "    \"workloads\": [\n";
  List.iteri
    (fun i r ->
      pf "      {\n";
      pf "        \"name\": \"%s\",\n" (json_escape r.mw.name);
      pf "        \"threshold\": %.17g,\n" r.mw.threshold;
      pf "        \"measured\": {\"strategy\": \"measured\", \
          \"executions\": %d, \"batched_runs\": %d, \"seconds\": %.6f},\n"
        r.m_measured_execs r.m_measured_batched_runs r.m_measured_s;
      pf "        \"hybrid\": {\"strategy\": \"hybrid\", \"executions\": %d, \
          \"batched_runs\": %d, \"runs_avoided\": %d, \"seconds\": %.6f},\n"
        r.m_hybrid_execs r.m_hybrid_batched_runs r.m_hybrid_avoided
        r.m_hybrid_s;
      pf "        \"modelled\": {\"strategy\": \"modelled\", \
          \"executions\": %d, \"runs_avoided\": %d, \"augmented_runs\": %d, \
          \"confirmation_runs\": %d, \"demoted\": %d, \"seconds\": %.6f, \
          \"seconds_warm_profile\": %.6f, \"profile_cache_hits\": %d},\n"
        r.m_modelled_execs r.m_modelled_avoided r.m_modelled_augmented_runs
        r.m_modelled_confirmations r.m_modelled_demoted r.m_modelled_s
        r.m_modelled_warm_s r.m_profile_cache_hits;
      pf "        \"executions_saved\": %d,\n"
        (r.m_measured_execs - r.m_hybrid_execs);
      pf "        \"demoted_identical\": %b\n" r.m_demoted_identical;
      pf "      }%s\n" (if i < List.length model - 1 then "," else ""))
    model;
  pf "    ]\n";
  pf "  },\n";
  pf "  \"distribution\": {\n";
  pf "    \"description\": \"Monte-Carlo input sweeps (DESIGN.md S16): \
      samples/sec of N sampled evaluations run scalar one-by-one vs as \
      SoA input sweeps (jobs=1) vs sweep chunks over the pool, all \
      bit-identical per sample; plus p99-targeted vs single-point \
      Search.tune demotion sets with an oracle soundness check at \
      sampled points\",\n";
  pf "    \"samples\": %d,\n" (match dist with r :: _ -> r.d_samples | [] -> 0);
  pf "    \"lanes\": %d,\n" Cheffp_ir.Batch.default_sweep_lanes;
  pf "    \"pool_jobs\": %d,\n"
    (match dist with r :: _ -> r.d_pool_jobs | [] -> 0);
  pf "    \"target_quantile\": 0.99,\n";
  pf "    \"seed\": 42,\n";
  (if Domain.recommended_domain_count () < 2 then
     pf
       "    \"note\": \"single-core host: sweep chunks time-slice one CPU, \
        so the pool axis measures scheduling overhead, not scaling (see \
        host_cores above) — the sweep-vs-scalar lane speedup is still \
        meaningful\",\n");
  pf "    \"workloads\": [\n";
  List.iteri
    (fun i r ->
      pf "      {\n";
      pf "        \"name\": \"%s\",\n" (json_escape r.dw.name);
      pf "        \"sampled_vars\": %d,\n" r.d_sampled_vars;
      pf "        \"samples_per_sec_scalar\": %.1f,\n" (dist_scalar_rate r);
      pf "        \"samples_per_sec_sweep\": %.1f,\n" (dist_sweep_rate r);
      pf "        \"samples_per_sec_sweep_pool\": %.1f,\n" (dist_pool_rate r);
      pf "        \"sweep_speedup\": %.3f,\n"
        (if r.d_scalar_s > 0. then dist_sweep_rate r /. dist_scalar_rate r
         else 1.);
      pf "        \"pool_speedup\": %.3f,\n"
        (if r.d_sweep_s > 0. then dist_pool_rate r /. dist_sweep_rate r
         else 1.);
      pf "        \"divergences\": %d,\n" r.d_divergences;
      pf "        \"lanes_identical_to_scalar\": %b,\n" r.d_identical;
      pf "        \"point_demoted\": [%s],\n"
        (String.concat ", "
           (List.map
              (fun v -> Printf.sprintf "\"%s\"" (json_escape v))
              r.d_point_demoted));
      pf "        \"quantile_demoted\": [%s],\n"
        (String.concat ", "
           (List.map
              (fun v -> Printf.sprintf "\"%s\"" (json_escape v))
              r.d_quantile_demoted));
      pf "        \"sets_differ\": %b,\n"
        (r.d_point_demoted <> r.d_quantile_demoted);
      pf "        \"point_config_sampled_p99\": %.6e,\n" r.d_point_p99;
      pf "        \"quantile_config_sampled_p99\": %.6e,\n" r.d_quantile_p99;
      pf "        \"oracle_sound_at_sampled_points\": %b\n" r.d_sound;
      pf "      }%s\n" (if i < List.length dist - 1 then "," else ""))
    dist;
  pf "    ]\n";
  pf "  },\n";
  pf "  \"server\": {\n";
  pf "    \"description\": \"cheffp serve daemon: paper workloads as \
      search requests over loopback TCP against one shared worker pool \
      and sharded compile cache; cold round, warm sequential replay, \
      warm concurrent round (same request count)\",\n";
  pf "    \"workers\": %d,\n" server.sv_workers;
  pf "    \"rounds\": %d,\n" server.sv_rounds;
  pf "    \"requests_per_mode\": %d,\n" server.sv_requests;
  pf "    \"seconds_sequential_warm\": %.6f,\n" server.sv_seq_s;
  pf "    \"seconds_concurrent_warm\": %.6f,\n" server.sv_conc_s;
  pf "    \"requests_per_second_sequential\": %.3f,\n" (sv_seq_rps server);
  pf "    \"requests_per_second_concurrent\": %.3f,\n" (sv_conc_rps server);
  pf "    \"concurrent_over_sequential\": %.3f,\n"
    (if server.sv_seq_s > 0. then server.sv_seq_s /. server.sv_conc_s else 1.);
  pf "    \"p50_ms\": %.3f,\n" server.sv_p50_ms;
  pf "    \"p99_ms\": %.3f,\n" server.sv_p99_ms;
  pf "    \"warm_cache_hit_rate\": %.4f,\n" server.sv_warm_hit_rate;
  (if Domain.recommended_domain_count () < 2 then
     pf
       "    \"note\": \"single-core host: concurrent requests time-slice \
        one CPU, so concurrent_over_sequential measures scheduling \
        overhead, not scaling (see host_cores above) — re-run on a \
        multi-core host for the throughput numbers\",\n");
  pf "    \"workloads\": [\n";
  List.iteri
    (fun i r ->
      pf
        "      {\"name\": \"%s\", \"cold_ms\": %.3f, \"cold_cache_hits\": \
         %d, \"cold_cache_misses\": %d, \"outcomes_identical_to_oneshot\": \
         %b}%s\n"
        (json_escape r.vw.name) r.v_cold_ms r.v_cold_hits r.v_cold_misses
        r.v_identical
        (if i < List.length server.sv_rows - 1 then "," else ""))
    server.sv_rows;
  pf "    ]\n";
  pf "  },\n";
  pf "  \"telemetry\": {\n";
  pf "    \"description\": \"continuous telemetry cost (DESIGN.md \
      S14): same warm analyze workload through alternating fresh \
      --no-telemetry and telemetry-on daemons (best-of-rounds wall \
      clock per mode), plus the \
      client-observed cost of stats / Prometheus / traces scrapes \
      issued while requests flow on a second connection\",\n";
  pf "    \"requests_per_round\": %d,\n" telemetry.tl_requests;
  pf "    \"daemons_per_mode\": %d,\n" telemetry.tl_turns;
  pf "    \"rounds_per_mode\": %d,\n" telemetry.tl_rounds;
  pf "    \"seconds_enabled\": %.6f,\n" telemetry.tl_enabled_s;
  pf "    \"seconds_disabled\": %.6f,\n" telemetry.tl_disabled_s;
  pf "    \"enabled_over_disabled_delta_pct\": %.3f,\n"
    (telemetry_delta_pct telemetry);
  pf "    \"delta_budget_pct\": 5.0,\n";
  pf "    \"stats_scrape_us\": %.1f,\n" telemetry.tl_stats_us;
  pf "    \"prometheus_scrape_us\": %.1f,\n" telemetry.tl_prom_us;
  pf "    \"prometheus_bytes\": %d,\n" telemetry.tl_prom_bytes;
  pf "    \"traces_scrape_us\": %.1f,\n" telemetry.tl_traces_us;
  pf "    \"scrapes_ok_mid_traffic\": %b%s\n" telemetry.tl_scrapes_ok
    (if Domain.recommended_domain_count () < 2 then "," else "");
  (if Domain.recommended_domain_count () < 2 then
     pf
       "    \"note\": \"single-core host: the ticker thread and the \
        measured requests time-slice one CPU, so the delta measures \
        scheduling noise, not telemetry cost — the <= 5%% budget only \
        applies on multi-core hosts\"\n");
  pf "  },\n";
  pf "  \"fpcore\": {\n";
  pf "    \"description\": \"FPBench interop (DESIGN.md S15): parse + \
      typecheck the vendored examples/fpbench corpus, one estimate per \
      kernel at its :pre-derived sample point, and the exact export -> \
      reimport round trip\",\n";
  pf "    \"kernels\": %d,\n" fpcore.fp_kernels;
  pf "    \"seconds_import\": %.6f,\n" fpcore.fp_import_s;
  pf "    \"seconds_analyze\": %.6f,\n" fpcore.fp_analyze_s;
  pf "    \"seconds_roundtrip\": %.6f,\n" fpcore.fp_roundtrip_s;
  pf "    \"roundtrip_exact\": %b\n" fpcore.fp_roundtrip_exact;
  pf "  },\n";
  pf "  \"range\": {\n";
  pf "    \"description\": \"rigorous interval/Taylor-form bounds \
      (DESIGN.md S17): certified all-charged-vars-at-f32 demotion-error \
      bounds vs sampled |y_f32 - y_f64| over each FPCore kernel's :pre \
      box (zero UNSOUND gated), and Hybrid search with the rigorous \
      prune_bound vs the plain hybrid baseline (bit-identical sets, \
      executions saved)\",\n";
  pf "    \"target\": \"f32\",\n";
  pf "    \"corpus_kernels\": %d,\n" (List.length range.rg_sound);
  pf "    \"certified_bounds\": %d,\n" (range_certified range.rg_sound);
  pf "    \"unsound\": %d,\n" (List.length (range_unsound range.rg_sound));
  pf "    \"soundness\": [\n";
  List.iteri
    (fun i r ->
      pf
        "      {\"name\": \"%s\", \"verdict\": \"%s\", \"bound\": %s, \
         \"sampled_max\": %s, \"points\": %d, \"sound\": %b}%s\n"
        (json_escape r.g_name) r.g_verdict
        (if Float.is_finite r.g_bound then Printf.sprintf "%.6e" r.g_bound
         else "null")
        (if Float.is_finite r.g_sampled_max then
           Printf.sprintf "%.6e" r.g_sampled_max
         else "null")
        r.g_points r.g_sound
        (if i < List.length range.rg_sound - 1 then "," else ""))
    range.rg_sound;
  pf "    ],\n";
  pf "    \"pruning\": [\n";
  List.iteri
    (fun i r ->
      pf
        "      {\"name\": \"%s\", \"verdict\": \"%s\", \"analyze_ms\": \
         %.3f,\n\
        \       \"tight\": {\"threshold\": %.17g, \"hybrid_executions\": %d, \
         \"pruned_executions\": %d, \"pruned\": %d, \"executions_saved\": \
         %d, \"demoted_identical\": %b},\n\
        \       \"loose\": {\"threshold\": %.17g, \"hybrid_executions\": %d, \
         \"pruned_executions\": %d, \"pruned\": %d, \"executions_saved\": \
         %d, \"demoted_identical\": %b}}%s\n"
        (json_escape r.pw.name) (json_escape r.p_verdict) r.p_analyze_ms
        r.pw.threshold r.p_baseline_execs r.p_pruned_execs r.p_pruned
        (r.p_baseline_execs - r.p_pruned_execs)
        r.p_identical r.p_loose_threshold r.p_loose_baseline_execs
        r.p_loose_pruned_execs r.p_loose_pruned
        (r.p_loose_baseline_execs - r.p_loose_pruned_execs)
        r.p_loose_identical
        (if i < List.length range.rg_prune - 1 then "," else ""))
    range.rg_prune;
  pf "    ]\n";
  pf "  },\n";
  pf "  \"soundness\": {\n";
  pf "    \"mode\": \"extended\",\n";
  pf "    \"margin\": 1.0,\n";
  pf "    \"coverage\": %.3f,\n" (soundness_coverage soundness);
  pf "    \"median_tightness\": %.3f,\n" (soundness_median_tightness soundness);
  pf "    \"benchmarks\": [\n";
  List.iteri
    (fun i r ->
      let v = r.verdict in
      pf
        "      {\"name\": \"%s\", \"demoted\": %d, \"measured_error\": %.6e, \
         \"modelled_bound\": %.6e, \"tightness\": %s, \"sound\": %b}%s\n"
        (json_escape r.sbench)
        (List.length v.Oracle.demoted)
        v.Oracle.measured_error v.Oracle.bound
        (match v.Oracle.tightness with
        | Some t -> Printf.sprintf "%.3f" t
        | None -> "null")
        v.Oracle.sound
        (if i < List.length soundness - 1 then "," else ""))
    soundness;
  pf "    ]\n";
  pf "  }\n";
  pf "}\n";
  close_out oc

let print_rows rows =
  Table.print
    ~header:
      [
        "workload"; "runs"; "demoted"; "-j 1"; "-j N"; "par x"; "warm cache";
        "cache x"; "hits"; "identical";
      ]
    (List.map
       (fun r ->
         [
           r.w.name;
           string_of_int r.executions;
           string_of_int r.demoted;
           Printf.sprintf "%.3f s" r.seq_s;
           Printf.sprintf "%.3f s (j=%d)" r.par_s r.par_jobs;
           Printf.sprintf "%.2fx" (r.seq_s /. r.par_s);
           Printf.sprintf "%.3f s" r.warm_s;
           Printf.sprintf "%.2fx" (r.seq_s /. r.warm_s);
           string_of_int r.cache.Compile_cache.hits;
           string_of_bool r.identical;
         ])
       rows)

let search_bench ?(jobs = 4) ?(out = "BENCH_search.json")
    ?(workloads = default_workloads ()) ?(small_soundness = false) () =
  Printf.printf
    "\n== Search.tune hot path: sequential vs %d domains vs warm compile cache ==\n"
    jobs;
  let host_cores = Domain.recommended_domain_count () in
  (* The parallel_speedup >= 1 expectation only applies on real
     multi-core hosts: a single exposed CPU time-slices the domains, so
     the number measures scheduling overhead, not scaling (the JSON
     keeps the field and the note either way). *)
  if host_cores >= 2 then
    Printf.printf "(host reports %d core(s); parallel speedup expected >= 1)\n"
      host_cores
  else
    Printf.printf
      "(host reports 1 core: parallel_speedup expectation skipped — domains \
       time-slice one CPU)\n";
  let rows = List.map (measure ~jobs) workloads in
  print_rows rows;
  List.iter
    (fun r ->
      Printf.printf "%s phases (traced run, heaviest first):\n" r.w.name;
      List.iteri
        (fun i p ->
          if i < 8 then
            Printf.printf "  %-22s x%-4d %8.3f ms\n" p.pname p.pcount
              (p.ptotal_s *. 1e3))
        r.phases;
      Printf.printf
        "  pool: %d task(s) over worker(s) {%s}, queue-wait %.3f ms, busy \
         %.3f ms\n"
        r.pool.pu_tasks
        (String.concat ", "
           (List.map
              (fun (w, n) -> Printf.sprintf "%d:%d" w n)
              r.pool.pu_workers))
        (r.pool.pu_queue_wait_s *. 1e3)
        (r.pool.pu_busy_s *. 1e3))
    rows;
  Printf.printf
    "\n== Batched candidate evaluation: scalar vs %d-lane sweeps ==\n"
    Cheffp_ir.Batch.default_lanes;
  let batch =
    List.map measure_batch (batch_workloads ~small:small_soundness ())
  in
  print_batch_rows batch;
  Printf.printf
    "\n== Profile-guided search: measured vs hybrid vs modelled (jobs=1) ==\n";
  let model =
    List.map measure_model (batch_workloads ~small:small_soundness ())
  in
  print_model_rows model;
  Printf.printf
    "\n== Input-sweep sampling: scalar vs SoA sweep vs sweep + pool ==\n";
  let dist =
    List.map
      (measure_dist ~samples:(if small_soundness then 128 else 256) ~jobs)
      (batch_workloads ~small:small_soundness ())
  in
  print_dist_rows dist;
  let soundness = soundness_rows ~small:small_soundness () in
  print_soundness soundness;
  Printf.printf
    "\n== cheffp serve: concurrent requests vs sequential replay ==\n";
  let server =
    server_bench ~workloads:(batch_workloads ~small:small_soundness ()) ()
  in
  print_server server;
  Printf.printf
    "\n== Continuous telemetry: enabled vs disabled daemon, scrape cost ==\n";
  let telemetry =
    telemetry_bench ~workloads:(batch_workloads ~small:small_soundness ()) ()
  in
  print_telemetry telemetry;
  Printf.printf "\n== FPCore corpus: import, analyze, export round trip ==\n";
  let fpcore = fpcore_bench () in
  print_fpcore fpcore;
  Printf.printf
    "\n== Rigorous range bounds: corpus soundness + search pruning ==\n";
  let range =
    range_bench
      ~samples:(if small_soundness then 12 else 24)
      ~workloads:(batch_workloads ~small:small_soundness ())
      ()
  in
  write_json ~path:out ~soundness ~batch ~model ~dist ~server ~telemetry
    ~fpcore ~range rows;
  Printf.printf "wrote %s\n" out;
  (rows, batch, model, dist, soundness, server, telemetry, fpcore, range)
