(* The repository benchmark: four workloads measured end to end from one
   process, and a traced run that splits the time by layer. Workloads,
   metrics and the load discipline are described in perfbench/README.md.

     dune exec perfbench/main.exe -- --workload paper-analyze --seed 1 \
       --seconds 10 --trace 0

   Informational lines come first; the last line of standard output is
   one JSON object {"correct", "attempted", "failed", "metrics"}. With
   [--trace 0] the metrics are the end-to-end metrics of the chosen
   workload; with [--trace 1] they are the per-layer metrics, each read
   from one traced pass of the workload where that layer does its work. *)

module B = Cheffp_benchmarks
module Ast = Cheffp_ir.Ast
module Interp = Cheffp_ir.Interp
module Compile = Cheffp_ir.Compile
module Compile_cache = Cheffp_ir.Compile_cache
module Batch = Cheffp_ir.Batch
module Builtins = Cheffp_ir.Builtins
module Parser = Cheffp_ir.Parser
module Pp = Cheffp_ir.Pp
module Typecheck = Cheffp_ir.Typecheck
module E = Cheffp_core.Estimate
module Model = Cheffp_core.Model
module Search = Cheffp_core.Search
module Profile = Cheffp_core.Profile
module Sampling = Cheffp_core.Sampling
module Quantile = Cheffp_core.Quantile
module Adapt = Cheffp_adapt.Adapt
module Tape = Cheffp_adapt.Tape
module Config = Cheffp_precision.Config
module Fp = Cheffp_precision.Fp
module Import = Cheffp_fpcore.Import
module Range = Cheffp_range.Range
module Rbox = Cheffp_range.Box
module Oracle = Cheffp_shadow.Oracle
module Server = Cheffp_server.Server
module Client = Cheffp_server.Client
module Json = Cheffp_server.Json
module Metrics = Cheffp_obs.Metrics
module Rng = Cheffp_util.Rng

let now () = Int64.to_float (Cheffp_obs.Trace.now_ns ()) *. 1e-9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted l = List.sort compare l

(* Nearest-rank percentile, [p] in [0, 1]. *)
let percentile p l =
  match sorted l with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) k))

let median l = percentile 0.5 l

(* The host is shared, and other tenants' load only ever adds time, in
   bursts. A run's figures therefore come from its quietest quarter of
   samples: the fastest quarter of [l] under [key], at least one. *)
let quietest key l =
  let n = max 1 ((List.length l + 3) / 4) in
  List.filteri (fun i _ -> i < n) (List.sort (fun a b -> compare (key a) (key b)) l)
let sum l = List.fold_left ( +. ) 0. l

let copy_args =
  List.map (function
    | Interp.Afarr a -> Interp.Afarr (Array.copy a)
    | Interp.Aiarr a -> Interp.Aiarr (Array.copy a)
    | (Interp.Aint _ | Interp.Aflt _) as x -> x)

(* Independent random streams derived from the workload seed. *)
let stream seed k = Rng.substream (Int64.of_int seed) k
let seed64 seed k = Rng.next_int64 (stream seed k)

(* ------------------------------------------------------------------ *)
(* Output checks. Every operation counts once in [attempted]; it counts
   in [failed] when it raised or any of its checks failed. *)

let attempted = ref 0
let failed = ref 0
let op_ok = ref true
let tally_m = Mutex.create ()

let expect label cond =
  if not cond then begin
    op_ok := false;
    Printf.eprintf "check failed: %s\n%!" label
  end

let tally ok =
  Mutex.lock tally_m;
  incr attempted;
  if not ok then incr failed;
  Mutex.unlock tally_m

(* ------------------------------------------------------------------ *)
(* Bench-side spans: wall time and allocated bytes per layer name,
   accumulated only while [tracing] is set. *)

let tracing = ref false
let span_s : (string, float) Hashtbl.t = Hashtbl.create 32
let span_alloc : (string, float) Hashtbl.t = Hashtbl.create 32
let counts : (string, float) Hashtbl.t = Hashtbl.create 32

let add tbl name v =
  Hashtbl.replace tbl name
    (v +. Option.value ~default:0. (Hashtbl.find_opt tbl name))

let get tbl name = Option.value ~default:0. (Hashtbl.find_opt tbl name)
let count name v = if !tracing then add counts name v

let span name f =
  if not !tracing then f ()
  else begin
    let a0 = Gc.allocated_bytes () and t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        add span_s name (now () -. t0);
        add span_alloc name (Gc.allocated_bytes () -. a0))
      f
  end

let reset_trace () =
  Hashtbl.reset span_s;
  Hashtbl.reset span_alloc;
  Hashtbl.reset counts

(* One sequential operation: [before] runs untimed (heap and
   compile-cache state), [f] is timed and returns its output check,
   which runs untimed. Returns the latency, [None] when [f] raised. *)
let run_op label ?(before = ignore) f =
  before ();
  op_ok := true;
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let a0 = Gc.allocated_bytes () in
  let result = try Ok (timed f) with e -> Error e in
  count "gc.alloc_bytes" (Gc.allocated_bytes () -. a0);
  count "gc.major_collections"
    (float_of_int ((Gc.quick_stat ()).Gc.major_collections - majors0));
  match result with
  | Ok (check, dt) ->
      (try check ()
       with e -> expect (label ^ ": check raised " ^ Printexc.to_string e) false);
      tally !op_ok;
      Some dt
  | Error e ->
      Printf.eprintf "%s raised %s\n%!" label (Printexc.to_string e);
      tally false;
      None

let clean_state () =
  Compile_cache.clear ();
  Gc.compact ()

(* Median time of [reps] calls of [f], each after [before]. *)
let replay ?(reps = 3) ?(before = ignore) f =
  median
    (List.init reps (fun _ ->
         before ();
         snd (timed f)))

(* ------------------------------------------------------------------ *)
(* A workload instance: [pass] runs one pass and returns its duration,
   the per-operation latencies, and the deterministic counts that must
   repeat exactly on every pass. *)

type pass = { pass_s : float; ops : float list; det : (string * float) list }

type instance = {
  sequential : bool;
      (** passes are the same operations in the same order, one after
          another; otherwise a pass is one concurrent round *)
  prepare : unit -> unit;  (** untimed reference outputs for the checks *)
  pass : unit -> pass;
  replays : unit -> unit;  (** traced run only: replayed unit times *)
  layers : unit -> (string * float) list;  (** per-layer metrics *)
  info : pass list -> unit;  (** informational lines *)
  finish : unit -> unit;
}

let sequential_pass ops det =
  let ops = List.filter_map Fun.id ops in
  { pass_s = sum ops; ops; det }

(* ------------------------------------------------------------------ *)
(* Inputs shared by the paper workloads. The seed drives the k-means,
   Black-Scholes and HPCCG data; arclength and Simpsons have none. *)

let hpccg_workload ~seed ~nx ~ny ~nz ~max_iter =
  let w = B.Hpccg.generate ~nx ~ny ~nz ~max_iter () in
  let rng = stream seed 3 in
  let xexact =
    Array.map (fun _ -> Rng.uniform rng ~lo:0.5 ~hi:1.5) w.B.Hpccg.xexact
  in
  let b = Array.make (Array.length w.B.Hpccg.b) 0. in
  Cheffp_sparse.Csr.spmv w.B.Hpccg.matrix xexact b;
  { w with B.Hpccg.b; xexact }

type paper = {
  pname : string;
  prog : Ast.program;
  func : string;
  args : Interp.arg list;
  adapt_run : Tape.t -> Tape.num;
}

let paper_programs ~seed =
  (* Sweep points of Figs. 4-8 where ADAPT completes, chosen so that no
     program takes more than half of a pass. *)
  let arclength_n = 30_000 and simpsons_n = 100_000 in
  let a = 0. and b = Float.pi in
  let km = B.Kmeans.generate ~seed:(seed64 seed 1) ~npoints:10_000 () in
  let hp = hpccg_workload ~seed ~nx:20 ~ny:30 ~nz:2 ~max_iter:15 in
  let bs = B.Blackscholes.generate ~seed:(seed64 seed 2) ~n:10_000 () in
  [
    {
      pname = "arclength";
      prog = B.Arclength.program;
      func = B.Arclength.func_name;
      args = B.Arclength.args ~n:arclength_n;
      adapt_run =
        (fun tape ->
          let module N = (val Adapt.num tape) in
          let module M = B.Arclength.Native (N) in
          M.run ~n:arclength_n);
    };
    {
      pname = "simpsons";
      prog = B.Simpsons.program;
      func = B.Simpsons.func_name;
      args = B.Simpsons.args ~a ~b ~n:simpsons_n;
      adapt_run =
        (fun tape ->
          let module N = (val Adapt.num tape) in
          let module M = B.Simpsons.Native (N) in
          M.run ~a ~b ~n:simpsons_n);
    };
    {
      pname = "kmeans";
      prog = B.Kmeans.program;
      func = B.Kmeans.func_name;
      args = B.Kmeans.args km;
      adapt_run =
        (fun tape ->
          let module N = (val Adapt.num tape) in
          let module M = B.Kmeans.Native (N) in
          M.run km);
    };
    {
      pname = "hpccg";
      prog = B.Hpccg.program;
      func = B.Hpccg.func_name;
      args = B.Hpccg.args hp;
      adapt_run =
        (fun tape ->
          let module N = (val Adapt.num tape) in
          let module M = B.Hpccg.Native (N) in
          M.run hp);
    };
    {
      pname = "blackscholes";
      prog = B.Blackscholes.program B.Blackscholes.Exact;
      func = B.Blackscholes.func_name;
      args = B.Blackscholes.args bs;
      adapt_run =
        (fun tape ->
          let module N = (val Adapt.num tape) in
          let module M = B.Blackscholes.Native (N) in
          M.run bs);
    };
  ]

(* ------------------------------------------------------------------ *)
(* paper-analyze: the paper's Table II. CHEF-FP (estimate build + run)
   against the ADAPT tape on the five paper programs. *)

let close ?(tol = 1e-9) a b =
  Float.abs (a -. b) /. Float.max 1. (Float.max (Float.abs a) (Float.abs b))
  <= tol

(* ADAPT lists one (name, adjoint) per recorded input, array elements in
   order; every name must match the CHEF-FP gradient of that parameter. *)
let gradients_agree (r : E.report) (a : Adapt.result) =
  let names = List.sort_uniq compare (List.map fst a.Adapt.gradients) in
  List.for_all
    (fun n ->
      let tape =
        Array.of_list
          (List.filter_map
             (fun (m, g) -> if m = n then Some g else None)
             a.Adapt.gradients)
      in
      let chef =
        match List.assoc_opt n r.E.gradients with
        | Some g -> Some [| g |]
        | None -> List.assoc_opt n r.E.array_gradients
      in
      match chef with
      | Some c -> Array.length c = Array.length tape && Array.for_all2 close c tape
      | None -> false)
    names

let chef_options = { E.default_options with E.per_variable = false }
let adapt_budget = 1 lsl 30

type paper_ref = {
  total : float;
  analysis_bytes : int;
  adapt_total : float;
  tape_bytes : int;
  nodes : int;
}

let paper_analyze ~seed =
  let progs = paper_programs ~seed in
  let refs = Hashtbl.create 8 in
  let times = Hashtbl.create 16 in
  let note k dt = Hashtbl.replace times k (dt :: Option.value ~default:[] (Hashtbl.find_opt times k)) in
  let analyze p =
    let report = ref None in
    let est_op =
      run_op ("estimate " ^ p.pname) ~before:clean_state (fun () ->
          let args = copy_args p.args in
          let est =
            span "estimate.build" (fun () ->
                E.estimate_error ~model:(Model.adapt ()) ~options:chef_options
                  ~prog:p.prog ~func:p.func ())
          in
          let r = span "estimate.run" (fun () -> E.run est args) in
          report := Some r;
          fun () ->
            expect (p.pname ^ ": estimate finite and positive")
              (Float.is_finite r.E.total_error && r.E.total_error > 0.))
    in
    let adapt_op =
      run_op ("adapt " ^ p.pname) ~before:clean_state (fun () ->
          let a =
            span "adapt.analyze" (fun () ->
                Adapt.analyze ~memory_budget:adapt_budget p.adapt_run)
          in
          fun () ->
            match (a, !report) with
            | Error _, _ -> expect (p.pname ^ ": ADAPT within budget") false
            | Ok _, None -> expect (p.pname ^ ": CHEF-FP report") false
            | Ok a, Some r ->
                let c = r.E.total_error and t = a.Adapt.total_error in
                expect (p.pname ^ ": gradients CHEF-FP = ADAPT")
                  (gradients_agree r a);
                expect (p.pname ^ ": totals within 3x")
                  (c > 0. && t > 0. && c /. t < 3. && t /. c < 3.);
                let now =
                  {
                    total = c;
                    analysis_bytes = r.E.analysis_bytes;
                    adapt_total = t;
                    tape_bytes = a.Adapt.tape_bytes;
                    nodes = a.Adapt.nodes;
                  }
                in
                count "estimate.analysis_bytes" (float_of_int now.analysis_bytes);
                count "adapt.tape_bytes" (float_of_int now.tape_bytes);
                count "adapt.nodes" (float_of_int now.nodes);
                (match Hashtbl.find_opt refs p.pname with
                | None -> Hashtbl.replace refs p.pname now
                | Some r0 ->
                    expect (p.pname ^ ": bit-identical across passes") (r0 = now)))
    in
    Option.iter (note (p.pname ^ ".estimate")) est_op;
    Option.iter (note (p.pname ^ ".adapt")) adapt_op;
    [ est_op; adapt_op ]
  in
  let det () =
    Hashtbl.fold
      (fun name r acc ->
        (name ^ ".estimate_bytes", float_of_int r.analysis_bytes)
        :: (name ^ ".adapt_bytes", float_of_int r.tape_bytes)
        :: (name ^ ".adapt_nodes", float_of_int r.nodes)
        :: acc)
      refs []
    |> sorted
  in
  {
    sequential = true;
    prepare = ignore;
    pass =
      (fun () ->
        let ops = List.concat_map analyze progs in
        sequential_pass ops (det ()));
    replays = ignore;
    layers =
      (fun () ->
        [
          ("estimate.run.s", get span_s "estimate.run");
          ("estimate.run.alloc_bytes", get span_alloc "estimate.run");
          ("estimate.analysis_bytes", get counts "estimate.analysis_bytes");
          ("adapt.analyze.s", get span_s "adapt.analyze");
          ("adapt.nodes", get counts "adapt.nodes");
          ("adapt.tape_bytes", get counts "adapt.tape_bytes");
          ("adapt.alloc_bytes", get span_alloc "adapt.analyze");
          ("gc.alloc_bytes", get counts "gc.alloc_bytes");
          ("gc.major_collections", get counts "gc.major_collections");
        ]);
    info =
      (fun _ ->
        (* Table II as data: per-program ratios, ADAPT over CHEF-FP. *)
        let est = ref 0. and ad = ref 0. in
        List.iter
          (fun p ->
            let m k =
              median
                (quietest Fun.id
                   (Option.value ~default:[] (Hashtbl.find_opt times (p.pname ^ k))))
            in
            let es = m ".estimate" and as_ = m ".adapt" in
            est := !est +. es;
            ad := !ad +. as_;
            match Hashtbl.find_opt refs p.pname with
            | None -> ()
            | Some r ->
                let bytes_ratio =
                  float_of_int r.tape_bytes /. float_of_int r.analysis_bytes
                in
                Printf.printf
                  "table2 %-12s estimate %.4f s %d B  adapt %.4f s %d B  \
                   time %.2fx  memory %.2fx  direction %s\n"
                  p.pname es r.analysis_bytes as_ r.tape_bytes (as_ /. es)
                  bytes_ratio
                  (if as_ > es && r.tape_bytes > r.analysis_bytes then "ok"
                   else "REVERSED"))
          progs;
        Printf.printf "estimate_s %.4f  adapt_s %.4f (quiet times, summed)\n" !est !ad);
    finish = ignore;
  }

(* ------------------------------------------------------------------ *)
(* paper-tune: the paper's §I search cost. Hybrid search with 8-lane
   configuration batching on the five programs, then p99-targeted tunes
   over 64 sampled inputs on the four with float inputs to sample. *)

type tune_case = {
  tname : string;
  tprog : Ast.program;
  tfunc : string;
  targs : Interp.arg list;
  threshold : float;
  sampling : Search.sampling option;
}

let tune_lanes = 8
let tune_samples = 64

let tune_cases ~seed =
  let case tname tprog tfunc targs threshold =
    { tname; tprog; tfunc; targs; threshold; sampling = None }
  in
  let kmeans npoints =
    B.Kmeans.args (B.Kmeans.generate ~seed:(seed64 seed 1) ~npoints ())
  in
  let option0 =
    B.Blackscholes.price_args
      (B.Blackscholes.generate ~seed:(seed64 seed 2) ~n:4 ())
      0
  in
  let hpccg d =
    B.Hpccg.args (hpccg_workload ~seed ~nx:d ~ny:d ~nz:d ~max_iter:10)
  in
  let bs_prog = B.Blackscholes.program B.Blackscholes.Exact in
  let simpsons n = B.Simpsons.args ~a:0. ~b:Float.pi ~n in
  let points =
    [
      case "arclength" B.Arclength.program B.Arclength.func_name
        (B.Arclength.args ~n:60_000) 1e-6;
      case "simpsons" B.Simpsons.program B.Simpsons.func_name (simpsons 60_000)
        1e-10;
      case "kmeans" B.Kmeans.program B.Kmeans.func_name (kmeans 3_000) 1e-7;
      case "blackscholes" bs_prog B.Blackscholes.price_func option0 1e-9;
      case "hpccg" B.Hpccg.program B.Hpccg.func_name (hpccg 7) 1e-10;
    ]
  in
  let sampled c =
    let plan =
      Sampling.plan ~func:(Ast.func_exn c.tprog c.tfunc) ~args:c.targs ()
    in
    {
      c with
      tname = c.tname ^ ".p99";
      sampling =
        Some
          {
            Search.inputs = Sampling.draw_many plan ~seed:(seed64 seed 4) tune_samples;
            quantile = 0.99;
          };
    }
  in
  let small =
    [
      case "simpsons" B.Simpsons.program B.Simpsons.func_name (simpsons 2_000)
        1e-10;
      case "kmeans" B.Kmeans.program B.Kmeans.func_name (kmeans 300) 1e-7;
      case "blackscholes" bs_prog B.Blackscholes.price_func option0 1e-9;
      case "hpccg" B.Hpccg.program B.Hpccg.func_name (hpccg 5) 1e-10;
    ]
  in
  points @ List.map sampled small

let tune ~strategy c =
  let sampling =
    Option.map
      (fun s -> { s with Search.inputs = Array.map copy_args s.Search.inputs })
      c.sampling
  in
  Search.tune ~jobs:1 ~batch:tune_lanes ~strategy ?sampling ~prog:c.tprog
    ~func:c.tfunc ~args:(copy_args c.targs) ~threshold:c.threshold ()

(* The chosen configuration's error through the reference interpreter:
   at the base point, or the sampled quantile over the inputs. *)
let interp_error c config =
  let at args =
    let y cfg =
      Interp.run_float ~config:cfg ~mode:Config.Source ~prog:c.tprog
        ~func:c.tfunc (copy_args args)
    in
    Float.abs (y config -. y Config.double)
  in
  match c.sampling with
  | None -> at c.targs
  | Some s ->
      Quantile.quantile_of_array (Array.map at s.Search.inputs) s.Search.quantile

let divergence_c = Metrics.counter "batch.divergence_total"

type tune_row = {
  executions : int;
  batched : int;
  hits : int;
  misses : int;
  avoided : int;
}

let paper_tune ~seed =
  let cases = tune_cases ~seed in
  let measured = Hashtbl.create 16 in
  let rows = Hashtbl.create 16 in
  let units = Hashtbl.create 16 in
  let tune_op c =
    let sampled = c.sampling <> None in
    run_op ("tune " ^ c.tname) ~before:clean_state (fun () ->
        let s0 = Compile_cache.stats () in
        let d0 = Metrics.counter_value divergence_c in
        let o =
          span
            (if sampled then "search.sampled_tune" else "search.tune")
            (fun () -> tune ~strategy:`Hybrid c)
        in
        let s1 = Compile_cache.stats () in
        let d1 = Metrics.counter_value divergence_c in
        fun () ->
          let demoted, config = Hashtbl.find measured c.tname in
          expect (c.tname ^ ": Hybrid set = Measured set")
            (o.Search.demoted = demoted
            && Config.to_string o.Search.evaluation.Cheffp_core.Tuner.config
               = config);
          let hits = s1.Compile_cache.hits - s0.Compile_cache.hits
          and misses = s1.Compile_cache.misses - s0.Compile_cache.misses in
          let fi = float_of_int in
          if sampled then
            count "sampling.samples" (fi (o.Search.samples * o.Search.executions))
          else begin
            count "search.executions" (fi o.Search.executions);
            count "search.runs_avoided" (fi o.Search.runs_avoided);
            count "search.batched_runs" (fi o.Search.batched_runs);
            count "compile_cache.hits" (fi hits);
            count "compile_cache.misses" (fi misses);
            count "batch.divergence" (fi (d1 - d0))
          end;
          Hashtbl.replace rows c.tname
            {
              executions = o.Search.executions;
              batched = o.Search.batched_runs;
              hits;
              misses;
              avoided = o.Search.runs_avoided;
            })
  in
  let det () =
    Hashtbl.fold
      (fun name r acc ->
        (name ^ ".executions", float_of_int r.executions)
        :: (name ^ ".cache_hits", float_of_int r.hits)
        :: (name ^ ".cache_misses", float_of_int r.misses)
        :: (name ^ ".runs_avoided", float_of_int r.avoided)
        :: acc)
      rows []
    |> sorted
  in
  let points = List.filter (fun c -> c.sampling = None) cases in
  let replays () =
    List.iter
      (fun c ->
        let args = ref [] in
        let fresh () = args := copy_args c.targs in
        let compile_s =
          replay (fun () -> ignore (Compile.compile ~prog:c.tprog ~func:c.tfunc ()))
        in
        let compiled = Compile.compile ~prog:c.tprog ~func:c.tfunc () in
        let run_s =
          replay ~before:fresh (fun () -> ignore (Compile.run compiled !args))
        in
        let profile_s =
          replay
            ~before:(fun () -> clean_state (); fresh ())
            (fun () ->
              ignore (Profile.build ~prog:c.tprog ~func:c.tfunc ~args:!args ()))
        in
        let profile =
          Profile.build ~prog:c.tprog ~func:c.tfunc ~args:(copy_args c.targs) ()
        in
        let configs =
          List.filteri
            (fun i _ -> i < tune_lanes)
            (List.map
               (fun (v, _) -> Config.demote Config.double v Fp.F32)
               (Profile.atoms profile))
        in
        let batch = Batch.compile ~prog:c.tprog ~func:c.tfunc () in
        let batch_s =
          replay (fun () ->
              ignore (Batch.run_many ~lanes:tune_lanes batch ~configs c.targs))
        in
        Hashtbl.replace units c.tname (compile_s, run_s, profile_s, batch_s);
        add span_s "compile" compile_s;
        add span_s "run" run_s;
        add span_s "profile.build" profile_s;
        add span_s "batch.run" batch_s)
      points;
    List.iter
      (fun c ->
        match c.sampling with
        | None -> ()
        | Some s ->
            let config = Config.uniform Fp.F32 in
            let sweep () =
              Sampling.sweep ~jobs:1 ~lanes:tune_samples ~prog:c.tprog
                ~func:c.tfunc ~config
                (Array.map copy_args s.Search.inputs)
            in
            ignore (sweep ());
            add span_s "batch.input_sweep" (replay (fun () -> ignore (sweep ()))))
      cases
  in
  {
    sequential = true;
    prepare =
      (fun () ->
        List.iter
          (fun c ->
            ignore
              (run_op ("reference " ^ c.tname) ~before:clean_state (fun () ->
                   let m = tune ~strategy:`Measured c in
                   let config = m.Search.evaluation.Cheffp_core.Tuner.config in
                   Hashtbl.replace measured c.tname
                     (m.Search.demoted, Config.to_string config);
                   fun () ->
                     expect (c.tname ^ ": chosen error <= threshold (Interp)")
                       (interp_error c config <= c.threshold))))
          cases);
    pass =
      (fun () ->
        let ops = List.map tune_op cases in
        sequential_pass ops (det ()));
    replays;
    layers =
      (fun () ->
        let g = get counts in
        let tune_s = get span_s "search.tune" in
        let hits = g "compile_cache.hits" and misses = g "compile_cache.misses" in
        (* Derived until in-program spans exist: tune time minus the
           replayed unit costs times the counts of each unit. *)
        let accounted =
          List.fold_left
            (fun acc c ->
              match (Hashtbl.find_opt rows c.tname, Hashtbl.find_opt units c.tname) with
              | Some r, Some (compile_s, run_s, profile_s, batch_s) ->
                  let scalar =
                    max 0 (r.executions - (tune_lanes * r.batched)) + 2
                  in
                  acc +. profile_s
                  +. (float_of_int r.misses *. compile_s)
                  +. (float_of_int r.batched *. batch_s)
                  +. (float_of_int scalar *. run_s)
              | _ -> acc)
            0. points
        in
        [
          ("search.tune.s", tune_s);
          ("search.sampled_tune.s", get span_s "search.sampled_tune");
          ("search.executions", g "search.executions");
          ("search.runs_avoided", g "search.runs_avoided");
          ("search.self_s", tune_s -. accounted);
          ("search.batched_runs", g "search.batched_runs");
          ("compile.s", get span_s "compile");
          ("compile_cache.hits", hits);
          ("compile_cache.misses", misses);
          ("compile_cache.hit_ratio", hits /. Float.max 1. (hits +. misses));
          ("run.s", get span_s "run");
          ("batch.run.s", get span_s "batch.run");
          ( "batch.divergence_ratio",
            g "batch.divergence"
            /. Float.max 1. (float_of_int tune_lanes *. g "search.batched_runs") );
          ("batch.input_sweep.s", get span_s "batch.input_sweep");
          ( "sampling.samples_per_s",
            g "sampling.samples" /. get span_s "search.sampled_tune" );
          ("profile.build.s", get span_s "profile.build");
        ]);
    info =
      (fun passes ->
        let per c =
          List.filter_map
            (fun p -> List.assoc_opt (c.tname ^ ".executions") p.det)
            passes
        in
        List.iter
          (fun c ->
            match (per c, Hashtbl.find_opt measured c.tname) with
            | e :: _, Some (demoted, _) ->
                Printf.printf "tune %-18s executions %4.0f  demoted [%s]\n"
                  c.tname e (String.concat " " demoted)
            | _ -> ())
          cases);
    finish = ignore;
  }

(* ------------------------------------------------------------------ *)
(* fpbench-corpus: 48 small distinct kernels through the whole
   per-kernel pipeline, compile cache cold for every pass. *)

let corpus_dir = Filename.concat "examples" "fpbench"

(* (path, FPCore text) of every vendored kernel, in file-name order. *)
let corpus_texts () =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".fpcore")
  |> sorted
  |> List.map (fun f ->
         let path = Filename.concat corpus_dir f in
         (path, In_channel.with_open_bin path In_channel.input_all))

let rec count_stmts l =
  List.fold_left
    (fun acc s ->
      acc + 1
      +
      match s with
      | Ast.If (_, a, b) -> count_stmts a + count_stmts b
      | Ast.For { body; _ } | Ast.While (_, body) -> count_stmts body
      | _ -> 0)
    0 l

(* Worst measured f32 demotion error of [vars] over 24 sampled points
   of the [:pre] box plus the base point, through the interpreter. *)
let sampled_demotion_error ~seed ~prog (core : Import.core) vars =
  let func = core.Import.name in
  let f = Ast.func_exn prog func in
  let args = core.Import.default_args in
  let config = Config.demote_all Config.double vars Fp.F32 in
  let plan = Sampling.plan ~ranges:core.Import.ranges ~func:f ~args () in
  let err input =
    let y cfg = Interp.run_float ~config:cfg ~prog ~func (copy_args input) in
    Float.abs (y config -. y Config.double)
  in
  Array.fold_left
    (fun acc input -> Float.max acc (err input))
    (err args)
    (Sampling.draw_many plan ~seed:(seed64 seed 5) 24)

let fpbench_corpus ~seed =
  let texts = corpus_texts () in
  let reference = Hashtbl.create 64 in
  let repeated = Hashtbl.create 128 in
  let kernel (path, text) =
    run_op ("kernel " ^ path) (fun () ->
        let cores, prog =
          span "fpcore.import" (fun () ->
              let cores = Import.parse_string ~file:path text in
              (cores, Import.program cores))
        in
        span "typecheck" (fun () -> Typecheck.check_program prog);
        let analyses =
          List.map
            (fun (core : Import.core) ->
              let func = core.Import.name in
              let args = core.Import.default_args in
              let est =
                span "estimate.build" (fun () ->
                    E.estimate_error ~model:(Model.adapt ()) ~prog ~func ())
              in
              let r = span "estimate.run" (fun () -> E.run est (copy_args args)) in
              let box =
                Rbox.of_args ~ranges:core.Import.ranges
                  ~func:(Ast.func_exn prog func) ~args ()
              in
              let a =
                span "range.analyze" (fun () ->
                    Range.analyze ~backend:"bb" ~prog ~func ~box ())
              in
              let v =
                span "oracle.check_estimate" (fun () ->
                    Oracle.check_estimate ~margin:2.0 ~prog ~func
                      ~config:(Config.uniform Fp.F32) (copy_args args))
              in
              (core, est, r, a, v))
            cores
        in
        fun () ->
          count "fpcore.import.bytes" (float_of_int (String.length text));
          List.iter
            (fun ((core : Import.core), est, r, a, v) ->
              let name = core.Import.name in
              expect (name ^ ": estimate finite") (Float.is_finite r.E.total_error);
              expect (name ^ ": oracle SOUND") v.Oracle.sound;
              let stmts = float_of_int (count_stmts (E.generated est).Ast.body) in
              Hashtbl.replace repeated (name ^ ".estimate") r.E.total_error;
              Hashtbl.replace repeated (name ^ ".generated_stmts") stmts;
              count "estimate.generated_stmts" stmts;
              count "range.analyzed" 1.;
              match a.Range.verdict with
              | Range.Unbounded _ -> ()
              | Range.Bounded -> (
                  let vars = Range.charged_vars a in
                  match Range.score a ~target:Fp.F32 vars with
                  | None -> ()
                  | Some bound ->
                      count "range.certified" 1.;
                      let key = name ^ "/" ^ String.concat "," vars in
                      let worst =
                        match Hashtbl.find_opt reference key with
                        | Some w -> w
                        | None ->
                            let w = sampled_demotion_error ~seed ~prog core vars in
                            Hashtbl.replace reference key w;
                            w
                      in
                      expect (name ^ ": range bound >= sampled demotion error")
                        (worst <= bound)))
            analyses)
  in
  {
    sequential = true;
    prepare = ignore;
    pass =
      (fun () ->
        clean_state ();
        let ops = List.map kernel texts in
        sequential_pass ops
          (sorted (Hashtbl.fold (fun k v acc -> (k, v) :: acc) repeated [])));
    replays = ignore;
    layers =
      (fun () ->
        let import_s = get span_s "fpcore.import" in
        [
          ("fpcore.import.s", import_s);
          ("fpcore.import.bytes_per_s", get counts "fpcore.import.bytes" /. import_s);
          ("typecheck.s", get span_s "typecheck");
          ("estimate.build.s", get span_s "estimate.build");
          ("estimate.generated_stmts", get counts "estimate.generated_stmts");
          ("range.analyze.s", get span_s "range.analyze");
          ( "range.certified_ratio",
            get counts "range.certified" /. get counts "range.analyzed" );
          ("oracle.check_estimate.s", get span_s "oracle.check_estimate");
        ]);
    info =
      (fun passes ->
        let per_pass = List.map (fun p -> p.pass_s) passes in
        Printf.printf "kernels %d  kernels_per_s %.2f\n" (List.length texts)
          (float_of_int (List.length texts) /. median per_pass));
    finish = ignore;
  }

(* ------------------------------------------------------------------ *)
(* serve: an in-process daemon (1 worker, telemetry on) on loopback TCP,
   two closed-loop client connections replaying one analyze and one
   range request per corpus kernel in a seeded order. *)

let server_builtins =
  lazy
    (let b = Builtins.create () in
     Cheffp_fastapprox.Fastapprox.register_builtins b;
     b)

let server_deriv =
  lazy
    (let d = Cheffp_ad.Deriv.default () in
     Cheffp_fastapprox.Fastapprox.register_derivatives d;
     d)

let arg_string = function
  | Interp.Aint n -> string_of_int n
  | Interp.Aflt f -> Printf.sprintf "%.17g" f
  | Interp.Afarr a ->
      String.concat ":" (Array.to_list (Array.map (Printf.sprintf "%.17g") a))
  | Interp.Aiarr a ->
      String.concat ":" (Array.to_list (Array.map string_of_int a))

type request = {
  cmd : string;
  kname : string;
  text : string;
  rargs : Interp.arg list;
}

let wire r id =
  Client.request ~id ~cmd:r.cmd
    [
      ("program", Json.Str r.text);
      ("func", Json.Str r.kname);
      ("args", Json.List (List.map (fun a -> Json.Str (arg_string a)) r.rargs));
    ]

let pairs l =
  Json.List
    (List.map
       (fun (n, e) -> Json.Obj [ ("var", Json.Str n); ("error", Json.Num e) ])
       l)

(* The request's operation called in-process, its result in the wire
   shape (the range result without its [elapsed_ms] timing field). *)
let direct r =
  let builtins = Lazy.force server_builtins in
  let prog = Parser.parse_program r.text in
  Typecheck.check_program ~builtins prog;
  let func = r.kname in
  let args = copy_args r.rargs in
  match r.cmd with
  | "analyze" ->
      let model = Model.adapt ~target:Fp.F32 () in
      let est =
        E.estimate_error ~model ~deriv:(Lazy.force server_deriv) ~builtins
          ~options:{ E.default_options with E.track_ranges = true }
          ~prog ~func ()
      in
      let rep = E.run est args in
      Json.Obj
        [
          ("model", Json.Str model.Model.model_name);
          ("total_error", Json.Num rep.E.total_error);
          ("per_variable", pairs rep.E.per_variable);
          ("gradients", pairs rep.E.gradients);
        ]
  | _ ->
      let box = Rbox.of_args ~func:(Ast.func_exn prog func) ~args () in
      let a = Range.analyze ~backend:"bb" ~builtins ~prog ~func ~box () in
      let vars = Range.charged_vars a in
      let num_opt = function Some x -> Json.Num x | None -> Json.Null in
      Json.Obj
        [
          ("func", Json.Str func);
          ("backend", Json.Str a.Range.backend);
          ("verdict", Json.Str (Range.verdict_to_string a.Range.verdict));
          ( "bound",
            if Float.is_finite a.Range.worst_bound then Json.Num a.Range.worst_bound
            else Json.Null );
          ("bound_at_target", num_opt (Range.score a ~target:Fp.F32 vars));
          ("target", Json.Str (Fp.format_to_string Fp.F32));
          ("charged_vars", Json.List (List.map (fun s -> Json.Str s) vars));
          ( "value",
            match a.Range.value with
            | Some iv ->
                let lo, hi = Cheffp_range.Interval.to_pair iv in
                Json.List [ Json.Num lo; Json.Num hi ]
            | None -> Json.Null );
          ("box", Json.Str (Rbox.to_string a.Range.box));
          ("witness", Json.Str (Rbox.to_string a.Range.witness));
          ("splits", Json.Num (float_of_int a.Range.splits));
          ("evals", Json.Num (float_of_int a.Range.evals));
        ]

let same_result expected resp =
  let fields = function
    | Json.Obj l -> sorted (List.filter (fun (k, _) -> k <> "elapsed_ms") l)
    | _ -> []
  in
  Json.member "ok" resp = Json.Bool true
  && compare (fields (Json.member "result" resp)) (fields expected) = 0

type reply = { req : int; resp : Json.t; latency : float }

let serve_clients = 2

let serve ~seed =
  let requests =
    corpus_texts ()
    |> List.concat_map (fun (path, text) ->
           Import.parse_string ~file:path text
           |> List.concat_map (fun (core : Import.core) ->
                  let text = Pp.program_to_string (Import.program [ core ]) in
                  List.map
                    (fun cmd ->
                      {
                        cmd;
                        kname = core.Import.name;
                        text;
                        rargs = core.Import.default_args;
                      })
                    [ "analyze"; "range" ]))
    |> Array.of_list
  in
  let order = Array.init (Array.length requests) Fun.id in
  Rng.shuffle (stream seed 6) order;
  let srv = Server.create ~workers:1 (Server.Tcp 0) in
  let port = Option.get (Server.port srv) in
  let accept = Thread.create Server.run srv in
  let conns =
    Array.init serve_clients (fun _ ->
        Client.retry_connect (fun () -> Client.connect_tcp port))
  in
  let next_id = Atomic.make 1 in
  (* One round: client [c] sends requests [c], [c + 2], ... of the
     seeded order, each after the previous reply (closed loop). *)
  let round () =
    let replies = Array.make serve_clients [] in
    let client c () =
      let acc = ref [] in
      Array.iteri
        (fun i req ->
          if i mod serve_clients = c then
            let id = Atomic.fetch_and_add next_id 1 in
            let resp, latency =
              try timed (fun () -> Client.rpc conns.(c) (wire requests.(req) id))
              with e -> (Json.Obj [ ("error", Json.Str (Printexc.to_string e)) ], 0.)
            in
            acc := { req; resp; latency } :: !acc)
        order;
      replies.(c) <- List.rev !acc
    in
    let (), wall =
      timed (fun () ->
          List.iter Thread.join
            (List.init serve_clients (fun c -> Thread.create (client c) ())))
    in
    (wall, List.concat (Array.to_list replies))
  in
  ignore (round ());
  let expected = lazy (Array.map direct requests) in
  let last = ref [] in
  let num k j = Option.value ~default:0. (Json.to_float_opt (Json.member k j)) in
  {
    sequential = false;
    prepare = (fun () -> ignore (Lazy.force expected));
    pass =
      (fun () ->
        let wall, replies = round () in
        last := replies;
        let hits = ref 0. and misses = ref 0. in
        List.iter
          (fun r ->
            let ok = same_result (Lazy.force expected).(r.req) r.resp in
            if not ok then
              Printf.eprintf "check failed: %s %s: %s\n%!" requests.(r.req).cmd
                requests.(r.req).kname (Json.to_string r.resp);
            tally ok;
            let cache = Json.member "cache" r.resp in
            hits := !hits +. num "hits" cache;
            misses := !misses +. num "misses" cache)
          replies;
        {
          pass_s = wall;
          ops = List.map (fun r -> r.latency) replies;
          det = [ ("cache_hits", !hits); ("cache_misses", !misses) ];
        });
    replays =
      (fun () ->
        add span_s "parse"
          (replay (fun () ->
               Array.iter (fun r -> ignore (Parser.parse_program r.text)) requests));
        add counts "server.direct_ms"
          (median
             (Array.to_list
                (Array.map (fun r -> 1000. *. snd (timed (fun () -> direct r))) requests))));
    layers =
      (fun () ->
        let ms = List.map (fun r -> 1000. *. r.latency) !last in
        let service = List.map (fun r -> num "elapsed_ms" r.resp) !last in
        let wait = List.map (fun r -> num "queue_wait_ms" r.resp) !last in
        let overhead =
          List.map2 (fun m (s, w) -> m -. s -. w) ms (List.combine service wait)
        in
        let cache k = sum (List.map (fun r -> num k (Json.member "cache" r.resp)) !last) in
        let hits = cache "hits" and misses = cache "misses" in
        [
          ("parse.s", get span_s "parse");
          ("server.request_ms", median ms);
          ("server.service_ms", median service);
          ("server.queue_wait_ms", median wait);
          ("server.overhead_ms", median overhead);
          ("server.direct_ms", get counts "server.direct_ms");
          ("server.cache_hit_ratio", hits /. Float.max 1. (hits +. misses));
        ]);
    info =
      (fun passes ->
        let per_pass = List.map (fun p -> p.pass_s) passes in
        Printf.printf
          "requests per round %d  clients %d  workers 1  serve_rps %.2f\n"
          (Array.length requests) serve_clients
          (float_of_int (Array.length requests) /. median per_pass));
    finish =
      (fun () ->
        ignore
          (Client.rpc conns.(0)
             (Client.request ~id:(Atomic.fetch_and_add next_id 1) ~cmd:"shutdown" []));
        Array.iter Client.close conns;
        Thread.join accept);
  }

(* ------------------------------------------------------------------ *)
(* Driver *)

let workloads =
  [
    ("paper-analyze", paper_analyze);
    ("paper-tune", paper_tune);
    ("fpbench-corpus", fpbench_corpus);
    ("serve", serve);
  ]

(* Metric names and units, in order, from BENCHMARK.json: [key] is
   "end_to_end" or "per_layer". *)
let declared key =
  let bench =
    Json.of_string (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all)
  in
  List.map
    (fun m ->
      match (Json.to_string_opt (Json.member "name" m), Json.to_string_opt (Json.member "unit" m)) with
      | Some name, Some unit_ -> (name, unit_)
      | _ -> failwith ("BENCHMARK.json: malformed " ^ key ^ " entry"))
    (Json.to_list (Json.member key bench))

let min_passes = 3

(* Peak resident set (VmHWM) of this process; the OCaml heap's peak
   where /proc is unavailable. *)
let peak_rss_bytes () =
  let from_proc () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec loop () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
              Scanf.sscanf l "VmHWM: %d kB" (fun kb -> Some (1024. *. float_of_int kb))
          | Some _ -> loop ()
        in
        loop ())
  in
  match (try from_proc () with _ -> None) with
  | Some b -> b
  | None -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))

(* Set the workload up at least 5 times and until half a second has
   been spent (at most 200 times), each from a collected heap, tearing
   every instance but the last down again; return the last with the
   quiet set-up time. *)
let setup make ~seed =
  Gc.compact ();
  let rec go n spent times =
    Gc.full_major ();
    let inst, dt = timed (fun () -> make ~seed) in
    let spent = spent +. dt and times = dt :: times in
    if n + 1 < 5 || (spent < 0.5 && n + 1 < 200) then begin
      inst.finish ();
      go (n + 1) spent times
    end
    else (inst, median (quietest Fun.id times))
  in
  go 0 0. []

(* Deterministic counts must repeat exactly on every pass. *)
let check_repeat name (first : pass) (p : pass) =
  let same = first.det = p.det in
  if not same then Printf.eprintf "check failed: %s: counts changed between passes\n%!" name;
  tally same

let end_to_end name make ~seed ~seconds =
  let inst, setup_s = setup make ~seed in
  inst.prepare ();
  let warm = inst.pass () in
  let deadline = now () +. seconds in
  let rec loop acc n =
    if n >= min_passes && now () >= deadline then List.rev acc
    else begin
      let p = inst.pass () in
      check_repeat name warm p;
      loop (p :: acc) (n + 1)
    end
  in
  let passes = loop [] 0 in
  inst.finish ();
  (* A sequential workload repeats the same operations, so each one's
     time is read from its own quietest quarter across passes and a pass
     is their sum. A round of concurrent requests is read whole. *)
  let ops, pass_s =
    if inst.sequential then begin
      let per_op =
        List.init (List.length warm.ops) (fun i ->
            median
              (quietest Fun.id
                 (List.filter_map (fun p -> List.nth_opt p.ops i) passes)))
      in
      (per_op, sum per_op)
    end
    else begin
      let quiet = quietest (fun p -> p.pass_s) passes in
      (List.concat_map (fun p -> p.ops) quiet, median (List.map (fun p -> p.pass_s) quiet))
    end
  in
  let ops = List.map (fun s -> 1000. *. s) ops in
  Printf.printf "passes %d  ops per pass %d  op samples %d\n" (List.length passes)
    (List.length warm.ops) (List.length ops);
  inst.info passes;
  [
    ("setup_s", setup_s);
    ("pass_s", pass_s);
    ("op_p50_ms", percentile 0.5 ops);
    ("op_p99_ms", percentile 0.99 ops);
    ("peak_rss_bytes", peak_rss_bytes ());
  ]

(* The layer profile: every workload once, one untraced and one traced
   pass each (after a warm-up pass), plus the replayed unit times. Each
   layer's metrics come from the workload where that layer works. *)
let layer_profile ~seed =
  let untraced = ref 0. and traced = ref 0. in
  let layers =
    List.concat_map
      (fun (name, make) ->
        let inst = make ~seed in
        inst.prepare ();
        let warm = inst.pass () in
        let u = inst.pass () in
        check_repeat name warm u;
        reset_trace ();
        tracing := true;
        let t = inst.pass () in
        inst.replays ();
        tracing := false;
        check_repeat name warm t;
        untraced := !untraced +. u.pass_s;
        traced := !traced +. t.pass_s;
        let l = inst.layers () in
        inst.finish ();
        l)
      workloads
  in
  layers @ [ ("trace.overhead_ratio", (!traced /. !untraced) -. 1.) ]

let print_result units metrics =
  let body =
    List.map
      (fun (name, unit_) ->
        match List.assoc_opt name metrics with
        | Some v when Float.is_finite v ->
            Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit_
        | Some v -> failwith (Printf.sprintf "metric %s is %g" name v)
        | None -> failwith ("metric not measured: " ^ name))
      units
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) !attempted !failed (String.concat ", " body)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" (List.map fst workloads));
      ("--seed", Arg.Set_int seed, " workload seed (inputs and request order)");
      ("--seconds", Arg.Set_int seconds, " measuring time per run");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
    ]
  in
  Arg.parse (Arg.align spec)
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let make =
    match List.assoc_opt !workload workloads with
    | Some m -> m
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  Printf.printf "workload %s  seed %d  seconds %d  trace %d  host_cores %d  jobs 1\n%!"
    !workload !seed !seconds !trace (Domain.recommended_domain_count ());
  if !trace = 0 then
    print_result (declared "end_to_end")
      (end_to_end !workload make ~seed:!seed ~seconds:(float_of_int !seconds))
  else print_result (declared "per_layer") (layer_profile ~seed:!seed)
