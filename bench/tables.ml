(* Tables I-IV of the paper. *)

open Common
module B = Cheffp_benchmarks
module Tuner = Cheffp_core.Tuner
module Fp = Cheffp_precision.Fp
module Config = Cheffp_precision.Config
module Cost = Cheffp_precision.Cost
module Compile = Cheffp_ir.Compile
module Builtins = Cheffp_ir.Builtins
module Interp = Cheffp_ir.Interp

(* ------------------------------------------------------------------ *)
(* Table I: mixed-precision tuning summary                             *)

type t1_row = {
  name : string;
  threshold : float;
  actual : float;
  estimated : float;
  speedup : float option;
}

let t1_simple name ~prog ~func ~args ~threshold =
  let o = Tuner.tune ~prog ~func ~args ~threshold () in
  let ev = o.Tuner.evaluation in
  {
    name;
    threshold;
    actual = ev.Tuner.actual_error;
    estimated = o.Tuner.estimated_error;
    speedup =
      (if ev.Tuner.modelled_speedup > 1.005 then Some ev.Tuner.modelled_speedup
       else None);
  }

(* HPCCG: the split-loop configuration driven by the Fig. 9 profile. *)
let t1_hpccg ~threshold =
  let max_iter = 60 in
  let w = B.Hpccg.generate ~nx:20 ~ny:30 ~nz:10 ~max_iter () in
  let est =
    Cheffp_core.Estimate.estimate_error
      ~model:(Cheffp_core.Model.adapt ())
      ~options:
        {
          Cheffp_core.Estimate.default_options with
          track_iterations = `Loop "iter";
        }
      ~prog:B.Hpccg.program ~func:B.Hpccg.func_name ()
  in
  let report = Cheffp_core.Estimate.run est (B.Hpccg.args w) in
  (* Estimated error of running iterations >= c with binary32 work
     vectors: the per-iteration sensitivities |v * adj| of the demoted
     variables scaled by the binary32 unit roundoff (first-order model).
     The cutoff is the earliest iteration whose estimated tail fits the
     threshold. *)
  let demoted = [ "r"; "p"; "ap"; "sum"; "alpha"; "beta"; "rtrans"; "oldrtrans" ] in
  let eps = Fp.unit_roundoff Fp.F32 in
  let cutoff =
    Cheffp_core.Sensitivity.split_cutoff
      ~records:report.Cheffp_core.Estimate.per_iteration ~vars:demoted ~eps
      ~budget:threshold ~max_iter
  in
  let estimated =
    let tracked =
      List.filter
        (fun (v, _) -> List.mem (String.lowercase_ascii v) demoted)
        report.Cheffp_core.Estimate.per_iteration
    in
    eps
    *. List.fold_left
         (fun acc (_, l) ->
           List.fold_left
             (fun acc (i, s) -> if i >= cutoff then acc +. s else acc)
             acc l)
         0. tracked
  in
  (* Validate the split rewrite: bit-accurate result and modelled cost. *)
  let run_cfg prog func args =
    let counter = Cost.Counter.create Cost.default in
    let compiled = Compile.compile ~meter:true ~prog ~func () in
    let v = Compile.run_float ~counter compiled args in
    (v, Cost.Counter.total counter)
  in
  let reference, cost_double =
    run_cfg B.Hpccg.program B.Hpccg.func_name (B.Hpccg.args w)
  in
  let split_value, cost_split =
    run_cfg B.Hpccg.program_split B.Hpccg.split_func_name
      (B.Hpccg.split_args w ~cutoff)
  in
  ( {
      name = "HPCCG";
      threshold;
      actual = Float.abs (split_value -. reference);
      estimated;
      speedup = Some (cost_double /. cost_split);
    },
    cutoff )

let table1 () =
  let rows =
    [
      t1_simple "Arc Length" ~prog:B.Arclength.program
        ~func:B.Arclength.func_name
        ~args:(B.Arclength.args ~n:100_000)
        ~threshold:1e-5;
      t1_simple "Simpsons" ~prog:B.Simpsons.program ~func:B.Simpsons.func_name
        ~args:(B.Simpsons.args ~a:0. ~b:Float.pi ~n:100_000)
        ~threshold:1e-6;
      (let w = B.Kmeans.generate ~npoints:10_000 () in
       t1_simple "k-Means" ~prog:B.Kmeans.program ~func:B.Kmeans.func_name
         ~args:(B.Kmeans.args w) ~threshold:1e-6);
      (let row, cutoff = t1_hpccg ~threshold:1e-10 in
       Printf.printf
         "(HPCCG split-loop cutoff from the sensitivity profile: iteration %d)\n"
         cutoff;
       row);
    ]
  in
  print_endline
    "\n== Table I: error and performance of the mixed-precision versions ==";
  Cheffp_util.Table.print
    ~header:[ "Benchmark"; "Threshold"; "Actual Error"; "Estimated Error"; "Speedup" ]
    (List.map
       (fun r ->
         [
           r.name;
           fe r.threshold;
           fe r.actual;
           fe r.estimated;
           (match r.speedup with Some s -> ff s | None -> "-");
         ])
       rows)

(* ------------------------------------------------------------------ *)
(* Table II: average improvement of CHEF-FP over ADAPT                 *)

let table2 ?sweeps () =
  let sweeps = match sweeps with Some s -> s | None -> Figures.run_all () in
  print_endline "\n== Table II: performance improvements over ADAPT ==";
  Cheffp_util.Table.print
    ~header:[ "Benchmark"; "Time"; "Memory" ]
    (List.map
       (fun sweep ->
         match improvements sweep with
         | Some (t, m) -> [ sweep.label; ff t ^ "x"; ff m ^ "x" ]
         | None -> [ sweep.label; "n/a"; "n/a" ])
       sweeps)

(* ------------------------------------------------------------------ *)
(* Table III: k-Means per-variable demotion                            *)

let table3 ?(npoints = 100_000) () =
  let w = B.Kmeans.generate ~npoints () in
  let est =
    Cheffp_core.Estimate.estimate_error
      ~model:(Cheffp_core.Model.adapt ())
      ~prog:B.Kmeans.program ~func:B.Kmeans.func_name ()
  in
  let report = Cheffp_core.Estimate.run est (B.Kmeans.args w) in
  let estimated_for vars =
    List.fold_left
      (fun acc v ->
        acc
        +.
        match List.assoc_opt v report.Cheffp_core.Estimate.per_variable with
        | Some e -> e
        | None -> 0.)
      0. vars
  in
  let actual_for vars =
    let config = Config.demote_all Config.double vars Fp.F32 in
    let ev =
      Tuner.evaluate ~prog:B.Kmeans.program ~func:B.Kmeans.func_name
        ~args:(B.Kmeans.args w) config
    in
    ev.Tuner.actual_error
  in
  let configs =
    [
      ("attributes", [ "attributes" ]);
      ("clusters", [ "clusters" ]);
      ("sum", [ "sum" ]);
      ("all 3", [ "attributes"; "clusters"; "sum" ]);
    ]
  in
  Printf.printf
    "\n== Table III: k-Means mixed-precision configurations (%d datapoints) ==\n"
    npoints;
  Cheffp_util.Table.print
    ~header:[ "Variable(s) in Lower Precision"; "Actual Error"; "Estimated Error" ]
    (List.map
       (fun (label, vars) ->
         [ label; fe (actual_for vars); fe (estimated_for vars) ])
       configs)

(* ------------------------------------------------------------------ *)
(* Table IV: Black-Scholes FastApprox configurations                   *)

let table4 ?(n = 1000) () =
  let w = B.Blackscholes.generate ~n () in
  let exact_prog = B.Blackscholes.program B.Blackscholes.Exact in
  let m_exact = B.Blackscholes.mathset_of B.Blackscholes.Exact in
  let price_i m i =
    B.Blackscholes.price_native m ~s:w.B.Blackscholes.sptprice.(i)
      ~k:w.B.Blackscholes.strike.(i) ~r:w.B.Blackscholes.rate.(i)
      ~v:w.B.Blackscholes.volatility.(i) ~t:w.B.Blackscholes.otime.(i)
      ~otype:w.B.Blackscholes.otype.(i)
  in
  let cost_of config =
    let counter = Cost.Counter.create Cost.default in
    let builtins = Builtins.create () in
    Cheffp_fastapprox.Fastapprox.register_builtins builtins;
    let compiled =
      Compile.compile ~builtins ~meter:true
        ~prog:(B.Blackscholes.program config)
        ~func:B.Blackscholes.func_name ()
    in
    ignore (Compile.run_float ~counter compiled (B.Blackscholes.args w));
    Cost.Counter.total counter
  in
  let cost_exact = cost_of B.Blackscholes.Exact in
  let row config =
    let pairs = B.Blackscholes.approx_pairs config in
    let builtins = Builtins.create () in
    Cheffp_fastapprox.Fastapprox.register_builtins builtins;
    let deriv = Cheffp_ad.Deriv.default () in
    Cheffp_fastapprox.Fastapprox.register_derivatives deriv;
    let model =
      Cheffp_core.Model.approx_functions ~pairs ~eval:B.Blackscholes.eval_exact
        ~eval_approx:B.Blackscholes.eval_approx
    in
    let est =
      Cheffp_core.Estimate.estimate_error ~model ~deriv ~builtins
        ~prog:exact_prog ~func:B.Blackscholes.price_func ()
    in
    let m_fast = B.Blackscholes.mathset_of config in
    let actual = Array.make n 0. and estimated = Array.make n 0. in
    for i = 0 to n - 1 do
      actual.(i) <- Float.abs (price_i m_fast i -. price_i m_exact i);
      let r = Cheffp_core.Estimate.run est (B.Blackscholes.price_args w i) in
      estimated.(i) <- r.Cheffp_core.Estimate.total_error
    done;
    let speedup = cost_exact /. cost_of config in
    let stats a =
      Cheffp_util.Stats.(mean a, max a, sum a)
    in
    let a_avg, a_max, a_acc = stats actual in
    let e_avg, e_max, e_acc = stats estimated in
    [
      B.Blackscholes.config_name config;
      fe a_avg; fe a_max; fe a_acc;
      fe e_avg; fe e_max; fe e_acc;
      ff speedup;
    ]
  in
  Printf.printf
    "\n== Table IV: Black-Scholes FastApprox configurations (%d options) ==\n" n;
  Cheffp_util.Table.print
    ~header:
      [
        "App Configuration";
        "act avg"; "act max"; "act acc";
        "est avg"; "est max"; "est acc";
        "Speedup";
      ]
    [
      row B.Blackscholes.Fast_log_sqrt;
      row B.Blackscholes.Fast_log_sqrt_exp;
    ]

(* ------------------------------------------------------------------ *)
(* Beyond the paper: FPBench-style kernel suite                        *)

let suite () =
  print_endline
    "\n== FPBench-style kernel suite: estimate vs measured f32-demotion error ==";
  Cheffp_util.Table.print
    ~header:
      [ "kernel"; "reference value"; "actual error"; "estimated error";
        "est/act"; "description" ]
    (List.map
       (fun kern ->
         let prog = B.Fpcore.program kern in
         let func = kern.B.Fpcore.func_name in
         let args = kern.B.Fpcore.args in
         let est =
           Cheffp_core.Estimate.estimate_error
             ~model:(Cheffp_core.Model.adapt ())
             ~prog ~func ()
         in
         let report = Cheffp_core.Estimate.run est args in
         let reference = Interp.run_float ~prog ~func args in
         let mixed =
           Interp.run_float
             ~config:(Config.uniform Fp.F32)
             ~mode:Config.Extended ~prog ~func args
         in
         let actual = Float.abs (mixed -. reference) in
         let estd = report.Cheffp_core.Estimate.total_error in
         [
           kern.B.Fpcore.name;
           Printf.sprintf "%.6g" reference;
           fe actual;
           fe estd;
           (if actual > 0. then Printf.sprintf "%.1f" (estd /. actual) else "inf");
           kern.B.Fpcore.description;
         ])
       B.Fpcore.kernels)
