(* Bechamel micro-benchmarks: one Test.make per paper table, measuring
   the analysis kernel that regenerates it (small workloads so the OLS
   fit converges quickly). *)

open Bechamel
open Toolkit
module B = Cheffp_benchmarks
module E = Cheffp_core.Estimate
module Model = Cheffp_core.Model

let table1_kernel () =
  ignore
    (Cheffp_core.Tuner.tune ~prog:B.Arclength.program
       ~func:B.Arclength.func_name
       ~args:(B.Arclength.args ~n:2_000)
       ~threshold:1e-5 ())

let table2_kernel =
  let est =
    lazy
      (E.estimate_error ~model:(Model.adapt ())
         ~options:{ E.default_options with E.per_variable = false }
         ~prog:B.Simpsons.program ~func:B.Simpsons.func_name ())
  in
  fun () ->
    ignore (E.run (Lazy.force est) (B.Simpsons.args ~a:0. ~b:Float.pi ~n:2_000))

let table3_kernel =
  let w = lazy (B.Kmeans.generate ~npoints:1_000 ()) in
  let est =
    lazy
      (E.estimate_error ~model:(Model.adapt ()) ~prog:B.Kmeans.program
         ~func:B.Kmeans.func_name ())
  in
  fun () -> ignore (E.run (Lazy.force est) (B.Kmeans.args (Lazy.force w)))

let table4_kernel =
  let w = lazy (B.Blackscholes.generate ~n:64 ()) in
  let est =
    lazy
      (let config = B.Blackscholes.Fast_log_sqrt_exp in
       let builtins = Cheffp_ir.Builtins.create () in
       Cheffp_fastapprox.Fastapprox.register_builtins builtins;
       let deriv = Cheffp_ad.Deriv.default () in
       Cheffp_fastapprox.Fastapprox.register_derivatives deriv;
       let model =
         Model.approx_functions
           ~pairs:(B.Blackscholes.approx_pairs config)
           ~eval:B.Blackscholes.eval_exact
           ~eval_approx:B.Blackscholes.eval_approx
       in
       E.estimate_error ~model ~deriv ~builtins
         ~prog:(B.Blackscholes.program B.Blackscholes.Exact)
         ~func:B.Blackscholes.price_func ())
  in
  fun () ->
    let w = Lazy.force w in
    let est = Lazy.force est in
    for i = 0 to 7 do
      ignore (E.run est (B.Blackscholes.price_args w i))
    done

(* Batched-execution microbenchmark (DESIGN.md §11): a pure
   straight-line kernel — no branches or loops, so lanes can never
   diverge — swept at 1..64 lanes, against a scalar baseline running the
   same number of precompiled per-config executions. Per-run time should
   grow sublinearly in the lane count: the per-node closure dispatch is
   paid once per sweep, not once per configuration. *)
module Fp = Cheffp_precision.Fp
module Config = Cheffp_precision.Config
module Ir = Cheffp_ir

let batch_src =
  {|func poly(x: f64, y: f64): f64 {
  var a: f64 = x * y + 1.0;
  var b: f64 = a * a - x;
  var c: f64 = b / (a + 2.0);
  var d: f64 = sqrt(c * c + 1.0);
  return d * b + a;
}|}

let batch_lane_counts = [ 1; 2; 4; 8; 16; 32; 64 ]

let batch_setup =
  lazy
    (let prog = Ir.Parser.parse_program batch_src in
     Ir.Typecheck.check_program prog;
     let b = Ir.Batch.compile ~prog ~func:"poly" () in
     (* Cycle demotions so every lane is a distinct configuration. *)
     let config_of i =
       match i mod 4 with
       | 0 -> Config.double
       | 1 -> Config.demote Config.double "a" Fp.F32
       | 2 -> Config.demote_all Config.double [ "b"; "c" ] Fp.F32
       | _ -> Config.demote_all Config.double [ "a"; "d" ] Fp.F16
     in
     (prog, b, config_of))

let batch_args = [ Ir.Interp.Aflt 1.25; Ir.Interp.Aflt 0.75 ]

let batch_kernel lanes =
  let _, b, config_of = Lazy.force batch_setup in
  let configs = Array.init lanes config_of in
  fun () -> ignore (Ir.Batch.run b ~configs batch_args)

let scalar_kernel lanes =
  let prog, _, config_of = Lazy.force batch_setup in
  let compiled =
    Array.init lanes (fun i ->
        Ir.Compile.compile ~config:(config_of i) ~prog ~func:"poly" ())
  in
  fun () -> Array.iter (fun c -> ignore (Ir.Compile.run c batch_args)) compiled

let batch_tests =
  Test.make_grouped ~name:"batch"
    (List.concat_map
       (fun lanes ->
         [
           Test.make
             ~name:(Printf.sprintf "batched:lanes=%02d" lanes)
             (Staged.stage (batch_kernel lanes));
           Test.make
             ~name:(Printf.sprintf "scalar:configs=%02d" lanes)
             (Staged.stage (scalar_kernel lanes));
         ])
       batch_lane_counts)

(* Profile-scoring microbenchmark (DESIGN.md §12): once the error-atom
   profile exists, scoring a candidate configuration is a dot product
   over its variables — the whole point of the profile-guided search is
   that this is nanoseconds where a measured trial is milliseconds.
   Swept over the profile size. *)
module Profile = Cheffp_core.Profile

let profile_var_counts = [ 10; 100; 1_000 ]

let profile_of_size n =
  Profile.of_atoms ~func:"f"
    (List.init n (fun i ->
         (Printf.sprintf "v%d" i, 1e-6 *. float_of_int (i + 1))))

let score_kernel n =
  let p = profile_of_size n in
  (* Demote every other variable: the config lookup path, not just the
     all-or-nothing fast paths. *)
  let cfg =
    Config.demote_all Config.double
      (List.filteri
         (fun i _ -> i mod 2 = 0)
         (List.init n (fun i -> Printf.sprintf "v%d" i)))
      Fp.F32
  in
  fun () -> ignore (Profile.score p cfg)

let profile_tests =
  Test.make_grouped ~name:"profile"
    (List.map
       (fun n ->
         Test.make
           ~name:(Printf.sprintf "score:vars=%04d" n)
           (Staged.stage (score_kernel n)))
       profile_var_counts)

let tests =
  Test.make_grouped ~name:"micro"
    [
      Test.make_grouped ~name:"tables"
        [
          Test.make ~name:"table1:tune-arclength" (Staged.stage table1_kernel);
          Test.make ~name:"table2:analyze-simpsons" (Staged.stage table2_kernel);
          Test.make ~name:"table3:analyze-kmeans" (Staged.stage table3_kernel);
          Test.make ~name:"table4:approx-blackscholes"
            (Staged.stage table4_kernel);
        ];
      batch_tests;
      profile_tests;
    ]

let run () =
  print_endline
    "\n== Bechamel micro-benchmarks (paper tables + batched execution + \
     profile scoring) ==";
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let mean_ns =
        match Analyze.OLS.estimates ols_result with
        | Some [ est ] -> est
        | _ -> Float.nan
      in
      rows := (name, mean_ns) :: !rows)
    results;
  Cheffp_util.Table.print
    ~header:[ "kernel"; "time per run" ]
    (List.map
       (fun (name, ns) -> [ name; Printf.sprintf "%.3f ms" (ns /. 1e6) ])
       (List.sort compare !rows))
