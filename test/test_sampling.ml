(* Monte-Carlo sampling layer (Sampling / Quantile, DESIGN.md §16):
   distribution parsing, plan resolution, draw determinism under every
   scheduling shape, the streaming quantile estimator's exact and
   compressed modes, the input-sweep bit-identity contract — each
   sampled lane's result equals a per-input scalar [Compile.run],
   including the divergence-fallback paths — and quantile-targeted
   search, whose candidates settle at the first sweep that decides
   them. *)

open Cheffp_ir
module Config = Cheffp_precision.Config
module Fp = Cheffp_precision.Fp
module Sampling = Cheffp_core.Sampling
module Quantile = Cheffp_core.Quantile
module Search = Cheffp_core.Search
module B = Cheffp_benchmarks

let parse src =
  let prog = Parser.parse_program src in
  Typecheck.check_program prog;
  prog

let the_func prog name =
  List.find (fun f -> f.Ast.fname = name) prog.Ast.funcs

(* ------------------------------------------------------------------ *)
(* Quantile: exact mode.                                              *)

let test_quantile_exact () =
  let q = Quantile.of_array (Array.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check bool) "exact mode" true (Quantile.is_exact q);
  Alcotest.(check int) "count" 10 (Quantile.count q);
  (* Nearest-rank: rank = ceil(q * n). *)
  Alcotest.(check (float 0.)) "p50" 5. (Quantile.quantile q 0.5);
  Alcotest.(check (float 0.)) "p95" 10. (Quantile.quantile q 0.95);
  Alcotest.(check (float 0.)) "p10" 1. (Quantile.quantile q 0.1);
  Alcotest.(check (float 0.)) "q=0" 1. (Quantile.quantile q 0.);
  Alcotest.(check (float 0.)) "q=1" 10. (Quantile.quantile q 1.);
  Alcotest.(check (float 0.)) "min" 1. (Quantile.min_value q);
  Alcotest.(check (float 0.)) "max" 10. (Quantile.max_value q);
  Alcotest.(check (float 1e-12)) "mean" 5.5 (Quantile.mean q);
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Quantile.quantile: q outside [0, 1]") (fun () ->
      ignore (Quantile.quantile q 1.5))

let test_quantile_empty () =
  let q = Quantile.create () in
  Alcotest.(check bool) "empty p50 NaN" true
    (Float.is_nan (Quantile.quantile q 0.5));
  Alcotest.(check bool) "empty mean NaN" true (Float.is_nan (Quantile.mean q));
  Alcotest.(check bool) "empty one-shot NaN" true
    (Float.is_nan (Quantile.quantile_of_array [||] 0.5))

(* The one-shot helper and the accumulator agree while exact — they
   share the nearest-rank convention. *)
let test_quantile_of_array_agrees () =
  let rng = Cheffp_util.Rng.create 17L in
  let values =
    Array.init 500 (fun _ -> Cheffp_util.Rng.uniform rng ~lo:(-5.) ~hi:5.)
  in
  let q = Quantile.of_array values in
  Alcotest.(check bool) "still exact" true (Quantile.is_exact q);
  List.iter
    (fun p ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "q=%.2f agrees" p)
        (Quantile.quantile_of_array values p)
        (Quantile.quantile q p))
    [ 0.; 0.01; 0.25; 0.5; 0.75; 0.95; 0.99; 1. ]

(* Past the cutoff the estimator compresses; with the default
   cutoff/grid the compounded rank error at 20k samples stays well
   under 1% of rank, i.e. < 0.01 in value on uniform [0,1]. *)
let test_quantile_compressed () =
  let n = 20_000 in
  let rng = Cheffp_util.Rng.create 23L in
  let values =
    Array.init n (fun _ -> Cheffp_util.Rng.uniform rng ~lo:0. ~hi:1.)
  in
  let q = Quantile.of_array values in
  Alcotest.(check bool) "compressed" true (not (Quantile.is_exact q));
  Alcotest.(check int) "count exact" n (Quantile.count q);
  Alcotest.(check (float 0.))
    "max exact"
    (Quantile.quantile_of_array values 1.)
    (Quantile.max_value q);
  List.iter
    (fun p ->
      let exact = Quantile.quantile_of_array values p in
      let est = Quantile.quantile q p in
      Alcotest.(check bool)
        (Printf.sprintf "q=%.2f within rank bound" p)
        true
        (Float.abs (est -. exact) < 0.02))
    [ 0.5; 0.95; 0.99 ]

let test_quantile_merge () =
  (* Exact + exact below the cutoff: the merge is lossless. *)
  let a = Quantile.of_array [| 1.; 3.; 5. |] in
  let b = Quantile.of_array [| 2.; 4.; 6. |] in
  Quantile.merge a b;
  Alcotest.(check bool) "merged stays exact" true (Quantile.is_exact a);
  Alcotest.(check int) "merged count" 6 (Quantile.count a);
  Alcotest.(check (float 0.)) "merged p50" 3. (Quantile.quantile a 0.5);
  Alcotest.(check (float 0.)) "merged max" 6. (Quantile.max_value a);
  Alcotest.(check int) "src unchanged" 3 (Quantile.count b);
  (* Split/merge of a large stream approximates the one-shot summary. *)
  let n = 8_000 in
  let rng = Cheffp_util.Rng.create 31L in
  let values =
    Array.init n (fun _ -> Cheffp_util.Rng.uniform rng ~lo:0. ~hi:1.)
  in
  let whole = Quantile.summary_of_array values in
  let parts = Array.init 4 (fun _ -> Quantile.create ()) in
  Array.iteri (fun i v -> Quantile.add parts.(i mod 4) v) values;
  let acc = parts.(0) in
  for i = 1 to 3 do
    Quantile.merge acc parts.(i)
  done;
  let merged = Quantile.summary acc in
  Alcotest.(check int) "split/merge count" whole.Quantile.count
    merged.Quantile.count;
  Alcotest.(check (float 1e-9)) "split/merge mean" whole.Quantile.mean
    merged.Quantile.mean;
  Alcotest.(check (float 0.)) "split/merge max" whole.Quantile.max
    merged.Quantile.max;
  Alcotest.(check bool) "split/merge p99 close" true
    (Float.abs (merged.Quantile.p99 -. whole.Quantile.p99) < 0.02)

(* The settle count against the one-shot quantile, on arrays with NaN,
   +inf, duplicates and values equal to the threshold: [settle_count]
   values strictly above the threshold in any subset force the quantile
   of the whole array above it, and on the whole array that many are
   there exactly when the quantile is a number above it. *)
let gen_settle_case =
  QCheck.Gen.(
    let* n = int_range 1 300 in
    let* threshold = oneof [ return 1.; float_range 0. 2. ] in
    let value =
      frequency
        [
          (1, return Float.nan);
          (1, return Float.infinity);
          (2, return threshold);
          (3, oneofl [ 0.5; 1.5; 3. ]);
          (4, float_range 0. 2.);
        ]
    in
    let* errs = array_size (return n) value in
    let* q = oneof [ oneofl [ 0.; 0.5; 0.99; 1. ]; float_range 0. 1. ] in
    let* subset = array_size (return n) bool in
    return (errs, threshold, q, subset))

let fuzz_settle_count =
  QCheck.Test.make ~count:1000 ~name:"settle count decides the quantile"
    (QCheck.make
       ~print:(fun (errs, threshold, q, _) ->
         Printf.sprintf "threshold=%h q=%h errs=[%s]" threshold q
           (String.concat "; "
              (Array.to_list (Array.map (Printf.sprintf "%h") errs))))
       gen_settle_case)
    (fun (errs, threshold, q, subset) ->
      let n = Array.length errs in
      let need = Quantile.settle_count n q in
      let above keep =
        let k = ref 0 in
        Array.iteri (fun i e -> if keep i && e > threshold then incr k) errs;
        !k
      in
      let exceeds = Quantile.quantile_of_array errs q > threshold in
      (above (fun i -> subset.(i)) < need || exceeds)
      && (above (fun _ -> true) >= need) = exceeds)

(* ------------------------------------------------------------------ *)
(* Distribution spec parsing.                                         *)

let test_dist_parsing () =
  let round s = Sampling.dist_to_string (Sampling.dist_of_string s) in
  Alcotest.(check string) "fixed" "fixed:2.5" (round "fixed:2.5");
  Alcotest.(check string) "uniform" "uniform:-1,3" (round "uniform:-1,3");
  Alcotest.(check string) "normal" "normal:0,2" (round "normal:0,2");
  let entries = Sampling.dists_of_string "x=uniform:0,1; y=normal:0,2" in
  Alcotest.(check int) "two entries" 2 (List.length entries);
  Alcotest.(check bool) "x is uniform" true
    (match List.assoc "x" entries with
    | Sampling.Uniform { lo; hi } -> lo = 0. && hi = 1.
    | _ -> false);
  let rejects s =
    match Sampling.dist_of_string s with
    | exception Sampling.Spec_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "empty interval rejected" true (rejects "uniform:3,1");
  Alcotest.(check bool) "zero sigma rejected" true (rejects "normal:0,0");
  Alcotest.(check bool) "unknown kind rejected" true (rejects "bogus:1");
  Alcotest.(check bool) "garbage rejected" true (rejects "uniform")

(* ------------------------------------------------------------------ *)
(* Plan resolution.                                                   *)

let plan_src =
  {|func kernel(x: f64, v: f64[], n: int): f64 {
  var s: f64 = 0.0;
  for i in 0 .. n {
    s = s + x * v[i];
  }
  return s;
}|}

let base_args = [ Interp.Aflt 1.5; Interp.Afarr [| 1.0; 2.0 |]; Interp.Aint 2 ]

let make_plan ?dists ?ranges () =
  let prog = parse plan_src in
  Sampling.plan ?dists ?ranges ~func:(the_func prog "kernel") ~args:base_args ()

let test_plan_slots () =
  let p = make_plan () in
  (* Floats and float arrays sample; the int passes through fixed. *)
  Alcotest.(check (list string))
    "sampled vars" [ "x"; "v" ] (Sampling.sampled_vars p);
  let d = Sampling.describe p in
  Alcotest.(check string) "default box on x" "uniform:0.75,2.25"
    (List.assoc "x" d);
  Alcotest.(check string) "int fixed" "fixed" (List.assoc "n" d);
  (* A bounded :pre range beats the default box; an explicit dist beats
     both. *)
  let ranged = make_plan ~ranges:[ ("x", (Some (-4.), Some 4.)) ] () in
  Alcotest.(check string) "range becomes uniform" "uniform:-4,4"
    (List.assoc "x" (Sampling.describe ranged));
  let forced =
    make_plan
      ~dists:[ ("x", Sampling.Normal { mu = 0.; sigma = 1. }) ]
      ~ranges:[ ("x", (Some (-4.), Some 4.)) ]
      ()
  in
  Alcotest.(check string) "explicit dist wins" "normal:0,1"
    (List.assoc "x" (Sampling.describe forced));
  (* A one-sided range cannot bound a sampler: fall back to the box. *)
  let half = make_plan ~ranges:[ ("x", (Some 0., None)) ] () in
  Alcotest.(check string) "one-sided range ignored" "uniform:0.75,2.25"
    (List.assoc "x" (Sampling.describe half))

let test_plan_errors () =
  let prog = parse plan_src in
  let f = the_func prog "kernel" in
  Alcotest.(check bool) "unknown name rejected" true
    (match
       Sampling.plan
         ~dists:[ ("zz", Sampling.Fixed 1.) ]
         ~func:f ~args:base_args ()
     with
    | exception Sampling.Spec_error _ -> true
    | _ -> false);
  Alcotest.(check bool) "arity mismatch rejected" true
    (match Sampling.plan ~func:f ~args:[ Interp.Aflt 1. ] () with
    | exception Sampling.Spec_error _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Draw determinism.                                                  *)

let test_draw_deterministic () =
  let p = make_plan () in
  let a = Sampling.draw p ~seed:42L 7 in
  let b = Sampling.draw p ~seed:42L 7 in
  Alcotest.(check bool) "same (seed,i) same sample" true (a = b);
  Alcotest.(check bool) "different index differs" true
    (Sampling.draw p ~seed:42L 8 <> a);
  Alcotest.(check bool) "different seed differs" true
    (Sampling.draw p ~seed:43L 7 <> a);
  (* draw_many is exactly the per-index draws, in order. *)
  let many = Sampling.draw_many p ~seed:42L 16 in
  Array.iteri
    (fun i s ->
      Alcotest.(check bool)
        (Printf.sprintf "draw_many.(%d)" i)
        true
        (s = Sampling.draw p ~seed:42L i))
    many;
  (* Fresh arrays per draw: mutating a sample cannot corrupt the next. *)
  (match a with
  | [ _; Interp.Afarr arr; _ ] -> arr.(0) <- Float.nan
  | _ -> Alcotest.fail "unexpected draw shape");
  Alcotest.(check bool) "mutation does not leak" true
    (Sampling.draw p ~seed:42L 7 = b)

(* The sweep is schedule-invariant: scalar per-input runs, a 1-domain
   narrow sweep and a multi-domain wide sweep all produce bit-identical
   results in input order. *)
let test_sweep_schedule_invariance () =
  let prog = parse plan_src in
  let p = make_plan () in
  let inputs = Sampling.draw_many p ~seed:5L 23 in
  let config = Config.demote Config.double "s" Fp.F32 in
  let scalar =
    Array.map
      (fun args ->
        let c = Compile.compile ~config ~prog ~func:"kernel" () in
        Compile.run_float c args)
      inputs
  in
  List.iter
    (fun (jobs, lanes) ->
      let got =
        Sampling.sweep ~jobs ~lanes ~prog ~func:"kernel" ~config inputs
      in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d lanes=%d = scalar" jobs lanes)
        true (got = scalar))
    [ (1, 4); (1, 8); (2, 4); (4, 16) ]

let test_measured_errors_reference_sharing () =
  let prog = parse plan_src in
  let p = make_plan () in
  let inputs = Sampling.draw_many p ~seed:11L 12 in
  let config = Config.demote_all Config.double [ "s"; "x" ] Fp.F16 in
  let errs, reference =
    Sampling.measured_errors ~prog ~func:"kernel" ~config inputs
  in
  let errs', _ =
    Sampling.measured_errors ~reference ~prog ~func:"kernel" ~config inputs
  in
  Alcotest.(check bool) "shared reference same errors" true (errs = errs');
  Alcotest.(check bool) "errors non-negative" true
    (Array.for_all (fun e -> e >= 0.) errs);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument
       "Sampling.measured_errors: reference length mismatch (3 <> 12)")
    (fun () ->
      ignore
        (Sampling.measured_errors ~reference:[| 0.; 0.; 0. |] ~prog
           ~func:"kernel" ~config inputs));
  let summary, _ = Sampling.measured_summary ~prog ~func:"kernel" ~config inputs in
  Alcotest.(check int) "summary count" 12 summary.Quantile.count;
  Alcotest.(check (float 0.))
    "summary max is the worst sample"
    (Array.fold_left Float.max 0. errs)
    summary.Quantile.max

(* ------------------------------------------------------------------ *)
(* Forced divergence: inputs that disagree on a branch split the     *)
(* sweep, dissenting lanes fall back scalar, results stay identical. *)

let branch_src =
  {|func branchy(x: f64): f64 {
  var t: f64 = x;
  if (t >= 1.0) {
    return t * 2.0;
  }
  return t * 3.0;
}|}

let test_input_divergence_fallback () =
  let prog = parse branch_src in
  let config = Config.double in
  let inputs =
    Array.map (fun x -> [ Interp.Aflt x ]) [| 0.5; 1.5; 0.25; 2.0 |]
  in
  let b = Batch.compile ~prog ~func:"branchy" () in
  let r = Batch.run_inputs b ~config inputs in
  Alcotest.(check bool) "the minority lanes diverged" true
    (r.Batch.divergences > 0);
  Array.iteri
    (fun l args ->
      let c = Compile.compile ~config ~prog ~func:"branchy" () in
      Alcotest.(check bool)
        (Printf.sprintf "lane %d bit-identical" l)
        true
        (r.Batch.lanes.(l) = Compile.run c args))
    inputs

(* ------------------------------------------------------------------ *)
(* Fuzz: the input-sweep bit-identity contract on random programs.    *)
(* Random MiniFP programs carry data-dependent branches and while     *)
(* loops, so sampled inputs routinely disagree on control flow and    *)
(* the divergence-fallback path is exercised, not just uniform lanes. *)

let gen_sweep_case =
  QCheck.Gen.(
    triple Gen_minifp.gen_program Gen_minifp.gen_config
      (array_size (return 6) Gen_minifp.gen_inputs))

let arbitrary_sweep_case =
  QCheck.make
    ~print:(fun (p, config, points) ->
      Printf.sprintf "config=%s points=[%s]\n%s" (Config.to_string config)
        (String.concat "; "
           (Array.to_list
              (Array.map
                 (fun (x, y) -> Printf.sprintf "%.17g,%.17g" x y)
                 points)))
        (Pp.program_to_string p))
    gen_sweep_case

let fuzz_input_sweep_bit_identity =
  QCheck.Test.make ~count:120 ~name:"fuzz: input-sweep lanes = scalar runs"
    arbitrary_sweep_case (fun (prog, config, points) ->
      let inputs =
        Array.map
          (fun (x, y) -> [ Interp.Aflt x; Interp.Aflt y; Interp.Aint 4 ])
          points
      in
      let scalar =
        try
          Some
            (Array.map
               (fun args ->
                 let c = Compile.compile ~config ~prog ~func:"fuzz" () in
                 Compile.run c args)
               inputs)
        with Interp.Runtime_error _ | Division_by_zero -> None
      in
      match scalar with
      | None -> true (* generator should prevent this; skip *)
      | Some scalar ->
          let b = Batch.compile ~prog ~func:"fuzz" () in
          let r = Batch.run_inputs b ~config inputs in
          Array.for_all2 Gen_minifp.same_result r.Batch.lanes scalar)

(* And the chunked multi-sweep entry point preserves the same contract
   across lane widths and domain counts. *)
let fuzz_run_inputs_many_invariance =
  QCheck.Test.make ~count:60 ~name:"fuzz: run_inputs_many schedule-invariant"
    arbitrary_sweep_case (fun (prog, config, points) ->
      let inputs =
        Array.map
          (fun (x, y) -> [ Interp.Aflt x; Interp.Aflt y; Interp.Aint 4 ])
          points
      in
      let scalar =
        try
          Some
            (Array.map
               (fun args ->
                 let c = Compile.compile ~config ~prog ~func:"fuzz" () in
                 Compile.run_float c args)
               inputs)
        with Interp.Runtime_error _ | Division_by_zero -> None
      in
      match scalar with
      | None -> true
      | Some scalar ->
          let b = Batch.compile ~prog ~func:"fuzz" () in
          List.for_all
            (fun (jobs, lanes) ->
              Gen_minifp.same_floats
                (Batch.run_inputs_many ~jobs ~lanes b ~config inputs)
                scalar)
            [ (1, 2); (1, 6); (2, 3) ])

(* ------------------------------------------------------------------ *)
(* Quantile-targeted search: settling a candidate early changes no     *)
(* decision, whatever the chunking and the domain count.               *)

(* Everything but [batched_runs], the one count that depends on the
   chunking. *)
let decisions (o : Search.outcome) = { o with Search.batched_runs = 0 }

let test_sampled_tune () =
  let bs = B.Blackscholes.generate ~seed:3L ~n:2 () in
  List.iter
    (fun (name, prog, func, args, threshold) ->
      let plan = Sampling.plan ~func:(Ast.func_exn prog func) ~args () in
      let inputs = Sampling.draw_many plan ~seed:7L 64 in
      let tune ?(strategy = `Hybrid) ~lanes ~jobs () =
        Search.tune ~jobs ~batch:lanes ~strategy
          ~sampling:
            {
              Search.inputs = Array.map Interp.copy_args inputs;
              quantile = 0.99;
            }
          ~prog ~func ~args:(Interp.copy_args args) ~threshold ()
      in
      let check what a b =
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s" name what)
          true
          (compare (decisions a) (decisions b) = 0)
      in
      let base = tune ~lanes:8 ~jobs:1 () in
      (* One 64-lane chunk per evaluation: nothing can settle early, so
         this is the full evaluation of every candidate. *)
      let whole = tune ~lanes:64 ~jobs:1 () in
      check "lanes 8 = lanes 64" base whole;
      Alcotest.(check int)
        (name ^ ": one sweep per evaluation at 64 lanes")
        whole.Search.executions whole.Search.batched_runs;
      check "jobs 1 = jobs 3" base (tune ~lanes:8 ~jobs:3 ());
      let measured = tune ~strategy:`Measured ~lanes:8 ~jobs:1 () in
      Alcotest.(check (list string))
        (name ^ ": Hybrid set = Measured set")
        measured.Search.demoted base.Search.demoted;
      (* Failing candidates stop short of the eight sweeps a full
         evaluation takes. *)
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d sweeps < 8 x %d executions" name
           base.Search.batched_runs base.Search.executions)
        true
        (base.Search.batched_runs < 8 * base.Search.executions))
    [
      ( "simpsons",
        B.Simpsons.program,
        B.Simpsons.func_name,
        B.Simpsons.args ~a:0. ~b:Float.pi ~n:200,
        1e-10 );
      ( "blackscholes",
        B.Blackscholes.program B.Blackscholes.Exact,
        B.Blackscholes.price_func,
        B.Blackscholes.price_args bs 0,
        1e-9 );
    ]

let () =
  Alcotest.run "sampling"
    [
      ( "quantile",
        [
          Alcotest.test_case "exact nearest-rank" `Quick test_quantile_exact;
          Alcotest.test_case "empty" `Quick test_quantile_empty;
          Alcotest.test_case "one-shot agrees" `Quick
            test_quantile_of_array_agrees;
          Alcotest.test_case "compressed bounds" `Quick
            test_quantile_compressed;
          Alcotest.test_case "merge" `Quick test_quantile_merge;
          QCheck_alcotest.to_alcotest fuzz_settle_count;
        ] );
      ( "spec",
        [
          Alcotest.test_case "dist parsing" `Quick test_dist_parsing;
          Alcotest.test_case "plan slots" `Quick test_plan_slots;
          Alcotest.test_case "plan errors" `Quick test_plan_errors;
        ] );
      ( "draw",
        [
          Alcotest.test_case "deterministic" `Quick test_draw_deterministic;
          Alcotest.test_case "sweep schedule invariance" `Quick
            test_sweep_schedule_invariance;
          Alcotest.test_case "reference sharing" `Quick
            test_measured_errors_reference_sharing;
          Alcotest.test_case "divergence fallback" `Quick
            test_input_divergence_fallback;
        ] );
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest fuzz_input_sweep_bit_identity;
          QCheck_alcotest.to_alcotest fuzz_run_inputs_many_invariance;
        ] );
      ( "search",
        [ Alcotest.test_case "sampled tune settles" `Quick test_sampled_tune ]
      );
    ]
