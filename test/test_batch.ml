(* Batched lane-parallel execution (Ir.Batch): the contract is per-lane
   bit-identity with the scalar compiler under the same configuration,
   with divergence handled by transparent scalar fallback. The unit
   cases pin the three divergence shapes named in DESIGN.md §11
   (config-dependent branch flip, while-loop trip-count divergence,
   array writes after a split); the fuzz property sweeps random
   programs under random lane configurations. *)

open Cheffp_ir
module Fp = Cheffp_precision.Fp
module Config = Cheffp_precision.Config

let parse src =
  let prog = Parser.parse_program src in
  Typecheck.check_program prog;
  prog

(* Run [configs] batched and scalar on the same args and check every
   lane's full result (return, outs, stack peak) is identical bit for
   bit. Returns the batch divergence count. *)
let check_lanes ~prog ~func configs args =
  let b = Batch.compile ~prog ~func () in
  let r = Batch.run b ~configs args in
  Array.iteri
    (fun l config ->
      let c = Compile.compile ~config ~prog ~func () in
      Alcotest.(check bool)
        (Printf.sprintf "lane %d result bit-identical" l)
        true
        (r.Batch.lanes.(l) = Compile.run c (Interp.copy_args args)))
    configs;
  r.Batch.divergences

(* ------------------------------------------------------------------ *)
(* Uniform control flow: no divergence.                               *)

let conform_src =
  {|func kernel(x: f64, n: int): f64 {
  var s: f64 = 0.0;
  var t: f64;
  var u: f64;
  for i in 1 .. n + 1 {
    t = x / itof(i);
    u = t * t + 0.5;
    s = s + sqrt(u);
  }
  return s;
}|}

let test_uniform () =
  let prog = parse conform_src in
  let configs =
    [|
      Config.double;
      Config.demote Config.double "t" Fp.F32;
      Config.demote (Config.demote Config.double "u" Fp.F16) "t" Fp.F32;
      Config.demote_all Config.double [ "s"; "t"; "u" ] Fp.F32;
    |]
  in
  let d =
    check_lanes ~prog ~func:"kernel" configs
      [ Interp.Aflt 1.7; Interp.Aint 20 ]
  in
  Alcotest.(check int) "no divergence" 0 d

let test_extended_mode () =
  let prog = parse conform_src in
  let configs =
    [| Config.double; Config.demote_all Config.double [ "s"; "u" ] Fp.F16 |]
  in
  let b = Batch.compile ~mode:Config.Extended ~prog ~func:"kernel" () in
  let r =
    Batch.run b ~configs [ Interp.Aflt 1.7; Interp.Aint 20 ]
  in
  Array.iteri
    (fun l config ->
      let c =
        Compile.compile ~config ~mode:Config.Extended ~prog ~func:"kernel" ()
      in
      let sres = Compile.run c [ Interp.Aflt 1.7; Interp.Aint 20 ] in
      Alcotest.(check bool)
        (Printf.sprintf "extended lane %d" l)
        true
        (r.Batch.lanes.(l) = sres))
    configs;
  Alcotest.(check int) "no divergence" 0 r.Batch.divergences

(* ------------------------------------------------------------------ *)
(* Divergence: config-dependent branch flip.                          *)

(* With t demoted to f16, 0.99998 stores as 1.0 and the >= test flips. *)
let branch_src =
  {|func branchy(x: f64): f64 {
  var t: f64 = x;
  if (t >= 1.0) {
    return t * 2.0;
  }
  return t * 3.0;
}|}

let test_branch_flip () =
  let prog = parse branch_src in
  let configs =
    [|
      Config.double;
      Config.demote Config.double "t" Fp.F16;
      Config.double;
      Config.demote Config.double "t" Fp.F32;
    |]
  in
  let d =
    check_lanes ~prog ~func:"branchy" configs
      [ Interp.Aflt 0.99998 ]
  in
  (* Three lanes agree the branch is not taken; the f16 lane dissents. *)
  Alcotest.(check int) "one diverged lane" 1 d

(* ------------------------------------------------------------------ *)
(* Predicated float-only branches: an [if] whose condition is a float
   comparison and whose bodies only assign float scalars keeps every
   lane's own outcome — no consensus, no divergence — while staying
   bit-identical to scalar per lane. *)

let pred_src =
  {|func predy(x: f64): f64 {
  var t: f64 = x;
  var w: f64 = 1.0;
  var best: f64 = 1.0e30;
  if (t >= 1.0) {
    w = t * 2.0;
  } else {
    w = w - t;
  }
  if (w < best) {
    best = w;
  }
  return best + w;
}|}

let test_predicated_branch_no_divergence () =
  let prog = parse pred_src in
  (* The f16 lane stores 0.99998 as 1.0 and flips both branches. *)
  let configs =
    [| Config.double; Config.demote Config.double "t" Fp.F16 |]
  in
  let d = check_lanes ~prog ~func:"predy" configs [ Interp.Aflt 0.99998 ] in
  Alcotest.(check int) "predicated: no divergence" 0 d

let test_predicated_input_sweep () =
  let prog = parse pred_src in
  let config = Config.double in
  let inputs =
    Array.map (fun x -> [ Interp.Aflt x ]) [| 0.5; 1.5; 0.25; 2.0; 1.0 |]
  in
  let b = Batch.compile ~prog ~func:"predy" () in
  let r = Batch.run_inputs b ~config inputs in
  Alcotest.(check int) "no divergence across disagreeing inputs" 0
    r.Batch.divergences;
  let c = Compile.compile ~config ~prog ~func:"predy" () in
  Array.iteri
    (fun l args ->
      Alcotest.(check bool)
        (Printf.sprintf "lane %d bit-identical" l)
        true
        (r.Batch.lanes.(l) = Compile.run c args))
    inputs

(* ------------------------------------------------------------------ *)
(* Divergence: while-loop trip count.                                 *)

(* x = 0.33329: in f64 the sum crosses 1.0 on the 4th iteration; with s
   demoted to f16 the third store rounds 1.000038… to exactly 1.0, so
   the loop exits an iteration early. *)
let while_src =
  {|func trippy(x: f64): f64 {
  var s: f64 = 0.0;
  var iters: f64 = 0.0;
  while (s < 1.0) {
    s = s + x;
    iters = iters + 1.0;
  }
  return s + iters;
}|}

let test_while_trip_count () =
  let prog = parse while_src in
  let configs = [| Config.double; Config.demote Config.double "s" Fp.F16 |] in
  (* Sanity: the two scalar runs really do different trip counts,
     otherwise this case pins nothing. *)
  let runs =
    Array.map
      (fun config ->
        Interp.run_float ~config ~prog ~func:"trippy" [ Interp.Aflt 0.33329 ])
      configs
  in
  Alcotest.(check bool) "trip counts differ" true (runs.(0) <> runs.(1));
  let d =
    check_lanes ~prog ~func:"trippy" configs
      [ Interp.Aflt 0.33329 ]
  in
  Alcotest.(check int) "one diverged lane" 1 d

(* ------------------------------------------------------------------ *)
(* Divergence: array writes after the split point.                    *)

(* The diverged lane re-runs scalar from pristine argument copies, so
   index-dependent array writes after the split stay correct — and the
   caller's own array is never mutated by the batch run. *)
let arr_src =
  {|func arrsplit(x: f64, acc: f64[]): f64 {
  var t: f64 = x;
  var ar: f64[4];
  var i: int = 0;
  if (t >= 1.0) {
    i = 1;
  }
  ar[i] = t * 2.0;
  ar[3 - i] = t * 3.0;
  acc[i] = acc[i] + ar[i];
  return ar[0] + ar[1] + ar[2] + ar[3] + acc[0] + acc[1];
}|}

let test_array_writes_after_split () =
  let prog = parse arr_src in
  let configs = [| Config.double; Config.demote Config.double "t" Fp.F16 |] in
  let out = [| 10.0; 20.0 |] in
  let d =
    check_lanes ~prog ~func:"arrsplit" configs
      [ Interp.Aflt 0.99998; Interp.Afarr out ]
  in
  Alcotest.(check int) "one diverged lane" 1 d;
  Alcotest.(check bool)
    "caller array untouched" true
    (out = [| 10.0; 20.0 |])

(* ------------------------------------------------------------------ *)
(* run_many: chunking and domain fan-out preserve order and values.   *)

let test_run_many () =
  let prog = parse conform_src in
  let configs =
    [
      Config.double;
      Config.demote Config.double "t" Fp.F32;
      Config.demote Config.double "u" Fp.F32;
      Config.demote Config.double "s" Fp.F32;
      Config.demote_all Config.double [ "s"; "t"; "u" ] Fp.F16;
    ]
  in
  let args = [ Interp.Aflt 1.7; Interp.Aint 20 ] in
  let b = Batch.compile ~prog ~func:"kernel" () in
  let expect =
    List.map
      (fun config ->
        let c = Compile.compile ~config ~prog ~func:"kernel" () in
        Compile.run_float c args)
      configs
  in
  List.iter
    (fun (jobs, lanes) ->
      let got = Batch.run_many ~jobs ~lanes b ~configs args in
      Alcotest.(check bool)
        (Printf.sprintf "run_many jobs=%d lanes=%d" jobs lanes)
        true (got = expect))
    [ (1, 2); (2, 2); (1, 8); (2, 1) ]

(* ------------------------------------------------------------------ *)
(* Wiring: batched Search agrees with its scalar path.                *)

let test_search_batched () =
  let prog = parse conform_src in
  let args = [ Interp.Aflt 1.7; Interp.Aint 20 ] in
  (* Pinned to `Measured: this test exercises the batching machinery,
     and the hybrid default's model pruning can leave a phase with too
     few survivors to sweep. Hybrid batching identity is asserted
     below (and across the paper workloads in test_profile). *)
  let tune ?batch ?(strategy = `Measured) () =
    Cheffp_core.Search.tune ?batch ~strategy ~prog ~func:"kernel" ~args
      ~threshold:1e-9 ()
  in
  let scalar = tune () in
  let batched = tune ~batch:3 () in
  Alcotest.(check (list string))
    "same demoted set" scalar.Cheffp_core.Search.demoted
    batched.Cheffp_core.Search.demoted;
  Alcotest.(check int)
    "same program-runs-equivalent" scalar.Cheffp_core.Search.executions
    batched.Cheffp_core.Search.executions;
  Alcotest.(check (float 0.))
    "same validated error"
    scalar.Cheffp_core.Search.evaluation.Cheffp_core.Tuner.actual_error
    batched.Cheffp_core.Search.evaluation.Cheffp_core.Tuner.actual_error;
  Alcotest.(check int) "scalar path has no sweeps" 0
    scalar.Cheffp_core.Search.batched_runs;
  Alcotest.(check bool) "batched path counts sweeps" true
    (batched.Cheffp_core.Search.batched_runs > 0);
  (* Model pruning is deterministic and batch-independent, so the
     hybrid strategy keeps the scalar/batched identity too. *)
  let h_scalar = tune ~strategy:`Hybrid () in
  let h_batched = tune ~strategy:`Hybrid ~batch:3 () in
  Alcotest.(check (list string))
    "hybrid: same demoted set" h_scalar.Cheffp_core.Search.demoted
    h_batched.Cheffp_core.Search.demoted;
  Alcotest.(check int)
    "hybrid: same program-runs-equivalent"
    h_scalar.Cheffp_core.Search.executions
    h_batched.Cheffp_core.Search.executions;
  Alcotest.(check int)
    "hybrid: same runs avoided" h_scalar.Cheffp_core.Search.runs_avoided
    h_batched.Cheffp_core.Search.runs_avoided

(* ------------------------------------------------------------------ *)
(* Fuzz: K random configs batched vs scalar on random programs.       *)

let gen_batch_case =
  QCheck.Gen.(
    quad Gen_minifp.gen_program
      (array_size (return 4) Gen_minifp.gen_config)
      Gen_minifp.gen_inputs (return ()))

let arbitrary_batch_case =
  QCheck.make
    ~print:(fun (p, cfgs, (x, y), ()) ->
      Printf.sprintf "x=%.17g y=%.17g configs=[%s]\n%s" x y
        (String.concat "; "
           (Array.to_list (Array.map Config.to_string cfgs)))
        (Pp.program_to_string p))
    gen_batch_case

let fuzz_batch_bit_identity =
  QCheck.Test.make ~count:120 ~name:"fuzz: batched lanes = scalar runs"
    arbitrary_batch_case (fun (prog, configs, (x, y), ()) ->
      let args = [ Interp.Aflt x; Interp.Aflt y; Interp.Aint 4 ] in
      let scalar =
        try
          Some
            (Array.map
               (fun config ->
                 let c = Compile.compile ~config ~prog ~func:"fuzz" () in
                 Compile.run c args)
               configs)
        with Interp.Runtime_error _ | Division_by_zero -> None
      in
      match scalar with
      | None -> true (* generator should prevent this; skip *)
      | Some scalar ->
          let b = Batch.compile ~prog ~func:"fuzz" () in
          let r = Batch.run b ~configs args in
          Array.for_all2 Gen_minifp.same_result r.Batch.lanes scalar)

(* A sweep raises [Interp.Runtime_error] exactly when a scalar run of
   one of its lanes does, on both lane axes: an int division or modulo
   by zero in the batched body, an out-of-bounds read every lane agrees
   on, and one that only a diverged lane's scalar re-run makes. *)
let test_run_failures () =
  let raises f =
    match f () with _ -> false | exception Interp.Runtime_error _ -> true
  in
  let check name src ~configs ~inputs ~expect =
    let prog = parse src in
    let scalar config args =
      raises (fun () ->
          Compile.run (Compile.compile ~config ~prog ~func:"f" ()) args)
    in
    let b = Batch.compile ~prog ~func:"f" () in
    let config = configs.(0) and args = inputs.(0) in
    Alcotest.(check bool)
      (name ^ ": some config lane raises")
      expect
      (Array.exists (fun c -> scalar c args) configs);
    Alcotest.(check bool)
      (name ^ ": Batch.run raises")
      expect
      (raises (fun () -> Batch.run b ~configs args));
    Alcotest.(check bool)
      (name ^ ": some input lane raises")
      expect
      (Array.exists (scalar config) inputs);
    Alcotest.(check bool)
      (name ^ ": Batch.run_inputs raises")
      expect
      (raises (fun () -> Batch.run_inputs b ~config inputs))
  in
  let configs = [| Config.double; Config.uniform Fp.F32; Config.uniform Fp.F16 |] in
  let ints x n = Array.map (fun n -> [ Interp.Aflt x; Interp.Aint n ]) n in
  let floats = Array.map (fun x -> [ Interp.Aflt x ]) in
  List.iter
    (fun op ->
      let src =
        Printf.sprintf
          "func f(x: f64, n: int): f64 { var k: int = 4 %s n; return x * itof(k); }"
          op
      in
      check (op ^ " by zero") src ~configs ~inputs:(ints 1.5 [| 0; 0 |]) ~expect:true;
      check (op ^ " by two") src ~configs ~inputs:(ints 1.5 [| 2; 2 |]) ~expect:false)
    [ "/"; "%" ];
  let oob =
    "func f(x: f64): f64 { var a: f64[2]; a[0] = x; a[1] = x * x; var k: int = ftoi(x); return a[k] + x; }"
  in
  check "agreed index out of bounds" oob ~configs ~inputs:(floats [| 2.25; 2.5; 2.75 |])
    ~expect:true;
  (* binary16 stores 1.9999 as 2.0: that config lane diverges, as the
     input lane at 2.5 does. *)
  check "diverged lane out of bounds" oob ~configs
    ~inputs:(floats [| 1.9999; 1.5; 2.5 |]) ~expect:true;
  check "in bounds" oob ~configs ~inputs:(floats [| 0.5; 1.5; 1.75 |]) ~expect:false

(* Programs that skip the typechecker: [Batch.compile] rejects each one
   with [Compile.Compile_error], as [Compile.compile] does — an int
   operand of float arithmetic, and intrinsic calls of the wrong arity
   on both the float and the int side. *)
let test_malformed () =
  List.iter
    (fun (name, src) ->
      let prog = Parser.parse_program src in
      let rejects compile =
        match compile () with
        | exception Compile.Compile_error _ -> true
        | _ -> false
      in
      Alcotest.(check bool)
        (name ^ ": Compile rejects") true
        (rejects (fun () -> ignore (Compile.compile ~prog ~func:"f" ())));
      Alcotest.(check bool)
        (name ^ ": Batch rejects") true
        (rejects (fun () -> ignore (Batch.compile ~prog ~func:"f" ()))))
    [
      ( "int operand",
        "func f(x: f64, n: int): f64 { var y: f64 = x * n; return y; }" );
      ( "float arity",
        "func f(x: f64): f64 { var y: f64 = sqrt(x, x); return y; }" );
      ( "int arity",
        "func f(x: f64): int { var k: int = ftoi(x, x); return k; }" );
    ]

let () =
  Alcotest.run "batch"
    [
      ( "unit",
        [
          Alcotest.test_case "uniform lanes" `Quick test_uniform;
          Alcotest.test_case "extended mode" `Quick test_extended_mode;
          Alcotest.test_case "branch flip diverges" `Quick test_branch_flip;
          Alcotest.test_case "predicated branch, no divergence" `Quick
            test_predicated_branch_no_divergence;
          Alcotest.test_case "predicated input sweep" `Quick
            test_predicated_input_sweep;
          Alcotest.test_case "while trip-count diverges" `Quick
            test_while_trip_count;
          Alcotest.test_case "array writes after split" `Quick
            test_array_writes_after_split;
          Alcotest.test_case "run_many chunking" `Quick test_run_many;
          Alcotest.test_case "batched search = scalar search" `Quick
            test_search_batched;
          Alcotest.test_case "malformed programs" `Quick test_malformed;
          Alcotest.test_case "run failures" `Quick test_run_failures;
        ] );
      ( "fuzz",
        [ QCheck_alcotest.to_alcotest fuzz_batch_bit_identity ] );
    ]
