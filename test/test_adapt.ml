module Adapt = Cheffp_adapt.Adapt
module Tape = Cheffp_adapt.Tape
module Num = Cheffp_adapt.Num
module Fp = Cheffp_precision.Fp

let close ?(tol = 1e-9) a b =
  Float.abs (a -. b) /. Float.max 1. (Float.max (Float.abs a) (Float.abs b))
  < tol

(* ------------------------------------------------------------------ *)
(* Tape mechanics                                                     *)

let test_tape_gradient_simple () =
  (* f(x,y) = x*y + sin(x) *)
  let result =
    Adapt.analyze (fun tape ->
        let module N = (val Adapt.num tape) in
        let x = N.input "x" 1.2 and y = N.input "y" 0.7 in
        N.((x * y) + sin x))
  in
  match result with
  | Error _ -> Alcotest.fail "unexpected OOM"
  | Ok r ->
      Alcotest.(check bool) "value" true
        (close r.Adapt.value ((1.2 *. 0.7) +. sin 1.2));
      let dx = List.assoc "x" r.Adapt.gradients in
      let dy = List.assoc "y" r.Adapt.gradients in
      Alcotest.(check bool) "dx" true (close dx (0.7 +. cos 1.2));
      Alcotest.(check bool) "dy" true (close dy 1.2)

let test_tape_ops_vs_fd () =
  let f x =
    exp (log (x *. x)) +. (sqrt x /. cos x) -. ((x ** 3.) *. Float.abs (-.x))
  in
  let result =
    Adapt.analyze (fun tape ->
        let module N = (val Adapt.num tape) in
        let x = N.input "x" 0.8 in
        N.(
          exp (log (x * x))
          + (sqrt x / cos x)
          - (pow x (of_float 3.) * fabs (neg x))))
  in
  match result with
  | Error _ -> Alcotest.fail "unexpected OOM"
  | Ok r ->
      let h = 1e-7 in
      let num = (f (0.8 +. h) -. f (0.8 -. h)) /. (2. *. h) in
      Alcotest.(check bool) "tape gradient vs fd" true
        (close ~tol:1e-5 (List.assoc "x" r.Adapt.gradients) num)

let test_tape_bytes_accounting () =
  let result =
    Adapt.analyze (fun tape ->
        let module N = (val Adapt.num tape) in
        let x = N.input "x" 2.0 in
        let acc = ref x in
        for _ = 1 to 100 do
          acc := N.(!acc + x)
        done;
        !acc)
  in
  match result with
  | Error _ -> Alcotest.fail "unexpected OOM"
  | Ok r ->
      Alcotest.(check int) "nodes = input + 100 adds" 101 r.Adapt.nodes;
      Alcotest.(check int) "bytes = nodes * node size"
        (101 * Tape.bytes_per_node) r.Adapt.tape_bytes

let test_tape_oom () =
  let result =
    Adapt.analyze ~memory_budget:(Tape.bytes_per_node * 10) (fun tape ->
        let module N = (val Adapt.num tape) in
        let x = N.input "x" 1.0 in
        let acc = ref x in
        for _ = 1 to 100 do
          acc := N.(!acc + x)
        done;
        !acc)
  in
  match result with
  | Ok _ -> Alcotest.fail "expected OOM"
  | Error oom ->
      Alcotest.(check int) "budget recorded" (Tape.bytes_per_node * 10)
        oom.Adapt.budget;
      Alcotest.(check bool) "failed near the limit" true
        (oom.Adapt.nodes_at_failure <= 10)

let test_error_model_attribution () =
  (* A registered variable holding a non-representable value under f32
     contributes |adjoint * rep_error|. *)
  let v = 0.1 in
  let result =
    Adapt.analyze (fun tape ->
        let module N = (val Adapt.num tape) in
        let x = N.input "x" v in
        let t = N.register "t" N.(x * of_float 3.) in
        N.(t * of_float 2.))
  in
  match result with
  | Error _ -> Alcotest.fail "unexpected OOM"
  | Ok r ->
      let expected_t =
        Float.abs (2. *. Fp.representation_error Fp.F32 (v *. 3.))
      in
      let expected_x =
        Float.abs (6. *. Fp.representation_error Fp.F32 v)
      in
      Alcotest.(check bool) "t attribution" true
        (close (List.assoc "t" r.Adapt.per_variable) expected_t);
      Alcotest.(check bool) "x attribution" true
        (close (List.assoc "x" r.Adapt.per_variable) expected_x);
      Alcotest.(check bool) "total = sum" true
        (close r.Adapt.total_error (expected_t +. expected_x))

(* ------------------------------------------------------------------ *)
(* Chunk boundaries                                                   *)

(* acc <- register (acc * r + x), alternating two names: 3 nodes per
   step after the input, so the tape fills three chunks and a quarter
   of a fourth. In closed form acc = x (r^m + (1 - r^m) / (1 - r)). *)
let chain_steps = Tape.chunk_nodes + (Tape.chunk_nodes / 4)
let chain_nodes = 1 + (3 * chain_steps)
let chain_r = 0.999
let chain_x = 0.3

let record_chain tape =
  let module N = (val Adapt.num tape) in
  let x = N.input "x" chain_x in
  let acc = ref x in
  for i = 1 to chain_steps do
    let name = if i land 1 = 0 then "even" else "odd" in
    acc := N.register name N.((!acc * of_float chain_r) + x)
  done;
  !acc

let chain_error ~adjoint ~value =
  Float.abs (adjoint *. Fp.representation_error Fp.F32 value)

let test_chunk_boundaries () =
  let c = Tape.chunk_nodes in
  Alcotest.(check bool) "three full chunks and a partial one" true
    (chain_nodes > 3 * c && chain_nodes < 4 * c);
  let analyze jobs =
    match Adapt.analyze ~jobs record_chain with
    | Ok r -> r
    | Error _ -> Alcotest.fail "unexpected OOM"
  in
  let r1 = analyze 1 and r3 = analyze 3 in
  Alcotest.(check int) "nodes" chain_nodes r1.Adapt.nodes;
  Alcotest.(check int) "tape bytes" (chain_nodes * Tape.bytes_per_node)
    r1.Adapt.tape_bytes;
  let rm = chain_r ** float_of_int chain_steps in
  let dx = rm +. ((1. -. rm) /. (1. -. chain_r)) in
  Alcotest.(check bool) "gradient = closed form" true
    (close (List.assoc "x" r1.Adapt.gradients) dx);
  Alcotest.(check bool) "value = closed form" true
    (close r1.Adapt.value (chain_x *. dx));
  let bits = Int64.bits_of_float in
  let same_bits (n1, e1) (n2, e2) = n1 = n2 && bits e1 = bits e2 in
  Alcotest.(check bool) "total bit-identical for jobs 1 and 3" true
    (bits r1.Adapt.total_error = bits r3.Adapt.total_error);
  Alcotest.(check bool) "per-variable errors and order bit-identical" true
    (List.equal same_bits r1.Adapt.per_variable r3.Adapt.per_variable);
  Alcotest.(check bool) "gradients bit-identical" true
    (List.equal same_bits r1.Adapt.gradients r3.Adapt.gradients);
  (* The walk against an independent tape-order recomputation. *)
  let tape = Tape.create () in
  let out = record_chain tape in
  Tape.backward tape out;
  let total, per_var =
    Tape.fold_registered tape ~init:(0., [])
      ~f:(fun (total, acc) name ~adjoint ~value ->
        let e = chain_error ~adjoint ~value in
        let prev = Option.value ~default:0. (List.assoc_opt name acc) in
        (total +. e, (name, prev +. e) :: List.remove_assoc name acc))
  in
  let by_name l = List.sort (fun (a, _) (b, _) -> compare a b) l in
  List.iter
    (fun jobs ->
      let wt, wv = Tape.walk_errors tape ~jobs ~f:chain_error () in
      Alcotest.(check bool)
        (Printf.sprintf "walk total = fold_registered (jobs %d)" jobs)
        true
        (bits wt = bits total);
      Alcotest.(check bool)
        (Printf.sprintf "walk per-variable = fold_registered (jobs %d)" jobs)
        true
        (List.equal same_bits (by_name wv) (by_name per_var)))
    [ 1; 3 ];
  Alcotest.(check bool) "analyze total = fold_registered" true
    (bits r1.Adapt.total_error = bits total);
  (* A budget that trips in the middle of the third chunk. *)
  let fit = (2 * c) + (c / 3) in
  match
    Adapt.analyze ~memory_budget:(fit * Tape.bytes_per_node) record_chain
  with
  | Ok _ -> Alcotest.fail "expected OOM"
  | Error oom ->
      Alcotest.(check int) "nodes at failure" fit oom.Adapt.nodes_at_failure

let test_float_num_is_plain () =
  let module N = Num.Float_num in
  Alcotest.(check (float 0.)) "passthrough" 5.
    N.(to_float (register "x" (input "y" 2.0 + of_float 3.0)))

(* ------------------------------------------------------------------ *)
(* Cross-validation against the CHEF-FP source-transformation engine  *)

let test_adapt_vs_chef_gradients () =
  let a = 0.25 and b = 2.8 and n = 64 in
  let chef =
    let prog = Cheffp_benchmarks.Simpsons.program in
    let est =
      Cheffp_core.Estimate.estimate_error
        ~model:(Cheffp_core.Model.adapt ())
        ~prog ~func:"simpsons" ()
    in
    Cheffp_core.Estimate.run est (Cheffp_benchmarks.Simpsons.args ~a ~b ~n)
  in
  let adapt =
    match
      Adapt.analyze (fun tape ->
          let module N = (val Adapt.num tape) in
          let module S = Cheffp_benchmarks.Simpsons.Native (N) in
          S.run ~a ~b ~n)
    with
    | Ok r -> r
    | Error _ -> Alcotest.fail "unexpected OOM"
  in
  let chef_da = List.assoc "a" chef.Cheffp_core.Estimate.gradients in
  let adapt_da = List.assoc "a" adapt.Adapt.gradients in
  Alcotest.(check bool) "gradients agree" true (close ~tol:1e-9 chef_da adapt_da);
  Alcotest.(check bool) "totals same order" true
    (let c = chef.Cheffp_core.Estimate.total_error
     and t = adapt.Adapt.total_error in
     c > 0. && t > 0. && c /. t < 3. && t /. c < 3.)

let test_adapt_vs_chef_arclength_total () =
  let n = 500 in
  let chef =
    let est =
      Cheffp_core.Estimate.estimate_error
        ~model:(Cheffp_core.Model.adapt ())
        ~prog:Cheffp_benchmarks.Arclength.program ~func:"arclength" ()
    in
    Cheffp_core.Estimate.run est (Cheffp_benchmarks.Arclength.args ~n)
  in
  let adapt =
    match
      Adapt.analyze (fun tape ->
          let module N = (val Adapt.num tape) in
          let module A = Cheffp_benchmarks.Arclength.Native (N) in
          A.run ~n)
    with
    | Ok r -> r
    | Error _ -> Alcotest.fail "unexpected OOM"
  in
  let c = chef.Cheffp_core.Estimate.total_error in
  let t = adapt.Adapt.total_error in
  Alcotest.(check bool) "within 10 percent" true
    (Float.abs (c -. t) /. Float.max c t < 0.10)

let () =
  Alcotest.run "adapt"
    [
      ( "tape",
        [
          Alcotest.test_case "gradient simple" `Quick test_tape_gradient_simple;
          Alcotest.test_case "ops vs fd" `Quick test_tape_ops_vs_fd;
          Alcotest.test_case "bytes accounting" `Quick test_tape_bytes_accounting;
          Alcotest.test_case "oom budget" `Quick test_tape_oom;
          Alcotest.test_case "error attribution" `Quick
            test_error_model_attribution;
          Alcotest.test_case "float num" `Quick test_float_num_is_plain;
          Alcotest.test_case "chunk boundaries" `Quick test_chunk_boundaries;
        ] );
      ( "cross-validation",
        [
          Alcotest.test_case "gradients CHEF = ADAPT" `Quick
            test_adapt_vs_chef_gradients;
          Alcotest.test_case "totals agree (arclength)" `Quick
            test_adapt_vs_chef_arclength_total;
        ] );
    ]
