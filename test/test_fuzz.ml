(* Differential fuzzing over randomly generated MiniFP programs: every
   engine and every transformation must agree with the reference
   interpreter. See [Gen_minifp] for the generator. *)

open Cheffp_ir
module Config = Cheffp_precision.Config
module Fp = Cheffp_precision.Fp

let count = 150

let run_ok prog args =
  match Interp.run_float ~prog ~func:"fuzz" args with
  | v -> Some v
  | exception Interp.Runtime_error _ -> None

let args_of (x, y) = [ Interp.Aflt x; Interp.Aflt y; Interp.Aint 4 ]

let both_or_skip prog args f =
  match run_ok prog args with
  | None -> true (* generator should prevent this; don't fail the property *)
  | Some reference -> f reference

let close tol a b =
  (Float.is_nan a && Float.is_nan b)
  || Float.abs (a -. b) /. Float.max 1. (Float.abs a) < tol

(* 1. Generated programs are well-typed. *)
let fuzz_typechecks =
  QCheck.Test.make ~count ~name:"fuzz: generated programs typecheck"
    Gen_minifp.arbitrary_program (fun prog ->
      Typecheck.check_program prog;
      true)

(* 2. Pretty-print/parse round trip. *)
let fuzz_roundtrip =
  QCheck.Test.make ~count ~name:"fuzz: pp/parse roundtrip"
    Gen_minifp.arbitrary_program (fun prog ->
      Parser.parse_program (Pp.program_to_string prog) = prog)

(* 3. Compiled execution = interpreted execution (bit for bit). *)
let fuzz_compile =
  QCheck.Test.make ~count ~name:"fuzz: compile = interp"
    Gen_minifp.arbitrary_case (fun (prog, xy) ->
      let args = args_of xy in
      both_or_skip prog args (fun reference ->
          let c = Compile.compile ~optimize:false ~prog ~func:"fuzz" () in
          Compile.run_float c args = reference))

(* 4. The optimizer preserves semantics exactly. *)
let fuzz_optimize =
  QCheck.Test.make ~count ~name:"fuzz: optimizer preserves semantics"
    Gen_minifp.arbitrary_case (fun (prog, xy) ->
      let args = args_of xy in
      both_or_skip prog args (fun reference ->
          let f = Optimize.optimize_func (Ast.func_exn prog "fuzz") in
          let prog' = { Ast.funcs = [ f ] } in
          Interp.run_float ~prog:prog' ~func:"fuzz" args = reference))

(* 5. Normalization preserves semantics exactly. *)
let fuzz_normalize =
  QCheck.Test.make ~count ~name:"fuzz: normalize preserves semantics"
    Gen_minifp.arbitrary_case (fun (prog, xy) ->
      let args = args_of xy in
      both_or_skip prog args (fun reference ->
          let nf = Normalize.normalize_func prog (Ast.func_exn prog "fuzz") in
          let prog' = { Ast.funcs = [ nf ] } in
          Interp.run_float ~prog:prog' ~func:"fuzz" args = reference))

(* 6. Mixed-precision execution agrees between engines (bit for bit). *)
let fuzz_mixed_engines =
  QCheck.Test.make ~count ~name:"fuzz: mixed-precision compile = interp"
    Gen_minifp.arbitrary_case (fun (prog, xy) ->
      let args = args_of xy in
      let config = Config.demote_all Config.double [ "a"; "c" ] Fp.F32 in
      match Interp.run_float ~config ~prog ~func:"fuzz" args with
      | exception Interp.Runtime_error _ -> true
      | reference ->
          let raw = Compile.compile ~config ~optimize:false ~prog ~func:"fuzz" () in
          let opt = Compile.compile ~config ~optimize:true ~prog ~func:"fuzz" () in
          Compile.run_float raw args = reference
          && Compile.run_float opt args = reference)

(* 7. Reverse AD = finite differences (loose tolerance; generated
   programs are smooth by construction except for branch boundaries,
   where FD and AD legitimately disagree -- use a majority vote over
   probe points to avoid flagging those). *)
let gradient prog args =
  let g = Cheffp_ad.Reverse.differentiate prog "fuzz" in
  let prog' = Ast.add_func prog g in
  let r =
    Interp.run ~prog:prog' ~func:g.Ast.fname
      (args @ [ Interp.Aflt 0.; Interp.Aflt 0. ])
  in
  ( Builtins.as_float (List.assoc "_d_x" r.Interp.outs),
    Builtins.as_float (List.assoc "_d_y" r.Interp.outs) )

let fuzz_reverse_vs_fd =
  QCheck.Test.make ~count:60 ~name:"fuzz: reverse AD matches FD (majority)"
    Gen_minifp.arbitrary_case (fun (prog, (x, y)) ->
      let value x y = Interp.run_float ~prog ~func:"fuzz" (args_of (x, y)) in
      match gradient prog (args_of (x, y)) with
      | exception _ -> true
      | dx, dy ->
          let h = 1e-6 in
          let fdx = (value (x +. h) y -. value (x -. h) y) /. (2. *. h) in
          let fdy = (value x (y +. h) -. value x (y -. h)) /. (2. *. h) in
          (* Branch-crossing points can make FD meaningless: accept if
             either both components match, or the value is locally
             non-smooth (FD at two scales disagrees with itself). *)
          let matches = close 5e-3 dx fdx && close 5e-3 dy fdy in
          if matches then true
          else begin
            let h2 = 1e-4 in
            let fdx2 = (value (x +. h2) y -. value (x -. h2) y) /. (2. *. h2) in
            let fdy2 = (value x (y +. h2) -. value x (y -. h2)) /. (2. *. h2) in
            (* FD inconsistent with itself => non-smooth point; skip. *)
            (not (close 1e-3 fdx fdx2)) || not (close 1e-3 fdy fdy2)
          end)

(* 8. Forward AD = reverse AD (both exact up to roundoff, no smoothness
   caveats). *)
let fuzz_forward_vs_reverse =
  QCheck.Test.make ~count:60 ~name:"fuzz: forward = reverse"
    Gen_minifp.arbitrary_case (fun (prog, xy) ->
      let args = args_of xy in
      match gradient prog args with
      | exception _ -> true
      | dx, dy ->
          let fwd wrt =
            let f = Cheffp_ad.Forward.differentiate prog "fuzz" ~wrt in
            Interp.run_float ~prog:(Ast.add_func prog f) ~func:f.Ast.fname args
          in
          close 1e-10 dx (fwd "x") && close 1e-10 dy (fwd "y"))

(* 9. Activity analysis changes nothing. Floats agree by their bits, so
   a NaN matches the same NaN. *)
let fuzz_activity =
  QCheck.Test.make ~count:60 ~name:"fuzz: activity analysis is sound"
    Gen_minifp.arbitrary_case (fun (prog, xy) ->
      let args = args_of xy in
      let grad_with use_activity =
        let g = Cheffp_ad.Reverse.differentiate ~use_activity prog "fuzz" in
        let prog' = Ast.add_func prog g in
        let r =
          Interp.run ~prog:prog' ~func:g.Ast.fname
            (args @ [ Interp.Aflt 0.; Interp.Aflt 0. ])
        in
        r.Interp.outs
      in
      match grad_with false with
      | exception _ -> true
      | off ->
          List.equal
            (fun (n, v) (n', v') ->
              String.equal n n' && Gen_minifp.same_value v v')
            (grad_with true) off)

(* 10. CHEF-FP estimation runs on anything the generator produces and
   compiled/interpreted analyses agree by their bits. The estimate must
   also be non-negative, which a NaN estimate is not. *)
let fuzz_estimate =
  QCheck.Test.make ~count:40 ~name:"fuzz: estimation compiled = interpreted"
    Gen_minifp.arbitrary_case (fun (prog, xy) ->
      let args = args_of xy in
      match
        Cheffp_core.Estimate.estimate_error
          ~model:(Cheffp_core.Model.adapt ())
          ~prog ~func:"fuzz" ()
      with
      | exception _ -> true
      | est ->
          let a = Cheffp_core.Estimate.run est args in
          let b = Cheffp_core.Estimate.run_interpreted est args in
          Gen_minifp.same_float a.Cheffp_core.Estimate.total_error
            b.Cheffp_core.Estimate.total_error
          && a.Cheffp_core.Estimate.total_error >= 0.)

(* 11. Automatic source rewriting agrees bit-for-bit with configured
   execution on arbitrary programs and configurations. *)
let fuzz_rewrite =
  QCheck.Test.make ~count:80 ~name:"fuzz: rewrite = configured execution"
    Gen_minifp.arbitrary_case (fun (prog, xy) ->
      let args = args_of xy in
      let config =
        Config.demote_all Config.double [ "b"; "c"; "ar" ] Fp.F32
      in
      match Interp.run_float ~config ~prog ~func:"fuzz" args with
      | exception Interp.Runtime_error _ -> true
      | configured ->
          let f = Ast.func_exn prog "fuzz" in
          let rewritten = Cheffp_core.Rewrite.apply_config config f in
          let prog' = { Ast.funcs = [ rewritten ] } in
          Typecheck.check_program prog';
          Interp.run_float ~prog:prog' ~func:"fuzz" args = configured)

module Shadow = Cheffp_shadow.Shadow
module Oracle = Cheffp_shadow.Oracle

(* 12. Programs with randomly narrowed declarations are still
   well-typed and survive the pp/parse round trip. *)
let fuzz_mixed_decls =
  QCheck.Test.make ~count ~name:"fuzz: mixed-precision declarations typecheck"
    Gen_minifp.arbitrary_mixed_program (fun prog ->
      Typecheck.check_program prog;
      Parser.parse_program (Pp.program_to_string prog) = prog)

(* 13. All-F64 shadow execution: the low lane is bit-identical to the
   interpreter, and the error against the double-double reference sits
   at the binary64 rounding floor — "essentially zero" next to any
   demotion effect (F16 demotions land around 1e-3). The floor is
   scale-relative because generated programs can cancel. *)
let fuzz_shadow_f64_floor =
  QCheck.Test.make ~count ~name:"fuzz: all-f64 shadow error ~ 0"
    Gen_minifp.arbitrary_case (fun (prog, xy) ->
      let args = args_of xy in
      both_or_skip prog args (fun reference ->
          let r = Shadow.run ~prog ~func:"fuzz" args in
          let m = Option.get r.Shadow.ret in
          if m.Shadow.low <> reference then false (* lockstep broke *)
          else if not (Float.is_finite reference) then true
          else m.Shadow.abs_error /. Float.max 1.0 (Float.abs reference) < 1e-9))

(* 14. The soundness property the whole oracle exists for: on every
   generated binary64 program and random demotion configuration, the
   CHEF-FP estimate (Extended mode, the tuner's margin of 2) covers the
   shadow-measured error. Skipped when demotion flipped a discrete
   decision (first-order models are knowingly invalid there,
   DESIGN.md §10), when the narrow run left the finite range, or when
   the estimate itself failed to produce a finite bound (a model
   breakdown — e.g. a NaN adjoint on a dead data path — not an
   unsound one); counterexamples print the program and configuration. *)
let fuzz_shadow_sound =
  QCheck.Test.make ~count:120
    ~name:"fuzz: estimate covers shadow-measured error"
    Gen_minifp.arbitrary_shadow_case (fun (prog, config, xy) ->
      let args = args_of xy in
      match
        Oracle.check_estimate ~mode:Config.Extended ~margin:2.0 ~prog
          ~func:"fuzz" ~config args
      with
      | exception Interp.Runtime_error _ -> true
      | exception _ -> true (* estimation limits; not a soundness issue *)
      | v ->
          v.Oracle.branch_divergence
          || (not (Float.is_finite v.Oracle.measured_error))
          || (not (Float.is_finite v.Oracle.bound))
          || v.Oracle.sound)

(* 15. Declared-narrow programs under the default configuration: the
   configured and reference runs share every effective format, so the
   oracle must measure zero demotion error and stay sound — the
   lockstep machinery agrees with itself through declared F16/F32
   storage, not just through configuration overrides. *)
let fuzz_shadow_mixed_decls_lockstep =
  QCheck.Test.make ~count:100
    ~name:"fuzz: declared-narrow lockstep, zero demotion error"
    Gen_minifp.arbitrary_mixed_case (fun (prog, xy) ->
      let args = args_of xy in
      match
        Oracle.check_estimate ~mode:Config.Extended ~prog ~func:"fuzz"
          ~config:Config.double args
      with
      | exception Interp.Runtime_error _ -> true
      | exception _ -> true
      | v ->
          (not (Float.is_finite v.Oracle.measured_error))
          || (v.Oracle.demotion_error = 0.0
             && (v.Oracle.sound || not (Float.is_finite v.Oracle.bound))))

module Fpcore_import = Cheffp_fpcore.Import
module Fpcore_export = Cheffp_fpcore.Export

(* 16. FPCore interop round trip (DESIGN.md §15): exporting a program
   from the exportable subset and importing it back must reproduce the
   identical AST — same variables, formats, loop structure — and hence
   a bit-identical CHEF-FP analysis; a mixed-precision configuration
   attached via :cheffp-config must survive unchanged too. *)
let fuzz_fpcore_roundtrip =
  QCheck.Test.make ~count:120 ~name:"fuzz: fpcore export/import round trip"
    Gen_minifp.arbitrary_export_case (fun (prog, xy) ->
      let args = args_of xy in
      let config = Config.demote_all Config.double [ "a"; "c" ] Fp.F32 in
      let text = Fpcore_export.func_to_fpcore ~config ~prog ~func:"fuzz" () in
      match Fpcore_import.parse_string ~file:"<fuzz>" text with
      | [ c ] ->
          let f = Ast.func_exn prog "fuzz" in
          if c.Fpcore_import.func <> f then false
          else if
            Config.demoted c.Fpcore_import.config <> Config.demoted config
          then false
          else begin
            let prog' = { Ast.funcs = [ c.Fpcore_import.func ] } in
            Typecheck.check_program prog';
            let total p =
              let est = Cheffp_core.Estimate.estimate_error ~prog:p ~func:"fuzz" () in
              (Cheffp_core.Estimate.run est args).Cheffp_core.Estimate.total_error
            in
            match total prog with
            | t -> Float.equal t (total prog')
            | exception _ -> true (* estimation limits hit both sides alike *)
          end
      | _ -> false)

let () =
  Alcotest.run "fuzz"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [
            fuzz_typechecks;
            fuzz_roundtrip;
            fuzz_compile;
            fuzz_optimize;
            fuzz_normalize;
            fuzz_mixed_engines;
            fuzz_reverse_vs_fd;
            fuzz_forward_vs_reverse;
            fuzz_activity;
            fuzz_estimate;
            fuzz_mixed_decls;
            fuzz_shadow_f64_floor;
            fuzz_shadow_sound;
            fuzz_shadow_mixed_decls_lockstep;
            fuzz_rewrite;
            fuzz_fpcore_roundtrip;
          ] );
    ]
