open Cheffp_ir
module E = Cheffp_core.Estimate
module Model = Cheffp_core.Model
module Tuner = Cheffp_core.Tuner
module Sensitivity = Cheffp_core.Sensitivity
module Fp = Cheffp_precision.Fp
module Config = Cheffp_precision.Config

let check_float = Alcotest.(check (float 1e-15))

let simple_src =
  {|
func func1(x: f64, y: f64): f64 {
  var z: f64;
  z = x + y;
  return z;
}
|}

let loopy_src =
  {|
func acc(x: f64, n: int): f64 {
  var s: f64 = 0.0;
  var t: f64;
  for i in 1 .. n + 1 {
    t = x / itof(i);
    s = s + t * t;
  }
  return sqrt(s);
}
|}

(* ------------------------------------------------------------------ *)
(* Models                                                             *)

let estimate ?options ?builtins ?deriv ~model src func args =
  let prog = Parser.parse_program src in
  let est = E.estimate_error ?options ?builtins ?deriv ~model ~prog ~func () in
  E.run est args

let test_adapt_model_closed_form () =
  (* z = x + y with exactly-representable inputs: the only error terms
     are z's representation error under f32 and zero input terms. *)
  let x = 0.5 and y = 0.25 in
  let r =
    estimate ~model:(Model.adapt ()) simple_src "func1"
      [ Interp.Aflt x; Interp.Aflt y ]
  in
  check_float "exact inputs, exact sum" 0. r.E.total_error;
  let x = 1.95e-5 and y = 1.37e-7 in
  let r =
    estimate ~model:(Model.adapt ()) simple_src "func1"
      [ Interp.Aflt x; Interp.Aflt y ]
  in
  let expected =
    Float.abs (Fp.representation_error Fp.F32 (x +. y))
    +. Float.abs (Fp.representation_error Fp.F32 x)
    +. Float.abs (Fp.representation_error Fp.F32 y)
  in
  Alcotest.(check (float 1e-25)) "adapt closed form" expected r.E.total_error

let test_taylor_model_closed_form () =
  let x = 0.5 and y = 0.25 in
  let r =
    estimate ~model:(Model.taylor ()) simple_src "func1"
      [ Interp.Aflt x; Interp.Aflt y ]
  in
  (* taylor: eps*|z|*|dz| for the z assignment + eps*|x|*|dx| + eps*|y|*|dy| *)
  let eps = Fp.unit_roundoff Fp.F32 in
  let expected = (eps *. 0.75) +. (eps *. 0.5) +. (eps *. 0.25) in
  Alcotest.(check (float 1e-20)) "taylor closed form" expected r.E.total_error

let test_taylor_f16_larger () =
  let args = [ Interp.Aflt 0.3; Interp.Aflt 0.4 ] in
  let r32 = estimate ~model:(Model.taylor ~target:Fp.F32 ()) simple_src "func1" args in
  let r16 = estimate ~model:(Model.taylor ~target:Fp.F16 ()) simple_src "func1" args in
  Alcotest.(check bool) "f16 error larger" true
    (r16.E.total_error > r32.E.total_error *. 1000.)

let test_zero_model () =
  let r =
    estimate ~model:Model.zero simple_src "func1"
      [ Interp.Aflt 0.1; Interp.Aflt 0.2 ]
  in
  check_float "zero model" 0. r.E.total_error;
  Alcotest.(check (float 1e-12)) "gradients still computed" 1.
    (List.assoc "x" r.E.gradients)

let test_adapt_f64_rejected () =
  Alcotest.(check bool) "adapt f64 invalid" true
    (try
       ignore (Model.adapt ~target:Fp.F64 ());
       false
     with Invalid_argument _ -> true)

let test_external_model_names () =
  let seen = ref [] in
  let model =
    Model.external_ ~name:"spy" (fun ~adj ~value ~var ->
        seen := var :: !seen;
        adj *. value *. 0.)
  in
  let r =
    estimate ~model loopy_src "acc" [ Interp.Aflt 1.0; Interp.Aint 3 ]
  in
  check_float "spy model zero" 0. r.E.total_error;
  (* variables seen at runtime: t and s repeatedly, _ret once, plus the
     input term for x *)
  Alcotest.(check bool) "saw t and s" true
    (List.mem "t" !seen && List.mem "s" !seen)

let test_approx_model_unmapped_zero () =
  let model =
    Model.approx_functions ~pairs:[]
      ~eval:(fun _ v -> v)
      ~eval_approx:(fun _ v -> v)
  in
  let r = estimate ~model loopy_src "acc" [ Interp.Aflt 1.0; Interp.Aint 4 ] in
  check_float "no mapped vars, no error" 0. r.E.total_error

(* ------------------------------------------------------------------ *)
(* Estimation engine                                                  *)

let test_compiled_equals_interpreted () =
  let prog = Parser.parse_program loopy_src in
  let est = E.estimate_error ~model:(Model.adapt ()) ~prog ~func:"acc" () in
  let args = [ Interp.Aflt 1.23; Interp.Aint 11 ] in
  let a = E.run est args in
  let b = E.run_interpreted est args in
  Alcotest.(check (float 0.)) "same total" a.E.total_error b.E.total_error;
  Alcotest.(check bool) "same gradients" true (a.E.gradients = b.E.gradients);
  Alcotest.(check bool) "same per-variable" true
    (a.E.per_variable = b.E.per_variable)

let test_per_variable_sums_to_total () =
  let prog = Parser.parse_program loopy_src in
  let est = E.estimate_error ~model:(Model.adapt ()) ~prog ~func:"acc" () in
  let r = E.run est [ Interp.Aflt 0.77; Interp.Aint 9 ] in
  let sum = List.fold_left (fun acc (_, e) -> acc +. e) 0. r.E.per_variable in
  Alcotest.(check (float 1e-18)) "sum of attribution = total" r.E.total_error sum

let test_return_copy_not_double_counted () =
  (* [return z] introduces a synthetic copy that must not be charged. *)
  let prog = Parser.parse_program simple_src in
  let est = E.estimate_error ~model:(Model.adapt ()) ~prog ~func:"func1" () in
  let r = E.run est [ Interp.Aflt 1.95e-5; Interp.Aflt 1.37e-7 ] in
  Alcotest.(check bool) "no _ret attribution" true
    (not (List.mem_assoc "_ret" r.E.per_variable))

let test_expression_return_charged () =
  let src = "func f(x: f64): f64 { return x * 3.1; }" in
  let prog = Parser.parse_program src in
  let est = E.estimate_error ~model:(Model.adapt ()) ~prog ~func:"f" () in
  let r = E.run est [ Interp.Aflt 0.7 ] in
  Alcotest.(check bool) "expression return is charged" true
    (List.mem_assoc "_ret" r.E.per_variable)

let test_options_variants_same_total () =
  let prog = Parser.parse_program loopy_src in
  let args = [ Interp.Aflt 0.9; Interp.Aint 8 ] in
  let total options =
    let est = E.estimate_error ~model:(Model.adapt ()) ~options ~prog ~func:"acc" () in
    (E.run est args).E.total_error
  in
  let base = total E.default_options in
  Alcotest.(check (float 0.)) "no per-variable tracking" base
    (total { E.default_options with E.per_variable = false });
  Alcotest.(check (float 0.)) "no optimization" base
    (total { E.default_options with E.optimize = false });
  Alcotest.(check (float 0.)) "activity analysis" base
    (total { E.default_options with E.use_activity = true });
  Alcotest.(check (float 0.)) "iteration tracking" base
    (total { E.default_options with E.track_iterations = `Outermost })

let test_track_iterations_records () =
  let prog = Parser.parse_program loopy_src in
  let est =
    E.estimate_error ~model:(Model.adapt ())
      ~options:{ E.default_options with E.track_iterations = `Loop "i" }
      ~prog ~func:"acc" ()
  in
  let r = E.run est [ Interp.Aflt 1.1; Interp.Aint 5 ] in
  let t_series = List.assoc "t" r.E.per_iteration in
  Alcotest.(check int) "5 iterations recorded" 5 (List.length t_series);
  Alcotest.(check bool) "iteration keys 1..5" true
    (List.map fst t_series = [ 1; 2; 3; 4; 5 ]);
  Alcotest.(check bool) "sensitivities decay with 1/i" true
    (let v = List.map snd t_series in
     List.hd v > List.nth v 4)

let test_gradients_reported () =
  let prog = Parser.parse_program loopy_src in
  let est = E.estimate_error ~prog ~func:"acc" () in
  let r = E.run est [ Interp.Aflt 2.0; Interp.Aint 6 ] in
  (* acc = sqrt(sum (x/i)^2) = x * sqrt(sum 1/i^2): linear in x. *)
  let factor =
    sqrt (List.fold_left (fun a i -> a +. (1. /. float_of_int (i * i))) 0. [ 1; 2; 3; 4; 5; 6 ])
  in
  Alcotest.(check (float 1e-9)) "dacc/dx" factor (List.assoc "x" r.E.gradients)

let test_array_gradients_reported () =
  let src =
    {|func f(a: f64[], n: int): f64 {
        var s: f64 = 0.0;
        for i in 0 .. n { s = s + a[i]; }
        return s;
      }|}
  in
  let prog = Parser.parse_program src in
  let est = E.estimate_error ~prog ~func:"f" () in
  let r = E.run est [ Interp.Afarr [| 1.; 2.; 4. |]; Interp.Aint 3 ] in
  match List.assoc "a" r.E.array_gradients with
  | d -> Alcotest.(check bool) "all ones" true (d = [| 1.; 1.; 1. |])

let test_memory_accounting_positive () =
  let prog = Parser.parse_program loopy_src in
  let est = E.estimate_error ~prog ~func:"acc" () in
  let r = E.run est [ Interp.Aflt 1.0; Interp.Aint 100 ] in
  Alcotest.(check bool) "stack bytes grow with work" true
    (r.E.stack_peak_bytes > 0 && r.E.analysis_bytes >= r.E.stack_peak_bytes)

let test_generated_function_exposed () =
  let prog = Parser.parse_program simple_src in
  let est = E.estimate_error ~prog ~func:"func1" () in
  let g = E.generated est in
  Alcotest.(check string) "name" "func1_grad" g.Ast.fname;
  Alcotest.(check bool) "program contains it" true
    (Ast.find_func (E.program est) "func1_grad" <> None)

(* Two estimates of different programs built on one shared builtins
   table (as the serve daemon does): each run records into its own sink,
   so interleaved and concurrent runs, and runs of estimates built
   concurrently, reproduce the isolated reports. *)
let test_shared_table_estimates_independent () =
  let module B = Cheffp_benchmarks in
  let options = { E.default_options with E.per_variable = true; track_ranges = true } in
  let cases =
    [
      (B.Arclength.program, B.Arclength.func_name, B.Arclength.args ~n:3000);
      ( B.Kmeans.program,
        B.Kmeans.func_name,
        B.Kmeans.args (B.Kmeans.generate ~npoints:300 ()) );
    ]
  in
  let key (r : E.report) =
    let bits = Int64.bits_of_float in
    ( bits r.E.total_error,
      List.map (fun (v, e) -> (v, bits e)) r.E.per_variable,
      List.map (fun (v, (lo, hi)) -> (v, bits lo, bits hi)) r.E.ranges )
  in
  let isolated =
    List.map
      (fun (prog, func, args) ->
        key
          (E.run (E.estimate_error ~options ~prog ~func ())
             (Interp.copy_args args)))
      cases
  in
  let builtins = Builtins.create () in
  let shared =
    List.map
      (fun (prog, func, args) ->
        (E.estimate_error ~options ~builtins ~prog ~func (), args))
      cases
  in
  let expect what got =
    Alcotest.(check bool) what true (List.map key got = isolated)
  in
  for _ = 1 to 2 do
    expect "interleaved"
      (List.map (fun (est, args) -> E.run est (Interp.copy_args args)) shared)
  done;
  let pool = Cheffp_util.Pool.Shared.create ~workers:2 () in
  let sub = Cheffp_util.Pool.Shared.add_submitter pool in
  let futures =
    List.init 3 (fun _ ->
        List.map
          (fun (est, args) ->
            Cheffp_util.Pool.Shared.submit pool sub (fun () ->
                E.run est (Interp.copy_args args)))
          shared)
  in
  let results =
    List.map
      (List.map (fun fut ->
           match Cheffp_util.Pool.Shared.await fut with
           | Ok r -> r
           | Error e -> raise e))
      futures
  in
  List.iter (expect "concurrent on 2 domains") results;
  (* Builds race too: each re-registers the [__chef_*] callbacks on the
     shared table while the other domain compiles against it. *)
  let builds =
    List.init 8 (fun i ->
        let prog, func, args = List.nth cases (i mod 2) in
        Cheffp_util.Pool.Shared.submit pool sub (fun () ->
            key
              (E.run
                 (E.estimate_error ~options ~builtins ~prog ~func ())
                 (Interp.copy_args args))))
  in
  List.iteri
    (fun i fut ->
      match Cheffp_util.Pool.Shared.await fut with
      | Ok k ->
          Alcotest.(check bool) "built concurrently on 2 domains" true
            (k = List.nth isolated (i mod 2))
      | Error e -> raise e)
    builds;
  Cheffp_util.Pool.Shared.shutdown pool

(* ------------------------------------------------------------------ *)
(* Tuner                                                              *)

let test_float_variables () =
  let prog = Parser.parse_program loopy_src in
  Alcotest.(check (list string)) "candidates" [ "x"; "s"; "t" ]
    (Tuner.float_variables (Ast.func_exn prog "acc"))

let test_evaluate_double_config () =
  let prog = Parser.parse_program loopy_src in
  let ev =
    Tuner.evaluate ~prog ~func:"acc"
      ~args:[ Interp.Aflt 1.3; Interp.Aint 10 ]
      Config.double
  in
  Alcotest.(check (float 0.)) "no error" 0. ev.Tuner.actual_error;
  Alcotest.(check (float 1e-9)) "no speedup" 1. ev.Tuner.modelled_speedup;
  Alcotest.(check int) "no casts" 0 ev.Tuner.casts

let test_evaluate_demoted_config () =
  let prog = Parser.parse_program loopy_src in
  let config = Config.demote_all Config.double [ "s"; "t" ] Fp.F32 in
  let ev =
    Tuner.evaluate ~prog ~func:"acc" ~args:[ Interp.Aflt 1.3; Interp.Aint 10 ] config
  in
  Alcotest.(check bool) "error appears" true (ev.Tuner.actual_error > 0.);
  Alcotest.(check bool) "speedup appears" true (ev.Tuner.modelled_speedup > 1.)

let test_tune_respects_budget () =
  let prog = Parser.parse_program loopy_src in
  let threshold = 1e-6 in
  let o =
    Tuner.tune ~prog ~func:"acc"
      ~args:[ Interp.Aflt 1.3; Interp.Aint 50 ]
      ~threshold ()
  in
  Alcotest.(check bool) "estimate within budget" true
    (o.Tuner.estimated_error <= threshold /. 2.);
  Alcotest.(check bool) "actual within threshold" true
    (o.Tuner.evaluation.Tuner.actual_error <= threshold);
  Alcotest.(check bool) "contributions ascending" true
    (let rec asc = function
       | (_, a) :: ((_, b) :: _ as rest) -> a <= b && asc rest
       | _ -> true
     in
     asc o.Tuner.contributions)

let test_tune_margin () =
  let prog = Parser.parse_program loopy_src in
  let args = [ Interp.Aflt 1.3; Interp.Aint 50 ] in
  let strict =
    Tuner.tune ~margin:1e9 ~prog ~func:"acc" ~args ~threshold:1e-6 ()
  in
  Alcotest.(check (list string)) "huge margin demotes nothing" []
    strict.Tuner.demoted

let test_tuner_args_not_mutated () =
  let a = [| 1.; 2. |] in
  let src =
    {|func f(a: f64[]): f64 { a[0] = a[0] * 2.0; return a[0] + a[1]; }|}
  in
  let prog = Parser.parse_program src in
  ignore (Tuner.evaluate ~prog ~func:"f" ~args:[ Interp.Afarr a ] Config.double);
  Alcotest.(check bool) "caller arrays untouched" true (a = [| 1.; 2. |])

(* ------------------------------------------------------------------ *)
(* Signed (CENA-style) accumulation                                   *)

(* In [`Signed] mode with the ADAPT model, each variable's signed term
   is a first-order *prediction* of f(that variable demoted) - f(double)
   with the opposite sign — exact as long as the demoted variable's
   stored values are computed from unperturbed operands (non-recurrent
   variables). Accumulators that feed back into themselves diverge from
   the reference trajectory after the first rounding and are only
   order-of-magnitude predictions (the caveat CENA addresses by
   instrumenting the perturbed execution itself). *)
let test_signed_estimate_predicts_mixed_error () =
  let check_var prog func args v =
    let est =
      E.estimate_error ~model:(Model.adapt ())
        ~options:{ E.default_options with E.accumulation = `Signed }
        ~prog ~func ()
    in
    let r = E.run est args in
    let signed_v =
      Option.value ~default:0. (List.assoc_opt v r.E.per_variable)
    in
    let reference = Interp.run_float ~prog ~func args in
    let mixed =
      Interp.run_float
        ~config:(Config.demote Config.double v Fp.F32)
        ~mode:Config.Extended ~prog ~func args
    in
    let actual = mixed -. reference in
    Alcotest.(check bool)
      (Printf.sprintf "%s: demoting %s predicted" func v)
      true
      (Float.abs (actual +. signed_v) < 1e-3 *. Float.abs actual
      || Float.abs actual < 1e-15)
  in
  let prog = Parser.parse_program loopy_src in
  let args = [ Interp.Aflt 1.37; Interp.Aint 40 ] in
  List.iter (check_var prog "acc" args) [ "x"; "t" ];
  let poly_src =
    {|func poly(x: f64, y: f64): f64 {
        var a: f64 = x * y + 0.1;
        var b: f64 = a * a - y;
        var c: f64 = b / (a + 2.0);
        return c * c + a;
      }|}
  in
  let poly = Parser.parse_program poly_src in
  let pargs = [ Interp.Aflt 0.7; Interp.Aflt 1.3 ] in
  List.iter (check_var poly "poly" pargs) [ "x"; "y"; "a"; "b"; "c" ];
  (* For a recurrent accumulator the prediction is order-of-magnitude. *)
  let est =
    E.estimate_error ~model:(Model.adapt ())
      ~options:{ E.default_options with E.accumulation = `Signed }
      ~prog ~func:"acc" ()
  in
  let r = E.run est args in
  let signed_s = List.assoc "s" r.E.per_variable in
  let reference = Interp.run_float ~prog ~func:"acc" args in
  let mixed =
    Interp.run_float
      ~config:(Config.demote Config.double "s" Fp.F32)
      ~mode:Config.Extended ~prog ~func:"acc" args
  in
  let actual = mixed -. reference in
  Alcotest.(check bool) "accumulator: same order of magnitude" true
    (Float.abs signed_s > Float.abs actual /. 30.
    && Float.abs signed_s < Float.abs actual *. 30.)

let test_signed_vs_absolute_totals () =
  let prog = Parser.parse_program loopy_src in
  let args = [ Interp.Aflt 0.9; Interp.Aint 25 ] in
  let total accumulation =
    let est =
      E.estimate_error ~model:(Model.adapt ())
        ~options:{ E.default_options with E.accumulation }
        ~prog ~func:"acc" ()
    in
    (E.run est args).E.total_error
  in
  let signed = total `Signed and absolute = total `Absolute in
  Alcotest.(check bool) "absolute bounds signed" true
    (Float.abs signed <= absolute +. 1e-18)

(* ------------------------------------------------------------------ *)
(* Ranges, overflow veto, and source rewriting                        *)

let test_ranges_tracked () =
  let prog = Parser.parse_program loopy_src in
  let est =
    E.estimate_error
      ~options:{ E.default_options with E.track_ranges = true }
      ~prog ~func:"acc" ()
  in
  let r = E.run est [ Interp.Aflt 2.0; Interp.Aint 4 ] in
  let lo_t, hi_t = List.assoc "t" r.E.ranges in
  (* t takes the values 2/1, 2/2, 2/3, 2/4 *)
  Alcotest.(check (float 1e-12)) "t max" 2.0 hi_t;
  Alcotest.(check (float 1e-12)) "t min" 0.5 lo_t;
  let lo_x, hi_x = List.assoc "x" r.E.ranges in
  Alcotest.(check bool) "input range is a point" true (lo_x = 2.0 && hi_x = 2.0)

let test_tuner_overflow_veto () =
  (* big = x * 1e37 overflows binary16 (and would overflow f32 only for
     much larger values): an f16 tuning must veto it. *)
  let src =
    {|func f(x: f64): f64 {
        var big: f64 = x * 1.0e37;
        var small: f64 = x * 0.5;
        return big / 1.0e37 + small;
      }|}
  in
  let prog = Parser.parse_program src in
  let o16 =
    Tuner.tune ~target:Fp.F16 ~prog ~func:"f" ~args:[ Interp.Aflt 1.0 ]
      ~threshold:1e-1 ()
  in
  Alcotest.(check bool) "big vetoed for f16" true
    (List.mem "big" o16.Tuner.vetoed);
  Alcotest.(check bool) "big not demoted" false
    (List.mem "big" o16.Tuner.demoted);
  let o32 =
    Tuner.tune ~target:Fp.F32 ~prog ~func:"f" ~args:[ Interp.Aflt 1.0 ]
      ~threshold:1e-1 ()
  in
  Alcotest.(check bool) "f32 does not veto 1e37" false
    (List.mem "big" o32.Tuner.vetoed)

let test_rewrite_matches_config () =
  (* Executing the rewritten source under plain double equals executing
     the original under the configuration, bit for bit. *)
  let prog = Parser.parse_program loopy_src in
  let config = Config.demote_all Config.double [ "t"; "s" ] Fp.F32 in
  let f = Ast.func_exn prog "acc" in
  let rewritten = Cheffp_core.Rewrite.apply_config config f in
  let prog' = { Ast.funcs = [ rewritten ] } in
  Typecheck.check_program prog';
  let args = [ Interp.Aflt 1.7; Interp.Aint 9 ] in
  Alcotest.(check (float 0.)) "bit-identical"
    (Interp.run_float ~config ~prog ~func:"acc" args)
    (Interp.run_float ~prog:prog' ~func:"acc" args)

let test_rewrite_of_outcome () =
  let prog = Parser.parse_program loopy_src in
  let args = [ Interp.Aflt 1.3; Interp.Aint 30 ] in
  let o = Tuner.tune ~prog ~func:"acc" ~args ~threshold:1e-5 () in
  let mixed = Cheffp_core.Rewrite.of_outcome prog ~func:"acc" o in
  Alcotest.(check string) "renamed" "acc_mixed" mixed.Ast.fname;
  let prog' = Ast.add_func prog mixed in
  Typecheck.check_program prog';
  Alcotest.(check (float 0.)) "rewritten = configured"
    o.Tuner.evaluation.Tuner.actual_error
    (Float.abs
       (Interp.run_float ~prog:prog' ~func:"acc_mixed" args
       -. Interp.run_float ~prog ~func:"acc" args));
  (* the rewritten source mentions f32 iff something was demoted *)
  let text = Pp.func_to_string mixed in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "declares f32" (o.Tuner.demoted <> [])
    (contains text ": f32")

(* ------------------------------------------------------------------ *)
(* Search baseline                                                    *)

let test_search_meets_threshold () =
  let prog = Parser.parse_program loopy_src in
  let args = [ Interp.Aflt 1.3; Interp.Aint 50 ] in
  let threshold = 1e-6 in
  let o = Cheffp_core.Search.tune ~prog ~func:"acc" ~args ~threshold () in
  Alcotest.(check bool) "threshold met" true
    (o.Cheffp_core.Search.evaluation.Tuner.actual_error <= threshold);
  Alcotest.(check bool) "counts executions" true
    (o.Cheffp_core.Search.executions >= 2)

let test_search_more_expensive_than_ad () =
  let prog = Parser.parse_program loopy_src in
  let args = [ Interp.Aflt 1.3; Interp.Aint 50 ] in
  let threshold = 1e-7 in
  let o = Cheffp_core.Search.tune ~prog ~func:"acc" ~args ~threshold () in
  (* AD-based tuning: one analysis + validation. The search needs the
     reference, the all-demoted probe, per-variable probes, and greedy
     validation runs: strictly more program executions. *)
  Alcotest.(check bool) "search runs the program many times" true
    (o.Cheffp_core.Search.executions > 3)

let test_parallel_determinism () =
  (* jobs must never change outcomes: demoted sets, evaluations and
     execution counts are bit-identical whether candidates are
     evaluated sequentially or across 4 domains (the workload forces
     the probing + greedy-growth path, the one that parallelizes). *)
  let module B = Cheffp_benchmarks in
  let prog = B.Arclength.program
  and func = B.Arclength.func_name
  and args = B.Arclength.args ~n:2_000
  and threshold = 1e-6 in
  let s1 = Cheffp_core.Search.tune ~jobs:1 ~prog ~func ~args ~threshold () in
  let s4 = Cheffp_core.Search.tune ~jobs:4 ~prog ~func ~args ~threshold () in
  Alcotest.(check (list string))
    "search demoted identical" s1.Cheffp_core.Search.demoted
    s4.Cheffp_core.Search.demoted;
  Alcotest.(check int)
    "search executions identical" s1.Cheffp_core.Search.executions
    s4.Cheffp_core.Search.executions;
  Alcotest.(check bool) "search probed (not the trivial path)" true
    (s1.Cheffp_core.Search.executions > 4);
  Alcotest.(check (float 0.))
    "search actual_error identical"
    s1.Cheffp_core.Search.evaluation.Tuner.actual_error
    s4.Cheffp_core.Search.evaluation.Tuner.actual_error;
  Alcotest.(check (float 0.))
    "search modelled_speedup identical"
    s1.Cheffp_core.Search.evaluation.Tuner.modelled_speedup
    s4.Cheffp_core.Search.evaluation.Tuner.modelled_speedup;
  Alcotest.(check int)
    "search casts identical" s1.Cheffp_core.Search.evaluation.Tuner.casts
    s4.Cheffp_core.Search.evaluation.Tuner.casts;
  let t1 = Tuner.tune ~jobs:1 ~prog ~func ~args ~threshold () in
  let t4 = Tuner.tune ~jobs:4 ~prog ~func ~args ~threshold () in
  Alcotest.(check (list string))
    "tuner demoted identical" t1.Tuner.demoted t4.Tuner.demoted;
  Alcotest.(check (float 0.))
    "tuner actual_error identical" t1.Tuner.evaluation.Tuner.actual_error
    t4.Tuner.evaluation.Tuner.actual_error;
  Alcotest.(check (float 0.))
    "tuner modelled_speedup identical"
    t1.Tuner.evaluation.Tuner.modelled_speedup
    t4.Tuner.evaluation.Tuner.modelled_speedup

let test_search_agrees_with_tuner () =
  let prog = Parser.parse_program loopy_src in
  let args = [ Interp.Aflt 1.3; Interp.Aint 50 ] in
  let threshold = 1e-5 in
  let s = Cheffp_core.Search.tune ~prog ~func:"acc" ~args ~threshold () in
  let t = Tuner.tune ~prog ~func:"acc" ~args ~threshold () in
  (* Both must produce valid configurations; the AD-guided one should
     demote at least as much as it can justify. *)
  Alcotest.(check bool) "both valid" true
    (s.Cheffp_core.Search.evaluation.Tuner.actual_error <= threshold
    && t.Tuner.evaluation.Tuner.actual_error <= threshold)

(* ------------------------------------------------------------------ *)
(* Sensitivity                                                        *)

let records =
  [ ("a", [ (0, 4.); (1, 2.); (2, 0.) ]); ("b", [ (1, 1.); (3, 0.5) ]) ]

let test_sensitivity_normalized () =
  let n, series = Sensitivity.normalized records in
  Alcotest.(check int) "span" 4 n;
  let a = List.assoc "a" series in
  Alcotest.(check (float 0.)) "max scaled to 1" 1. a.(0);
  Alcotest.(check (float 0.)) "half" 0.5 a.(1);
  let b = List.assoc "b" series in
  Alcotest.(check (float 0.)) "global normalization" 0.25 b.(1);
  Alcotest.(check (float 0.)) "missing iterations are zero" 0. b.(0)

let test_sensitivity_below_threshold () =
  let _, series = Sensitivity.normalized records in
  Alcotest.(check int) "first all-below point" 2
    (Sensitivity.below_threshold_after series ~threshold:0.3);
  Alcotest.(check int) "never satisfied" 4
    (Sensitivity.below_threshold_after series ~threshold:1e-9)

let test_sensitivity_split_cutoff () =
  let c =
    Sensitivity.split_cutoff ~records ~vars:[ "a"; "b" ] ~eps:1.
      ~budget:0.6 ~max_iter:4
  in
  (* tail sums: from 1: 2+1+0.5=3.5; from 2: 0.5; 0.5 <= 0.6 -> 2 *)
  Alcotest.(check int) "cutoff" 2 c;
  Alcotest.(check int) "case-insensitive names" 2
    (Sensitivity.split_cutoff ~records ~vars:[ "A"; "B" ] ~eps:1. ~budget:0.6
       ~max_iter:4);
  Alcotest.(check int) "impossible budget hits max" 4
    (Sensitivity.split_cutoff ~records ~vars:[ "a"; "b" ] ~eps:1.
       ~budget:(-1.) ~max_iter:4)

let test_sensitivity_heatmap () =
  let _, series = Sensitivity.normalized records in
  let s = Sensitivity.heatmap ~cols:4 series in
  Alcotest.(check bool) "rows rendered" true
    (List.length (String.split_on_char '\n' s) >= 3);
  Alcotest.(check string) "empty input" "(empty sensitivity profile)\n"
    (Sensitivity.heatmap [])

let () =
  Alcotest.run "core"
    [
      ( "models",
        [
          Alcotest.test_case "adapt closed form" `Quick test_adapt_model_closed_form;
          Alcotest.test_case "taylor closed form" `Quick
            test_taylor_model_closed_form;
          Alcotest.test_case "f16 larger than f32" `Quick test_taylor_f16_larger;
          Alcotest.test_case "zero model" `Quick test_zero_model;
          Alcotest.test_case "adapt f64 rejected" `Quick test_adapt_f64_rejected;
          Alcotest.test_case "external model" `Quick test_external_model_names;
          Alcotest.test_case "approx unmapped zero" `Quick
            test_approx_model_unmapped_zero;
        ] );
      ( "estimate",
        [
          Alcotest.test_case "compiled = interpreted" `Quick
            test_compiled_equals_interpreted;
          Alcotest.test_case "attribution sums to total" `Quick
            test_per_variable_sums_to_total;
          Alcotest.test_case "return copy skipped" `Quick
            test_return_copy_not_double_counted;
          Alcotest.test_case "expression return charged" `Quick
            test_expression_return_charged;
          Alcotest.test_case "options keep totals" `Quick
            test_options_variants_same_total;
          Alcotest.test_case "iteration tracking" `Quick
            test_track_iterations_records;
          Alcotest.test_case "gradients" `Quick test_gradients_reported;
          Alcotest.test_case "array gradients" `Quick
            test_array_gradients_reported;
          Alcotest.test_case "memory accounting" `Quick
            test_memory_accounting_positive;
          Alcotest.test_case "generated exposed" `Quick
            test_generated_function_exposed;
          Alcotest.test_case "shared table, independent runs" `Quick
            test_shared_table_estimates_independent;
        ] );
      ( "tuner",
        [
          Alcotest.test_case "float variables" `Quick test_float_variables;
          Alcotest.test_case "double config" `Quick test_evaluate_double_config;
          Alcotest.test_case "demoted config" `Quick test_evaluate_demoted_config;
          Alcotest.test_case "budget respected" `Quick test_tune_respects_budget;
          Alcotest.test_case "margin" `Quick test_tune_margin;
          Alcotest.test_case "args not mutated" `Quick test_tuner_args_not_mutated;
        ] );
      ( "signed-accumulation",
        [
          Alcotest.test_case "predicts mixed error (CENA)" `Quick
            test_signed_estimate_predicts_mixed_error;
          Alcotest.test_case "absolute bounds signed" `Quick
            test_signed_vs_absolute_totals;
        ] );
      ( "ranges+rewrite",
        [
          Alcotest.test_case "ranges tracked" `Quick test_ranges_tracked;
          Alcotest.test_case "overflow veto" `Quick test_tuner_overflow_veto;
          Alcotest.test_case "rewrite = config" `Quick
            test_rewrite_matches_config;
          Alcotest.test_case "rewrite of outcome" `Quick
            test_rewrite_of_outcome;
        ] );
      ( "report",
        [
          Alcotest.test_case "renders estimate" `Quick (fun () ->
              let prog = Parser.parse_program loopy_src in
              let est =
                E.estimate_error
                  ~options:{ E.default_options with E.track_ranges = true }
                  ~prog ~func:"acc" ()
              in
              let r = E.run est [ Interp.Aflt 1.1; Interp.Aint 5 ] in
              let s = Cheffp_core.Report.estimate r in
              Alcotest.(check bool) "mentions total" true
                (String.length s > 50);
              Alcotest.(check bool) "mentions ranges" true
                (let rec contains i =
                   i + 6 <= String.length s
                   && (String.sub s i 6 = "ranges" || contains (i + 1))
                 in
                 contains 0));
          Alcotest.test_case "renders tuning" `Quick (fun () ->
              let prog = Parser.parse_program loopy_src in
              let o =
                Tuner.tune ~prog ~func:"acc"
                  ~args:[ Interp.Aflt 1.1; Interp.Aint 10 ]
                  ~threshold:1e-5 ()
              in
              Alcotest.(check bool) "nonempty" true
                (String.length (Cheffp_core.Report.tuning o) > 50));
          Alcotest.test_case "renders search" `Quick (fun () ->
              let prog = Parser.parse_program loopy_src in
              let o =
                Cheffp_core.Search.tune ~prog ~func:"acc"
                  ~args:[ Interp.Aflt 1.1; Interp.Aint 10 ]
                  ~threshold:1e-5 ()
              in
              Alcotest.(check bool) "nonempty" true
                (String.length (Cheffp_core.Report.search o) > 30));
        ] );
      ( "search-baseline",
        [
          Alcotest.test_case "meets threshold" `Quick test_search_meets_threshold;
          Alcotest.test_case "costs many executions" `Quick
            test_search_more_expensive_than_ad;
          Alcotest.test_case "agrees with tuner" `Quick
            test_search_agrees_with_tuner;
          Alcotest.test_case "parallel determinism" `Quick
            test_parallel_determinism;
        ] );
      ( "sensitivity",
        [
          Alcotest.test_case "normalized" `Quick test_sensitivity_normalized;
          Alcotest.test_case "below threshold" `Quick
            test_sensitivity_below_threshold;
          Alcotest.test_case "split cutoff" `Quick test_sensitivity_split_cutoff;
          Alcotest.test_case "heatmap" `Quick test_sensitivity_heatmap;
        ] );
    ]
