open Cheffp_precision

let check_float = Alcotest.(check (float 0.))

(* ------------------------------------------------------------------ *)
(* Fp formats and rounding                                            *)

let test_format_metadata () =
  Alcotest.(check int) "f16 bits" 16 (Fp.bits Fp.F16);
  Alcotest.(check int) "f32 bits" 32 (Fp.bits Fp.F32);
  Alcotest.(check int) "f64 bits" 64 (Fp.bits Fp.F64);
  Alcotest.(check int) "f32 bytes" 4 (Fp.bytes Fp.F32);
  Alcotest.(check int) "f16 mantissa" 10 (Fp.mantissa_bits Fp.F16);
  Alcotest.(check int) "f32 mantissa" 23 (Fp.mantissa_bits Fp.F32);
  Alcotest.(check int) "f64 mantissa" 52 (Fp.mantissa_bits Fp.F64)

let test_format_strings () =
  List.iter
    (fun fmt ->
      Alcotest.(check bool) "string roundtrip" true
        (Fp.format_of_string (Fp.format_to_string fmt) = Some fmt))
    [ Fp.F16; Fp.F32; Fp.F64 ];
  Alcotest.(check bool) "aliases" true
    (Fp.format_of_string "double" = Some Fp.F64
    && Fp.format_of_string "single" = Some Fp.F32
    && Fp.format_of_string "half" = Some Fp.F16
    && Fp.format_of_string "nope" = None)

let test_epsilon_values () =
  check_float "f64 eps" epsilon_float (Fp.epsilon Fp.F64);
  check_float "f32 eps" (Float.ldexp 1. (-23)) (Fp.epsilon Fp.F32);
  check_float "f16 eps" (Float.ldexp 1. (-10)) (Fp.epsilon Fp.F16);
  check_float "unit roundoff is half eps" (Fp.epsilon Fp.F32 /. 2.)
    (Fp.unit_roundoff Fp.F32)

let test_round_f64_identity () =
  List.iter
    (fun x -> check_float "identity" x (Fp.round Fp.F64 x))
    [ 0.; 1.; -1.; 0.1; 1e300; -1e-300; Float.infinity ]

let test_round_f32_known_values () =
  (* 0.1 in binary32 is 13421773 * 2^-27. *)
  check_float "0.1f" (13421773. *. Float.ldexp 1. (-27)) (Fp.round Fp.F32 0.1);
  check_float "exact small int" 123. (Fp.round Fp.F32 123.);
  check_float "2^-149 subnormal survives" (Float.ldexp 1. (-149))
    (Fp.round Fp.F32 (Float.ldexp 1. (-149)));
  Alcotest.(check bool) "overflow to inf" true
    (Fp.round Fp.F32 1e300 = Float.infinity);
  Alcotest.(check bool) "negative overflow" true
    (Fp.round Fp.F32 (-1e300) = Float.neg_infinity)

let test_round_f16_known_values () =
  check_float "1.0" 1.0 (Fp.round Fp.F16 1.0);
  check_float "exact half quantum" 1.5 (Fp.round Fp.F16 1.5);
  check_float "65504 max finite" 65504. (Fp.round Fp.F16 65504.);
  Alcotest.(check bool) "65520 ties to inf" true
    (Fp.round Fp.F16 65520. = Float.infinity);
  check_float "65519.9 stays finite" 65504. (Fp.round Fp.F16 65519.9);
  Alcotest.(check bool) "1e6 overflows" true
    (Fp.round Fp.F16 1e6 = Float.infinity);
  (* Smallest f16 subnormal is 2^-24; half of it rounds to zero (RNE tie
     to even = 0), anything above half rounds up. *)
  check_float "tiny to zero" 0. (Fp.round Fp.F16 (Float.ldexp 1. (-26)));
  check_float "subnormal min" (Float.ldexp 1. (-24))
    (Fp.round Fp.F16 (Float.ldexp 1.2 (-24)));
  (* RNE: 1 + 2^-11 is exactly halfway between 1 and 1+2^-10: ties to even = 1 *)
  check_float "ties to even down" 1.0 (Fp.round Fp.F16 (1. +. Float.ldexp 1. (-11)));
  (* 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9: even is 1+2^-9 *)
  check_float "ties to even up"
    (1. +. Float.ldexp 1. (-9))
    (Fp.round Fp.F16 (1. +. (3. *. Float.ldexp 1. (-11))))

let test_round_preserves_specials () =
  List.iter
    (fun fmt ->
      Alcotest.(check bool) "nan" true (Float.is_nan (Fp.round fmt Float.nan));
      Alcotest.(check bool) "+inf" true (Fp.round fmt Float.infinity = Float.infinity);
      Alcotest.(check bool) "-inf" true
        (Fp.round fmt Float.neg_infinity = Float.neg_infinity);
      Alcotest.(check bool) "signed zero" true
        (1. /. Fp.round fmt (-0.) = Float.neg_infinity))
    [ Fp.F16; Fp.F32 ]

let test_representable () =
  Alcotest.(check bool) "1.0 representable" true (Fp.representable Fp.F16 1.0);
  Alcotest.(check bool) "0.1 not f32" false (Fp.representable Fp.F32 0.1);
  Alcotest.(check bool) "0.1 not f16" false (Fp.representable Fp.F16 0.1);
  Alcotest.(check bool) "nan representable" true (Fp.representable Fp.F32 Float.nan)

let test_representation_error () =
  check_float "exact" 0. (Fp.representation_error Fp.F32 0.5);
  Alcotest.(check bool) "0.1 error sign and size" true
    (let e = Fp.representation_error Fp.F32 0.1 in
     Float.abs e > 0. && Float.abs e < Fp.epsilon Fp.F32 *. 0.1)

let test_max_finite () =
  check_float "f16 max" 65504. (Fp.max_finite Fp.F16);
  Alcotest.(check bool) "f32 max finite is representable" true
    (Fp.representable Fp.F32 (Fp.max_finite Fp.F32)
    && Fp.max_finite Fp.F32 < Float.infinity
    && Fp.max_finite Fp.F32 > 3.4e38);
  check_float "f64 max" Float.max_float (Fp.max_finite Fp.F64);
  Alcotest.(check bool) "rounding above max overflows" true
    (Fp.round Fp.F32 (Fp.max_finite Fp.F32 *. 1.001) = Float.infinity
     || Fp.round Fp.F32 (Fp.max_finite Fp.F32 *. 1.001) = Fp.max_finite Fp.F32)

let test_ulp () =
  check_float "f32 ulp at 1" (Float.ldexp 1. (-23)) (Fp.ulp Fp.F32 1.0);
  check_float "f32 ulp at 2" (Float.ldexp 1. (-22)) (Fp.ulp Fp.F32 2.0);
  check_float "f16 ulp at 1" (Float.ldexp 1. (-10)) (Fp.ulp Fp.F16 1.0)

let f32_matches_int32 =
  QCheck.Test.make ~count:1000 ~name:"round F32 = Int32 bits roundtrip"
    QCheck.(float_range (-1e30) 1e30)
    (fun x ->
      let ours = Fp.round Fp.F32 x in
      let native = Int32.float_of_bits (Int32.bits_of_float x) in
      ours = native || (Float.is_nan ours && Float.is_nan native))

let round_idempotent fmt name =
  QCheck.Test.make ~count:1000 ~name
    QCheck.(float_range (-1e5) 1e5)
    (fun x ->
      let r = Fp.round fmt x in
      Fp.round fmt r = r)

let round_error_bounded =
  QCheck.Test.make ~count:1000 ~name:"f16 rounding error within half ulp"
    QCheck.(float_range 1e-3 6e4)
    (fun x ->
      let r = Fp.round Fp.F16 x in
      r = Float.infinity || Float.abs (x -. r) <= Fp.ulp Fp.F16 x /. 2. +. 1e-18)

let round_monotone fmt name =
  QCheck.Test.make ~count:1000 ~name
    QCheck.(pair (float_range (-1e4) 1e4) (float_range (-1e4) 1e4))
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      Fp.round fmt lo <= Fp.round fmt hi)

let f16_nearest =
  QCheck.Test.make ~count:500 ~name:"f16 result is nearest representable"
    QCheck.(float_range 1e-2 1e4)
    (fun x ->
      let r = Fp.round Fp.F16 x in
      (* No representable value can be strictly closer: check the two
         neighbours one ulp away. *)
      let u = Fp.ulp Fp.F16 r in
      Float.abs (x -. r) <= Float.abs (x -. (r +. u)) +. 1e-18
      && Float.abs (x -. r) <= Float.abs (x -. (r -. u)) +. 1e-18)

(* ------------------------------------------------------------------ *)
(* Config                                                             *)

let test_config_basics () =
  let c = Config.double in
  Alcotest.(check bool) "double default" true (Config.is_uniform_double c);
  Alcotest.(check bool) "format_of default" true
    (Fp.equal_format (Config.format_of c "x") Fp.F64);
  let c = Config.demote c "x" Fp.F32 in
  Alcotest.(check bool) "override" true
    (Fp.equal_format (Config.format_of c "x") Fp.F32);
  Alcotest.(check bool) "has_override" true (Config.has_override c "x");
  Alcotest.(check bool) "no override" false (Config.has_override c "y");
  Alcotest.(check bool) "not uniform double" false (Config.is_uniform_double c)

let test_config_demote_all () =
  let c = Config.demote_all Config.double [ "a"; "b" ] Fp.F16 in
  Alcotest.(check int) "two demoted" 2 (List.length (Config.demoted c));
  Alcotest.(check bool) "sorted bindings" true
    (List.map fst (Config.demoted c) = [ "a"; "b" ])

let test_config_redemote () =
  let c = Config.demote (Config.demote Config.double "x" Fp.F16) "x" Fp.F32 in
  Alcotest.(check bool) "latest wins" true
    (Fp.equal_format (Config.format_of c "x") Fp.F32)

let test_config_uniform () =
  let c = Config.uniform Fp.F32 in
  Alcotest.(check bool) "default f32" true
    (Fp.equal_format (Config.default_format c) Fp.F32);
  Alcotest.(check bool) "applies to any var" true
    (Fp.equal_format (Config.format_of c "anything") Fp.F32)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_config_to_string () =
  let c = Config.demote Config.double "x" Fp.F32 in
  let s = Config.to_string c in
  Alcotest.(check bool) "mentions x:f32" true (contains s "x:f32")

(* ------------------------------------------------------------------ *)
(* Cost                                                               *)

let test_cost_format_scaling () =
  let m = Cost.default in
  check_float "f64 basic" 1.0 (Cost.op m Fp.F64 Cost.Basic);
  check_float "f32 half" 0.5 (Cost.op m Fp.F32 Cost.Basic);
  check_float "f16 quarter" 0.25 (Cost.op m Fp.F16 Cost.Basic);
  Alcotest.(check bool) "division dearer" true
    (Cost.op m Fp.F64 Cost.Division > Cost.op m Fp.F64 Cost.Basic);
  Alcotest.(check bool) "transcendental dearest" true
    (Cost.op m Fp.F64 Cost.Transcendental > Cost.op m Fp.F64 Cost.Square_root
    || Cost.op m Fp.F64 Cost.Transcendental > Cost.op m Fp.F64 Cost.Division)

let test_cost_approx_discount () =
  let m = Cost.default in
  Alcotest.(check bool) "approx cheaper" true
    (Cost.approx m Cost.Transcendental < Cost.op m Fp.F64 Cost.Transcendental)

let test_cost_custom () =
  let m = Cost.make ~basic:2. ~cast:1. ~narrow_factor:0.1 () in
  check_float "custom basic" 2. (Cost.op m Fp.F64 Cost.Basic);
  check_float "custom narrow" 0.2 (Cost.op m Fp.F32 Cost.Basic);
  check_float "custom cast" 1. (Cost.cast m)

let test_cost_counter () =
  let c = Cost.Counter.create Cost.default in
  Cost.Counter.charge_op c Fp.F64 Cost.Basic;
  Cost.Counter.charge_op c Fp.F32 Cost.Basic;
  Cost.Counter.charge_cast c;
  Cost.Counter.charge_approx c Cost.Transcendental;
  check_float "total" (1.0 +. 0.5 +. 0.25 +. 2.5) (Cost.Counter.total c);
  Alcotest.(check int) "ops" 3 (Cost.Counter.ops c);
  Alcotest.(check int) "casts" 1 (Cost.Counter.casts c)

let test_cost_op_class () =
  Alcotest.(check bool) "sqrt" true
    (Cost.op_class_of_intrinsic "sqrt" = Cost.Square_root);
  Alcotest.(check bool) "fabs basic" true
    (Cost.op_class_of_intrinsic "fabs" = Cost.Basic);
  Alcotest.(check bool) "unknown transcendental" true
    (Cost.op_class_of_intrinsic "bessel_j0" = Cost.Transcendental)

let () =
  Alcotest.run "precision"
    [
      ( "fp",
        [
          Alcotest.test_case "format metadata" `Quick test_format_metadata;
          Alcotest.test_case "format strings" `Quick test_format_strings;
          Alcotest.test_case "epsilon values" `Quick test_epsilon_values;
          Alcotest.test_case "f64 identity" `Quick test_round_f64_identity;
          Alcotest.test_case "f32 known values" `Quick test_round_f32_known_values;
          Alcotest.test_case "f16 known values" `Quick test_round_f16_known_values;
          Alcotest.test_case "specials" `Quick test_round_preserves_specials;
          Alcotest.test_case "representable" `Quick test_representable;
          Alcotest.test_case "representation error" `Quick
            test_representation_error;
          Alcotest.test_case "ulp" `Quick test_ulp;
          Alcotest.test_case "max finite" `Quick test_max_finite;
          QCheck_alcotest.to_alcotest f32_matches_int32;
          QCheck_alcotest.to_alcotest (round_idempotent Fp.F32 "f32 idempotent");
          QCheck_alcotest.to_alcotest (round_idempotent Fp.F16 "f16 idempotent");
          QCheck_alcotest.to_alcotest round_error_bounded;
          QCheck_alcotest.to_alcotest (round_monotone Fp.F32 "f32 monotone");
          QCheck_alcotest.to_alcotest (round_monotone Fp.F16 "f16 monotone");
          QCheck_alcotest.to_alcotest f16_nearest;
        ] );
      ( "config",
        [
          Alcotest.test_case "basics" `Quick test_config_basics;
          Alcotest.test_case "demote_all" `Quick test_config_demote_all;
          Alcotest.test_case "redemote" `Quick test_config_redemote;
          Alcotest.test_case "uniform" `Quick test_config_uniform;
          Alcotest.test_case "to_string" `Quick test_config_to_string;
        ] );
      ( "cost",
        [
          Alcotest.test_case "format scaling" `Quick test_cost_format_scaling;
          Alcotest.test_case "approx discount" `Quick test_cost_approx_discount;
          Alcotest.test_case "custom model" `Quick test_cost_custom;
          Alcotest.test_case "counter" `Quick test_cost_counter;
          Alcotest.test_case "op classes" `Quick test_cost_op_class;
        ] );
    ]
