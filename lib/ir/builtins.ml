module Cost = Cheffp_precision.Cost
module Fp = Cheffp_precision.Fp

type kind = Kint | Kflt

let kind_of_scalar = function Ast.Sint -> Kint | Ast.Sflt _ -> Kflt
let kind_name = function Kint -> "int" | Kflt -> "float"

type signature = {
  args : kind list;
  ret : kind;
  cls : Cost.op_class;
  approx : bool;
}

type value = I of int | F of float

type impl = value array -> value

type iv = float * float

type prim =
  | Sin
  | Cos
  | Tan
  | Exp
  | Log
  | Log10
  | Sqrt
  | Tanh
  | Atan
  | Fabs
  | Floor
  | Ceil
  | Castf32
  | Pow
  | Fma
  | Select
  | Itof
  | Ftoi
  | Record_total
  | Record_range
  | Record_iter

type t = {
  entries : (string, signature * impl) Hashtbl.t;
  prims : (string, prim) Hashtbl.t;
  fast1s : (string, float -> float) Hashtbl.t;
  fast2s : (string, float -> float -> float) Hashtbl.t;
  interval1s : (string, iv -> iv) Hashtbl.t;
  interval2s : (string, iv -> iv -> iv) Hashtbl.t;
}

let empty () : t =
  {
    entries = Hashtbl.create 64;
    prims = Hashtbl.create 32;
    fast1s = Hashtbl.create 32;
    fast2s = Hashtbl.create 8;
    interval1s = Hashtbl.create 32;
    interval2s = Hashtbl.create 8;
  }

(* Re-registering an intrinsic clears its interval hook: a replacement
   implementation (e.g. a FastApprox polynomial over the libm default)
   makes the old enclosure unsound, and a missing hook degrades range
   analysis to an `Unbounded` verdict instead of a wrong number. It
   clears the primitive tag for the same reason: compiled code would
   otherwise keep running the default. A given [prim] overwrites the
   tag in place, never removing it first: a table shared across
   domains (the serve daemon's) is re-registered by every estimate
   build, and a concurrent compile must not see the tag missing. *)
let register ?prim t name signature impl =
  (match prim with
  | Some p -> Hashtbl.replace t.prims name p
  | None -> Hashtbl.remove t.prims name);
  Hashtbl.remove t.fast1s name;
  Hashtbl.remove t.fast2s name;
  Hashtbl.remove t.interval1s name;
  Hashtbl.remove t.interval2s name;
  Hashtbl.replace t.entries name (signature, impl)

let find t name = Hashtbl.find_opt t.entries name
let prim t name = Hashtbl.find_opt t.prims name
let mem t name = Hashtbl.mem t.entries name
let fast1 t name = Hashtbl.find_opt t.fast1s name
let fast2 t name = Hashtbl.find_opt t.fast2s name
let interval1 t name = Hashtbl.find_opt t.interval1s name
let interval2 t name = Hashtbl.find_opt t.interval2s name

let register_interval1 t name f = Hashtbl.replace t.interval1s name f
let register_interval2 t name f = Hashtbl.replace t.interval2s name f

let signature t name =
  match find t name with Some (s, _) -> Some s | None -> None

let names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.entries []
  |> List.sort compare

let as_float = function
  | F x -> x
  | I _ -> invalid_arg "Builtins: expected a float value"

let as_int = function
  | I n -> n
  | F _ -> invalid_arg "Builtins: expected an integer value"

let register_float1 ?prim t name ?(cls = Cost.Transcendental)
    ?(approx = false) f =
  register ?prim t name
    { args = [ Kflt ]; ret = Kflt; cls; approx }
    (fun a -> F (f (as_float a.(0))));
  Hashtbl.replace t.fast1s name f

let float2 ?prim t name ?(cls = Cost.Transcendental) ?(approx = false) f =
  register ?prim t name
    { args = [ Kflt; Kflt ]; ret = Kflt; cls; approx }
    (fun a -> F (f (as_float a.(0)) (as_float a.(1))));
  Hashtbl.replace t.fast2s name f

let sign x = if x > 0. then 1. else if x < 0. then -1. else 0.

(* ------------------------------------------------------------------ *)
(* Interval enclosures for the default intrinsics (consumed by the
   range analysis in lib/range). A hook receives [lo, hi] with
   [lo <= hi] enclosing an argument and must return an interval
   enclosing every binary64 value the registered implementation can
   produce on it. Endpoint evaluations are widened outward by a few
   ulps: glibc's worst cases for these entry points are under 2 ulps,
   so a 4-ulp slop (8 for [pow], which composes two calls) covers the
   libm-vs-math gap; everything else relies only on mathematical
   monotonicity or exact extremal values. Hooks signal "no finite
   enclosure" with an infinite endpoint; the analysis turns that into
   an [Unbounded] verdict rather than a number. *)

let rec succ_n n x = if n = 0 then x else succ_n (n - 1) (Float.succ x)
let rec pred_n n x = if n = 0 then x else pred_n (n - 1) (Float.pred x)
let out n (lo, hi) = (pred_n n lo, succ_n n hi)
let mono1 f (lo, hi) = out 4 (f lo, f hi)

(* Trig: below this width an interval cannot wrap a full period, so the
   extrema inside it are exactly the critical points we enumerate. *)
let trig_whole (lo, hi) = hi -. lo >= 6.2 || Float.abs lo > 1e15 || Float.abs hi > 1e15

(* Extrema of sin at pi/2 + k*pi (value +1 for even k), of cos at k*pi
   (value +1 for even k). Critical points are located with a relative
   slop much larger than the error of computing them in binary64, so a
   point actually inside the interval is never missed — extra inclusions
   only widen the result. *)
let sin_iv (lo, hi) =
  if trig_whole (lo, hi) then (-1., 1.)
  else begin
    let vlo = sin lo and vhi = sin hi in
    let mn = ref (Float.min vlo vhi) and mx = ref (Float.max vlo vhi) in
    let k0 = int_of_float (Float.floor ((lo /. Float.pi) -. 0.5)) - 1
    and k1 = int_of_float (Float.ceil ((hi /. Float.pi) -. 0.5)) + 1 in
    for k = k0 to k1 do
      let c = (float_of_int k +. 0.5) *. Float.pi in
      let slop = 1e-9 *. (1. +. Float.abs c) in
      if c >= lo -. slop && c <= hi +. slop then
        if k land 1 = 0 then mx := 1. else mn := -1.
    done;
    out 4 (!mn, !mx)
  end

let cos_iv (lo, hi) =
  if trig_whole (lo, hi) then (-1., 1.)
  else begin
    let vlo = cos lo and vhi = cos hi in
    let mn = ref (Float.min vlo vhi) and mx = ref (Float.max vlo vhi) in
    let k0 = int_of_float (Float.floor (lo /. Float.pi)) - 1
    and k1 = int_of_float (Float.ceil (hi /. Float.pi)) + 1 in
    for k = k0 to k1 do
      let c = float_of_int k *. Float.pi in
      let slop = 1e-9 *. (1. +. Float.abs c) in
      if c >= lo -. slop && c <= hi +. slop then
        if k land 1 = 0 then mx := 1. else mn := -1.
    done;
    out 4 (!mn, !mx)
  end

let tan_iv (lo, hi) =
  if trig_whole (lo, hi) then (neg_infinity, infinity)
  else begin
    let k0 = int_of_float (Float.floor ((lo /. Float.pi) -. 0.5)) - 1
    and k1 = int_of_float (Float.ceil ((hi /. Float.pi) -. 0.5)) + 1 in
    let pole = ref false in
    for k = k0 to k1 do
      let c = (float_of_int k +. 0.5) *. Float.pi in
      let slop = 1e-9 *. (1. +. Float.abs c) in
      if c >= lo -. slop && c <= hi +. slop then pole := true
    done;
    if !pole then (neg_infinity, infinity) else out 4 (tan lo, tan hi)
  end

let pow_iv (alo, ahi) (blo, bhi) =
  (* x^y = exp(y ln x): over a rectangle with x > 0 the exponent
     y*ln(x) is bilinear, so its extrema sit at the corners. *)
  if not (alo > 0.) then (neg_infinity, infinity)
  else begin
    let cs = [ alo ** blo; alo ** bhi; ahi ** blo; ahi ** bhi ] in
    let mn = List.fold_left Float.min infinity cs
    and mx = List.fold_left Float.max neg_infinity cs in
    out 8 (mn, mx)
  end

let register_default_intervals t =
  register_interval1 t "sin" sin_iv;
  register_interval1 t "cos" cos_iv;
  register_interval1 t "tan" tan_iv;
  register_interval1 t "exp" (mono1 exp);
  register_interval1 t "log" (fun (lo, hi) ->
      if lo > 0. then mono1 log (lo, hi) else (neg_infinity, infinity));
  register_interval1 t "log2" (fun (lo, hi) ->
      if lo > 0. then mono1 (fun x -> log x /. log 2.) (lo, hi)
      else (neg_infinity, infinity));
  register_interval1 t "log10" (fun (lo, hi) ->
      if lo > 0. then mono1 log10 (lo, hi) else (neg_infinity, infinity));
  register_interval1 t "sqrt" (fun (lo, hi) ->
      if lo >= 0. then mono1 sqrt (lo, hi) else (neg_infinity, infinity));
  register_interval1 t "tanh" (mono1 tanh);
  register_interval1 t "atan" (mono1 atan);
  register_interval1 t "fabs" (fun (lo, hi) ->
      if lo >= 0. then (lo, hi)
      else if hi <= 0. then (-.hi, -.lo)
      else (0., Float.max (-.lo) hi));
  register_interval1 t "floor" (fun (lo, hi) -> (Float.floor lo, Float.floor hi));
  register_interval1 t "ceil" (fun (lo, hi) -> (Float.ceil lo, Float.ceil hi));
  register_interval1 t "sign" (fun (lo, hi) -> (sign lo, sign hi));
  register_interval1 t "castf32" (fun (lo, hi) ->
      (Fp.round Fp.F32 lo, Fp.round Fp.F32 hi));
  register_interval1 t "castf16" (fun (lo, hi) ->
      (Fp.round Fp.F16 lo, Fp.round Fp.F16 hi));
  register_interval2 t "pow" pow_iv;
  register_interval2 t "fmin" (fun (alo, ahi) (blo, bhi) ->
      (Float.min alo blo, Float.min ahi bhi));
  register_interval2 t "fmax" (fun (alo, ahi) (blo, bhi) ->
      (Float.max alo blo, Float.max ahi bhi))

(* The defaults tagged with a primitive are exactly a stdlib primitive,
   which the compiler then calls unboxed; the rest (log2, sign, fmin,
   fmax, castf16) stay on the closure path. *)
let create () =
  let t = empty () in
  let float1 ?prim ?cls name f = register_float1 ?prim t name ?cls f
  and float2 ?prim ?cls name f = float2 ?prim t name ?cls f in
  float1 ~prim:Sin "sin" sin;
  float1 ~prim:Cos "cos" cos;
  float1 ~prim:Tan "tan" tan;
  float1 ~prim:Exp "exp" exp;
  float1 ~prim:Log "log" log;
  float1 "log2" (fun x -> log x /. log 2.);
  float1 ~prim:Log10 "log10" log10;
  float1 ~prim:Sqrt "sqrt" ~cls:Cost.Square_root sqrt;
  float1 ~prim:Tanh "tanh" tanh;
  float1 ~prim:Atan "atan" atan;
  float1 ~prim:Fabs "fabs" ~cls:Cost.Basic Float.abs;
  float1 ~prim:Floor "floor" ~cls:Cost.Basic Float.floor;
  float1 ~prim:Ceil "ceil" ~cls:Cost.Basic Float.ceil;
  float1 "sign" ~cls:Cost.Basic sign;
  float1 ~prim:Castf32 "castf32" ~cls:Cost.Basic (Fp.round Fp.F32);
  float1 "castf16" ~cls:Cost.Basic (Fp.round Fp.F16);
  float2 ~prim:Pow "pow" ( ** );
  float2 "fmin" ~cls:Cost.Basic Float.min;
  float2 "fmax" ~cls:Cost.Basic Float.max;
  register ~prim:Fma t "fma"
    { args = [ Kflt; Kflt; Kflt ]; ret = Kflt; cls = Cost.Basic; approx = false }
    (fun a -> F (Float.fma (as_float a.(0)) (as_float a.(1)) (as_float a.(2))));
  register ~prim:Select t "select"
    { args = [ Kint; Kflt; Kflt ]; ret = Kflt; cls = Cost.Basic; approx = false }
    (fun a -> F (if as_int a.(0) <> 0 then as_float a.(1) else as_float a.(2)));
  register ~prim:Itof t "itof"
    { args = [ Kint ]; ret = Kflt; cls = Cost.Basic; approx = false }
    (fun a -> F (float_of_int (as_int a.(0))));
  register ~prim:Ftoi t "ftoi"
    { args = [ Kflt ]; ret = Kint; cls = Cost.Basic; approx = false }
    (fun a -> I (int_of_float (as_float a.(0))));
  register_default_intervals t;
  t
