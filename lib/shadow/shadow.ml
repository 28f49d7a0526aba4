(* The shadow interpreter is [Cheffp_ir.Interp] itself, run with a
   double-double lane ([Interp.Make (Lane)]): the interpreter computes
   the low lane exactly as [Interp.run] does, and this file supplies
   only what the reference needs on top — the dd arithmetic and builtin
   table, the [select] pick, the [shadow.degraded] event, per-variable
   divergence and the branch hash. *)

open Cheffp_ir.Ast
module Fp = Cheffp_precision.Fp
module Config = Cheffp_precision.Config
module Builtins = Cheffp_ir.Builtins
module Interp = Cheffp_ir.Interp
module Trace = Cheffp_obs.Trace

let fail fmt = Format.kasprintf (fun s -> raise (Interp.Runtime_error s)) fmt

type measurement = {
  name : string;
  low : float;
  shadow : Dd.t;
  abs_error : float;
  rel_error : float;
}

type result = {
  ret : measurement option;
  ret_int : int option;
  outs : measurement list;
  divergence : (string * float) list;
  branch_hash : int;
}

type dd_impl = Dd.t array -> Dd.t

(* ------------------------------------------------------------------ *)
(* Shadow implementations of the default builtins.  Transcendentals
   use first-order derivative correction f(hi) + f'(hi)·lo: the result
   is accurate to ~1 ulp of binary64 — far below any low-lane rounding
   error we measure against, but not full double-double accuracy
   (DESIGN.md §10 "known gaps"). *)

let lift1 f f' = fun (args : Dd.t array) ->
  let x = args.(0) in
  if Float.is_finite x.Dd.hi && Float.is_finite x.Dd.lo then
    Dd.add_float (Dd.of_float (f x.Dd.hi)) (f' x.Dd.hi *. x.Dd.lo)
  else Dd.of_float (f (Dd.to_float x))

let dd_pow (args : Dd.t array) =
  let a = args.(0) and b = args.(1) in
  let p = a.Dd.hi ** b.Dd.hi in
  if
    a.Dd.hi > 0.0 && Float.is_finite p
    && Float.is_finite a.Dd.lo
    && Float.is_finite b.Dd.lo
  then
    (* d(a^b)/da = b·a^(b-1),  d(a^b)/db = a^b·ln a *)
    let da = b.Dd.hi *. (a.Dd.hi ** (b.Dd.hi -. 1.0)) *. a.Dd.lo in
    let db = p *. Float.log a.Dd.hi *. b.Dd.lo in
    Dd.add_float (Dd.of_float p) (da +. db)
  else Dd.of_float p

let default_dd_builtins : (string * dd_impl) list =
  [
    ("sin", lift1 sin cos);
    ("cos", lift1 cos (fun x -> -.sin x));
    ("tan", lift1 tan (fun x -> let t = tan x in 1.0 +. (t *. t)));
    ("exp", lift1 exp exp);
    ("log", lift1 log (fun x -> 1.0 /. x));
    ("log2", lift1 (fun x -> log x /. log 2.) (fun x -> 1.0 /. (x *. log 2.)));
    ("log10", lift1 log10 (fun x -> 1.0 /. (x *. log 10.)));
    ("tanh", lift1 tanh (fun x -> let t = tanh x in 1.0 -. (t *. t)));
    ("atan", lift1 atan (fun x -> 1.0 /. (1.0 +. (x *. x))));
    ("sqrt", fun a -> Dd.sqrt a.(0));
    ("fabs", fun a -> Dd.abs a.(0));
    ("floor", fun a -> Dd.floor a.(0));
    ("ceil", fun a -> Dd.ceil a.(0));
    ("sign", fun a -> Dd.of_float (Dd.sign a.(0)));
    ("pow", dd_pow);
    ("fma", fun a -> Dd.add (Dd.mul a.(0) a.(1)) a.(2));
    ("fmin", fun a -> if Dd.compare a.(0) a.(1) <= 0 then a.(0) else a.(1));
    ("fmax", fun a -> if Dd.compare a.(0) a.(1) >= 0 then a.(0) else a.(1));
    (* The reference is real-valued execution: explicit narrowing casts
       are rounding operations, so the shadow lane passes through. *)
    ("castf32", fun a -> a.(0));
    ("castf16", fun a -> a.(0));
    ("itof", fun a -> a.(0));
    ("select", fun a -> a.(0) (* picked in [Lane.call]: needs the condition *));
  ]

(* ------------------------------------------------------------------ *)
(* The double-double lane.                                            *)

type lane = {
  builtins : Builtins.t;
  dd_builtins : (string, dd_impl) Hashtbl.t;
  divergence : (string, float) Hashtbl.t;
  mutable branch_hash : int;
  mutable degraded : bool;
}

let bool_of b = if b then 1 else 0

(* Unknown (user-registered / approximate) builtin: degrade to binary64
   — re-apply the low implementation to the shadow arguments rounded to
   doubles. *)
let degraded_call st name low args =
  if not st.degraded then begin
    st.degraded <- true;
    if Trace.enabled () then
      Trace.event ~attrs:[ ("builtin", Trace.Str name) ] "shadow.degraded"
  end;
  let low =
    Array.mapi
      (fun i v ->
        match v with
        | Builtins.I _ -> v
        | Builtins.F _ -> Builtins.F (Dd.to_float args.(i)))
      low
  in
  match Builtins.find st.builtins name with
  | Some (_, impl) -> (
      match impl low with
      | Builtins.F x -> Dd.of_float x
      | Builtins.I _ -> assert false)
  | None -> assert false

module Lane = struct
  type t = Dd.t
  type st = lane

  let zero = Dd.zero
  let of_float = Dd.of_float
  let of_int = Dd.of_int
  let neg = Dd.neg

  let binop op a b =
    match op with
    | Add -> Dd.add a b
    | Sub -> Dd.sub a b
    | Mul -> Dd.mul a b
    | Div -> Dd.div a b
    | Mod | Eq | Ne | Lt | Le | Gt | Ge | And | Or -> assert false

  let decide st n =
    (* order-sensitive mixing; collisions only weaken a test heuristic *)
    st.branch_hash <- (st.branch_hash * 31) + n land max_int

  let store st name low dd =
    let gap = Float.abs (low -. Dd.to_float dd) in
    let gap = if Float.is_nan gap then 0.0 else gap in
    match Hashtbl.find_opt st.divergence name with
    | Some g when g >= gap -> ()
    | _ -> Hashtbl.replace st.divergence name gap

  let call st name low args x =
    let dd =
      match (name, low) with
      | "select", [| c; _; _ |] ->
          (* the condition is the low lane's, like every decision *)
          let c =
            match c with Builtins.I n -> n | Builtins.F _ -> fail "select: int"
          in
          decide st (bool_of (c <> 0));
          if c <> 0 then args.(1) else args.(2)
      | "select", _ -> fail "select expects 3 arguments"
      | _ -> (
          match Hashtbl.find_opt st.dd_builtins name with
          | Some f -> f args
          | None -> degraded_call st name low args)
    in
    (match (name, low) with
    | ("sign" | "floor" | "ceil"), _ -> decide st (Hashtbl.hash x)
    | ("fmin" | "fmax"), [| Builtins.F a; Builtins.F _ |] ->
        decide st (bool_of (x = a))
    | _ -> ());
    dd
end

module Run = Interp.Make (Lane)

let default_builtins = lazy (Builtins.create ())

let measurement name low shadow =
  let abs_error =
    let e = Float.abs (low -. Dd.to_float shadow) in
    if Float.is_nan e then 0.0 else e
  in
  let mag = Float.abs (Dd.to_float shadow) in
  let rel_error = if mag > 1e-30 then abs_error /. mag else abs_error in
  { name; low; shadow; abs_error; rel_error }

let run ?builtins ?(dd_builtins = []) ?config ?mode ?fuel ~prog ~func args =
  Trace.with_span "shadow.run" @@ fun () ->
  if Trace.enabled () then Trace.add_attr "func" (Trace.Str func);
  let builtins =
    match builtins with Some b -> b | None -> Lazy.force default_builtins
  in
  let dd_tbl = Hashtbl.create 32 in
  List.iter
    (fun (n, f) -> Hashtbl.replace dd_tbl n f)
    (default_dd_builtins @ dd_builtins);
  let lane =
    {
      builtins;
      dd_builtins = dd_tbl;
      divergence = Hashtbl.create 32;
      branch_hash = 0;
      degraded = false;
    }
  in
  let r = Run.run ~builtins ?config ?mode ?fuel ~lane ~prog ~func args in
  let ret, ret_int =
    match r.Run.ret with
    | Some (Builtins.F x, d) -> (Some (measurement "<ret>" x d), None)
    | Some (Builtins.I n, _) -> (None, Some n)
    | None -> (None, None)
  in
  let outs =
    List.filter_map
      (function
        | name, Builtins.F x, d -> Some (measurement name x d)
        | _, Builtins.I _, _ -> None)
      r.Run.outs
  in
  let divergence =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) lane.divergence []
    |> List.sort (fun (na, a) (nb, b) ->
           match Float.compare b a with 0 -> String.compare na nb | c -> c)
  in
  { ret; ret_int; outs; divergence; branch_hash = lane.branch_hash }

let measured_error r =
  let m = match r.ret with Some m -> m.abs_error | None -> 0.0 in
  List.fold_left (fun acc o -> Float.max acc o.abs_error) m r.outs
