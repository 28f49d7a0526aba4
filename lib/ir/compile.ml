open Ast
module Fp = Cheffp_precision.Fp
module Config = Cheffp_precision.Config
module Cost = Cheffp_precision.Cost
module Growable = Cheffp_util.Growable

exception Compile_error = Lower.Compile_error

type sink = Lower.sink = {
  totals : float array;
  lo : float array;
  hi : float array;
  iters : (int * int, float ref) Hashtbl.t;
}

let sink = Lower.sink
let[@inline] record_total s id e = s.totals.(id) <- s.totals.(id) +. e

let[@inline] record_range s id v =
  if v < s.lo.(id) then s.lo.(id) <- v;
  if v > s.hi.(id) then s.hi.(id) <- v

let record_iter s id iter x =
  match Hashtbl.find_opt s.iters (id, iter) with
  | Some r -> r := !r +. x
  | None -> Hashtbl.replace s.iters (id, iter) (ref x)

type t = Fp.format Lower.lowered

(* ------------------------------------------------------------------ *)
(* The scalar emitter. Every float operation is one [env -> unit]
   closure that reads float slots and writes one: no float crosses a
   closure boundary, so nothing is boxed. Formats are resolved against
   the compilation's one configuration, so each instruction is
   specialised to its format. Helpers that take floats are inlined:
   [round32] repeats [Fp.round F32] because a call into another
   compilation unit boxes its argument (F16 rounding, rare, does call
   [Fp.round]). *)

module Scalar = struct
  open Lower

  type fmt = Fp.format
  type st = Config.t

  let f64 = Fp.F64
  let same = Fp.equal_format
  let var_fmt config s name = Interp.effective_format config s name
  let wider _ = Interp.wider
  let predicated = false

  let[@inline] round32 x = Int32.float_of_bits (Int32.bits_of_float x)

  let move fmt d src : instr =
    match fmt with
    | Fp.F64 -> fun env -> env.fl.(d) <- env.fl.(src)
    | Fp.F32 -> fun env -> env.fl.(d) <- round32 env.fl.(src)
    | Fp.F16 -> fun env -> env.fl.(d) <- Fp.round Fp.F16 env.fl.(src)

  let neg d a : instr = fun env -> env.fl.(d) <- -.env.fl.(a)

  let rec arith op fmt d a b : instr =
    match (fmt, op) with
    | Fp.F64, Add -> fun env -> env.fl.(d) <- env.fl.(a) +. env.fl.(b)
    | Fp.F64, Sub -> fun env -> env.fl.(d) <- env.fl.(a) -. env.fl.(b)
    | Fp.F64, Mul -> fun env -> env.fl.(d) <- env.fl.(a) *. env.fl.(b)
    | Fp.F64, Div -> fun env -> env.fl.(d) <- env.fl.(a) /. env.fl.(b)
    | Fp.F32, Add -> fun env -> env.fl.(d) <- round32 (env.fl.(a) +. env.fl.(b))
    | Fp.F32, Sub -> fun env -> env.fl.(d) <- round32 (env.fl.(a) -. env.fl.(b))
    | Fp.F32, Mul -> fun env -> env.fl.(d) <- round32 (env.fl.(a) *. env.fl.(b))
    | Fp.F32, Div -> fun env -> env.fl.(d) <- round32 (env.fl.(a) /. env.fl.(b))
    | Fp.F16, _ ->
        let exact = arith op Fp.F64 d a b and round = move Fp.F16 d d in
        fun env ->
          exact env;
          round env
    | _, _ -> assert false

  let load d slot gi : instr = fun env -> env.fl.(d) <- env.fa.(slot).(gi env)

  let store_elem fmt slot gi src : instr =
    match fmt with
    | Fp.F64 -> fun env -> env.fa.(slot).(gi env) <- env.fl.(src)
    | Fp.F32 -> fun env -> env.fa.(slot).(gi env) <- round32 env.fl.(src)
    | Fp.F16 -> fun env -> env.fa.(slot).(gi env) <- Fp.round Fp.F16 env.fl.(src)

  let zero slot : instr = fun env -> env.fl.(slot) <- 0.
  let alloc slot gn : instr = fun env -> env.fa.(slot) <- Array.make (gn env) 0.

  let push slot : instr =
   fun env -> Growable.Float.push_from env.fstack env.fl slot

  let pop slot : instr = fun env -> Growable.Float.pop_into env.fstack env.fl slot

  let push_elem slot gi : instr =
   fun env -> Growable.Float.push_from env.fstack env.fa.(slot) (gi env)

  let pop_elem slot gi : instr =
   fun env -> Growable.Float.pop_into env.fstack env.fa.(slot) (gi env)

  let unary (p : Builtins.prim) d a : instr =
    match p with
    | Sin -> fun env -> env.fl.(d) <- sin env.fl.(a)
    | Cos -> fun env -> env.fl.(d) <- cos env.fl.(a)
    | Tan -> fun env -> env.fl.(d) <- tan env.fl.(a)
    | Exp -> fun env -> env.fl.(d) <- exp env.fl.(a)
    | Log -> fun env -> env.fl.(d) <- log env.fl.(a)
    | Log10 -> fun env -> env.fl.(d) <- log10 env.fl.(a)
    | Sqrt -> fun env -> env.fl.(d) <- sqrt env.fl.(a)
    | Tanh -> fun env -> env.fl.(d) <- tanh env.fl.(a)
    | Atan -> fun env -> env.fl.(d) <- atan env.fl.(a)
    | Fabs -> fun env -> env.fl.(d) <- Float.abs env.fl.(a)
    | Floor -> fun env -> env.fl.(d) <- Float.floor env.fl.(a)
    | Ceil -> fun env -> env.fl.(d) <- Float.ceil env.fl.(a)
    | Castf32 -> fun env -> env.fl.(d) <- round32 env.fl.(a)
    | _ -> assert false

  let pow d a b : instr = fun env -> env.fl.(d) <- env.fl.(a) ** env.fl.(b)

  let fma d a b c : instr =
   fun env -> env.fl.(d) <- Float.fma env.fl.(a) env.fl.(b) env.fl.(c)

  let select d c a b : instr =
   fun env -> env.fl.(d) <- (if c env <> 0 then env.fl.(a) else env.fl.(b))

  let itof d g : instr = fun env -> env.fl.(d) <- float_of_int (g env)
  let fast1 f d a : instr = fun env -> env.fl.(d) <- f env.fl.(a)
  let fast2 f d a b : instr = fun env -> env.fl.(d) <- f env.fl.(a) env.fl.(b)

  (* An intrinsic called through its closure, on boxed arguments. *)
  let boxed impl args : env -> Builtins.value =
    let getters =
      Array.of_list
        (List.map
           (function
             | Af v ->
                 let s = v.at in
                 fun env -> Builtins.F env.fl.(s)
             | Ai g -> fun env -> Builtins.I (g env))
           args)
    in
    fun env -> impl (Array.map (fun g -> g env) getters)

  let generic impl args d : instr =
    let call = boxed impl args in
    fun env -> env.fl.(d) <- Builtins.as_float (call env)

  let record (p : Builtins.prim) args =
    match (p, args) with
    | Record_total, [ Ai id; Af a ] ->
        let a = a.at in
        Some (a, fun env -> record_total env.sink (id env) env.fl.(a))
    | Record_range, [ Ai id; Af a ] ->
        let a = a.at in
        Some (a, fun env -> record_range env.sink (id env) env.fl.(a))
    | Record_iter, [ Ai id; Ai iter; Af a ] ->
        let a = a.at in
        Some (a, fun env -> record_iter env.sink (id env) (iter env) env.fl.(a))
    | _ -> None

  let fcmp op pre a b : env -> int =
    match op with
    | Eq -> fun env -> pre env; if env.fl.(a) = env.fl.(b) then 1 else 0
    | Ne -> fun env -> pre env; if env.fl.(a) <> env.fl.(b) then 1 else 0
    | Lt -> fun env -> pre env; if env.fl.(a) < env.fl.(b) then 1 else 0
    | Le -> fun env -> pre env; if env.fl.(a) <= env.fl.(b) then 1 else 0
    | Gt -> fun env -> pre env; if env.fl.(a) > env.fl.(b) then 1 else 0
    | Ge -> fun env -> pre env; if env.fl.(a) >= env.fl.(b) then 1 else 0
    | _ -> assert false

  let ftoi pre a : env -> int = fun env -> pre env; int_of_float env.fl.(a)

  let int_call pre impl args : env -> int =
    let call = boxed impl args in
    fun env -> pre env; Builtins.as_int (call env)

  (* Never called: [predicated] is false. *)
  let mask _ _ _ _ = assert false
  let masked_store _ _ _ _ = assert false
end

module Lowering = Lower.Make (Scalar)

(* ------------------------------------------------------------------ *)

let compile ?builtins ?(config = Config.double) ?(mode = Config.Source)
    ?(meter = false) ?(optimize = true) ~prog ~func () =
  let builtins =
    match builtins with Some b -> b | None -> Builtins.create ()
  in
  (* Configuration-demoted variables round on store: they must stay
     opaque to value forwarding (see Optimize). *)
  let opaque v =
    Config.has_override config v
    || not (Fp.equal_format (Config.default_format config) Fp.F64)
  in
  Lowering.lower config ~builtins ~mode
    ?meter:(if meter then Some Fun.id else None)
    ~prog
    (Lower.prepare ~opaque ~optimize prog func)

let run ?counter ?sink:s (t : t) (args : Interp.arg list) : Interp.result =
  Lower.check_arity t args;
  (* Without a counter or a sink, a run makes one only if its body
     charges or records, and keeps it private so concurrent domains
     never share one; the shared ones are never written. *)
  let counter =
    match counter with
    | Some c -> c
    | None -> if t.meter then Cost.Counter.create Cost.default else Lower.no_counter
  in
  let sink =
    match s with
    | Some s -> s
    | None -> if t.records then sink 0 else Lower.no_sink
  in
  let env =
    Lower.env t ~fstacks:[| Growable.Float.create () |] ~counter ~sink
      ~lanes:Lower.no_lanes
  in
  List.iter2
    (fun ((p : Ast.param), b) arg ->
      match (b, arg) with
      | Lower.Bf (slot, fmt), Interp.Aflt x -> env.fl.(slot) <- Fp.round fmt x
      | Lower.Bi slot, Interp.Aint n -> env.it.(slot) <- n
      | Lower.Bfa (slot, fmt), Interp.Afarr a ->
          env.fa.(slot) <-
            (if Fp.equal_format fmt Fp.F64 then a
             else Array.map (Fp.round fmt) a)
      | Lower.Bia slot, Interp.Aiarr a -> env.ia.(slot) <- a
      | _, _ -> Lower.fail "argument kind mismatch for parameter %S" p.pname)
    t.params args;
  Lower.result t env (Lower.execute t env) 0

let run_float ?counter ?sink t args =
  match (run ?counter ?sink t args).Interp.ret with
  | Some (Builtins.F x) -> x
  | _ -> Lower.fail "function %S did not return a float" t.func.fname
