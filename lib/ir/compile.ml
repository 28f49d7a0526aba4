open Ast
module Fp = Cheffp_precision.Fp
module Config = Cheffp_precision.Config
module Cost = Cheffp_precision.Cost
module Growable = Cheffp_util.Growable

exception Compile_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Compile_error s)) fmt

type sink = {
  totals : float array;
  lo : float array;
  hi : float array;
  iters : (int * int, float ref) Hashtbl.t;
}

let sink n =
  {
    totals = Array.make n 0.;
    lo = Array.make n Float.infinity;
    hi = Array.make n Float.neg_infinity;
    iters = Hashtbl.create 16;
  }

let[@inline] record_total s id e = s.totals.(id) <- s.totals.(id) +. e

let[@inline] record_range s id v =
  if v < s.lo.(id) then s.lo.(id) <- v;
  if v > s.hi.(id) then s.hi.(id) <- v

let record_iter s id iter x =
  match Hashtbl.find_opt s.iters (id, iter) with
  | Some r -> r := !r +. x
  | None -> Hashtbl.replace s.iters (id, iter) (ref x)

type env = {
  fl : float array;  (** float slots: variables, constants, temporaries *)
  it : int array;  (** int slots: variables, temporaries *)
  fa : float array array;  (** float array slots *)
  ia : int array array;  (** int array slots *)
  fstack : Growable.Float.t;
  istack : Growable.Int.t;
  counter : Cost.Counter.t;
      (** the run's cost accumulator; metered compilations charge into
          it, so one compiled value can serve many runs (and domains),
          each with its own counter *)
  sink : sink;  (** the run's recording sink, the same way *)
}

exception Creturn_f of float
exception Creturn_i of int

type binding =
  | Bf of int * Fp.format
  | Bi of int
  | Bfa of int * Fp.format
  | Bia of int

(* Compile-time scope: stack of frames mapping names to slots. *)
type scope = { mutable frames : (string * binding) list list }

let scope_find sc name =
  let rec go = function
    | [] -> fail "undeclared variable %S" name
    | frame :: rest -> (
        match List.assoc_opt name frame with Some b -> b | None -> go rest)
  in
  go sc.frames

let scope_push sc = sc.frames <- [] :: sc.frames

let scope_pop sc =
  match sc.frames with
  | _ :: rest -> sc.frames <- rest
  | [] -> assert false

let scope_declare sc name b =
  match sc.frames with
  | frame :: rest -> sc.frames <- ((name, b) :: frame) :: rest
  | [] -> assert false

type t = {
  cfunc : Ast.func;
  run_body : env -> unit;
  fl_init : float array;  (** constants in their slots, zeros elsewhere *)
  nit : int;
  nfa : int;
  nia : int;
  out_scalars : (string * binding) list;
  param_bindings : (Ast.param * binding) list;
  default_counter : Cost.Counter.t option;
}

(* ------------------------------------------------------------------ *)
(* Instructions. Every float operation is one [env -> unit] closure that
   reads float slots and writes one: no float crosses a closure
   boundary, so nothing is boxed. Helpers that take floats are inlined:
   [round32] repeats [Fp.round F32] because a call into another
   compilation unit boxes its argument (F16 rounding, rare, does call
   [Fp.round]). *)

type instr = env -> unit

let seq (code : instr list) : instr =
  match code with
  | [] -> fun _ -> ()
  | [ a ] -> a
  | [ a; b ] ->
      fun env ->
        a env;
        b env
  | _ ->
      let code = Array.of_list code in
      fun env ->
        for i = 0 to Array.length code - 1 do
          code.(i) env
        done

let[@inline] round32 x = Int32.float_of_bits (Int32.bits_of_float x)

(* [d <- round fmt src]; a plain copy at F64. *)
let move fmt d src : instr =
  match fmt with
  | Fp.F64 -> fun env -> env.fl.(d) <- env.fl.(src)
  | Fp.F32 -> fun env -> env.fl.(d) <- round32 env.fl.(src)
  | Fp.F16 -> fun env -> env.fl.(d) <- Fp.round Fp.F16 env.fl.(src)

(* [d <- a op b], rounded to [fmt]. *)
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

(* A lowered float expression: its instructions in execution order, the
   slot its value ends up in, its static format, and whether that value
   was just rounded to the format (so a store to the same format need
   not round it again). *)
type fval = { code : instr list; at : int; fmt : Fp.format; rounded : bool }

(* A lowered call argument; an int argument is read by the call's final
   instruction. *)
type arg = Af of fval | Ai of (env -> int)

(* ------------------------------------------------------------------ *)

let compile ?builtins ?(config = Config.double) ?(mode = Config.Source)
    ?counter ?(meter = counter <> None) ?(optimize = true) ~prog ~func () =
  let builtins =
    match builtins with Some b -> b | None -> Builtins.create ()
  in
  let f = func_exn prog func in
  let f = if Inline.has_user_calls prog f then Inline.inline_func prog f else f in
  let f =
    if optimize then
      (* Configuration-demoted variables round on store: they must stay
         opaque to value forwarding (see Optimize). *)
      Optimize.optimize_func
        ~opaque:(fun v ->
          Config.has_override config v
          || not (Fp.equal_format (Config.default_format config) Fp.F64))
        f
    else f
  in
  let nfl = ref 0 and nit = ref 0 and nfa = ref 0 and nia = ref 0 in
  let fresh_f () = let i = !nfl in incr nfl; i in
  let fresh_i () = let i = !nit in incr nit; i in
  let fresh_fa () = let i = !nfa in incr nfa; i in
  let fresh_ia () = let i = !nia in incr nia; i in
  let sc = { frames = [ [] ] } in

  (* Constants live in slots of their own, preset by [run]. *)
  let consts : (int64, int) Hashtbl.t = Hashtbl.create 16 in
  let const_slot x =
    let key = Int64.bits_of_float x in
    match Hashtbl.find_opt consts key with
    | Some slot -> slot
    | None ->
        let slot = fresh_f () in
        Hashtbl.replace consts key slot;
        slot
  in
  (* Temporaries are recycled per statement: the k-th temporary of every
     statement shares one slot, so a run grows only by the temporaries
     of the largest statement. A statement's temporaries are dead once it
     finishes, and a compound statement's own expressions are evaluated
     before its children run. *)
  let temps fresh =
    let slots = Hashtbl.create 16 and next = ref 0 in
    let take () =
      let k = !next in
      incr next;
      match Hashtbl.find_opt slots k with
      | Some slot -> slot
      | None ->
          let slot = fresh () in
          Hashtbl.replace slots k slot;
          slot
    in
    (take, fun () -> next := 0)
  in
  let fresh_ftmp, reset_ftmps = temps fresh_f in
  let fresh_itmp, reset_itmps = temps fresh_i in

  let effective s name = Interp.effective_format config s name in

  (* Metering charges into the *run's* counter (a slot of [env]), not a
     counter captured at compile time: a metered compilation is a pure
     value reusable with any counter, which is what lets the compile
     cache share instances across runs and domains. Charges are
     instructions of their own, in expression-tree evaluation order (an
     operation's charges precede its operands' code), so a total does
     not depend on how the tree is lowered. *)
  let charge k : instr list =
    if meter then [ (fun env -> Cost.Counter.charge env.counter k) ] else []
  in
  let charge_op fmt cls = charge (Cost.op_charge fmt cls) in
  let charge_cast () = charge Cost.cast_charge in

  (* Static format of the result of an operation on [fa], [fb]. *)
  let wider a b = if Fp.bits a >= Fp.bits b then a else b in

  (* fexpr : expr -> fval, with [dst] the slot the value should land in if
     it is computed (a [Var] or constant stays where it is).
     ci : expr -> env -> int *)
  let rec fexpr ?dst e : fval =
    let target () = match dst with Some d -> d | None -> fresh_ftmp () in
    match e with
    | Fconst x -> { code = []; at = const_slot x; fmt = Fp.F64; rounded = false }
    | Iconst _ -> fail "integer expression %s where a float is required"
                    (Pp.expr_to_string e)
    | Var v -> (
        match scope_find sc v with
        | Bf (slot, fmt) -> { code = []; at = slot; fmt; rounded = false }
        | Bi _ -> fail "int variable %S used as float" v
        | Bfa _ | Bia _ -> fail "array %S used as a scalar" v)
    | Idx (a, ie) -> (
        let gi = ci ie in
        match scope_find sc a with
        | Bfa (slot, fmt) ->
            let d = target () in
            {
              code = [ (fun env -> env.fl.(d) <- env.fa.(slot).(gi env)) ];
              at = d;
              fmt;
              rounded = false;
            }
        | Bia _ -> fail "int array %S used as float" a
        | Bf _ | Bi _ -> fail "scalar %S indexed" a)
    | Unop (Neg, e) ->
        let v = fexpr e in
        let fmt' = match mode with Config.Source -> v.fmt | Config.Extended -> Fp.F64 in
        let d = target () and a = v.at in
        {
          v with
          code =
            charge_op fmt' Cost.Basic @ v.code
            @ [ (fun env -> env.fl.(d) <- -.env.fl.(a)) ];
          at = d;
        }
    | Unop (Not, _) -> fail "logical not yields an int"
    | Binop ((Add | Sub | Mul | Div) as op, a, b) ->
        (* An int operand fails in [fexpr] itself. *)
        let va = fexpr a in
        let vb = fexpr b in
        let fmt =
          match mode with
          | Config.Source -> wider va.fmt vb.fmt
          | Config.Extended -> Fp.F64
        in
        let cls = match op with Div -> Cost.Division | _ -> Cost.Basic in
        let cast = if Fp.equal_format va.fmt vb.fmt then [] else charge_cast () in
        let d = target () in
        (* The right operand is evaluated first, as OCaml evaluates the
           operands of a primitive. *)
        {
          code =
            charge_op fmt cls @ cast @ vb.code @ va.code
            @ [ arith op fmt d va.at vb.at ];
          at = d;
          fmt;
          rounded = not (Fp.equal_format fmt Fp.F64);
        }
    | Binop _ -> fail "integer expression used as float: %s" (Pp.expr_to_string e)
    | Call (name, args) -> (
        match Builtins.find builtins name with
        | None -> fail "user call %S survived inlining" name
        | Some (sg, impl) ->
            if sg.Builtins.ret <> Builtins.Kflt then
              fail "intrinsic %S yields an int, used as float" name;
            compile_call target name sg impl args)

  (* A call's arguments: the code of every float argument, and of every
     int argument that may charge or call, runs before the call's final
     instruction, in argument evaluation order (right to left for a
     two-float intrinsic, as for an OCaml application; left to right
     otherwise). Pure int arguments are read by the final instruction. *)
  and lower_args ~rtl name sg args : instr list * arg list =
    if List.compare_lengths sg.Builtins.args args <> 0 then
      fail "intrinsic %S expects %d arguments, got %d" name
        (List.length sg.Builtins.args) (List.length args);
    let lowered =
      List.map2
        (fun k arg ->
          match k with
          | Builtins.Kflt ->
              let v = fexpr arg in
              (v.code, Af v)
          | Builtins.Kint ->
              let g = ci arg in
              if int_pure arg then ([], Ai g)
              else
                let t = fresh_itmp () in
                ([ (fun env -> env.it.(t) <- g env) ], Ai (fun env -> env.it.(t))))
        sg.Builtins.args args
    in
    let codes = List.map fst lowered in
    (List.concat (if rtl then List.rev codes else codes), List.map snd lowered)

  and generic_call impl args : env -> Builtins.value =
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

  and compile_call target name sg impl args : fval =
    let rtl = Builtins.fast2 builtins name <> None in
    let code, largs = lower_args ~rtl name sg args in
    let widest =
      List.fold_left
        (fun acc a -> match a with Af v -> wider acc v.fmt | Ai _ -> acc)
        Fp.F16 largs
    in
    let has_float = List.exists (function Af _ -> true | Ai _ -> false) largs in
    let widest = if has_float then widest else Fp.F64 in
    let charge =
      if sg.Builtins.approx then charge (Cost.approx_charge sg.Builtins.cls)
      else
        charge_op
          (match mode with Config.Source -> widest | Config.Extended -> Fp.F64)
          sg.Builtins.cls
    in
    (* [at, op, own]: where the result lands, the instruction computing
       it, and whether [at] is a slot of this call's own rather than an
       argument's. *)
    let computed mk = let d = target () in (d, mk d, true) in
    let at, op, own =
      match (Builtins.prim builtins name, largs) with
      | ( Some
            (( Sin | Cos | Tan | Exp | Log | Log10 | Sqrt | Tanh | Atan | Fabs
             | Floor | Ceil | Castf32 ) as p),
          [ Af a ] ) ->
          computed (fun d -> unary p d a.at)
      | Some Pow, [ Af a; Af b ] ->
          let a = a.at and b = b.at in
          computed (fun d env -> env.fl.(d) <- env.fl.(a) ** env.fl.(b))
      | Some Fma, [ Af a; Af b; Af c ] ->
          let a = a.at and b = b.at and c = c.at in
          computed (fun d env ->
              env.fl.(d) <- Float.fma env.fl.(a) env.fl.(b) env.fl.(c))
      | Some Select, [ Ai c; Af a; Af b ] ->
          let a = a.at and b = b.at in
          computed (fun d env ->
              env.fl.(d) <- (if c env <> 0 then env.fl.(a) else env.fl.(b)))
      | Some Itof, [ Ai g ] ->
          computed (fun d env -> env.fl.(d) <- float_of_int (g env))
      | Some Record_total, [ Ai id; Af a ] ->
          let a = a.at in
          (a, (fun env -> record_total env.sink (id env) env.fl.(a)), false)
      | Some Record_range, [ Ai id; Af a ] ->
          let a = a.at in
          (a, (fun env -> record_range env.sink (id env) env.fl.(a)), false)
      | Some Record_iter, [ Ai id; Ai iter; Af a ] ->
          let a = a.at in
          ( a,
            (fun env -> record_iter env.sink (id env) (iter env) env.fl.(a)),
            false )
      | _ -> (
          match (Builtins.fast1 builtins name, Builtins.fast2 builtins name, largs) with
          | Some f, _, [ Af a ] ->
              let a = a.at in
              computed (fun d env -> env.fl.(d) <- f env.fl.(a))
          | _, Some f, [ Af a; Af b ] ->
              let a = a.at and b = b.at in
              computed (fun d env -> env.fl.(d) <- f env.fl.(a) env.fl.(b))
          | _ ->
              let call = generic_call impl largs in
              computed (fun d env ->
                  env.fl.(d) <- Builtins.as_float (call env)))
    in
    let code = charge @ code @ [ op ] in
    match mode with
    | Config.Source when not (Fp.equal_format widest Fp.F64) ->
        let d = if own then at else target () in
        { code = code @ [ move widest d at ]; at = d; fmt = widest; rounded = true }
    | Config.Source | Config.Extended ->
        { code; at; fmt = Fp.F64; rounded = false }

  (* An int expression that reads only int variables and constants:
     evaluating it charges and calls nothing, so when is immaterial. *)
  and int_pure e =
    match e with
    | Iconst _ -> true
    | Var v -> ( match scope_find sc v with Bi _ -> true | _ -> false)
    | Idx (a, i) -> (
        match scope_find sc a with Bia _ -> int_pure i | _ -> false)
    | Unop (_, a) -> int_pure a
    | Binop (_, a, b) -> int_pure a && int_pure b
    | Fconst _ | Call _ -> false

  and ci e : env -> int =
    match e with
    | Iconst n -> fun _ -> n
    | Fconst _ -> fail "float constant used as int"
    | Var v -> (
        match scope_find sc v with
        | Bi slot -> fun env -> env.it.(slot)
        | Bf _ -> fail "float variable %S used as int" v
        | Bfa _ | Bia _ -> fail "array %S used as a scalar" v)
    | Idx (a, ie) -> (
        let gi = ci ie in
        match scope_find sc a with
        | Bia slot -> fun env -> env.ia.(slot).(gi env)
        | Bfa _ -> fail "float array %S used as int" a
        | Bf _ | Bi _ -> fail "scalar %S indexed" a)
    | Unop (Neg, e) ->
        let g = ci e in
        fun env -> -g env
    | Unop (Not, e) ->
        let g = ci e in
        fun env -> if g env = 0 then 1 else 0
    | Binop ((Add | Sub | Mul | Div | Mod) as op, a, b) -> (
        let ga = ci a and gb = ci b in
        match op with
        | Add -> fun env -> ga env + gb env
        | Sub -> fun env -> ga env - gb env
        | Mul -> fun env -> ga env * gb env
        | Div -> fun env -> ga env / gb env
        | Mod -> fun env -> ga env mod gb env
        | _ -> assert false)
    | Binop ((And | Or) as op, a, b) -> (
        let ga = ci a and gb = ci b in
        match op with
        | And -> fun env -> if ga env <> 0 && gb env <> 0 then 1 else 0
        | Or -> fun env -> if ga env <> 0 || gb env <> 0 then 1 else 0
        | _ -> assert false)
    | Binop ((Eq | Ne | Lt | Le | Gt | Ge) as op, a, b) -> (
        match Typecheck.expr_kind ~builtins prog (lookup_ty sc) a with
        | exception Typecheck.Error m -> fail "%s" m
        | Typecheck.Escalar Builtins.Kint -> (
            let ga = ci a and gb = ci b in
            match op with
            | Eq -> fun env -> if ga env = gb env then 1 else 0
            | Ne -> fun env -> if ga env <> gb env then 1 else 0
            | Lt -> fun env -> if ga env < gb env then 1 else 0
            | Le -> fun env -> if ga env <= gb env then 1 else 0
            | Gt -> fun env -> if ga env > gb env then 1 else 0
            | Ge -> fun env -> if ga env >= gb env then 1 else 0
            | _ -> assert false)
        | _ -> (
            let va = fexpr a in
            let vb = fexpr b in
            let pre = seq (vb.code @ va.code) and a = va.at and b = vb.at in
            match op with
            | Eq -> fun env -> pre env; if env.fl.(a) = env.fl.(b) then 1 else 0
            | Ne -> fun env -> pre env; if env.fl.(a) <> env.fl.(b) then 1 else 0
            | Lt -> fun env -> pre env; if env.fl.(a) < env.fl.(b) then 1 else 0
            | Le -> fun env -> pre env; if env.fl.(a) <= env.fl.(b) then 1 else 0
            | Gt -> fun env -> pre env; if env.fl.(a) > env.fl.(b) then 1 else 0
            | Ge -> fun env -> pre env; if env.fl.(a) >= env.fl.(b) then 1 else 0
            | _ -> assert false))
    | Call (name, args) -> (
        match Builtins.find builtins name with
        | None -> fail "user call %S survived inlining" name
        | Some (sg, impl) -> (
            if sg.Builtins.ret <> Builtins.Kint then
              fail "intrinsic %S yields a float, used as int" name;
            let code, largs = lower_args ~rtl:false name sg args in
            let pre = seq code in
            match (Builtins.prim builtins name, largs) with
            | Some Ftoi, [ Af a ] ->
                let a = a.at in
                fun env -> pre env; int_of_float env.fl.(a)
            | _ ->
                let call = generic_call impl largs in
                fun env -> pre env; Builtins.as_int (call env)))

  and lookup_ty sc name =
    (* Typing view of the compile-time scope, for expr_kind queries. *)
    let rec go = function
      | [] -> None
      | frame :: rest -> (
          match List.assoc_opt name frame with
          | Some (Bf (_, fmt)) -> Some (Tscalar (Sflt fmt))
          | Some (Bi _) -> Some (Tscalar Sint)
          | Some (Bfa (_, fmt)) -> Some (Tarr (Sflt fmt))
          | Some (Bia _) -> Some (Tarr Sint)
          | None -> go rest)
    in
    go sc.frames
  in

  (* Store [e] into a variable of format [fmt]: a cast when the formats
     differ, then the value rounded to [fmt] unless it just was. *)
  let needs_round fmt v =
    not
      (Fp.equal_format fmt Fp.F64 || (v.rounded && Fp.equal_format v.fmt fmt))
  in
  let cast_to fmt v =
    if Fp.equal_format v.fmt fmt then [] else charge_cast ()
  in
  let store_var slot fmt e : instr list =
    let v = fexpr ~dst:slot e in
    let round = needs_round fmt v in
    let finish =
      if v.at <> slot then [ move (if round then fmt else Fp.F64) slot v.at ]
      else if round then [ move fmt slot slot ]
      else []
    in
    cast_to fmt v @ v.code @ finish
  in
  let store_elem slot fmt gi e : instr list =
    let v = fexpr e in
    let src = v.at in
    let write : instr =
      match if needs_round fmt v then fmt else Fp.F64 with
      | Fp.F64 -> fun env -> env.fa.(slot).(gi env) <- env.fl.(src)
      | Fp.F32 -> fun env -> env.fa.(slot).(gi env) <- round32 env.fl.(src)
      | Fp.F16 ->
          fun env -> env.fa.(slot).(gi env) <- Fp.round Fp.F16 env.fl.(src)
    in
    cast_to fmt v @ v.code @ [ write ]
  in

  let rec cstmt s : instr list =
    reset_ftmps ();
    reset_itmps ();
    match s with
    | Decl { name; dty = Dscalar Sint; init } -> (
        let slot = fresh_i () in
        scope_declare sc name (Bi slot);
        match init with
        | None -> [ (fun env -> env.it.(slot) <- 0) ]
        | Some e ->
            let g = ci e in
            [ (fun env -> env.it.(slot) <- g env) ])
    | Decl { name; dty = Dscalar (Sflt _ as s); init } -> (
        let fmt = effective s name in
        let slot = fresh_f () in
        scope_declare sc name (Bf (slot, fmt));
        match init with
        | None -> [ (fun env -> env.fl.(slot) <- 0.) ]
        | Some e -> store_var slot fmt e)
    | Decl { name; dty = Darr (Sint, size); init = _ } ->
        let gn = ci size in
        let slot = fresh_ia () in
        scope_declare sc name (Bia slot);
        [ (fun env -> env.ia.(slot) <- Array.make (gn env) 0) ]
    | Decl { name; dty = Darr ((Sflt _ as s), size); init = _ } ->
        let fmt = effective s name in
        let gn = ci size in
        let slot = fresh_fa () in
        scope_declare sc name (Bfa (slot, fmt));
        [ (fun env -> env.fa.(slot) <- Array.make (gn env) 0.) ]
    | Assign (Lvar v, e) -> (
        match scope_find sc v with
        | Bf (slot, fmt) -> store_var slot fmt e
        | Bi slot ->
            let g = ci e in
            [ (fun env -> env.it.(slot) <- g env) ]
        | Bfa _ | Bia _ -> fail "cannot assign to array %S as a whole" v)
    | Assign (Lidx (a, ie), e) -> (
        let gi = ci ie in
        match scope_find sc a with
        | Bfa (slot, fmt) -> store_elem slot fmt gi e
        | Bia slot ->
            let g = ci e in
            [ (fun env -> env.ia.(slot).(gi env) <- g env) ]
        | Bf _ | Bi _ -> fail "scalar %S indexed" a)
    | If (c, t, e) ->
        let gc = ci c in
        let gt = cblock t in
        let ge = cblock e in
        [ (fun env -> if gc env <> 0 then gt env else ge env) ]
    | For { var; lo; hi; down; body } ->
        let glo = ci lo and ghi = ci hi in
        scope_push sc;
        let slot = fresh_i () in
        scope_declare sc var (Bi slot);
        let gbody = cblock body in
        scope_pop sc;
        if down then
          [
            (fun env ->
              let lo = glo env and hi = ghi env in
              for i = hi - 1 downto lo do
                env.it.(slot) <- i;
                gbody env
              done);
          ]
        else
          [
            (fun env ->
              let lo = glo env and hi = ghi env in
              for i = lo to hi - 1 do
                env.it.(slot) <- i;
                gbody env
              done);
          ]
    | While (c, body) ->
        let gc = ci c in
        let gbody = cblock body in
        [
          (fun env ->
            while gc env <> 0 do
              gbody env
            done);
        ]
    | Return None -> [ (fun _ -> raise (Creturn_f Float.nan)) ]
    | Return (Some e) -> (
        match Typecheck.expr_kind ~builtins prog (lookup_ty sc) e with
        | exception Typecheck.Error m -> fail "%s" m
        | Typecheck.Escalar Builtins.Kint ->
            let g = ci e in
            [ (fun env -> raise (Creturn_i (g env))) ]
        | _ ->
            let v = fexpr e in
            let a = v.at in
            v.code @ [ (fun env -> raise (Creturn_f env.fl.(a))) ])
    | Call_stmt (name, args) -> (
        match Builtins.find builtins name with
        | None -> fail "user call %S survived inlining" name
        | Some (sg, _) -> (
            match sg.Builtins.ret with
            | Builtins.Kflt -> (fexpr (Call (name, args))).code
            | Builtins.Kint ->
                let g = ci (Call (name, args)) in
                [ (fun env -> ignore (g env)) ]))
    | Push (Lvar v) -> (
        match scope_find sc v with
        | Bf (slot, _) ->
            [ (fun env -> Growable.Float.push_from env.fstack env.fl slot) ]
        | Bi slot -> [ (fun env -> Growable.Int.push env.istack env.it.(slot)) ]
        | Bfa _ | Bia _ -> fail "cannot push whole array %S" v)
    | Push (Lidx (a, ie)) -> (
        let gi = ci ie in
        match scope_find sc a with
        | Bfa (slot, _) ->
            [
              (fun env ->
                Growable.Float.push_from env.fstack env.fa.(slot) (gi env));
            ]
        | Bia slot ->
            [ (fun env -> Growable.Int.push env.istack env.ia.(slot).(gi env)) ]
        | Bf _ | Bi _ -> fail "scalar %S indexed" a)
    | Pop (Lvar v) -> (
        match scope_find sc v with
        | Bf (slot, _) ->
            [ (fun env -> Growable.Float.pop_into env.fstack env.fl slot) ]
        | Bi slot -> [ (fun env -> env.it.(slot) <- Growable.Int.pop env.istack) ]
        | Bfa _ | Bia _ -> fail "cannot pop whole array %S" v)
    | Pop (Lidx (a, ie)) -> (
        let gi = ci ie in
        match scope_find sc a with
        | Bfa (slot, _) ->
            [
              (fun env ->
                Growable.Float.pop_into env.fstack env.fa.(slot) (gi env));
            ]
        | Bia slot ->
            [ (fun env -> env.ia.(slot).(gi env) <- Growable.Int.pop env.istack) ]
        | Bf _ | Bi _ -> fail "scalar %S indexed" a)

  and cblock stmts : instr =
    scope_push sc;
    let code = List.concat_map cstmt stmts in
    scope_pop sc;
    seq code
  in

  (* Parameters. *)
  let param_bindings =
    List.map
      (fun p ->
        let b =
          match p.pty with
          | Tscalar Sint -> Bi (fresh_i ())
          | Tscalar (Sflt _ as s) -> Bf (fresh_f (), effective s p.pname)
          | Tarr (Sflt _ as s) -> Bfa (fresh_fa (), effective s p.pname)
          | Tarr Sint -> Bia (fresh_ia ())
        in
        scope_declare sc p.pname b;
        (p, b))
      f.params
  in
  let out_scalars =
    List.filter_map
      (fun (p, b) ->
        match (p.pmode, b) with
        | Out, (Bf _ | Bi _) -> Some (p.pname, b)
        | _, _ -> None)
      param_bindings
  in
  let run_body = seq (List.concat_map cstmt f.body) in
  let fl_init = Array.make (max !nfl 1) 0. in
  Hashtbl.iter (fun key slot -> fl_init.(slot) <- Int64.float_of_bits key) consts;
  {
    cfunc = f;
    run_body;
    fl_init;
    nit = !nit;
    nfa = !nfa;
    nia = !nia;
    out_scalars;
    param_bindings;
    default_counter = counter;
  }

let run ?counter ?sink:s t (args : Interp.arg list) : Interp.result =
  if List.length args <> List.length t.param_bindings then
    fail "function %S expects %d arguments, got %d" t.cfunc.fname
      (List.length t.param_bindings)
      (List.length args);
  let env =
    {
      fl = Array.copy t.fl_init;
      it = Array.make (max t.nit 1) 0;
      fa = Array.make (max t.nfa 1) [||];
      ia = Array.make (max t.nia 1) [||];
      fstack = Growable.Float.create ();
      istack = Growable.Int.create ();
      counter =
        (match (counter, t.default_counter) with
        | Some c, _ -> c
        | None, Some c -> c
        | None, None ->
            (* metered compilation run without a counter: charge into a
               fresh private accumulator (kept per-run so concurrent
               domains never share one) *)
            Cost.Counter.create Cost.default);
      sink = (match s with Some s -> s | None -> sink 0);
    }
  in
  List.iter2
    (fun (p, b) arg ->
      match (b, arg) with
      | Bf (slot, fmt), Interp.Aflt x -> env.fl.(slot) <- Fp.round fmt x
      | Bi slot, Interp.Aint n -> env.it.(slot) <- n
      | Bfa (slot, fmt), Interp.Afarr a ->
          env.fa.(slot) <-
            (if Fp.equal_format fmt Fp.F64 then a
             else Array.map (Fp.round fmt) a)
      | Bia slot, Interp.Aiarr a -> env.ia.(slot) <- a
      | _, _ -> fail "argument kind mismatch for parameter %S" p.pname)
    t.param_bindings args;
  let ret =
    try
      t.run_body env;
      None
    with
    | Creturn_f x when Float.is_nan x && t.cfunc.ret = None -> None
    | Creturn_f x -> Some (Builtins.F x)
    | Creturn_i n -> Some (Builtins.I n)
    | Invalid_argument m ->
        (* slots index without checks: a bad array index or an empty
           stack surfaces here, once per run *)
        raise
          (Interp.Runtime_error
             (Printf.sprintf "%s in function %S" m t.cfunc.fname))
  in
  let outs =
    List.map
      (fun (name, b) ->
        match b with
        | Bf (slot, _) -> (name, Builtins.F env.fl.(slot))
        | Bi slot -> (name, Builtins.I env.it.(slot))
        | Bfa _ | Bia _ -> assert false)
      t.out_scalars
  in
  {
    Interp.ret;
    outs;
    stack_peak_bytes =
      (Growable.Float.peak_length env.fstack * 8)
      + (Growable.Int.peak_length env.istack * 8);
  }

let run_float ?counter ?sink t args =
  match (run ?counter ?sink t args).Interp.ret with
  | Some (Builtins.F x) -> x
  | _ -> fail "function %S did not return a float" t.cfunc.fname
