(* The slot lowering of MiniFP, written once for both compiled
   executors.

   [Make (E)] lowers a function (already inlined and optimized, see
   [prepare]) to flat [env -> unit] instructions over numbered slots. It
   owns everything the two executors share: scopes and bindings; slot
   allocation for variables, constants and per-statement temporaries;
   call-argument lowering and arity checks; int expressions and
   statement traversal; parameter and [out] bindings; each float node's
   format rule (Source: the wider operand, or the widest float argument
   of a call; Extended: F64); and the charge order. The emitter [E]
   builds the float instructions and the points where a float becomes
   an int. {!Compile} instantiates it with a scalar emitter whose
   formats are resolved against one configuration while it emits;
   {!Batch} with a lane emitter whose formats are rules resolved per
   lane when a run starts.

   One environment type serves both. A run has [k] lanes ([k = 1] for
   a scalar run): float slot [s] of lane [l] is [fl.(s * k + l)], and
   float array slot [s] of lane [l] is [fa.(s * k + l)]. Ints, int
   arrays and the int stack are shared by the lanes; float stacks are
   per lane, and lane 0's also has a field of its own, which saves the
   scalar emitter an array read per push or pop. Only the scalar
   emitter meters: its formats are known while it emits, so a charge is
   a constant, and a run has one cost counter. Lanes carry no cost.
   The value stacks are chunked ({!Cheffp_util.Growable}):
   a run that pushes nothing, as every primal run, allocates no chunk,
   and one that pushes holds its modelled [stack_peak_bytes] plus less
   than one chunk per stack. *)

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

(* The sink of every run whose lowering has no [Record_*] write. It is
   never written: a lowering with such writes gets a sink per run, since
   [iters] would otherwise leak across runs and domains. *)
let no_sink = sink 0

(* The state of a lane run; a scalar run has none. *)
type lanes = {
  fmts : Fp.format array;  (** format rule [r] of lane [l] at [r * k + l] *)
  active : bool array;  (** the lane still executes batched *)
  mutable dropped : int;  (** lanes deactivated by divergence *)
  ints : int array;  (** per-lane ints of a crossing or a mask *)
}

let no_lanes = { fmts = [||]; active = [||]; dropped = 0; ints = [||] }

type env = {
  k : int;  (** lanes: 1 in a scalar run *)
  fl : float array;  (** float slots: variables, constants, temporaries *)
  it : int array;  (** int slots: variables, temporaries *)
  fa : float array array;  (** float array slots *)
  ia : int array array;  (** int array slots *)
  fstacks : Growable.Float.t array;  (** per-lane value stacks *)
  fstack : Growable.Float.t;  (** lane 0's, which a scalar run uses *)
  istack : Growable.Int.t;
  counter : Cost.Counter.t;
      (** the run's cost accumulator: metered compilations charge into
          it, so one compiled value serves many runs (and domains), each
          with its own counter *)
  sink : sink;  (** the run's recording sink, the same way *)
  lanes : lanes;
}

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

(* How a run ended: it fell off the end of the body, or returned the
   value in a float slot (on every lane) or in an int slot. A [return]
   at the end of the body is the body's own ending; any other leaves the
   body by exception. *)
type ending = Fell_off | Returned_f of int | Returned_i of int

exception Return of ending

type 'fmt binding =
  | Bf of int * 'fmt
  | Bi of int
  | Bfa of int * 'fmt
  | Bia of int

(* Compile-time scope: stack of frames mapping names to bindings. *)
type 'fmt scope = { mutable frames : (string * 'fmt binding) list list }

let scope_find_opt sc name = List.find_map (List.assoc_opt name) sc.frames

let scope_find sc name =
  match scope_find_opt sc name with
  | Some b -> b
  | None -> fail "undeclared variable %S" name

let scope_push sc = sc.frames <- [] :: sc.frames

let scope_pop sc =
  match sc.frames with _ :: rest -> sc.frames <- rest | [] -> assert false

let scope_declare sc name b =
  match sc.frames with
  | frame :: rest -> sc.frames <- ((name, b) :: frame) :: rest
  | [] -> assert false

(* Typing view of the scope, for [Typecheck.expr_kind] queries, which
   ask only float or int. *)
let lookup_ty sc name =
  match scope_find_opt sc name with
  | Some (Bf _) -> Some (Tscalar (Sflt Fp.F64))
  | Some (Bi _) -> Some (Tscalar Sint)
  | Some (Bfa _) -> Some (Tarr (Sflt Fp.F64))
  | Some (Bia _) -> Some (Tarr Sint)
  | None -> None

(* A lowered float expression: its instructions in execution order, the
   slot its value ends up in, its format, and whether that value was
   just rounded to the format (so a store to the same format need not
   round it again). *)
type 'fmt fval = { code : instr list; at : int; fmt : 'fmt; rounded : bool }

(* A lowered call argument; an int argument is read by the call's final
   instruction. *)
type 'fmt arg = Af of 'fmt fval | Ai of (env -> int)

module type EMITTER = sig
  type fmt
  (** A float node's format. *)

  type st
  (** Per-compilation emitter state. *)

  val f64 : fmt

  val same : fmt -> fmt -> bool
  (** The two formats agree on every lane, whatever the configuration. *)

  val var_fmt : st -> Ast.scalar -> string -> fmt
  (** Storage format of a float variable or array. *)

  val wider : st -> fmt -> fmt -> fmt

  val predicated : bool
  (** Lower float-only [if]s to per-lane masks (see [Make]). *)

  (* Float instructions, destination slot first: [move fmt d src] is
     [d <- round fmt src], [load d a i] is [d <- a.(i)] and
     [store_elem fmt a i src] is [a.(i) <- round fmt src]. *)
  val move : fmt -> int -> int -> instr
  val neg : int -> int -> instr
  val arith : binop -> fmt -> int -> int -> int -> instr
  val load : int -> int -> (env -> int) -> instr
  val store_elem : fmt -> int -> (env -> int) -> int -> instr

  val zero : int -> instr
  val alloc : int -> (env -> int) -> instr
  val push : int -> instr
  val pop : int -> instr
  val push_elem : int -> (env -> int) -> instr
  val pop_elem : int -> (env -> int) -> instr

  (* Float intrinsics, each given its destination. *)
  val unary : Builtins.prim -> int -> int -> instr
  val pow : int -> int -> int -> instr
  val fma : int -> int -> int -> int -> instr
  val select : int -> (env -> int) -> int -> int -> instr
  val itof : int -> (env -> int) -> instr
  val fast1 : (float -> float) -> int -> int -> instr
  val fast2 : (float -> float -> float) -> int -> int -> int -> instr
  val generic : Builtins.impl -> fmt arg list -> int -> instr

  val record : Builtins.prim -> fmt arg list -> (int * instr) option
  (** A [Record_*] call as a write into the run's sink: the slot of its
      result (its float argument) and the write. *)

  (* Where a float becomes an int; [pre] computes the operands. *)
  val fcmp : binop -> instr -> int -> int -> env -> int
  val ftoi : instr -> int -> env -> int
  val int_call : instr -> Builtins.impl -> fmt arg list -> env -> int

  (* Predicated [if]s, when [predicated]. *)
  val mask : binop -> instr -> int -> int -> instr
  val masked_store : int -> fmt -> int -> int -> instr
end

(* A lowered function: its body, the constants in their slots (zeros
   elsewhere), the slot counts, its parameters' bindings, and whether
   its runs use a counter or a sink. *)
type 'fmt lowered = {
  func : Ast.func;
  body : instr;
  ends : ending;  (** how the body ends when it runs to completion *)
  meter : bool;  (** the body charges the run's counter *)
  records : bool;  (** the body writes the run's sink *)
  consts : float array;
  nit : int;
  nfa : int;
  nia : int;
  params : (Ast.param * 'fmt binding) list;
  outs : (string * 'fmt binding) list;  (** scalar [out] parameters *)
}

(* The function as the executors lower it: user calls inlined, then
   optimized with [opaque] variables kept out of value forwarding. *)
let prepare ~opaque ~optimize prog func =
  let f = func_exn prog func in
  let f = if Inline.has_user_calls prog f then Inline.inline_func prog f else f in
  if optimize then Optimize.optimize_func ~opaque f else f

module Make (E : EMITTER) = struct
  (* [meter], when given, is a node's format on every run: only an
     emitter that resolves formats while it emits, the scalar one, has
     it, and a lowering with it charges the run's counter. *)
  let lower st ~builtins ~mode ?meter ~prog (f : Ast.func) : E.fmt lowered =
    let nfl = ref 0 and nit = ref 0 and nfa = ref 0 and nia = ref 0 in
    let fresh r () = let i = !r in incr r; i in
    let fresh_f = fresh nfl and fresh_i = fresh nit in
    let fresh_fa = fresh nfa and fresh_ia = fresh nia in
    let sc = { frames = [ [] ] } in
    let records = ref false in

    (* Constants live in slots of their own, preset by the runner. *)
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
    (* Temporaries are recycled per statement: the k-th temporary of
       every statement shares one slot, so a run grows only by the
       temporaries of the largest statement. A statement's temporaries
       are dead once it finishes, and a compound statement's own
       expressions are evaluated before its children run. *)
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

    (* Charges are instructions of their own, in expression-tree
       evaluation order: an operation's charges precede its operands'
       code, the right operand's before the left's. So a total does not
       depend on how the tree is lowered. *)
    let charges k = [ (fun env -> Cost.Counter.charge env.counter k) ] in
    let charge_op fmt cls =
      match meter with
      | Some format -> charges (Cost.op_charge (format fmt) cls)
      | None -> []
    in
    let charge_cast a b =
      if meter <> None && not (E.same a b) then charges Cost.cast_charge else []
    in
    let op_fmt fmt = match mode with Config.Source -> fmt | Config.Extended -> E.f64 in

    (* fexpr : expr -> fval, with [dst] the slot the value should land
       in if it is computed (a [Var] or constant stays where it is).
       ci : expr -> env -> int *)
    let rec fexpr ?dst e : E.fmt fval =
      let target () = match dst with Some d -> d | None -> fresh_ftmp () in
      match e with
      | Fconst x -> { code = []; at = const_slot x; fmt = E.f64; rounded = false }
      | Iconst _ ->
          fail "integer expression %s where a float is required"
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
              { code = [ E.load d slot gi ]; at = d; fmt; rounded = false }
          | Bia _ -> fail "int array %S used as float" a
          | Bf _ | Bi _ -> fail "scalar %S indexed" a)
      | Unop (Neg, e) ->
          (* Negation keeps its operand's format and never rounds. *)
          let v = fexpr e in
          let d = target () in
          {
            v with
            code = charge_op (op_fmt v.fmt) Cost.Basic @ v.code @ [ E.neg d v.at ];
            at = d;
          }
      | Unop (Not, _) -> fail "logical not yields an int"
      | Binop ((Add | Sub | Mul | Div) as op, a, b) ->
          (* An int operand fails in [fexpr] itself. *)
          let va = fexpr a in
          let vb = fexpr b in
          let fmt = op_fmt (E.wider st va.fmt vb.fmt) in
          let cls = match op with Div -> Cost.Division | _ -> Cost.Basic in
          let d = target () in
          (* The right operand is evaluated first, as OCaml evaluates the
             operands of a primitive. *)
          {
            code =
              charge_op fmt cls @ charge_cast va.fmt vb.fmt @ vb.code @ va.code
              @ [ E.arith op fmt d va.at vb.at ];
            at = d;
            fmt;
            rounded = not (E.same fmt E.f64);
          }
      | Binop _ ->
          fail "integer expression used as float: %s" (Pp.expr_to_string e)
      | Call (name, args) -> (
          match Builtins.find builtins name with
          | None -> fail "user call %S survived inlining" name
          | Some (sg, impl) ->
              if sg.Builtins.ret <> Builtins.Kflt then
                fail "intrinsic %S yields an int, used as float" name;
              call target name sg impl args)

    (* A call's arguments: the code of every float argument, and of every
       int argument that may charge or call, runs before the call's final
       instruction, in argument evaluation order (right to left for a
       two-float intrinsic, as for an OCaml application; left to right
       otherwise). Pure int arguments are read by the final instruction. *)
    and lower_args ~rtl name sg args : instr list * E.fmt arg list =
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
                  ( [ (fun env -> env.it.(t) <- g env) ],
                    Ai (fun env -> env.it.(t)) ))
          sg.Builtins.args args
      in
      let codes = List.map fst lowered in
      (List.concat (if rtl then List.rev codes else codes), List.map snd lowered)

    and call target name sg impl args : E.fmt fval =
      let rtl = Builtins.fast2 builtins name <> None in
      let code, largs = lower_args ~rtl name sg args in
      let widest =
        match List.filter_map (function Af v -> Some v.fmt | Ai _ -> None) largs with
        | [] -> E.f64
        | f :: rest -> List.fold_left (E.wider st) f rest
      in
      let fmt = op_fmt widest in
      let charge =
        match meter with
        | Some _ when sg.Builtins.approx ->
            charges (Cost.approx_charge sg.Builtins.cls)
        | _ -> charge_op fmt sg.Builtins.cls
      in
      (* [at, op, own]: where the result lands, the instruction computing
         it, and whether [at] is a slot of this call's own rather than an
         argument's. *)
      let computed mk = let d = target () in (d, mk d, true) in
      let prim =
        match (Builtins.prim builtins name, largs) with
        | ( Some
              (( Sin | Cos | Tan | Exp | Log | Log10 | Sqrt | Tanh | Atan | Fabs
               | Floor | Ceil | Castf32 ) as p),
            [ Af a ] ) ->
            Some (computed (fun d -> E.unary p d a.at))
        | Some Pow, [ Af a; Af b ] -> Some (computed (fun d -> E.pow d a.at b.at))
        | Some Fma, [ Af a; Af b; Af c ] ->
            Some (computed (fun d -> E.fma d a.at b.at c.at))
        | Some Select, [ Ai c; Af a; Af b ] ->
            Some (computed (fun d -> E.select d c a.at b.at))
        | Some Itof, [ Ai g ] -> Some (computed (fun d -> E.itof d g))
        | Some p, _ ->
            Option.map
              (fun (at, op) ->
                records := true;
                (at, op, false))
              (E.record p largs)
        | None, _ -> None
      in
      let at, op, own =
        match prim with
        | Some r -> r
        | None -> (
            match (Builtins.fast1 builtins name, Builtins.fast2 builtins name, largs) with
            | Some g, _, [ Af a ] -> computed (fun d -> E.fast1 g d a.at)
            | _, Some g, [ Af a; Af b ] -> computed (fun d -> E.fast2 g d a.at b.at)
            | _ -> computed (E.generic impl largs))
      in
      let code = charge @ code @ [ op ] in
      if E.same fmt E.f64 then { code; at; fmt = E.f64; rounded = false }
      else
        let d = if own then at else target () in
        { code = code @ [ E.move fmt d at ]; at = d; fmt; rounded = true }

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
          | _ ->
              let va = fexpr a in
              let vb = fexpr b in
              E.fcmp op (seq (vb.code @ va.code)) va.at vb.at)
      | Call (name, args) -> (
          match Builtins.find builtins name with
          | None -> fail "user call %S survived inlining" name
          | Some (sg, impl) -> (
              if sg.Builtins.ret <> Builtins.Kint then
                fail "intrinsic %S yields a float, used as int" name;
              let code, largs = lower_args ~rtl:false name sg args in
              let pre = seq code in
              match (Builtins.prim builtins name, largs) with
              | Some Ftoi, [ Af a ] -> E.ftoi pre a.at
              | _ when List.exists (function Af _ -> true | Ai _ -> false) largs ->
                  E.int_call pre impl largs
              | _ ->
                  let getters =
                    Array.of_list
                      (List.map
                         (function Ai g -> g | Af _ -> assert false)
                         largs)
                  in
                  fun env ->
                    pre env;
                    Builtins.as_int
                      (impl (Array.map (fun g -> Builtins.I (g env)) getters))))
    in

    (* Store [e] into a variable of format [fmt]: a cast when the formats
       differ, then the value rounded to [fmt] unless it just was. *)
    let needs_round fmt v =
      not (E.same fmt E.f64 || (v.rounded && E.same v.fmt fmt))
    in
    let store_var slot fmt e : instr list =
      let v = fexpr ~dst:slot e in
      let round = needs_round fmt v in
      let finish =
        if v.at <> slot then [ E.move (if round then fmt else E.f64) slot v.at ]
        else if round then [ E.move fmt slot slot ]
        else []
      in
      charge_cast fmt v.fmt @ v.code @ finish
    in
    let store_elem slot fmt gi e : instr list =
      let v = fexpr e in
      charge_cast fmt v.fmt @ v.code
      @ [ E.store_elem (if needs_round fmt v then fmt else E.f64) slot gi v.at ]
    in

    (* Predicated float-only branches (when [E.predicated]). An [if]
       whose condition is a float comparison of total expressions and
       whose branches only assign float scalars through total
       expressions (constants, float variables, negation, +,-,*,/: pure,
       no crossing into ints, and IEEE arithmetic never traps) keeps
       every lane's own outcome: the condition becomes a per-lane mask
       and each branch store fires only on the lanes it matches. The
       not-taken side's values are never stored, so there is no
       divergence. Only the lane emitter predicates, and lanes carry no
       cost, so no charge is made for the not-taken side. *)
    let rec predicable_fexpr e =
      match e with
      | Fconst _ -> true
      | Var v -> (
          match scope_find_opt sc v with Some (Bf _) -> true | _ -> false)
      | Unop (Neg, e) -> predicable_fexpr e
      | Binop ((Add | Sub | Mul | Div), a, b) ->
          predicable_fexpr a && predicable_fexpr b
      | _ -> false
    in
    let predicable_stmt = function
      | Assign (Lvar v, e) -> (
          match scope_find_opt sc v with
          | Some (Bf _) -> predicable_fexpr e
          | _ -> false)
      | _ -> false
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
          let fmt = E.var_fmt st s name in
          let slot = fresh_f () in
          scope_declare sc name (Bf (slot, fmt));
          match init with
          | None -> [ E.zero slot ]
          | Some e -> store_var slot fmt e)
      | Decl { name; dty = Darr (Sint, size); init = _ } ->
          let gn = ci size in
          let slot = fresh_ia () in
          scope_declare sc name (Bia slot);
          [ (fun env -> env.ia.(slot) <- Array.make (gn env) 0) ]
      | Decl { name; dty = Darr ((Sflt _ as s), size); init = _ } ->
          let fmt = E.var_fmt st s name in
          let gn = ci size in
          let slot = fresh_fa () in
          scope_declare sc name (Bfa (slot, fmt));
          [ E.alloc slot gn ]
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
      | If (Binop (((Eq | Ne | Lt | Le | Gt | Ge) as op), a, b), t, e)
        when E.predicated && predicable_fexpr a && predicable_fexpr b
             && List.for_all predicable_stmt t
             && List.for_all predicable_stmt e ->
          let va = fexpr a in
          let vb = fexpr b in
          let branch sense = function
            | Assign (Lvar v, e) -> (
                match scope_find sc v with
                | Bf (slot, fmt) ->
                    let x = fexpr e in
                    x.code @ [ E.masked_store sense fmt slot x.at ]
                | _ -> assert false)
            | _ -> assert false
          in
          (E.mask op (seq (vb.code @ va.code)) va.at vb.at
          :: List.concat_map (branch 1) t)
          @ List.concat_map (branch 0) e
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
      | Return r ->
          let code, ending = returned r in
          let r = Return ending in
          code @ [ (fun _ -> raise r) ]
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
          | Bf (slot, _) -> [ E.push slot ]
          | Bi slot -> [ (fun env -> Growable.Int.push env.istack env.it.(slot)) ]
          | Bfa _ | Bia _ -> fail "cannot push whole array %S" v)
      | Push (Lidx (a, ie)) -> (
          let gi = ci ie in
          match scope_find sc a with
          | Bfa (slot, _) -> [ E.push_elem slot gi ]
          | Bia slot ->
              [ (fun env -> Growable.Int.push env.istack env.ia.(slot).(gi env)) ]
          | Bf _ | Bi _ -> fail "scalar %S indexed" a)
      | Pop (Lvar v) -> (
          match scope_find sc v with
          | Bf (slot, _) -> [ E.pop slot ]
          | Bi slot -> [ (fun env -> env.it.(slot) <- Growable.Int.pop env.istack) ]
          | Bfa _ | Bia _ -> fail "cannot pop whole array %S" v)
      | Pop (Lidx (a, ie)) -> (
          let gi = ci ie in
          match scope_find sc a with
          | Bfa (slot, _) -> [ E.pop_elem slot gi ]
          | Bia slot ->
              [ (fun env -> env.ia.(slot).(gi env) <- Growable.Int.pop env.istack) ]
          | Bf _ | Bi _ -> fail "scalar %S indexed" a)
    and cblock stmts : instr =
      scope_push sc;
      let code = List.concat_map cstmt stmts in
      scope_pop sc;
      seq code
    (* The code computing a return's value, and where it lands. *)
    and returned r : instr list * ending =
      match r with
      | None -> ([], Returned_f (const_slot Float.nan))
      | Some e -> (
          match Typecheck.expr_kind ~builtins prog (lookup_ty sc) e with
          | exception Typecheck.Error m -> fail "%s" m
          | Typecheck.Escalar Builtins.Kint ->
              let g = ci e and slot = fresh_i () in
              ([ (fun env -> env.it.(slot) <- g env) ], Returned_i slot)
          | _ ->
              let v = fexpr e in
              (v.code, Returned_f v.at))
    in

    let params =
      List.map
        (fun p ->
          let b =
            match p.pty with
            | Tscalar Sint -> Bi (fresh_i ())
            | Tscalar (Sflt _ as s) -> Bf (fresh_f (), E.var_fmt st s p.pname)
            | Tarr (Sflt _ as s) -> Bfa (fresh_fa (), E.var_fmt st s p.pname)
            | Tarr Sint -> Bia (fresh_ia ())
          in
          scope_declare sc p.pname b;
          (p, b))
        f.params
    in
    let outs =
      List.filter_map
        (fun (p, b) ->
          match (p.pmode, b) with
          | Out, (Bf _ | Bi _) -> Some (p.pname, b)
          | _, _ -> None)
        params
    in
    let body, ends =
      match List.rev f.body with
      | Return r :: rest ->
          let code = List.concat_map cstmt (List.rev rest) in
          reset_ftmps ();
          reset_itmps ();
          let rcode, ending = returned r in
          (seq (code @ rcode), ending)
      | _ -> (seq (List.concat_map cstmt f.body), Fell_off)
    in
    let consts_init = Array.make (max !nfl 1) 0. in
    Hashtbl.iter
      (fun key slot -> consts_init.(slot) <- Int64.float_of_bits key)
      consts;
    {
      func = f;
      body;
      ends;
      meter = meter <> None;
      records = !records;
      consts = consts_init;
      nit = !nit;
      nfa = !nfa;
      nia = !nia;
      params;
      outs;
    }
end

(* ------------------------------------------------------------------ *)
(* Running. *)

let check_arity t args =
  if List.compare_lengths args t.params <> 0 then
    fail "function %S expects %d arguments, got %d" t.func.fname
      (List.length t.params) (List.length args)

(* The counter of every run without one of its own that charges
   nothing: an unmetered lowering's, and every lane run's. *)
let no_counter = Cost.Counter.create Cost.default

(* A fresh environment with one lane per value stack, constants
   preset. *)
let env t ~fstacks ~counter ~sink ~lanes =
  let k = Array.length fstacks in
  let fl =
    if k = 1 then Array.copy t.consts
    else begin
      let fl = Array.create_float (Array.length t.consts * k) in
      Array.iteri (fun s x -> Array.fill fl (s * k) k x) t.consts;
      fl
    end
  in
  {
    k;
    fl;
    it = Array.make (max t.nit 1) 0;
    fa = Array.make (max t.nfa 1 * k) [||];
    ia = Array.make (max t.nia 1) [||];
    fstacks;
    fstack = fstacks.(0);
    istack = Growable.Int.create ();
    counter;
    sink;
    lanes;
  }

let failed t m =
  raise (Interp.Runtime_error (Printf.sprintf "%s in function %S" m t.func.fname))

(* Runs the body. Slots, arrays and stacks are indexed without checks of
   their own, and int division is OCaml's: a bad index, an empty stack,
   a sink too small or a zero divisor surfaces here, once per run, as a
   runtime error naming the function. Both executors run through here. *)
let execute t env =
  match t.body env with
  | () -> t.ends
  | exception Return ending -> ending
  | exception Invalid_argument m -> failed t m
  | exception Division_by_zero -> failed t "division by zero"

(* Lane [l]'s result. *)
let result t env ending l : Interp.result =
  let k = env.k in
  let ret =
    match ending with
    | Fell_off -> None
    | Returned_f slot ->
        let x = env.fl.((slot * k) + l) in
        if Float.is_nan x && t.func.ret = None then None else Some (Builtins.F x)
    | Returned_i slot -> Some (Builtins.I env.it.(slot))
  in
  let outs =
    List.map
      (fun (name, b) ->
        match b with
        | Bf (slot, _) -> (name, Builtins.F env.fl.((slot * k) + l))
        | Bi slot -> (name, Builtins.I env.it.(slot))
        | Bfa _ | Bia _ -> assert false)
      t.outs
  in
  {
    Interp.ret;
    outs;
    stack_peak_bytes =
      (Growable.Float.peak_length env.fstacks.(l) * 8)
      + (Growable.Int.peak_length env.istack * 8);
  }
