open Ast
module Fp = Cheffp_precision.Fp
module Config = Cheffp_precision.Config
module Cost = Cheffp_precision.Cost
module Growable = Cheffp_util.Growable

exception Runtime_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

type arg =
  | Aint of int
  | Aflt of float
  | Afarr of float array
  | Aiarr of int array

let copy_args args =
  List.map
    (function
      | Afarr a -> Afarr (Array.copy a)
      | Aiarr a -> Aiarr (Array.copy a)
      | (Aint _ | Aflt _) as x -> x)
    args

let parse_args func (raw : string list) =
  let f p s =
    match p.pty with
    | Tscalar Sint -> Aint (int_of_string s)
    | Tscalar (Sflt _) -> Aflt (float_of_string s)
    | Tarr (Sflt _) ->
        Afarr
          (Array.of_list (List.map float_of_string (String.split_on_char ':' s)))
    | Tarr Sint ->
        Aiarr (Array.of_list (List.map int_of_string (String.split_on_char ':' s)))
  in
  let params = List.filter (fun p -> p.pmode = In) func.params in
  if List.length params <> List.length raw then
    failwith
      (Printf.sprintf "function %S expects %d arguments, got %d" func.fname
         (List.length params) (List.length raw));
  List.map2 f params raw

type result = {
  ret : Builtins.value option;
  outs : (string * Builtins.value) list;
  stack_peak_bytes : int;
}

let effective_format config scalar name =
  match scalar with
  | Sint -> Fp.F64
  | Sflt declared ->
      if Config.has_override config name then Config.format_of config name
      else if not (Fp.equal_format declared Fp.F64) then declared
      else Config.default_format config

(* ------------------------------------------------------------------ *)
(* Lane-independent helpers: cost metering, checks, integer and       *)
(* comparison arithmetic.                                             *)

let charge_op counter fmt cls =
  match counter with Some c -> Cost.Counter.charge_op c fmt cls | None -> ()

let charge_cast counter =
  match counter with Some c -> Cost.Counter.charge_cast c | None -> ()

let charge_approx counter cls =
  match counter with Some c -> Cost.Counter.charge_approx c cls | None -> ()

let wider a b = if Fp.bits a >= Fp.bits b then a else b
let bool_of b = if b then 1 else 0

let check_index name len i =
  if i < 0 || i >= len then
    fail "index %d out of bounds for %S (length %d)" i name len

let check_arity f n =
  if n <> List.length f.params then
    fail "function %S expects %d arguments, got %d" f.fname
      (List.length f.params) n

let int_binop op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div ->
      if b = 0 then fail "integer division by zero";
      a / b
  | Mod ->
      if b = 0 then fail "integer modulo by zero";
      a mod b
  | Eq -> bool_of (a = b)
  | Ne -> bool_of (a <> b)
  | Lt -> bool_of (a < b)
  | Le -> bool_of (a <= b)
  | Gt -> bool_of (a > b)
  | Ge -> bool_of (a >= b)
  | And -> bool_of (a <> 0 && b <> 0)
  | Or -> bool_of (a <> 0 || b <> 0)

let float_compare op (a : float) b =
  bool_of
    (match op with
    | Eq -> a = b
    | Ne -> a <> b
    | Lt -> a < b
    | Le -> a <= b
    | Gt -> a > b
    | Ge -> a >= b
    | Add | Sub | Mul | Div | Mod | And | Or -> assert false)

let default_builtins = lazy (Builtins.create ())

(* ------------------------------------------------------------------ *)
(* The interpreter, over a lane                                       *)

module type LANE = sig
  type t
  type st

  val zero : t
  val of_float : float -> t
  val of_int : int -> t
  val neg : t -> t
  val binop : binop -> t -> t -> t
  val call : st -> string -> Builtins.value array -> t array -> float -> t
  val store : st -> string -> float -> t -> unit
  val decide : st -> int -> unit
end

module Make (L : LANE) = struct
  (* Run-time environment: every float cell carries its lane value. *)
  type fcell = { mutable f : float; fmt : Fp.format; mutable d : L.t }
  type icell = { mutable i : int }
  type farr = { a : float array; afmt : Fp.format; da : L.t array }
  type slot = Sf of fcell | Si of icell | Sfa of farr | Sia of int array

  module Scope = struct
    type t = { mutable frames : (string, slot) Hashtbl.t list }

    let create () = { frames = [ Hashtbl.create 16 ] }
    let push t = t.frames <- Hashtbl.create 8 :: t.frames

    let pop t =
      match t.frames with
      | _ :: (_ :: _ as rest) -> t.frames <- rest
      | _ -> assert false

    let find t name =
      let rec go = function
        | [] -> fail "undeclared variable %S" name
        | frame :: rest -> (
            match Hashtbl.find_opt frame name with
            | Some s -> s
            | None -> go rest)
      in
      go t.frames

    let declare t name slot =
      match t.frames with
      | frame :: _ -> Hashtbl.replace frame name slot
      | [] -> assert false
  end

  type state = {
    prog : program;
    builtins : Builtins.t;
    config : Config.t;
    mode : Config.rounding_mode;
    counter : Cost.Counter.t option;
    lane : L.st;
    fstack : Growable.Float.t;
    lstack : L.t Growable.t;  (* the lanes of [fstack], in step *)
    istack : Growable.Int.t;
    mutable fuel : int;  (* negative = unlimited *)
  }

  exception Return_exn of (Builtins.value * L.t) option

  (* Values flowing through expression evaluation carry the format they
     are "stored in" so that Source-mode rounding can run each operation
     in the width its operands imply, and their lane. *)
  type ev = VI of int | VF of float * Fp.format * L.t

  let lane_of = function VF (_, _, d) -> d | VI n -> L.of_int n

  (* [a op b]: in Source mode the float is rounded to the wider operand
     format and carried in it; the lane never rounds. *)
  let float_binop st op a fa da b fb db =
    let fmt = wider fa fb in
    if not (Fp.equal_format fa fb) then charge_cast st.counter;
    let raw =
      match op with
      | Add -> a +. b
      | Sub -> a -. b
      | Mul -> a *. b
      | Div -> a /. b
      | Mod | Eq | Ne | Lt | Le | Gt | Ge | And | Or -> assert false
    in
    let cls = match op with Div -> Cost.Division | _ -> Cost.Basic in
    let d = L.binop op da db in
    match st.mode with
    | Config.Source ->
        charge_op st.counter fmt cls;
        VF (Fp.round fmt raw, fmt, d)
    | Config.Extended ->
        charge_op st.counter Fp.F64 cls;
        VF (raw, Fp.F64, d)

  let push_int st n = Growable.Int.push st.istack n

  let push_float st x d =
    Growable.Float.push st.fstack x;
    Growable.push st.lstack d

  let check_pop stack_empty lv =
    if stack_empty then
      fail "pop into %s: the value stack is empty"
        (Format.asprintf "%a" Pp.pp_lvalue lv)

  let rec eval st scope e : ev =
    match e with
    | Fconst x -> VF (x, Fp.F64, L.of_float x)
    | Iconst n -> VI n
    | Var v -> (
        match Scope.find scope v with
        | Sf c -> VF (c.f, c.fmt, c.d)
        | Si c -> VI c.i
        | Sfa _ | Sia _ -> fail "array %S used as a scalar" v)
    | Idx (a, i) -> (
        let i = eval_int st scope i in
        match Scope.find scope a with
        | Sfa { a = arr; afmt; da } ->
            check_index a (Array.length arr) i;
            VF (arr.(i), afmt, da.(i))
        | Sia arr ->
            check_index a (Array.length arr) i;
            VI arr.(i)
        | Sf _ | Si _ -> fail "scalar %S indexed as an array" a)
    | Unop (Neg, e) -> (
        match eval st scope e with
        | VI n -> VI (-n)
        | VF (x, fmt, d) ->
            charge_op st.counter
              (match st.mode with Config.Source -> fmt | Config.Extended -> Fp.F64)
              Cost.Basic;
            VF (-.x, fmt, L.neg d))
    | Unop (Not, e) -> VI (bool_of (eval_int st scope e = 0))
    | Binop (op, ea, eb) -> (
        let va = eval st scope ea in
        let vb = eval st scope eb in
        match (op, va, vb) with
        | (Add | Sub | Mul | Div | Mod | Eq | Ne | Lt | Le | Gt | Ge | And | Or),
          VI a, VI b ->
            VI (int_binop op a b)
        | (Add | Sub | Mul | Div), VF (a, fa, da), VF (b, fb, db) ->
            float_binop st op a fa da b fb db
        | (Eq | Ne | Lt | Le | Gt | Ge), VF (a, _, _), VF (b, _, _) ->
            (* decided by the low lane, like every discrete choice *)
            VI (float_compare op a b)
        | _ ->
            fail "kind mismatch in %s" (Pp.expr_to_string (Binop (op, ea, eb))))
    | Call (name, args) -> (
        match Builtins.find st.builtins name with
        | Some (sg, impl) ->
            let evs = List.map (eval st scope) args in
            let widest =
              List.fold_left
                (fun acc ev ->
                  match ev with VF (_, f, _) -> wider acc f | VI _ -> acc)
                (match st.mode with
                | Config.Source -> Fp.F16
                | Config.Extended -> Fp.F64)
                evs
            in
            let widest =
              (* A call with no float arguments is charged at F64. *)
              match
                List.exists (function VF _ -> true | VI _ -> false) evs
              with
              | true -> widest
              | false -> Fp.F64
            in
            let vs =
              Array.of_list
                (List.map
                   (function VI n -> Builtins.I n | VF (x, _, _) -> Builtins.F x)
                   evs)
            in
            if sg.Builtins.approx then charge_approx st.counter sg.Builtins.cls
            else
              charge_op st.counter
                (match st.mode with
                | Config.Source -> widest
                | Config.Extended -> Fp.F64)
                sg.Builtins.cls;
            (match impl vs with
            | Builtins.I n ->
                L.decide st.lane n;
                VI n
            | Builtins.F x -> (
                let d =
                  L.call st.lane name vs (Array.of_list (List.map lane_of evs)) x
                in
                match st.mode with
                | Config.Source -> VF (Fp.round widest x, widest, d)
                | Config.Extended -> VF (x, Fp.F64, d)))
        | None -> (
            let f = func_exn st.prog name in
            match call_func st scope f args with
            | Some (Builtins.I n, _) -> VI n
            | Some (Builtins.F x, d) -> VF (x, Fp.F64, d)
            | None -> fail "void function %S used in an expression" name))

  and eval_int st scope e =
    match eval st scope e with
    | VI n -> n
    | VF _ -> fail "expected an int, got a float in %s" (Pp.expr_to_string e)

  and eval_float st scope e =
    match eval st scope e with
    | VF (x, fmt, d) -> (x, fmt, d)
    | VI _ -> fail "expected a float, got an int in %s" (Pp.expr_to_string e)

  and store st scope lv ev =
    match (Scope.find scope (lvalue_base lv), lv, ev) with
    | Sf c, Lvar name, VF (x, fmt, d) ->
        if not (Fp.equal_format fmt c.fmt) then charge_cast st.counter;
        c.f <- Fp.round c.fmt x;
        c.d <- d;
        L.store st.lane name c.f d
    | Si c, Lvar _, VI n -> c.i <- n
    | Sfa { a; afmt; da }, Lidx (name, ie), VF (x, vfmt, d) ->
        let i = eval_int st scope ie in
        check_index name (Array.length a) i;
        if not (Fp.equal_format vfmt afmt) then charge_cast st.counter;
        a.(i) <- Fp.round afmt x;
        da.(i) <- d;
        L.store st.lane name a.(i) d
    | Sia a, Lidx (name, ie), VI n ->
        let i = eval_int st scope ie in
        check_index name (Array.length a) i;
        a.(i) <- n
    | _, _, _ ->
        fail "kind mismatch storing into %s"
          (Format.asprintf "%a" Pp.pp_lvalue lv)

  and exec st scope stmt =
    if st.fuel = 0 then
      fail "fuel exhausted (infinite loop? raise the fuel limit)";
    if st.fuel > 0 then st.fuel <- st.fuel - 1;
    match stmt with
    | Decl { name; dty; init } -> (
        match dty with
        | Dscalar Sint ->
            Scope.declare scope name (Si { i = 0 });
            Option.iter
              (fun e -> store st scope (Lvar name) (VI (eval_int st scope e)))
              init
        | Dscalar (Sflt _ as s) ->
            let fmt = effective_format st.config s name in
            Scope.declare scope name (Sf { f = 0.; fmt; d = L.zero });
            Option.iter
              (fun e ->
                let x, vfmt, d = eval_float st scope e in
                store st scope (Lvar name) (VF (x, vfmt, d)))
              init
        | Darr (s, size) -> (
            let n = eval_int st scope size in
            if n < 0 then fail "array %S has negative size %d" name n;
            match s with
            | Sint -> Scope.declare scope name (Sia (Array.make n 0))
            | Sflt _ ->
                let afmt = effective_format st.config s name in
                Scope.declare scope name
                  (Sfa { a = Array.make n 0.; afmt; da = Array.make n L.zero })))
    | Assign (lv, e) -> store st scope lv (eval st scope e)
    | If (c, t, e) ->
        let taken = eval_int st scope c <> 0 in
        L.decide st.lane (bool_of taken);
        exec_block st scope (if taken then t else e)
    | For { var; lo; hi; down; body } ->
        let lo = eval_int st scope lo and hi = eval_int st scope hi in
        Scope.push scope;
        let cell = { i = 0 } in
        Scope.declare scope var (Si cell);
        if down then
          for i = hi - 1 downto lo do
            cell.i <- i;
            exec_block st scope body
          done
        else
          for i = lo to hi - 1 do
            cell.i <- i;
            exec_block st scope body
          done;
        Scope.pop scope
    | While (c, body) ->
        let continues () =
          let go = eval_int st scope c <> 0 in
          L.decide st.lane (bool_of go);
          go
        in
        while continues () do
          exec_block st scope body
        done
    | Return None -> raise (Return_exn None)
    | Return (Some e) ->
        let v =
          match eval st scope e with
          | VI n -> (Builtins.I n, L.of_int n)
          | VF (x, _, d) -> (Builtins.F x, d)
        in
        raise (Return_exn (Some v))
    | Call_stmt (name, args) -> (
        match Builtins.find st.builtins name with
        | Some _ -> ignore (eval st scope (Call (name, args)))
        | None ->
            let f = func_exn st.prog name in
            ignore (call_func st scope f args))
    | Push lv -> (
        match (Scope.find scope (lvalue_base lv), lv) with
        | Sf c, Lvar _ -> push_float st c.f c.d
        | Si c, Lvar _ -> push_int st c.i
        | Sfa { a; da; _ }, Lidx (name, ie) ->
            let i = eval_int st scope ie in
            check_index name (Array.length a) i;
            push_float st a.(i) da.(i)
        | Sia a, Lidx (name, ie) ->
            let i = eval_int st scope ie in
            check_index name (Array.length a) i;
            push_int st a.(i)
        | _, _ -> fail "push: kind mismatch")
    | Pop lv -> (
        match (Scope.find scope (lvalue_base lv), lv) with
        | Sf c, Lvar name ->
            check_pop (Growable.Float.is_empty st.fstack) lv;
            c.f <- Growable.Float.pop st.fstack;
            c.d <- Growable.pop st.lstack;
            L.store st.lane name c.f c.d
        | Si c, Lvar _ ->
            check_pop (Growable.Int.is_empty st.istack) lv;
            c.i <- Growable.Int.pop st.istack
        | Sfa { a; da; _ }, Lidx (name, ie) ->
            let i = eval_int st scope ie in
            check_index name (Array.length a) i;
            check_pop (Growable.Float.is_empty st.fstack) lv;
            a.(i) <- Growable.Float.pop st.fstack;
            da.(i) <- Growable.pop st.lstack;
            L.store st.lane name a.(i) da.(i)
        | Sia a, Lidx (name, ie) ->
            let i = eval_int st scope ie in
            check_index name (Array.length a) i;
            check_pop (Growable.Int.is_empty st.istack) lv;
            a.(i) <- Growable.Int.pop st.istack
        | _, _ -> fail "pop: kind mismatch")

  and exec_block st scope stmts =
    Scope.push scope;
    List.iter (exec st scope) stmts;
    Scope.pop scope

  (* Calls [f] with arguments from the caller's scope. [In] scalars are
     copied; [Out] scalars share the caller's cell; arrays always share. *)
  and call_func st caller_scope f args =
    check_arity f (List.length args);
    let callee = Scope.create () in
    List.iter2
      (fun p arg ->
        let slot =
          match (p.pmode, p.pty, arg) with
          | Out, Tscalar _, Var v -> Scope.find caller_scope v
          | Out, Tscalar _, _ ->
              fail "out argument for %S must be a variable" f.fname
          | In, Tscalar Sint, _ -> Si { i = eval_int st caller_scope arg }
          | In, Tscalar (Sflt _ as s), _ ->
              let fmt = effective_format st.config s p.pname in
              let x, vfmt, d = eval_float st caller_scope arg in
              if not (Fp.equal_format vfmt fmt) then charge_cast st.counter;
              Sf { f = Fp.round fmt x; fmt; d }
          | _, Tarr _, Var v -> Scope.find caller_scope v
          | _, Tarr _, _ -> fail "array argument for %S must be a name" f.fname
        in
        Scope.declare callee p.pname slot)
      f.params args;
    try
      List.iter (exec st callee) f.body;
      None
    with Return_exn v -> v

  (* Inputs are rounded to their storage format; their lanes start from
     the caller's unrounded values. *)
  let prepare_args st scope f (args : arg list) =
    check_arity f (List.length args);
    List.iter2
      (fun p arg ->
        let slot =
          match (p.pty, arg) with
          | Tscalar Sint, Aint n -> Si { i = n }
          | Tscalar (Sflt _ as s), Aflt x ->
              let fmt = effective_format st.config s p.pname in
              Sf { f = Fp.round fmt x; fmt; d = L.of_float x }
          | Tarr (Sflt _ as s), Afarr a ->
              let afmt = effective_format st.config s p.pname in
              let da = Array.map L.of_float a in
              if Fp.equal_format afmt Fp.F64 then Sfa { a; afmt; da }
              else
                (* A demoted input array holds rounded values; the
                   caller's array is left untouched. *)
                Sfa { a = Array.map (Fp.round afmt) a; afmt; da }
          | Tarr Sint, Aiarr a -> Sia a
          | _, _ -> fail "argument kind mismatch for parameter %S" p.pname
        in
        Scope.declare scope p.pname slot)
      f.params args

  type result = {
    ret : (Builtins.value * L.t) option;
    outs : (string * Builtins.value * L.t) list;
    stack_peak_bytes : int;
  }

  let run ?builtins ?(config = Config.double) ?(mode = Config.Source) ?counter
      ?(fuel = -1) ~lane ~prog ~func args =
    let builtins =
      match builtins with Some b -> b | None -> Lazy.force default_builtins
    in
    let st =
      {
        prog;
        builtins;
        config;
        mode;
        counter;
        lane;
        fstack = Growable.Float.create ();
        lstack = Growable.create ~dummy:L.zero ();
        istack = Growable.Int.create ();
        fuel;
      }
    in
    let f = func_exn prog func in
    let scope = Scope.create () in
    prepare_args st scope f args;
    let ret =
      try
        List.iter (exec st scope) f.body;
        None
      with Return_exn v -> v
    in
    let outs =
      List.filter_map
        (fun p ->
          match (p.pmode, p.pty) with
          | Out, Tscalar _ -> (
              match Scope.find scope p.pname with
              | Sf c -> Some (p.pname, Builtins.F c.f, c.d)
              | Si c -> Some (p.pname, Builtins.I c.i, L.of_int c.i)
              | Sfa _ | Sia _ -> None)
          | _, _ -> None)
        f.params
    in
    {
      ret;
      outs;
      stack_peak_bytes =
        (Growable.Float.peak_length st.fstack * 8)
        + (Growable.Int.peak_length st.istack * 8);
    }
end

(* ------------------------------------------------------------------ *)
(* The plain interpreter: a lane that carries nothing.                *)

module Plain = Make (struct
  type t = unit
  type st = unit

  let zero = ()
  let of_float _ = ()
  let of_int _ = ()
  let neg () = ()
  let binop _ () () = ()
  let call () _ _ _ _ = ()
  let store () _ _ () = ()
  let decide () _ = ()
end)

let run ?builtins ?config ?mode ?counter ?fuel ~prog ~func args =
  let r =
    Plain.run ?builtins ?config ?mode ?counter ?fuel ~lane:() ~prog ~func args
  in
  {
    ret = Option.map fst r.Plain.ret;
    outs = List.map (fun (name, v, ()) -> (name, v)) r.Plain.outs;
    stack_peak_bytes = r.Plain.stack_peak_bytes;
  }

let run_float ?builtins ?config ?mode ?counter ?fuel ~prog ~func args =
  match (run ?builtins ?config ?mode ?counter ?fuel ~prog ~func args).ret with
  | Some (Builtins.F x) -> x
  | Some (Builtins.I _) -> fail "function %S returned an int" func
  | None -> fail "function %S returned no value" func

let locate ?builtins ~prog ~func args msg =
  match run ?builtins ~prog ~func args with
  | _ -> msg
  | exception Runtime_error located -> located
