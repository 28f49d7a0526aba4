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
(* Run-time environment                                               *)

type fcell = { mutable f : float; fmt : Fp.format }
type icell = { mutable i : int }
type farr = { a : float array; afmt : Fp.format }

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
  fstack : Growable.Float.t;
  istack : int Growable.t;
  mutable ipeak : int;
  mutable fuel : int;  (* negative = unlimited *)
}

exception Return_exn of Builtins.value option

(* Values flowing through expression evaluation carry the format they are
   "stored in" so that Source-mode rounding can run each operation in the
   width its operands imply. Integers use [VI]. *)
type ev = VI of int | VF of float * Fp.format

let wider a b = if Fp.bits a >= Fp.bits b then a else b

let charge_op st fmt cls =
  match st.counter with
  | Some c -> Cost.Counter.charge_op c fmt cls
  | None -> ()

let charge_cast st =
  match st.counter with Some c -> Cost.Counter.charge_cast c | None -> ()

let charge_approx st cls =
  match st.counter with
  | Some c -> Cost.Counter.charge_approx c cls
  | None -> ()

let float_binop st op a fa b fb =
  let fmt = wider fa fb in
  if not (Fp.equal_format fa fb) then charge_cast st;
  let raw =
    match op with
    | Add -> a +. b
    | Sub -> a -. b
    | Mul -> a *. b
    | Div -> a /. b
    | Mod -> fail "%% applied to floats"
    | Eq | Ne | Lt | Le | Gt | Ge | And | Or -> assert false
  in
  match st.mode with
  | Config.Source ->
      let cls = match op with Div -> Cost.Division | _ -> Cost.Basic in
      charge_op st fmt cls;
      VF (Fp.round fmt raw, fmt)
  | Config.Extended ->
      let cls = match op with Div -> Cost.Division | _ -> Cost.Basic in
      charge_op st Fp.F64 cls;
      VF (raw, Fp.F64)

let bool_of b = if b then 1 else 0

let rec eval st scope e : ev =
  match e with
  | Fconst x -> VF (x, Fp.F64)
  | Iconst n -> VI n
  | Var v -> (
      match Scope.find scope v with
      | Sf c -> VF (c.f, c.fmt)
      | Si c -> VI c.i
      | Sfa _ | Sia _ -> fail "array %S used as a scalar" v)
  | Idx (a, i) -> (
      let i = eval_int st scope i in
      match Scope.find scope a with
      | Sfa { a = arr; afmt = fmt } ->
          if i < 0 || i >= Array.length arr then
            fail "index %d out of bounds for %S (length %d)" i a
              (Array.length arr);
          VF (arr.(i), fmt)
      | Sia arr ->
          if i < 0 || i >= Array.length arr then
            fail "index %d out of bounds for %S (length %d)" i a
              (Array.length arr);
          VI arr.(i)
      | Sf _ | Si _ -> fail "scalar %S indexed as an array" a)
  | Unop (Neg, e) -> (
      match eval st scope e with
      | VI n -> VI (-n)
      | VF (x, fmt) ->
          charge_op st
            (match st.mode with Config.Source -> fmt | Config.Extended -> Fp.F64)
            Cost.Basic;
          VF (-.x, fmt))
  | Unop (Not, e) -> VI (bool_of (eval_int st scope e = 0))
  | Binop (op, ea, eb) -> (
      let va = eval st scope ea in
      let vb = eval st scope eb in
      match (op, va, vb) with
      | (Add | Sub | Mul | Div | Mod), VI a, VI b -> (
          match op with
          | Add -> VI (a + b)
          | Sub -> VI (a - b)
          | Mul -> VI (a * b)
          | Div ->
              if b = 0 then fail "integer division by zero";
              VI (a / b)
          | Mod ->
              if b = 0 then fail "integer modulo by zero";
              VI (a mod b)
          | _ -> assert false)
      | (Add | Sub | Mul | Div), VF (a, fa), VF (b, fb) ->
          float_binop st op a fa b fb
      | (Eq | Ne | Lt | Le | Gt | Ge), VI a, VI b ->
          VI
            (bool_of
               (match op with
               | Eq -> a = b
               | Ne -> a <> b
               | Lt -> a < b
               | Le -> a <= b
               | Gt -> a > b
               | Ge -> a >= b
               | _ -> assert false))
      | (Eq | Ne | Lt | Le | Gt | Ge), VF (a, _), VF (b, _) ->
          VI
            (bool_of
               (match op with
               | Eq -> a = b
               | Ne -> a <> b
               | Lt -> a < b
               | Le -> a <= b
               | Gt -> a > b
               | Ge -> a >= b
               | _ -> assert false))
      | (And | Or), VI a, VI b ->
          VI
            (bool_of
               (match op with
               | And -> a <> 0 && b <> 0
               | Or -> a <> 0 || b <> 0
               | _ -> assert false))
      | _ ->
          fail "kind mismatch in %s" (Pp.expr_to_string (Binop (op, ea, eb))))
  | Call (name, args) -> (
      match Builtins.find st.builtins name with
      | Some (sg, impl) ->
          let evs = List.map (eval st scope) args in
          let widest =
            List.fold_left
              (fun acc ev ->
                match ev with VF (_, f) -> wider acc f | VI _ -> acc)
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
            List.map
              (function VI n -> Builtins.I n | VF (x, _) -> Builtins.F x)
              evs
          in
          if sg.Builtins.approx then charge_approx st sg.Builtins.cls
          else
            charge_op st
              (match st.mode with
              | Config.Source -> widest
              | Config.Extended -> Fp.F64)
              sg.Builtins.cls;
          (match impl (Array.of_list vs) with
          | Builtins.I n -> VI n
          | Builtins.F x -> (
              match st.mode with
              | Config.Source -> VF (Fp.round widest x, widest)
              | Config.Extended -> VF (x, Fp.F64)))
      | None -> (
          let f = func_exn st.prog name in
          match call_func st scope f args with
          | Some (Builtins.I n) -> VI n
          | Some (Builtins.F x) -> VF (x, Fp.F64)
          | None -> fail "void function %S used in an expression" name))

and eval_int st scope e =
  match eval st scope e with
  | VI n -> n
  | VF _ -> fail "expected an int, got a float in %s" (Pp.expr_to_string e)

and eval_float st scope e =
  match eval st scope e with
  | VF (x, fmt) -> (x, fmt)
  | VI _ -> fail "expected a float, got an int in %s" (Pp.expr_to_string e)

and store st scope lv ev =
  match (Scope.find scope (lvalue_base lv), lv, ev) with
  | Sf c, Lvar _, VF (x, fmt) ->
      if not (Fp.equal_format fmt c.fmt) then charge_cast st;
      c.f <- Fp.round c.fmt x
  | Si c, Lvar _, VI n -> c.i <- n
  | Sfa { a; afmt = fmt }, Lidx (name, ie), VF (x, vfmt) ->
      let i = eval_int st scope ie in
      if i < 0 || i >= Array.length a then
        fail "index %d out of bounds for %S (length %d)" i name (Array.length a);
      if not (Fp.equal_format vfmt fmt) then charge_cast st;
      a.(i) <- Fp.round fmt x
  | Sia a, Lidx (name, ie), VI n ->
      let i = eval_int st scope ie in
      if i < 0 || i >= Array.length a then
        fail "index %d out of bounds for %S (length %d)" i name (Array.length a);
      a.(i) <- n
  | _, _, _ ->
      fail "kind mismatch storing into %s" (Format.asprintf "%a" Pp.pp_lvalue lv)

and exec st scope stmt =
  if st.fuel = 0 then
    fail "fuel exhausted (infinite loop? raise the fuel limit)";
  if st.fuel > 0 then st.fuel <- st.fuel - 1;
  match stmt with
  | Decl { name; dty; init } -> (
      match dty with
      | Dscalar Sint ->
          let c = Si { i = 0 } in
          Scope.declare scope name c;
          Option.iter
            (fun e -> store st scope (Lvar name) (VI (eval_int st scope e)))
            init
      | Dscalar (Sflt _ as s) ->
          let fmt = effective_format st.config s name in
          Scope.declare scope name (Sf { f = 0.; fmt });
          Option.iter
            (fun e ->
              let x, vfmt = eval_float st scope e in
              store st scope (Lvar name) (VF (x, vfmt)))
            init
      | Darr (Sint, size) ->
          let n = eval_int st scope size in
          if n < 0 then fail "array %S has negative size %d" name n;
          Scope.declare scope name (Sia (Array.make n 0))
      | Darr ((Sflt _ as s), size) ->
          let n = eval_int st scope size in
          if n < 0 then fail "array %S has negative size %d" name n;
          let fmt = effective_format st.config s name in
          Scope.declare scope name (Sfa { a = Array.make n 0.; afmt = fmt }))
  | Assign (lv, e) -> store st scope lv (eval st scope e)
  | If (c, t, e) ->
      let branch = if eval_int st scope c <> 0 then t else e in
      exec_block st scope branch
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
      while eval_int st scope c <> 0 do
        exec_block st scope body
      done
  | Return None -> raise (Return_exn None)
  | Return (Some e) ->
      let v =
        match eval st scope e with
        | VI n -> Builtins.I n
        | VF (x, _) -> Builtins.F x
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
      | Sf c, Lvar _ -> Growable.Float.push st.fstack c.f
      | Si c, Lvar _ ->
          Growable.push st.istack c.i;
          if Growable.length st.istack > st.ipeak then
            st.ipeak <- Growable.length st.istack
      | Sfa { a; afmt = _ }, Lidx (_, ie) ->
          Growable.Float.push st.fstack a.(eval_int st scope ie)
      | Sia a, Lidx (_, ie) ->
          Growable.push st.istack a.(eval_int st scope ie);
          if Growable.length st.istack > st.ipeak then
            st.ipeak <- Growable.length st.istack
      | _, _ -> fail "push: kind mismatch")
  | Pop lv -> (
      match (Scope.find scope (lvalue_base lv), lv) with
      | Sf c, Lvar _ -> c.f <- Growable.Float.pop st.fstack
      | Si c, Lvar _ -> c.i <- Growable.pop st.istack
      | Sfa { a; afmt = _ }, Lidx (_, ie) ->
          a.(eval_int st scope ie) <- Growable.Float.pop st.fstack
      | Sia a, Lidx (_, ie) -> a.(eval_int st scope ie) <- Growable.pop st.istack
      | _, _ -> fail "pop: kind mismatch")

and exec_block st scope stmts =
  Scope.push scope;
  List.iter (exec st scope) stmts;
  Scope.pop scope

(* Calls [f] with arguments from the caller's scope. [In] scalars are
   copied; [Out] scalars share the caller's cell; arrays always share. *)
and call_func st caller_scope f args =
  if List.length args <> List.length f.params then
    fail "function %S expects %d arguments, got %d" f.fname
      (List.length f.params) (List.length args);
  let callee = Scope.create () in
  List.iter2
    (fun p arg ->
      let slot =
        match (p.pmode, p.pty, arg) with
        | Out, Tscalar _, Var v -> Scope.find caller_scope v
        | Out, Tscalar _, _ -> fail "out argument for %S must be a variable" f.fname
        | In, Tscalar Sint, _ -> Si { i = eval_int st caller_scope arg }
        | In, Tscalar (Sflt _ as s), _ ->
            let fmt = effective_format st.config s p.pname in
            let x, vfmt = eval_float st caller_scope arg in
            if not (Fp.equal_format vfmt fmt) then charge_cast st;
            Sf { f = Fp.round fmt x; fmt }
        | _, Tarr _, Var v -> Scope.find caller_scope v
        | _, Tarr _, _ -> fail "array argument for %S must be a name" f.fname
      in
      Scope.declare callee p.pname slot)
    f.params args;
  try
    List.iter (exec st callee) f.body;
    None
  with Return_exn v -> v

(* ------------------------------------------------------------------ *)

let default_builtins = lazy (Builtins.create ())

let prepare_args st scope f (args : arg list) =
  if List.length args <> List.length f.params then
    fail "function %S expects %d arguments, got %d" f.fname
      (List.length f.params) (List.length args);
  List.iter2
    (fun p arg ->
      let slot =
        match (p.pty, arg) with
        | Tscalar Sint, Aint n -> Si { i = n }
        | Tscalar (Sflt _ as s), Aflt x ->
            let fmt = effective_format st.config s p.pname in
            Sf { f = Fp.round fmt x; fmt }
        | Tarr (Sflt _ as s), Afarr a ->
            let fmt = effective_format st.config s p.pname in
            if Fp.equal_format fmt Fp.F64 then Sfa { a; afmt = fmt }
            else
              (* A demoted input array holds rounded values; the caller's
                 array is left untouched. *)
              Sfa { a = Array.map (Fp.round fmt) a; afmt = fmt }
        | Tarr Sint, Aiarr a -> Sia a
        | _, _ -> fail "argument kind mismatch for parameter %S" p.pname
      in
      Scope.declare scope p.pname slot)
    f.params args

let run ?builtins ?(config = Config.double) ?(mode = Config.Source) ?counter
    ?(fuel = -1) ~prog ~func args =
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
      fstack = Growable.Float.create ();
      istack = Growable.create ~dummy:0 ();
      ipeak = 0;
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
            | Sf c -> Some (p.pname, Builtins.F c.f)
            | Si c -> Some (p.pname, Builtins.I c.i)
            | _ -> None)
        | _, _ -> None)
      f.params
  in
  {
    ret;
    outs;
    stack_peak_bytes =
      (Growable.Float.peak_length st.fstack * 8) + (st.ipeak * 8);
  }

let run_float ?builtins ?config ?mode ?counter ?fuel ~prog ~func args =
  match (run ?builtins ?config ?mode ?counter ?fuel ~prog ~func args).ret with
  | Some (Builtins.F x) -> x
  | Some (Builtins.I _) -> fail "function %S returned an int" func
  | None -> fail "function %S returned no value" func
