open Ast
module Trace = Cheffp_obs.Trace
module Stbl = Hashtbl.Make (String)

let bool_i b = Iconst (if b then 1 else 0)

(* [List.map] that returns [l] itself when [f] changes no element. *)
let rec map_shared f l =
  match l with
  | [] -> l
  | x :: rest ->
      let x' = f x in
      let rest' = map_shared f rest in
      if x' == x && rest' == rest then l else x' :: rest'

let rec expr_mentions p = function
  | Var v -> p v
  | Fconst _ | Iconst _ -> false
  | Idx (a, i) -> p a || expr_mentions p i
  | Unop (_, e) -> expr_mentions p e
  | Binop (_, a, b) -> expr_mentions p a || expr_mentions p b
  | Call (_, args) -> List.exists (expr_mentions p) args

let rec fold_expr ?(fast_math = true) ?(opaque = fun _ -> false) e =
  let f = fold_expr ~fast_math ~opaque in
  (* Dropping a binary64 literal operand ([e * 1.0 -> e]) narrows the
     static format of the expression when [e] only touches narrow-storage
     variables, which changes Source-mode rounding of the surrounding
     operation: keep such identities only for format-neutral operands. *)
  let fmt_neutral e = not (expr_mentions opaque e) in
  (* An unchanged node is returned as it is, so that a pass that
     rewrites nothing shares the whole tree. *)
  match e with
  | Fconst _ | Iconst _ | Var _ -> e
  | Idx (a, i) ->
      let i' = f i in
      if i' == i then e else Idx (a, i')
  | Unop (Neg, x) -> (
      match f x with
      | Fconst x -> Fconst (-.x)
      | Iconst n -> Iconst (-n)
      | Unop (Neg, inner) -> inner
      | x' -> if x' == x then e else Unop (Neg, x'))
  | Unop (Not, x) -> (
      match f x with
      | Iconst n -> bool_i (n = 0)
      | x' -> if x' == x then e else Unop (Not, x'))
  | Binop (op, a0, b0) -> (
      let a = f a0 and b = f b0 in
      match (op, a, b) with
      (* integer constant folding *)
      | Add, Iconst x, Iconst y -> Iconst (x + y)
      | Sub, Iconst x, Iconst y -> Iconst (x - y)
      | Mul, Iconst x, Iconst y -> Iconst (x * y)
      | Div, Iconst x, Iconst y when y <> 0 -> Iconst (x / y)
      | Mod, Iconst x, Iconst y when y <> 0 -> Iconst (x mod y)
      | Eq, Iconst x, Iconst y -> bool_i (x = y)
      | Ne, Iconst x, Iconst y -> bool_i (x <> y)
      | Lt, Iconst x, Iconst y -> bool_i (x < y)
      | Le, Iconst x, Iconst y -> bool_i (x <= y)
      | Gt, Iconst x, Iconst y -> bool_i (x > y)
      | Ge, Iconst x, Iconst y -> bool_i (x >= y)
      | And, Iconst x, Iconst y -> bool_i (x <> 0 && y <> 0)
      | Or, Iconst x, Iconst y -> bool_i (x <> 0 || y <> 0)
      (* float constant folding *)
      | Add, Fconst x, Fconst y -> Fconst (x +. y)
      | Sub, Fconst x, Fconst y -> Fconst (x -. y)
      | Mul, Fconst x, Fconst y -> Fconst (x *. y)
      | Div, Fconst x, Fconst y -> Fconst (x /. y)
      | Eq, Fconst x, Fconst y -> bool_i (x = y)
      | Ne, Fconst x, Fconst y -> bool_i (x <> y)
      | Lt, Fconst x, Fconst y -> bool_i (x < y)
      | Le, Fconst x, Fconst y -> bool_i (x <= y)
      | Gt, Fconst x, Fconst y -> bool_i (x > y)
      | Ge, Fconst x, Fconst y -> bool_i (x >= y)
      (* identities (exact, format-neutrality checked) *)
      | Add, e, Fconst 0. when fmt_neutral e -> e
      | Add, Fconst 0., e when fmt_neutral e -> e
      | Sub, e, Fconst 0. when fmt_neutral e -> e
      | Sub, Fconst 0., e when fmt_neutral e -> f (Unop (Neg, e))
      | Mul, e, Fconst 1. when fmt_neutral e -> e
      | Mul, Fconst 1., e when fmt_neutral e -> e
      | Div, e, Fconst 1. when fmt_neutral e -> e
      | Mul, e, Fconst -1.0 when fmt_neutral e -> f (Unop (Neg, e))
      | Mul, Fconst -1.0, e when fmt_neutral e -> f (Unop (Neg, e))
      | Add, e, Iconst 0 | Add, Iconst 0, e -> e
      | Sub, e, Iconst 0 -> e
      | Mul, e, Iconst 1 | Mul, Iconst 1, e -> e
      (* fast-math absorbers (wrong for NaN/Inf operands) *)
      | Mul, _, Fconst 0. when fast_math -> Fconst 0.
      | Mul, Fconst 0., _ when fast_math -> Fconst 0.
      | Mul, _, Iconst 0 when fast_math -> Iconst 0
      | Mul, Iconst 0, _ when fast_math -> Iconst 0
      | And, e, Iconst 1 | And, Iconst 1, e -> e
      | And, _, Iconst 0 | And, Iconst 0, _ -> Iconst 0
      | Or, e, Iconst 0 | Or, Iconst 0, e -> e
      | Or, _, Iconst n when n <> 0 -> Iconst 1
      | op, a, b -> if a == a0 && b == b0 then e else Binop (op, a, b))
  | Call (name, args) ->
      let args' = map_shared f args in
      if args' == args then e else Call (name, args')

(* ------------------------------------------------------------------ *)
(* Copy / constant propagation within basic blocks.                   *)

module Smap = Map.Make (String)

(* [stmts] rebuilt from [s :: rest] as [s' :: rest'], or [stmts] itself
   when neither part changed. *)
let relink stmts s s' rest rest' =
  if s' == s && rest' == rest then stmts else s' :: rest'

(* The facts of a basic block: [value] maps a variable to the Var/const
   expression it currently equals. Kill rules: assigning to [v] removes
   the binding of [v] and any binding to [Var v]; [copies] lists, for
   each [v], the variables bound to [Var v] (some since rebound), so a
   kill touches only those instead of every fact. *)
type env = { value : expr Smap.t; copies : string list Smap.t }

let empty = { value = Smap.empty; copies = Smap.empty }

let bind env v value =
  let copies =
    match value with
    | Var src ->
        Smap.update src
          (fun l -> Some (v :: Option.value ~default:[] l))
          env.copies
    | _ -> env.copies
  in
  { value = Smap.add v value env.value; copies }

let kill env v =
  let value = Smap.remove v env.value in
  match Smap.find_opt v env.copies with
  | None -> if value == env.value then env else { env with value }
  | Some ks ->
      let value =
        List.fold_left
          (fun value k ->
            match Smap.find_opt k value with
            | Some (Var src) when src = v -> Smap.remove k value
            | _ -> value)
          value ks
      in
      { value; copies = Smap.remove v env.copies }

let rec prop_expr env e =
  match e with
  | Var v -> ( match Smap.find_opt v env.value with Some r -> r | None -> e)
  | Fconst _ | Iconst _ -> e
  | Idx (a, i) ->
      let i' = prop_expr env i in
      if i' == i then e else Idx (a, i')
  | Unop (op, x) ->
      let x' = prop_expr env x in
      if x' == x then e else Unop (op, x')
  | Binop (op, a, b) ->
      let a' = prop_expr env a and b' = prop_expr env b in
      if a' == a && b' == b then e else Binop (op, a', b')
  | Call (f, args) ->
      let args' = map_shared (prop_expr env) args in
      if args' == args then e else Call (f, args')

(* Unchanged statements and statement lists are returned as they are. *)
let rec prop_stmts ~fast_math ~opaque env stmts =
  match stmts with
  | [] -> (env, stmts)
  | s :: rest ->
      let simp e =
        if Smap.is_empty env.value then fold_expr ~fast_math ~opaque e
        else fold_expr ~fast_math ~opaque (prop_expr env e)
      in
      let simp_opt o =
        match o with
        | None -> o
        | Some e ->
            let e' = simp e in
            if e' == e then o else Some e'
      in
      let prop_stmts = prop_stmts ~fast_math ~opaque in
      let env, s' =
        match s with
        | Decl ({ init; dty; name } as d) ->
            let dty' =
              match dty with
              | Dscalar _ -> dty
              | Darr (sc, size) ->
                  let size' = simp size in
                  if size' == size then dty else Darr (sc, size')
            in
            let init' = simp_opt init in
            let env = kill env name in
            let env =
              match init' with
              (* forwarding through an opaque target skips its store
                 rounding; forwarding an opaque source narrows the
                 static format of downstream operations *)
              | Some ((Fconst _ | Iconst _) as simple) when not (opaque name) ->
                  bind env name simple
              | Some (Var src as copy)
                when (not (opaque name)) && not (opaque src) ->
                  bind env name copy
              | _ -> env
            in
            ( env,
              if dty' == dty && init' == init then s
              else Decl { d with dty = dty'; init = init' } )
        | Assign (lv, e) -> (
            let e' = simp e in
            match lv with
            | Lvar v ->
                let env = kill env v in
                let env =
                  if opaque v then env
                  else
                    match e' with
                    | Fconst _ | Iconst _ -> bind env v e'
                    | Var src when src <> v && not (opaque src) -> bind env v e'
                    | _ -> env
                in
                (env, if e' == e then s else Assign (lv, e'))
            | Lidx (a, i) ->
                let i' = simp i in
                (* Writing a[i] invalidates bindings mentioning a. *)
                ( kill env a,
                  if e' == e && i' == i then s else Assign (Lidx (a, i'), e') ))
        | If (c, t, e) -> (
            let c' = simp c in
            match c' with
            | Iconst n ->
                let branch = if n <> 0 then t else e in
                let env', branch = prop_stmts env branch in
                (* A marker [flatten] splices into the enclosing block. *)
                (env', If (Iconst 1, branch, []))
            | _ ->
                let _, t' = prop_stmts env t in
                let _, e' = prop_stmts env e in
                (* Conservative join: drop all facts. *)
                ( empty,
                  if c' == c && t' == t && e' == e then s
                  else If (c', t', e') ))
        | For ({ lo; hi; body; _ } as l) ->
            let lo' = simp lo and hi' = simp hi in
            (* The body runs many times: start from no facts, end with none. *)
            let _, body' = prop_stmts empty body in
            ( empty,
              if lo' == lo && hi' == hi && body' == body then s
              else For { l with lo = lo'; hi = hi'; body = body' } )
        | While (c, body) ->
            let _, body' = prop_stmts empty body in
            (empty, if body' == body then s else While (c, body'))
        | Return e ->
            let e' = simp_opt e in
            (env, if e' == e then s else Return e')
        | Call_stmt (f, args) ->
            let args' = map_shared simp args in
            (env, if args' == args then s else Call_stmt (f, args'))
        | Push (Lidx (a, i)) ->
            let i' = simp i in
            (env, if i' == i then s else Push (Lidx (a, i')))
        | Pop (Lvar v) -> (kill env v, s)
        | Pop (Lidx (a, i)) ->
            let i' = simp i in
            (kill env a, if i' == i then s else Pop (Lidx (a, i')))
        | Push (Lvar _) -> (env, s)
      in
      let env, rest' = prop_stmts env rest in
      (env, relink stmts s s' rest rest')

(* [s] with [f] applied to each block it holds, or [s] itself when no
   block changed. *)
let map_blocks f s =
  match s with
  | If (c, t, e) ->
      let t' = f t and e' = f e in
      if t' == t && e' == e then s else If (c, t', e')
  | For l ->
      let body = f l.body in
      if body == l.body then s else For { l with body }
  | While (c, body) ->
      let body' = f body in
      if body' == body then s else While (c, body')
  | Decl _ | Assign _ | Return _ | Call_stmt _ | Push _ | Pop _ -> s

(* Flattens If(1, block, []) markers produced by constant branches. *)
let rec flatten stmts =
  match stmts with
  | [] -> stmts
  | s :: rest -> (
      let rest' = flatten rest in
      match s with
      | If (Iconst 1, t, []) -> flatten t @ rest'
      | If (Iconst 0, _, e) -> flatten e @ rest'
      | _ -> relink stmts s (map_blocks flatten s) rest rest')

(* ------------------------------------------------------------------ *)
(* Dead local elimination.                                            *)

let reads_of_func f =
  let reads = Stbl.create 64 in
  let mark v = if not (Stbl.mem reads v) then Stbl.add reads v () in
  let rec expr = function
    | Var v -> mark v
    | Fconst _ | Iconst _ -> ()
    | Idx (a, i) ->
        mark a;
        expr i
    | Unop (_, e) -> expr e
    | Binop (_, a, b) ->
        expr a;
        expr b
    | Call (_, args) -> List.iter expr args
  in
  let lvalue_reads = function
    | Lvar _ -> ()
    | Lidx (a, i) ->
        mark a;
        expr i
  in
  let rec stmt = function
    | Decl { dty = Darr (_, size); init; _ } ->
        expr size;
        Option.iter expr init
    | Decl { init; _ } -> Option.iter expr init
    | Assign (lv, e) ->
        lvalue_reads lv;
        expr e
    | If (c, t, e) ->
        expr c;
        List.iter stmt t;
        List.iter stmt e
    | For { lo; hi; body; _ } ->
        expr lo;
        expr hi;
        List.iter stmt body
    | While (c, body) ->
        expr c;
        List.iter stmt body
    | Return e -> Option.iter expr e
    | Call_stmt (_, args) -> List.iter expr args
    | Push lv ->
        (* pushing reads the location *)
        (match lv with Lvar v -> mark v | Lidx _ -> ());
        lvalue_reads lv
    | Pop lv ->
        (* a pop writes the location but keeps the stack balanced: the
           location itself is not a read, the index is *)
        lvalue_reads lv
  in
  List.iter stmt f.body;
  reads

let dead_local_elim f =
  let protected = Stbl.create 16 in
  List.iter (fun p -> Stbl.replace protected p.pname ()) f.params;
  (* Variables involved in push/pop must survive: the value stack
     discipline depends on them. *)
  let rec protect_pushpop = function
    | Push lv | Pop lv -> Stbl.replace protected (lvalue_base lv) ()
    | If (_, t, e) ->
        List.iter protect_pushpop t;
        List.iter protect_pushpop e
    | For { body; _ } | While (_, body) -> List.iter protect_pushpop body
    | Decl _ | Assign _ | Return _ | Call_stmt _ -> ()
  in
  List.iter protect_pushpop f.body;
  let reads = reads_of_func f in
  let dead v = (not (Stbl.mem protected v)) && not (Stbl.mem reads v) in
  let rec clean stmts =
    match stmts with
    | [] -> stmts
    | s :: rest -> (
        let rest' = clean rest in
        match s with
        | Decl { name; _ } when dead name -> rest'
        | Assign (Lvar v, _) when dead v -> rest'
        | _ -> relink stmts s (map_blocks clean s) rest rest')
  in
  let body = clean f.body in
  if body == f.body then f else { f with body }

(* Variables whose storage format is narrower than binary64 round on
   every store; forwarding values through them (copy/const propagation,
   CSE availability) would skip that rounding and change mixed-precision
   semantics, so they are opaque to those rewrites. *)
let declared_narrow f =
  let narrow = Stbl.create 8 in
  let scalar_narrow = function
    | Sflt fmt -> not (Cheffp_precision.Fp.equal_format fmt Cheffp_precision.Fp.F64)
    | Sint -> false
  in
  List.iter
    (fun p ->
      match p.pty with
      | Tscalar sc | Tarr sc ->
          if scalar_narrow sc then Stbl.replace narrow p.pname ())
    f.params;
  let rec stmt = function
    | Decl { name; dty = Dscalar sc; _ } | Decl { name; dty = Darr (sc, _); _ }
      ->
        if scalar_narrow sc then Stbl.replace narrow name ()
    | If (_, a, b) ->
        List.iter stmt a;
        List.iter stmt b
    | For { body; _ } | While (_, body) -> List.iter stmt body
    | Assign _ | Return _ | Call_stmt _ | Push _ | Pop _ -> ()
  in
  List.iter stmt f.body;
  narrow

let max_passes = 8

let optimize_func ?(fast_math = true) ?(cse = true) ?(opaque = fun _ -> false) f =
  let narrow = declared_narrow f in
  let opaque =
    if Stbl.length narrow = 0 then opaque
    else fun v -> opaque v || Stbl.mem narrow v
  in
  let f = if cse then Cse.cse_func ~opaque f else f in
  let pass f =
    let _, body = prop_stmts ~fast_math ~opaque empty f.body in
    let body = flatten body in
    dead_local_elim (if body == f.body then f else { f with body })
  in
  (* A pass that rewrites nothing returns its input, so [compare] (which
     skips physically equal subtrees) settles convergence without
     walking the function; unlike [=], it holds a NaN literal equal to
     itself. *)
  let rec fixpoint passes f =
    let f' = pass f in
    if compare f' f = 0 then (passes, f)
    else if passes = max_passes then (passes, f')
    else fixpoint (passes + 1) f'
  in
  let passes, f = fixpoint 1 f in
  if Trace.enabled () then Trace.add_attr "passes" (Trace.Int passes);
  f
