open Ast

let is_private_call name =
  String.length name >= 2 && name.[0] = '_' && name.[1] = '_'

(* Pure float expression worth naming: contains a real intrinsic call or
   is at least [size_threshold] nodes. *)
let size_threshold = 5

(* Typing registry when the caller passes none. Only ever read. *)
let default_builtins = Builtins.create ()

(* The typing of a subexpression as [Typecheck.expr_kind] decides it,
   reduced to what CSE needs: ill-typed ([Bad]) or the kind it has. *)
type kind = Bad | Int | Flt | Int_arr | Flt_arr

let of_kind = function Builtins.Kint -> Int | Builtins.Kflt -> Flt
let of_scalar s = of_kind (Builtins.kind_of_scalar s)

let of_ty = function
  | Tscalar s -> of_scalar s
  | Tarr Sint -> Int_arr
  | Tarr (Sflt _) -> Flt_arr

(* What one bottom-up walk knows about a subexpression. [hash] is
   structural and agrees with [compare]: expressions equal under
   [compare] hash alike ([Hashtbl.hash] identifies -0.0 with 0.0 and
   every NaN with every other). *)
type attrs = {
  size : int;  (** node count *)
  call : bool;
      (** on some path down from the root, the first call met is an
          intrinsic other than itof, select and sign *)
  priv : bool;  (** mentions a double-underscore runtime callback *)
  opq : bool;  (** mentions an opaque variable *)
  kind : kind;
  hash : int;
}

let worthwhile a = (not a.priv) && (a.call || a.size >= size_threshold)
let mix h x = (h * 65599) + x

let rec free_vars acc = function
  | Fconst _ | Iconst _ -> acc
  | Var v -> v :: acc
  | Idx (a, i) -> free_vars (a :: acc) i
  | Unop (_, e) -> free_vars acc e
  | Binop (_, a, b) -> free_vars (free_vars acc a) b
  | Call (_, args) -> List.fold_left free_vars acc args

module Itbl = Hashtbl.Make (Int)
module Stbl = Hashtbl.Make (String)

type var_info = { vhash : int; vopq : bool; mutable vkind : kind }

type callee = {
  chash : int;
  real : bool;  (** an intrinsic other than itof, select and sign *)
  private_ : bool;
  signature : (kind list * kind) option;  (** parameters, result *)
}

(* An available expression: [expr] is held by [holder] until a write to
   the holder or to a variable [expr] mentions kills it. *)
type entry = { expr : expr; holder : string; key : int; mutable live : bool }

(* Occurrences of one repeated-subexpression candidate within a
   right-hand side, numbered in pre-order. *)
type group = {
  ga : attrs;
  mutable rep : expr;  (** the latest occurrence *)
  mutable first : int;
  mutable last : int;
  mutable count : int;
  mutable occs : expr list;
}

(* Size of a [Hashtbl.create 16] table after [n] distinct insertions. *)
let table_size n =
  let rec go len = if n > 2 * len then go (2 * len) else len in
  go 16

(* The repeated candidate to hoist: the largest; among equal sizes, the
   one a fold lists first over a [Hashtbl.create 16] table filled with
   every candidate in pre-order, i.e. from the highest bucket and,
   within a bucket, the earliest inserted. The order decides which
   duplicate becomes which temporary, so it is part of the generated
   code that test/optimizer_digest.expected pins. *)
let pick groups ngroups =
  let mask = table_size ngroups - 1 in
  let bucket g = Hashtbl.hash g.rep land mask in
  let better g b =
    g.ga.size > b.ga.size
    || g.ga.size = b.ga.size
       && (bucket g > bucket b || (bucket g = bucket b && g.first < b.first))
  in
  Itbl.fold
    (fun _ gs best ->
      List.fold_left
        (fun best g ->
          if g.count < 2 then best
          else
            match best with
            | Some b when not (better g b) -> best
            | _ -> Some g)
        best gs)
    groups None

let cse_func ?builtins ?(prog = { funcs = [] }) ?(opaque = fun _ -> false) f =
  let builtins = Option.value builtins ~default:default_builtins in
  let names = Rename.create () in
  Rename.reserve_func names f;

  (* Per-name facts, so a walk hashes each name occurrence once: a
     variable's hash, opacity and the kind its latest declaration gives
     it (declarations are not scoped here), and an intrinsic's or user
     function's hash and signature. *)
  let vars : var_info Stbl.t = Stbl.create 32 in
  let var v =
    match Stbl.find_opt vars v with
    | Some i -> i
    | None ->
        let i = { vhash = Hashtbl.hash v; vopq = opaque v; vkind = Bad } in
        Stbl.replace vars v i;
        i
  in
  let declare v ty = (var v).vkind <- of_ty ty in
  List.iter (fun p -> declare p.pname p.pty) f.params;
  let callees : callee Stbl.t = Stbl.create 16 in
  let callee name =
    match Stbl.find_opt callees name with
    | Some c -> c
    | None ->
        let signature =
          match Builtins.signature builtins name with
          | Some sg ->
              Some (List.map of_kind sg.Builtins.args, of_kind sg.Builtins.ret)
          | None -> (
              match find_func prog name with
              | Some { ret = Some r; params; _ }
                when List.for_all (fun p -> p.pmode = In) params ->
                  Some (List.map (fun p -> of_ty p.pty) params, of_scalar r)
              | _ -> None)
        in
        let c =
          { chash = Hashtbl.hash name;
            real = not (List.mem name [ "itof"; "select"; "sign" ]);
            private_ = is_private_call name; signature }
        in
        Stbl.replace callees name c;
        c
  in

  (* Attributes of a node from those of its children. *)
  let leaf = function
    | Fconst x ->
        { size = 1; call = false; priv = false; opq = false; kind = Flt;
          hash = mix 1 (Hashtbl.hash x) }
    | Iconst n ->
        { size = 1; call = false; priv = false; opq = false; kind = Int;
          hash = mix 2 n }
    | Var v ->
        let i = var v in
        { size = 1; call = false; priv = false; opq = i.vopq; kind = i.vkind;
          hash = mix 3 i.vhash }
    | _ -> assert false
  in
  let idx arr ai =
    let i = var arr in
    let kind =
      match (ai.kind, i.vkind) with
      | Int, Int_arr -> Int
      | Int, Flt_arr -> Flt
      | _ -> Bad
    in
    { ai with size = 1 + ai.size; opq = i.vopq || ai.opq; kind;
      hash = mix (mix 4 i.vhash) ai.hash }
  in
  let unop op ax =
    let kind =
      match (op, ax.kind) with
      | Neg, ((Int | Flt) as k) -> k
      | Not, Int -> Int
      | _ -> Bad
    in
    { ax with size = 1 + ax.size; kind;
      hash = mix (mix 5 (Hashtbl.hash op)) ax.hash }
  in
  let binop op aa ab =
    let kind =
      match (aa.kind, ab.kind) with
      | ((Int | Flt) as k), k' when k = k' -> (
          match op with
          | Add | Sub | Mul | Div -> k
          | Mod | And | Or -> if k = Int then Int else Bad
          | Eq | Ne | Lt | Le | Gt | Ge -> Int)
      | _ -> Bad
    in
    { size = 1 + aa.size + ab.size; call = aa.call || ab.call;
      priv = aa.priv || ab.priv; opq = aa.opq || ab.opq; kind;
      hash = mix (mix (mix 6 (Hashtbl.hash op)) aa.hash) ab.hash }
  in
  let call name aargs =
    let c = callee name in
    let size, priv, opq, hash =
      List.fold_left
        (fun (size, priv, opq, hash) a ->
          (size + a.size, priv || a.priv, opq || a.opq, mix hash a.hash))
        (1, c.private_, false, mix 7 c.chash)
        aargs
    in
    let kind =
      match c.signature with
      | Some (params, ret)
        when List.compare_lengths params aargs = 0
             && List.for_all2 (fun k a -> k = a.kind) params aargs ->
          ret
      | _ -> Bad
    in
    { size; priv; opq; hash; call = c.real; kind }
  in

  (* Availability, indexed by structural hash (newest first) and by
     every variable whose write kills an entry. *)
  let avail : entry list Itbl.t = Itbl.create 32 in
  let killers : entry list Stbl.t = Stbl.create 32 in
  let make_avail expr a holder fv =
    let en = { expr; holder; key = a.hash; live = true } in
    Itbl.replace avail a.hash
      (en :: Option.value ~default:[] (Itbl.find_opt avail a.hash));
    List.iter
      (fun v ->
        Stbl.replace killers v
          (en :: Option.value ~default:[] (Stbl.find_opt killers v)))
      (holder :: fv)
  in
  let kill v =
    match Stbl.find_opt killers v with
    | None -> ()
    | Some ens ->
        Stbl.remove killers v;
        List.iter
          (fun en ->
            if en.live then begin
              en.live <- false;
              match List.filter (fun x -> x != en) (Itbl.find avail en.key) with
              | [] -> Itbl.remove avail en.key
              | rest -> Itbl.replace avail en.key rest
            end)
          ens
  in
  let kill_all () =
    if Stbl.length killers > 0 then begin
      Itbl.reset avail;
      Stbl.reset killers
    end
  in
  let lookup_avail e a =
    Option.bind (Itbl.find_opt avail a.hash) (fun ens ->
        List.find_map
          (fun en -> if compare en.expr e = 0 then Some en.holder else None)
          ens)
  in

  (* One bottom-up walk: the attributes of [e] and, with [reuse], [e]
     with its maximal available subexpressions replaced by their holders
     (a node that is available replaces whatever its children became, so
     the outermost match wins as in a top-down pass). Unchanged subtrees
     are returned as they are. With [cands], also lists the hoisting
     candidates (worthwhile, float, no opaque variable: naming one that
     touches a narrow-storage variable in a binary64 temporary would
     widen its static format and change Source-mode rounding of the
     surrounding operation) with their pre-order rank. *)
  let rec walk ~reuse ?cands rank e =
    let r = !rank in
    incr rank;
    let e', a =
      match e with
      | Fconst _ | Iconst _ | Var _ -> (e, leaf e)
      | Idx (arr, i) ->
          let i', ai = walk ~reuse ?cands rank i in
          ((if i' == i then e else Idx (arr, i')), idx arr ai)
      | Unop (op, x) ->
          let x', ax = walk ~reuse ?cands rank x in
          ((if x' == x then e else Unop (op, x')), unop op ax)
      | Binop (op, x, y) ->
          let x', ax = walk ~reuse ?cands rank x in
          let y', ay = walk ~reuse ?cands rank y in
          ( (if x' == x && y' == y then e else Binop (op, x', y')),
            binop op ax ay )
      | Call (name, args) ->
          let rs = List.map (walk ~reuse ?cands rank) args in
          let args' = List.map fst rs in
          ( (if List.for_all2 ( == ) args args' then e else Call (name, args')),
            call name (List.map snd rs) )
    in
    (match cands with
    | Some c when worthwhile a && a.kind = Flt && not a.opq ->
        c := (r, e, a) :: !c
    | _ -> ());
    if reuse && worthwhile a then
      match lookup_avail e a with
      | Some holder -> (Var holder, a)
      | None -> (e', a)
    else (e', a)
  in
  let reuse e =
    if Itbl.length avail = 0 then e else fst (walk ~reuse:true (ref 0) e)
  in

  let rec replace occs holder e =
    if List.memq e occs then Var holder
    else
      match e with
      | Fconst _ | Iconst _ | Var _ -> e
      | Idx (arr, i) ->
          let i' = replace occs holder i in
          if i' == i then e else Idx (arr, i')
      | Unop (op, x) ->
          let x' = replace occs holder x in
          if x' == x then e else Unop (op, x')
      | Binop (op, x, y) ->
          let x' = replace occs holder x and y' = replace occs holder y in
          if x' == x && y' == y then e else Binop (op, x', y')
      | Call (name, args) ->
          let args' = List.map (replace occs holder) args in
          if List.for_all2 ( == ) args args' then e else Call (name, args')
  in

  (* Group this right-hand side's candidates by structure and return the
     repeated one to hoist, if any. *)
  let repeated cands =
    match cands with
    | [] | [ _ ] -> None
    | _ ->
        let groups : group list Itbl.t = Itbl.create 16 in
        let ngroups = ref 0 in
        List.iter
          (fun (r, e, a) ->
            let gs = Option.value ~default:[] (Itbl.find_opt groups a.hash) in
            match List.find_opt (fun g -> compare g.rep e = 0) gs with
            | Some g ->
                g.count <- g.count + 1;
                g.occs <- e :: g.occs;
                if r < g.first then g.first <- r;
                if r > g.last then begin
                  g.last <- r;
                  g.rep <- e
                end
            | None ->
                incr ngroups;
                Itbl.replace groups a.hash
                  ({ ga = a; rep = e; first = r; last = r; count = 1;
                     occs = [ e ] }
                  :: gs))
          cands;
        pick groups !ngroups
  in

  (* Reuse available subexpressions, then hoist within-RHS duplicates of
     a float right-hand side into fresh temporaries, largest first, until
     no duplicate remains (at most four). Returns the hoisting
     declarations, the rewritten expression and its attributes. *)
  let process_rhs e =
    let rec go ~reuse decls e budget =
      let cands = ref [] in
      let e', a = walk ~reuse ~cands (ref 0) e in
      (* A rewritten tree is walked again for its own candidates. *)
      if e' != e then go ~reuse:false decls e' budget
      else
        match if a.kind = Flt then repeated !cands else None with
        | None -> (List.rev decls, e, a)
        | Some g ->
            let t = Rename.fresh names "_cse" in
            declare t (Tscalar (Sflt Cheffp_precision.Fp.F64));
            make_avail g.rep g.ga t (free_vars [] g.rep);
            let decl =
              Decl
                {
                  name = t;
                  dty = Dscalar (Sflt Cheffp_precision.Fp.F64);
                  init = Some g.rep;
                }
            in
            (* Occurrences holding a NaN literal are not [=] to
               themselves, so none is replaced: the temporary is declared
               but unused. *)
            let e = if g.rep = g.rep then replace g.occs t e else e in
            if budget = 1 then
              (List.rev (decl :: decls), e, snd (walk ~reuse:false (ref 0) e))
            else go ~reuse:false (decl :: decls) e (budget - 1)
    in
    go ~reuse:(Itbl.length avail > 0) [] e 4
  in

  let record lv e a =
    match lv with
    | Lvar v
      when worthwhile a && a.kind = Flt && (not (opaque v)) && not a.opq ->
        let fv = free_vars [] e in
        if not (List.mem v fv) then make_avail e a v fv
    | _ -> ()
  in

  let rec stmt s =
    match s with
    | Decl ({ name; dty; init } as d) -> (
        declare name
          (match dty with Dscalar sc -> Tscalar sc | Darr (sc, _) -> Tarr sc);
        match init with
        | None -> [ Decl d ]
        | Some e ->
            let hoisted, e, a = process_rhs e in
            kill name;
            record (Lvar name) e a;
            hoisted @ [ Decl { d with init = Some e } ])
    | Assign (lv, e) ->
        let hoisted, e, a = process_rhs e in
        let lv =
          match lv with
          | Lvar _ -> lv
          | Lidx (a, i) -> Lidx (a, reuse i)
        in
        kill (lvalue_base lv);
        record lv e a;
        hoisted @ [ Assign (lv, e) ]
    | If (c, a, b) ->
        let c = reuse c in
        (* Each branch starts from an empty availability set: entries
           created inside one branch (hoisted temporaries, recorded
           assignments) are block-scoped and must not be reused by the
           sibling branch or by the code after the [If]. *)
        kill_all ();
        let a = block a in
        kill_all ();
        let b = block b in
        kill_all ();
        [ If (c, a, b) ]
    | For ({ lo; hi; body; var; _ } as l) ->
        let lo = reuse lo and hi = reuse hi in
        declare var (Tscalar Sint);
        kill_all ();
        let body = block body in
        kill_all ();
        [ For { l with lo; hi; body } ]
    | While (c, body) ->
        kill_all ();
        let body = block body in
        kill_all ();
        [ While (c, body) ]
    | Return (Some e) ->
        let hoisted, e, _ = process_rhs e in
        hoisted @ [ Return (Some e) ]
    | Return None -> [ Return None ]
    | Call_stmt (name, args) -> [ Call_stmt (name, List.map reuse args) ]
    | Push lv ->
        (* pushing only reads *)
        [ Push lv ]
    | Pop lv ->
        kill (lvalue_base lv);
        [ Pop lv ]
  and block stmts =
    (* availability flows through a straight-line run; control flow
       inside [stmt] resets it *)
    List.concat_map stmt stmts
  in
  let body = block f.body in
  { f with body }
