open Ast
module Fp = Cheffp_precision.Fp
module Config = Cheffp_precision.Config
module Cost = Cheffp_precision.Cost
module Growable = Cheffp_util.Growable
module Pool = Cheffp_util.Pool
module Trace = Cheffp_obs.Trace
module Metrics = Cheffp_obs.Metrics

let fail fmt = Format.kasprintf (fun s -> raise (Compile.Compile_error s)) fmt

let default_lanes = 8

(* Input sweeps carry one config and per-lane data only, so per-chunk
   fixed costs (environment build, result assembly) amortize over more
   lanes before cache pressure bites; config-axis batches stay at
   [default_lanes] because search phases rarely have more candidates. *)
let default_sweep_lanes = 64

let lanes_g = Metrics.gauge "batch.lanes"
let runs_c = Metrics.counter "batch.runs"
let divergence_c = Metrics.counter "batch.divergence_total"

(* Rounders for the per-lane loops, which dispatch on a format tag.
   [r32] repeats [Fp.round F32] inline because a call through a closure
   or into another compilation unit boxes its float argument; [r16]
   (binary16 is rare) does call [Fp.round]. *)
let[@inline] r32 x = Int32.float_of_bits (Int32.bits_of_float x)
let r16 x = Fp.round Fp.F16 x

let[@inline] rnd fmt x =
  match fmt with Fp.F64 -> x | Fp.F32 -> r32 x | Fp.F16 -> r16 x

(* [dst.(l) <- p src.(l)] on the first [k] lanes, for a default
   intrinsic still tagged with its primitive ({!Builtins.prim}): the
   primitive runs unboxed instead of through the registered closure. *)
let unary_lanes (p : Builtins.prim) : int -> float array -> float array -> unit
    =
  match p with
  | Sin -> fun k src dst -> for l = 0 to k - 1 do dst.(l) <- sin src.(l) done
  | Cos -> fun k src dst -> for l = 0 to k - 1 do dst.(l) <- cos src.(l) done
  | Tan -> fun k src dst -> for l = 0 to k - 1 do dst.(l) <- tan src.(l) done
  | Exp -> fun k src dst -> for l = 0 to k - 1 do dst.(l) <- exp src.(l) done
  | Log -> fun k src dst -> for l = 0 to k - 1 do dst.(l) <- log src.(l) done
  | Log10 ->
      fun k src dst -> for l = 0 to k - 1 do dst.(l) <- log10 src.(l) done
  | Sqrt -> fun k src dst -> for l = 0 to k - 1 do dst.(l) <- sqrt src.(l) done
  | Tanh -> fun k src dst -> for l = 0 to k - 1 do dst.(l) <- tanh src.(l) done
  | Atan -> fun k src dst -> for l = 0 to k - 1 do dst.(l) <- atan src.(l) done
  | Fabs ->
      fun k src dst -> for l = 0 to k - 1 do dst.(l) <- Float.abs src.(l) done
  | Floor ->
      fun k src dst -> for l = 0 to k - 1 do dst.(l) <- Float.floor src.(l) done
  | Ceil ->
      fun k src dst -> for l = 0 to k - 1 do dst.(l) <- Float.ceil src.(l) done
  | Castf32 -> fun k src dst -> for l = 0 to k - 1 do dst.(l) <- r32 src.(l) done
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Run-time environment: one per batch run, structure-of-arrays over
   the K lanes. Integers are uniform (shared by all lanes); every float
   slot / array / stack is per-lane. *)

type benv = {
  k : int;
  fl : float array array;  (** float slot -> lane -> value *)
  it : int array;  (** uniform int slots *)
  fa : float array array array;  (** float array slot -> lane -> payload *)
  ia : int array array;  (** uniform int arrays *)
  fstack : Growable.Float.t array;  (** per-lane value stacks *)
  istack : int Growable.t;
  mutable ipeak : int;
  active : bool array;  (** lane still executing batched *)
  mutable dropped : int;  (** lanes deactivated by divergence *)
  counters : Cost.Counter.t array;  (** per-lane cost accumulators *)
  vfmt : Fp.format array array;  (** float slot -> lane -> storage format *)
  afmt : Fp.format array array;  (** float array slot -> lane -> format *)
  efmt : Fp.format array array;  (** expr node -> lane -> static format *)
  scratch : float array array;  (** float expr node -> lane buffer *)
  iscratch : int array array;  (** divergence-check node -> lane buffer *)
}

exception Breturn_f of float array
exception Breturn_i of int

(* Agree on one integer across the live lanes. All agreeing: that value.
   Otherwise a divergence: the majority (ties towards the lowest-index
   lane) stays batched, every dissenting lane is deactivated and later
   re-run through the scalar fallback. *)
let consensus benv (vals : int array) : int =
  let k = benv.k in
  let first = ref min_int and seen = ref false and agree = ref true in
  for l = 0 to k - 1 do
    if benv.active.(l) then
      if not !seen then begin
        first := vals.(l);
        seen := true
      end
      else if vals.(l) <> !first then agree := false
  done;
  if !agree then !first
  else begin
    let best = ref !first and best_n = ref (-1) in
    for l = 0 to k - 1 do
      if benv.active.(l) then begin
        let n = ref 0 in
        for m = 0 to k - 1 do
          if benv.active.(m) && vals.(m) = vals.(l) then incr n
        done;
        if !n > !best_n then begin
          best := vals.(l);
          best_n := !n
        end
      end
    done;
    let v = !best in
    for l = 0 to k - 1 do
      if benv.active.(l) && vals.(l) <> v then begin
        benv.active.(l) <- false;
        benv.dropped <- benv.dropped + 1
      end
    done;
    v
  end

(* ------------------------------------------------------------------ *)
(* Compile-time structures.                                           *)

type binding = Bf of int | Bi of int | Bfa of int | Bia of int

type scope = { mutable frames : (string * binding) list list }

let scope_find sc name =
  let rec go = function
    | [] -> fail "undeclared variable %S" name
    | frame :: rest -> (
        match List.assoc_opt name frame with Some b -> b | None -> go rest)
  in
  go sc.frames

let scope_find_opt sc name =
  let rec go = function
    | [] -> None
    | frame :: rest -> (
        match List.assoc_opt name frame with
        | Some b -> Some b
        | None -> go rest)
  in
  go sc.frames

let scope_push sc = sc.frames <- [] :: sc.frames

let scope_pop sc =
  match sc.frames with _ :: rest -> sc.frames <- rest | [] -> assert false

let scope_declare sc name b =
  match sc.frames with
  | frame :: rest -> sc.frames <- ((name, b) :: frame) :: rest
  | [] -> assert false

(* Per-lane static format of a float expression node, as a rule over
   slot formats: the rule DAG is built at compile time (children before
   parents) and resolved into a [lane -> format] table when a run's
   configurations are known. *)
type frule =
  | Rfix of Fp.format
  | Rslot of int  (** format of a float scalar slot *)
  | Raslot of int  (** format of a float array slot *)
  | Rwider of int * int  (** wider of two earlier rules *)
  | Rwidest of int list  (** widest of earlier rules; [[]] means F64 *)

(* A compiled float expression: per-lane evaluation plus its format
   rule id. [ev] returns a K-wide array valid until the node is
   evaluated again (a node's own scratch row, or a slot row for
   variables). *)
type fex = { ev : benv -> float array; fid : int }

type t = {
  cfunc : Ast.func;
  prog : Ast.program;
  func_name : string;
  builtins_opt : Builtins.t option;
  mode : Config.rounding_mode;
  meter : bool;
  optimize : bool;
  run_body : benv -> unit;
  nfl : int;
  nit : int;
  nfa : int;
  nia : int;
  nscratch : int;
  niscratch : int;
  consts : (int * float) list;  (** constant scratch rows, prefilled *)
  rules : frule array;
  var_specs : (int * Ast.scalar * string) list;
      (** float scalar slots: declared scalar + name, for per-lane
          effective-format resolution *)
  arr_specs : (int * Ast.scalar * string) list;
  out_scalars : (string * binding) list;
  param_bindings : (Ast.param * binding) list;
  fmt_cache :
    (Config.t * int * (Fp.format array array * Fp.format array array * Fp.format array array))
    option
    Atomic.t;
      (** input sweeps re-resolve the same (config, lanes) format
          tables for every chunk; the tables are read-only once built,
          so the last resolution is cached and shared (also across
          pool domains — chunks of one sweep carry the same physical
          config) *)
}

(* ------------------------------------------------------------------ *)

let compile ?builtins ?(mode = Config.Source) ?(meter = false)
    ?(optimize = true) ~prog ~func () =
  let builtins_opt = builtins in
  let builtins =
    match builtins with Some b -> b | None -> Builtins.create ()
  in
  let f = func_exn prog func in
  let f = if Inline.has_user_calls prog f then Inline.inline_func prog f else f in
  let f =
    if optimize then
      (* The configurations are unknown until run time, so every
         variable is opaque: only rewrites that preserve values under
         any store-rounding survive, which is what the per-lane
         bit-identity contract needs. *)
      Optimize.optimize_func ~opaque:(fun _ -> true) f
    else f
  in
  let nfl = ref 0 and nit = ref 0 and nfa = ref 0 and nia = ref 0 in
  let fresh_f () = let i = !nfl in incr nfl; i in
  let fresh_i () = let i = !nit in incr nit; i in
  let fresh_fa () = let i = !nfa in incr nfa; i in
  let fresh_ia () = let i = !nia in incr nia; i in
  let nscratch = ref 0 in
  let fresh_scratch () = let i = !nscratch in incr nscratch; i in
  let niscratch = ref 0 in
  let fresh_iscratch () = let i = !niscratch in incr niscratch; i in
  let consts = ref [] in
  let rules_rev = ref [] and nrules = ref 0 in
  let rule r = let i = !nrules in incr nrules; rules_rev := r :: !rules_rev; i in
  let var_specs = ref [] and arr_specs = ref [] in
  let sc = { frames = [ [] ] } in

  let lookup_ty sc name =
    let rec go = function
      | [] -> None
      | frame :: rest -> (
          match List.assoc_opt name frame with
          | Some (Bf _) -> Some (Tscalar (Sflt Fp.F64))
          | Some (Bi _) -> Some (Tscalar Sint)
          | Some (Bfa _) -> Some (Tarr (Sflt Fp.F64))
          | Some (Bia _) -> Some (Tarr Sint)
          | None -> go rest)
    in
    go sc.frames
  in

  (* Wraps a raw per-lane computation with Source-mode rounding to the
     node's per-lane format (a no-op row of F64s costs one match per
     lane). *)
  let rounded fid s (raw : benv -> float array -> unit) : fex =
    let ev benv =
      let dst = benv.scratch.(s) in
      raw benv dst;
      (match mode with
      | Config.Extended -> ()
      | Config.Source ->
          let fmts = benv.efmt.(fid) in
          for l = 0 to benv.k - 1 do
            match fmts.(l) with
            | Fp.F64 -> ()
            | Fp.F32 -> dst.(l) <- r32 dst.(l)
            | Fp.F16 -> dst.(l) <- r16 dst.(l)
          done);
      dst
    in
    { ev; fid }
  in

  let rec cf e : fex =
    match e with
    | Fconst x ->
        let s = fresh_scratch () in
        consts := (s, x) :: !consts;
        { ev = (fun benv -> benv.scratch.(s)); fid = rule (Rfix Fp.F64) }
    | Iconst _ ->
        fail "integer expression %s where a float is required"
          (Pp.expr_to_string e)
    | Var v -> (
        match scope_find sc v with
        | Bf slot ->
            { ev = (fun benv -> benv.fl.(slot)); fid = rule (Rslot slot) }
        | Bi _ -> fail "int variable %S used as float" v
        | Bfa _ | Bia _ -> fail "array %S used as a scalar" v)
    | Idx (a, ie) -> (
        let gi = ci ie in
        match scope_find sc a with
        | Bfa slot ->
            let s = fresh_scratch () in
            let ev benv =
              let i = gi benv in
              let lanes = benv.fa.(slot) in
              let dst = benv.scratch.(s) in
              for l = 0 to benv.k - 1 do
                dst.(l) <- lanes.(l).(i)
              done;
              dst
            in
            { ev; fid = rule (Raslot slot) }
        | Bia _ -> fail "int array %S used as float" a
        | Bf _ | Bi _ -> fail "scalar %S indexed" a)
    | Unop (Neg, e) ->
        let a = cf e in
        let s = fresh_scratch () in
        let ev =
          if meter then fun benv ->
            let src = a.ev benv in
            let dst = benv.scratch.(s) in
            let fmts = benv.efmt.(a.fid) in
            for l = 0 to benv.k - 1 do
              let fmt =
                match mode with
                | Config.Source -> fmts.(l)
                | Config.Extended -> Fp.F64
              in
              Cost.Counter.charge_op benv.counters.(l) fmt Cost.Basic;
              dst.(l) <- -.src.(l)
            done;
            dst
          else fun benv ->
            let src = a.ev benv in
            let dst = benv.scratch.(s) in
            for l = 0 to benv.k - 1 do
              dst.(l) <- -.src.(l)
            done;
            dst
        in
        (* Negation keeps its operand's format and never rounds,
           matching the scalar compiler. *)
        { ev; fid = a.fid }
    | Unop (Not, _) -> fail "logical not yields an int"
    | Binop ((Add | Sub | Mul | Div) as op, a, b) ->
        (* An int operand fails in [cf] itself. *)
        let xa = cf a and xb = cf b in
        let s = fresh_scratch () in
        let fid =
          match mode with
          | Config.Source -> rule (Rwider (xa.fid, xb.fid))
          | Config.Extended -> rule (Rfix Fp.F64)
        in
        if meter then
          let cls =
            match op with Div -> Cost.Division | _ -> Cost.Basic
          in
          let apply : float -> float -> float =
            match op with
            | Add -> ( +. )
            | Sub -> ( -. )
            | Mul -> ( *. )
            | Div -> ( /. )
            | _ -> assert false
          in
          let raw benv dst =
            let va = xa.ev benv and vb = xb.ev benv in
            let fa = benv.efmt.(xa.fid) and fb = benv.efmt.(xb.fid) in
            let fmts = benv.efmt.(fid) in
            for l = 0 to benv.k - 1 do
              let c = benv.counters.(l) in
              Cost.Counter.charge_op c fmts.(l) cls;
              if not (Fp.equal_format fa.(l) fb.(l)) then
                Cost.Counter.charge_cast c;
              dst.(l) <- apply va.(l) vb.(l)
            done
          in
          rounded fid s raw
        else
          (* Unmetered hot path: one specialised unboxed loop per
             operator, rounding fused into the store. *)
          let ev =
            match (op, mode) with
            | Add, Config.Source -> fun benv ->
                let va = xa.ev benv and vb = xb.ev benv in
                let dst = benv.scratch.(s) in
                let fmts = benv.efmt.(fid) in
                for l = 0 to benv.k - 1 do
                  dst.(l) <-
                    (match fmts.(l) with
                    | Fp.F64 -> va.(l) +. vb.(l)
                    | Fp.F32 -> r32 (va.(l) +. vb.(l))
                    | Fp.F16 -> r16 (va.(l) +. vb.(l)))
                done;
                dst
            | Sub, Config.Source -> fun benv ->
                let va = xa.ev benv and vb = xb.ev benv in
                let dst = benv.scratch.(s) in
                let fmts = benv.efmt.(fid) in
                for l = 0 to benv.k - 1 do
                  dst.(l) <-
                    (match fmts.(l) with
                    | Fp.F64 -> va.(l) -. vb.(l)
                    | Fp.F32 -> r32 (va.(l) -. vb.(l))
                    | Fp.F16 -> r16 (va.(l) -. vb.(l)))
                done;
                dst
            | Mul, Config.Source -> fun benv ->
                let va = xa.ev benv and vb = xb.ev benv in
                let dst = benv.scratch.(s) in
                let fmts = benv.efmt.(fid) in
                for l = 0 to benv.k - 1 do
                  dst.(l) <-
                    (match fmts.(l) with
                    | Fp.F64 -> va.(l) *. vb.(l)
                    | Fp.F32 -> r32 (va.(l) *. vb.(l))
                    | Fp.F16 -> r16 (va.(l) *. vb.(l)))
                done;
                dst
            | Div, Config.Source -> fun benv ->
                let va = xa.ev benv and vb = xb.ev benv in
                let dst = benv.scratch.(s) in
                let fmts = benv.efmt.(fid) in
                for l = 0 to benv.k - 1 do
                  dst.(l) <-
                    (match fmts.(l) with
                    | Fp.F64 -> va.(l) /. vb.(l)
                    | Fp.F32 -> r32 (va.(l) /. vb.(l))
                    | Fp.F16 -> r16 (va.(l) /. vb.(l)))
                done;
                dst
            | Add, Config.Extended -> fun benv ->
                let va = xa.ev benv and vb = xb.ev benv in
                let dst = benv.scratch.(s) in
                for l = 0 to benv.k - 1 do
                  dst.(l) <- va.(l) +. vb.(l)
                done;
                dst
            | Sub, Config.Extended -> fun benv ->
                let va = xa.ev benv and vb = xb.ev benv in
                let dst = benv.scratch.(s) in
                for l = 0 to benv.k - 1 do
                  dst.(l) <- va.(l) -. vb.(l)
                done;
                dst
            | Mul, Config.Extended -> fun benv ->
                let va = xa.ev benv and vb = xb.ev benv in
                let dst = benv.scratch.(s) in
                for l = 0 to benv.k - 1 do
                  dst.(l) <- va.(l) *. vb.(l)
                done;
                dst
            | Div, Config.Extended -> fun benv ->
                let va = xa.ev benv and vb = xb.ev benv in
                let dst = benv.scratch.(s) in
                for l = 0 to benv.k - 1 do
                  dst.(l) <- va.(l) /. vb.(l)
                done;
                dst
            | _ -> assert false
          in
          { ev; fid }
    | Binop _ ->
        fail "integer expression used as float: %s" (Pp.expr_to_string e)
    | Call (name, args) -> (
        match Builtins.find builtins name with
        | None -> fail "user call %S survived inlining" name
        | Some (sg, impl) ->
            if sg.Builtins.ret <> Builtins.Kflt then
              fail "intrinsic %S yields an int, used as float" name;
            compile_call name sg impl args)

  (* An intrinsic's arguments lowered by the kinds of its signature,
     with the arity checked first, as {!Compile} does. *)
  and call_args name sg args =
    if List.compare_lengths sg.Builtins.args args <> 0 then
      fail "intrinsic %S expects %d arguments, got %d" name
        (List.length sg.Builtins.args) (List.length args);
    List.map2
      (fun k arg ->
        match k with
        | Builtins.Kflt -> `F (cf arg)
        | Builtins.Kint -> `I (ci arg))
      sg.Builtins.args args

  and compile_call name sg impl args : fex =
    let compiled = call_args name sg args in
    let float_fids =
      List.filter_map (function `F x -> Some x.fid | `I _ -> None) compiled
    in
    let fid =
      match mode with
      | Config.Source -> rule (Rwidest float_fids)
      | Config.Extended -> rule (Rfix Fp.F64)
    in
    let s = fresh_scratch () in
    let base : benv -> float array -> unit =
      match
        ( Builtins.prim builtins name,
          compiled,
          Builtins.fast1 builtins name,
          Builtins.fast2 builtins name )
      with
      | ( Some
            (( Sin | Cos | Tan | Exp | Log | Log10 | Sqrt | Tanh | Atan | Fabs
             | Floor | Ceil | Castf32 ) as p),
          [ `F a ],
          _,
          _ ) ->
          let run = unary_lanes p in
          fun benv dst -> run benv.k (a.ev benv) dst
      | Some Pow, [ `F a; `F b ], _, _ ->
          fun benv dst ->
            let va = a.ev benv and vb = b.ev benv in
            for l = 0 to benv.k - 1 do
              dst.(l) <- va.(l) ** vb.(l)
            done
      | Some Itof, [ `I g ], _, _ ->
          (* ints are uniform across the lanes *)
          fun benv dst -> Array.fill dst 0 benv.k (float_of_int (g benv))
      | _, [ `F a ], Some g, _ ->
          fun benv dst ->
            let src = a.ev benv in
            for l = 0 to benv.k - 1 do
              dst.(l) <- g src.(l)
            done
      | _, [ `F a; `F b ], _, Some g ->
          fun benv dst ->
            let va = a.ev benv and vb = b.ev benv in
            for l = 0 to benv.k - 1 do
              dst.(l) <- g va.(l) vb.(l)
            done
      | _, _, _, _ ->
          let getters = Array.of_list compiled in
          fun benv dst ->
            let vals =
              Array.map
                (function
                  | `F x -> `FV (x.ev benv)
                  | `I gi -> `IV (gi benv))
                getters
            in
            for l = 0 to benv.k - 1 do
              let argv =
                Array.map
                  (function
                    | `FV a -> Builtins.F a.(l)
                    | `IV n -> Builtins.I n)
                  vals
              in
              dst.(l) <- Builtins.as_float (impl argv)
            done
    in
    let base =
      if not meter then base
      else if sg.Builtins.approx then fun benv dst ->
        base benv dst;
        for l = 0 to benv.k - 1 do
          Cost.Counter.charge_approx benv.counters.(l) sg.Builtins.cls
        done
      else fun benv dst ->
        base benv dst;
        let fmts = benv.efmt.(fid) in
        for l = 0 to benv.k - 1 do
          let fmt =
            match mode with
            | Config.Source -> fmts.(l)
            | Config.Extended -> Fp.F64
          in
          Cost.Counter.charge_op benv.counters.(l) fmt sg.Builtins.cls
        done
    in
    rounded fid s base

  and ci e : benv -> int =
    match e with
    | Iconst n -> fun _ -> n
    | Fconst _ -> fail "float constant used as int"
    | Var v -> (
        match scope_find sc v with
        | Bi slot -> fun benv -> benv.it.(slot)
        | Bf _ -> fail "float variable %S used as int" v
        | Bfa _ | Bia _ -> fail "array %S used as a scalar" v)
    | Idx (a, ie) -> (
        let gi = ci ie in
        match scope_find sc a with
        | Bia slot -> fun benv -> benv.ia.(slot).(gi benv)
        | Bfa _ -> fail "float array %S used as int" a
        | Bf _ | Bi _ -> fail "scalar %S indexed" a)
    | Unop (Neg, e) ->
        let g = ci e in
        fun benv -> -g benv
    | Unop (Not, e) ->
        let g = ci e in
        fun benv -> if g benv = 0 then 1 else 0
    | Binop ((Add | Sub | Mul | Div | Mod) as op, a, b) -> (
        let ga = ci a and gb = ci b in
        match op with
        | Add -> fun benv -> ga benv + gb benv
        | Sub -> fun benv -> ga benv - gb benv
        | Mul -> fun benv -> ga benv * gb benv
        | Div -> fun benv -> ga benv / gb benv
        | Mod -> fun benv -> ga benv mod gb benv
        | _ -> assert false)
    | Binop ((And | Or) as op, a, b) -> (
        let ga = ci a and gb = ci b in
        match op with
        | And -> fun benv -> if ga benv <> 0 && gb benv <> 0 then 1 else 0
        | Or -> fun benv -> if ga benv <> 0 || gb benv <> 0 then 1 else 0
        | _ -> assert false)
    | Binop ((Eq | Ne | Lt | Le | Gt | Ge) as op, a, b) -> (
        match Typecheck.expr_kind ~builtins prog (lookup_ty sc) a with
        | exception Typecheck.Error m -> fail "%s" m
        | Typecheck.Escalar Builtins.Kint -> (
            let ga = ci a and gb = ci b in
            match op with
            | Eq -> fun benv -> if ga benv = gb benv then 1 else 0
            | Ne -> fun benv -> if ga benv <> gb benv then 1 else 0
            | Lt -> fun benv -> if ga benv < gb benv then 1 else 0
            | Le -> fun benv -> if ga benv <= gb benv then 1 else 0
            | Gt -> fun benv -> if ga benv > gb benv then 1 else 0
            | Ge -> fun benv -> if ga benv >= gb benv then 1 else 0
            | _ -> assert false)
        | _ ->
            (* A float comparison is where lanes can disagree: evaluate
               per lane and take the consensus. *)
            let xa = cf a and xb = cf b in
            let si = fresh_iscratch () in
            let cmp : float -> float -> bool =
              match op with
              | Eq -> ( = )
              | Ne -> ( <> )
              | Lt -> ( < )
              | Le -> ( <= )
              | Gt -> ( > )
              | Ge -> ( >= )
              | _ -> assert false
            in
            fun benv ->
              let va = xa.ev benv and vb = xb.ev benv in
              let dst = benv.iscratch.(si) in
              for l = 0 to benv.k - 1 do
                dst.(l) <- (if cmp va.(l) vb.(l) then 1 else 0)
              done;
              consensus benv dst)
    | Call (name, args) -> (
        match Builtins.find builtins name with
        | None -> fail "user call %S survived inlining" name
        | Some (sg, impl) ->
            if sg.Builtins.ret <> Builtins.Kint then
              fail "intrinsic %S yields a float, used as int" name;
            let compiled = call_args name sg args in
            let getters = Array.of_list compiled in
            let has_float =
              List.exists (function `F _ -> true | `I _ -> false) compiled
            in
            if not has_float then fun benv ->
              let argv =
                Array.map
                  (function
                    | `I gi -> Builtins.I (gi benv)
                    | `F _ -> assert false)
                  getters
              in
              Builtins.as_int (impl argv)
            else
              (* An int derived from floats: another consensus point. *)
              let si = fresh_iscratch () in
              fun benv ->
                let vals =
                  Array.map
                    (function
                      | `F x -> `FV (x.ev benv)
                      | `I gi -> `IV (gi benv))
                    getters
                in
                let dst = benv.iscratch.(si) in
                for l = 0 to benv.k - 1 do
                  let argv =
                    Array.map
                      (function
                        | `FV a -> Builtins.F a.(l)
                        | `IV n -> Builtins.I n)
                      vals
                  in
                  dst.(l) <- Builtins.as_int (impl argv)
                done;
                consensus benv dst)
  in

  (* Store into a float slot: per-lane rounding to the slot's storage
     format, cast-metered per lane when source and storage differ. *)
  let store_float slot (x : fex) : benv -> unit =
    if meter then fun benv ->
      let src = x.ev benv in
      let dst = benv.fl.(slot) in
      let sfmt = benv.efmt.(x.fid) and fmts = benv.vfmt.(slot) in
      for l = 0 to benv.k - 1 do
        if not (Fp.equal_format sfmt.(l) fmts.(l)) then
          Cost.Counter.charge_cast benv.counters.(l);
        dst.(l) <- rnd fmts.(l) src.(l)
      done
    else fun benv ->
      let src = x.ev benv in
      let dst = benv.fl.(slot) in
      let fmts = benv.vfmt.(slot) in
      for l = 0 to benv.k - 1 do
        dst.(l) <-
          (match fmts.(l) with
          | Fp.F64 -> src.(l)
          | Fp.F32 -> r32 src.(l)
          | Fp.F16 -> r16 src.(l))
      done
  in
  let store_farr slot gi (x : fex) : benv -> unit =
    if meter then fun benv ->
      let src = x.ev benv in
      let i = gi benv in
      let lanes = benv.fa.(slot) in
      let sfmt = benv.efmt.(x.fid) and fmts = benv.afmt.(slot) in
      for l = 0 to benv.k - 1 do
        if not (Fp.equal_format sfmt.(l) fmts.(l)) then
          Cost.Counter.charge_cast benv.counters.(l);
        lanes.(l).(i) <- rnd fmts.(l) src.(l)
      done
    else fun benv ->
      let src = x.ev benv in
      let i = gi benv in
      let lanes = benv.fa.(slot) in
      let fmts = benv.afmt.(slot) in
      for l = 0 to benv.k - 1 do
        lanes.(l).(i) <-
          (match fmts.(l) with
          | Fp.F64 -> src.(l)
          | Fp.F32 -> r32 src.(l)
          | Fp.F16 -> r16 src.(l))
      done
  in

  (* Predicated float-only branches. A data-dependent [if] whose
     condition is a float comparison of total expressions and whose
     branches only assign float scalars through total expressions
     (constants, float variables, negation, +,-,*,/ — pure, no
     consensus points, IEEE arithmetic never traps) keeps every
     lane's own outcome: the condition becomes a per-lane 0/1 mask
     and the branch stores fire only on lanes whose mask matches.
     Evaluating the not-taken side is invisible because its values
     are never stored, so there is no consensus point and no
     divergence — the argmin update in kmeans and the CNDF
     reflection in Black-Scholes stay at full lane occupancy.
     Metered artifacts keep the consensus path: predication would
     charge the not-taken side's operations. *)
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

  let rec cstmt s : benv -> unit =
    match s with
    | Decl { name; dty = Dscalar Sint; init } -> (
        let slot = fresh_i () in
        scope_declare sc name (Bi slot);
        match init with
        | None -> fun benv -> benv.it.(slot) <- 0
        | Some e ->
            let g = ci e in
            fun benv -> benv.it.(slot) <- g benv)
    | Decl { name; dty = Dscalar (Sflt _ as sca); init } -> (
        let slot = fresh_f () in
        var_specs := (slot, sca, name) :: !var_specs;
        scope_declare sc name (Bf slot);
        match init with
        | None ->
            fun benv ->
              let dst = benv.fl.(slot) in
              Array.fill dst 0 benv.k 0.
        | Some e -> store_float slot (cf e))
    | Decl { name; dty = Darr (Sint, size); init = _ } ->
        let gn = ci size in
        let slot = fresh_ia () in
        scope_declare sc name (Bia slot);
        fun benv -> benv.ia.(slot) <- Array.make (gn benv) 0
    | Decl { name; dty = Darr ((Sflt _ as sca), size); init = _ } ->
        let gn = ci size in
        let slot = fresh_fa () in
        arr_specs := (slot, sca, name) :: !arr_specs;
        scope_declare sc name (Bfa slot);
        fun benv ->
          let n = gn benv in
          let lanes = benv.fa.(slot) in
          for l = 0 to benv.k - 1 do
            lanes.(l) <- Array.make n 0.
          done
    | Assign (Lvar v, e) -> (
        match scope_find sc v with
        | Bf slot -> store_float slot (cf e)
        | Bi slot ->
            let g = ci e in
            fun benv -> benv.it.(slot) <- g benv
        | Bfa _ | Bia _ -> fail "cannot assign to array %S as a whole" v)
    | Assign (Lidx (a, ie), e) -> (
        let gi = ci ie in
        match scope_find sc a with
        | Bfa slot -> store_farr slot gi (cf e)
        | Bia slot ->
            let g = ci e in
            fun benv -> benv.ia.(slot).(gi benv) <- g benv
        | Bf _ | Bi _ -> fail "scalar %S indexed" a)
    | If (Binop (((Eq | Ne | Lt | Le | Gt | Ge) as op), a, b), t, e)
      when (not meter) && predicable_fexpr a && predicable_fexpr b
           && List.for_all predicable_stmt t
           && List.for_all predicable_stmt e ->
        (* predicable operands are float-kinded by construction, so
           this is exactly the comparison shape that would otherwise
           be a consensus point *)
        let xa = cf a and xb = cf b in
        let si = fresh_iscratch () in
        let cmp : float -> float -> bool =
          match op with
          | Eq -> ( = )
          | Ne -> ( <> )
          | Lt -> ( < )
          | Le -> ( <= )
          | Gt -> ( > )
          | Ge -> ( >= )
          | _ -> assert false
        in
        let pred_store sense s =
          match s with
          | Assign (Lvar v, e) -> (
              match scope_find sc v with
              | Bf slot ->
                  let x = cf e in
                  fun benv ->
                    let src = x.ev benv in
                    let dst = benv.fl.(slot) in
                    let fmts = benv.vfmt.(slot) in
                    let m = benv.iscratch.(si) in
                    for l = 0 to benv.k - 1 do
                      if m.(l) = sense then
                        dst.(l) <-
                          (match fmts.(l) with
                          | Fp.F64 -> src.(l)
                          | Fp.F32 -> r32 src.(l)
                          | Fp.F16 -> r16 src.(l))
                    done
              | _ -> assert false)
          | _ -> assert false
        in
        let gt = List.map (pred_store 1) t
        and ge = List.map (pred_store 0) e in
        fun benv ->
          let va = xa.ev benv and vb = xb.ev benv in
          let m = benv.iscratch.(si) in
          for l = 0 to benv.k - 1 do
            m.(l) <- (if cmp va.(l) vb.(l) then 1 else 0)
          done;
          List.iter (fun g -> g benv) gt;
          List.iter (fun g -> g benv) ge
    | If (c, t, e) ->
        let gc = ci c in
        let gt = cblock t and ge = cblock e in
        fun benv -> if gc benv <> 0 then gt benv else ge benv
    | For { var; lo; hi; down; body } ->
        let glo = ci lo and ghi = ci hi in
        scope_push sc;
        let slot = fresh_i () in
        scope_declare sc var (Bi slot);
        let gbody = cblock body in
        scope_pop sc;
        if down then fun benv ->
          let lo = glo benv and hi = ghi benv in
          for i = hi - 1 downto lo do
            benv.it.(slot) <- i;
            gbody benv
          done
        else fun benv ->
          let lo = glo benv and hi = ghi benv in
          for i = lo to hi - 1 do
            benv.it.(slot) <- i;
            gbody benv
          done
    | While (c, body) ->
        let gc = ci c in
        let gbody = cblock body in
        fun benv ->
          while gc benv <> 0 do
            gbody benv
          done
    | Return None ->
        fun benv -> raise (Breturn_f (Array.make benv.k Float.nan))
    | Return (Some e) -> (
        match Typecheck.expr_kind ~builtins prog (lookup_ty sc) e with
        | exception Typecheck.Error m -> fail "%s" m
        | Typecheck.Escalar Builtins.Kint ->
            let g = ci e in
            fun benv -> raise (Breturn_i (g benv))
        | _ ->
            let x = cf e in
            fun benv -> raise (Breturn_f (Array.copy (x.ev benv))))
    | Call_stmt (name, args) -> (
        match Builtins.find builtins name with
        | None -> fail "user call %S survived inlining" name
        | Some (sg, _) -> (
            match sg.Builtins.ret with
            | Builtins.Kflt ->
                let x = cf (Call (name, args)) in
                fun benv -> ignore (x.ev benv)
            | Builtins.Kint ->
                let g = ci (Call (name, args)) in
                fun benv -> ignore (g benv)))
    | Push (Lvar v) -> (
        match scope_find sc v with
        | Bf slot ->
            fun benv ->
              let src = benv.fl.(slot) in
              for l = 0 to benv.k - 1 do
                Growable.Float.push benv.fstack.(l) src.(l)
              done
        | Bi slot ->
            fun benv ->
              Growable.push benv.istack benv.it.(slot);
              if Growable.length benv.istack > benv.ipeak then
                benv.ipeak <- Growable.length benv.istack
        | Bfa _ | Bia _ -> fail "cannot push whole array %S" v)
    | Push (Lidx (a, ie)) -> (
        let gi = ci ie in
        match scope_find sc a with
        | Bfa slot ->
            fun benv ->
              let i = gi benv in
              let lanes = benv.fa.(slot) in
              for l = 0 to benv.k - 1 do
                Growable.Float.push benv.fstack.(l) lanes.(l).(i)
              done
        | Bia slot ->
            fun benv ->
              Growable.push benv.istack benv.ia.(slot).(gi benv);
              if Growable.length benv.istack > benv.ipeak then
                benv.ipeak <- Growable.length benv.istack
        | Bf _ | Bi _ -> fail "scalar %S indexed" a)
    | Pop (Lvar v) -> (
        match scope_find sc v with
        | Bf slot ->
            fun benv ->
              let dst = benv.fl.(slot) in
              (* pop order mirrors push order lane-by-lane: each lane's
                 stack is private, so any consistent order works *)
              for l = 0 to benv.k - 1 do
                dst.(l) <- Growable.Float.pop benv.fstack.(l)
              done
        | Bi slot ->
            fun benv -> benv.it.(slot) <- Growable.pop benv.istack
        | Bfa _ | Bia _ -> fail "cannot pop whole array %S" v)
    | Pop (Lidx (a, ie)) -> (
        let gi = ci ie in
        match scope_find sc a with
        | Bfa slot ->
            fun benv ->
              let i = gi benv in
              let lanes = benv.fa.(slot) in
              for l = 0 to benv.k - 1 do
                lanes.(l).(i) <- Growable.Float.pop benv.fstack.(l)
              done
        | Bia slot ->
            fun benv ->
              benv.ia.(slot).(gi benv) <- Growable.pop benv.istack
        | Bf _ | Bi _ -> fail "scalar %S indexed" a)

  and cblock stmts : benv -> unit =
    scope_push sc;
    let compiled = Array.of_list (List.map cstmt stmts) in
    scope_pop sc;
    fun benv -> Array.iter (fun g -> g benv) compiled
  in

  let param_bindings =
    List.map
      (fun p ->
        let b =
          match p.pty with
          | Tscalar Sint -> Bi (fresh_i ())
          | Tscalar (Sflt _ as sca) ->
              let slot = fresh_f () in
              var_specs := (slot, sca, p.pname) :: !var_specs;
              Bf slot
          | Tarr (Sflt _ as sca) ->
              let slot = fresh_fa () in
              arr_specs := (slot, sca, p.pname) :: !arr_specs;
              Bfa slot
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
  let compiled = Array.of_list (List.map cstmt f.body) in
  let run_body benv = Array.iter (fun g -> g benv) compiled in
  {
    cfunc = f;
    prog;
    func_name = func;
    builtins_opt;
    mode;
    meter;
    optimize;
    run_body;
    nfl = !nfl;
    nit = !nit;
    nfa = !nfa;
    nia = !nia;
    nscratch = !nscratch;
    niscratch = !niscratch;
    consts = !consts;
    rules = Array.of_list (List.rev !rules_rev);
    var_specs = !var_specs;
    arr_specs = !arr_specs;
    out_scalars;
    param_bindings;
    fmt_cache = Atomic.make None;
  }

(* ------------------------------------------------------------------ *)
(* Running.                                                           *)

type result = { lanes : Interp.result array; divergences : int }

(* Per-lane storage formats of every float slot, then the format of
   every float expression node by folding the rule DAG (children were
   emitted before parents). [config_of] gives each lane's
   configuration; the input-sweep axis passes a constant. *)
let resolve_formats t ~k ~config_of =
  let vfmt = Array.init (max t.nfl 1) (fun _ -> Array.make k Fp.F64) in
  let afmt = Array.init (max t.nfa 1) (fun _ -> Array.make k Fp.F64) in
  let resolve specs table =
    List.iter
      (fun (slot, sca, name) ->
        let row = table.(slot) in
        for l = 0 to k - 1 do
          row.(l) <- Interp.effective_format (config_of l) sca name
        done)
      specs
  in
  resolve t.var_specs vfmt;
  resolve t.arr_specs afmt;
  let wider a b = if Fp.bits a >= Fp.bits b then a else b in
  let nrules = Array.length t.rules in
  let efmt = Array.init (max nrules 1) (fun _ -> Array.make k Fp.F64) in
  for r = 0 to nrules - 1 do
    let row = efmt.(r) in
    match t.rules.(r) with
    | Rfix fmt -> Array.fill row 0 k fmt
    | Rslot s -> Array.blit vfmt.(s) 0 row 0 k
    | Raslot s -> Array.blit afmt.(s) 0 row 0 k
    | Rwider (a, b) ->
        let ra = efmt.(a) and rb = efmt.(b) in
        for l = 0 to k - 1 do
          row.(l) <- wider ra.(l) rb.(l)
        done
    | Rwidest [] -> Array.fill row 0 k Fp.F64
    | Rwidest ids ->
        for l = 0 to k - 1 do
          row.(l) <-
            List.fold_left (fun acc i -> wider acc efmt.(i).(l)) Fp.F16 ids
        done
  done;
  (vfmt, afmt, efmt)

let make_benv t ~k ~counters (vfmt, afmt, efmt) =
  let benv =
    {
      k;
      fl = Array.init (max t.nfl 1) (fun _ -> Array.make k 0.);
      it = Array.make (max t.nit 1) 0;
      fa = Array.init (max t.nfa 1) (fun _ -> Array.make k [||]);
      ia = Array.make (max t.nia 1) [||];
      fstack = Array.init k (fun _ -> Growable.Float.create ());
      istack = Growable.create ~dummy:0 ();
      ipeak = 0;
      active = Array.make k true;
      dropped = 0;
      counters;
      vfmt;
      afmt;
      efmt;
      scratch = Array.init (max t.nscratch 1) (fun _ -> Array.make k 0.);
      iscratch = Array.init (max t.niscratch 1) (fun _ -> Array.make k 0);
    }
  in
  List.iter (fun (s, x) -> Array.fill benv.scratch.(s) 0 k x) t.consts;
  benv

(* Execute the compiled body over a loaded environment and assemble the
   per-lane results. [fallback_run l] re-runs diverged lane [l] scalar
   from its pristine arguments — the bit-identity contract's definition
   of correct (its batched state is garbage past the split point). *)
let execute t benv ~counters ~fallback_run =
  let ret =
    try
      t.run_body benv;
      `None
    with
    | Breturn_f xs -> `F xs
    | Breturn_i n -> `I n
  in
  let lane_result l =
    let ret =
      match ret with
      | `None -> None
      | `F xs ->
          let x = xs.(l) in
          if Float.is_nan x && t.cfunc.ret = None then None
          else Some (Builtins.F x)
      | `I n -> Some (Builtins.I n)
    in
    let outs =
      List.map
        (fun (name, b) ->
          match b with
          | Bf slot -> (name, Builtins.F benv.fl.(slot).(l))
          | Bi slot -> (name, Builtins.I benv.it.(slot))
          | Bfa _ | Bia _ -> assert false)
        t.out_scalars
    in
    {
      Interp.ret;
      outs;
      stack_peak_bytes =
        (Growable.Float.peak_length benv.fstack.(l) * 8) + (benv.ipeak * 8);
    }
  in
  let results =
    Array.init benv.k (fun l ->
        if benv.active.(l) then lane_result l
        else begin
          Cost.Counter.reset counters.(l);
          fallback_run l
        end)
  in
  if benv.dropped > 0 then Metrics.add divergence_c benv.dropped;
  if Trace.enabled () then Trace.add_attr "divergences" (Trace.Int benv.dropped);
  { lanes = results; divergences = benv.dropped }

let default_fallback t =
  fun config ->
    Compile.compile ?builtins:t.builtins_opt ~config ~mode:t.mode
      ~meter:t.meter ~optimize:t.optimize ~prog:t.prog ~func:t.func_name ()

let run ?counters ?fallback t ~configs args =
  let k = Array.length configs in
  if k = 0 then invalid_arg "Batch.run: empty configuration array";
  if List.length args <> List.length t.param_bindings then
    fail "function %S expects %d arguments, got %d" t.cfunc.fname
      (List.length t.param_bindings)
      (List.length args);
  let counters =
    match counters with
    | Some cs ->
        if Array.length cs <> k then
          invalid_arg "Batch.run: counters/configs length mismatch";
        cs
    | None -> Array.init k (fun _ -> Cost.Counter.create Cost.default)
  in
  Trace.with_span "batch.run" @@ fun () ->
  if Trace.enabled () then Trace.add_attr "lanes" (Trace.Int k);
  Metrics.set_gauge lanes_g (float_of_int k);
  Metrics.incr runs_c;
  let ((vfmt, afmt, _) as fmts) =
    resolve_formats t ~k ~config_of:(fun l -> configs.(l))
  in
  let benv = make_benv t ~k ~counters fmts in
  (* Load arguments per lane with storage-format rounding. Unlike the
     scalar runner, caller arrays are never shared: lanes need private
     copies, and diverged lanes re-run from the pristine originals. *)
  List.iter2
    (fun (p, b) arg ->
      match (b, arg) with
      | Bf slot, Interp.Aflt x ->
          let dst = benv.fl.(slot) and fmts = vfmt.(slot) in
          for l = 0 to k - 1 do
            dst.(l) <- rnd fmts.(l) x
          done
      | Bi slot, Interp.Aint n -> benv.it.(slot) <- n
      | Bfa slot, Interp.Afarr a ->
          let lanes = benv.fa.(slot) and fmts = afmt.(slot) in
          for l = 0 to k - 1 do
            lanes.(l) <-
              (if Fp.equal_format fmts.(l) Fp.F64 then Array.copy a
               else Array.map (rnd fmts.(l)) a)
          done
      | Bia slot, Interp.Aiarr a -> benv.ia.(slot) <- Array.copy a
      | _, _ -> fail "argument kind mismatch for parameter %S" p.pname)
    t.param_bindings args;
  let fallback = match fallback with Some f -> f | None -> default_fallback t in
  execute t benv ~counters ~fallback_run:(fun l ->
      Compile.run ~counter:counters.(l) (fallback configs.(l))
        (Interp.copy_args args))

(* ------------------------------------------------------------------ *)
(* Input-sweep axis: K sampled argument vectors under ONE
   configuration. The compiled artifact is both configuration- and
   input-generic, so the very same closures serve this axis; only
   format resolution (uniform rows) and argument loading (per-lane
   vectors, integer arguments through consensus) differ. *)

let input_sweeps_c = Metrics.counter "batch.input_sweeps"

let run_inputs ?counters ?fallback t ~config (inputs : Interp.arg list array) =
  let k = Array.length inputs in
  if k = 0 then invalid_arg "Batch.run_inputs: empty inputs array";
  let nparams = List.length t.param_bindings in
  Array.iter
    (fun args ->
      if List.length args <> nparams then
        fail "function %S expects %d arguments, got %d" t.cfunc.fname nparams
          (List.length args))
    inputs;
  let counters =
    match counters with
    | Some cs ->
        if Array.length cs <> k then
          invalid_arg "Batch.run_inputs: counters/inputs length mismatch";
        cs
    | None -> Array.init k (fun _ -> Cost.Counter.create Cost.default)
  in
  Trace.with_span "batch.input_sweep" @@ fun () ->
  if Trace.enabled () then Trace.add_attr "lanes" (Trace.Int k);
  Metrics.set_gauge lanes_g (float_of_int k);
  Metrics.incr input_sweeps_c;
  (* One sweep's chunks (and one caller's repeated sweeps) share the
     same physical config, and the resolved tables are read-only once
     built — so cache the last resolution instead of re-walking the
     rule DAG and the config's override map for every chunk. The
     physical-equality key makes a stale hit impossible and keeps the
     lookup free; a miss just recomputes. *)
  let ((vfmt, afmt, _) as fmts) =
    match Atomic.get t.fmt_cache with
    | Some (c, kk, tabs) when kk = k && c == config -> tabs
    | _ ->
        let tabs = resolve_formats t ~k ~config_of:(fun _ -> config) in
        Atomic.set t.fmt_cache (Some (config, k, tabs));
        tabs
  in
  let benv = make_benv t ~k ~counters fmts in
  let argv = Array.map Array.of_list inputs in
  (* Integer arguments feed the shared control flow, so they go through
     [consensus] exactly like a run-time float->int crossing: dissenting
     lanes deactivate and re-run scalar. Sampling only perturbs floats,
     so in practice every lane agrees and nothing is dropped. *)
  let ivals = Array.make k 0 in
  List.iteri
    (fun pi (p, b) ->
      let kind_fail () = fail "argument kind mismatch for parameter %S" p.pname in
      match b with
      | Bf slot ->
          let dst = benv.fl.(slot) and fmts = vfmt.(slot) in
          for l = 0 to k - 1 do
            match argv.(l).(pi) with
            | Interp.Aflt x -> dst.(l) <- rnd fmts.(l) x
            | _ -> kind_fail ()
          done
      | Bi slot ->
          for l = 0 to k - 1 do
            match argv.(l).(pi) with
            | Interp.Aint n -> ivals.(l) <- n
            | _ -> kind_fail ()
          done;
          benv.it.(slot) <- consensus benv ivals
      | Bfa slot ->
          (* Lanes carry private float arrays, but the shared integer
             control flow assumes one logical extent: lanes whose array
             length dissents deactivate, and deactivated lanes get a
             zero-filled placeholder of the consensus length so the
             batched loops stay in bounds (their values are garbage by
             construction — the scalar re-run is authoritative). *)
          for l = 0 to k - 1 do
            match argv.(l).(pi) with
            | Interp.Afarr a -> ivals.(l) <- Array.length a
            | _ -> kind_fail ()
          done;
          let len = consensus benv ivals in
          let lanes = benv.fa.(slot) and fmts = afmt.(slot) in
          for l = 0 to k - 1 do
            match argv.(l).(pi) with
            | Interp.Afarr a ->
                lanes.(l) <-
                  (if not benv.active.(l) then Array.make len 0.
                   else if Fp.equal_format fmts.(l) Fp.F64 then Array.copy a
                   else Array.map (rnd fmts.(l)) a)
            | _ -> kind_fail ()
          done
      | Bia slot ->
          (* Integer arrays are uniform state: group the lanes' arrays
             by structural equality and take the consensus group. *)
          let distinct = ref [] in
          for l = 0 to k - 1 do
            match argv.(l).(pi) with
            | Interp.Aiarr a ->
                let rec find i = function
                  | [] ->
                      distinct := !distinct @ [ a ];
                      i
                  | b :: _ when b = a -> i
                  | _ :: rest -> find (i + 1) rest
                in
                ivals.(l) <- find 0 !distinct
            | _ -> kind_fail ()
          done;
          let id = consensus benv ivals in
          benv.ia.(slot) <- Array.copy (List.nth !distinct id))
    t.param_bindings;
  let fallback = match fallback with Some f -> f | None -> default_fallback t in
  let scalar = lazy (fallback config) in
  execute t benv ~counters ~fallback_run:(fun l ->
      Compile.run ~counter:counters.(l) (Lazy.force scalar)
        (Interp.copy_args inputs.(l)))

let run_inputs_floats ?counters ?fallback t ~config inputs =
  let r = run_inputs ?counters ?fallback t ~config inputs in
  Array.map
    (fun lane ->
      match lane.Interp.ret with
      | Some (Builtins.F x) -> x
      | _ -> fail "function %S did not return a float" t.cfunc.fname)
    r.lanes

let run_inputs_many ?(jobs = 1) ?(lanes = default_lanes) ?fallback t ~config
    (inputs : Interp.arg list array) =
  let lanes = max 1 lanes in
  let n = Array.length inputs in
  let nchunks = (n + lanes - 1) / lanes in
  List.init nchunks (fun c ->
      Array.sub inputs (c * lanes) (min lanes (n - (c * lanes))))
  |> Pool.parallel_map ~jobs (fun chunk ->
         run_inputs_floats ?fallback t ~config chunk)
  |> List.map Array.to_list
  |> List.concat
  |> Array.of_list

let run_floats ?counters ?fallback t ~configs args =
  let r = run ?counters ?fallback t ~configs args in
  Array.map
    (fun lane ->
      match lane.Interp.ret with
      | Some (Builtins.F x) -> x
      | _ -> fail "function %S did not return a float" t.cfunc.fname)
    r.lanes

let run_many ?(jobs = 1) ?(lanes = default_lanes) ?fallback t ~configs args =
  let lanes = max 1 lanes in
  let rec chunk = function
    | [] -> []
    | cfgs ->
        let rec take n acc = function
          | rest when n = 0 -> (List.rev acc, rest)
          | [] -> (List.rev acc, [])
          | c :: rest -> take (n - 1) (c :: acc) rest
        in
        let head, rest = take lanes [] cfgs in
        Array.of_list head :: chunk rest
  in
  chunk configs
  |> Pool.parallel_map ~jobs (fun cfgs ->
         run_floats ?fallback t ~configs:cfgs args)
  |> List.concat_map Array.to_list
