(* Random well-typed MiniFP program generator for differential testing.

   Generates straight-line-plus-structure float programs over a fixed
   set of variables: every generated function has the signature
   [func fuzz(x: f64, y: f64, n: int): f64] and a body built from
   assignments, [for]/[while]/[if] blocks, and numerically tame
   intrinsics. Values are kept in a safe range by construction
   (coefficients are small, divisions guard their denominators, [exp]
   arguments are damped) so differential comparisons are meaningful
   rather than NaN-vs-NaN.

   Used by the fuzz suites: Interp = Compile, optimizer preserves
   semantics, Normalize preserves semantics, reverse AD = forward AD =
   finite differences, activity analysis changes nothing, and the
   adjoint's stack discipline restores all state. *)

open Cheffp_ir
open Ast
module G = QCheck.Gen

let float_vars = [ "x"; "y"; "a"; "b"; "c" ]
(* "x" and "y" are parameters; a b c are locals initialised from them.
   There is also one fixed local array [ar: f64[8]], read and written at
   constant indices so every access is in bounds. *)

let array_len = 8

let gen_coeff : float G.t =
  G.oneofl [ 0.5; 1.0; 1.5; 2.0; 0.25; 3.0; 0.75; 1.25 ]

let gen_var : string G.t = G.oneofl float_vars

(* Safe unary intrinsics: defined and smooth on all of R after damping. *)
let gen_call1 (arg : expr) : expr G.t =
  G.oneofl
    [
      Call ("sin", [ arg ]);
      Call ("cos", [ arg ]);
      Call ("tanh", [ arg ]);
      Call ("atan", [ arg ]);
      (* exp of a damped argument stays in range *)
      Call ("exp", [ Binop (Mul, Fconst 0.125, arg) ]);
      (* sqrt/log of a positive-by-construction argument *)
      Call ("sqrt", [ Binop (Add, Fconst 1.5, Call ("tanh", [ arg ])) ]);
      Call ("log", [ Binop (Add, Fconst 2.5, Call ("sin", [ arg ])) ]);
      Call ("fabs", [ arg ]);
    ]

let rec gen_fexpr n : expr G.t =
  let open G in
  if n <= 0 then
    oneof
      [
        map (fun c -> Fconst c) gen_coeff;
        map (fun v -> Var v) gen_var;
        map (fun i -> Idx ("ar", Iconst i)) (int_range 0 (array_len - 1));
      ]
  else
    frequency
      [
        (2, map (fun c -> Fconst c) gen_coeff);
        (3, map (fun v -> Var v) gen_var);
        (1, map (fun i -> Idx ("ar", Iconst i)) (int_range 0 (array_len - 1)));
        ( 4,
          let* op = oneofl [ Add; Sub; Mul ] in
          let* a = gen_fexpr (n / 2) in
          let* b = gen_fexpr (n / 2) in
          return (Binop (op, a, b)) );
        ( 1,
          (* guarded division: denominator bounded away from zero *)
          let* a = gen_fexpr (n / 2) in
          let* b = gen_fexpr (n / 2) in
          return
            (Binop
               ( Div,
                 a,
                 Binop (Add, Fconst 3.0, Call ("tanh", [ b ])) )) );
        ( 2,
          let* a = gen_fexpr (n - 1) in
          gen_call1 a );
        (1, map (fun e -> Unop (Neg, e)) (gen_fexpr (n - 1)));
      ]

(* Conditions compare two tame float expressions. *)
let gen_cond n : expr G.t =
  let open G in
  let* op = oneofl [ Lt; Le; Gt; Ge ] in
  let* a = gen_fexpr (n / 2) in
  let* b = gen_fexpr (n / 2) in
  return (Binop (op, a, b))

(* Damped assignment: v = tanh(e) * coeff + coeff' keeps the state
   bounded across loop iterations while staying smooth. Targets are
   scalars or a constant-indexed array slot. *)
let lv_expr = function
  | Lvar v -> Var v
  | Lidx (a, i) -> Idx (a, i)

let gen_assign : stmt G.t =
  let open G in
  let* lv =
    frequency
      [
        (4, map (fun v -> Lvar v) gen_var);
        (1, map (fun i -> Lidx ("ar", Iconst i)) (int_range 0 (array_len - 1)));
      ]
  in
  let* e = gen_fexpr 4 in
  let* damp = bool in
  let rhs =
    if damp then
      Binop (Add, Call ("tanh", [ e ]), Binop (Mul, Fconst 0.25, lv_expr lv))
    else e
  in
  return (Assign (lv, rhs))

let rec gen_stmt depth : stmt G.t =
  let open G in
  if depth <= 0 then gen_assign
  else
    frequency
      [
        (6, gen_assign);
        ( 2,
          let* c = gen_cond 3 in
          let* t = gen_block (depth - 1) 2 in
          let* e = gen_block (depth - 1) 2 in
          return (If (c, t, e)) );
        ( 2,
          let* body = gen_block (depth - 1) 3 in
          let* lo = int_range 0 2 in
          let* hi = int_range 3 6 in
          let* use_n = bool in
          let hi_expr =
            if use_n then Binop (Add, Var "n", Iconst (hi - 3)) else Iconst hi
          in
          return (For { var = "i" ^ string_of_int depth; lo = Iconst lo;
                        hi = hi_expr; down = false; body }) );
        ( 1,
          (* bounded while: counter declared by the harness prelude *)
          let* body = gen_block (depth - 1) 2 in
          let k = "w" ^ string_of_int depth in
          return
            (While
               ( Binop (Lt, Var k, Iconst 4),
                 body @ [ Assign (Lvar k, Binop (Add, Var k, Iconst 1)) ] )) );
      ]

and gen_block depth len : stmt list G.t =
  let open G in
  let* n = int_range 1 len in
  list_repeat n (gen_stmt depth)

let gen_func : func G.t =
  let open G in
  let* body = gen_block 2 5 in
  let* ret = gen_fexpr 3 in
  let prelude =
    [
      Decl { name = "a"; dty = Dscalar (Sflt Cheffp_precision.Fp.F64);
             init = Some (Binop (Mul, Fconst 0.5, Var "x")) };
      Decl { name = "b"; dty = Dscalar (Sflt Cheffp_precision.Fp.F64);
             init = Some (Binop (Add, Var "y", Fconst 0.25)) };
      Decl { name = "c"; dty = Dscalar (Sflt Cheffp_precision.Fp.F64);
             init = Some (Fconst 1.0) };
      (* while counters for every possible depth *)
      Decl { name = "w1"; dty = Dscalar Sint; init = Some (Iconst 0) };
      Decl { name = "w2"; dty = Dscalar Sint; init = Some (Iconst 0) };
      Decl
        {
          name = "ar";
          dty = Darr (Sflt Cheffp_precision.Fp.F64, Iconst array_len);
          init = None;
        };
    ]
    @ List.init array_len (fun i ->
          Assign
            ( Lidx ("ar", Iconst i),
              Binop
                ( Add,
                  Binop (Mul, Fconst (0.1 *. float_of_int i), Var "x"),
                  Var "y" ) ))
  in
  return
    {
      fname = "fuzz";
      params =
        [
          { pname = "x"; pty = Tscalar (Sflt Cheffp_precision.Fp.F64); pmode = In };
          { pname = "y"; pty = Tscalar (Sflt Cheffp_precision.Fp.F64); pmode = In };
          { pname = "n"; pty = Tscalar Sint; pmode = In };
        ];
      ret = Some (Sflt Cheffp_precision.Fp.F64);
      body = prelude @ body @ [ Return (Some ret) ];
    }

let gen_program : program G.t = G.map (fun f -> { funcs = [ f ] }) gen_func

(* QCheck arbitrary with a printer that shows the offending program. *)
let arbitrary_program : program QCheck.arbitrary =
  QCheck.make ~print:Pp.program_to_string gen_program

let gen_inputs : (float * float) G.t =
  G.pair (G.float_range (-2.) 2.) (G.float_range (-2.) 2.)

let arbitrary_case : (program * (float * float)) QCheck.arbitrary =
  QCheck.make
    ~print:(fun (p, (x, y)) ->
      Printf.sprintf "x=%.17g y=%.17g\n%s" x y (Pp.program_to_string p))
    (G.pair gen_program gen_inputs)

(* Bit identity of two runs' results: floats agree by their bits (so a
   NaN matches the same NaN, and -0.0 does not match 0.0), everything
   else exactly. *)
let same_float x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let same_floats a b =
  Array.length a = Array.length b && Array.for_all2 same_float a b

let same_value (a : Builtins.value) (b : Builtins.value) =
  match (a, b) with
  | F x, F y -> same_float x y
  | I m, I n -> m = n
  | _, _ -> false

let same_result (a : Interp.result) (b : Interp.result) =
  Option.equal same_value a.ret b.ret
  && List.equal
       (fun (n, v) (n', v') -> String.equal n n' && same_value v v')
       a.outs b.outs
  && a.stack_peak_bytes = b.stack_peak_bytes

(* ------------------------------------------------------------------ *)
(* Mixed-precision variants, for the shadow-oracle fuzz properties:    *)
(* the same program shapes, but with randomly narrowed declarations    *)
(* (F16/F32/F64 scalars and the array) and a random configuration of   *)
(* per-variable overrides on top.                                      *)
(* ------------------------------------------------------------------ *)

module Fp = Cheffp_precision.Fp
module Config = Cheffp_precision.Config

let mixable_vars = [ "x"; "y"; "a"; "b"; "c"; "ar" ]

let gen_fmt : Fp.format G.t = G.oneofl [ Fp.F16; Fp.F32; Fp.F64 ]

(* Rewrite the declared float formats of a generated function; [fmts]
   maps variable name to its new storage format (parameters, scalar
   locals, and the fixed array alike). *)
let retype_func (fmts : (string * Fp.format) list) (f : func) : func =
  let fmt_of name fallback =
    match List.assoc_opt name fmts with Some fm -> fm | None -> fallback
  in
  let params =
    List.map
      (fun p ->
        match p.pty with
        | Tscalar (Sflt _) -> { p with pty = Tscalar (Sflt (fmt_of p.pname Fp.F64)) }
        | _ -> p)
      f.params
  in
  let body =
    List.map
      (function
        | Decl ({ dty = Dscalar (Sflt _); _ } as d) ->
            Decl { d with dty = Dscalar (Sflt (fmt_of d.name Fp.F64)) }
        | Decl ({ dty = Darr (Sflt _, len); _ } as d) ->
            Decl { d with dty = Darr (Sflt (fmt_of d.name Fp.F64), len) }
        | s -> s)
      f.body
  in
  { f with params; body }

let gen_mixed_func : func G.t =
  let open G in
  let* f = gen_func in
  let* fmts =
    flatten_l
      (List.map (fun v -> map (fun fm -> (v, fm)) gen_fmt) mixable_vars)
  in
  return (retype_func fmts f)

let gen_mixed_program : program G.t =
  G.map (fun f -> { funcs = [ f ] }) gen_mixed_func

(* A random configuration over the known variable names: each gets no
   override (most of the time), or an F32/F16 demotion. The default
   format stays F64, as everywhere else in the suite. *)
let gen_config : Config.t G.t =
  let open G in
  let* overrides =
    flatten_l
      (List.map
         (fun v ->
           map
             (fun o -> (v, o))
             (oneofl [ None; None; None; Some Fp.F32; Some Fp.F16 ]))
         mixable_vars)
  in
  return
    (List.fold_left
       (fun cfg (v, o) ->
         match o with None -> cfg | Some fm -> Config.demote cfg v fm)
       Config.double overrides)

let arbitrary_mixed_program : program QCheck.arbitrary =
  QCheck.make ~print:Pp.program_to_string gen_mixed_program

(* Soundness regime: the CHEF-FP model (Eq. 2) bounds the effect of
   demoting a {e binary64} program, so the oracle fuzz pairs random
   configurations with F64-declared programs. Configurations over
   programs with declared-narrow types can {e promote} a variable above
   its declaration or perturb the realized rounding of a downstream
   narrow store by a full ulp — both outside the first-order model
   (DESIGN.md §10); those programs are exercised by
   [arbitrary_mixed_case] instead. *)
let arbitrary_shadow_case :
    (program * Config.t * (float * float)) QCheck.arbitrary =
  QCheck.make
    ~print:(fun (p, cfg, (x, y)) ->
      Printf.sprintf "x=%.17g y=%.17g config=%s\n%s" x y (Config.to_string cfg)
        (Pp.program_to_string p))
    (G.triple gen_program gen_config gen_inputs)

let arbitrary_mixed_case : (program * (float * float)) QCheck.arbitrary =
  QCheck.make
    ~print:(fun (p, (x, y)) ->
      Printf.sprintf "x=%.17g y=%.17g\n%s" x y (Pp.program_to_string p))
    (G.pair gen_mixed_program gen_inputs)

(* ------------------------------------------------------------------ *)
(* FPCore-exportable programs, for the Export -> Import round-trip     *)
(* fuzz property. Same tame arithmetic, restricted to the subset the   *)
(* exporter maps exactly (DESIGN.md §15): no arrays, negation only of  *)
(* variables (the exporter folds negated literals), two-sided ifs      *)
(* assigning a single variable, and single-accumulator loops with      *)
(* globally unique counters so reimported counter names can't shift.   *)
(* ------------------------------------------------------------------ *)

let rec gen_xexpr n : expr G.t =
  let open G in
  if n <= 0 then
    oneof [ map (fun c -> Fconst c) gen_coeff; map (fun v -> Var v) gen_var ]
  else
    frequency
      [
        (2, map (fun c -> Fconst c) gen_coeff);
        (3, map (fun v -> Var v) gen_var);
        ( 4,
          let* op = oneofl [ Add; Sub; Mul ] in
          let* a = gen_xexpr (n / 2) in
          let* b = gen_xexpr (n / 2) in
          return (Binop (op, a, b)) );
        ( 1,
          let* a = gen_xexpr (n / 2) in
          let* b = gen_xexpr (n / 2) in
          return
            (Binop (Div, a, Binop (Add, Fconst 3.0, Call ("tanh", [ b ])))) );
        ( 2,
          let* a = gen_xexpr (n - 1) in
          gen_call1 a );
        (1, map (fun v -> Unop (Neg, Var v)) gen_var);
      ]

let gen_xassign_to v : stmt G.t =
  let open G in
  let* e = gen_xexpr 4 in
  let* damp = bool in
  let rhs =
    if damp then
      Binop (Add, Call ("tanh", [ e ]), Binop (Mul, Fconst 0.25, Var v))
    else e
  in
  return (Assign (Lvar v, rhs))

let gen_xassign : stmt G.t = G.(gen_var >>= gen_xassign_to)

let gen_xcond : expr G.t =
  let open G in
  let* op = oneofl [ Lt; Le; Gt; Ge ] in
  let* a = gen_xexpr 2 in
  let* b = gen_xexpr 2 in
  return (Binop (op, a, b))

(* One top-level statement; [k] makes loop counter names unique across
   the function (the importer re-derives them with [fresh], so a
   colliding name would come back renamed and break AST equality). *)
let gen_segment k : (stmt * string option) G.t =
  let open G in
  frequency
    [
      (5, map (fun s -> (s, None)) gen_xassign);
      ( 2,
        let* c = gen_xcond in
        let* v = gen_var in
        let* t = gen_xassign_to v in
        let* e = gen_xassign_to v in
        return (If (c, [ t ], [ e ]), None) );
      ( 2,
        let* v = gen_var in
        let* upd = gen_xassign_to v in
        let* lo = int_range 0 2 in
        let* hi = int_range 3 6 in
        let* use_n = bool in
        let* down = bool in
        let hi_expr =
          if use_n then Binop (Add, Var "n", Iconst (hi - 3)) else Iconst hi
        in
        return
          ( For
              {
                var = Printf.sprintf "k%d" k;
                lo = Iconst lo;
                hi = hi_expr;
                down;
                body = [ upd ];
              },
            None ) );
      ( 1,
        let* v = gen_var in
        let* upd = gen_xassign_to v in
        let w = Printf.sprintf "w%d" k in
        return
          ( While
              ( Binop (Lt, Var w, Iconst 4),
                [ upd; Assign (Lvar w, Binop (Add, Var w, Iconst 1)) ] ),
            Some w ) );
    ]

let gen_export_func : func G.t =
  let open G in
  let* nseg = int_range 2 6 in
  let* segments = flatten_l (List.init nseg gen_segment) in
  let* ret = gen_xexpr 3 in
  let counters = List.filter_map snd segments in
  let prelude =
    [
      Decl { name = "a"; dty = Dscalar (Sflt Fp.F64);
             init = Some (Binop (Mul, Fconst 0.5, Var "x")) };
      Decl { name = "b"; dty = Dscalar (Sflt Fp.F64);
             init = Some (Binop (Add, Var "y", Fconst 0.25)) };
      Decl { name = "c"; dty = Dscalar (Sflt Fp.F64);
             init = Some (Fconst 1.0) };
    ]
    @ List.map
        (fun w -> Decl { name = w; dty = Dscalar Sint; init = Some (Iconst 0) })
        counters
  in
  return
    {
      fname = "fuzz";
      params =
        [
          { pname = "x"; pty = Tscalar (Sflt Fp.F64); pmode = In };
          { pname = "y"; pty = Tscalar (Sflt Fp.F64); pmode = In };
          { pname = "n"; pty = Tscalar Sint; pmode = In };
        ];
      ret = Some (Sflt Fp.F64);
      body = prelude @ List.map fst segments @ [ Return (Some ret) ];
    }

let arbitrary_export_case : (program * (float * float)) QCheck.arbitrary =
  QCheck.make
    ~print:(fun (p, (x, y)) ->
      Printf.sprintf "x=%.17g y=%.17g\n%s" x y (Pp.program_to_string p))
    (G.pair (G.map (fun f -> { funcs = [ f ] }) gen_export_func) gen_inputs)
