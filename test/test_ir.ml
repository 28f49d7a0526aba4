open Cheffp_ir
module Fp = Cheffp_precision.Fp
module Config = Cheffp_precision.Config
module Cost = Cheffp_precision.Cost

let check_float = Alcotest.(check (float 1e-12))

let run_f ?builtins ?config ?mode ?counter src func args =
  let prog = Parser.parse_program src in
  Typecheck.check_program ?builtins prog;
  Interp.run_float ?builtins ?config ?mode ?counter ~prog ~func args

(* ------------------------------------------------------------------ *)
(* Lexer                                                              *)

let toks src = List.map (fun t -> t.Lexer.tok) (Lexer.tokenize src)

let test_lexer_basics () =
  Alcotest.(check bool) "tokens" true
    (toks "x = 1 + 2.5;"
    = Lexer.[ IDENT "x"; EQ; INT_LIT 1; PLUS; FLOAT_LIT 2.5; SEMI; EOF ])

let test_lexer_dotdot_vs_float () =
  Alcotest.(check bool) "1..n" true
    (toks "1 .. n" = Lexer.[ INT_LIT 1; DOTDOT; IDENT "n"; EOF ]);
  Alcotest.(check bool) "1..n no spaces" true
    (toks "1..n" = Lexer.[ INT_LIT 1; DOTDOT; IDENT "n"; EOF ]);
  Alcotest.(check bool) "float with exponent" true
    (toks "1.5e-3" = Lexer.[ FLOAT_LIT 1.5e-3; EOF ]);
  Alcotest.(check bool) "float trailing dot" true
    (toks "2." = Lexer.[ FLOAT_LIT 2.; EOF ])

let test_lexer_comments () =
  Alcotest.(check bool) "comment to eol" true
    (toks "x // comment ; = 4\ny" = Lexer.[ IDENT "x"; IDENT "y"; EOF ])

let test_lexer_operators () =
  Alcotest.(check bool) "two-char ops" true
    (toks "== != <= >= && || .."
    = Lexer.[ EQEQ; NEQ; LE; GE; ANDAND; OROR; DOTDOT; EOF ])

let test_lexer_keywords () =
  Alcotest.(check bool) "keywords vs idents" true
    (toks "for forx in inx"
    = Lexer.[ KW "for"; IDENT "forx"; KW "in"; IDENT "inx"; EOF ])

let test_lexer_error () =
  Alcotest.(check bool) "bad char raises" true
    (try
       ignore (Lexer.tokenize "x # y");
       false
     with Lexer.Error msg -> String.length msg > 0)

let test_lexer_positions () =
  match Lexer.tokenize "x\n  y" with
  | [ x; y; _eof ] ->
      Alcotest.(check (pair int int)) "x pos" (1, 1) (x.Lexer.line, x.Lexer.col);
      Alcotest.(check (pair int int)) "y pos" (2, 3) (y.Lexer.line, y.Lexer.col)
  | _ -> Alcotest.fail "unexpected token count"

(* ------------------------------------------------------------------ *)
(* Parser + Pp round-trips                                            *)

let roundtrip_src =
  {|
func helper(a: f64, n: int): f64 {
  var acc: f64 = a;
  for i in 0 .. n {
    if (i % 2 == 0) {
      acc = acc + itof(i);
    } else {
      acc = acc - 1.0 / (itof(i) + 2.0);
    }
  }
  return acc;
}

func main_fn(x: f64, out dx: f64, ys: f64[], flags: int[], n: int): void {
  var t: f64 = -x;
  var m: int = 0;
  while (m < n && t < 100.0) {
    t = t + fabs(ys[m]) * helper(x, m);
    m = m + 1;
  }
  for j in 0 .. n reversed {
    ys[j] = t * itof(flags[j]);
  }
  dx = t;
  return;
}
|}

let test_parse_pp_roundtrip () =
  let p1 = Parser.parse_program roundtrip_src in
  let printed = Pp.program_to_string p1 in
  let p2 = Parser.parse_program printed in
  Alcotest.(check bool) "pp/parse fixpoint" true (p1 = p2)

let test_parse_expr () =
  Alcotest.(check bool) "precedence" true
    (Parser.parse_expr "1 + 2 * 3"
    = Ast.(Binop (Add, Iconst 1, Binop (Mul, Iconst 2, Iconst 3))));
  Alcotest.(check bool) "comparison chains with bool ops" true
    (match Parser.parse_expr "a < b && c >= d || e == f" with
    | Ast.Binop (Ast.Or, Ast.Binop (Ast.And, _, _), Ast.Binop (Ast.Eq, _, _)) ->
        true
    | _ -> false);
  Alcotest.(check bool) "unary" true
    (Parser.parse_expr "-x * !y"
    = Ast.(Binop (Mul, Unop (Neg, Var "x"), Unop (Not, Var "y"))))

let test_parse_errors () =
  let bad = [ "func f(: f64): f64 { }"; "func f(): f64 { return 1.0 }";
              "func f(): f64 { var x: f99; }"; "func f(): f64 { x + ; }" ] in
  List.iter
    (fun src ->
      Alcotest.(check bool) ("rejects " ^ src) true
        (try
           ignore (Parser.parse_program src);
           false
         with Parser.Error _ -> true))
    bad

let test_parse_else_if () =
  let src =
    {|
func f(x: int): int {
  if (x == 0) { return 1; } else if (x == 1) { return 2; } else { return 3; }
}
|}
  in
  let p = Parser.parse_program src in
  let p2 = Parser.parse_program (Pp.program_to_string p) in
  Alcotest.(check bool) "else-if roundtrip" true (p = p2)

let test_pp_expr_parens () =
  let e = Parser.parse_expr "(1 + 2) * 3" in
  Alcotest.(check string) "needed parens kept" "(1 + 2) * 3"
    (Pp.expr_to_string e);
  let e2 = Parser.parse_expr "1 + 2 * 3" in
  Alcotest.(check string) "no spurious parens" "1 + 2 * 3"
    (Pp.expr_to_string e2)

(* Random well-typed integer expressions: pp then parse is identity. *)
let gen_int_expr =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         if n <= 0 then
           oneof [ map (fun i -> Ast.Iconst i) (int_range 0 50);
                   return (Ast.Var "iv") ]
         else
           frequency
             [
               (2, map (fun i -> Ast.Iconst i) (int_range 0 50));
               ( 3,
                 map3
                   (fun op a b -> Ast.Binop (op, a, b))
                   (oneofl Ast.[ Add; Sub; Mul ])
                   (self (n / 2)) (self (n / 2)) );
               (1, map (fun e -> Ast.Unop (Ast.Neg, e)) (self (n - 1)));
             ])

let qcheck_expr_roundtrip =
  QCheck.Test.make ~count:300 ~name:"expr pp/parse roundtrip"
    (QCheck.make gen_int_expr) (fun e ->
      Parser.parse_expr (Pp.expr_to_string e) = e)

(* ------------------------------------------------------------------ *)
(* Typecheck                                                          *)

let expect_type_error src =
  let prog = Parser.parse_program src in
  try
    Typecheck.check_program prog;
    false
  with Typecheck.Error _ -> true

let test_typecheck_accepts_benchmarks () =
  List.iter Typecheck.check_program
    [
      Cheffp_benchmarks.Arclength.program;
      Cheffp_benchmarks.Simpsons.program;
      Cheffp_benchmarks.Kmeans.program;
      Cheffp_benchmarks.Hpccg.program;
    ];
  Alcotest.(check pass) "benchmarks typecheck" () ()

let test_typecheck_rejections () =
  let cases =
    [
      ("undeclared var", "func f(): f64 { return x; }");
      ("kind mismatch", "func f(x: f64): f64 { return x + 1; }");
      ("assign kind", "func f(): f64 { var i: int; i = 1.5; return 0.0; }");
      ("bad arity", "func f(x: f64): f64 { return sin(x, x); }");
      ("assign to loop var",
       "func f(n: int): f64 { for i in 0 .. n { i = 0; } return 0.0; }");
      ("index by float", "func f(a: f64[], x: f64): f64 { return a[x]; }");
      ("scalar indexed", "func f(x: f64): f64 { return x[0]; }");
      ("array as scalar", "func f(a: f64[]): f64 { return a; }");
      ("float condition", "func f(x: f64): f64 { if (x) { } return x; }");
      ("void in expr",
       "func g(): void { return; } func f(): f64 { return g(); }");
      ("unknown call", "func f(): f64 { return nosuch(1.0); }");
      ("redeclaration",
       "func f(): f64 { var x: f64; var x: f64; return x; }");
      ("duplicate function",
       "func f(): f64 { return 1.0; } func f(): f64 { return 2.0; }");
      ("duplicate param", "func f(x: f64, x: f64): f64 { return x; }");
      ("shadow intrinsic", "func sin(x: f64): f64 { return x; }");
      ("return kind", "func f(): int { return 1.5; }");
      ("missing return value", "func f(): f64 { return; }");
      ("array size float", "func f(x: f64): f64 { var a: f64[x]; return x; }");
      ("mod on floats", "func f(x: f64): f64 { return x % x; }");
      ("out arg literal",
       "func g(out r: f64): void { r = 1.0; } func f(): f64 { g(1.0); return 0.0; }");
    ]
  in
  List.iter
    (fun (name, src) ->
      Alcotest.(check bool) name true (expect_type_error src))
    cases

let test_typecheck_shadowing_scopes () =
  let src =
    {|
func f(x: f64): f64 {
  var t: f64 = x;
  if (x > 0.0) {
    var t: int = 3;
    t = t + 1;
  }
  return t;
}
|}
  in
  Typecheck.check_program (Parser.parse_program src);
  Alcotest.(check pass) "inner shadow ok" () ()

(* ------------------------------------------------------------------ *)
(* Interpreter semantics                                              *)

let test_interp_arith () =
  check_float "arith" 14.
    (run_f "func f(): f64 { return 2.0 + 3.0 * 4.0; }" "f" []);
  check_float "div" 2.5 (run_f "func f(): f64 { return 5.0 / 2.0; }" "f" []);
  check_float "neg" (-7.) (run_f "func f(): f64 { return -(3.0 + 4.0); }" "f" [])

let test_interp_int_ops () =
  let geti src =
    let prog = Parser.parse_program src in
    match (Interp.run ~prog ~func:"f" []).Interp.ret with
    | Some (Builtins.I n) -> n
    | _ -> Alcotest.fail "expected int"
  in
  Alcotest.(check int) "int div truncates" 2 (geti "func f(): int { return 7 / 3; }");
  Alcotest.(check int) "mod" 1 (geti "func f(): int { return 7 % 3; }");
  Alcotest.(check int) "cmp true" 1 (geti "func f(): int { return 3 < 4; }");
  Alcotest.(check int) "and short" 0 (geti "func f(): int { return 0 && 1; }");
  Alcotest.(check int) "not" 1 (geti "func f(): int { return !0; }")

let test_interp_div_by_zero () =
  Alcotest.(check bool) "int div by zero raises" true
    (try
       ignore (run_f "func f(): f64 { var i: int = 1 / 0; return 0.0; }" "f" []);
       false
     with Interp.Runtime_error _ -> true);
  Alcotest.(check bool) "float div by zero gives inf" true
    (run_f "func f(): f64 { return 1.0 / 0.0; }" "f" [] = Float.infinity)

let test_interp_loops () =
  check_float "sum 0..9" 45.
    (run_f
       "func f(n: int): f64 { var s: f64 = 0.0; for i in 0 .. n { s = s + itof(i); } return s; }"
       "f" [ Interp.Aint 10 ]);
  check_float "reversed same sum" 45.
    (run_f
       "func f(n: int): f64 { var s: f64 = 0.0; for i in 0 .. n reversed { s = s + itof(i); } return s; }"
       "f" [ Interp.Aint 10 ]);
  check_float "reversed order matters" 123.
    (run_f
       {|func f(): f64 {
           var last: f64 = 0.0;
           for i in 0 .. 124 reversed { last = itof(i); }
           return last + 123.0;
         }|}
       "f" []) ;
  check_float "empty range" 0.
    (run_f
       "func f(): f64 { var s: f64 = 0.0; for i in 3 .. 3 { s = 1.0; } return s; }"
       "f" [])

let test_interp_while () =
  check_float "collatz steps for 27" 111.
    (run_f
       {|func f(n: int): f64 {
           var steps: int = 0;
           var v: int = n;
           while (v != 1) {
             if (v % 2 == 0) { v = v / 2; } else { v = 3 * v + 1; }
             steps = steps + 1;
           }
           return itof(steps);
         }|}
       "f" [ Interp.Aint 27 ])

let test_interp_arrays () =
  let a = [| 1.; 2.; 3. |] in
  check_float "array sum via param" 6.
    (run_f
       "func f(a: f64[], n: int): f64 { var s: f64 = 0.0; for i in 0 .. n { s = s + a[i]; } return s; }"
       "f" [ Interp.Afarr a; Interp.Aint 3 ]);
  (* local arrays + mutation of input arrays *)
  let b = [| 0.; 0. |] in
  ignore
    (run_f
       "func f(b: f64[]): f64 { b[0] = 10.0; b[1] = b[0] * 2.0; return b[1]; }"
       "f" [ Interp.Afarr b ]);
  check_float "input array mutated" 20. b.(1)

let test_interp_local_array () =
  check_float "local array" 30.
    (run_f
       {|func f(n: int): f64 {
           var a: f64[n];
           for i in 0 .. n { a[i] = itof(i) * 2.0; }
           var s: f64 = 0.0;
           for i in 0 .. n { s = s + a[i]; }
           return s;
         }|}
       "f" [ Interp.Aint 6 ])

let test_interp_oob () =
  Alcotest.(check bool) "out of bounds raises" true
    (try
       ignore
         (run_f "func f(a: f64[]): f64 { return a[5]; }" "f"
            [ Interp.Afarr [| 1. |] ]);
       false
     with Interp.Runtime_error _ -> true)

let test_interp_out_params () =
  let prog =
    Parser.parse_program
      {|func f(x: f64, out y: f64, out k: int): void {
          y = x * 2.0;
          k = 7;
        }|}
  in
  let r = Interp.run ~prog ~func:"f" [ Interp.Aflt 3.; Interp.Aflt 0.; Interp.Aint 0 ] in
  Alcotest.(check bool) "outs" true
    (List.assoc "y" r.Interp.outs = Builtins.F 6.
    && List.assoc "k" r.Interp.outs = Builtins.I 7)

let test_interp_user_calls () =
  check_float "helper call" 9.
    (run_f
       {|func sq(x: f64): f64 { return x * x; }
         func f(): f64 { return sq(3.0); }|}
       "f" []);
  check_float "recursion (fib 10)" 55.
    (run_f
       {|func fib(n: int): f64 {
           if (n < 2) { return itof(n); }
           return fib(n - 1) + fib(n - 2);
         }
         func f(): f64 { return fib(10); }|}
       "f" []);
  check_float "call with out param" 42.
    (run_f
       {|func set(out r: f64): void { r = 42.0; }
         func f(): f64 { var v: f64; set(v); return v; }|}
       "f" [])

let test_interp_fuel () =
  let src = "func f(): f64 { var x: f64 = 0.0; while (1 == 1) { x = x + 1.0; } return x; }" in
  let prog = Parser.parse_program src in
  Typecheck.check_program prog;
  Alcotest.(check bool) "fuel stops runaway loop" true
    (try
       ignore (Interp.run_float ~fuel:10_000 ~prog ~func:"f" []);
       false
     with Interp.Runtime_error m ->
       String.length m > 0);
  (* ample fuel leaves normal programs untouched *)
  check_float "fueled run ok" 45.
    (run_f
       "func f(n: int): f64 { var s: f64 = 0.0; for i in 0 .. n { s = s + itof(i); } return s; }"
       "f" [ Interp.Aint 10 ] |> fun v -> v)

let test_interp_push_pop () =
  check_float "push/pop restores" 1.
    (run_f
       {|func f(): f64 {
           var x: f64 = 1.0;
           push x;
           x = 99.0;
           pop x;
           return x;
         }|}
       "f" [])

(* A bad index or an empty stack is a located runtime error, never an
   escaped [Invalid_argument]. *)
let test_interp_push_pop_errors () =
  let raises src expected =
    match run_f src "f" [ Interp.Aflt 1. ] with
    | _ -> Alcotest.failf "no error from %s" src
    | exception Interp.Runtime_error m ->
        Alcotest.(check string) src expected m
  in
  raises "func f(x: f64): f64 { var a: f64[2]; push a[5]; return x; }"
    {|index 5 out of bounds for "a" (length 2)|};
  raises "func f(x: f64): f64 { var k: int[2]; push k[-1]; return x; }"
    {|index -1 out of bounds for "k" (length 2)|};
  raises
    "func f(x: f64): f64 { var a: f64[2]; push x; pop a[2]; return x; }"
    {|index 2 out of bounds for "a" (length 2)|};
  raises "func f(x: f64): f64 { var y: f64 = x; pop y; return y; }"
    "pop into y: the value stack is empty";
  raises "func f(x: f64): f64 { var n: int = 1; pop n; return x; }"
    "pop into n: the value stack is empty";
  raises "func f(x: f64): f64 { var a: f64[2]; pop a[1]; return x; }"
    "pop into a[1]: the value stack is empty"

let test_interp_intrinsics () =
  check_float "sin" (sin 0.5) (run_f "func f(): f64 { return sin(0.5); }" "f" []);
  check_float "pow" 8. (run_f "func f(): f64 { return pow(2.0, 3.0); }" "f" []);
  check_float "select true" 1.
    (run_f "func f(): f64 { return select(2 > 1, 1.0, 2.0); }" "f" []);
  check_float "select false" 2.
    (run_f "func f(): f64 { return select(1 > 2, 1.0, 2.0); }" "f" []);
  let prog = Parser.parse_program "func f(x: f64): int { return ftoi(x); }" in
  Alcotest.(check bool) "ftoi" true
    ((Interp.run ~prog ~func:"f" [ Interp.Aflt 3.9 ]).Interp.ret
    = Some (Builtins.I 3))

let test_interp_mixed_precision_rounding () =
  (* Storing into an f32 variable rounds. *)
  let src = "func f(x: f64): f64 { var y: f32; y = x; return y; }" in
  check_float "declared f32 rounds" (Fp.round Fp.F32 0.1)
    (run_f src "f" [ Interp.Aflt 0.1 ]);
  (* Demotion by config has the same effect on an f64 variable. *)
  let src64 = "func f(x: f64): f64 { var y: f64; y = x; return y; }" in
  let config = Config.demote Config.double "y" Fp.F32 in
  check_float "config demotion rounds" (Fp.round Fp.F32 0.1)
    (run_f ~config src64 "f" [ Interp.Aflt 0.1 ]);
  check_float "no demotion exact" 0.1 (run_f src64 "f" [ Interp.Aflt 0.1 ])

let test_interp_rounding_modes () =
  (* x+y both f32: Source rounds the op itself, Extended only stores. *)
  let src =
    {|func f(a: f64, b: f64): f64 {
        var x: f32 = a;
        var y: f32 = b;
        var z: f64;
        z = x + y;
        return z;
      }|}
  in
  let a = 0.1 and b = 0.2 in
  let source = run_f ~mode:Config.Source src "f" [ Interp.Aflt a; Interp.Aflt b ] in
  let extended =
    run_f ~mode:Config.Extended src "f" [ Interp.Aflt a; Interp.Aflt b ]
  in
  check_float "source rounds op"
    (Fp.round Fp.F32 (Fp.round Fp.F32 a +. Fp.round Fp.F32 b))
    source;
  check_float "extended keeps op wide"
    (Fp.round Fp.F32 a +. Fp.round Fp.F32 b)
    extended;
  Alcotest.(check bool) "modes differ here" true (source <> extended)

let test_interp_cost_counter () =
  let counter = Cost.Counter.create Cost.default in
  let src = "func f(x: f64): f64 { var y: f32 = x; return y * y + x; }" in
  ignore (run_f ~counter src "f" [ Interp.Aflt 0.1 ]);
  Alcotest.(check bool) "ops charged" true (Cost.Counter.ops counter > 0);
  (* y*y is f32 (cheap), (y*y)+x needs a widening cast *)
  Alcotest.(check bool) "casts charged" true (Cost.Counter.casts counter >= 2)

let test_interp_input_array_demotion () =
  let src = "func f(a: f64[]): f64 { return a[0]; }" in
  let prog = Parser.parse_program src in
  let arr = [| 0.1 |] in
  let config = Config.demote Config.double "a" Fp.F32 in
  let v = Interp.run_float ~config ~prog ~func:"f" [ Interp.Afarr arr ] in
  check_float "demoted input array rounds" (Fp.round Fp.F32 0.1) v;
  check_float "caller array untouched" 0.1 arr.(0)

(* ------------------------------------------------------------------ *)
(* Builtins registry                                                  *)

let test_builtins_registry () =
  let b = Builtins.create () in
  Alcotest.(check bool) "defaults present" true
    (Builtins.mem b "sin" && Builtins.mem b "select" && Builtins.mem b "itof");
  Alcotest.(check bool) "names sorted" true
    (let names = Builtins.names b in
     names = List.sort compare names);
  Alcotest.(check bool) "fast1 available for sin" true
    (Builtins.fast1 b "sin" <> None);
  Alcotest.(check bool) "fast2 available for pow" true
    (Builtins.fast2 b "pow" <> None);
  (* replacing via the generic register drops the fast path *)
  Builtins.register b "sin"
    { Builtins.args = [ Builtins.Kflt ]; ret = Builtins.Kflt;
      cls = Cost.Transcendental; approx = false }
    (fun a -> Builtins.F (Builtins.as_float a.(0)));
  Alcotest.(check bool) "fast path invalidated" true
    (Builtins.fast1 b "sin" = None);
  check_float "replacement used" 0.5
    (run_f ~builtins:b "func f(x: f64): f64 { return sin(x); }" "f"
       [ Interp.Aflt 0.5 ])

(* Re-registering a tagged entry with its tag never leaves the name
   untagged, not even between two table writes: a table shared across
   domains is re-registered by every estimate build while other domains
   compile against it, and an untagged read would compile a call with
   no recording sink behind it. *)
let test_builtins_reregister_keeps_tag () =
  let b = Builtins.create () in
  let sg =
    { Builtins.args = [ Builtins.Kint; Builtins.Kflt ]; ret = Builtins.Kflt;
      cls = Cost.Basic; approx = false }
  in
  let reg () =
    Builtins.register ~prim:Builtins.Record_total b "__rec" sg (fun a -> a.(1))
  in
  reg ();
  let stop = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        let misses = ref 0 in
        while not (Atomic.get stop) do
          if Builtins.prim b "__rec" <> Some Builtins.Record_total then
            incr misses
        done;
        !misses)
  in
  for _ = 1 to 200_000 do
    reg ()
  done;
  Atomic.set stop true;
  Alcotest.(check int) "reader never saw the tag missing" 0
    (Domain.join reader);
  Builtins.register b "__rec" sg (fun a -> a.(1));
  Alcotest.(check bool) "registering untagged clears the tag" true
    (Builtins.prim b "__rec" = None)

let test_builtins_value_accessors () =
  Alcotest.(check bool) "as_float raises on int" true
    (try ignore (Builtins.as_float (Builtins.I 3)); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "as_int raises on float" true
    (try ignore (Builtins.as_int (Builtins.F 3.)); false
     with Invalid_argument _ -> true)

let test_compile_errors () =
  let prog = Parser.parse_program "func f(x: f64): f64 { return x; }" in
  let c = Compile.compile ~prog ~func:"f" () in
  Alcotest.(check bool) "arity mismatch" true
    (try ignore (Compile.run c []); false
     with Compile.Compile_error _ -> true);
  Alcotest.(check bool) "kind mismatch" true
    (try ignore (Compile.run c [ Interp.Aint 3 ]); false
     with Compile.Compile_error _ -> true);
  Alcotest.(check bool) "unknown function" true
    (try ignore (Compile.compile ~prog ~func:"nope" ()); false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Optimizer                                                          *)

let test_fold_identities () =
  let f s = Optimize.fold_expr (Parser.parse_expr s) in
  Alcotest.(check bool) "x*1" true (f "x * 1.0" = Ast.Var "x");
  Alcotest.(check bool) "0+x" true (f "0.0 + x" = Ast.Var "x");
  Alcotest.(check bool) "x-0" true (f "x - 0.0" = Ast.Var "x");
  Alcotest.(check bool) "x/1" true (f "x / 1.0" = Ast.Var "x");
  Alcotest.(check bool) "const fold" true (f "2.0 * 3.0 + 1.0" = Ast.Fconst 7.);
  Alcotest.(check bool) "int fold" true (f "(4 + 6) / 2" = Ast.Iconst 5);
  Alcotest.(check bool) "0*x fast-math" true (f "0.0 * x" = Ast.Fconst 0.);
  Alcotest.(check bool) "0*x kept when safe" true
    (Optimize.fold_expr ~fast_math:false (Parser.parse_expr "0.0 * x")
    <> Ast.Fconst 0.);
  Alcotest.(check bool) "double neg" true (f "-(-x)" = Ast.Var "x");
  Alcotest.(check bool) "cmp fold" true (f "3 < 4" = Ast.Iconst 1)

let optimized_equivalent src func args =
  let prog = Parser.parse_program src in
  Typecheck.check_program prog;
  let f = Ast.func_exn prog func in
  let f' = Optimize.optimize_func f in
  let prog' = { Ast.funcs = List.map (fun g -> if g.Ast.fname = func then f' else g) prog.Ast.funcs } in
  Typecheck.check_program prog';
  let v = Interp.run_float ~prog ~func args in
  let v' = Interp.run_float ~prog:prog' ~func args in
  (v, v')

let test_optimize_preserves_semantics () =
  let src =
    {|func f(x: f64, n: int): f64 {
        var a: f64 = x * 1.0 + 0.0;
        var dead: f64 = 123.0;
        var s: f64 = 0.0;
        for i in 0 .. n {
          if (1 == 1) { s = s + a * itof(i); } else { s = -1000.0; }
          dead = dead * 2.0;
        }
        return s / (1.0 * 1.0);
      }|}
  in
  let v, v' = optimized_equivalent src "f" [ Interp.Aflt 1.5; Interp.Aint 9 ] in
  check_float "same result" v v'

let test_optimize_removes_dead () =
  let src =
    {|func f(x: f64): f64 {
        var dead: f64 = 1.0;
        dead = dead + x;
        return x;
      }|}
  in
  let prog = Parser.parse_program src in
  let f' = Optimize.optimize_func (Ast.func_exn prog "f") in
  let has_dead =
    List.exists
      (function Ast.Decl { name = "dead"; _ } -> true | _ -> false)
      f'.Ast.body
  in
  Alcotest.(check bool) "dead removed" false has_dead

let test_optimize_keeps_out_params_and_pushpop () =
  let src =
    {|func f(x: f64, out r: f64): void {
        var t: f64 = x;
        push t;
        t = 0.0;
        pop t;
        r = t;
      }|}
  in
  let prog = Parser.parse_program src in
  let f' = Optimize.optimize_func (Ast.func_exn prog "f") in
  let prog' = { Ast.funcs = [ f' ] } in
  Typecheck.check_program prog';
  let r = Interp.run ~prog:prog' ~func:"f" [ Interp.Aflt 5.; Interp.Aflt 0. ] in
  Alcotest.(check bool) "push/pop survive DCE" true
    (List.assoc "r" r.Interp.outs = Builtins.F 5.)

let test_optimize_constant_branch () =
  let src =
    {|func f(x: f64): f64 {
        if (2 > 1) { return x; } else { return -1000.0; }
      }|}
  in
  (* Constant-condition pruning: else branch disappears. *)
  let prog = Parser.parse_program src in
  let f' = Optimize.optimize_func (Ast.func_exn prog "f") in
  Alcotest.(check bool) "branch pruned" true
    (List.for_all (function Ast.If _ -> false | _ -> true) f'.Ast.body)

let test_cse_hoists_duplicates () =
  let src =
    {|func f(x: f64): f64 {
        var y: f64;
        y = sin(x * 2.0) + sin(x * 2.0);
        return y;
      }|}
  in
  let prog = Parser.parse_program src in
  let f' = Cse.cse_func ~prog (Ast.func_exn prog "f") in
  (* one hoisted temp, and only one sin call remains duplicated away *)
  let rec count_sins_stmt acc = function
    | Ast.Decl { init = Some e; _ } | Ast.Assign (_, e) | Ast.Return (Some e) ->
        count_sins acc e
    | _ -> acc
  and count_sins acc = function
    | Ast.Call ("sin", args) -> List.fold_left count_sins (acc + 1) args
    | Ast.Call (_, args) -> List.fold_left count_sins acc args
    | Ast.Binop (_, a, b) -> count_sins (count_sins acc a) b
    | Ast.Unop (_, e) | Ast.Idx (_, e) -> count_sins acc e
    | Ast.Fconst _ | Ast.Iconst _ | Ast.Var _ -> acc
  in
  Alcotest.(check int) "one sin left" 1
    (List.fold_left count_sins_stmt 0 f'.Ast.body);
  (* semantics unchanged *)
  let prog' = { Ast.funcs = [ f' ] } in
  Typecheck.check_program prog';
  check_float "same value"
    (Interp.run_float ~prog ~func:"f" [ Interp.Aflt 0.37 ])
    (Interp.run_float ~prog:prog' ~func:"f" [ Interp.Aflt 0.37 ])

let test_cse_cross_statement_reuse () =
  let src =
    {|func f(x: f64): f64 {
        var a: f64;
        var b: f64;
        a = exp(x + 1.0);
        b = exp(x + 1.0) * 2.0;
        return a + b;
      }|}
  in
  let prog = Parser.parse_program src in
  let f' = Cse.cse_func ~prog (Ast.func_exn prog "f") in
  let reused =
    List.exists
      (function
        | Ast.Assign (Ast.Lvar "b", Ast.Binop (Ast.Mul, Ast.Var "a", _)) -> true
        | _ -> false)
      f'.Ast.body
  in
  Alcotest.(check bool) "b reuses a" true reused

let test_cse_invalidation_on_write () =
  let src =
    {|func f(x: f64): f64 {
        var a: f64;
        var b: f64;
        a = exp(x + 1.0);
        x = 0.0;
        b = exp(x + 1.0);
        return a + b;
      }|}
  in
  let prog = Parser.parse_program src in
  let f' = Cse.cse_func ~prog (Ast.func_exn prog "f") in
  let prog' = { Ast.funcs = [ f' ] } in
  check_float "write kills availability"
    (Interp.run_float ~prog ~func:"f" [ Interp.Aflt 0.4 ])
    (Interp.run_float ~prog:prog' ~func:"f" [ Interp.Aflt 0.4 ])

let test_cse_branch_isolation () =
  (* Availability must not flow between the two arms of an [if]: a
     temporary hoisted inside one branch is block-scoped there, and a
     value recorded in one branch never holds when the other executes. *)
  let src =
    {|func f(x: f64, c: int): f64 {
        var r: f64 = 0.0;
        var s: f64 = 0.0;
        if (c > 0) {
          r = sin(x * 2.0) + sin(x * 2.0);
          s = exp(x + 1.0);
        } else {
          r = sin(x * 2.0) * sin(x * 2.0);
          s = exp(x + 1.0) * 2.0;
        }
        return r + s;
      }|}
  in
  let prog = Parser.parse_program src in
  let f' = Cse.cse_func ~prog (Ast.func_exn prog "f") in
  let prog' = { Ast.funcs = [ f' ] } in
  Typecheck.check_program prog';
  List.iter
    (fun c ->
      check_float "same value"
        (Interp.run_float ~prog ~func:"f" [ Interp.Aflt 0.37; Interp.Aint c ])
        (Interp.run_float ~prog:prog' ~func:"f"
           [ Interp.Aflt 0.37; Interp.Aint c ]))
    [ 0; 1 ]

let test_optimizer_respects_demotion () =
  (* Copy propagation through a demoted variable would skip its store
     rounding; the compiled engine must still match the interpreter. *)
  let src =
    {|func f(x: f64): f64 {
        var t: f64;
        var z: f64;
        t = x;
        z = t + 1.0;
        return z;
      }|}
  in
  let prog = Parser.parse_program src in
  let config = Config.demote Config.double "t" Fp.F32 in
  let v_interp =
    Interp.run_float ~config ~prog ~func:"f" [ Interp.Aflt 0.1 ]
  in
  let c = Compile.compile ~config ~prog ~func:"f" () in
  let v_comp = Compile.run_float c [ Interp.Aflt 0.1 ] in
  Alcotest.(check (float 0.)) "optimized mixed = interp" v_interp v_comp;
  (* and the rounding really happened *)
  Alcotest.(check (float 0.)) "t was rounded"
    (Fp.round Fp.F32 0.1 +. 1.0)
    v_comp

let test_declared_narrow_opaque () =
  (* An f32-declared variable must not be copy-propagated away even
     without a configuration. *)
  let src =
    {|func f(x: f64): f64 {
        var t: f32;
        t = x;
        return t + 1.0;
      }|}
  in
  let prog = Parser.parse_program src in
  let f' = Optimize.optimize_func (Ast.func_exn prog "f") in
  let prog' = { Ast.funcs = [ f' ] } in
  check_float "narrow decl survives optimization"
    (Fp.round Fp.F32 0.1 +. 1.0)
    (Interp.run_float ~prog:prog' ~func:"f" [ Interp.Aflt 0.1 ])

(* ------------------------------------------------------------------ *)
(* Compile = Interp                                                   *)

let compile_vs_interp ?config src func args =
  let prog = Parser.parse_program src in
  Typecheck.check_program prog;
  let c = Compile.compile ?config ~prog ~func () in
  let v = Compile.run_float c args in
  let v' = Interp.run_float ?config ~prog ~func args in
  (v, v')

let test_compile_matches_interp () =
  let src =
    {|func helper(a: f64): f64 { return a * a - 1.0; }
      func f(x: f64, n: int): f64 {
        var s: f64 = 0.0;
        var arr: f64[n];
        for i in 0 .. n { arr[i] = helper(x + itof(i)); }
        var k: int = 0;
        while (k < n) {
          if (arr[k] > 0.0) { s = s + sqrt(arr[k]); }
          k = k + 1;
        }
        return s;
      }|}
  in
  let v, v' = compile_vs_interp src "f" [ Interp.Aflt 0.5; Interp.Aint 20 ] in
  check_float "compiled = interpreted" v v'

let test_compile_matches_interp_mixed () =
  let src =
    {|func f(x: f64, n: int): f64 {
        var acc: f64 = 0.0;
        var t: f64;
        for i in 1 .. n {
          t = x / itof(i);
          acc = acc + t * t;
        }
        return acc;
      }|}
  in
  let config = Config.demote_all Config.double [ "t"; "acc" ] Fp.F32 in
  let v, v' = compile_vs_interp ~config src "f" [ Interp.Aflt 1.7; Interp.Aint 50 ] in
  check_float "mixed compiled = interpreted" v v'

let test_compile_benchmarks_match () =
  let module B = Cheffp_benchmarks in
  let pairs =
    [
      ("arclength", B.Arclength.program, "arclength", B.Arclength.args ~n:500);
      ( "simpsons", B.Simpsons.program, "simpsons",
        B.Simpsons.args ~a:0. ~b:Float.pi ~n:300 );
      ( "kmeans", B.Kmeans.program, "kmeans_dist",
        B.Kmeans.args (B.Kmeans.generate ~npoints:200 ()) );
    ]
  in
  List.iter
    (fun (name, prog, func, args) ->
      let c = Compile.compile ~prog ~func () in
      let v = Compile.run_float c args in
      let v' = Interp.run_float ~prog ~func args in
      Alcotest.(check (float 0.)) name v' v)
    pairs

let test_compile_counter_matches_interp_counter () =
  let src = "func f(x: f64): f64 { var y: f32 = x; return y * y + sin(x); }" in
  let prog = Parser.parse_program src in
  let count run =
    let counter = Cost.Counter.create Cost.default in
    run counter;
    (Cost.Counter.total counter, Cost.Counter.casts counter)
  in
  let ti, ci =
    count (fun counter ->
        ignore (Interp.run_float ~counter ~prog ~func:"f" [ Interp.Aflt 0.3 ]))
  in
  let tc, cc =
    count (fun counter ->
        let c = Compile.compile ~meter:true ~optimize:false ~prog ~func:"f" () in
        ignore (Compile.run_float ~counter c [ Interp.Aflt 0.3 ]))
  in
  Alcotest.(check (float 1e-9)) "same modelled cost" ti tc;
  Alcotest.(check int) "same casts" ci cc

(* A replacement registered under a default intrinsic's name must win
   over the default's unboxed primitive, on every path: interpreter,
   scalar compiler and lane-batched executor. *)
let test_compile_honours_reregistered_intrinsic () =
  let src =
    {|func f(x: f64, n: int): f64 {
        var acc: f64 = 0.0;
        for i in 0 .. n { acc = acc + sin(x - 0.1 * itof(i)) * 0.5; }
        return acc;
      }|}
  in
  let prog = Parser.parse_program src in
  let args = [ Interp.Aflt 1.3; Interp.Aint 20 ] in
  let b = Builtins.create () in
  Builtins.register_float1 b "sin" Cheffp_fastapprox.Fastapprox.fastsin;
  let bits = Int64.bits_of_float in
  let counted run =
    let counter = Cost.Counter.create Cost.default in
    let v = run counter in
    (bits v, Cost.Counter.total counter, Cost.Counter.ops counter,
     Cost.Counter.casts counter)
  in
  let interp =
    counted (fun counter ->
        Interp.run_float ~builtins:b ~counter ~prog ~func:"f" args)
  in
  let compiled ~meter =
    counted (fun counter ->
        Compile.run_float ~counter
          (Compile.compile ~builtins:b ~meter ~prog ~func:"f" ())
          args)
  in
  let v, _, _, _ = interp in
  Alcotest.(check bool) "replacement differs from libm sin" true
    (v <> bits (Interp.run_float ~prog ~func:"f" args));
  let v', _, _, _ = compiled ~meter:false in
  Alcotest.(check int64) "unmetered compile = interp" v v';
  Alcotest.(check bool) "metered compile = interp (value and counter)" true
    (compiled ~meter:true = interp);
  let batched =
    (Batch.run_inputs_floats
       (Batch.compile ~builtins:b ~prog ~func:"f" ())
       ~config:Config.double [| args |]).(0)
  in
  Alcotest.(check int64) "batch = interp" v (bits batched)

(* ------------------------------------------------------------------ *)
(* Compile cache                                                      *)

let cache_src =
  {|func f(x: f64, n: int): f64 {
      var acc: f64 = 0.0;
      var t: f64;
      for i in 1 .. n {
        t = x / itof(i);
        acc = acc + sqrt(t * t + 1.0);
      }
      return acc;
    }|}

let test_cache_hit_on_repeat () =
  let prog = Parser.parse_program cache_src in
  let config = Config.demote Config.double "t" Fp.F32 in
  Compile_cache.clear ();
  let c1 = Compile_cache.compile ~config ~prog ~func:"f" () in
  let c2 = Compile_cache.compile ~config ~prog ~func:"f" () in
  Alcotest.(check bool) "same compiled instance" true (c1 == c2);
  let s = Compile_cache.stats () in
  Alcotest.(check int) "one hit" 1 s.Compile_cache.hits;
  Alcotest.(check int) "one miss" 1 s.Compile_cache.misses;
  Alcotest.(check int) "one entry" 1 s.Compile_cache.size

let test_cache_miss_on_changed_key () =
  let prog = Parser.parse_program cache_src in
  let config = Config.demote Config.double "t" Fp.F32 in
  Compile_cache.clear ();
  let c1 = Compile_cache.compile ~config ~prog ~func:"f" () in
  (* Different configuration, rounding mode, optimize level or metering
     must each compile afresh. *)
  let c2 =
    Compile_cache.compile
      ~config:(Config.demote config "acc" Fp.F32)
      ~prog ~func:"f" ()
  in
  let c3 =
    Compile_cache.compile ~config ~mode:Config.Extended ~prog ~func:"f" ()
  in
  let c4 = Compile_cache.compile ~config ~optimize:false ~prog ~func:"f" () in
  let c5 = Compile_cache.compile ~config ~meter:true ~prog ~func:"f" () in
  Alcotest.(check bool) "all distinct" true
    (c1 != c2 && c1 != c3 && c1 != c4 && c1 != c5);
  let s = Compile_cache.stats () in
  Alcotest.(check int) "no hits" 0 s.Compile_cache.hits;
  Alcotest.(check int) "five entries" 5 s.Compile_cache.size;
  (* ... and a different registry is a miss even for an equal key. *)
  let b = Builtins.create () in
  let c6 = Compile_cache.compile ~builtins:b ~config ~prog ~func:"f" () in
  Alcotest.(check bool) "registry identity respected" true (c1 != c6)

let test_cache_results_match_uncached () =
  let prog = Parser.parse_program cache_src in
  let config = Config.demote_all Config.double [ "t"; "acc" ] Fp.F32 in
  let args = [ Interp.Aflt 1.7; Interp.Aint 50 ] in
  Compile_cache.clear ();
  let direct = Compile.run_float (Compile.compile ~config ~prog ~func:"f" ()) args in
  let cold =
    Compile.run_float (Compile_cache.compile ~config ~prog ~func:"f" ()) args
  in
  let warm =
    Compile.run_float (Compile_cache.compile ~config ~prog ~func:"f" ()) args
  in
  Alcotest.(check (float 0.)) "cold = direct" direct cold;
  Alcotest.(check (float 0.)) "warm = direct" direct warm;
  Alcotest.(check bool) "warm run was a hit" true
    ((Compile_cache.stats ()).Compile_cache.hits >= 1)

let test_cache_metered_counter_threading () =
  (* One cached metered instance must serve independent counters. *)
  let prog = Parser.parse_program cache_src in
  Compile_cache.clear ();
  let c1 = Compile_cache.compile ~meter:true ~prog ~func:"f" () in
  let c2 = Compile_cache.compile ~meter:true ~prog ~func:"f" () in
  Alcotest.(check bool) "shared instance" true (c1 == c2);
  let count c args =
    let counter = Cost.Counter.create Cost.default in
    ignore (Compile.run_float ~counter c args);
    Cost.Counter.total counter
  in
  let t10 = count c1 [ Interp.Aflt 1.7; Interp.Aint 10 ] in
  let t20 = count c2 [ Interp.Aflt 1.7; Interp.Aint 20 ] in
  let t10' = count c1 [ Interp.Aflt 1.7; Interp.Aint 10 ] in
  Alcotest.(check bool) "costs metered per run" true (t10 > 0. && t20 > t10);
  Alcotest.(check (float 1e-9)) "no leakage between runs" t10 t10'

(* ------------------------------------------------------------------ *)
(* Allocation                                                         *)

(* The compiled executor boxes no float on its hot path, so the minor
   words a run allocates do not grow with its trip count. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let check_flat name run =
  run 10;
  let small = minor_words (fun () -> run 1_000)
  and large = minor_words (fun () -> run 100_000) in
  if large -. small > 64. then
    Alcotest.failf "%s: %.0f minor words at n=1e3, %.0f at n=1e5" name small
      large

let alloc_src =
  {|func f(x: f64, n: int): f64 {
      var acc: f64 = 0.0;
      var t: f64;
      for i in 1 .. n + 1 {
        t = x / itof(i);
        acc = acc + sqrt(t * t + 1.0) * fabs(sin(t)) - (-t);
      }
      return acc;
    }|}

let test_compile_run_allocation_flat () =
  let prog = Parser.parse_program alloc_src in
  List.iter
    (fun (name, config) ->
      List.iter
        (fun meter ->
          let c = Compile.compile ~config ~meter ~prog ~func:"f" () in
          let counter = Cost.Counter.create Cost.default in
          check_flat
            (Printf.sprintf "%s%s" name (if meter then ", metered" else ""))
            (fun n ->
              ignore
                (Compile.run_float ~counter c [ Interp.Aflt 1.7; Interp.Aint n ])))
        [ false; true ])
    [ ("all-F64", Config.double); ("uniform-F32", Config.uniform Fp.F32) ]

(* A run allocates only what it uses: its empty stacks allocate no
   chunk, and a run without a counter or a sink shares an empty one
   when its body neither charges nor records. *)
let test_compile_run_words () =
  let prog = Parser.parse_program alloc_src in
  let c = Compile.compile ~prog ~func:"f" () in
  let args = [ Interp.Aflt 1.7; Interp.Aint 10 ] in
  ignore (Compile.run c args);
  let runs = 1000 in
  let per_run =
    minor_words (fun () ->
        for _ = 1 to runs do
          ignore (Compile.run c args)
        done)
    /. float_of_int runs
  in
  if per_run > 96. then
    Alcotest.failf "%.1f minor words per run (bound 96)" per_run

let test_estimate_run_allocation_flat () =
  let module E = Cheffp_core.Estimate in
  let module A = Cheffp_benchmarks.Arclength in
  let est =
    E.estimate_error
      ~options:
        { E.default_options with E.per_variable = true; track_ranges = true }
      ~prog:A.program ~func:A.func_name ()
  in
  check_flat "arclength estimate" (fun n -> ignore (E.run est (A.args ~n)))

(* ------------------------------------------------------------------ *)
(* Normalize / Inline                                                 *)

let test_normalize_hoists () =
  let prog = Parser.parse_program roundtrip_src in
  let nf = Normalize.normalize_func prog (Ast.func_exn prog "main_fn") in
  (* after the decl prefix there must be no Decl statements *)
  let rec after_prefix = function
    | Ast.Decl _ :: rest -> after_prefix rest
    | rest -> rest
  in
  let rec no_decls stmts =
    List.for_all
      (function
        | Ast.Decl _ -> false
        | Ast.If (_, a, b) -> no_decls a && no_decls b
        | Ast.For { body; _ } | Ast.While (_, body) -> no_decls body
        | _ -> true)
      stmts
  in
  Alcotest.(check bool) "no interior decls" true
    (no_decls (after_prefix nf.Ast.body))

let test_normalize_preserves_semantics () =
  let prog = Parser.parse_program roundtrip_src in
  let nf = Normalize.normalize_func prog (Ast.func_exn prog "helper") in
  let prog' = Ast.add_func prog { nf with Ast.fname = "helper_norm" } in
  Typecheck.check_program prog';
  let v = Interp.run_float ~prog ~func:"helper" [ Interp.Aflt 2.5; Interp.Aint 7 ] in
  let v' =
    Interp.run_float ~prog:prog' ~func:"helper_norm"
      [ Interp.Aflt 2.5; Interp.Aint 7 ]
  in
  check_float "normalized equals original" v v'

let test_normalize_array_size_restriction () =
  let src =
    {|func f(n: int): f64 {
        var m: int = n * 2;
        var a: f64[m];
        return a[0];
      }|}
  in
  let prog = Parser.parse_program src in
  Alcotest.(check bool) "local-dependent size rejected" true
    (try
       ignore (Normalize.normalize_func prog (Ast.func_exn prog "f"));
       false
     with Normalize.Error _ -> true)

let test_inline_semantics () =
  let src =
    {|func add3(a: f64): f64 { return a + 3.0; }
      func twice(a: f64): f64 { return add3(a) * 2.0; }
      func f(x: f64): f64 {
        var s: f64 = 0.0;
        for i in 0 .. 4 { s = s + twice(x + itof(i)); }
        return s;
      }|}
  in
  let prog = Parser.parse_program src in
  let inlined = Inline.inline_func prog (Ast.func_exn prog "f") in
  Alcotest.(check bool) "no user calls left" false
    (Inline.has_user_calls prog inlined);
  let prog' = Ast.add_func prog { inlined with Ast.fname = "f_inl" } in
  Typecheck.check_program prog';
  let v = Interp.run_float ~prog ~func:"f" [ Interp.Aflt 1.25 ] in
  let v' = Interp.run_float ~prog:prog' ~func:"f_inl" [ Interp.Aflt 1.25 ] in
  check_float "inlined equals original" v v'

(* Regression: a callee whose tail return references a *local*,
   inlined at two call sites of the same caller. The second expansion
   renames the local (w -> w_1), and the tail expression must follow
   the rename — it used to resolve to the first expansion's variable,
   silently returning call #1's result for call #2. *)
let test_inline_twice_local_tail () =
  let src =
    {|func sq(a: f64): f64 { var w: f64 = a * a; return w; }
      func f(x: f64, y: f64): f64 { return sq(x) - sq(y); }|}
  in
  let prog = Parser.parse_program src in
  let inlined = Inline.inline_func prog (Ast.func_exn prog "f") in
  let prog' = Ast.add_func prog { inlined with Ast.fname = "f_inl" } in
  Typecheck.check_program prog';
  let args = [ Interp.Aflt 3.0; Interp.Aflt 2.0 ] in
  let v = Interp.run_float ~prog ~func:"f" args in
  let v' = Interp.run_float ~prog:prog' ~func:"f_inl" args in
  check_float "second call site follows the rename" v v';
  check_float "value" 5.0 v'

let test_inline_out_params () =
  let src =
    {|func setter(a: f64, out r: f64): void { r = a * 10.0; }
      func f(x: f64): f64 {
        var v: f64;
        setter(x, v);
        return v;
      }|}
  in
  let prog = Parser.parse_program src in
  let inlined = Inline.inline_func prog (Ast.func_exn prog "f") in
  let prog' = Ast.add_func prog { inlined with Ast.fname = "f_inl" } in
  Typecheck.check_program prog';
  check_float "out param wired" 15.
    (Interp.run_float ~prog:prog' ~func:"f_inl" [ Interp.Aflt 1.5 ])

let test_inline_recursion_rejected () =
  let src =
    {|func r(n: int): f64 { if (n < 1) { return 0.0; } return r(n - 1); }
      func f(): f64 { return r(3); }|}
  in
  let prog = Parser.parse_program src in
  Alcotest.(check bool) "recursion refused" true
    (try
       ignore (Inline.inline_func prog (Ast.func_exn prog "f"));
       false
     with Inline.Error _ -> true)

let test_inline_nontail_return_rejected () =
  let src =
    {|func g(x: f64): f64 { if (x > 0.0) { return x; } return -x; }
      func f(x: f64): f64 { return g(x); }|}
  in
  let prog = Parser.parse_program src in
  Alcotest.(check bool) "non-tail return refused" true
    (try
       ignore (Inline.inline_func prog (Ast.func_exn prog "f"));
       false
     with Inline.Error _ -> true)

let test_inline_while_condition_rejected () =
  let src =
    {|func g(x: f64): f64 { return x - 1.0; }
      func f(x: f64): f64 {
        var v: f64 = x;
        while (g(v) > 0.0) { v = v - 1.0; }
        return v;
      }|}
  in
  let prog = Parser.parse_program src in
  Alcotest.(check bool) "call in while cond refused" true
    (try
       ignore (Inline.inline_func prog (Ast.func_exn prog "f"));
       false
     with Inline.Error _ -> true)

let () =
  Alcotest.run "ir"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "dotdot vs float" `Quick test_lexer_dotdot_vs_float;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "operators" `Quick test_lexer_operators;
          Alcotest.test_case "keywords" `Quick test_lexer_keywords;
          Alcotest.test_case "errors" `Quick test_lexer_error;
          Alcotest.test_case "positions" `Quick test_lexer_positions;
        ] );
      ( "parser",
        [
          Alcotest.test_case "roundtrip" `Quick test_parse_pp_roundtrip;
          Alcotest.test_case "expressions" `Quick test_parse_expr;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "else-if" `Quick test_parse_else_if;
          Alcotest.test_case "parens" `Quick test_pp_expr_parens;
          QCheck_alcotest.to_alcotest qcheck_expr_roundtrip;
        ] );
      ( "typecheck",
        [
          Alcotest.test_case "accepts benchmarks" `Quick
            test_typecheck_accepts_benchmarks;
          Alcotest.test_case "rejections" `Quick test_typecheck_rejections;
          Alcotest.test_case "shadowing" `Quick test_typecheck_shadowing_scopes;
        ] );
      ( "interp",
        [
          Alcotest.test_case "arithmetic" `Quick test_interp_arith;
          Alcotest.test_case "int ops" `Quick test_interp_int_ops;
          Alcotest.test_case "division by zero" `Quick test_interp_div_by_zero;
          Alcotest.test_case "loops" `Quick test_interp_loops;
          Alcotest.test_case "while" `Quick test_interp_while;
          Alcotest.test_case "arrays" `Quick test_interp_arrays;
          Alcotest.test_case "local arrays" `Quick test_interp_local_array;
          Alcotest.test_case "bounds" `Quick test_interp_oob;
          Alcotest.test_case "out params" `Quick test_interp_out_params;
          Alcotest.test_case "user calls" `Quick test_interp_user_calls;
          Alcotest.test_case "push/pop" `Quick test_interp_push_pop;
          Alcotest.test_case "push/pop errors" `Quick
            test_interp_push_pop_errors;
          Alcotest.test_case "fuel" `Quick test_interp_fuel;
          Alcotest.test_case "intrinsics" `Quick test_interp_intrinsics;
          Alcotest.test_case "mixed precision" `Quick
            test_interp_mixed_precision_rounding;
          Alcotest.test_case "rounding modes" `Quick test_interp_rounding_modes;
          Alcotest.test_case "cost counter" `Quick test_interp_cost_counter;
          Alcotest.test_case "input array demotion" `Quick
            test_interp_input_array_demotion;
        ] );
      ( "builtins",
        [
          Alcotest.test_case "registry" `Quick test_builtins_registry;
          Alcotest.test_case "re-register keeps tag" `Quick
            test_builtins_reregister_keeps_tag;
          Alcotest.test_case "value accessors" `Quick
            test_builtins_value_accessors;
          Alcotest.test_case "compile errors" `Quick test_compile_errors;
        ] );
      ( "optimize",
        [
          Alcotest.test_case "identities" `Quick test_fold_identities;
          Alcotest.test_case "semantics preserved" `Quick
            test_optimize_preserves_semantics;
          Alcotest.test_case "dead code removed" `Quick test_optimize_removes_dead;
          Alcotest.test_case "out params & push/pop kept" `Quick
            test_optimize_keeps_out_params_and_pushpop;
          Alcotest.test_case "constant branches" `Quick
            test_optimize_constant_branch;
          Alcotest.test_case "cse hoists duplicates" `Quick
            test_cse_hoists_duplicates;
          Alcotest.test_case "cse cross-statement" `Quick
            test_cse_cross_statement_reuse;
          Alcotest.test_case "cse invalidation" `Quick
            test_cse_invalidation_on_write;
          Alcotest.test_case "cse branch isolation" `Quick
            test_cse_branch_isolation;
          Alcotest.test_case "demotion opaque (config)" `Quick
            test_optimizer_respects_demotion;
          Alcotest.test_case "demotion opaque (declared)" `Quick
            test_declared_narrow_opaque;
        ] );
      ( "compile",
        [
          Alcotest.test_case "matches interp" `Quick test_compile_matches_interp;
          Alcotest.test_case "matches interp (mixed)" `Quick
            test_compile_matches_interp_mixed;
          Alcotest.test_case "benchmarks agree" `Quick
            test_compile_benchmarks_match;
          Alcotest.test_case "cost counters agree" `Quick
            test_compile_counter_matches_interp_counter;
          Alcotest.test_case "re-registered intrinsic honoured" `Quick
            test_compile_honours_reregistered_intrinsic;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "compiled run flat in trip count" `Quick
            test_compile_run_allocation_flat;
          Alcotest.test_case "estimate run flat in trip count" `Quick
            test_estimate_run_allocation_flat;
          Alcotest.test_case "compiled run words bounded" `Quick
            test_compile_run_words;
        ] );
      ( "compile-cache",
        [
          Alcotest.test_case "hit on repeat" `Quick test_cache_hit_on_repeat;
          Alcotest.test_case "miss on changed key" `Quick
            test_cache_miss_on_changed_key;
          Alcotest.test_case "results match uncached" `Quick
            test_cache_results_match_uncached;
          Alcotest.test_case "counters threaded per run" `Quick
            test_cache_metered_counter_threading;
        ] );
      ( "normalize+inline",
        [
          Alcotest.test_case "hoists decls" `Quick test_normalize_hoists;
          Alcotest.test_case "preserves semantics" `Quick
            test_normalize_preserves_semantics;
          Alcotest.test_case "size restriction" `Quick
            test_normalize_array_size_restriction;
          Alcotest.test_case "inline semantics" `Quick test_inline_semantics;
          Alcotest.test_case "inline twice, local tail return" `Quick
            test_inline_twice_local_tail;
          Alcotest.test_case "inline out params" `Quick test_inline_out_params;
          Alcotest.test_case "recursion rejected" `Quick
            test_inline_recursion_rejected;
          Alcotest.test_case "non-tail return rejected" `Quick
            test_inline_nontail_return_rejected;
          Alcotest.test_case "while-cond call rejected" `Quick
            test_inline_while_condition_rejected;
        ] );
    ]
