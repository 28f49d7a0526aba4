(** Local common-subexpression elimination.

    Adjoint code generated by reverse-mode AD is full of repeated pure
    subexpressions — product-rule seeds reuse operand values, and a
    variable read twice on a right-hand side produces two identical
    accumulation statements. This pass removes that redundancy within
    straight-line runs:

    - a repeated worthwhile subexpression inside one right-hand side is
      hoisted into a fresh temporary;
    - a right-hand side that was just assigned to a scalar is reused by
      later statements in the same run (available-expression
      propagation), invalidated as soon as any variable it mentions is
      written (or popped).

    Only float-typed, pure expressions participate ("worthwhile" means
    containing an intrinsic call or at least five AST nodes); calls to
    double-underscore intrinsics (runtime callbacks) are never touched.
    Control-flow boundaries clear availability, so the transformation is
    local and exactly value-preserving — identical operations in the same
    order produce bit-identical floats.

    The pass runs in time linear in the size of the function: one
    bottom-up walk per right-hand side (and per hoisted temporary)
    computes every node's size, typing and structural hash, and
    availability is a hash table with a per-variable kill index. *)

val cse_func :
  ?builtins:Builtins.t ->
  ?prog:Ast.program ->
  ?opaque:(string -> bool) ->
  Ast.func ->
  Ast.func
(** [prog] provides typing context for user calls and defaults to the
    empty program (the usual post-inlining state: expressions containing
    unresolvable calls are simply not touched). [opaque] variables (see
    {!Optimize.optimize_func}) neither serve as availability holders nor
    appear inside recorded expressions. The function must typecheck. *)
