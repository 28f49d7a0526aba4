(** Optimization passes over MiniFP.

    These play the role of the host compiler's pipeline in the paper: the
    adjoint-with-error-code that the CHEF-FP generator emits is cleaned up
    here before execution, which is a large part of why inlined error
    estimation beats tape-based tools (paper §I, §III).

    Passes:
    - local common-subexpression elimination (see {!Cse});
    - constant folding and algebraic simplification ([x*1], [x+0],
      [x*0 -> 0] in fast-math style, double negation, constant branches);
    - forward copy/constant propagation within basic blocks (with
      conservative kills at control-flow joins and loop bodies);
    - dead-code elimination of scalar locals that are never read.

    [0*x -> 0] and constant-condition pruning are exact for the finite,
    non-exceptional values analysis code computes but not for NaN/Inf
    inputs; [optimize_func ~fast_math:false] disables those rewrites. *)

val fold_expr :
  ?fast_math:bool -> ?opaque:(string -> bool) -> Ast.expr -> Ast.expr
(** One bottom-up folding/simplification pass over an expression.
    Identities that drop a binary64 literal operand ([e * 1.0 -> e]) are
    skipped when [e] mentions an [opaque] (narrow-storage) variable:
    they would narrow the expression's static format and change
    Source-mode rounding around it. *)

val optimize_func :
  ?fast_math:bool -> ?cse:bool -> ?opaque:(string -> bool) -> Ast.func -> Ast.func
(** Runs local CSE ({!Cse}, on by default) once, then folding,
    propagation, and DCE to a fixpoint: passes stop at the first one
    that changes nothing (by [compare], so a NaN literal equals itself),
    or after eight. With tracing on, the number of passes is recorded as
    the [passes] attribute of the enclosing span. Out parameters and
    arrays are never removed.

    [opaque] names variables whose stored value must always be re-read
    rather than forwarded — the mixed-precision case: a store into a
    demoted variable rounds, so propagating the pre-store value through
    it would change semantics. Variables with a narrow declared type are
    opaque automatically; pass configuration-demoted names here (the
    closure compiler does). *)
