(** Reference interpreter for MiniFP.

    The interpreter is precision-aware: under a mixed-precision
    configuration it rounds values bit-accurately to each variable's
    effective storage format (and, in [Source] rounding mode, rounds every
    operation to the format implied by its operands), and it can meter the
    modelled cost of the run through a {!Cheffp_precision.Cost.Counter}
    including implicit-cast charges. This is the engine used to measure
    the "actual error" and modelled speedup of mixed-precision
    configurations; the fast path for analysis runs is {!Compile}. *)

exception Runtime_error of string

type arg =
  | Aint of int
  | Aflt of float
  | Afarr of float array  (** shared with the callee: mutated in place *)
  | Aiarr of int array

val copy_args : arg list -> arg list
(** Fresh copies of the array arguments (scalars are shared): a run may
    mutate its array arguments in place, so every run that must not see
    another's writes gets its own copy. *)

type result = {
  ret : Builtins.value option;
  outs : (string * Builtins.value) list;
      (** final values of scalar [out] parameters, in parameter order *)
  stack_peak_bytes : int;
      (** high-water mark of the push/pop value stacks during the run *)
}

val effective_format :
  Cheffp_precision.Config.t -> Ast.scalar -> string -> Cheffp_precision.Fp.format
(** Storage format of a float variable: an explicit configuration override
    wins; otherwise a narrow declared type wins; otherwise the
    configuration default. Integers report [F64] (unused). *)

val run :
  ?builtins:Builtins.t ->
  ?config:Cheffp_precision.Config.t ->
  ?mode:Cheffp_precision.Config.rounding_mode ->
  ?counter:Cheffp_precision.Cost.Counter.t ->
  ?fuel:int ->
  prog:Ast.program ->
  func:string ->
  arg list ->
  result
(** [run ~prog ~func args] type-checks nothing (call {!Typecheck} first on
    untrusted input) and executes [func]. [mode] defaults to [Source].
    [fuel] bounds the number of executed statements (negative, the
    default, means unlimited) — a guard for untrusted programs with
    runaway [while] loops.
    @raise Runtime_error on arity/kind mismatches, undeclared names, or
    fuel exhaustion. *)

val run_float :
  ?builtins:Builtins.t ->
  ?config:Cheffp_precision.Config.t ->
  ?mode:Cheffp_precision.Config.rounding_mode ->
  ?counter:Cheffp_precision.Cost.Counter.t ->
  ?fuel:int ->
  prog:Ast.program ->
  func:string ->
  arg list ->
  float
(** Like {!run} but expects a float return value.
    @raise Runtime_error otherwise. *)
