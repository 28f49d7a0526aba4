(** Reference interpreter for MiniFP.

    The interpreter is precision-aware: under a mixed-precision
    configuration it rounds values bit-accurately to each variable's
    effective storage format (and, in [Source] rounding mode, rounds every
    operation to the format implied by its operands), and it can meter the
    modelled cost of the run through a {!Cheffp_precision.Cost.Counter}
    including implicit-cast charges. This is the engine used to measure
    the "actual error" and modelled speedup of mixed-precision
    configurations; the fast path for analysis runs is {!Compile}.

    It is written once, over a {!LANE}: a companion value carried beside
    every float. {!run} is the instance whose lane carries nothing;
    [Cheffp_shadow.Shadow] is the instance whose lane is a double-double
    reference value. *)

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

val parse_args : Ast.func -> string list -> arg list
(** Positional argument strings for the function's [In] parameters, in
    order: an int, a float, or an array as its elements joined by [':'].
    @raise Failure on a wrong argument count or an unparsable number. *)

type result = {
  ret : Builtins.value option;
  outs : (string * Builtins.value) list;
      (** final values of scalar [out] parameters, in parameter order *)
  stack_peak_bytes : int;
      (** high-water mark of the push/pop value stacks during the run *)
}

val wider :
  Cheffp_precision.Fp.format ->
  Cheffp_precision.Fp.format ->
  Cheffp_precision.Fp.format
(** The wider of two formats: in [Source] mode, the format an operation
    on the two runs in. *)

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
    @raise Runtime_error on arity/kind mismatches, undeclared names, an
    out-of-bounds index (in a read, store, [push] or [pop]), a [pop]
    from an empty value stack, or fuel exhaustion. *)

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

val locate :
  ?builtins:Builtins.t ->
  prog:Ast.program ->
  func:string ->
  arg list ->
  string ->
  string
(** [locate ~prog ~func args msg] names the source of a compiled run's
    failure. A compiled run that fails reports [msg], which names the
    generated function and gives no index (compiled slots carry no
    names). [locate] re-runs the source function [func] on [args]
    through this interpreter, in double precision, and returns the
    message that run raises, such as
    [index 3 out of bounds for "a" (length 2)], or [msg] when it
    succeeds. Pass a pristine copy of the failing run's arguments: a
    run mutates its array arguments in place. Called only after a
    failure, so successful runs pay nothing. *)

(** {2 Lanes}

    A lane decides what the interpreter carries beside each float and
    sees every point where that companion value is made, combined,
    stored or consulted. The interpreter owns everything else: scopes,
    storage and Source/Extended rounding of the float itself, cost
    metering, fuel, user calls, push/pop, argument preparation and
    [out] parameters. Every discrete decision is taken from the float,
    never from the lane. *)

module type LANE = sig
  type t
  (** The companion value of one float. *)

  type st
  (** Per-run lane state. *)

  val zero : t
  (** Lane of a float variable or array element not yet assigned. *)

  val of_float : float -> t
  (** Lane of a float literal, and of a float input as the caller gave
      it, before rounding to its storage format. *)

  val of_int : int -> t
  (** Lane of an int passed to a builtin or returned. *)

  val neg : t -> t

  val binop : Ast.binop -> t -> t -> t
  (** [Add], [Sub], [Mul] or [Div] of two lanes. *)

  val call : st -> string -> Builtins.value array -> t array -> float -> t
  (** [call st name low_args lane_args x] is the lane of a float builtin
      result: [low_args] went to the builtin, which returned [x] (before
      any Source-mode rounding); [lane_args] are the arguments' lanes. *)

  val store : st -> string -> float -> t -> unit
  (** [store st name value lane] follows every float store and pop into
      variable [name] (an array's name for its elements); [value] is the
      stored float, after rounding. *)

  val decide : st -> int -> unit
  (** Every [if] and [while] outcome (0 or 1) and every int builtin
      result, in execution order. *)
end

module Make (L : LANE) : sig
  type result = {
    ret : (Builtins.value * L.t) option;
    outs : (string * Builtins.value * L.t) list;
        (** [out] scalars in parameter order; an int's lane is
            [L.of_int] of it *)
    stack_peak_bytes : int;
  }

  val run :
    ?builtins:Builtins.t ->
    ?config:Cheffp_precision.Config.t ->
    ?mode:Cheffp_precision.Config.rounding_mode ->
    ?counter:Cheffp_precision.Cost.Counter.t ->
    ?fuel:int ->
    lane:L.st ->
    prog:Ast.program ->
    func:string ->
    arg list ->
    result
  (** The interpreter of [Interp.run], carrying lane [L] with per-run
      state [lane]. *)
end
