(** Slot-instruction compiler for MiniFP: the scalar emitter of the one
    slot lowering ({!Lower}).

    Compiles a function (after auto-inlining its user calls) into flat
    arrays of [env -> unit] instructions over a slot-resolved
    environment. Variables, constants and expression temporaries are
    slots of one float array (and one int array), resolved at compile
    time. Every float operation is one instruction that reads its
    operand slots and writes its result slot; a store computes straight
    into the variable's slot. So execution carries no name lookups, and
    no float is boxed on the way: default intrinsics run as unboxed
    stdlib primitives ({!Builtins.prim}), value stacks move floats
    between arrays, cost metering adds into an unboxed total, and an
    analysis records into the run's {!sink}. Temporaries are recycled
    per statement, so the environment grows only by the temporaries of
    the largest statement. Two cases still box: intrinsics that are not
    tagged (user models, replacements of a default), which are called
    as closures, and binary16 rounding, which calls [Fp.round].

    This is the project's stand-in for the paper's "generated source
    goes through the compiler's optimization pipeline": CHEF-FP analysis
    code is optimized ({!Optimize}) and compiled here before it runs,
    which is what makes it faster and leaner than the tape-based
    baseline.

    {!Lower} owns scopes, slots, int code, statements, parameters, the
    format rules and the charge order; {!Batch} is the same lowering
    with a lane emitter. Here the format rules are resolved against the
    compilation's one configuration while the instructions are emitted,
    so every float expression's format is static, and rounding (and
    optional cost metering) is emitted only where needed and costs
    nothing elsewhere. Precision semantics match {!Interp}. Metering
    charges are emitted in the order the expression tree is evaluated
    (an operation's charge before its operands' code, right operand
    before left), so totals are reproducible to the bit. This is the
    only metered executor: {!Batch}'s lanes carry no cost. *)

exception Compile_error of string

type t

(** Per-run recording sink: where calls tagged [Record_total],
    [Record_range] and [Record_iter] ({!Builtins.prim}) write, indexed
    by the integer id they pass. *)
type sink = {
  totals : float array;
  lo : float array;  (** [infinity] until the id is first recorded *)
  hi : float array;  (** [neg_infinity] until the id is first recorded *)
  iters : (int * int, float ref) Hashtbl.t;  (** keyed by (id, iteration) *)
}

val sink : int -> sink
(** A fresh sink for ids [0 .. n-1]. *)

val record_total : sink -> int -> float -> unit
val record_range : sink -> int -> float -> unit
val record_iter : sink -> int -> int -> float -> unit
(** What the [Record_*] calls do: exposed for implementations of those
    intrinsics outside compiled code (the interpreter calls them by
    name). *)

val compile :
  ?builtins:Builtins.t ->
  ?config:Cheffp_precision.Config.t ->
  ?mode:Cheffp_precision.Config.rounding_mode ->
  ?meter:bool ->
  ?optimize:bool ->
  prog:Ast.program ->
  func:string ->
  unit ->
  t
(** [optimize] (default [true]) runs {!Optimize.optimize_func} first,
    with the configuration's demoted variables opaque.
    [mode] defaults to [Source], matching {!Interp.run}.

    [meter] (default [false]) decides statically whether cost-metering
    code is emitted at all; unmetered compilations pay nothing at run
    time. Metered compilations charge into the {e run}'s counter, not
    one captured here. A compiled value is therefore immutable after
    compilation and may be shared freely — across repeated runs, across
    counters, and across domains (every {!run} builds a private
    environment), which is what {!Compile_cache} and the parallel
    tuning paths rely on.

    Primitive tags are read here: re-registering an intrinsic after
    compiling does not affect the compiled value. *)

val run :
  ?counter:Cheffp_precision.Cost.Counter.t ->
  ?sink:sink ->
  t ->
  Interp.arg list ->
  Interp.result
(** Execute the compiled function. The same compiled value can be run
    many times (including concurrently from several domains); arrays
    passed as arguments are shared and mutated. [counter] receives the
    run's metered costs; without one, a metered compilation's charges
    go to a fresh private accumulator and are dropped (an unmetered one
    charges nothing and gets none). [sink] receives the run's
    recordings; without one they go to an empty sink, where
    [Record_total] and [Record_range] fail (a function that records
    nothing shares one empty sink across runs and allocates none).
    @raise Interp.Runtime_error naming the function when the run indexes
    an array out of bounds, pops an empty stack, records into a sink
    too small or divides an int by zero (the compiled code does not
    check each access or divisor; the failure is caught once per run,
    in {!Lower}, for both executors).
    @raise Compile_error on an arity or argument-kind mismatch. *)

val run_float :
  ?counter:Cheffp_precision.Cost.Counter.t ->
  ?sink:sink ->
  t ->
  Interp.arg list ->
  float
