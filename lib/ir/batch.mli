(** Lane-parallel batched execution of one function along either of two
    axes: K mixed-precision configurations on one input ({!run}), or K
    sampled inputs under one configuration ({!run_inputs}).

    A tuning run evaluates many candidate configurations of the {e same}
    function on the {e same} arguments; the scalar path ({!Compile})
    pays one full compile + run per configuration. This module compiles
    the function {b once} through the same slot lowering as {!Compile}
    ({!Lower}: scopes, slots, int code, statements, parameters and
    format rules are defined there, once), with a lane
    emitter: a float slot holds K {e lanes} side by side, and every float
    instruction is one tight unboxed loop over them. A float node's
    format is a rule over the configuration, resolved per lane when a
    run starts, so the compiled artifact itself is configuration- and
    input-independent, which is what lets
    {!Compile_cache.compile_batch} key it on [(program, func, mode)]
    alone and serve both axes from one entry. Both axes are one lane
    runner over per-lane configurations and per-lane arguments.

    {b Shared control flow.} Integer values (loop bounds, branch
    conditions, indices) are computed once and shared by all lanes.
    Wherever an integer is derived from floats — a float comparison, an
    int-returning intrinsic with float arguments — the per-lane
    candidates are compared: if every live lane agrees the value is
    shared and execution stays batched; if lanes disagree the majority
    keeps going and each dissenting lane is {e deactivated} and
    transparently re-run from scratch through the scalar fallback
    ({!Compile.run}) under its own configuration. Divergence therefore
    costs performance, never correctness. An [if] whose condition is a
    float comparison and whose branches only assign float scalars is
    predicated instead: each lane keeps its own outcome and nothing
    diverges.

    {b No cost.} Lanes compute values only. A configuration's modelled
    cost is what a metered scalar {!Compile.run} charges: the tuner
    validates every configuration that way, and every report prints
    that cost.

    {b Bit-identity contract.} For every lane, the returned
    {!Interp.result} is bit-identical to a scalar
    [Compile.run (Compile.compile ~config ...)] of the same function on
    the same arguments under that lane's configuration (asserted by the
    unit and fuzz suites, and pinned by [test/interp_digest.expected]).
    Divergent lanes satisfy this trivially — they {e are} scalar runs.
    A sweep raises {!Interp.Runtime_error} exactly when one of its
    lanes' scalar runs would. Unlike {!Compile.run}, batched runs never
    mutate caller-supplied argument arrays (every lane gets private
    copies).

    {b Observability} (DESIGN.md §9/§11): each batch run records a
    ["batch.run"] span with [lanes]/[divergences] attributes, sets the
    [batch.lanes] gauge, and bumps the [batch.runs] counter and the
    [batch.divergence_total] counter (one increment per deactivated
    lane). *)

type t

val default_lanes : int
(** 8: wide enough to amortize per-node closure dispatch, narrow enough
    that lane chunks still spread across pool domains. *)

val default_sweep_lanes : int
(** 64: the input-sweep default. One config per sweep means per-chunk
    fixed costs (format resolution, environment build, result
    assembly) dominate narrow chunks, and sampled runs routinely have
    hundreds of inputs to fill wide ones. *)

val compile :
  ?builtins:Builtins.t ->
  ?mode:Cheffp_precision.Config.rounding_mode ->
  ?optimize:bool ->
  prog:Ast.program ->
  func:string ->
  unit ->
  t
(** Compile [func] once for any number of lanes and any configurations
    ([mode] defaults to [Source], as everywhere). [optimize] (default
    [true]) runs {!Optimize.optimize_func} with {e every} variable
    opaque — the configuration is unknown at compile time, so the
    rewrites that would change mixed-precision semantics for {e some}
    configuration are all disabled; the surviving rewrites are the
    value-preserving ones, keeping the bit-identity contract.

    Like {!Compile.compile}, the result is immutable and safe to share
    across runs and domains ({!run} builds a private environment).
    @raise Compile.Compile_error on malformed programs. *)

type result = {
  lanes : Interp.result array;  (** one per configuration, in order *)
  divergences : int;
      (** lanes of this run that diverged and were re-run scalar *)
}

val run :
  ?fallback:(Cheffp_precision.Config.t -> Compile.t) ->
  t ->
  configs:Cheffp_precision.Config.t array ->
  Interp.arg list ->
  result
(** Run every configuration of [configs] as one lane sweep.

    [fallback] supplies the scalar compilation used for diverged lanes
    (default: a direct {!Compile.compile} with this batch's
    builtins/mode/optimize settings — pass a {!Compile_cache}-backed
    closure to memoize).
    @raise Invalid_argument on an empty [configs].
    @raise Compile.Compile_error on arity/kind mismatches.
    @raise Interp.Runtime_error naming the function where a lane's
    scalar run raises it. *)

val run_inputs :
  ?fallback:(Cheffp_precision.Config.t -> Compile.t) ->
  t ->
  config:Cheffp_precision.Config.t ->
  Interp.arg list array ->
  result
(** The {e input-sweep} axis: run K sampled argument vectors under ONE
    configuration as a single lane sweep (lane [l] executes
    [inputs.(l)]). {!run} and this function are one lane runner: here
    every lane resolves the formats of the one configuration and loads
    its own arguments.

    Integer arguments (and integer arrays, and float-array {e lengths})
    feed the shared control flow, so they pass through the same
    consensus machinery as a run-time float→int crossing: if the sampled
    vectors disagree, the majority stays batched and each dissenting
    lane is deactivated and transparently re-run scalar under [config].
    Divergence costs performance, never correctness — every lane's
    {!Interp.result} is bit-identical to
    [Compile.run (Compile.compile ~config ...) inputs.(l)] (the fuzz
    suite asserts this including forced-divergence paths). Caller arrays
    are never mutated. [fallback] supplies the scalar compilation for
    diverged lanes (applied to [config], at most once per sweep).

    Each sweep records a ["batch.input_sweep"] span with
    [lanes]/[divergences] attributes and bumps the
    [batch.input_sweeps] counter; divergences land in the shared
    [batch.divergence_total].
    @raise Invalid_argument on empty [inputs].
    @raise Compile.Compile_error on arity/kind mismatches.
    @raise Interp.Runtime_error as {!run}. *)

val run_inputs_floats :
  ?fallback:(Cheffp_precision.Config.t -> Compile.t) ->
  t ->
  config:Cheffp_precision.Config.t ->
  Interp.arg list array ->
  float array
(** Like {!run_inputs} but projects each lane's float return value.
    @raise Compile.Compile_error if the function does not return a
    float. *)

val run_inputs_many :
  ?jobs:int ->
  ?lanes:int ->
  ?fallback:(Cheffp_precision.Config.t -> Compile.t) ->
  t ->
  config:Cheffp_precision.Config.t ->
  Interp.arg list array ->
  float array
(** [run_inputs_many ~jobs ~lanes t ~config inputs] evaluates any
    number of sampled argument vectors by chunking them into sweeps of
    at most [lanes] (default {!default_lanes}) and fanning the chunks
    out over {!Cheffp_util.Pool.parallel_map} with [jobs] domains
    (default 1). Results preserve [inputs] order. This is the sampling
    layer's hot path: lane parallelism within a chunk, domain
    parallelism across chunks — samples/sec is the headline number of
    the [distribution] bench block. *)

val run_many :
  ?jobs:int ->
  ?lanes:int ->
  ?fallback:(Cheffp_precision.Config.t -> Compile.t) ->
  t ->
  configs:Cheffp_precision.Config.t list ->
  Interp.arg list ->
  float list
(** [run_many ~jobs ~lanes t ~configs args] evaluates an arbitrary
    number of configurations by chunking them into sweeps of at most
    [lanes] (default {!default_lanes}) and fanning the chunks out over
    {!Cheffp_util.Pool.parallel_map} with [jobs] domains (default 1).
    Results preserve [configs] order; [args] is only read. This is the
    shape the tuning probe/grow phases use: domain parallelism across
    chunks, lane parallelism within a chunk. *)
