(** Search-based mixed-precision tuning baseline (Precimonious-style),
    with profile-guided acceleration.

    The paper's introduction motivates AD-based analysis by the cost of
    search: "search-based approaches are very expensive as the state
    space is significantly large" (§I, citing Precimonious and CRAFT).
    This module implements such a baseline so the claim is measurable —
    a delta-debugging-flavoured greedy search that explores variable
    subsets and validates candidate configurations by actually
    executing the program, counting executions as it goes — and then
    turns the paper's own insight back on the baseline: one
    gradient-augmented run ({!Profile}) scores {e every} candidate
    configuration in O(#vars), so most of the search's executions can
    be predicted instead of performed.

    The measured algorithm (a simplified Precimonious):
    + run the reference (1 execution);
    + try the all-demoted configuration — if it validates, done;
    + measure each variable's individual demotion error (n executions);
    + greedily grow the demotion set in ascending individual-error
      order, validating each step by execution (up to n more);
    + drop candidates that fail and continue.

    Contrast with {!Tuner.tune}: one CHEF-FP analysis (a single
    gradient-augmented execution) plus one validation run. The
    [ablation-search] benchmark compares executions, configurations and
    speedups on the paper's workloads. *)

open Cheffp_ir
module Config = Cheffp_precision.Config
module Fp = Cheffp_precision.Fp

type strategy = [ `Measured | `Modelled | `Hybrid ]
(** How candidate configurations are judged:
    - [`Measured]: every candidate is executed (the pure Precimonious
      baseline of earlier revisions);
    - [`Modelled]: zero candidate executions — one augmented profile
      run scores everything, and the chosen set is {!Tuner.select}
      under half the threshold (the same Source-mode headroom
      {!Tuner.tune}'s default margin budgets), with overflow vetoes
      answered from the profile's value ranges;
    - [`Hybrid] (the default): every accept/drop decision still comes
      from a measured (or batched) run — the model only spends the
      executions whose results cannot influence those decisions: the
      all-demoted shortcut when the model rejects it with
      [prune_margin] to spare, and the speculation tails of greedy
      rounds (capped trials are deferred, not dropped, so a wrong
      model costs executions rather than correctness). The chosen set
      is bit-identical to [`Measured]'s; skipped runs are counted in
      [runs_avoided]. *)

val strategy_name : strategy -> string
(** ["measured"] / ["modelled"] / ["hybrid"]. *)

val strategy_of_string : string -> strategy option
(** Inverse of {!strategy_name}; [None] on anything else. *)

type outcome = {
  demoted : string list;
  executions : int;
      (** program runs the search consumed, in program-runs-equivalent:
          a lane of a batched sweep counts like a scalar run, so the
          number is comparable across [batch] settings (and to
          Precimonious-style cost accounting) *)
  batched_runs : int;
      (** lane sweeps actually run: with [batch] set, each replaced up
          to K entries of [executions]; with [sampling], one per chunk
          of inputs a candidate ran before it settled, so the count
          depends on the lane width and [jobs]. [0] otherwise *)
  runs_avoided : int;
      (** candidate executions the error-atom profile predicted away
          ([0] under [`Measured]; the whole candidate space under
          [`Modelled]). Under [`Hybrid] the count is exact:
          [executions + runs_avoided] equals what [`Measured] would
          have executed, as long as the all-demoted shortcut's margin
          holds. Also accumulated in the [search.runs_avoided]
          counter. *)
  pruned : int;
      (** candidate executions replaced by rigorous certificates from
          the [prune_bound] callback ([0] without one). Each pruned
          run is an {e accept} the measured search must also reach, so
          the invariant extends to
          [executions + runs_avoided + pruned] equals the [`Measured]
          total. Also accumulated in the [search.pruned_total]
          counter. *)
  strategy : strategy;  (** the strategy that produced this outcome *)
  evaluation : Tuner.evaluation;
  modelled_error : float;
      (** CHEF-FP estimate for the chosen set: {!Profile.score} of the
          chosen configuration — a dot product against the error atoms
          of the one gradient-augmented execution every strategy
          already performs (not counted in [executions]) *)
  measured_error : float option;
      (** ground-truth error of the chosen configuration from the
          [measure] callback (shadow execution against the double-double
          reference), when one was supplied *)
  threshold : float;
  samples : int;
      (** Monte-Carlo inputs per candidate evaluation when [sampling]
          was set; [0] for single-point tuning *)
}

type sampling = { inputs : Interp.arg list array; quantile : float }
(** Quantile-targeted tuning: judge each candidate configuration by the
    [quantile] (e.g. [0.99] for p99) of its measured error over
    [inputs] — an array of sampled argument vectors, typically
    {!Sampling.draw_many} over the FPCore [:pre] box — instead of by
    its error at the single base point. *)

val tune :
  ?target:Fp.format ->
  ?mode:Config.rounding_mode ->
  ?builtins:Builtins.t ->
  ?jobs:int ->
  ?batch:int ->
  ?sampling:sampling ->
  ?measure:(Config.t -> float) ->
  ?strategy:strategy ->
  ?prune_margin:float ->
  ?prune_bound:(string list -> float option) ->
  prog:Ast.program ->
  func:string ->
  args:Interp.arg list ->
  threshold:float ->
  unit ->
  outcome
(** Under [`Measured] and [`Hybrid] the returned configuration always
    satisfies [threshold] (every accept is validated by execution).
    Under [`Modelled] the selection is model-validated only — the
    embedded {!Tuner.evaluate} reports the measured error of the chosen
    configuration (its two runs are the strategy's only confirmation
    executions), and callers wanting a hard guarantee check
    [evaluation.actual_error] (the [validate] command and the
    model-soundness tests do exactly that).

    Every strategy begins by building (or fetching from the shared
    compile-cache LRU, see {!Profile.build_cached}) the error-atom
    profile of [(prog, func, args)] — one gradient-augmented execution,
    not counted in [executions].

    [strategy] defaults to [`Hybrid]. [prune_margin] (default [64.],
    must be [>= 1]; [Invalid_argument] otherwise) is the factor by
    which a candidate set's modelled error must clear [threshold]
    before [`Hybrid] treats the model's rejection as actionable. Two
    sites act on it, chosen so that a wrong rejection is either
    impossible to hit within the margin or cannot corrupt the result:
    + the {e all-demoted shortcut}: when the model rejects the full
      candidate set, its single certain-to-fail run is skipped. This is
      the one margin-trusting skip — on every paper benchmark the
      model's overestimate of the all-demoted error is well above
      [64x], and the model-smoke test asserts the resulting sets stay
      identical to [`Measured]'s;
    + the {e greedy rounds}: prefix sets within a round are nested, so
      their scores are monotone and the first rejection caps the
      round's speculation depth (never below one trial). A capped
      trial is deferred to the next round, not treated as a failure,
      so the accept/drop decisions — and the chosen set — are
      bit-identical to [`Measured] {e unconditionally}; only the
      post-failure speculation waste is saved, and only counted as
      avoided when the round's last measured trial did fail.
    Individual probes are never pruned: a solo score can overestimate
    measured error without bound (exactly-representable stores,
    self-correcting iterations like HPCCG's CG loop — DESIGN.md §12),
    so no margin both fires and stays safe.

    [prune_bound], when given, must return a {e certified} upper bound
    on the measured error of demoting exactly the given variable list
    to [target] (or [None] when it cannot vouch for that set) —
    [Cheffp_range.Range.pruner] is the intended implementation, passed
    from above because the rigorous-range library sits higher in the
    dependency order (exactly like [measure]). It is only ever used to
    {e accept} without executing, at the two sites where a certified
    accept is a decision the measured search must reach anyway: the
    all-demoted shortcut (bound below [threshold] — search over,
    zero candidate executions) and the longest certified prefix of each
    greedy round (prefixes are nested, so certified bounds are
    monotone). Rejections always stay measured, so an over-wide bound
    costs nothing and a tight one only removes runs whose outcome is
    forced: the chosen set stays bit-identical for any callback, and
    each certificate counts in [pruned] (see DESIGN.md §17).

    [batch] (default off; [Some k] with [k >= 2] enables) evaluates the
    probe and growth candidates through {!Cheffp_ir.Batch}: the n
    per-candidate runs of a phase become ⌈n/k⌉ lane sweeps of one
    configuration-generic compilation, composed with [jobs] (sweeps fan
    out across domains). Per-lane results are bit-identical to the
    scalar runs, so the outcome (demoted set, evaluation, executions)
    is unchanged — lanes that diverge from shared control flow are
    transparently re-run scalar. The reference run, the all-demoted
    shortcut and the final {!Tuner.evaluate} stay scalar (one or two
    configurations are below the batching break-even). Speculation caps
    compose with batching: a capped round simply sweeps fewer lanes.

    [sampling] (default off) switches [`Measured]/[`Hybrid] candidate
    judgement from single-point to quantile-targeted: the double
    reference becomes one input sweep over [sampling.inputs] (computed
    once, shared across all candidates), and each candidate's error is
    the [sampling.quantile] of its per-sample |deviation| — evaluated
    through the batched {e input-sweep} axis
    ({!Cheffp_ir.Batch.run_inputs}), chunk by chunk in input order, in
    waves of [jobs] chunks fanned over domains. The lane width is
    [batch] when it is [>= 2], else {!Cheffp_ir.Batch.default_lanes}
    (8) — not the 64-lane {!Cheffp_ir.Batch.default_sweep_lanes}. A
    configuration that is fine at the box midpoint but violates the
    threshold in a tail now fails its accept, so the chosen demotion
    set can legitimately differ from single-point tuning (the
    [@dist-smoke] bench asserts it does on at least one workload).

    A failing candidate costs only the sweeps until it settles: once
    {!Quantile.settle_count} of its errors lie strictly above
    [threshold], its quantile must exceed it too, and its remaining
    chunks are skipped (for p99 over 64 samples, the first error above
    the threshold settles it). A candidate that never settles runs
    every chunk and keeps its exact quantile; a settled one reports a
    lower bound above the threshold. The search compares a failing
    candidate's error only with [threshold], so the outcome is the
    same as evaluating every input, for every [batch] and [jobs];
    only [batched_runs] depends on them. Accounting stays in set
    units — one candidate evaluation is one [execution] regardless of
    sample count, so the [`Hybrid]-vs-[`Measured] invariant is
    mode-independent. [`Modelled] ignores [sampling] (its scores come
    from the one profiled point). [Invalid_argument] on an empty
    [inputs] or a quantile outside [0, 1].

    [measure], when given, is called once with the chosen configuration
    (not counted in [executions]); `Cheffp_shadow` lives above this
    library in the dependency order, so callers that want a
    ground-truth column pass [Oracle]/[Shadow] through this hook — the
    CLI's [search] command and the bench harness both do.

    [jobs] (default 1) fans the candidate evaluations out across that
    many domains ({!Cheffp_util.Pool}): the individual-probe phase is
    one parallel batch, and the greedy-growth phase is batched per
    round by speculating that every earlier candidate of the round is
    accepted — wrong speculations are dropped (their runs still count
    in [executions]) and the round restarts after the failure, so the
    outcome (demoted set, evaluation, executions) is bit-identical for
    every [jobs] value. Compilations go through {!Compile_cache}, so
    configurations revisited across the run compile once.

    Observability: the [search.tune] span carries [strategy] and
    [runs_avoided] attributes; each candidate's [search.candidate]
    span carries its [vars] and [error], and in sampled mode also
    [sweeps] (chunks run) and [settled] (whether enough errors lay
    above the threshold to decide it; a settled candidate's [error] is
    a lower bound above the threshold, not its quantile); model-scoring
    phases record
    [search.model_score] spans (with [scored]/[cut] counts); avoided
    runs accumulate in the [search.runs_avoided] counter; the profile
    build/fetch traces as {!Profile.build} documents. *)
