(** Mixed-precision tuning driven by CHEF-FP error estimates (paper §III).

    The workflow the paper describes: estimate every variable's
    contribution to the total FP error (its estimated error if demoted),
    then demote the cheapest variables greedily while the accumulated
    estimate stays within the user's threshold. Each candidate
    configuration can be validated by executing the program bit-accurately
    under the configuration and comparing with the all-double result, and
    its performance is modelled by the {!Cheffp_precision.Cost} meter
    (OCaml has no native narrow floats; see DESIGN.md). *)

open Cheffp_ir
module Config = Cheffp_precision.Config
module Fp = Cheffp_precision.Fp

type evaluation = {
  config : Config.t;
  actual_error : float;
      (** |f(config) - f(double)| executed bit-accurately *)
  modelled_speedup : float;  (** cost(double) / cost(config) *)
  casts : int;  (** implicit precision casts charged under [config] *)
}

val evaluate :
  ?builtins:Builtins.t ->
  ?mode:Config.rounding_mode ->
  ?jobs:int ->
  prog:Ast.program ->
  func:string ->
  args:Interp.arg list ->
  Config.t ->
  evaluation
(** Run the function under [config] and under all-double and compare.
    The function must return a float. Compilations are memoized in
    {!Compile_cache} (metered, counters threaded per run); with
    [jobs > 1] the two runs execute on separate domains — results are
    bit-identical either way. *)

val evaluate_many :
  ?builtins:Builtins.t ->
  ?mode:Config.rounding_mode ->
  ?jobs:int ->
  ?lanes:int ->
  prog:Ast.program ->
  func:string ->
  args:Interp.arg list ->
  Config.t list ->
  evaluation list
(** Evaluate many candidate configurations in lane-parallel sweeps
    ({!Cheffp_ir.Batch}): the configurations are chunked into groups of
    [lanes - 1] (default {!Cheffp_ir.Batch.default_lanes}), each group
    runs as one metered sweep with the all-double reference in lane 0,
    and chunks fan out over [jobs] domains (default 1). One sweep
    replaces |group| + 1 scalar compile+run pairs; the batch artifact
    is memoized config-independently in {!Compile_cache}
    ({!Compile_cache.compile_batch}). [actual_error] values are
    bit-identical to per-config {!evaluate} calls; modelled costs
    reflect the shared conservatively-optimized body (see
    {!Cheffp_ir.Batch.run}), which coincides with the scalar model on
    programs without literal identity operations. Order follows the
    input list. *)

type outcome = {
  threshold : float;
  demoted : string list;  (** variables chosen for demotion *)
  vetoed : string list;
      (** variables excluded because their observed value range would
          overflow the target format (first-order error models cannot
          see overflow, so the tuner checks ranges explicitly) *)
  estimated_error : float;
      (** sum of the chosen variables' estimated contributions *)
  contributions : (string * float) list;
      (** every candidate's estimated contribution, ascending *)
  evaluation : evaluation;  (** validation of the chosen configuration *)
}

val tune :
  ?model:Model.t ->
  ?profile:Profile.t ->
  ?target:Fp.format ->
  ?mode:Config.rounding_mode ->
  ?builtins:Builtins.t ->
  ?margin:float ->
  ?jobs:int ->
  ?batch:int ->
  prog:Ast.program ->
  func:string ->
  args:Interp.arg list ->
  threshold:float ->
  unit ->
  outcome
(** Greedy tuning: candidates are the float variables of the source
    function (parameters and locals); contributions come from a
    CHEF-FP analysis with [model] (default {!Model.adapt} at [target],
    default [F32], matching Eq. 2). Variables are demoted in ascending
    contribution order while the accumulated estimate stays within
    [threshold /. margin]. [margin] (default 2.0) is a safety factor:
    the first-order model charges one rounding per assignment, while
    [Source]-mode execution rounds every operation, so selections
    exactly at the threshold can overshoot slightly. [jobs] (default 1)
    is forwarded to the validating {!evaluate}. [batch] ([Some k],
    [k >= 2]) routes that validation through {!evaluate_many} instead —
    one two-lane sweep rather than two scalar runs.

    [profile], when given, replaces the fresh analysis entirely
    ([model] is then ignored): contributions are the profile's
    error atoms scaled by [target]'s unit roundoff (the first-order
    Taylor estimate, see {!Profile.score_vars}) and the overflow veto
    reads the profile's recorded ranges — the whole selection runs
    without a single new augmented execution, so a profile built once
    (or fetched from the cache, {!Profile.build_cached}) serves any
    number of thresholds and targets. *)

val float_variables : Ast.func -> string list
(** The demotion candidates of a function: float parameters, float
    locals, and float arrays, in declaration order. *)
