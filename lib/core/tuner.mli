(** Mixed-precision tuning driven by CHEF-FP error estimates (paper §III).

    The workflow the paper describes: estimate every variable's
    contribution to the total FP error (its estimated error if demoted),
    then demote the cheapest variables greedily while the accumulated
    estimate stays within the user's threshold. Each candidate
    configuration is validated by {!evaluate}: it executes the program
    bit-accurately under the configuration and compares with the
    all-double result, and a metered scalar run models its performance
    with the {!Cheffp_precision.Cost} meter (OCaml has no native narrow
    floats; see DESIGN.md). So each configuration has one modelled
    speedup, whichever tuner chose it. *)

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

type selection = {
  demoted : string list;  (** chosen, in ascending contribution order *)
  vetoed : string list;
      (** variables excluded because their observed value range would
          overflow the target format (first-order error models cannot
          see overflow, so the tuner checks ranges explicitly) *)
  estimated_error : float;
      (** sum of the chosen variables' estimated contributions *)
  contributions : (string * float) list;
      (** every candidate's estimated contribution, ascending *)
}

val select :
  Profile.t -> target:Fp.format -> budget:float -> string list -> selection
(** The greedy selection from an error-atom profile, the one
    {!tune} and {!Search.tune}'s [`Modelled] strategy share: drop the
    candidates {!Profile.overflows} vetoes, sort the rest by their
    contribution [atom * unit_roundoff target], ascending, and demote
    each one while the sum of the chosen contributions stays within
    [budget]. No execution. *)

type outcome = {
  threshold : float;
  demoted : string list;
  vetoed : string list;
  estimated_error : float;
  contributions : (string * float) list;
  evaluation : evaluation;  (** validation of the chosen configuration *)
}
(** The {!selection} made under [threshold], field for field, and its
    validation. *)

val tune :
  ?model:Model.t ->
  ?profile:Profile.t ->
  ?target:Fp.format ->
  ?mode:Config.rounding_mode ->
  ?builtins:Builtins.t ->
  ?margin:float ->
  ?jobs:int ->
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
    exactly at the threshold can overshoot slightly. The chosen
    configuration is validated by {!evaluate}, the one check every
    tuner makes, with [jobs] (default 1) forwarded to it.

    [profile], when given, replaces the fresh analysis entirely
    ([model] is then ignored): the selection is {!select}, whose
    contributions are the profile's error atoms scaled by [target]'s
    unit roundoff (the first-order Taylor estimate, see
    {!Profile.score_vars}) and whose overflow veto reads the profile's
    recorded ranges — the whole selection runs without a single new
    augmented execution, so a profile built once (or fetched from the
    cache, {!Profile.build_cached}) serves any number of thresholds and
    targets. *)

val float_variables : Ast.func -> string list
(** The demotion candidates of a function: float parameters, float
    locals, and float arrays, in declaration order. *)
