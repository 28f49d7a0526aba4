(** Input distributions and Monte-Carlo sweeps (DESIGN.md §16).

    One args vector is a thin view of a program's error behaviour. This
    module samples argument vectors from per-variable distributions —
    uniform, normal, or the default box derived from an FPCore [:pre]
    range / the base value — and sweeps them through the batched
    input-sweep runner ({!Cheffp_ir.Batch.run_inputs_many}), so the
    per-sample cost is a lane slot, not a compile+run.

    {b Determinism}: sample [i] is a pure function of [(seed, i)]
    (drawn from {!Cheffp_util.Rng.substream}), independent of lane
    width, chunking and pool job count — the property the fuzz suite
    pins. Uniform draws use arithmetic only and are bit-reproducible
    across platforms; normal draws go through libm ([log]/[cos]) and
    are reproducible per platform. *)

open Cheffp_ir

exception Spec_error of string
(** Malformed [--dist] specs, arity mismatches, unknown parameter
    names. *)

type dist =
  | Fixed of float  (** degenerate: always this value *)
  | Uniform of { lo : float; hi : float }
  | Normal of { mu : float; sigma : float }

val dist_to_string : dist -> string

val dist_of_string : string -> dist
(** Parses ["fixed:v"], ["uniform:lo,hi"] (lo < hi),
    ["normal:mu,sigma"] (sigma > 0). @raise Spec_error *)

val dists_of_string : string -> (string * dist) list
(** The [--dist] surface syntax: [NAME=DIST] entries separated by [';']
    or whitespace, e.g. ["x=uniform:0,1 y=normal:0,2"].
    @raise Spec_error *)

val default_box : float -> dist
(** The fallback distribution around a base value [v]:
    [Uniform] over [v +/- 0.5*|v|]; at [v = 0] a relative box
    degenerates, so the absolute interval [[-1, 1]] is used instead
    (the same rule {!Cheffp_range.Box.default_iv} applies to range
    boxes). *)

type plan
(** A resolved sampling plan: one slot per parameter of the target
    function. Float scalars and float arrays (elementwise) are sampled;
    integers, integer arrays and [out] parameters pass through fixed —
    sampling only perturbs values, never the shared integer control
    flow. *)

val plan :
  ?dists:(string * dist) list ->
  ?ranges:(string * (float option * float option)) list ->
  func:Ast.func ->
  args:Interp.arg list ->
  unit ->
  plan
(** Resolve a plan for [func] around the base point [args]. Per float
    parameter, the first match wins: an explicit entry in [dists]; a
    bounded range in [ranges] (the FPCore [:pre] box, as
    [Import.core.ranges]) as a [Uniform]; the {!default_box} around the
    base value. Float arrays sample every element (one explicit [dist]
    for all elements, or the default box around each base element).
    @raise Spec_error on arity mismatch or a [dists] name that is not a
    parameter. *)

val describe : plan -> (string * string) list
(** Human-readable [(param, distribution)] rows for CLI/server
    output. *)

val box_view :
  plan ->
  (string
  * [ `Fixed of Interp.arg
    | `Interval of float * float
    | `Intervals of (float * float) array
    | `Unbounded ])
  list
(** The plan's per-parameter support as plain bounds — the bridge for
    handing a sampling plan to [Cheffp_range.Box] (the two libraries
    sit side by side and cannot see each other's types). [`Unbounded]
    marks Normal draws: their support has no finite box, so rigorous
    pruning must be disabled for such plans. *)

val sampled_vars : plan -> string list
(** Parameters the plan actually samples (non-fixed slots). *)

val draw : plan -> seed:int64 -> int -> Interp.arg list
(** [draw plan ~seed i] is sample [i]: every sampled parameter drawn
    in declaration order from [Rng.substream seed i]. Fresh arrays per
    call (safe to mutate). Bumps the [sampling.samples_total]
    counter. *)

val draw_many : plan -> seed:int64 -> int -> Interp.arg list array
(** Samples [0 .. n-1], in order. *)

val sweep :
  ?jobs:int ->
  ?lanes:int ->
  ?builtins:Builtins.t ->
  ?mode:Cheffp_precision.Config.rounding_mode ->
  prog:Ast.program ->
  func:string ->
  config:Cheffp_precision.Config.t ->
  Interp.arg list array ->
  float array
(** Batched evaluation of [func] under [config] at each input vector:
    {!Cheffp_ir.Compile_cache.compile_batch} for the artifact (one cache
    entry serves this and the program's config sweeps),
    {!Cheffp_ir.Batch.run_inputs_many} for the execution ([lanes]-wide
    sweeps, default {!Cheffp_ir.Batch.default_sweep_lanes}, fanned
    over [jobs] domains), cache-backed scalar fallback for diverged
    lanes. Results preserve input order. *)

val measured_errors :
  ?jobs:int ->
  ?lanes:int ->
  ?builtins:Builtins.t ->
  ?mode:Cheffp_precision.Config.rounding_mode ->
  ?reference:float array ->
  prog:Ast.program ->
  func:string ->
  config:Cheffp_precision.Config.t ->
  Interp.arg list array ->
  float array * float array
(** Per-sample measured error of [config] against the all-double
    reference: [(errors, reference)] with
    [errors.(i) = |y_config(x_i) - y_double(x_i)|]. Pass [reference]
    (the second component of a previous call on the same inputs) to
    share the double sweep across many candidate configurations — the
    tuning loop's trick. @raise Invalid_argument on a reference length
    mismatch. *)

val measured_summary :
  ?jobs:int ->
  ?lanes:int ->
  ?builtins:Builtins.t ->
  ?mode:Cheffp_precision.Config.rounding_mode ->
  ?reference:float array ->
  prog:Ast.program ->
  func:string ->
  config:Cheffp_precision.Config.t ->
  Interp.arg list array ->
  Quantile.summary * float array
(** {!measured_errors} reduced to a {!Quantile.summary} (plus the
    reference values for reuse). *)
