(** CHEF-FP's Error Estimation Module (paper §III, Algorithm 1).

    [estimate_error] is the analogue of [clad::estimate_error(func)]: it
    differentiates the target function in adjoint mode and, through the
    {!Cheffp_ad.Reverse} hook seam, splices error-estimation statements
    into the generated backward sweep — one [AssignError] per
    differentiated assignment, a running total, and a [FinalizeEE] that
    writes the total into an extra [out _fp_error] parameter (rules
    S1–S2). The augmented adjoint is then optimized and closure-compiled,
    so the error machinery rides the same fast path as the derivative
    code: this inlining is the paper's key performance claim.

    Per-variable attribution and per-iteration sensitivity tracking are
    implemented as calls from generated code that record into a per-run
    sink (integer-id keyed), enabled on demand. The compiler lowers
    those calls to direct writes into the sink ({!Compile.sink}). *)

open Cheffp_ir

exception Error of string

type t
(** A prepared analysis: generated source + compiled form + the ids of
    the recorded variables. *)

type options = {
  per_variable : bool;
      (** attribute errors to source variables (default true) *)
  track_iterations : [ `No | `Outermost | `Innermost | `Loop of string ];
      (** also record per-loop-iteration sensitivity [|v * dv|] keyed by
          the chosen enclosing loop counter — the outermost, the
          innermost, or a specific loop variable by name (statements
          outside that loop are not tracked). Default [`No]; [`Loop]
          drives the paper's Fig. 9 heatmap. *)
  track_ranges : bool;
      (** record the min/max value every variable takes (default false;
          the tuner uses it to veto demotions that would overflow the
          narrow format) *)
  use_activity : bool;  (** skip provably-inactive adjoint code *)
  optimize : bool;  (** run the optimizer on the generated function *)
  accumulation : [ `Absolute | `Signed ];
      (** [`Absolute] (default) sums |AssignError| — an upper-bound-style
          estimate. [`Signed] sums the raw signed terms, turning a signed
          model (e.g. {!Model.adapt}) into a first-order {e prediction}
          of the demoted-minus-double difference, in the spirit of
          Langlois' CENA correction method. The per-variable signed term
          predicts a single non-recurrent variable's demotion effect
          exactly (tested); self-accumulating variables diverge from the
          reference trajectory after their first rounding, so their
          prediction is order-of-magnitude only — the reason CENA
          instruments the perturbed execution itself. Meaningless for
          inherently unsigned models like {!Model.taylor}. *)
}

val default_options : options

val estimate_error :
  ?model:Model.t ->
  ?options:options ->
  ?deriv:Cheffp_ad.Deriv.t ->
  ?builtins:Builtins.t ->
  prog:Ast.program ->
  func:string ->
  unit ->
  t
(** [model] defaults to {!Model.taylor}[ ()]. [builtins] is the registry
    the analysis executes with; a fresh default registry is created if
    omitted (the model's externals and the registry callbacks are added
    to it). @raise Error if the function cannot be differentiated. *)

type report = {
  total_error : float;
      (** the estimate written by FinalizeEE plus the input terms of the
          model (parameters are never assigned inside the function, so
          their Eq.-2 contribution is added from the computed gradient) *)
  gradients : (string * float) list;
      (** derivative of the result w.r.t. each float scalar parameter *)
  array_gradients : (string * float array) list;
      (** derivative buffers for float array parameters *)
  per_variable : (string * float) list;
      (** accumulated error per source variable, largest first *)
  per_iteration : (string * (int * float) list) list;
      (** per variable: (iteration, accumulated sensitivity) pairs *)
  ranges : (string * (float * float)) list;
      (** observed (min, max) per variable when [track_ranges]; inputs
          are always included *)
  stack_peak_bytes : int;
  analysis_bytes : int;
      (** deterministic peak-memory account: value stacks + adjoint and
          derivative storage *)
}

val run : t -> Interp.arg list -> report
(** Execute the analysis on the original function's arguments (the
    derivative and error outputs are appended automatically: array
    derivative buffers are allocated to match input lengths). Can be
    called repeatedly, also concurrently: each call records into a sink
    of its own. *)

val run_sampled :
  t -> plan:Sampling.plan -> seed:int64 -> samples:int -> Quantile.summary
(** Monte-Carlo view of the {e modelled} estimate: runs the analysis at
    [samples] input vectors drawn from [plan] (sample [i] from
    [Rng.substream seed i], same determinism contract as
    {!Sampling.draw}) and reduces the [total_error] stream to
    p50/p95/p99/max. Sequential, so cost is [samples] scalar analysis
    runs; use {!Sampling.measured_summary} for the batched measured-error
    path. @raise Invalid_argument when [samples < 1]. *)

val generated : t -> Ast.func
(** The augmented adjoint, pretty-printable with {!Cheffp_ir.Pp}. *)

val program : t -> Ast.program
(** The input program extended with {!generated}. *)

val run_interpreted : t -> Interp.arg list -> report
(** Like {!run} but through the reference interpreter instead of the
    closure compiler; used by tests and the inlining ablation. *)
