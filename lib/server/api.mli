(** The command layer of [cheffp] (DESIGN.md §13): one request record,
    one decoding step, one loader and one handler per command, shared by
    the CLI and the daemon. Both front ends are thin codecs that fill a
    {!request}; the handlers return the result object the daemon sends
    and the report the CLI prints. *)

exception Usage of string
(** A bad option value, raised before any work runs: by {!decode}, and
    by {!analyze} with the adapt model and {!tune} without a profile
    when the target is f64, which the adapt model cannot use. *)

type request = {
  program : string;  (** program text *)
  file : string option;  (** where [program] was read from *)
  fpcore : bool;  (** [program] is FPCore, not MiniFP *)
  func : string;
  args : string list;  (** positional, arrays as [v1:v2:...] *)
  threshold : float option;  (** required by tune and search *)
  target : string;
  model : string;
  demote : string list;  (** [var:fmt] entries *)
  mode : string;
  margin : float;
  fuel : int;
  strategy : string;
  prune_margin : float;
  profiled : bool;
  emit : bool;
  show_code : bool;
  jobs : int;
  batch : int;
  no_batch : bool;
  samples : int;
  dist : string option;
  seed : int;
  target_quantile : float;
  range : bool;
  box : string option;
  range_backend : string;
}
(** A command's fields, with the names, defaults and string syntax of
    the CLI flags they come from ([cheffp COMMAND --help]). *)

val default : request
(** Every field's default, written once for both front ends; only the
    CLI's [--jobs] defaults to the host's domain count instead. *)

type session = { builtins : Cheffp_ir.Builtins.t; deriv : Cheffp_ad.Deriv.t }
(** The registries a process holds for its lifetime; compile-cache
    entries are scoped to [builtins]. *)

val session : unit -> session

type options = {
  target : Cheffp_precision.Fp.format;
  model : Cheffp_core.Model.t Lazy.t;  (** built only by analyze *)
  config : Cheffp_precision.Config.t;  (** from [demote] *)
  mode : Cheffp_precision.Config.rounding_mode;
  strategy : Cheffp_core.Search.strategy;
  batch : int option;
  jobs : int;  (** clamped to [1 .. Domain.recommended_domain_count ()] *)
  dists : (string * Cheffp_core.Sampling.dist) list;
  box : (string * Cheffp_range.Interval.t) list option;
}

val decode : request -> options
(** @raise Usage on an unknown format, model, strategy, mode or range
    backend, a bad demotion spec, a prune margin below 1 or a quantile
    outside [[0, 1]]; [Spec_error] on a bad [dist] or [box] spec. *)

type source = {
  key : string;  (** compile-cache key of the text *)
  prog : Cheffp_ir.Ast.program;
  kernels : Cheffp_fpcore.Import.core list;  (** FPCore metadata *)
}

val load : session -> ?file:string -> fpcore:bool -> string -> source
(** Parse (or import) and typecheck a text, cached under its digest.
    Errors are never cached. *)

val func_exn : Cheffp_ir.Ast.program -> string -> Cheffp_ir.Ast.func

val located :
  session ->
  prog:Cheffp_ir.Ast.program ->
  func:string ->
  (unit -> Cheffp_ir.Interp.arg list) ->
  (unit -> 'a) ->
  'a
(** [located s ~prog ~func args f] runs [f]. A compiled run's failure
    names no array or index, so the arguments [args ()] derives afresh
    re-run through the interpreter, whose message is located. *)

val input_error : exn -> string option
(** The message of an input or analysis error; [None] for a bug. *)

(** {1 Commands} *)

val analyze : session -> request -> Json.t * string
(** CHEF-FP estimate (the analysis is cached per text, function, model
    and target), with sampled quantiles, a certified bound and the
    generated adjoint on request. *)

val tune : session -> request -> Json.t * string
val search : session -> request -> Json.t * string
val validate : session -> request -> Json.t * string

val sample : session -> request -> Json.t * string
(** Measured error quantiles of [demote] over [samples >= 1] inputs. *)

val range : session -> request -> Json.t * string
