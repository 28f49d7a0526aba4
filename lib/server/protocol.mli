(** Wire protocol of [cheffp serve]: newline-delimited JSON objects,
    one request per line in, one response per line out (DESIGN.md §13).

    Request fields mirror the CLI one-to-one — same names, defaults and
    string syntax ([args] positional with arrays as [v1:v2:...],
    [demote] as [var:fmt]) — so a request is a CLI invocation as an
    object and the handlers run the same code paths; results are
    bit-identical to one-shot runs. Responses echo the request [id]
    (requests on one connection may complete out of order), carry the
    structured [result], the CLI's rendered [report] text, queue-wait
    and service times, and the request's compile-cache hit/miss
    summary; traced requests additionally carry their span tree. *)

type cmd =
  | Ping
  | Analyze
  | Tune
  | Search
  | Sample
      (** Monte-Carlo error quantiles of a configuration over sampled
          inputs (batched input sweep; [samples]/[dist]/[seed] fields) *)
  | Validate
  | Range
      (** rigorous interval/Taylor-form error bound over an input box
          ([box]/[range_backend] fields; DESIGN.md §17) *)
  | Metrics  (** cumulative registry exposition ([format]: dump/prometheus) *)
  | Stats  (** windowed telemetry summary ({!Cheffp_obs.Window}) *)
  | Traces  (** tail-retained slow/error trees ({!Cheffp_obs.Tail}) *)
  | Shutdown

val cmd_name : cmd -> string
val cmd_of_string : string -> cmd option

type request = {
  id : int;  (** client-chosen, echoed in the response *)
  cmd : cmd;
  program : string;  (** MiniFP source text *)
  func : string;
  args : string list;
  threshold : float option;  (** required by tune/search *)
  target : string;  (** demotion target format, default "f32" *)
  model : string;  (** analyze error model, default "adapt" *)
  demote : string list;  (** validate: var:fmt overrides *)
  mode : string;  (** validate rounding mode, default "extended" *)
  margin : float;  (** validate bound safety factor, default 1.0 *)
  strategy : string;  (** search strategy, default "hybrid" *)
  prune_margin : float;  (** search hybrid margin, default 64. *)
  profiled : bool;  (** tune from a cached error-atom profile *)
  jobs : int;
      (** inner evaluation parallelism, default 1, clamped to
          [1 .. Domain.recommended_domain_count ()] *)
  batch : int;  (** lane width, default {!Cheffp_ir.Batch.default_lanes} *)
  no_batch : bool;
  tenant : string option;  (** cache attribution label *)
  priority : int;  (** admission priority, higher first, default 0 *)
  deadline_ms : float option;  (** relative deadline, orders equal priorities *)
  trace : bool;  (** stream this request's span tree back *)
  format : string;
      (** metrics exposition format: "dump" (default, the flat
          {!Cheffp_obs.Export.metrics_dump} lines) or "prometheus" *)
  limit : int;
      (** traces: return at most this many slowest trees (0 = all
          retained) *)
  samples : int;
      (** Monte-Carlo input count — required ([>= 1]) by [sample],
          optional quantile-targeting switch for [search] (0 = off,
          the default) *)
  dist : string option;
      (** per-variable distribution spec, the CLI's [--dist] syntax *)
  target_quantile : float;
      (** search with [samples]: the error quantile the threshold
          applies to (default 0.99) *)
  seed : int;  (** deterministic sampling seed (default 42) *)
  box : string option;
      (** range: box override, the CLI's [--box] syntax
          ([var=lo:hi,...]) *)
  range_backend : string;
      (** range: global-bound backend, "bb" (branch-and-bound, the
          default) or "whole" (single interval pass) *)
}

val parse_request : string -> (request, string) result
(** Decode one request line. Unknown fields are ignored; missing
    optional fields take the CLI defaults listed above. *)

type cache_summary = { c_hits : int; c_misses : int }

val ok_response :
  id:int ->
  cmd:cmd ->
  queue_wait_ms:float ->
  elapsed_ms:float ->
  cache:cache_summary ->
  spans:Cheffp_obs.Trace.span list ->
  report:string ->
  Json.t ->
  Json.t
(** Success envelope. Spans are embedded pre-rendered (each a
    {!Cheffp_obs.Export.span_to_json} line carried as a JSON string):
    their int64 nanosecond timestamps would not survive a float-backed
    JSON number, so clients write the lines verbatim. *)

val error_response : id:int -> string -> Json.t
