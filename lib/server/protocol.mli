(** Wire protocol of [cheffp serve]: newline-delimited JSON objects,
    one request per line in, one response per line out (DESIGN.md §13).

    A request is an envelope (id, command, scheduling and telemetry
    fields) around an {!Api.request}, whose fields carry the CLI flags'
    names, defaults and string syntax ([args] positional with arrays as
    [v1:v2:...], [demote] as [var:fmt]). The CLI and the daemon run the
    same {!Api} handler, so results are bit-identical to one-shot runs.
    Responses echo the request [id] (requests on one connection may
    complete out of order), carry the structured [result], the CLI's
    rendered [report] text, queue-wait and service times, and the
    request's compile-cache hit/miss summary; traced requests
    additionally carry their span tree. *)

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
  api : Api.request;
      (** the command's fields, by their {!Api.request} names; [program]
          is MiniFP source text *)
}

val parse_request : string -> (request, string) result
(** Decode one request line. Unknown fields are ignored; missing
    optional fields take {!Api.default}'s values. Option values are
    decoded by the command's handler ({!Api.decode}). *)

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
