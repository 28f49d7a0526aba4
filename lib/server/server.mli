(** The [cheffp serve] daemon (DESIGN.md §13).

    A long-running analysis server: newline-delimited JSON requests
    ({!Protocol}) over a Unix-domain or loopback TCP socket, one
    systhread per connection for I/O, and every request executed as a
    task on one shared {!Cheffp_util.Pool.Shared} domain pool — a
    1000-candidate search and a quick analyze coexist because each
    connection has its own work queue and the pool's admission policy
    (priority, deadline, round-robin on ties) schedules across them.

    The analysis commands run the CLI's own handlers ({!Api}) on one
    {!Api.session} for the daemon's lifetime, so results are
    {e bit-identical} to one-shot [cheffp] runs (the serve-smoke gate
    and test_cli assert this), and compilations, programs and analyses
    cached by one request ({!Cheffp_ir.Compile_cache}, sharded) are
    hits for every later request on the same text. {!run} drops every
    entry compiled against the session's registry once it has drained.

    Per-request observability: each request runs under a
    ["server.request"] root span whose completed subtree is extracted
    with {!Cheffp_obs.Trace.take_tree} and streamed back to the client
    (when the request sets [trace]); cache lookups are attributed via
    {!Cheffp_ir.Compile_cache.with_attribution} (per-tenant hit-rate
    metrics plus the per-request summary in every response); lifecycle
    counters and latency histograms land in {!Registry}.

    Continuous telemetry (DESIGN.md §14, on by default): a
    {!Cheffp_obs.Window} ticker turns the cumulative registry into
    last-N-seconds rates and windowed quantiles, every completed
    request tree is offered to the {!Cheffp_obs.Tail} ring (K slowest
    + all error outcomes retained), and the [stats] / [metrics]
    (dump or Prometheus) / [traces] protocol requests expose all of it
    from the live daemon — [cheffp top] is a client of [stats].
    Window and Tail are process-global; the last-created telemetry
    server owns their configuration.

    Admission: requests beyond [max_pending] queued tasks are rejected
    immediately with an error response (the client can retry); a
    [shutdown] request (or {!request_stop}) drains — no new
    connections, queued and in-flight work completes, workers join. *)

type t

type listen = Unix_socket of string | Tcp of int
(** Where to listen. [Tcp 0] binds an ephemeral loopback port — read it
    back with {!port} (the smoke tests do). [Unix_socket path] replaces
    any stale socket file at [path] and removes it on shutdown. *)

val default_max_pending : int
(** 256. *)

val max_request_bytes : int
(** 16 MiB: the longest request line the daemon reads. A longer line
    is answered with an error response that names this limit, and its
    connection is closed, so one client cannot grow the daemon's heap
    without bound. A constant, far above any program in the
    repository. *)

val create :
  ?workers:int ->
  ?max_pending:int ->
  ?telemetry:bool ->
  ?window_epochs:int ->
  ?window_epoch_s:float ->
  ?tail_slowest:int ->
  ?tail_errors:int ->
  listen ->
  t
(** Bind the socket and spawn the worker pool ([workers] defaults to
    {!Cheffp_util.Pool.Shared.create}'s default). Also ignores SIGPIPE:
    a client closing mid-response must not kill the daemon.

    [telemetry] (default [true]) starts the continuous-telemetry
    layer: the {!Cheffp_obs.Window} ticker ([window_epochs] ×
    [window_epoch_s], defaults 12 × 5 s), the {!Cheffp_obs.Tail} ring
    ([tail_slowest] / [tail_errors] capacities, defaults 16 / 64) and
    span recording for every request. [~telemetry:false] restores the
    PR-6 behavior — no ticker thread, no retention, tracing only when
    a request asks — the disabled path the telemetry bench compares
    against. *)

val run : t -> unit
(** Accept loop; returns after a shutdown request (or {!request_stop})
    has drained the server and its compile-cache entries have been
    dropped ({!Cheffp_ir.Compile_cache.drop_builtins}). Call from the
    main thread. *)

val request_stop : t -> unit
(** Ask the accept loop to begin the drain (signal-handler safe: just
    an atomic store). *)

val port : t -> int option
(** The bound TCP port ([None] for Unix sockets). *)

val address : t -> string
(** Human-readable bound address (socket path or [127.0.0.1:port]). *)

val workers : t -> int
