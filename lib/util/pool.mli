(** Bounded Domain-based worker pool for embarrassingly parallel maps.

    The tuning and benchmark hot paths evaluate many independent
    candidate configurations (compile + execute, no shared state); this
    module fans such work out across OCaml 5 domains. Each
    {!parallel_map} call spawns a bounded pool of [jobs - 1] worker
    domains (the calling domain is the remaining worker), feeds them
    items from a shared atomic cursor, and joins them before returning,
    so no domains outlive the call. When the runtime refuses a domain
    (it caps how many are alive at once), the call goes on with the
    workers it has.

    Guarantees:
    - results preserve input order;
    - [jobs <= 1] (or a list of fewer than two elements) degrades to a
      plain sequential [List.map] — no domains are spawned, so callers
      can use one code path for both modes;
    - if workers raise, the exception of the smallest-index failing item
      is re-raised in the caller once every domain has been joined, and
      remaining unstarted items are abandoned;
    - the mapped function must be safe to call from several domains at
      once (the tuning paths give every evaluation its own argument
      copies and cost counter — see DESIGN.md, "Parallel evaluation").

    Observability (DESIGN.md §9): every executed task increments the
    [pool.tasks] and per-worker-slot [pool.worker.<k>.tasks] counters of
    {!Cheffp_obs.Metrics} (slot 0 is the calling domain; the sequential
    degraded mode counts under slot 0 too, lists of fewer than two
    elements are not counted). When {!Cheffp_obs.Metrics.enabled} is
    set, each task additionally records its queue-wait (idle gap before
    claiming an item) and busy time into the [pool.queue_wait_seconds] /
    [pool.busy_seconds] histograms — timed observations are gated
    because they cost two clock reads per task. Spans opened by tasks
    nest under the span that was current when [parallel_map] was
    called. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count () - 1] (one slot is left for the
    coordinating domain), never below 1. This is the default for the
    [-j] flags of the CLI and the bench harness. *)

val parallel_map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [parallel_map ~jobs f xs] maps [f] over [xs] using at most [jobs]
    domains (default {!default_jobs}). Order-preserving; see above for
    the sequential degradation and exception semantics. *)

(** {1 Shared long-lived pool}

    The analysis server's executor (DESIGN.md §13). Where
    {!parallel_map} spawns domains per call, [Shared] keeps a fixed set
    of worker domains alive and multiplexes tasks from many concurrent
    submitters onto them — one {!Shared.submitter} per client
    connection, each with its own work queue.

    Scheduling: a worker first looks at its {e home} queues (submitter
    id mod worker count), then steals from the others. Among the
    queues it can see it always takes the task that wins on
    (priority desc, deadline asc); on ties the choice round-robins
    across submitters, so a submitter that floods its own queue with a
    1000-candidate search only delays its own tasks — a quick analyze
    arriving on another connection is served on the next free slot.
    Within one queue, tasks run by priority, then deadline, then
    submission order.

    Tasks run with an empty span stack, so spans they open are roots —
    exactly what the server's per-request tracing needs (it opens one
    ["server.request"] root per task and extracts the subtree with
    {!Cheffp_obs.Trace.take_tree}).

    Observability: [pool.shared.submitted] / [.completed] / [.steals]
    counters, the [pool.shared.queue_depth] gauge, per-worker
    [pool.shared.worker.<k>.tasks] counters, and (when metrics are
    enabled) a [pool.shared.queue_wait_seconds] histogram. *)

module Shared : sig
  type t
  (** A pool of worker domains. Create once, share freely. *)

  type submitter
  (** A work queue. One per logical client; any systhread or domain may
      submit through it concurrently. *)

  type 'a future
  (** Result handle for a submitted task. *)

  exception Cancelled
  (** Resolution of futures whose tasks were still queued when their
      submitter was removed. *)

  val create : ?workers:int -> unit -> t
  (** Spawn the worker domains ([workers] defaults to
      [max 2 (recommended_domain_count - 1)] so requests can overlap
      even on small hosts; forced to at least 1). *)

  val workers : t -> int

  val add_submitter : t -> submitter
  (** Register a new work queue. *)

  val remove_submitter : t -> submitter -> unit
  (** Unregister a queue; tasks still queued are cancelled (their
      futures resolve to [Error Cancelled]), tasks already running
      complete normally. *)

  val submit :
    t -> submitter -> ?priority:int -> ?deadline:float -> (unit -> 'a) ->
    'a future
  (** Enqueue a task ([priority] defaults to 0 — higher runs first;
      [deadline] is an absolute [Unix.gettimeofday] instant, earlier
      runs first among equal priorities, default none). Raises
      [Failure] after {!shutdown}. The task must be safe to run on any
      worker domain. *)

  val await : 'a future -> ('a, exn) result
  (** Block the calling thread until the task completes. An exception
      escaping the task resolves to [Error]; it is not re-raised into
      the worker. *)

  val queue_depth : t -> int
  (** Tasks submitted but not yet started. *)

  val in_flight : t -> int
  (** Queued plus currently running tasks. *)

  val drain : t -> unit
  (** Block until no task is queued or running. The caller is
      responsible for stopping new submissions first (the server stops
      accepting connections before draining). *)

  val shutdown : t -> unit
  (** Drain and join the worker domains: workers finish everything
      already queued, then exit. Subsequent {!submit}s raise. *)
end
