(** Per-request lifecycle accounting for the analysis server
    (DESIGN.md §13): the [server.requests] / [server.errors] /
    [server.rejected] counters, the [server.active] and
    [server.queue_depth] gauges, and the [server.queue_wait_seconds] /
    [server.elapsed_seconds] histograms of {!Cheffp_obs.Metrics}.
    All updates are domain-safe; the server calls these from pool
    workers and connection threads concurrently. *)

val started : unit -> unit
(** A request began executing on a worker. *)

val finished : ok:bool -> queue_wait:float -> elapsed:float -> unit
(** The request completed ([ok = false] counts an error); times are in
    seconds and feed the histograms. *)

val rejected : unit -> unit
(** A request was refused at admission (queue full). *)

val set_queue_depth : int -> unit
(** Mirror of the executor's queue depth, updated at submit and
    completion. *)
