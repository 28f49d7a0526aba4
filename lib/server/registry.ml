module Metrics = Cheffp_obs.Metrics

(* Request lifecycle accounting (DESIGN.md §13). Counters are always
   on; the timing histograms are recorded from the timestamps the
   server takes anyway (each response reports queue-wait and service
   time), so nothing here adds clock reads. *)

let requests_c = Metrics.counter "server.requests"
let errors_c = Metrics.counter "server.errors"
let rejected_c = Metrics.counter "server.rejected"
let active_g = Metrics.gauge "server.active"
let depth_g = Metrics.gauge "server.queue_depth"

(* Sub-millisecond buckets: the server's measured request latencies sit
   between 100 µs and 10 ms, where the decade steps of
   [Metrics.default_buckets] would collapse every windowed quantile
   onto a bucket edge (DESIGN.md §14). *)
let queue_wait_h =
  Metrics.histogram ~buckets:Metrics.latency_buckets "server.queue_wait_seconds"

let elapsed_h =
  Metrics.histogram ~buckets:Metrics.latency_buckets "server.elapsed_seconds"

let active = Atomic.make 0

let started () =
  Metrics.incr requests_c;
  Metrics.set_gauge active_g
    (float_of_int (1 + Atomic.fetch_and_add active 1))

let finished ~ok ~queue_wait ~elapsed =
  Metrics.set_gauge active_g
    (float_of_int (Atomic.fetch_and_add active (-1) - 1));
  if not ok then Metrics.incr errors_c;
  Metrics.observe queue_wait_h queue_wait;
  Metrics.observe elapsed_h elapsed

let rejected () = Metrics.incr rejected_c

let set_queue_depth n = Metrics.set_gauge depth_g (float_of_int n)
