(** Memoized front end to {!Compile.compile} — a sharded, concurrent
    LRU shared by every request in the process.

    A mixed-precision tuning run compiles the same function dozens of
    times — once per candidate configuration, and repeatedly for the
    configurations it revisits (the all-double reference, the finally
    chosen set, every sweep re-run). Each of those compilations repeats
    the same inline + optimize + closure-build work. This cache keys
    compilations structurally on
    [(program digest, func, Config.t, rounding mode, optimize, meter)]
    and returns the previously built {!Compile.t} on a hit. Lane
    artifacts ({!compile_batch}) drop the configuration from the key,
    and one entry serves both lane axes. The analysis server
    ([cheffp serve]) multiplies the effect: requests that analyze the
    same program amortize each other's compilations.

    {b Sharding} (DESIGN.md §13): the table is split into {!shards}
    independent shards — per-shard locks, hash tables and intrusive
    recency lists — keyed by a hash of the entry key, so concurrent
    lookups from different requests only contend when they collide on
    a shard. Statistics are always-on atomics and {!stats} reads them
    {e without taking any lock}. The LRU bound is distributed across
    the shards (the per-shard capacities sum to {!max_entries}
    exactly), making eviction a per-shard decision: global recency is
    approximate, the global size bound [size <= max_entries] is exact.
    Bounds below the shard count leave some shards with capacity zero;
    keys routed there still return correct results, they just rebuild
    on every lookup.

    {b Counter policy} (the choice DESIGN.md documents): cached entries
    are {e counter-free}. {!Compile.compile} never captures a cost
    counter here — callers that meter pass [~meter:true] (so metering
    code is emitted) and thread their own counter through each
    {!Compile.run} call. Because a compiled value is immutable and every
    run builds a private environment, one cached instance is safe to
    share across runs and across domains simultaneously.

    {b Builtins}: registries are mutable and not structurally
    comparable, so an entry also remembers the registry it was compiled
    against and only hits when the caller passes the {e same} registry
    (physical equality; [None] matches [None]). Mutating a registry
    after compiling through the cache is not supported — call {!clear}
    first.

    {b Bounding}: the table holds at most {!max_entries} compilations
    (default {!default_max_entries} — generous next to the hundreds of
    configurations a tuning run visits) and evicts the least recently
    used entry of the overfull shard beyond that, so a long-lived
    server cannot grow the cache without bound. {!set_max_entries}
    resizes {e atomically per shard}: each shard's new capacity is
    installed and enforced under that shard's own lock while lookups
    on other shards proceed. {!clear} empties the table explicitly,
    and {!drop_builtins} drops one registry's entries.

    {b Observability} (DESIGN.md §9/§13): lookups, hits, misses and
    evictions are registry counters ([compile_cache.lookups] /
    [.hits] / [.misses] / [.evictions]), the current size is the
    [compile_cache.size] gauge — {!stats} reads the same numbers, and
    the update order guarantees [hits + misses <= lookups] for every
    concurrent sample, with equality at quiescence. With tracing
    enabled, each actual compilation records a ["compile"] span and
    each hit a ["compile.cache_hit"] event. Inside {!with_attribution},
    lookups are additionally charged to a tenant
    ([compile_cache.tenant.<t>.lookups] / [.hits] — the server's
    hit-rate-by-tenant metric) and to per-request counters. *)

type artifact = ..
(** What the table stores. Extensible so layers above [ir] can memoize
    their own expensive derived artifacts (e.g. [Core.Profile]'s
    error-atom profiles, the server's parsed programs and analyses)
    through the same sharded LRU, locks and
    statistics — add a constructor, pick a kind-prefixed key, call
    {!lookup_or}. *)

type artifact += Scalar of Compile.t | Batched of Batch.t

val shards : int
(** Number of independent shards (8). A key's shard is a hash of the
    key string; exposed so stress tests can reason about per-shard
    capacities. *)

val shard_of_key : string -> int
(** The shard index a key routes to (introspection for tests). *)

val lookup_or :
  key:string ->
  label:string ->
  builtins:Builtins.t option ->
  select:(artifact -> 'a option) ->
  inject:('a -> artifact) ->
  build:(unit -> 'a) ->
  'a
(** Generic lookup-or-build: returns the cached value under [key] when
    present (with the same [builtins] registry, physical equality, and
    a [select] that accepts the stored artifact), otherwise runs
    [build] outside the shard lock and inserts [inject]'s artifact.
    Hits, misses and LRU eviction are accounted exactly like
    {!compile}'s; [label] names the entry in trace events. Keys must be
    kind-prefixed by the caller so distinct artifact kinds cannot
    collide. Two domains racing on the same key build twice, harmlessly
    (last insert wins); entries already returned to readers survive any
    concurrent eviction or resize. *)

val compile :
  ?builtins:Builtins.t ->
  ?config:Cheffp_precision.Config.t ->
  ?mode:Cheffp_precision.Config.rounding_mode ->
  ?meter:bool ->
  ?optimize:bool ->
  prog:Ast.program ->
  func:string ->
  unit ->
  Compile.t
(** Same defaults as {!Compile.compile} ([meter] defaults to [false]).
    Returns a cached instance when an equivalent compilation was done
    before, compiling and inserting otherwise. *)

val compile_batch :
  ?builtins:Builtins.t ->
  ?mode:Cheffp_precision.Config.rounding_mode ->
  ?optimize:bool ->
  prog:Ast.program ->
  func:string ->
  unit ->
  Batch.t
(** Memoized {!Batch.compile}. Batch artifacts are configuration- and
    input-generic and carry no cost, so the key is
    [(program digest, func, mode, optimize)], with no configuration and
    no meter — one cached compile serves every lane sweep on both axes
    ({!Batch.run} and {!Batch.run_inputs}), which is what lets a whole
    tuning search, sampled or not, pay a single compilation per
    (program, mode). Entries share the scalar table, its LRU bound and
    its statistics. *)

(** {1 Per-tenant / per-request attribution} *)

type request_counters = { mutable r_hits : int; mutable r_misses : int }
(** Mutable per-request tally, written from the single domain running
    the request (domain-local storage routes the attribution). *)

val with_attribution :
  ?tenant:string -> ?counters:request_counters -> (unit -> 'a) -> 'a
(** [with_attribution ~tenant ~counters f] runs [f] with every cache
    lookup it performs {e on this domain} additionally charged to
    [compile_cache.tenant.<tenant>.lookups] / [.hits] (resolved once
    per call, not per lookup) and tallied into [counters]. Nests (the
    previous attribution is restored on exit); concurrent requests on
    different pool workers account independently. *)

(** {1 Statistics and bounds} *)

type stats = {
  hits : int;  (** lookups served from the table *)
  misses : int;  (** lookups that had to compile *)
  evictions : int;  (** entries dropped by the LRU bound *)
  size : int;  (** entries currently cached, summed over shards *)
  lookups : int;
      (** total lookups; [hits + misses <= lookups] at every concurrent
          sample, with equality once in-flight lookups drain *)
}

val stats : unit -> stats
(** Lock-free: atomic reads only, safe to sample from any domain while
    lookups are in flight. *)

val shard_sizes : unit -> (int * int) array
(** Per-shard [(entries, capacity)] — the occupancy view the server's
    [stats] endpoint and [cheffp top] render. Takes each shard lock in
    turn: exact per shard, not a global atomic cut. *)

val default_max_entries : int
(** 512. *)

val max_entries : unit -> int

val set_max_entries : int -> unit
(** Change the bound (>= 1; [Invalid_argument] otherwise), evicting
    least-recently-used entries immediately if a shard is over its
    slice. Atomic per shard: lookups on other shards are never blocked,
    lookups on the resizing shard serialize with its eviction scan. *)

val reset_stats : unit -> unit
(** Zero [hits], [misses], [evictions] and [lookups] without dropping
    cached entries. *)

val drop_builtins : Builtins.t -> unit
(** [drop_builtins b] drops every entry compiled against the registry
    [b] (physical equality, as for hits). Entries of other registries,
    and of none, stay; the
    statistics are untouched (a drop is not an eviction). The server
    calls it once its requests have drained, so a stopped daemon's
    entries do not occupy the shared bound until they are evicted.
    Shard by shard, like {!clear}: meant for the point where no
    lookup against [b] is in flight. *)

val clear : unit -> unit
(** Drop every entry and zero the statistics (shard by shard; not
    atomic as a whole — meant for quiescent points). *)
