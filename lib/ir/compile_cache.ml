module Config = Cheffp_precision.Config
module Trace = Cheffp_obs.Trace
module Metrics = Cheffp_obs.Metrics

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  lookups : int;
}

(* Sharded LRU: the table is split into [shard_count] independent
   shards, each with its own lock, hash table and intrusive recency
   list. A key's shard is a hash of the key string, so concurrent
   lookups from server requests (or pool workers) only contend when
   they touch the same shard — the single global mutex this replaced
   serialized every hit in the process.

   Recency is an intrusive doubly-linked list threaded through the
   entries of each shard (head = most recent), so a hit's refresh and
   an insertion's eviction are both O(1) under that shard's lock. The
   LRU bound is distributed across the shards (sum of the per-shard
   capacities equals [max_entries] exactly), which makes eviction a
   per-shard decision: global recency is approximated, the global size
   bound is exact. *)
(* Scalar and batched artifacts share the table (and its LRU bound):
   a batch entry's key has no configuration component, which is the
   point — one compile serves every lane configuration. The variant is
   extensible so higher layers (e.g. Core.Profile's error-atom
   profiles) can reuse the same LRU machinery for their own expensive
   artifacts without a dependency inversion. *)
type artifact = ..
type artifact += Scalar of Compile.t | Batched of Batch.t

type entry = {
  key : string;
  mutable value : Builtins.t option * artifact;
  mutable prev : entry option;  (* towards the head / more recent *)
  mutable next : entry option;  (* towards the tail / least recent *)
}

type shard = {
  lock : Mutex.t;
  table : (string, entry) Hashtbl.t;
  mutable head : entry option;
  mutable tail : entry option;
  mutable cap : int;  (* this shard's slice of max_entries *)
}

let shards = 8

let shard_of_key k = Hashtbl.hash k land (shards - 1)

let default_max_entries = 512

(* [cap_of n i] distributes a global bound of [n] entries over the
   shards so the per-shard capacities sum to [n] exactly: shards below
   [n mod shards] get one extra slot. Bounds below the shard count
   leave some shards with capacity zero — lookups routed there still
   return correct results, they just rebuild every time. *)
let cap_of n i = (n / shards) + if i < n mod shards then 1 else 0

let pool =
  Array.init shards (fun i ->
      {
        lock = Mutex.create ();
        table = Hashtbl.create 64;
        head = None;
        tail = None;
        cap = cap_of default_max_entries i;
      })

let max_entries_v = Atomic.make default_max_entries

(* Lock-free reads: every statistic is an always-on atomic, so
   [stats ()] never takes a shard lock. [total_size] is maintained
   under the shard locks (one shard at a time) and mirrored into the
   size gauge. The update order is fixed — [lookups] first, the
   hit/miss verdict after — so a concurrent sampler that reads hits,
   then misses, then lookups always observes
   [hits + misses <= lookups], with equality at quiescence (the
   sharded-cache stress test asserts exactly this). *)
let hits_c = Metrics.counter "compile_cache.hits"
let misses_c = Metrics.counter "compile_cache.misses"
let evictions_c = Metrics.counter "compile_cache.evictions"
let lookups_c = Metrics.counter "compile_cache.lookups"
let size_g = Metrics.gauge "compile_cache.size"
let total_size = Atomic.make 0

let locked s f =
  Mutex.lock s.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) f

(* List surgery; callers hold the shard lock. *)
let unlink s e =
  (match e.prev with Some p -> p.next <- e.next | None -> s.head <- e.next);
  (match e.next with Some n -> n.prev <- e.prev | None -> s.tail <- e.prev);
  e.prev <- None;
  e.next <- None

let push_front s e =
  e.prev <- None;
  e.next <- s.head;
  (match s.head with Some h -> h.prev <- Some e | None -> s.tail <- Some e);
  s.head <- Some e

let touch s e =
  match e.prev with
  | None -> ()  (* already most recent *)
  | Some _ ->
      unlink s e;
      push_front s e

let sync_size () =
  Metrics.set_gauge size_g (float_of_int (Atomic.get total_size))

let evict_over_capacity s =
  while Hashtbl.length s.table > s.cap do
    match s.tail with
    | Some lru ->
        unlink s lru;
        Hashtbl.remove s.table lru.key;
        ignore (Atomic.fetch_and_add total_size (-1));
        Metrics.incr evictions_c
    | None -> assert false
  done;
  sync_size ()

let max_entries () = Atomic.get max_entries_v

(* Resize is atomic per shard: each shard's new capacity is installed
   and enforced under that shard's own lock, so concurrent [lookup_or]
   traffic on other shards proceeds untouched, and traffic on the same
   shard serializes with the eviction scan instead of racing it.
   Entries already handed out to readers stay valid — eviction only
   drops the table's reference. *)
let set_max_entries n =
  if n < 1 then invalid_arg "Compile_cache.set_max_entries: must be >= 1";
  Atomic.set max_entries_v n;
  Array.iteri
    (fun i s ->
      locked s (fun () ->
          s.cap <- cap_of n i;
          evict_over_capacity s))
    pool

(* ------------------------------------------------------------------ *)
(* Per-tenant / per-request attribution (server observability).
   The server runs each request inside [with_attribution]; the
   attribution rides domain-local storage, so concurrent requests on
   different pool workers account independently. Tenant counters land
   in the metrics registry ([compile_cache.tenant.<t>.lookups] /
   [.hits], resolved once per request, not per lookup); the optional
   request counters feed the per-request cache summary streamed back
   to the client. *)

type request_counters = { mutable r_hits : int; mutable r_misses : int }

type attribution = {
  a_lookups : Metrics.counter option;
  a_hits : Metrics.counter option;
  a_req : request_counters option;
}

let attribution_key : attribution option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let with_attribution ?tenant ?counters f =
  let a =
    {
      a_lookups =
        Option.map
          (fun t -> Metrics.counter ("compile_cache.tenant." ^ t ^ ".lookups"))
          tenant;
      a_hits =
        Option.map
          (fun t -> Metrics.counter ("compile_cache.tenant." ^ t ^ ".hits"))
          tenant;
      a_req = counters;
    }
  in
  let cell = Domain.DLS.get attribution_key in
  let saved = !cell in
  cell := Some a;
  Fun.protect ~finally:(fun () -> cell := saved) f

let attribute ~hit =
  match !(Domain.DLS.get attribution_key) with
  | None -> ()
  | Some a ->
      Option.iter Metrics.incr a.a_lookups;
      if hit then Option.iter Metrics.incr a.a_hits;
      Option.iter
        (fun r ->
          if hit then r.r_hits <- r.r_hits + 1
          else r.r_misses <- r.r_misses + 1)
        a.a_req

(* ------------------------------------------------------------------ *)

(* Structural key. The program is identified by a digest of its
   pretty-printed source (canonical: printing is deterministic), the
   configuration by its canonical string (overrides sorted by name).

   Printing + hashing a paper-sized program costs on the order of
   100us and every lookup — hits included — pays it, which dwarfs a
   microsecond kernel's whole input sweep. Programs are immutable
   once parsed, so the digest is memoized by physical identity in a
   small bounded list (lock-free; a racing insert can drop a peer's
   entry, which only costs that caller a recompute). *)
let digest_cache : (Ast.program * string) list Atomic.t = Atomic.make []

let prog_digest prog =
  let rec find = function
    | [] -> None
    | (p, d) :: rest -> if p == prog then Some d else find rest
  in
  match find (Atomic.get digest_cache) with
  | Some d -> d
  | None ->
      let d = Digest.to_hex (Digest.string (Pp.program_to_string prog)) in
      let entries = (prog, d) :: Atomic.get digest_cache in
      let entries =
        if List.length entries > 16 then List.filteri (fun i _ -> i < 16) entries
        else entries
      in
      Atomic.set digest_cache entries;
      d

let key ~prog ~func ~config ~mode ~optimize ~meter =
  Printf.sprintf "%s|%s|%s|%s|%b|%b" (prog_digest prog) func
    (Config.to_string config)
    (match mode with Config.Source -> "src" | Config.Extended -> "ext")
    optimize meter

let same_builtins a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> a == b
  | None, Some _ | Some _, None -> false

(* Generic lookup-or-build over the artifact variant; [select] projects
   the wanted artifact kind out of a cached entry (a key collision
   across kinds is impossible — non-scalar keys are kind-prefixed and
   digests are hex — but the projection keeps the type honest). *)
let lookup_or ~key:k ~label:func ~builtins ~select ~inject ~build =
  Metrics.incr lookups_c;
  let s = pool.(shard_of_key k) in
  let cached =
    locked s (fun () ->
        match Hashtbl.find_opt s.table k with
        | Some e when same_builtins (fst e.value) builtins -> (
            match select (snd e.value) with
            | Some v ->
                Metrics.incr hits_c;
                touch s e;
                Some v
            | None ->
                Metrics.incr misses_c;
                None)
        | Some _ | None ->
            Metrics.incr misses_c;
            None)
  in
  match cached with
  | Some t ->
      attribute ~hit:true;
      Trace.event "compile.cache_hit" ~attrs:[ ("func", Trace.Str func) ];
      t
  | None ->
      attribute ~hit:false;
      (* Built outside the lock: two domains racing on the same key
         duplicate the work harmlessly; last insert wins. *)
      let t = build () in
      locked s (fun () ->
          (match Hashtbl.find_opt s.table k with
          | Some e ->
              e.value <- (builtins, inject t);
              touch s e
          | None ->
              let e =
                { key = k; value = (builtins, inject t); prev = None; next = None }
              in
              Hashtbl.replace s.table k e;
              ignore (Atomic.fetch_and_add total_size 1);
              push_front s e);
          evict_over_capacity s);
      t

let compile ?builtins ?(config = Config.double) ?(mode = Config.Source)
    ?(meter = false) ?(optimize = true) ~prog ~func () =
  let k = key ~prog ~func ~config ~mode ~optimize ~meter in
  lookup_or ~key:k ~label:func ~builtins
    ~select:(function Scalar t -> Some t | _ -> None)
    ~inject:(fun t -> Scalar t)
    ~build:(fun () ->
      Trace.with_span "compile" (fun () ->
          if Trace.enabled () then begin
            Trace.add_attr "func" (Trace.Str func);
            Trace.add_attr "config" (Trace.Str (Config.to_string config));
            Trace.add_attr "optimize" (Trace.Bool optimize);
            Trace.add_attr "meter" (Trace.Bool meter)
          end;
          Compile.compile ?builtins ~config ~mode ~meter ~optimize ~prog
            ~func ()))

(* A batch compilation is configuration- and input-generic, so its key
   drops the config component entirely: one cached artifact serves every
   lane sweep of a (program, func, mode), on both lane axes. *)
let batch_key ~prog ~func ~mode ~optimize =
  Printf.sprintf "batch|%s|%s|%s|%b" (prog_digest prog) func
    (match mode with Config.Source -> "src" | Config.Extended -> "ext")
    optimize

let compile_batch ?builtins ?(mode = Config.Source) ?(optimize = true) ~prog
    ~func () =
  let k = batch_key ~prog ~func ~mode ~optimize in
  lookup_or ~key:k ~label:func ~builtins
    ~select:(function Batched t -> Some t | _ -> None)
    ~inject:(fun t -> Batched t)
    ~build:(fun () ->
      Trace.with_span "compile" (fun () ->
          if Trace.enabled () then begin
            Trace.add_attr "func" (Trace.Str func);
            Trace.add_attr "batch" (Trace.Bool true);
            Trace.add_attr "optimize" (Trace.Bool optimize)
          end;
          Batch.compile ?builtins ~mode ~optimize ~prog ~func ()))

(* Lock-free: every field is an atomic read. The order — hits, then
   misses, then lookups — pairs with the update order in [lookup_or]
   (lookups first, verdict after) so [hits + misses <= lookups] holds
   for every concurrent sample, with equality once in-flight lookups
   have drained. *)
let stats () =
  let hits = Metrics.counter_value hits_c in
  let misses = Metrics.counter_value misses_c in
  let evictions = Metrics.counter_value evictions_c in
  let size = Atomic.get total_size in
  let lookups = Metrics.counter_value lookups_c in
  { hits; misses; evictions; size; lookups }

(* Per-shard occupancy for the server's stats endpoint / [cheffp top]:
   [(size, cap)] per shard. Each shard's lock is taken one at a time,
   so the view is per-shard-exact but not a global atomic cut — fine
   for a dashboard. *)
let shard_sizes () =
  Array.map (fun s -> locked s (fun () -> (Hashtbl.length s.table, s.cap))) pool

(* Unlinks every entry whose registry is [b] (physical identity), shard
   by shard. Dropped entries are not evictions: nothing pushed them
   out, their owner retired them. *)
let drop_builtins b =
  Array.iter
    (fun s ->
      locked s (fun () ->
          let rec walk = function
            | None -> ()
            | Some e ->
                let next = e.next in
                (match fst e.value with
                | Some b' when b' == b ->
                    unlink s e;
                    Hashtbl.remove s.table e.key;
                    ignore (Atomic.fetch_and_add total_size (-1))
                | Some _ | None -> ());
                walk next
          in
          walk s.head))
    pool;
  sync_size ()

let reset_stats () =
  Metrics.set_counter hits_c 0;
  Metrics.set_counter misses_c 0;
  Metrics.set_counter evictions_c 0;
  Metrics.set_counter lookups_c 0

let clear () =
  Array.iter
    (fun s ->
      locked s (fun () ->
          let n = Hashtbl.length s.table in
          Hashtbl.reset s.table;
          s.head <- None;
          s.tail <- None;
          ignore (Atomic.fetch_and_add total_size (-n))))
    pool;
  reset_stats ();
  sync_size ()
