(* lib/obs: span collection, metrics registry, export formats, and the
   instrumentation contracts the rest of the tree relies on — the
   disabled path is inert and allocation-free, the compile cache LRU
   evicts and counts, and the parallel ADAPT walk is bit-identical. *)

module Trace = Cheffp_obs.Trace
module Metrics = Cheffp_obs.Metrics
module Export = Cheffp_obs.Export
module Pool = Cheffp_util.Pool
module Compile_cache = Cheffp_ir.Compile_cache
module Config = Cheffp_precision.Config
module Fp = Cheffp_precision.Fp
module Adapt = Cheffp_adapt.Adapt

(* Every test leaves the global collectors the way it found them:
   disabled and empty. *)
let with_tracing f =
  Trace.reset ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.reset ())
    f

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else String.sub haystack i nn = needle || go (i + 1)
  in
  go 0

let find name spans =
  match List.find_opt (fun s -> s.Trace.name = name) spans with
  | Some s -> s
  | None -> Alcotest.failf "span %S not recorded" name

(* ------------------------------------------------------------------ *)
(* Span collection                                                    *)

let test_nesting () =
  let spans =
    with_tracing (fun () ->
        Trace.with_span "outer" (fun () ->
            Trace.with_span "first" (fun () -> ());
            Trace.with_span "second" (fun () ->
                Trace.with_span "inner" (fun () -> ())));
        Trace.spans ())
  in
  Alcotest.(check int) "four spans" 4 (List.length spans);
  let outer = find "outer" spans
  and first = find "first" spans
  and second = find "second" spans
  and inner = find "inner" spans in
  Alcotest.(check int) "outer is a root" (-1) outer.Trace.parent;
  Alcotest.(check int) "first under outer" outer.Trace.id first.Trace.parent;
  Alcotest.(check int) "second under outer" outer.Trace.id second.Trace.parent;
  Alcotest.(check int) "inner under second" second.Trace.id inner.Trace.parent;
  (* Ids are assigned at span start, so they order by start time. *)
  Alcotest.(check bool) "first starts before second" true
    (first.Trace.id < second.Trace.id);
  (* Parents cover their children on the monotonized clock. *)
  List.iter
    (fun (p, c) ->
      Alcotest.(check bool) "child starts within parent" true
        (p.Trace.start_ns <= c.Trace.start_ns);
      Alcotest.(check bool) "child ends within parent" true
        (c.Trace.end_ns <= p.Trace.end_ns))
    [ (outer, first); (outer, second); (second, inner) ];
  (* Completion order: children land before the span that encloses them. *)
  let order = List.map (fun s -> s.Trace.name) spans in
  Alcotest.(check (list string))
    "completion order" [ "first"; "inner"; "second"; "outer" ] order

let test_exception () =
  let spans =
    with_tracing (fun () ->
        (try Trace.with_span "boom" (fun () -> failwith "no") with
        | Failure _ -> ());
        Trace.spans ())
  in
  let s = find "boom" spans in
  Alcotest.(check bool) "raised attr set" true
    (List.assoc_opt "raised" s.Trace.attrs = Some (Trace.Bool true))

let test_attrs_events () =
  let spans =
    with_tracing (fun () ->
        Trace.with_span "work" (fun () ->
            Trace.add_attr "k" (Trace.Str "v");
            Trace.add_attr "n" (Trace.Int 7);
            Trace.event ~attrs:[ ("hit", Trace.Bool true) ] "tick");
        Trace.spans ())
  in
  let work = find "work" spans and tick = find "tick" spans in
  Alcotest.(check bool) "str attr" true
    (List.assoc_opt "k" work.Trace.attrs = Some (Trace.Str "v"));
  Alcotest.(check bool) "int attr" true
    (List.assoc_opt "n" work.Trace.attrs = Some (Trace.Int 7));
  Alcotest.(check bool) "event kind" true (tick.Trace.kind = Trace.Event);
  Alcotest.(check int) "event parented" work.Trace.id tick.Trace.parent;
  Alcotest.(check bool) "event is instant" true
    (tick.Trace.start_ns = tick.Trace.end_ns)

let test_pool_parenting () =
  let spans =
    with_tracing (fun () ->
        Trace.with_span "batch" (fun () ->
            ignore
              (Pool.parallel_map ~jobs:3
                 (fun i -> Trace.with_span "task" (fun () -> i * i))
                 [ 1; 2; 3; 4; 5 ]));
        Trace.spans ())
  in
  let batch = find "batch" spans in
  let tasks = List.filter (fun s -> s.Trace.name = "task") spans in
  Alcotest.(check int) "all tasks recorded" 5 (List.length tasks);
  List.iter
    (fun t ->
      Alcotest.(check int) "task parented under batch (across domains)"
        batch.Trace.id t.Trace.parent)
    tasks

let test_optimize_passes () =
  (* [0.0 / 0.0] folds to a NaN literal. The fixpoint must still see the
     second pass change nothing and stop there; the pass count lands on
     the enclosing span. *)
  let prog =
    Cheffp_ir.Parser.parse_program
      {|func f(x: f64): f64 {
          var y: f64 = 0.0 / 0.0;
          return x * y;
        }|}
  in
  let passes name spans =
    match List.assoc_opt "passes" (find name spans).Trace.attrs with
    | Some (Trace.Int n) -> n
    | _ -> Alcotest.failf "span %S has no passes attribute" name
  in
  let spans =
    with_tracing (fun () ->
        ignore (Cheffp_core.Estimate.estimate_error ~prog ~func:"f" ());
        Trace.spans ())
  in
  Alcotest.(check int) "estimate.optimize passes" 2
    (passes "estimate.optimize" spans);
  let spans =
    with_tracing (fun () ->
        Compile_cache.clear ();
        ignore (Compile_cache.compile ~prog ~func:"f" ());
        Trace.spans ())
  in
  Alcotest.(check int) "compile passes" 2 (passes "compile" spans)

(* ------------------------------------------------------------------ *)
(* Disabled path                                                      *)

let test_disabled_inert () =
  Trace.reset ();
  Alcotest.(check bool) "disabled by default" false (Trace.enabled ());
  let r = Trace.with_span "ghost" (fun () -> 41 + 1) in
  Alcotest.(check int) "value passes through" 42 r;
  Trace.add_attr "k" (Trace.Str "v");
  Trace.event "ghost-event";
  Alcotest.(check int) "no current span" (-1) (Trace.current ());
  Alcotest.(check int) "nothing recorded" 0 (List.length (Trace.spans ()))

let noop () = ()

let test_disabled_no_alloc () =
  Trace.reset ();
  (* Warm up so the first-call effects (closure promotion etc.) are out
     of the measured window. *)
  for _ = 1 to 1_000 do
    Trace.with_span "x" noop
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 100_000 do
    Trace.with_span "x" noop
  done;
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.)) "no minor allocation over 100k calls" 0. dw

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)

let test_metrics_basic () =
  Metrics.reset ();
  let c = Metrics.counter "test.c" in
  Metrics.incr c;
  Metrics.add c 4;
  Alcotest.(check int) "counter" 5 (Metrics.counter_value c);
  let g = Metrics.gauge "test.g" in
  Metrics.set_gauge g 2.5;
  Alcotest.(check (float 0.)) "gauge" 2.5 (Metrics.gauge_value g);
  let h = Metrics.histogram ~buckets:[| 1.; 10. |] "test.h" in
  Metrics.observe h 0.5;
  Metrics.observe h 5.;
  Metrics.observe h 50.;
  Alcotest.(check int) "histogram count" 3 (Metrics.histogram_count h);
  Alcotest.(check (float 1e-9)) "histogram sum" 55.5
    (Metrics.histogram_sum h);
  (* Same name returns the same metric; same name as a different kind
     is a registration error. *)
  Metrics.incr (Metrics.counter "test.c");
  Alcotest.(check int) "get-or-create shares state" 6
    (Metrics.counter_value c);
  Alcotest.(check bool) "kind mismatch rejected" true
    (try
       ignore (Metrics.gauge "test.c");
       false
     with Invalid_argument _ -> true);
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes in place" 0 (Metrics.counter_value c)

let test_metrics_concurrent () =
  Metrics.reset ();
  let c = Metrics.counter "test.concurrent" in
  let h = Metrics.histogram "test.concurrent_h" in
  ignore
    (Pool.parallel_map ~jobs:4
       (fun _ ->
         for _ = 1 to 1_000 do
           Metrics.incr c;
           Metrics.observe h 1e-3
         done)
       [ (); (); (); (); (); (); (); () ]);
  Alcotest.(check int) "8k increments survive 4 domains" 8_000
    (Metrics.counter_value c);
  Alcotest.(check int) "8k observations survive 4 domains" 8_000
    (Metrics.histogram_count h);
  Alcotest.(check (float 1e-9)) "histogram sum exact" 8.
    (Metrics.histogram_sum h);
  Metrics.reset ()

let test_pool_task_metrics () =
  Metrics.reset ();
  ignore (Pool.parallel_map ~jobs:3 (fun i -> i + 1) [ 1; 2; 3; 4; 5; 6 ]);
  let snap = Metrics.snapshot () in
  let counter name =
    match List.assoc_opt name snap with
    | Some (Metrics.Counter n) -> n
    | _ -> Alcotest.failf "counter %S missing" name
  in
  Alcotest.(check int) "pool.tasks counts the batch" 6 (counter "pool.tasks");
  let per_worker =
    List.filter_map
      (fun (name, v) ->
        match (String.split_on_char '.' name, v) with
        | [ "pool"; "worker"; _; "tasks" ], Metrics.Counter n -> Some n
        | _ -> None)
      snap
  in
  Alcotest.(check int) "per-worker counts sum to the batch" 6
    (List.fold_left ( + ) 0 per_worker);
  (* Which slot claims how much is scheduling-dependent (on a single
     CPU the caller may drain the whole batch), but every requested
     slot must have registered its counter. Registration outlives
     Metrics.reset, so earlier tests may have left more slots. *)
  Alcotest.(check bool) "a counter per requested worker slot" true
    (List.length per_worker >= 3);
  Metrics.reset ()

(* ------------------------------------------------------------------ *)
(* Export                                                             *)

(* Minimal structural JSON check: balanced braces/brackets outside
   strings, no raw control characters, one object per line. The full
   parse is done by the @obs-smoke validator (validate_trace.ml). *)
let json_object_shaped line =
  let depth = ref 0 and in_str = ref false and esc = ref false and ok = ref true in
  String.iter
    (fun ch ->
      if !esc then esc := false
      else if !in_str then begin
        if ch = '\\' then esc := true
        else if ch = '"' then in_str := false
        else if Char.code ch < 0x20 then ok := false
      end
      else
        match ch with
        | '"' -> in_str := true
        | '{' | '[' -> incr depth
        | '}' | ']' ->
            decr depth;
            if !depth < 0 then ok := false
        | _ -> ())
    line;
  !ok && !depth = 0 && (not !in_str)
  && String.length line > 1
  && line.[0] = '{'
  && line.[String.length line - 1] = '}'

let test_jsonl () =
  let spans =
    with_tracing (fun () ->
        Trace.with_span "a" (fun () ->
            Trace.add_attr "s" (Trace.Str "quote \" backslash \\ newline \n");
            Trace.add_attr "f" (Trace.Float infinity);
            Trace.with_span "b" (fun () -> Trace.event "e"));
        Trace.spans ())
  in
  let path = Filename.temp_file "cheffp_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Export.write_jsonl ~path spans;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      Alcotest.(check int) "one line per span" (List.length spans)
        (List.length lines);
      List.iter
        (fun l ->
          Alcotest.(check bool) "line is a balanced JSON object" true
            (json_object_shaped l))
        lines;
      (* Lines come out in id (start) order. *)
      Alcotest.(check bool) "root first" true
        (contains (List.hd lines) "\"name\":\"a\""))

let test_metrics_dump () =
  Metrics.reset ();
  let c = Metrics.counter "dump.c" in
  Metrics.add c 3;
  let h = Metrics.histogram ~buckets:[| 1. |] "dump.h" in
  Metrics.observe h 0.5;
  let dump = Export.metrics_dump () in
  let has needle = contains dump needle in
  Alcotest.(check bool) "counter line" true (has "dump.c 3");
  Alcotest.(check bool) "histogram count line" true (has "dump.h.count 1");
  Alcotest.(check bool) "histogram bucket line" true (has "dump.h.le.1 1");
  Alcotest.(check bool) "histogram inf line" true (has "dump.h.le.inf 1");
  Metrics.reset ()

(* ------------------------------------------------------------------ *)
(* Compile cache LRU                                                  *)

(* The cache is sharded, so the bound applies per shard (the per-shard
   capacities sum to max_entries). Deterministic LRU expectations need
   keys that land on one shard; [same_shard_keys] brute-forces them via
   the exposed [shard_of_key]. Recency within one shard is exact. *)
type Compile_cache.artifact += Blob of int

let test_lru_eviction () =
  let same_shard_keys n =
    let target = Compile_cache.shard_of_key "lru|seed" in
    let rec go i acc =
      if List.length acc >= n then List.rev acc
      else
        let k = Printf.sprintf "lru|%d" i in
        go (i + 1)
          (if Compile_cache.shard_of_key k = target then k :: acc else acc)
    in
    go 0 []
  in
  let built = ref 0 in
  let get k =
    Compile_cache.lookup_or ~key:k ~label:"lru" ~builtins:None
      ~select:(function Blob v -> Some v | _ -> None)
      ~inject:(fun v -> Blob v)
      ~build:(fun () ->
        incr built;
        !built)
  in
  Compile_cache.clear ();
  Fun.protect
    ~finally:(fun () ->
      Compile_cache.set_max_entries Compile_cache.default_max_entries;
      Compile_cache.clear ())
    (fun () ->
      match same_shard_keys 3 with
      | [ ka; kb; kc ] ->
          (* every shard gets capacity 2 *)
          Compile_cache.set_max_entries (2 * Compile_cache.shards);
          ignore (get ka);
          ignore (get kb);
          ignore (get kc);
          (* shard capacity 2: [ka] was least recently used, gone *)
          let s = Compile_cache.stats () in
          Alcotest.(check int) "three misses" 3 s.Compile_cache.misses;
          Alcotest.(check int) "one eviction" 1 s.Compile_cache.evictions;
          Alcotest.(check int) "bounded size" 2 s.Compile_cache.size;
          ignore (get kb);
          let s = Compile_cache.stats () in
          Alcotest.(check int) "recent entry still hits" 1 s.Compile_cache.hits;
          ignore (get ka);
          let s = Compile_cache.stats () in
          Alcotest.(check int) "evicted entry rebuilds" 4 s.Compile_cache.misses;
          Alcotest.(check int) "lookups reconcile" (s.Compile_cache.hits + s.Compile_cache.misses)
            s.Compile_cache.lookups;
          (* Touching [kb] made [kc] the LRU, then inserting [ka] evicted
             it; shrinking every shard to capacity 1 keeps only the most
             recent entry, [ka]. *)
          Compile_cache.set_max_entries Compile_cache.shards;
          let s = Compile_cache.stats () in
          Alcotest.(check int) "shrinking evicts down to the bound" 1
            s.Compile_cache.size;
          let before = (Compile_cache.stats ()).Compile_cache.hits in
          ignore (get ka);
          let s = Compile_cache.stats () in
          Alcotest.(check int) "survivor is the most recent" (before + 1)
            s.Compile_cache.hits;
          Alcotest.(check bool) "set_max_entries validates" true
            (try
               Compile_cache.set_max_entries 0;
               false
             with Invalid_argument _ -> true)
      | _ -> Alcotest.fail "could not find same-shard keys")

(* ------------------------------------------------------------------ *)
(* Compile cache under concurrency                                    *)

(* 4 domains hammer [lookup_or] over a key space larger than the bound,
   so hits, misses and evictions all happen continuously, while the
   main domain samples the lock-free [stats]. Invariants:
   - no torn entries: a lookup under key k only ever returns k's value
     (the per-key value is derived from the key, so sharing a slot with
     another key would be visible immediately);
   - hits + misses <= lookups at every concurrent sample, with
     equality after the domains join;
   - size <= max_entries at every sample and at the end. *)
let stress_value i = 10_000 + (i * 7)

let stress_get i =
  let k = Printf.sprintf "stress|%d" i in
  Compile_cache.lookup_or ~key:k ~label:"stress" ~builtins:None
    ~select:(function Blob v -> Some v | _ -> None)
    ~inject:(fun v -> Blob v)
    ~build:(fun () -> stress_value i)

let test_cache_concurrent_stress () =
  let n_domains = 4 and iters = 4_000 and keyspace = 96 in
  let bound = 4 * Compile_cache.shards in
  Compile_cache.clear ();
  Fun.protect
    ~finally:(fun () ->
      Compile_cache.set_max_entries Compile_cache.default_max_entries;
      Compile_cache.clear ())
    (fun () ->
      Compile_cache.set_max_entries bound;
      let torn = Atomic.make 0 in
      let running = Atomic.make n_domains in
      let domains =
        List.init n_domains (fun d ->
            Domain.spawn (fun () ->
                (* Cheap deterministic per-domain key sequence, skewed
                   so a hot subset re-hits while the cold tail churns
                   evictions. *)
                let state = ref (d + 1) in
                for _ = 1 to iters do
                  state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
                  let hot = !state land 3 <> 0 in
                  let i =
                    if hot then !state mod (bound / 2) else !state mod keyspace
                  in
                  if stress_get i <> stress_value i then Atomic.incr torn
                done;
                Atomic.decr running))
      in
      (* Sample the lock-free stats while the traffic is live. *)
      while Atomic.get running > 0 do
        let s = Compile_cache.stats () in
        if s.Compile_cache.size > bound then
          Alcotest.failf "size %d exceeds bound %d mid-flight"
            s.Compile_cache.size bound;
        if s.Compile_cache.hits + s.Compile_cache.misses > s.Compile_cache.lookups
        then
          Alcotest.failf "hits %d + misses %d > lookups %d mid-flight"
            s.Compile_cache.hits s.Compile_cache.misses s.Compile_cache.lookups;
        Domain.cpu_relax ()
      done;
      List.iter Domain.join domains;
      Alcotest.(check int) "no torn entries" 0 (Atomic.get torn);
      let s = Compile_cache.stats () in
      Alcotest.(check int) "every lookup accounted"
        (n_domains * iters) s.Compile_cache.lookups;
      Alcotest.(check int) "hits + misses = lookups at quiescence"
        s.Compile_cache.lookups
        (s.Compile_cache.hits + s.Compile_cache.misses);
      Alcotest.(check bool) "evictions happened" true
        (s.Compile_cache.evictions > 0);
      Alcotest.(check bool) "hits happened" true (s.Compile_cache.hits > 0);
      Alcotest.(check bool) "bounded at rest" true
        (s.Compile_cache.size <= bound))

(* Regression for the resize satellite: [set_max_entries] must stay
   atomic per shard while lookups are in flight — entries already
   returned to readers stay valid, the bound is enforced, and the
   statistics reconcile exactly once the traffic drains. *)
let test_cache_resize_under_traffic () =
  let n_domains = 3 and iters = 3_000 and keyspace = 64 in
  let bounds =
    [| Compile_cache.shards; 4 * Compile_cache.shards; 2 * Compile_cache.shards;
       8 * Compile_cache.shards |]
  in
  let largest = Array.fold_left max 1 bounds in
  Compile_cache.clear ();
  Fun.protect
    ~finally:(fun () ->
      Compile_cache.set_max_entries Compile_cache.default_max_entries;
      Compile_cache.clear ())
    (fun () ->
      Compile_cache.set_max_entries largest;
      let torn = Atomic.make 0 in
      let running = Atomic.make n_domains in
      let domains =
        List.init n_domains (fun d ->
            Domain.spawn (fun () ->
                let state = ref (d + 17) in
                for _ = 1 to iters do
                  state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
                  let i = !state mod keyspace in
                  if stress_get i <> stress_value i then Atomic.incr torn
                done;
                Atomic.decr running))
      in
      (* Resize continuously under the concurrent traffic. *)
      let flips = ref 0 in
      while Atomic.get running > 0 do
        Compile_cache.set_max_entries bounds.(!flips mod Array.length bounds);
        incr flips;
        let s = Compile_cache.stats () in
        if s.Compile_cache.size > largest then
          Alcotest.failf "size %d exceeds largest bound %d during resize"
            s.Compile_cache.size largest
      done;
      List.iter Domain.join domains;
      Alcotest.(check int) "no torn entries across resizes" 0 (Atomic.get torn);
      let s = Compile_cache.stats () in
      Alcotest.(check int) "stats reconcile after resize storm"
        s.Compile_cache.lookups
        (s.Compile_cache.hits + s.Compile_cache.misses);
      (* A final shrink enforces the small bound exactly. *)
      Compile_cache.set_max_entries Compile_cache.shards;
      let s = Compile_cache.stats () in
      Alcotest.(check bool) "final shrink enforced" true
        (s.Compile_cache.size <= Compile_cache.shards))

(* Histogram updates must be domain-safe: concurrent observers may not
   lose bucket increments, and the derived count must equal the number
   of observe calls exactly once the observers join. Values are exact
   binary fractions so the CAS-accumulated sum is order-independent. *)
let test_histogram_concurrent () =
  Metrics.reset ();
  let h = Metrics.histogram ~buckets:[| 1.; 2. |] "stress.h" in
  let c = Metrics.counter "stress.c" in
  let n_domains = 4 and per_value = 2_000 in
  let values = [| 0.5; 1.5; 5.0 |] in
  let domains =
    List.init n_domains (fun _ ->
        Domain.spawn (fun () ->
            for i = 1 to per_value * Array.length values do
              Metrics.observe h values.(i mod Array.length values);
              Metrics.incr c
            done))
  in
  List.iter Domain.join domains;
  let total = n_domains * per_value * Array.length values in
  Alcotest.(check int) "counter total" total (Metrics.counter_value c);
  Alcotest.(check int) "histogram count = observe calls" total
    (Metrics.histogram_count h);
  Alcotest.(check (float 0.)) "histogram sum exact"
    (float_of_int (n_domains * per_value) *. (0.5 +. 1.5 +. 5.0))
    (Metrics.histogram_sum h);
  (match List.assoc_opt "stress.h" (Metrics.snapshot ()) with
  | Some (Metrics.Histogram { counts; _ }) ->
      Alcotest.(check (array int))
        "per-bucket counts"
        [| n_domains * per_value; n_domains * per_value; n_domains * per_value |]
        counts
  | _ -> Alcotest.fail "stress.h missing from snapshot");
  Metrics.reset ()

(* ------------------------------------------------------------------ *)
(* Parallel ADAPT walk                                                *)

(* Big enough that the tape spans several chunks, so jobs > 1
   actually fans out (one Tape.chunk_nodes chunk per pool task). *)
let adapt_run tape =
  let module N = (val Adapt.num tape) in
  let open N in
  let x = input "x" 1.2 in
  let y = input "y" 0.7 in
  let rec loop acc i =
    if Stdlib.(i > 4_000) then acc
    else
      let t = register "t" (sin (x * of_int i) / (y + of_int i)) in
      loop (register "acc" (acc + (t * t))) Stdlib.(i + 1)
  in
  sqrt (loop (of_float 0.) 1)

let test_adapt_parallel_identical () =
  let analyze jobs =
    match Adapt.analyze ~jobs adapt_run with
    | Ok r -> r
    | Error _ -> Alcotest.fail "unexpected OOM"
  in
  let seq = analyze 1 in
  Metrics.reset ();
  let par = analyze 4 in
  Alcotest.(check bool) "total error bit-identical" true
    (seq.Adapt.total_error = par.Adapt.total_error);
  List.iter2
    (fun (n1, e1) (n2, e2) ->
      Alcotest.(check string) "per-variable name order" n1 n2;
      Alcotest.(check bool) "per-variable error bit-identical" true (e1 = e2))
    seq.Adapt.per_variable par.Adapt.per_variable;
  (* The fan-out is observable: the walk's chunks went through the pool. *)
  let snap = Metrics.snapshot () in
  (match List.assoc_opt "pool.tasks" snap with
  | Some (Metrics.Counter n) ->
      Alcotest.(check bool) "walk chunks counted by the pool" true (n > 0)
  | _ -> Alcotest.fail "pool.tasks missing");
  Metrics.reset ()

(* ------------------------------------------------------------------ *)
(* Epoch-aware reset vs concurrent observe                            *)

(* Every observation is of the same value, so the histogram's sum must
   equal count * value at quiescence — any torn observation (a bucket
   increment whose sum update was erased by a racing reset, or vice
   versa) breaks the equality. The generation-swap reset guarantees an
   observation racing a reset is kept whole or dropped whole. *)
let test_reset_under_observe () =
  Metrics.reset ();
  let h = Metrics.histogram ~buckets:[| 1.; 2. |] "resetrace.h" in
  let v = 1.5 in
  let n_domains = 4 and per_domain = 20_000 in
  let stop = Atomic.make false in
  let observers =
    List.init n_domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Metrics.observe h v
            done))
  in
  let resetter =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          Metrics.reset ();
          Domain.cpu_relax ()
        done)
  in
  List.iter Domain.join observers;
  Atomic.set stop true;
  Domain.join resetter;
  let count = Metrics.histogram_count h in
  let sum = Metrics.histogram_sum h in
  Alcotest.(check (float 0.))
    "sum agrees with buckets through concurrent resets"
    (float_of_int count *. v)
    sum;
  (* And after the dust settles the histogram still works. *)
  Metrics.reset ();
  for _ = 1 to 10 do
    Metrics.observe h v
  done;
  Alcotest.(check int) "post-race count" 10 (Metrics.histogram_count h);
  Alcotest.(check (float 0.)) "post-race sum" (10. *. v)
    (Metrics.histogram_sum h);
  Metrics.reset ()

(* ------------------------------------------------------------------ *)
(* Sliding window                                                     *)

module Window = Cheffp_obs.Window
module Tail = Cheffp_obs.Tail

(* Known distribution -> interpolated quantiles within one bucket
   width. Values 1..100 ms land in the latency_buckets sub-ms grid;
   the true pXX must fall inside (or within one bucket width of) the
   interpolated bucket. *)
let test_window_quantiles () =
  Metrics.reset ();
  Window.stop ();
  let h =
    Metrics.histogram ~buckets:Metrics.latency_buckets "wq.elapsed_seconds"
  in
  let c = Metrics.counter "wq.requests" in
  Window.configure ~epochs:4 ~epoch_seconds:60. ();
  Window.tick ();
  (* baseline *)
  for i = 1 to 100 do
    Metrics.observe h (float_of_int i /. 1000.);
    Metrics.incr c
  done;
  let s =
    match Window.summary () with
    | Some s -> s
    | None -> Alcotest.fail "no baseline"
  in
  (match Window.find s "wq.requests" with
  | Some (Window.Wcounter { delta; _ }) ->
      Alcotest.(check int) "windowed counter delta" 100 delta
  | _ -> Alcotest.fail "wq.requests missing from window");
  (match Window.find s "wq.elapsed_seconds" with
  | Some (Window.Whistogram w) ->
      Alcotest.(check int) "windowed observation count" 100 w.Window.wh_count;
      Alcotest.(check (float 1e-9)) "windowed sum" 5.05 w.Window.wh_sum;
      (* true p50 = 0.050 s, inside bucket (0.025, 0.05]; one bucket
         width of slack on each side *)
      let within name lo hi v =
        if not (v >= lo && v <= hi) then
          Alcotest.failf "%s = %g not in [%g, %g]" name v lo hi
      in
      within "p50" 0.025 0.05 w.Window.wh_p50;
      within "p95" 0.05 0.1 w.Window.wh_p95;
      within "p99" 0.05 0.1 w.Window.wh_p99;
      Alcotest.(check bool) "quantiles ordered" true
        (w.Window.wh_p50 <= w.Window.wh_p95
        && w.Window.wh_p95 <= w.Window.wh_p99)
  | _ -> Alcotest.fail "wq.elapsed_seconds missing from window");
  (* The interpolator itself, on a hand-built distribution: 10 obs in
     (0,1], 10 in (1,2] -> p50 = upper edge of the first bucket, p75
     halfway through the second. *)
  let q = Window.quantile ~buckets:[| 1.; 2. |] ~counts:[| 10; 10; 0 |] in
  Alcotest.(check (float 1e-9)) "interpolated p50" 1.0 (q 0.5);
  Alcotest.(check (float 1e-9)) "interpolated p75" 1.5 (q 0.75);
  Alcotest.(check bool) "empty window quantile is nan" true
    (Float.is_nan
       (Window.quantile ~buckets:[| 1.; 2. |] ~counts:[| 0; 0; 0 |] 0.5));
  Metrics.reset ()

(* Windowed numbers reconcile with the cumulative registry: with one
   baseline at zero, window delta = cumulative value. *)
let test_window_reconciles () =
  Metrics.reset ();
  Window.stop ();
  Window.configure ~epochs:2 ~epoch_seconds:60. ();
  Window.tick ();
  let c = Metrics.counter "wr.total" in
  Metrics.add c 42;
  let s = Option.get (Window.summary ()) in
  let cum =
    match List.assoc_opt "wr.total" (Metrics.snapshot ()) with
    | Some (Metrics.Counter n) -> n
    | _ -> -1
  in
  (match Window.find s "wr.total" with
  | Some (Window.Wcounter { delta; _ }) ->
      Alcotest.(check int) "window delta = cumulative" cum delta
  | _ -> Alcotest.fail "wr.total missing");
  Metrics.reset ()

let test_window_tenant_rates () =
  Metrics.reset ();
  Window.stop ();
  Window.configure ~epochs:2 ~epoch_seconds:60. ();
  Window.tick ();
  let lk = Metrics.counter "compile_cache.tenant.tw.lookups" in
  let ht = Metrics.counter "compile_cache.tenant.tw.hits" in
  Metrics.add lk 10;
  Metrics.add ht 9;
  let s = Option.get (Window.summary ()) in
  (match Window.tenant_hit_rates s with
  | [ (tenant, rate, lookups) ] ->
      Alcotest.(check string) "tenant" "tw" tenant;
      Alcotest.(check (float 1e-9)) "hit rate" 0.9 rate;
      Alcotest.(check int) "lookups" 10 lookups
  | l -> Alcotest.failf "expected one tenant, got %d" (List.length l));
  Metrics.reset ()

(* The ticker thread: start records a baseline immediately and the
   summary is queryable while it runs; stop joins and clears. *)
let test_window_ticker () =
  Metrics.reset ();
  Window.stop ();
  Window.configure ~epochs:3 ~epoch_seconds:0.02 ();
  Window.start ();
  Alcotest.(check bool) "active" true (Window.active ());
  let c = Metrics.counter "wt.ticks" in
  Metrics.incr c;
  Thread.delay 0.08;
  (* several epochs rotate; the delta must survive rotation because
     the ring keeps the oldest baseline within the window *)
  (match Window.summary () with
  | Some _ -> ()
  | None -> Alcotest.fail "summary unavailable while ticking");
  Window.stop ();
  Alcotest.(check bool) "stopped" false (Window.active ());
  Alcotest.(check bool) "baselines cleared" true (Window.summary () = None);
  Metrics.reset ()

(* ------------------------------------------------------------------ *)
(* Tail retention                                                     *)

let mk_tree ~id ~dur_ns =
  let root =
    {
      Trace.id;
      parent = -1;
      name = "server.request";
      domain = 0;
      kind = Trace.Span;
      start_ns = 0L;
      end_ns = dur_ns;
      attrs = [];
    }
  in
  let child =
    {
      Trace.id = id + 1;
      parent = id;
      name = "work";
      domain = 0;
      kind = Trace.Span;
      start_ns = 1L;
      end_ns = Int64.sub dur_ns 1L;
      attrs = [];
    }
  in
  [ root; child ]

(* Concurrent offers with distinct durations: the ring must end up
   holding exactly the K slowest, every error tree must be retained,
   and no tree may be torn (each entry's spans are exactly one offered
   tree, root + child intact). *)
let test_tail_concurrent () =
  Tail.configure ~slowest:8 ~errors:100 ();
  let n_domains = 4 and per_domain = 50 in
  let dur d i = Int64.of_int (1000 + (i * n_domains) + d) in
  let domains =
    List.init n_domains (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per_domain - 1 do
              let id = 2 * ((d * per_domain) + i) in
              let err = i mod 25 = 24 in
              Tail.offer ~err (mk_tree ~id ~dur_ns:(dur d i))
            done))
  in
  List.iter Domain.join domains;
  let slow = Tail.slowest () in
  Alcotest.(check int) "exactly K slowest retained" 8 (List.length slow);
  (* expected: the 8 largest of all durations offered *)
  let all =
    List.concat_map
      (fun d -> List.init per_domain (fun i -> dur d i))
      (List.init n_domains Fun.id)
  in
  let expected =
    List.filteri (fun i _ -> i < 8) (List.sort (fun a b -> compare b a) all)
  in
  Alcotest.(check (list int64))
    "retained = the K slowest offered" expected
    (List.map (fun e -> e.Tail.e_dur_ns) slow);
  List.iter
    (fun e ->
      match e.Tail.e_spans with
      | [ root; child ] ->
          Alcotest.(check int) "child parented under root" root.Trace.id
            child.Trace.parent;
          Alcotest.(check bool) "duration from root" true
            (e.Tail.e_dur_ns = Int64.sub root.Trace.end_ns root.Trace.start_ns)
      | l -> Alcotest.failf "torn tree: %d span(s)" (List.length l))
    slow;
  (* every error-outcome tree is retained (2 per domain) *)
  Alcotest.(check int) "all error trees retained" (n_domains * 2)
    (List.length (Tail.errors ()));
  Alcotest.(check int) "error admission count" (n_domains * 2)
    (Tail.error_count ());
  List.iter
    (fun e -> Alcotest.(check bool) "flagged err" true e.Tail.e_err)
    (Tail.errors ());
  (* bounded error ring: overflow keeps the most recent *)
  Tail.configure ~slowest:2 ~errors:3 ();
  for i = 0 to 9 do
    Tail.offer ~err:true (mk_tree ~id:(2 * i) ~dur_ns:(Int64.of_int (100 + i)))
  done;
  let errs = Tail.errors () in
  Alcotest.(check int) "error ring bounded" 3 (List.length errs);
  Alcotest.(check (list int64))
    "oldest evicted first" [ 107L; 108L; 109L ]
    (List.map (fun e -> e.Tail.e_dur_ns) errs);
  Alcotest.(check int) "total errors counted" 10 (Tail.error_count ());
  Tail.clear ();
  Alcotest.(check int) "clear empties" 0 (List.length (Tail.slowest ()))

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                              *)

let test_prometheus () =
  Metrics.reset ();
  let c = Metrics.counter "promtest.requests" in
  Metrics.add c 7;
  let g = Metrics.gauge "promtest.active" in
  Metrics.set_gauge g 2.5;
  let h = Metrics.histogram ~buckets:[| 0.001; 0.01 |] "promtest.lat_seconds" in
  Metrics.observe h 0.0005;
  Metrics.observe h 0.005;
  Metrics.observe h 0.5;
  let weird = Metrics.counter "compile_cache.tenant.a\"b\\c\nd.hits" in
  Metrics.incr weird;
  let wk = Metrics.counter "pool.worker.3.tasks" in
  Metrics.add wk 11;
  let out = Export.prometheus () in
  let has l = Alcotest.(check bool) ("line: " ^ l) true (contains out l) in
  has "# TYPE cheffp_promtest_requests_total counter";
  has "cheffp_promtest_requests_total 7";
  has "# TYPE cheffp_promtest_active gauge";
  has "cheffp_promtest_active 2.5";
  has "# TYPE cheffp_promtest_lat_seconds histogram";
  has "cheffp_promtest_lat_seconds_bucket{le=\"0.001\"} 1";
  has "cheffp_promtest_lat_seconds_bucket{le=\"0.01\"} 2";
  has "cheffp_promtest_lat_seconds_bucket{le=\"+Inf\"} 3";
  has "cheffp_promtest_lat_seconds_count 3";
  (* dynamic name components become escaped label values *)
  has "cheffp_compile_cache_tenant_hits_total{tenant=\"a\\\"b\\\\c\\nd\"} 1";
  has "cheffp_pool_worker_tasks_total{worker=\"3\"} 11";
  (* scrape validity: every line is a comment or name{labels} value
     with a legal metric name *)
  let name_ok n =
    n <> ""
    && String.for_all
         (function
           | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
           | _ -> false)
         n
    && not (match n.[0] with '0' .. '9' -> true | _ -> false)
  in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then begin
        let name =
          match (String.index_opt line '{', String.index_opt line ' ') with
          | Some i, Some j -> String.sub line 0 (min i j)
          | None, Some j -> String.sub line 0 j
          | _ -> ""
        in
        if not (name_ok name) then
          Alcotest.failf "bad exposition line: %s" line;
        (* the sample value parses as a number *)
        match String.rindex_opt line ' ' with
        | Some k -> (
            let v = String.sub line (k + 1) (String.length line - k - 1) in
            match (float_of_string_opt v, v) with
            | Some _, _ | None, ("+Inf" | "-Inf" | "NaN") -> ()
            | None, _ -> Alcotest.failf "bad sample value: %s" line)
        | None -> Alcotest.failf "no sample value: %s" line
      end)
    (String.split_on_char '\n' out);
  (* one # TYPE line per family, even with many labelled samples *)
  let type_lines =
    List.filter
      (fun l -> contains l "# TYPE cheffp_pool_worker_tasks_total")
      (String.split_on_char '\n' out)
  in
  Alcotest.(check int) "one TYPE line per family" 1 (List.length type_lines);
  Metrics.reset ()

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "nesting and ordering" `Quick test_nesting;
          Alcotest.test_case "exception marks span" `Quick test_exception;
          Alcotest.test_case "attrs and events" `Quick test_attrs_events;
          Alcotest.test_case "pool worker parenting" `Quick
            test_pool_parenting;
          Alcotest.test_case "optimizer passes on a NaN literal" `Quick
            test_optimize_passes;
          Alcotest.test_case "disabled path inert" `Quick test_disabled_inert;
          Alcotest.test_case "disabled path allocation-free" `Quick
            test_disabled_no_alloc;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry basics" `Quick test_metrics_basic;
          Alcotest.test_case "concurrent updates" `Quick
            test_metrics_concurrent;
          Alcotest.test_case "pool task counters" `Quick
            test_pool_task_metrics;
        ] );
      ( "export",
        [
          Alcotest.test_case "jsonl well-formed" `Quick test_jsonl;
          Alcotest.test_case "metrics dump" `Quick test_metrics_dump;
        ] );
      ( "instrumented",
        [
          Alcotest.test_case "compile cache LRU" `Quick test_lru_eviction;
          Alcotest.test_case "compile cache 4-domain stress" `Quick
            test_cache_concurrent_stress;
          Alcotest.test_case "compile cache resize under traffic" `Quick
            test_cache_resize_under_traffic;
          Alcotest.test_case "histogram concurrent observers" `Quick
            test_histogram_concurrent;
          Alcotest.test_case "reset under concurrent observe" `Quick
            test_reset_under_observe;
          Alcotest.test_case "adapt parallel walk bit-identical" `Quick
            test_adapt_parallel_identical;
        ] );
      ( "window",
        [
          Alcotest.test_case "quantiles within a bucket" `Quick
            test_window_quantiles;
          Alcotest.test_case "windowed reconciles with cumulative" `Quick
            test_window_reconciles;
          Alcotest.test_case "tenant hit rates" `Quick
            test_window_tenant_rates;
          Alcotest.test_case "ticker lifecycle" `Quick test_window_ticker;
        ] );
      ( "tail",
        [
          Alcotest.test_case "concurrent offers keep K slowest" `Quick
            test_tail_concurrent;
        ] );
      ( "prometheus",
        [ Alcotest.test_case "exposition format" `Quick test_prometheus ] );
    ]
