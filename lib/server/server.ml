(* The [cheffp serve] daemon (DESIGN.md §13): newline-delimited JSON
   over a Unix or loopback TCP socket, one systhread per connection for
   I/O, every request executed as a task on one shared
   {!Cheffp_util.Pool.Shared} domain pool. The analysis commands run the
   CLI's own handlers ([Api]) on a single long-lived session, so results
   are bit-identical to one-shot runs and compilations cached by one
   request are hits for every later one. [Api] also caches the parsed
   program of each request text and the analysis of each [analyze]. *)

module Pool = Cheffp_util.Pool
module Trace = Cheffp_obs.Trace
module Metrics = Cheffp_obs.Metrics
module Export = Cheffp_obs.Export
module Window = Cheffp_obs.Window
module Tail = Cheffp_obs.Tail
module Compile_cache = Cheffp_ir.Compile_cache

type listen = Unix_socket of string | Tcp of int

type t = {
  pool : Pool.Shared.t;
  fd : Unix.file_descr;
  listen : listen;
  port : int option;  (* resolved, for Tcp 0 *)
  api : Api.session;
  max_pending : int;
  telemetry : bool;
  stop_requested : bool Atomic.t;
  conns_m : Mutex.t;
  conns_cv : Condition.t;
  mutable conns : int;
}

let request_stop t = Atomic.set t.stop_requested true

(* ------------------------------------------------------------------ *)
(* Telemetry endpoints (DESIGN.md §14): [stats] is the windowed view
   (Obs.Window + tail offenders) that [cheffp top] polls, [metrics] the
   cumulative registry (flat dump or Prometheus exposition), [traces]
   the tail-retained slow/error span trees. All three are plain
   requests — they queue, so a scrape observes the same admission
   policy as the work it measures (use [priority] to jump the queue). *)

let attr_json key attrs =
  match List.assoc_opt key attrs with
  | Some (Trace.Str s) -> Some (key, Json.Str s)
  | Some (Trace.Int i) -> Some (key, Json.Num (float_of_int i))
  | Some (Trace.Float f) -> Some (key, Json.Num f)
  | Some (Trace.Bool b) -> Some (key, Json.Bool b)
  | None -> None

let tail_summary (e : Tail.entry) =
  Json.Obj
    ([
       ("name", Json.Str e.Tail.e_root.Trace.name);
       ("dur_ms", Json.Num (Int64.to_float e.Tail.e_dur_ns /. 1e6));
       ("err", Json.Bool e.Tail.e_err);
       ("spans", Json.Num (float_of_int (List.length e.Tail.e_spans)));
     ]
    @ List.filter_map
        (fun k -> attr_json k e.Tail.e_root.Trace.attrs)
        [ "cmd"; "request_id"; "tenant" ])

let tail_tree (e : Tail.entry) =
  match tail_summary e with
  | Json.Obj fields ->
      Json.Obj
        (fields
        @ [
            ( "trace",
              Json.List
                (List.map
                   (fun s -> Json.Str (Export.span_to_json s))
                   e.Tail.e_spans) );
          ])
  | j -> j

(* The tail ring's slowest trees, at most [limit] of them (0 = all). *)
let slowest (req : Protocol.request) =
  let slow = Tail.slowest () in
  if req.limit > 0 then List.filteri (fun i _ -> i < req.limit) slow else slow

let handle_stats t (req : Protocol.request) =
  let snap = Metrics.snapshot () in
  let cum name =
    match List.assoc_opt name snap with
    | Some (Metrics.Counter n) -> float_of_int n
    | Some (Metrics.Gauge g) -> g
    | Some (Metrics.Histogram { counts; _ }) ->
        float_of_int (Array.fold_left ( + ) 0 counts)
    | None -> 0.
  in
  let w = if t.telemetry then Window.summary () else None in
  let span_s = match w with Some s -> s.Window.span_s | None -> 0. in
  let wcounter name =
    match w with
    | Some s -> (
        match Window.find s name with
        | Some (Window.Wcounter { delta; rate }) -> (float_of_int delta, rate)
        | _ -> (0., 0.))
    | None -> (0., 0.)
  in
  let whist name =
    match w with
    | Some s -> (
        match Window.find s name with
        | Some (Window.Whistogram h) -> Some h
        | _ -> None)
    | None -> None
  in
  let ms v = if Float.is_nan v then Json.Null else Json.Num (v *. 1000.) in
  let hist_json h =
    match h with
    | None -> Json.Obj [ ("count", Json.Num 0.) ]
    | Some h ->
        Json.Obj
          [
            ("count", Json.Num (float_of_int h.Window.wh_count));
            ("rate", Json.Num h.Window.wh_rate);
            ("p50_ms", ms h.Window.wh_p50);
            ("p95_ms", ms h.Window.wh_p95);
            ("p99_ms", ms h.Window.wh_p99);
            ( "mean_ms",
              if h.Window.wh_count > 0 then
                Json.Num
                  (h.Window.wh_sum /. float_of_int h.Window.wh_count *. 1000.)
              else Json.Null );
          ]
  in
  let req_delta, req_rate = wcounter "server.requests" in
  let err_delta, _ = wcounter "server.errors" in
  let pruned_delta, _ = wcounter "search.pruned_total" in
  let bounds_delta, _ = wcounter "range.bound" in
  let pool_done_delta, pool_done_rate = wcounter "pool.shared.completed" in
  let steals_delta, _ = wcounter "pool.shared.steals" in
  let whits, _ = wcounter "compile_cache.hits" in
  let wlookups, _ = wcounter "compile_cache.lookups" in
  let lat = whist "server.elapsed_seconds" in
  let workers = Pool.Shared.workers t.pool in
  (* Worker-seconds of request service time over the window against
     worker-seconds available: the pool-utilization proxy. *)
  let busy_s = match lat with Some h -> h.Window.wh_sum | None -> 0. in
  let util =
    if span_s > 0. && workers > 0 then
      Float.min 1. (busy_s /. (span_s *. float_of_int workers))
    else 0.
  in
  let cstats = Compile_cache.stats () in
  let shards = Array.to_list (Compile_cache.shard_sizes ()) in
  let tenants = match w with Some s -> Window.tenant_hit_rates s | None -> [] in
  let slow = slowest req in
  let errors_retained = List.length (Tail.errors ()) in
  let hit_rate = if wlookups > 0. then Some (whits /. wlookups) else None in
  ( Json.Obj
      [
        ("telemetry", Json.Bool t.telemetry);
        ("window_s", Json.Num span_s);
        ("workers", Json.Num (float_of_int workers));
        ( "requests",
          Json.Obj
            [
              ("total", Json.Num (cum "server.requests"));
              ("errors_total", Json.Num (cum "server.errors"));
              ("rejected_total", Json.Num (cum "server.rejected"));
              ("window", Json.Num req_delta);
              ("rate", Json.Num req_rate);
              ("errors_window", Json.Num err_delta);
              ("active", Json.Num (cum "server.active"));
              ("queue_depth", Json.Num (cum "server.queue_depth"));
            ] );
        ("latency", hist_json lat);
        ("queue_wait", hist_json (whist "server.queue_wait_seconds"));
        ( "search",
          Json.Obj
            [
              ("pruned_total", Json.Num (cum "search.pruned_total"));
              ("pruned_window", Json.Num pruned_delta);
            ] );
        ( "range",
          Json.Obj
            [
              ("bounds_total", Json.Num (cum "range.bound"));
              ("bounds_window", Json.Num bounds_delta);
              ("splits_total", Json.Num (cum "range.split"));
            ] );
        ( "pool",
          Json.Obj
            [
              ("utilization", Json.Num util);
              ("completed_window", Json.Num pool_done_delta);
              ("completed_rate", Json.Num pool_done_rate);
              ("steals_window", Json.Num steals_delta);
              ("queue_depth", Json.Num (cum "pool.shared.queue_depth"));
            ] );
        ( "cache",
          Json.Obj
            [
              ("hits_total", Json.Num (float_of_int cstats.Compile_cache.hits));
              ( "misses_total",
                Json.Num (float_of_int cstats.Compile_cache.misses) );
              ("size", Json.Num (float_of_int cstats.Compile_cache.size));
              ( "hit_rate_window",
                Option.fold ~none:Json.Null ~some:(fun x -> Json.Num x) hit_rate );
              ( "shards",
                Json.List
                  (List.map
                     (fun (size, cap) ->
                       Json.Obj
                         [
                           ("size", Json.Num (float_of_int size));
                           ("cap", Json.Num (float_of_int cap));
                         ])
                     shards) );
            ] );
        ( "tenants",
          Json.List
            (List.map
               (fun (tenant, rate, lookups) ->
                 Json.Obj
                   [
                     ("tenant", Json.Str tenant);
                     ("hit_rate", Json.Num rate);
                     ("lookups", Json.Num (float_of_int lookups));
                   ])
               tenants) );
        ( "tail",
          Json.Obj
            [
              ("slowest", Json.List (List.map tail_summary slow));
              ("errors_retained", Json.Num (float_of_int errors_retained));
              ("errors_total", Json.Num (float_of_int (Tail.error_count ())));
            ] );
      ],
    (* The dashboard [cheffp top] prints under its own header. *)
    let b = Buffer.create 1024 in
    let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
    let fmt_ms v =
      if Float.is_nan v then "-" else Printf.sprintf "%.2fms" (v *. 1000.)
    in
    let quantiles h =
      match h with
      | None -> ("-", "-", "-", "-")
      | Some h ->
          ( fmt_ms h.Window.wh_p50,
            fmt_ms h.Window.wh_p95,
            fmt_ms h.Window.wh_p99,
            if h.Window.wh_count > 0 then
              fmt_ms (h.Window.wh_sum /. float_of_int h.Window.wh_count)
            else "-" )
    in
    let p50, p95, p99, mean = quantiles lat in
    let qw50, qw95, qw99, _ = quantiles (whist "server.queue_wait_seconds") in
    line "window %.1fs   workers %d%s" span_s workers
      (if t.telemetry then "" else "   [telemetry OFF]");
    line
      "requests   %6.1f req/s   window %.0f   total %.0f   errors %.0f \
       (window %.0f)   rejected %.0f"
      req_rate req_delta (cum "server.requests") (cum "server.errors")
      err_delta (cum "server.rejected");
    line
      "           active %.0f   queue depth %.0f   pool util %3.0f%%   \
       completed %.1f/s   steals %.0f"
      (cum "server.active") (cum "server.queue_depth") (100. *. util)
      pool_done_rate steals_delta;
    line "latency    p50 %s   p95 %s   p99 %s   mean %s" p50 p95 p99 mean;
    line "queue wait p50 %s   p95 %s   p99 %s" qw50 qw95 qw99;
    line
      "rigorous   pruned %.0f (window %.0f)   range bounds %.0f (window \
       %.0f)   splits %.0f"
      (cum "search.pruned_total") pruned_delta (cum "range.bound")
      bounds_delta (cum "range.split");
    line "cache      hits %d   misses %d   size %d   window hit rate %s"
      cstats.Compile_cache.hits cstats.Compile_cache.misses
      cstats.Compile_cache.size
      (Option.fold ~none:"-"
         ~some:(fun x -> Printf.sprintf "%.1f%%" (100. *. x))
         hit_rate);
    if shards <> [] then
      line "  shards   %s"
        (String.concat " "
           (List.map (fun (size, cap) -> Printf.sprintf "%d/%d" size cap) shards));
    if tenants <> [] then
      line "tenants    %s"
        (String.concat "   "
           (List.map
              (fun (tenant, rate, lookups) ->
                Printf.sprintf "%s %.1f%% (%d lookups)" tenant (100. *. rate)
                  lookups)
              tenants));
    if slow = [] then line "tail       (no retained traces)"
    else begin
      line "tail       %d error trace(s) retained, slowest:" errors_retained;
      List.iter
        (fun (e : Tail.entry) ->
          let attr k = List.assoc_opt k e.Tail.e_root.Trace.attrs in
          line "  %9.2fms  %-8s id=%s%s%s"
            (Int64.to_float e.Tail.e_dur_ns /. 1e6)
            (match attr "cmd" with Some (Trace.Str c) -> c | _ -> "?")
            (match attr "request_id" with
            | Some (Trace.Int i) -> string_of_int i
            | _ -> "?")
            (match attr "tenant" with Some (Trace.Str s) -> "  tenant=" ^ s | _ -> "")
            (if e.Tail.e_err then "  [error]" else ""))
        slow
    end;
    Buffer.contents b )

let handle_traces (req : Protocol.request) =
  let slow = slowest req in
  let errors = Tail.errors () in
  ( Json.Obj
      [
        ("slowest", Json.List (List.map tail_tree slow));
        ("errors", Json.List (List.map tail_tree errors));
        ("errors_total", Json.Num (float_of_int (Tail.error_count ())));
      ],
    Printf.sprintf "%d slow trace(s), %d error trace(s) retained\n"
      (List.length slow) (List.length errors) )

let dispatch t (req : Protocol.request) =
  let command handle =
    if String.trim req.api.program = "" then failwith "missing \"program\" field";
    handle t.api req.api
  in
  (* Per-request sample attribution: the trace carries the request's
     sample count, and tenants accumulate a [server.tenant.<t>.samples]
     counter next to their compile-cache hit rates. *)
  let sampled handle =
    let n = req.api.samples in
    if n > 0 then begin
      if Trace.enabled () then Trace.add_attr "samples" (Trace.Int n);
      Option.iter
        (fun tenant ->
          Metrics.add
            (Metrics.counter (Printf.sprintf "server.tenant.%s.samples" tenant))
            n)
        req.tenant
    end;
    command handle
  in
  match req.cmd with
  | Protocol.Ping -> (Json.Obj [ ("pong", Json.Bool true) ], "pong\n")
  | Protocol.Metrics ->
      let dump =
        match req.format with
        | "dump" -> Export.metrics_dump ()
        | "prometheus" -> Export.prometheus ()
        | other ->
            failwith ("unknown metrics format " ^ other ^ " (dump|prometheus)")
      in
      ( Json.Obj
          [ ("metrics", Json.Str dump); ("format", Json.Str req.format) ],
        dump )
  | Protocol.Stats -> handle_stats t req
  | Protocol.Traces -> handle_traces req
  | Protocol.Shutdown ->
      request_stop t;
      (Json.Obj [ ("stopping", Json.Bool true) ], "stopping\n")
  | Protocol.Analyze -> sampled Api.analyze
  | Protocol.Tune -> sampled Api.tune
  | Protocol.Search -> sampled Api.search
  | Protocol.Sample -> sampled Api.sample
  | Protocol.Validate -> command Api.validate
  | Protocol.Range -> command Api.range

(* The CLI's error surface: its usage and input errors keep their
   messages, and anything else is named with its exception. *)
let error_message = function
  | Api.Usage m -> m
  | e -> Option.value (Api.input_error e) ~default:(Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Request execution (runs on a pool worker domain). The worker's span
   stack is empty, so "server.request" is a root span; its id keys the
   per-request subtree extraction. With telemetry on, tracing is
   enabled from [create] so every request records a tree and its
   completed subtree is offered to the tail ring (kept only if slow or
   errored); otherwise tracing is enabled lazily the first time a
   request asks for it and stays on (other requests may be mid-trace).
   Every request's tree is removed from the collector on completion
   either way, so a long-lived server does not accumulate spans. *)

let execute t (req : Protocol.request) ~enqueued =
  let started = Unix.gettimeofday () in
  let queue_wait = started -. enqueued in
  Registry.started ();
  let counters = { Compile_cache.r_hits = 0; r_misses = 0 } in
  let outcome =
    Compile_cache.with_attribution ?tenant:req.tenant ~counters (fun () ->
        if req.trace && not (Trace.enabled ()) then Trace.set_enabled true;
        let root = ref (-1) in
        match
          Trace.with_span "server.request" (fun () ->
              root := Trace.current ();
              if Trace.enabled () then begin
                Trace.add_attr "cmd" (Trace.Str (Protocol.cmd_name req.cmd));
                Trace.add_attr "request_id" (Trace.Int req.id);
                Option.iter
                  (fun ten -> Trace.add_attr "tenant" (Trace.Str ten))
                  req.tenant
              end;
              dispatch t req)
        with
        | result, report ->
            let spans = if !root >= 0 then Trace.take_tree !root else [] in
            if t.telemetry then Tail.offer ~err:false spans;
            Ok (result, report, if req.trace then spans else [])
        | exception e ->
            (if !root >= 0 then
               let spans = Trace.take_tree !root in
               if t.telemetry then Tail.offer ~err:true spans);
            Error (error_message e))
  in
  let elapsed = Unix.gettimeofday () -. started in
  Registry.finished ~ok:(Result.is_ok outcome) ~queue_wait ~elapsed;
  match outcome with
  | Ok (result, report, spans) ->
      Protocol.ok_response ~id:req.id ~cmd:req.cmd
        ~queue_wait_ms:(queue_wait *. 1000.)
        ~elapsed_ms:(elapsed *. 1000.)
        ~cache:
          {
            Protocol.c_hits = counters.Compile_cache.r_hits;
            c_misses = counters.Compile_cache.r_misses;
          }
        ~spans ~report result
  | Error msg -> Protocol.error_response ~id:req.id msg

(* ------------------------------------------------------------------ *)
(* Request lines are read through a bounded reader, so one client
   cannot grow the daemon's heap without limit: a line longer than
   [max_request_bytes] gets an error response naming the limit, and its
   connection is closed. 16 MiB is far above any program in the
   repository (the largest is a few KiB). *)

let max_request_bytes = 16 * 1024 * 1024

exception Line_too_long

type reader = {
  rfd : Unix.file_descr;
  chunk : Bytes.t;
  mutable pos : int;  (* next unread byte of [chunk] *)
  mutable len : int;  (* bytes of [chunk] filled by the last read *)
  line : Buffer.t;  (* the current line's bytes before [chunk] *)
}

let reader fd =
  { rfd = fd; chunk = Bytes.create 65536; pos = 0; len = 0;
    line = Buffer.create 4096 }

let rec newline_in b i stop =
  if i >= stop then -1
  else if Bytes.unsafe_get b i = '\n' then i
  else newline_in b (i + 1) stop

(* [Buffer.reset] returns a large line's storage instead of keeping it
   for the connection's lifetime. *)
let take_line r =
  if Buffer.length r.line > max_request_bytes then raise Line_too_long;
  let s = Buffer.contents r.line in
  Buffer.reset r.line;
  s

(* The next line without its newline, or [None] at end of stream; a
   last line without a newline is returned, as [input_line] does.
   @raise Line_too_long as soon as the line passes the limit. *)
let rec read_line r =
  let nl = newline_in r.chunk r.pos r.len in
  if nl >= 0 then begin
    Buffer.add_subbytes r.line r.chunk r.pos (nl - r.pos);
    r.pos <- nl + 1;
    Some (take_line r)
  end
  else begin
    Buffer.add_subbytes r.line r.chunk r.pos (r.len - r.pos);
    r.pos <- 0;
    r.len <- 0;
    if Buffer.length r.line > max_request_bytes then raise Line_too_long;
    match Unix.read r.rfd r.chunk 0 (Bytes.length r.chunk) with
    | 0 -> if Buffer.length r.line = 0 then None else Some (take_line r)
    | n ->
        r.len <- n;
        read_line r
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_line r
  end

(* ------------------------------------------------------------------ *)
(* Connections: one systhread per client reads request lines and
   submits tasks; the pool worker that executes a task writes its
   response itself (under the connection's write mutex), so responses
   stream back as requests complete — possibly out of order, which is
   why they echo the request id. *)

let rec write_all fd s pos len =
  if len > 0 then begin
    let n = Unix.write_substring fd s pos len in
    write_all fd s (pos + n) (len - n)
  end

let handle_conn t cfd =
  let sub = Pool.Shared.add_submitter t.pool in
  let write_m = Mutex.create () in
  let outstanding = Atomic.make 0 in
  let done_m = Mutex.create () in
  let done_cv = Condition.create () in
  let send json =
    let line = Json.to_string json ^ "\n" in
    Mutex.lock write_m;
    (try write_all cfd line 0 (String.length line) with _ -> ());
    Mutex.unlock write_m
  in
  let task_done () =
    if Atomic.fetch_and_add outstanding (-1) = 1 then begin
      Mutex.lock done_m;
      Condition.broadcast done_cv;
      Mutex.unlock done_m
    end
  in
  let r = reader cfd in
  (try
     let rec loop () =
       match read_line r with
       | None -> ()
       | exception Line_too_long ->
           send
             (Protocol.error_response ~id:(-1)
                (Printf.sprintf
                   "request line longer than %d bytes (the daemon's limit); \
                    closing the connection"
                   max_request_bytes))
       | Some line when String.trim line = "" -> loop ()
       | Some line ->
           (match Protocol.parse_request line with
           | Error msg -> send (Protocol.error_response ~id:(-1) msg)
           | Ok req ->
               if Atomic.get t.stop_requested && req.cmd <> Protocol.Shutdown
               then send (Protocol.error_response ~id:req.id "server is draining")
               else begin
                 let depth = Pool.Shared.queue_depth t.pool in
                 if depth >= t.max_pending then begin
                   Registry.rejected ();
                   send
                     (Protocol.error_response ~id:req.id
                        (Printf.sprintf
                           "server overloaded: %d requests pending" depth))
                 end
                 else begin
                   let enqueued = Unix.gettimeofday () in
                   let deadline =
                     Option.map (fun ms -> enqueued +. (ms /. 1000.)) req.deadline_ms
                   in
                   Atomic.incr outstanding;
                   ignore
                     (Pool.Shared.submit t.pool sub ~priority:req.priority
                        ?deadline (fun () ->
                          Fun.protect ~finally:task_done (fun () ->
                              send (execute t req ~enqueued);
                              Registry.set_queue_depth
                                (Pool.Shared.queue_depth t.pool))));
                   Registry.set_queue_depth (Pool.Shared.queue_depth t.pool)
                 end
               end);
           loop ()
     in
     loop ()
   with _ -> ());
  (* Client went away (or the stream ended): everything already
     submitted still executes and writes (harmlessly failing if the
     peer is gone); wait it out so no task outlives its submitter. *)
  Mutex.lock done_m;
  while Atomic.get outstanding > 0 do
    Condition.wait done_cv done_m
  done;
  Mutex.unlock done_m;
  Pool.Shared.remove_submitter t.pool sub

(* ------------------------------------------------------------------ *)

let default_max_pending = 256

let create ?workers ?(max_pending = default_max_pending) ?(telemetry = true)
    ?(window_epochs = 12) ?(window_epoch_s = 5.) ?(tail_slowest = 16)
    ?(tail_errors = 64) listen =
  (* A client closing mid-response must not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let fd, port =
    match listen with
    | Unix_socket path ->
        if Sys.file_exists path then Sys.remove path;
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd 64;
        (fd, None)
    | Tcp port ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        Unix.listen fd 64;
        let actual =
          match Unix.getsockname fd with
          | Unix.ADDR_INET (_, p) -> p
          | _ -> port
        in
        (fd, Some actual)
  in
  if telemetry then begin
    (* Continuous telemetry (DESIGN.md §14): window ticker + tail
       retention + tracing for every request. Window/Tail are
       process-global — the last-created telemetry server owns their
       configuration. *)
    Window.stop ();
    Window.configure ~epochs:window_epochs ~epoch_seconds:window_epoch_s ();
    Tail.configure ~slowest:tail_slowest ~errors:tail_errors ();
    Trace.set_enabled true;
    Window.start ()
  end;
  {
    pool = Pool.Shared.create ?workers ();
    fd;
    listen;
    port;
    api = Api.session ();
    max_pending;
    telemetry;
    stop_requested = Atomic.make false;
    conns_m = Mutex.create ();
    conns_cv = Condition.create ();
    conns = 0;
  }

let port t = t.port

let address t =
  match t.listen with
  | Unix_socket path -> path
  | Tcp _ ->
      Printf.sprintf "127.0.0.1:%d" (Option.value ~default:0 t.port)

let workers t = Pool.Shared.workers t.pool

let run t =
  while not (Atomic.get t.stop_requested) do
    match Unix.select [ t.fd ] [] [] 0.25 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ -> (
        match Unix.accept t.fd with
        | exception Unix.Unix_error (_, _, _) -> ()
        | cfd, _ ->
            Mutex.lock t.conns_m;
            t.conns <- t.conns + 1;
            Mutex.unlock t.conns_m;
            ignore
              (Thread.create
                 (fun () ->
                   Fun.protect
                     ~finally:(fun () ->
                       (try Unix.close cfd with Unix.Unix_error _ -> ());
                       Mutex.lock t.conns_m;
                       t.conns <- t.conns - 1;
                       Condition.broadcast t.conns_cv;
                       Mutex.unlock t.conns_m)
                     (fun () -> handle_conn t cfd))
                 ()))
  done;
  (* Drain: stop accepting, let open connections finish (their
     in-flight and queued tasks included), then retire the workers. *)
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  Mutex.lock t.conns_m;
  while t.conns > 0 do
    Condition.wait t.conns_cv t.conns_m
  done;
  Mutex.unlock t.conns_m;
  Pool.Shared.shutdown t.pool;
  (* Nothing can look up against this registry any more: its entries
     (programs, analyses, and the compilations of every handler) would
     only hold slots of the shared bound until they were evicted. *)
  Compile_cache.drop_builtins t.api.builtins;
  if t.telemetry then Window.stop ();
  match t.listen with
  | Unix_socket path -> ( try Sys.remove path with Sys_error _ -> ())
  | Tcp _ -> ()
