(* @serve-smoke driver: end-to-end gate for the `cheffp serve` daemon.

     serve_smoke CHEFFP_EXE

   Starts the daemon as a subprocess on a Unix socket, then from
   several concurrent client connections:

   - fires >= 16 mixed requests (ping / analyze / tune / search /
     validate, pipelined per connection) and checks every response
     against the protocol schema (echoed id, ok flag, result object,
     report text, queue-wait and service times, cache summary);
   - asserts bit-identity: every server [report] must equal, byte for
     byte, the stdout of the corresponding one-shot CLI invocation;
   - repeats an identical search on a fresh connection and requires
     warm cross-request compile-cache hits;
   - replays the first round's analyze and range requests on another
     fresh connection: every lookup must hit (the daemon's cached
     program and analysis) and every result must equal the first
     round's;
   - runs two concurrent traced requests, collects their span trees
     from the responses and writes serve_smoke_trace.jsonl for
     `validate_trace --forest 2` (two disjoint server.request trees);
   - checks malformed requests get error responses, that the metrics
     dump carries the server/pool/tenant counters, and that a shutdown
     request drains the daemon to a clean exit 0. *)

module Client = Cheffp_server.Client
module Json = Cheffp_server.Json

let fail fmt =
  Printf.ksprintf (fun s -> prerr_endline ("serve_smoke: " ^ s); exit 1) fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ------------------------------------------------------------------ *)
(* One-shot CLI runs (the bit-identity reference).                    *)

let run_capture exe args =
  let r, w = Unix.pipe () in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: args))
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (match status with
  | Unix.WEXITED 0 -> ()
  | _ -> fail "CLI run failed: %s %s" exe (String.concat " " args));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Response schema checks.                                            *)

let to_int who k j =
  match Json.to_int_opt (Json.member k j) with
  | Some v -> v
  | None -> fail "%s: field %S missing or not an int" who k

let to_num who k j =
  match Json.to_float_opt (Json.member k j) with
  | Some v -> v
  | None -> fail "%s: field %S missing or not a number" who k

let to_str who k j =
  match Json.to_string_opt (Json.member k j) with
  | Some v -> v
  | None -> fail "%s: field %S missing or not a string" who k

(* Full schema check; returns (id, cache hits, cache misses, report). *)
let check_ok who j =
  let id = to_int who "id" j in
  (match Json.to_bool_opt (Json.member "ok" j) with
  | Some true -> ()
  | _ -> fail "%s: request %d failed: %s" who id (to_str who "error" j));
  ignore (to_str who "cmd" j);
  (match Json.member "result" j with
  | Json.Obj _ -> ()
  | _ -> fail "%s: request %d: \"result\" not an object" who id);
  let report = to_str who "report" j in
  let qw = to_num who "queue_wait_ms" j and el = to_num who "elapsed_ms" j in
  if qw < 0. || el < 0. then fail "%s: request %d: negative timing" who id;
  let cache = Json.member "cache" j in
  let hits = to_int who "hits" cache and misses = to_int who "misses" cache in
  if hits < 0 || misses < 0 then
    fail "%s: request %d: negative cache counters" who id;
  (id, hits, misses, report)

let check_err who j =
  let id = to_int who "id" j in
  (match Json.to_bool_opt (Json.member "ok" j) with
  | Some false -> ()
  | _ -> fail "%s: request %d: expected an error response" who id);
  (id, to_str who "error" j)

(* ------------------------------------------------------------------ *)

let () =
  if Array.length Sys.argv < 2 then fail "usage: serve_smoke CHEFFP_EXE";
  let cheffp = Sys.argv.(1) in
  let sock = "serve_smoke.sock" in
  (try Sys.remove sock with Sys_error _ -> ());

  (* Reference reports from one-shot CLI invocations (before the
     daemon starts, so its load does not perturb them — outcomes are
     deterministic either way). *)
  let obs_smoke = read_file "obs_smoke.mfp" in
  let arclength = read_file "../examples/programs/arclength.mfp" in
  let fpbench = read_file "../examples/programs/fpbench.mfp" in
  let cli_analyze =
    run_capture cheffp
      [ "analyze"; "../examples/programs/arclength.mfp"; "--func"; "arclength";
        "--"; "100" ]
  in
  let cli_tune =
    run_capture cheffp
      [ "tune"; "obs_smoke.mfp"; "--func"; "looped"; "--threshold"; "1e-6";
        "-j"; "2"; "--"; "1.3"; "50" ]
  in
  let cli_search =
    run_capture cheffp
      [ "search"; "obs_smoke.mfp"; "--func"; "looped"; "--threshold"; "1e-6";
        "-j"; "2"; "--"; "1.3"; "50" ]
  in
  let cli_validate =
    run_capture cheffp
      [ "validate"; "../examples/programs/fpbench.mfp"; "--func"; "doppler";
        "--demote"; "t1:f32"; "--demote"; "r:f32"; "--"; "-30.0"; "10000.0";
        "25.0" ]
  in

  (* Daemon subprocess. *)
  let pid =
    Unix.create_process cheffp
      [| cheffp; "serve"; "--socket"; sock; "--workers"; "2" |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let reaped = ref false in
  at_exit (fun () ->
      if not !reaped then (try Unix.kill pid Sys.sigkill with _ -> ()));
  (* Watchdog: a wedged daemon must fail the rule, not hang it. *)
  ignore
    (Thread.create
       (fun () ->
         Thread.delay 300.;
         if not !reaped then begin
           prerr_endline "serve_smoke: timeout — killing daemon";
           (try Unix.kill pid Sys.sigkill with _ -> ());
           exit 1
         end)
       ());
  let connect () = Client.retry_connect (fun () -> Client.connect_unix sock) in

  (* -------------------------------------------------------------- *)
  (* Phase 1: >= 16 mixed concurrent requests across 4 connections, *)
  (* pipelined (send all, then collect), responses matched by id.   *)

  let mk_requests conn_i =
    let tenant = Json.Str (Printf.sprintf "conn%d" conn_i) in
    let base = conn_i * 10 in
    [
      (base, Client.request ~id:base ~cmd:"ping" [], "pong\n");
      ( base + 1,
        Client.request ~id:(base + 1) ~cmd:"analyze"
          [ ("program", Json.Str arclength); ("func", Json.Str "arclength");
            ("args", Json.List [ Json.Str "100" ]); ("tenant", tenant);
            ("priority", Json.Num 1.) ],
        cli_analyze );
      ( base + 2,
        Client.request ~id:(base + 2) ~cmd:"tune"
          [ ("program", Json.Str obs_smoke); ("func", Json.Str "looped");
            ("args", Json.List [ Json.Str "1.3"; Json.Str "50" ]);
            ("threshold", Json.Num 1e-6); ("jobs", Json.Num 2.);
            ("tenant", tenant); ("deadline_ms", Json.Num 60000.) ],
        cli_tune );
      ( base + 3,
        Client.request ~id:(base + 3) ~cmd:"search"
          [ ("program", Json.Str obs_smoke); ("func", Json.Str "looped");
            ("args", Json.List [ Json.Str "1.3"; Json.Str "50" ]);
            ("threshold", Json.Num 1e-6); ("jobs", Json.Num 2.);
            ("tenant", tenant) ],
        cli_search );
      ( base + 4,
        Client.request ~id:(base + 4) ~cmd:"validate"
          [ ("program", Json.Str fpbench); ("func", Json.Str "doppler");
            ("demote", Json.List [ Json.Str "t1:f32"; Json.Str "r:f32" ]);
            ("args",
             Json.List [ Json.Str "-30.0"; Json.Str "10000.0"; Json.Str "25.0" ]);
            ("tenant", tenant) ],
        cli_validate );
    ]
  in
  let n_conns = 4 in
  let results = Array.make n_conns [] in
  (* Each connection's analyze result, for the warm replay. *)
  let analyze_results = Array.make n_conns Json.Null in
  let threads =
    List.init n_conns (fun i ->
        Thread.create
          (fun () ->
            let who = Printf.sprintf "conn%d" i in
            let c = connect () in
            let reqs = mk_requests i in
            List.iter (fun (_, req, _) -> Client.send c req) reqs;
            let got =
              List.map
                (fun _ ->
                  let resp = Client.recv c in
                  let row = check_ok who resp in
                  if to_str who "cmd" resp = "analyze" then
                    analyze_results.(i) <- Json.member "result" resp;
                  row)
                reqs
            in
            Client.close c;
            results.(i) <- List.map2 (fun (id, _, want) (rid, _, _, report) ->
                (id, want, rid, report)) reqs got)
          ())
  in
  List.iter Thread.join threads;
  let total = ref 0 in
  Array.iteri
    (fun i rows ->
      if rows = [] then fail "conn%d produced no results" i;
      let expected_ids = List.map (fun (id, _, _, _) -> id) rows in
      let got_ids =
        List.sort compare (List.map (fun (_, _, rid, _) -> rid) rows)
      in
      if expected_ids <> got_ids then
        fail "conn%d: response ids do not match requests" i;
      (* Bit-identity: match each response to its request by id. *)
      let by_id = Hashtbl.create 8 in
      List.iter (fun (id, want, _, _) -> Hashtbl.replace by_id id want) rows;
      List.iter
        (fun (_, _, rid, report) ->
          incr total;
          let want = Hashtbl.find by_id rid in
          if report <> want then
            fail "conn%d request %d: report differs from one-shot CLI run\n\
                  --- server ---\n%s--- cli ---\n%s" i rid report want)
        rows)
    results;
  if !total < 16 then fail "only %d concurrent requests ran" !total;
  Printf.printf
    "serve_smoke: %d concurrent requests OK, all reports bit-identical to \
     one-shot CLI runs\n%!"
    !total;

  (* -------------------------------------------------------------- *)
  (* Phase 2: warm cross-request cache — an identical search on a   *)
  (* brand new connection must hit compilations cached by phase 1.  *)

  let c = connect () in
  let warm =
    Client.rpc c
      (Client.request ~id:500 ~cmd:"search"
         [ ("program", Json.Str obs_smoke); ("func", Json.Str "looped");
           ("args", Json.List [ Json.Str "1.3"; Json.Str "50" ]);
           ("threshold", Json.Num 1e-6); ("jobs", Json.Num 2.);
           ("tenant", Json.Str "warm") ])
  in
  let _, hits, misses, report = check_ok "warm" warm in
  if hits = 0 then fail "warm search: no cross-request cache hits";
  if report <> cli_search then fail "warm search: report differs from CLI";
  Printf.printf
    "serve_smoke: warm cross-request search: %d cache hits, %d misses\n%!"
    hits misses;

  (* Rigorous range bound over an explicit box (DESIGN.md §17): the
     response must certify a finite worst-config bound and carry the
     witness sub-box. *)
  let range_request id =
    Client.request ~id ~cmd:"range"
      [ ("program", Json.Str obs_smoke); ("func", Json.Str "looped");
        ("args", Json.List [ Json.Str "1.3"; Json.Str "50" ]);
        ("box", Json.Str "x=1,2") ]
  in
  let rresp = Client.rpc c (range_request 503) in
  let _, _, _, rreport = check_ok "range" rresp in
  let rres = Json.member "result" rresp in
  (match Json.to_string_opt (Json.member "verdict" rres) with
  | Some "BOUNDED" -> ()
  | v ->
      fail "range: expected BOUNDED verdict, got %s"
        (Option.value ~default:"(missing)" v));
  (match Json.to_float_opt (Json.member "bound" rres) with
  | Some b when b > 0. && Float.is_finite b -> ()
  | _ -> fail "range: bound missing or not a positive finite number");
  ignore (to_str "range" "witness" rres);
  (try ignore (Str.search_forward (Str.regexp_string "rigorous range analysis") rreport 0)
   with Not_found -> fail "range report missing its header:\n%s" rreport);
  print_endline "serve_smoke: range request certified a finite bound";

  (* Malformed requests still get responses on the same connection. *)
  let _, err = check_err "badcmd"
      (Client.rpc c (Client.request ~id:501 ~cmd:"frobnicate" []))
  in
  if not (String.length err > 0) then fail "bad cmd: empty error";
  let _, err = check_err "nothresh"
      (Client.rpc c
         (Client.request ~id:502 ~cmd:"search"
            [ ("program", Json.Str obs_smoke); ("func", Json.Str "looped");
              ("args", Json.List [ Json.Str "1.3"; Json.Str "50" ]) ]))
  in
  (try ignore (Str.search_forward (Str.regexp_string "threshold") err 0)
   with Not_found -> fail "missing-threshold error does not mention it: %s" err);
  Client.close c;

  (* -------------------------------------------------------------- *)
  (* Phase 2b: warm replay of analyze and range on a new connection. *)
  (* The daemon caches each text's parsed program and each analyze's *)
  (* analysis, so every lookup hits (analyze: program + analysis;   *)
  (* range: program) and nothing is rebuilt. Range results drop     *)
  (* their elapsed_ms timing before the comparison.                 *)

  let c = connect () in
  let untimed = function
    | Json.Obj l -> Json.Obj (List.filter (fun (k, _) -> k <> "elapsed_ms") l)
    | j -> j
  in
  let replay who id req ~first ~lookups =
    let resp = Client.rpc c req in
    let _, hits, misses, _ = check_ok who resp in
    if misses <> 0 || hits <> lookups then
      fail "%s: warm replay %d: %d hits, %d misses (want %d hits, 0 misses)"
        who id hits misses lookups;
    if
      Json.to_string (untimed (Json.member "result" resp))
      <> Json.to_string (untimed first)
    then
      fail "%s: warm replay %d: result differs from the first round's" who id
  in
  for round = 0 to 1 do
    Array.iteri
      (fun i first ->
        let id = 800 + (round * 10) + i in
        replay "warm analyze" id
          (Client.request ~id ~cmd:"analyze"
             [ ("program", Json.Str arclength); ("func", Json.Str "arclength");
               ("args", Json.List [ Json.Str "100" ]);
               ("tenant", Json.Str "warm") ])
          ~first ~lookups:2)
      analyze_results;
    let id = 850 + round in
    replay "warm range" id (range_request id) ~first:rres ~lookups:1
  done;
  Client.close c;
  print_endline
    "serve_smoke: warm analyze and range replays: every lookup hit, every \
     result equal to the first round's";

  (* -------------------------------------------------------------- *)
  (* Phase 3: two concurrent traced requests -> two disjoint span   *)
  (* trees, written sorted by span id for validate_trace --forest 2. *)

  let spans = Array.make 2 [] in
  let traced =
    List.init 2 (fun i ->
        Thread.create
          (fun () ->
            let c = connect () in
            let resp =
              Client.rpc c
                (Client.request ~id:(600 + i) ~cmd:"search"
                   [ ("program", Json.Str obs_smoke);
                     ("func", Json.Str "looped");
                     ("args", Json.List [ Json.Str "1.3"; Json.Str "50" ]);
                     ("threshold", Json.Num 1e-6); ("jobs", Json.Num 2.);
                     ("trace", Json.Bool true) ])
            in
            let _, _, _, report = check_ok "traced" resp in
            if report <> cli_search then
              fail "traced search %d: report differs from CLI" i;
            (match Json.member "spans" resp with
            | Json.List l -> spans.(i) <- List.filter_map Json.to_string_opt l
            | _ -> fail "traced search %d: no spans in response" i);
            Client.close c)
          ())
  in
  List.iter Thread.join traced;
  Array.iteri
    (fun i s -> if s = [] then fail "traced request %d: empty span tree" i)
    spans;
  (* Span ids are globally unique and emitted in each line's "id"
     field; the two trees interleave, so sort the merged lines by id
     to restore validate_trace's strictly-increasing order. *)
  let span_id line =
    match Str.search_forward (Str.regexp "\"id\":\\([0-9]+\\)") line 0 with
    | _ -> int_of_string (Str.matched_group 1 line)
    | exception Not_found -> fail "span line without an id: %s" line
  in
  let all = List.concat [ spans.(0); spans.(1) ] in
  let sorted =
    List.sort
      (fun a b -> compare (span_id a) (span_id b))
      all
  in
  Out_channel.with_open_bin "serve_smoke_trace.jsonl" (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) sorted);
  Printf.printf
    "serve_smoke: wrote %d span(s) from 2 traced requests to \
     serve_smoke_trace.jsonl\n%!"
    (List.length sorted);

  (* -------------------------------------------------------------- *)
  (* Phase 4: metrics surface, then drain via a shutdown request.   *)

  let c = connect () in
  let m = Client.rpc c (Client.request ~id:700 ~cmd:"metrics" []) in
  let _, _, _, dump = check_ok "metrics" m in
  List.iter
    (fun key ->
      try ignore (Str.search_forward (Str.regexp_string key) dump 0)
      with Not_found -> fail "metrics dump missing %S" key)
    [
      "server.requests"; "server.queue_depth"; "pool.shared.submitted";
      "pool.shared.completed"; "compile_cache.hits";
      "compile_cache.tenant.conn0.hits"; "compile_cache.tenant.warm.hits";
      "range.bound"; "range.split";
    ];
  let stop = Client.rpc c (Client.request ~id:701 ~cmd:"shutdown" []) in
  ignore (check_ok "shutdown" stop);
  Client.close c;
  let _, status = Unix.waitpid [] pid in
  reaped := true;
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> fail "daemon exited with %d after drain" n
  | _ -> fail "daemon killed by signal");
  print_endline "serve_smoke: OK — daemon drained cleanly (exit 0)"
