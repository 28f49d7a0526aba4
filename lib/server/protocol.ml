module Export = Cheffp_obs.Export

type cmd =
  | Ping
  | Analyze
  | Tune
  | Search
  | Sample
  | Validate
  | Range
  | Metrics
  | Stats
  | Traces
  | Shutdown

let cmd_name = function
  | Ping -> "ping"
  | Analyze -> "analyze"
  | Tune -> "tune"
  | Search -> "search"
  | Sample -> "sample"
  | Validate -> "validate"
  | Range -> "range"
  | Metrics -> "metrics"
  | Stats -> "stats"
  | Traces -> "traces"
  | Shutdown -> "shutdown"

let cmd_of_string = function
  | "ping" -> Some Ping
  | "analyze" -> Some Analyze
  | "tune" -> Some Tune
  | "search" -> Some Search
  | "sample" -> Some Sample
  | "validate" -> Some Validate
  | "range" -> Some Range
  | "metrics" -> Some Metrics
  | "stats" -> Some Stats
  | "traces" -> Some Traces
  | "shutdown" -> Some Shutdown
  | _ -> None

(* The envelope of one request: its routing and scheduling fields, and
   the command itself as an [Api.request]. A command field has the
   name, default and string syntax of its CLI flag, and the same
   handler runs it ([Api]), so a request is a CLI invocation as an
   object. *)
type request = {
  id : int;
  cmd : cmd;
  tenant : string option;
  priority : int;
  deadline_ms : float option;
  trace : bool;
  format : string;  (* metrics exposition: "dump" (default) | "prometheus" *)
  limit : int;  (* traces: max slowest trees returned; 0 = all retained *)
  api : Api.request;
}

let parse_request line =
  match Json.of_string line with
  | exception Json.Parse_error m -> Error ("bad JSON: " ^ m)
  | j -> (
      let field k = Json.member k j in
      let str k d = Option.value ~default:d (Json.to_string_opt (field k)) in
      let int k d = Option.value ~default:d (Json.to_int_opt (field k)) in
      let flt k d = Option.value ~default:d (Json.to_float_opt (field k)) in
      let flag k d = Option.value ~default:d (Json.to_bool_opt (field k)) in
      let d = Api.default in
      match Json.to_int_opt (field "id") with
      | None -> Error "missing request id"
      | Some id -> (
          match cmd_of_string (str "cmd" "") with
          | None -> Error (Printf.sprintf "request %d: unknown cmd %S" id (str "cmd" ""))
          | Some cmd ->
              Ok
                {
                  id;
                  cmd;
                  tenant = Json.to_string_opt (field "tenant");
                  priority = int "priority" 0;
                  deadline_ms = Json.to_float_opt (field "deadline_ms");
                  trace = flag "trace" false;
                  format = str "format" "dump";
                  limit = int "limit" 0;
                  api =
                    {
                      d with
                      program = str "program" d.program;
                      func = str "func" d.func;
                      args = Json.string_list (field "args");
                      threshold = Json.to_float_opt (field "threshold");
                      target = str "target" d.target;
                      model = str "model" d.model;
                      demote = Json.string_list (field "demote");
                      mode = str "mode" d.mode;
                      margin = flt "margin" d.margin;
                      strategy = str "strategy" d.strategy;
                      prune_margin = flt "prune_margin" d.prune_margin;
                      profiled = flag "profiled" d.profiled;
                      jobs = int "jobs" d.jobs;
                      batch = int "batch" d.batch;
                      no_batch = flag "no_batch" d.no_batch;
                      samples = int "samples" d.samples;
                      dist = Json.to_string_opt (field "dist");
                      target_quantile = flt "target_quantile" d.target_quantile;
                      seed = int "seed" d.seed;
                      box = Json.to_string_opt (field "box");
                      range_backend = str "range_backend" d.range_backend;
                    };
                }))

(* Responses. [spans] are pre-rendered {!Cheffp_obs.Export} JSON lines
   carried as strings: span timestamps are int64 nanoseconds, which do
   not survive a trip through a float-backed JSON number, so the server
   never re-parses them — clients write the lines verbatim to get a
   file [validate_trace] accepts. *)

type cache_summary = { c_hits : int; c_misses : int }

let ok_response ~id ~cmd ~queue_wait_ms ~elapsed_ms ~cache ~spans ~report
    result =
  Json.Obj
    ([
       ("id", Json.Num (float_of_int id));
       ("cmd", Json.Str (cmd_name cmd));
       ("ok", Json.Bool true);
       ("result", result);
       ("report", Json.Str report);
       ("queue_wait_ms", Json.Num queue_wait_ms);
       ("elapsed_ms", Json.Num elapsed_ms);
       ( "cache",
         Json.Obj
           [
             ("hits", Json.Num (float_of_int cache.c_hits));
             ("misses", Json.Num (float_of_int cache.c_misses));
           ] );
     ]
    @
    match spans with
    | [] -> []
    | spans ->
        [
          ( "spans",
            Json.List
              (List.map (fun s -> Json.Str (Export.span_to_json s)) spans) );
        ])

let error_response ~id msg =
  Json.Obj
    [
      ("id", Json.Num (float_of_int id));
      ("ok", Json.Bool false);
      ("error", Json.Str msg);
    ]
