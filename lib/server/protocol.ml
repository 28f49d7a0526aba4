module Batch = Cheffp_ir.Batch
module Export = Cheffp_obs.Export
module Trace = Cheffp_obs.Trace
module Compile_cache = Cheffp_ir.Compile_cache

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

(* Request fields mirror the CLI flags one-to-one (same names, same
   defaults, same string syntax for arguments and demotions), so a
   request is exactly "a CLI invocation as an object" — the handlers
   run the same code paths and the bit-identity harness compares the
   two directly. *)
type request = {
  id : int;
  cmd : cmd;
  program : string;
  func : string;
  args : string list;  (* positional, arrays as v1:v2:... *)
  threshold : float option;
  target : string;
  model : string;
  demote : string list;  (* var:fmt *)
  mode : string;
  margin : float;
  strategy : string;
  prune_margin : float;
  profiled : bool;
  jobs : int;
  batch : int;
  no_batch : bool;
  tenant : string option;
  priority : int;
  deadline_ms : float option;
  trace : bool;
  format : string;  (* metrics exposition: "dump" (default) | "prometheus" *)
  limit : int;  (* traces: max slowest trees returned; 0 = all retained *)
  samples : int;  (* sample/search: Monte-Carlo input count; 0 = off *)
  dist : string option;  (* per-variable distribution spec, CLI --dist *)
  target_quantile : float;  (* search: quantile the threshold applies to *)
  seed : int;  (* sampling seed *)
  box : string option;  (* range: box override spec, CLI --box *)
  range_backend : string;  (* range: "bb" (default) | "whole" *)
}

(* [jobs] reaches [Pool.parallel_map] inside a shared worker, which
   spawns [jobs - 1] domains per call; past the cores the host has,
   more only fail to spawn or contend. The core count is a system call,
   so the default of 1 skips it. *)
let clamp_jobs j =
  if j <= 1 then 1 else min j (Domain.recommended_domain_count ())

let parse_request line =
  match Json.of_string line with
  | exception Json.Parse_error m -> Error ("bad JSON: " ^ m)
  | j -> (
      let str k d = Option.value ~default:d (Json.to_string_opt (Json.member k j)) in
      let int k d = Option.value ~default:d (Json.to_int_opt (Json.member k j)) in
      let flt k d = Option.value ~default:d (Json.to_float_opt (Json.member k j)) in
      let flag k d = Option.value ~default:d (Json.to_bool_opt (Json.member k j)) in
      match Json.to_int_opt (Json.member "id" j) with
      | None -> Error "missing request id"
      | Some id -> (
          match cmd_of_string (str "cmd" "") with
          | None -> Error (Printf.sprintf "request %d: unknown cmd %S" id (str "cmd" ""))
          | Some cmd ->
              Ok
                {
                  id;
                  cmd;
                  program = str "program" "";
                  func = str "func" "";
                  args = Json.string_list (Json.member "args" j);
                  threshold = Json.to_float_opt (Json.member "threshold" j);
                  target = str "target" "f32";
                  model = str "model" "adapt";
                  demote = Json.string_list (Json.member "demote" j);
                  mode = str "mode" "extended";
                  margin = flt "margin" 1.0;
                  strategy = str "strategy" "hybrid";
                  prune_margin = flt "prune_margin" 64.;
                  profiled = flag "profiled" false;
                  jobs = clamp_jobs (int "jobs" 1);
                  batch = int "batch" Batch.default_lanes;
                  no_batch = flag "no_batch" false;
                  tenant = Json.to_string_opt (Json.member "tenant" j);
                  priority = int "priority" 0;
                  deadline_ms = Json.to_float_opt (Json.member "deadline_ms" j);
                  trace = flag "trace" false;
                  format = str "format" "dump";
                  limit = int "limit" 0;
                  samples = int "samples" 0;
                  dist = Json.to_string_opt (Json.member "dist" j);
                  target_quantile = flt "target_quantile" 0.99;
                  seed = int "seed" 42;
                  box = Json.to_string_opt (Json.member "box" j);
                  range_backend = str "range_backend" "bb";
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
