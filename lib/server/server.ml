(* The [cheffp serve] daemon (DESIGN.md §13): newline-delimited JSON
   over a Unix or loopback TCP socket, one systhread per connection for
   I/O, every request executed as a task on one shared
   {!Cheffp_util.Pool.Shared} domain pool. Handlers run the same code
   paths as the CLI subcommands on a single long-lived builtins/deriv
   registry pair, so results are bit-identical to one-shot runs and
   compilations cached by one request are hits for every later one.
   The daemon also caches its own work in the compile cache: the parsed
   program of each request text and the analysis of each [analyze]. *)

open Cheffp_ir
module Config = Cheffp_precision.Config
module Fp = Cheffp_precision.Fp
module Pool = Cheffp_util.Pool
module Trace = Cheffp_obs.Trace
module Metrics = Cheffp_obs.Metrics
module Export = Cheffp_obs.Export
module Window = Cheffp_obs.Window
module Tail = Cheffp_obs.Tail
module Estimate = Cheffp_core.Estimate
module Model = Cheffp_core.Model
module Report = Cheffp_core.Report
module Tuner = Cheffp_core.Tuner
module Search = Cheffp_core.Search
module Profile = Cheffp_core.Profile
module Sampling = Cheffp_core.Sampling
module Quantile = Cheffp_core.Quantile
module Shadow = Cheffp_shadow.Shadow
module Oracle = Cheffp_shadow.Oracle
module Range = Cheffp_range.Range
module Rbox = Cheffp_range.Box
module Rinterval = Cheffp_range.Interval

type listen = Unix_socket of string | Tcp of int

type t = {
  pool : Pool.Shared.t;
  fd : Unix.file_descr;
  listen : listen;
  port : int option;  (* resolved, for Tcp 0 *)
  builtins : Builtins.t;
  deriv : Cheffp_ad.Deriv.t;
  max_pending : int;
  telemetry : bool;
  stop_requested : bool Atomic.t;
  conns_m : Mutex.t;
  conns_cv : Condition.t;
  mutable conns : int;
}

(* ------------------------------------------------------------------ *)
(* CLI-equivalent helpers. These mirror bin/cheffp.ml exactly — same
   parsing, same defaults — which is what makes a server response
   bit-identical to the corresponding one-shot invocation. Positional
   arguments go through the parser both share, [Interp.parse_args]. *)

let target_of s =
  match Fp.format_of_string s with
  | Some f -> f
  | None -> failwith ("unknown format " ^ s)

let model_of_string target = function
  | "taylor" -> Model.taylor ~target ()
  | "adapt" -> Model.adapt ~target ()
  | "zero" -> Model.zero
  | other -> failwith ("unknown model " ^ other ^ " (taylor|adapt|zero)")

let parse_config demote =
  List.fold_left
    (fun cfg spec ->
      match String.split_on_char ':' spec with
      | [ var; fmt ] -> (
          match Fp.format_of_string fmt with
          | Some f -> Config.demote cfg var f
          | None -> failwith ("unknown format " ^ fmt))
      | _ -> failwith ("bad demotion spec " ^ spec ^ " (expected var:fmt)"))
    Config.double demote

let batch_of (req : Protocol.request) =
  if req.no_batch || req.batch < 2 then None else Some req.batch

let strategy_of s =
  match Search.strategy_of_string s with
  | Some st -> st
  | None -> failwith ("unknown strategy " ^ s ^ " (measured|modelled|hybrid)")

let require_threshold (req : Protocol.request) =
  match req.threshold with
  | Some t -> t
  | None ->
      failwith (Protocol.cmd_name req.cmd ^ ": missing \"threshold\" field")

(* The daemon's own entries in the compile cache, scoped to its
   registry like every other entry: the parsed, typechecked program of
   a request text, and an [analyze] request's analysis. *)
type Compile_cache.artifact +=
  | Program of Ast.program
  | Analysis of Estimate.t

(* A request text is parsed and typechecked once per daemon: the
   program is cached under the MD5 of the text, and every request on
   the same text shares it (programs are immutable once parsed). A
   parse or type error raises out of [build], so it is never cached.
   Returns the text's digest too, for keys derived from it. Args are
   parsed fresh per request — [Interp.Afarr] buffers are mutated in
   place by runs, so they must never be shared. *)
let load_text t src =
  if String.trim src = "" then failwith "missing \"program\" field";
  let digest = Digest.to_hex (Digest.string src) in
  let prog =
    Compile_cache.lookup_or ~key:("program|" ^ digest) ~label:"program"
      ~builtins:(Some t.builtins)
      ~select:(function Program p -> Some p | _ -> None)
      ~inject:(fun p -> Program p)
      ~build:(fun () ->
        let prog =
          Trace.with_span "parse" (fun () -> Parser.parse_program src)
        in
        Trace.with_span "typecheck" (fun () ->
            Typecheck.check_program ~builtins:t.builtins prog);
        prog)
  in
  (digest, prog)

let load t src = snd (load_text t src)

(* ------------------------------------------------------------------ *)
(* Handlers: each returns (structured result, rendered report). *)

let pairs l =
  Json.List
    (List.map
       (fun (n, e) -> Json.Obj [ ("var", Json.Str n); ("error", Json.Num e) ])
       l)

let strings l = Json.List (List.map (fun s -> Json.Str s) l)

(* The analysis (AD, error injection, optimisation, typecheck and
   compile) is built once per (text, func, model, target): the handler
   fixes the options, the registry and the derivative table, so that
   key is complete. Keying on the text digest keeps pretty-printing out
   of the miss path. [Estimate.run] records into a sink of its own, so
   concurrent requests share one analysis. *)
let handle_analyze t (req : Protocol.request) =
  let digest, prog = load_text t req.program in
  let f = Ast.func_exn prog req.func in
  let target = target_of req.target in
  let model = model_of_string target req.model in
  let est =
    Compile_cache.lookup_or
      ~key:
        (Printf.sprintf "analysis|%s|%s|%s|%s" digest req.func
           model.Model.model_name (Fp.format_to_string target))
      ~label:req.func ~builtins:(Some t.builtins)
      ~select:(function Analysis e -> Some e | _ -> None)
      ~inject:(fun e -> Analysis e)
      ~build:(fun () ->
        Estimate.estimate_error ~model ~deriv:t.deriv ~builtins:t.builtins
          ~options:{ Estimate.default_options with track_ranges = true }
          ~prog ~func:req.func ())
  in
  let args = Interp.parse_args f req.args in
  let r = Estimate.run est args in
  ( Json.Obj
      [
        ("model", Json.Str model.Model.model_name);
        ("total_error", Json.Num r.Estimate.total_error);
        ("per_variable", pairs r.Estimate.per_variable);
        ("gradients", pairs r.Estimate.gradients);
      ],
    Printf.sprintf "model: %s\n" model.Model.model_name
    ^ Report.estimate r )

let handle_tune t (req : Protocol.request) =
  let threshold = require_threshold req in
  let prog = load t req.program in
  let f = Ast.func_exn prog req.func in
  let args = Interp.parse_args f req.args in
  let target = target_of req.target in
  let profile =
    if req.profiled then
      Some (Profile.build_cached ~builtins:t.builtins ~prog ~func:req.func ~args ())
    else None
  in
  let o =
    Tuner.tune ?profile ~target ~builtins:t.builtins ~jobs:req.jobs
      ?batch:(batch_of req) ~prog ~func:req.func ~args ~threshold ()
  in
  ( Json.Obj
      [
        ("demoted", strings o.Tuner.demoted);
        ("vetoed", strings o.Tuner.vetoed);
        ("estimated_error", Json.Num o.Tuner.estimated_error);
        ("actual_error", Json.Num o.Tuner.evaluation.Tuner.actual_error);
        ("modelled_speedup", Json.Num o.Tuner.evaluation.Tuner.modelled_speedup);
        ("casts", Json.Num (float_of_int o.Tuner.evaluation.Tuner.casts));
        ("config", Json.Str (Config.to_string o.Tuner.evaluation.Tuner.config));
      ],
    Report.tuning o )

(* The request's sampling plan: explicit [dist] entries win, the rest
   of the float parameters take the default box around the base args
   (server programs are MiniFP source, so there is no [:pre] range to
   fall back on). *)
let sampling_plan (req : Protocol.request) f args =
  let dists =
    match req.dist with
    | Some s -> Sampling.dists_of_string s
    | None -> []
  in
  Sampling.plan ~dists ~func:f ~args ()

(* Per-request sample attribution: the response carries its own sample
   count, and tenants accumulate a [server.tenant.<t>.samples] counter
   next to their compile-cache hit rates. *)
let attribute_samples (req : Protocol.request) n =
  if Trace.enabled () then Trace.add_attr "samples" (Trace.Int n);
  Option.iter
    (fun tenant ->
      Metrics.add
        (Metrics.counter
           (Printf.sprintf "server.tenant.%s.samples" tenant))
        n)
    req.tenant

let handle_sample t (req : Protocol.request) =
  if req.samples < 1 then failwith "sample: \"samples\" must be >= 1";
  let prog = load t req.program in
  let f = Ast.func_exn prog req.func in
  let args = Interp.parse_args f req.args in
  let config = parse_config req.demote in
  let plan = sampling_plan req f args in
  let inputs =
    Sampling.draw_many plan ~seed:(Int64.of_int req.seed) req.samples
  in
  attribute_samples req req.samples;
  let lanes = batch_of req in
  let summary, _ =
    Sampling.measured_summary ~jobs:req.jobs ?lanes ~builtins:t.builtins
      ~prog ~func:req.func ~config inputs
  in
  let described = Sampling.describe plan in
  ( Json.Obj
      [
        ("func", Json.Str req.func);
        ("config", Json.Str (Config.to_string config));
        ("samples", Json.Num (float_of_int summary.Quantile.count));
        ("seed", Json.Num (float_of_int req.seed));
        ( "plan",
          Json.List
            (List.map
               (fun (v, d) ->
                 Json.Obj [ ("var", Json.Str v); ("dist", Json.Str d) ])
               described) );
        ("p50", Json.Num summary.Quantile.p50);
        ("p95", Json.Num summary.Quantile.p95);
        ("p99", Json.Num summary.Quantile.p99);
        ("max", Json.Num summary.Quantile.max);
        ("mean", Json.Num summary.Quantile.mean);
      ],
    Report.sampled ~plan:described summary )

let handle_search t (req : Protocol.request) =
  let threshold = require_threshold req in
  let prog = load t req.program in
  let f = Ast.func_exn prog req.func in
  let args = Interp.parse_args f req.args in
  let target = target_of req.target in
  let measure config =
    Shadow.measured_error
      (Shadow.run ~builtins:t.builtins ~config ~mode:Config.Source ~prog
         ~func:req.func (Interp.copy_args args))
  in
  let sampling =
    if req.samples > 0 then begin
      let plan = sampling_plan req f args in
      attribute_samples req req.samples;
      Some
        {
          Search.inputs =
            Sampling.draw_many plan ~seed:(Int64.of_int req.seed) req.samples;
          quantile = req.target_quantile;
        }
    end
    else None
  in
  let o =
    Search.tune ~target ~builtins:t.builtins ~jobs:req.jobs
      ~strategy:(strategy_of req.strategy) ~prune_margin:req.prune_margin
      ?batch:(batch_of req) ?sampling ~measure ~prog ~func:req.func ~args
      ~threshold ()
  in
  ( Json.Obj
      [
        ("demoted", strings o.Search.demoted);
        ("executions", Json.Num (float_of_int o.Search.executions));
        ("batched_runs", Json.Num (float_of_int o.Search.batched_runs));
        ("runs_avoided", Json.Num (float_of_int o.Search.runs_avoided));
        ("samples", Json.Num (float_of_int o.Search.samples));
        ("strategy", Json.Str (Search.strategy_name o.Search.strategy));
        ("modelled_error", Json.Num o.Search.modelled_error);
        ( "measured_error",
          match o.Search.measured_error with
          | Some e -> Json.Num e
          | None -> Json.Null );
        ("actual_error", Json.Num o.Search.evaluation.Tuner.actual_error);
        ("modelled_speedup", Json.Num o.Search.evaluation.Tuner.modelled_speedup);
        ("config", Json.Str (Config.to_string o.Search.evaluation.Tuner.config));
      ],
    Report.search o )

let handle_validate t (req : Protocol.request) =
  let prog = load t req.program in
  let f = Ast.func_exn prog req.func in
  let args = Interp.parse_args f req.args in
  let config = parse_config req.demote in
  let mode =
    match req.mode with
    | "extended" -> Config.Extended
    | "source" -> Config.Source
    | other -> failwith ("unknown mode " ^ other ^ " (extended|source)")
  in
  let v =
    Oracle.check_estimate ~builtins:t.builtins ~mode ~margin:req.margin
      ~fuel:(-1) ~prog ~func:req.func ~config args
  in
  ( Json.Obj
      [
        ("sound", Json.Bool v.Oracle.sound);
        ("measured_error", Json.Num v.Oracle.measured_error);
        ("modelled_error", Json.Num v.Oracle.modelled_error);
        ("bound", Json.Num v.Oracle.bound);
        ("demotion_error", Json.Num v.Oracle.demotion_error);
        ("inherent_error", Json.Num v.Oracle.inherent_error);
        ( "tightness",
          match v.Oracle.tightness with
          | Some x -> Json.Num x
          | None -> Json.Null );
      ],
    Oracle.render v )

(* Rigorous range bounds (DESIGN.md §17). Server programs are MiniFP
   source, so the analysis box is the default box around the base args
   with the request's [box] override on top — exactly the CLI's
   [analyze --range --box SPEC] path. [range.bound] counts certified
   analyses, [range.split] the branch-and-bound boxes they cost. *)

let range_bound_c = Metrics.counter "range.bound"
let range_split_c = Metrics.counter "range.split"

let handle_range t (req : Protocol.request) =
  let prog = load t req.program in
  let f = Ast.func_exn prog req.func in
  let args = Interp.parse_args f req.args in
  let target = target_of req.target in
  let box = Rbox.of_args ~func:f ~args () in
  let box =
    match req.box with
    | Some spec -> Rbox.apply_override box (Rbox.override_of_string spec)
    | None -> box
  in
  let a =
    Trace.with_span "range.analyze" (fun () ->
        Range.analyze ~backend:req.range_backend ~builtins:t.builtins ~prog
          ~func:req.func ~box ())
  in
  Metrics.incr range_bound_c;
  Metrics.add range_split_c a.Range.splits;
  if Trace.enabled () then begin
    Trace.add_attr "range.splits" (Trace.Int a.Range.splits);
    Trace.add_attr "range.evals" (Trace.Int a.Range.evals);
    Trace.add_attr "range.verdict"
      (Trace.Str (Range.verdict_to_string a.Range.verdict))
  end;
  let vars = Range.charged_vars a in
  ( Json.Obj
      [
        ("func", Json.Str req.func);
        ("backend", Json.Str a.Range.backend);
        ("verdict", Json.Str (Range.verdict_to_string a.Range.verdict));
        ( "bound",
          if Float.is_finite a.Range.worst_bound then
            Json.Num a.Range.worst_bound
          else Json.Null );
        ( "bound_at_target",
          match Range.score a ~target vars with
          | Some b -> Json.Num b
          | None -> Json.Null );
        ("target", Json.Str (Fp.format_to_string target));
        ("charged_vars", strings vars);
        ( "value",
          match a.Range.value with
          | Some iv ->
              let lo, hi = Rinterval.to_pair iv in
              Json.List [ Json.Num lo; Json.Num hi ]
          | None -> Json.Null );
        ("box", Json.Str (Rbox.to_string a.Range.box));
        ("witness", Json.Str (Rbox.to_string a.Range.witness));
        ("splits", Json.Num (float_of_int a.Range.splits));
        ("evals", Json.Num (float_of_int a.Range.evals));
        ("elapsed_ms", Json.Num a.Range.elapsed_ms);
      ],
    Range.report ~target a )

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
  let shard_json =
    Json.List
      (Array.to_list
         (Array.map
            (fun (size, cap) ->
              Json.Obj
                [
                  ("size", Json.Num (float_of_int size));
                  ("cap", Json.Num (float_of_int cap));
                ])
            (Compile_cache.shard_sizes ())))
  in
  let tenants =
    match w with
    | Some s ->
        Json.List
          (List.map
             (fun (tenant, rate, lookups) ->
               Json.Obj
                 [
                   ("tenant", Json.Str tenant);
                   ("hit_rate", Json.Num rate);
                   ("lookups", Json.Num (float_of_int lookups));
                 ])
             (Window.tenant_hit_rates s))
    | None -> Json.List []
  in
  let offenders =
    let slow = Tail.slowest () in
    let slow =
      if req.limit > 0 then List.filteri (fun i _ -> i < req.limit) slow
      else slow
    in
    Json.List (List.map tail_summary slow)
  in
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
                if wlookups > 0. then Json.Num (whits /. wlookups)
                else Json.Null );
              ("shards", shard_json);
            ] );
        ("tenants", tenants);
        ( "tail",
          Json.Obj
            [
              ("slowest", offenders);
              ( "errors_retained",
                Json.Num (float_of_int (List.length (Tail.errors ()))) );
              ("errors_total", Json.Num (float_of_int (Tail.error_count ())));
            ] );
      ],
    Printf.sprintf
      "window %.1fs: %.1f req/s, %d in window, utilization %.2f\n" span_s
      req_rate (int_of_float req_delta) util )

let handle_traces (req : Protocol.request) =
  let slow = Tail.slowest () in
  let slow =
    if req.limit > 0 then List.filteri (fun i _ -> i < req.limit) slow
    else slow
  in
  let errors = Tail.errors () in
  ( Json.Obj
      [
        ("slowest", Json.List (List.map tail_tree slow));
        ("errors", Json.List (List.map tail_tree errors));
        ("errors_total", Json.Num (float_of_int (Tail.error_count ())));
      ],
    Printf.sprintf "%d slow trace(s), %d error trace(s) retained\n"
      (List.length slow) (List.length errors) )

(* A compiled run's failure names the generated function and gives no
   index. The request's arguments, parsed afresh from its strings (so
   pristine), re-run through the interpreter on the source function,
   whose message is located ([Interp.locate]). [load] and [parse_args]
   succeeded before any run could fail, and [load] is now a hit. *)
let located t (req : Protocol.request) handle =
  try handle t req
  with Interp.Runtime_error m ->
    let prog = load t req.program in
    let args = Interp.parse_args (Ast.func_exn prog req.func) req.args in
    raise
      (Interp.Runtime_error
         (Interp.locate ~builtins:t.builtins ~prog ~func:req.func args m))

let dispatch t (req : Protocol.request) =
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
  | Protocol.Analyze -> located t req handle_analyze
  | Protocol.Tune -> located t req handle_tune
  | Protocol.Search -> located t req handle_search
  | Protocol.Sample -> located t req handle_sample
  | Protocol.Validate -> handle_validate t req
  | Protocol.Range -> handle_range t req

(* Same error surface as the CLI's [wrap]. *)
let error_message = function
  | Failure m
  | Parser.Error m
  | Lexer.Error m
  | Typecheck.Error m
  | Interp.Runtime_error m
  | Estimate.Error m
  | Sampling.Spec_error m
  | Rbox.Spec_error m
  | Cheffp_ad.Reverse.Error m
  | Invalid_argument m
  | Sys_error m ->
      m
  | e -> Printexc.to_string e

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
  let builtins = Builtins.create () in
  Cheffp_fastapprox.Fastapprox.register_builtins builtins;
  let deriv = Cheffp_ad.Deriv.default () in
  Cheffp_fastapprox.Fastapprox.register_derivatives deriv;
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
    builtins;
    deriv;
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
  Compile_cache.drop_builtins t.builtins;
  if t.telemetry then Window.stop ();
  match t.listen with
  | Unix_socket path -> ( try Sys.remove path with Sys_error _ -> ())
  | Tcp _ -> ()
