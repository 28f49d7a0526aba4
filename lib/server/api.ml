(* The command layer shared by bin/cheffp.ml and the daemon (DESIGN.md
   §13). A command is a [request] of strings; [decode] turns its option
   values into typed ones before anything runs, and one handler per
   command returns the daemon's result object and the CLI's report. *)

open Cheffp_ir
open Cheffp_core
module Fp = Cheffp_precision.Fp
module Config = Cheffp_precision.Config
module Trace = Cheffp_obs.Trace
module Metrics = Cheffp_obs.Metrics
module Oracle = Cheffp_shadow.Oracle
module Range = Cheffp_range.Range
module Rbox = Cheffp_range.Box
module Import = Cheffp_fpcore.Import

exception Usage of string

let usage m = raise (Usage m)

type request = {
  program : string;
  file : string option;
  fpcore : bool;
  func : string;
  args : string list;
  threshold : float option;
  target : string;
  model : string;
  demote : string list;
  mode : string;
  margin : float;
  fuel : int;
  strategy : string;
  prune_margin : float;
  profiled : bool;
  emit : bool;
  show_code : bool;
  jobs : int;
  batch : int;
  no_batch : bool;
  samples : int;
  dist : string option;
  seed : int;
  target_quantile : float;
  range : bool;
  box : string option;
  range_backend : string;
}

let default =
  {
    program = "";
    file = None;
    fpcore = false;
    func = "";
    args = [];
    threshold = None;
    target = "f32";
    model = "adapt";
    demote = [];
    mode = "extended";
    margin = 1.0;
    fuel = -1;
    strategy = "hybrid";
    prune_margin = 64.;
    profiled = false;
    emit = false;
    show_code = false;
    jobs = 1;
    batch = Batch.default_lanes;
    no_batch = false;
    samples = 0;
    dist = None;
    seed = 42;
    target_quantile = 0.99;
    range = false;
    box = None;
    range_backend = "bb";
  }

type session = { builtins : Builtins.t; deriv : Cheffp_ad.Deriv.t }

let session () =
  let builtins = Builtins.create () in
  Cheffp_fastapprox.Fastapprox.register_builtins builtins;
  let deriv = Cheffp_ad.Deriv.default () in
  Cheffp_fastapprox.Fastapprox.register_derivatives deriv;
  { builtins; deriv }

type options = {
  target : Fp.format;
  model : Model.t Lazy.t;
  config : Config.t;
  mode : Config.rounding_mode;
  strategy : Search.strategy;
  batch : int option;
  jobs : int;
  dists : (string * Sampling.dist) list;
  box : (string * Cheffp_range.Interval.t) list option;
}

let format_of s =
  match Fp.format_of_string s with
  | Some f -> f
  | None -> usage ("unknown format " ^ s)

(* The model is built lazily: [Model.adapt] rejects an f64 target, which
   the commands that build no adapt model may ask for ([narrow]). [jobs]
   becomes the domain
   count of [Pool.parallel_map], which spawns [jobs - 1] domains per
   call; past the host's cores more only fail to spawn or contend. *)
let decode (r : request) =
  let target = format_of r.target in
  let model =
    match r.model with
    | "taylor" -> lazy (Model.taylor ~target ())
    | "adapt" -> lazy (Model.adapt ~target ())
    | "zero" -> lazy Model.zero
    | other -> usage ("unknown model " ^ other ^ " (taylor|adapt|zero)")
  in
  let demote cfg spec =
    match String.split_on_char ':' spec with
    | [ var; fmt ] -> Config.demote cfg var (format_of fmt)
    | _ -> usage ("bad demotion spec " ^ spec ^ " (expected var:fmt)")
  in
  let config = List.fold_left demote Config.double r.demote in
  let mode =
    match r.mode with
    | "extended" -> Config.Extended
    | "source" -> Config.Source
    | other -> usage ("unknown mode " ^ other ^ " (extended|source)")
  in
  let strategy =
    match Search.strategy_of_string r.strategy with
    | Some s -> s
    | None ->
        usage ("unknown strategy " ^ r.strategy ^ " (measured|modelled|hybrid)")
  in
  if Cheffp_range.Backend.of_name r.range_backend = None then
    usage ("unknown range backend " ^ r.range_backend ^ " (bb|whole)");
  if not (r.prune_margin >= 1.) then
    usage (Printf.sprintf "bad prune margin %g (expected >= 1)" r.prune_margin);
  if not (r.target_quantile >= 0. && r.target_quantile <= 1.) then
    usage
      (Printf.sprintf "bad target quantile %g (expected [0, 1])"
         r.target_quantile);
  {
    target;
    model;
    config;
    mode;
    strategy;
    batch = (if r.no_batch || r.batch < 2 then None else Some r.batch);
    jobs = (if r.jobs <= 1 then 1 else min r.jobs (Domain.recommended_domain_count ()));
    dists = Option.fold ~none:[] ~some:Sampling.dists_of_string r.dist;
    box = Option.map Rbox.override_of_string r.box;
  }

(* The commands that build [Model.adapt] — analyze with the adapt model,
   tune without a profile — need a target narrower than binary64. *)
let narrow (r : request) =
  if Fp.equal_format (format_of r.target) Fp.F64 then
    usage "the adapt model needs a target narrower than f64 (f32|f16)"

type source = { key : string; prog : Ast.program; kernels : Import.core list }

(* This layer's compile-cache entries, scoped to the session's registry
   like every other entry: a loaded text, and an analyze request's
   analysis. *)
type Compile_cache.artifact += Source of source | Analysis of Estimate.t

(* Programs are immutable once parsed, so every request on the same
   text shares one. A parse or type error raises out of [build], so it
   is never cached. *)
let load s ?file ~fpcore text =
  let kind = if fpcore then "fpcore|" else "program|" in
  let key = kind ^ Digest.to_hex (Digest.string text) in
  Compile_cache.lookup_or ~key ~label:"program" ~builtins:(Some s.builtins)
    ~select:(function Source src -> Some src | _ -> None)
    ~inject:(fun src -> Source src)
    ~build:(fun () ->
      let front name parse =
        Trace.with_span name (fun () ->
            if Trace.enabled () then
              Option.iter (fun f -> Trace.add_attr "file" (Trace.Str f)) file;
            parse text)
      in
      let prog, kernels =
        if fpcore then
          let cores = front "import" (Import.parse_string ?file) in
          (Import.program cores, cores)
        else (front "parse" Parser.parse_program, [])
      in
      Trace.with_span "typecheck" (fun () ->
          Typecheck.check_program ~builtins:s.builtins prog);
      { key; prog; kernels })

let func_exn prog name =
  match Ast.find_func prog name with
  | Some f -> f
  | None -> failwith (Printf.sprintf "no function named %S" name)

let located s ~prog ~func args f =
  try f ()
  with Interp.Runtime_error m ->
    raise
      (Interp.Runtime_error
         (Interp.locate ~builtins:s.builtins ~prog ~func (args ()) m))

let input_error = function
  | Failure m
  | Parser.Error m
  | Lexer.Error m
  | Typecheck.Error m
  | Interp.Runtime_error m
  | Estimate.Error m
  | Sampling.Spec_error m
  | Cheffp_ad.Reverse.Error m
  | Rbox.Spec_error m
  | Cheffp_fpcore.Sexp.Error m
  | Import.Error m
  | Cheffp_fpcore.Export.Error m
  | Sys_error m ->
      Some m
  | _ -> None

(* What every command starts from: the decoded request, its program, the
   target function and, for FPCore text, its kernel. *)
type job = {
  r : request;
  o : options;
  src : source;
  f : Ast.func;
  kernel : Import.core option;
}

let job s r =
  let o = decode r in
  let src = load s ?file:r.file ~fpcore:r.fpcore r.program in
  let f = func_exn src.prog r.func in
  { r; o; src; f; kernel = Import.find src.kernels r.func }

(* Positional arguments beat an FPCore kernel's [:pre] sample point.
   Parsed afresh per call: runs mutate array arguments in place. *)
let args j =
  match (j.r.args, j.kernel) with
  | [], Some c -> c.Import.default_args
  | raw, _ -> Interp.parse_args j.f raw

(* [body j args], located on the request's own arguments. *)
let command s r body =
  let j = job s r in
  let first = args j in
  located s ~prog:j.src.prog ~func:r.func (fun () -> args j) (fun () ->
      body j first)

let threshold cmd (r : request) =
  match r.threshold with
  | Some t -> t
  | None -> failwith (cmd ^ ": missing \"threshold\" field")

let ranges j = Option.fold ~none:[] ~some:(fun c -> c.Import.ranges) j.kernel

(* Explicit [dist] entries win, then the kernel's [:pre] box, then the
   default box around the base arguments. *)
let plan j args =
  Sampling.plan ~dists:j.o.dists ~ranges:(ranges j) ~func:j.f ~args ()

let draw j plan =
  Sampling.draw_many plan ~seed:(Int64.of_int j.r.seed) j.r.samples

let sampled plan summary = Report.sampled ~plan:(Sampling.describe plan) summary

(* Rigorous range bounds (DESIGN.md §17). [range.bound] counts certified
   analyses, [range.split] the branch-and-bound boxes they cost. *)
let range_bound_c = Metrics.counter "range.bound"
let range_split_c = Metrics.counter "range.split"

let certify s j box =
  let a =
    Trace.with_span "range.analyze" (fun () ->
        Range.analyze ~backend:j.r.range_backend ~builtins:s.builtins
          ~prog:j.src.prog ~func:j.r.func ~box ())
  in
  Metrics.incr range_bound_c;
  Metrics.add range_split_c a.Range.splits;
  if Trace.enabled () then begin
    Trace.add_attr "range.splits" (Trace.Int a.Range.splits);
    Trace.add_attr "range.evals" (Trace.Int a.Range.evals);
    Trace.add_attr "range.verdict"
      (Trace.Str (Range.verdict_to_string a.Range.verdict))
  end;
  a

(* Explicit range analysis: [:pre] ranges over the default box, [box]
   entries on top. *)
let range_analysis s j args =
  let box = Rbox.of_args ~ranges:(ranges j) ~func:j.f ~args () in
  certify s j (Option.fold ~none:box ~some:(Rbox.apply_override box) j.o.box)

(* A plan's support as a range box: [None] when a draw has unbounded
   support (Normal), where no finite box covers it. *)
let box_of_plan plan =
  let exception Unbounded in
  let interval (lo, hi) = Cheffp_range.Interval.make lo hi in
  let dim = function
    | `Fixed a -> Rbox.Dfixed a
    | `Interval b -> Rbox.Dflt (interval b)
    | `Intervals bs -> Rbox.Dfarr (Array.map interval bs)
    | `Unbounded -> raise Unbounded
  in
  try Some (Rbox.make (List.map (fun (n, v) -> (n, dim v)) (Sampling.box_view plan)))
  with Unbounded -> None

let num n = Json.Num (float_of_int n)
let strings l = Json.List (List.map (fun s -> Json.Str s) l)
let opt_num = function Some x -> Json.Num x | None -> Json.Null

let pairs l =
  Json.List
    (List.map
       (fun (n, e) -> Json.Obj [ ("var", Json.Str n); ("error", Json.Num e) ])
       l)

(* The analysis (AD, error injection, optimisation, typecheck and
   compile) is built once per (text, func, model, target): the options,
   the registry and the derivative table are fixed, so that key is
   complete. [Estimate.run] records into a sink of its own, so
   concurrent requests share one analysis. *)
let analyze s (r : request) =
  if r.model = "adapt" then narrow r;
  command s r @@ fun j args ->
  let model = Lazy.force j.o.model in
  let est =
    Compile_cache.lookup_or
      ~key:
        (Printf.sprintf "analysis|%s|%s|%s|%s" j.src.key r.func
           model.Model.model_name (Fp.format_to_string j.o.target))
      ~label:r.func ~builtins:(Some s.builtins)
      ~select:(function Analysis e -> Some e | _ -> None)
      ~inject:(fun e -> Analysis e)
      ~build:(fun () ->
        Estimate.estimate_error ~model ~deriv:s.deriv ~builtins:s.builtins
          ~options:{ Estimate.default_options with track_ranges = true }
          ~prog:j.src.prog ~func:r.func ())
  in
  let e = Estimate.run est args in
  let code =
    if r.show_code then
      "// generated error-estimating adjoint:\n"
      ^ Pp.func_to_string (Estimate.generated est)
      ^ "\n"
    else ""
  in
  let quantiles =
    if r.samples > 0 then
      let plan = plan j args in
      sampled plan
        (Estimate.run_sampled est ~plan ~seed:(Int64.of_int r.seed)
           ~samples:r.samples)
    else ""
  in
  let bound =
    if r.range then Range.report ~target:j.o.target (range_analysis s j args)
    else ""
  in
  ( Json.Obj
      [
        ("model", Json.Str model.Model.model_name);
        ("total_error", Json.Num e.Estimate.total_error);
        ("per_variable", pairs e.Estimate.per_variable);
        ("gradients", pairs e.Estimate.gradients);
      ],
    String.concat ""
      [ code; "model: " ^ model.Model.model_name ^ "\n"; Report.estimate e;
        quantiles; bound ] )

let tune s (r : request) =
  let threshold = threshold "tune" r in
  if not r.profiled then narrow r;
  command s r @@ fun j args ->
  let prog = j.src.prog and func = r.func and builtins = s.builtins in
  let profile =
    if r.profiled then Some (Profile.build_cached ~builtins ~prog ~func ~args ())
    else None
  in
  let o =
    Tuner.tune ?profile ~target:j.o.target ~builtins ~jobs:j.o.jobs ~prog
      ~func ~args ~threshold ()
  in
  let ev = o.Tuner.evaluation in
  (* Post-hoc distributional check of the chosen configuration: measured
     |demoted - double| quantiles over the sampled input box. *)
  let quantiles =
    if r.samples > 0 then
      let plan = plan j args in
      sampled plan
        (fst
           (Sampling.measured_summary ~jobs:j.o.jobs ~builtins ~prog ~func
              ~config:ev.Tuner.config (draw j plan)))
    else ""
  in
  let emit =
    if r.emit then
      "\n// automatically rewritten mixed-precision source:\n"
      ^ Pp.func_to_string (Rewrite.of_outcome prog ~func o)
      ^ "\n"
    else ""
  in
  ( Json.Obj
      [
        ("demoted", strings o.Tuner.demoted);
        ("vetoed", strings o.Tuner.vetoed);
        ("estimated_error", Json.Num o.Tuner.estimated_error);
        ("actual_error", Json.Num ev.Tuner.actual_error);
        ("modelled_speedup", Json.Num ev.Tuner.modelled_speedup);
        ("casts", num ev.Tuner.casts);
        ("config", Json.Str (Config.to_string ev.Tuner.config));
      ],
    String.concat "" [ Report.tuning o; quantiles; emit ] )

(* Ground truth for the chosen configuration: shadow execution against
   the double-double reference, in Source mode like the search's
   validation. Rigorous pruning ([range]) certifies over the degenerate
   point box, or over the sampling plan's support box. *)
let search s r =
  let threshold = threshold "search" r in
  command s r @@ fun j args ->
  let prog = j.src.prog and func = r.func and builtins = s.builtins in
  let measure config =
    Cheffp_shadow.Shadow.measured_error
      (Cheffp_shadow.Shadow.run ~builtins ~config ~mode:Config.Source ~prog
         ~func (Interp.copy_args args))
  in
  let plan = if r.samples > 0 then Some (plan j args) else None in
  let sampling =
    Option.map
      (fun p -> { Search.inputs = draw j p; quantile = r.target_quantile })
      plan
  in
  let prune_bound =
    (match plan with
    | _ when not r.range -> None
    | None -> Some (Rbox.point_of_args ~func:j.f ~args ())
    | Some p -> box_of_plan p)
    |> Option.map (fun box -> Range.pruner (certify s j box) ~target:j.o.target)
  in
  let o =
    Search.tune ~target:j.o.target ~builtins ~jobs:j.o.jobs
      ~strategy:j.o.strategy ~prune_margin:r.prune_margin ?prune_bound
      ?batch:j.o.batch ?sampling ~measure ~prog ~func ~args ~threshold ()
  in
  let ev = o.Search.evaluation in
  ( Json.Obj
      [
        ("demoted", strings o.Search.demoted);
        ("executions", num o.Search.executions);
        ("batched_runs", num o.Search.batched_runs);
        ("runs_avoided", num o.Search.runs_avoided);
        ("samples", num o.Search.samples);
        ("strategy", Json.Str (Search.strategy_name o.Search.strategy));
        ("modelled_error", Json.Num o.Search.modelled_error);
        ("measured_error", opt_num o.Search.measured_error);
        ("actual_error", Json.Num ev.Tuner.actual_error);
        ("modelled_speedup", Json.Num ev.Tuner.modelled_speedup);
        ("config", Json.Str (Config.to_string ev.Tuner.config));
      ],
    Report.search o )

(* Not located: the oracle's runs are the interpreter's already, and a
   re-run would drop the statement budget. *)
let validate s r =
  let j = job s r in
  let config =
    match (r.demote, j.kernel) with
    | [], Some c -> c.Import.config
    | _ -> j.o.config
  in
  let v =
    Oracle.check_estimate ~builtins:s.builtins ~mode:j.o.mode ~margin:r.margin
      ~fuel:r.fuel ~prog:j.src.prog ~func:r.func ~config (args j)
  in
  ( Json.Obj
      [
        ("sound", Json.Bool v.Oracle.sound);
        ("measured_error", Json.Num v.Oracle.measured_error);
        ("modelled_error", Json.Num v.Oracle.modelled_error);
        ("bound", Json.Num v.Oracle.bound);
        ("demotion_error", Json.Num v.Oracle.demotion_error);
        ("inherent_error", Json.Num v.Oracle.inherent_error);
        ("tightness", opt_num v.Oracle.tightness);
      ],
    Oracle.render v )

let sample s r =
  if r.samples < 1 then failwith "sample: \"samples\" must be >= 1";
  command s r @@ fun j args ->
  let plan = plan j args in
  let summary, _ =
    Sampling.measured_summary ~jobs:j.o.jobs ?lanes:j.o.batch
      ~builtins:s.builtins ~prog:j.src.prog ~func:r.func ~config:j.o.config
      (draw j plan)
  in
  let described = Sampling.describe plan in
  let dist (v, d) = Json.Obj [ ("var", Json.Str v); ("dist", Json.Str d) ] in
  ( Json.Obj
      [
        ("func", Json.Str r.func);
        ("config", Json.Str (Config.to_string j.o.config));
        ("samples", num summary.Quantile.count);
        ("seed", num r.seed);
        ("plan", Json.List (List.map dist described));
        ("p50", Json.Num summary.Quantile.p50);
        ("p95", Json.Num summary.Quantile.p95);
        ("p99", Json.Num summary.Quantile.p99);
        ("max", Json.Num summary.Quantile.max);
        ("mean", Json.Num summary.Quantile.mean);
      ],
    Report.sampled ~plan:described summary )

let range s r =
  let j = job s r in
  let a = range_analysis s j (args j) in
  let target = j.o.target in
  let vars = Range.charged_vars a in
  ( Json.Obj
      [
        ("func", Json.Str r.func);
        ("backend", Json.Str a.Range.backend);
        ("verdict", Json.Str (Range.verdict_to_string a.Range.verdict));
        ( "bound",
          if Float.is_finite a.Range.worst_bound then Json.Num a.Range.worst_bound
          else Json.Null );
        ("bound_at_target", opt_num (Range.score a ~target vars));
        ("target", Json.Str (Fp.format_to_string target));
        ("charged_vars", strings vars);
        ( "value",
          match a.Range.value with
          | Some iv ->
              let lo, hi = Cheffp_range.Interval.to_pair iv in
              Json.List [ Json.Num lo; Json.Num hi ]
          | None -> Json.Null );
        ("box", Json.Str (Rbox.to_string a.Range.box));
        ("witness", Json.Str (Rbox.to_string a.Range.witness));
        ("splits", num a.Range.splits);
        ("evals", num a.Range.evals);
        ("elapsed_ms", Json.Num a.Range.elapsed_ms);
      ],
    Range.report ~target a )
