(* cheffp: command-line front end to the CHEF-FP reproduction
   ([cheffp --help] lists the subcommands).

   Arguments are passed positionally and typed by the target function's
   signature: scalars as literals, arrays as colon-separated lists
   (e.g. 1.5:2.5:3.5). The commands the daemon serves too (analyze,
   tune, search, validate) only fill an [Api.request] from their flags
   and print the report of the daemon's own handler
   ([Cheffp_server.Api]). *)

open Cmdliner
open Cheffp_ir
module Fp = Cheffp_precision.Fp
module Config = Cheffp_precision.Config
module Cost = Cheffp_precision.Cost
module Trace = Cheffp_obs.Trace
module Metrics = Cheffp_obs.Metrics
module Export = Cheffp_obs.Export
module Api = Cheffp_server.Api
module Json = Cheffp_server.Json
module Server = Cheffp_server.Server
module Fpcore_import = Cheffp_fpcore.Import
module Fpcore_export = Cheffp_fpcore.Export

(* Exit statuses. cmdliner keeps 0, 124 (usage) and 125 (internal). *)
let exit_unsound = 1
let exit_input = 2

let exits =
  [
    Cmd.Exit.info Cmd.Exit.ok ~doc:"on success.";
    Cmd.Exit.info exit_unsound
      ~doc:"when $(b,validate) finds the error estimate UNSOUND.";
    Cmd.Exit.info exit_input
      ~doc:
        "on an input or analysis error: a missing or unreadable file, a \
         parse or type error, an unknown function, bad function arguments, \
         a failed analysis.";
    Cmd.Exit.info Cmd.Exit.cli_error
      ~doc:"on a usage error: an unknown option or a bad option value.";
    Cmd.Exit.info Cmd.Exit.internal_error
      ~doc:"on an unexpected internal error (a bug).";
  ]

let usage m = raise (Api.Usage m)

(* A [validate] verdict of UNSOUND. *)
exception Unsound of string

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* One builtins/deriv registry pair per process, as the daemon holds. *)
let session = Api.session ()

let format_arg =
  Arg.(
    value & opt string "auto"
    & info [ "format" ] ~docv:"FMT"
        ~doc:
          "Input format: $(b,minifp), $(b,fpcore) (FPBench interchange), or \
           $(b,auto) (default; by file extension, .fpcore means FPCore).")

let fpcore_input ~format path =
  match format with
  | "fpcore" -> true
  | "minifp" -> false
  | "auto" -> Filename.check_suffix path ".fpcore"
  | other -> usage ("unknown format " ^ other ^ " (auto|minifp|fpcore)")

let load ?(format = "minifp") path =
  let fpcore = fpcore_input ~format path in
  Api.load session ~file:path ~fpcore (read_file path)

(* ---------------- observability flags ---------------- *)

type obs = { trace_file : string option; trace_pretty : bool; metrics : bool }

let obs_term =
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record hierarchical spans of the run (parse, AD, estimate, \
             compile, run, ...) and write them to $(docv) as JSON lines.")
  in
  let trace_pretty =
    Arg.(
      value & flag
      & info [ "trace-pretty" ]
          ~doc:"Record spans and print them as an indented tree on stdout.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Print a flat `key value` dump of the metrics registry \
             (compile-cache hits/misses/evictions, pool per-domain task \
             counts, ...) on stdout after the command.")
  in
  Term.(
    const (fun trace_file trace_pretty metrics ->
        { trace_file; trace_pretty; metrics })
    $ trace_file $ trace_pretty $ metrics)

(* Runs [body] under the requested instrumentation and emits the
   requested reports afterwards — also on failure, so a crashed run
   still leaves its partial trace behind. *)
let with_obs ~cmd obs body =
  let tracing = obs.trace_file <> None || obs.trace_pretty in
  if tracing then Trace.set_enabled true;
  if tracing || obs.metrics then Metrics.set_enabled true;
  let finish () =
    if tracing then begin
      let spans = Trace.spans () in
      Option.iter
        (fun path ->
          Export.write_jsonl ~path spans;
          Printf.eprintf "trace: wrote %d span(s) to %s\n%!"
            (List.length spans) path)
        obs.trace_file;
      if obs.trace_pretty then print_string (Export.pretty spans)
    end;
    if obs.metrics then print_string (Export.metrics_dump ())
  in
  Fun.protect ~finally:finish (fun () ->
      Trace.with_span ("cli." ^ cmd) body)

let wrap f =
  let fail code m =
    Printf.eprintf "cheffp: %s\n%!" m;
    `Ok code
  in
  match f () with
  | () -> `Ok Cmd.Exit.ok
  | exception Api.Usage m -> `Error (true, m)
  | exception Unsound m -> fail exit_unsound m
  | exception e -> (
      match Api.input_error e with
      | Some m -> fail exit_input m
      | None -> raise e)

(* ---------------- arguments ---------------- *)

let file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"MiniFP source file.")

let func_arg =
  Arg.(required & opt (some string) None & info [ "f"; "func" ] ~docv:"NAME" ~doc:"Function to operate on.")

let rest_args =
  Arg.(value & pos_right 0 string [] & info [] ~docv:"ARGS" ~doc:"Positional function arguments (arrays as v1:v2:...).")

let demote_arg =
  Arg.(value & opt_all string [] & info [ "demote" ] ~docv:"VAR:FMT" ~doc:"Demote a variable (e.g. t:f32). Repeatable.")

let model_arg =
  Arg.(value & opt string Api.default.model & info [ "model" ] ~docv:"MODEL" ~doc:"Error model: taylor, adapt or zero.")

let target_arg =
  Arg.(value & opt string Api.default.target & info [ "target" ] ~docv:"FMT" ~doc:"Demotion target format (f32 or f16).")

let threshold_arg =
  Arg.(required & opt (some float) None & info [ "threshold" ] ~docv:"T" ~doc:"Error threshold.")

let fuel_arg =
  Arg.(
    value
    & opt int Api.default.fuel
    & info [ "fuel" ] ~docv:"N"
        ~doc:"Abort after N executed statements (guard against runaway loops).")

let jobs_arg =
  Arg.(
    value
    & opt int (Cheffp_util.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for parallel candidate evaluation (1 = sequential; \
           default: the machine's recommended domain count minus one, at \
           least 1). Results are identical for every value.")

let batch_arg =
  Arg.(
    value
    & opt int Api.default.batch
    & info [ "batch" ] ~docv:"K"
        ~doc:
          "Evaluate candidate configurations K per lane-parallel sweep \
           (Ir.Batch): one configuration-generic compile, K configs per run. \
           Results are bit-identical to scalar evaluation for every K.")

let no_batch_arg =
  Arg.(
    value & flag
    & info [ "no-batch" ]
        ~doc:"Disable batched evaluation; run every candidate scalar.")

let strategy_arg =
  Arg.(
    value
    & opt string Api.default.strategy
    & info [ "strategy" ] ~docv:"S"
        ~doc:
          "Candidate-judging strategy: $(b,measured) executes every \
           candidate (pure Precimonious baseline), $(b,modelled) scores \
           everything from one gradient-augmented profile run (zero \
           candidate executions), $(b,hybrid) (default) measures every \
           accept/reject decision but lets the profile bound each grow \
           round, skipping the executions measured search wastes on \
           speculation past a failure — chosen set bit-identical to \
           measured, strictly fewer runs.")

let prune_margin_arg =
  Arg.(
    value
    & opt float Api.default.prune_margin
    & info [ "prune-margin" ] ~docv:"M"
        ~doc:
          "Hybrid model-distrust margin (>= 1): a candidate set is \
           treated as model-rejected — bounding the current grow round, \
           or skipping the all-demoted probe — only when its profile \
           score exceeds M times the threshold. Decisions stay \
           measured; M only shifts where executions are saved.")

(* ---------------- Monte-Carlo input sampling ---------------- *)

let samples_arg =
  Arg.(
    value & opt int Api.default.samples
    & info [ "samples" ] ~docv:"N"
        ~doc:
          "Monte-Carlo input sampling: draw $(docv) argument vectors from \
           per-variable distributions (--dist entries, FPCore [:pre] \
           ranges, or a default \xc2\xb150% box around the base value) and \
           report / judge error quantiles over them. 0 (default) keeps the \
           single-point behaviour.")

let dist_arg =
  Arg.(
    value
    & opt (some string) Api.default.dist
    & info [ "dist" ] ~docv:"SPEC"
        ~doc:
          "Per-variable input distributions, entries separated by spaces or \
           ';': $(b,name=fixed:v), $(b,name=uniform:lo,hi) or \
           $(b,name=normal:mu,sigma) — e.g. 'x=uniform:0,1 y=normal:0,2'. \
           Variables without an entry fall back to their FPCore [:pre] \
           range, then to the default box.")

let seed_arg =
  Arg.(
    value & opt int Api.default.seed
    & info [ "seed" ] ~docv:"S"
        ~doc:
          "Sampling seed. Sample i is a pure function of (seed, i): streams \
           are identical across --jobs values and batch lane widths.")

let target_quantile_arg =
  Arg.(
    value & opt float Api.default.target_quantile
    & info [ "target-quantile" ] ~docv:"Q"
        ~doc:
          "With --samples: the error quantile the threshold applies to \
           (0.99 = p99, 0.5 = median, 1.0 = sampled max). Default 0.99.")

(* ---------------- rigorous range bounds ---------------- *)

let range_arg =
  Arg.(
    value & flag
    & info [ "range" ]
        ~doc:
          "Rigorous interval/Taylor-form range analysis: certify a sound \
           upper bound on the mixed-precision error over an input box \
           (FPCore [:pre] ranges, --box overrides, or the default \xc2\xb150% \
           box; zero-valued defaults widen to [-1,1]). On $(b,search), use \
           the certified bounds to accept candidates without executing \
           them — the chosen set is bit-identical, with strictly fewer \
           candidate executions whenever a bound fires.")

let box_arg =
  Arg.(
    value
    & opt (some string) Api.default.box
    & info [ "box" ] ~docv:"SPEC"
        ~doc:
          "Override range-analysis input intervals: 'x=lo,hi; y=lo,hi' \
           entries for scalar float parameters (implies nothing for \
           sampling; see --dist for that).")

let range_backend_arg =
  Arg.(
    value & opt string Api.default.range_backend
    & info [ "range-backend" ] ~docv:"B"
        ~doc:
          "Global-bound backend: $(b,bb) (branch-and-bound box splitting, \
           default) or $(b,whole) (single evaluation of the whole box).")

(* ---------------- commands ---------------- *)

(* A command the daemon serves too: [request] fills an [Api.request]
   from the flags, [handler] is the daemon's own, and the CLI prints its
   report; [check] inspects the result object. *)
let shared name ~doc ?(check = ignore) handler request =
  let run obs path format (req : Api.request) =
    wrap (fun () ->
        with_obs ~cmd:name obs @@ fun () ->
        let fpcore = fpcore_input ~format path in
        let req =
          { req with program = read_file path; file = Some path; fpcore }
        in
        let result, report = handler session req in
        print_string report;
        check result)
  in
  Cmd.v (Cmd.info name ~exits ~doc)
    Term.(ret (const run $ obs_term $ file_arg $ format_arg $ request))

let check_cmd =
  let run file =
    wrap (fun () ->
        let prog = (load file).prog in
        print_string (Pp.program_to_string prog);
        Printf.printf "// %d function(s), OK\n" (List.length prog.Ast.funcs))
  in
  Cmd.v (Cmd.info "check" ~exits ~doc:"Parse, type-check and pretty-print a MiniFP file.")
    Term.(ret (const run $ file_arg))

let run_cmd =
  let run file func demote fuel raw =
    wrap (fun () ->
        let config = (Api.decode { Api.default with demote }).config in
        let prog = (load file).prog in
        let args = Interp.parse_args (Api.func_exn prog func) raw in
        let counter = Cost.Counter.create Cost.default in
        let r =
          Interp.run ~builtins:session.builtins ~config ~counter ~fuel ~prog
            ~func args
        in
        (match r.Interp.ret with
        | Some (Builtins.F x) -> Printf.printf "result: %.17g\n" x
        | Some (Builtins.I n) -> Printf.printf "result: %d\n" n
        | None -> print_endline "result: (void)");
        List.iter
          (fun (name, v) ->
            match v with
            | Builtins.F x -> Printf.printf "out %s = %.17g\n" name x
            | Builtins.I n -> Printf.printf "out %s = %d\n" name n)
          r.Interp.outs;
        Printf.printf "modelled cost: %.1f units, %d implicit casts\n"
          (Cost.Counter.total counter) (Cost.Counter.casts counter))
  in
  Cmd.v
    (Cmd.info "run" ~exits
       ~doc:"Execute a function, optionally under a mixed-precision configuration.")
    Term.(ret (const run $ file_arg $ func_arg $ demote_arg $ fuel_arg $ rest_args))

let gradient_cmd =
  let run file func =
    wrap (fun () ->
        let prog = (load file).prog in
        let g = Cheffp_ad.Reverse.differentiate ~deriv:session.deriv prog func in
        print_endline (Pp.func_to_string g))
  in
  Cmd.v
    (Cmd.info "gradient" ~exits ~doc:"Generate and print the reverse-mode adjoint source.")
    Term.(ret (const run $ file_arg $ func_arg))

let analyze_cmd =
  let show_code =
    Arg.(value & flag & info [ "show-code" ] ~doc:"Print the generated adjoint.")
  in
  shared "analyze" Api.analyze
    ~doc:"Estimate the floating-point error of a function (CHEF-FP)."
    Term.(
      const
        (fun func model target show_code samples dist seed range box
             range_backend args ->
          { Api.default with func; model; target; show_code; samples; dist;
            seed; range; box; range_backend; args })
      $ func_arg $ model_arg $ target_arg $ show_code $ samples_arg $ dist_arg
      $ seed_arg $ range_arg $ box_arg $ range_backend_arg $ rest_args)

let tune_cmd =
  let emit_arg =
    Arg.(value & flag
         & info [ "emit" ]
             ~doc:"Print the automatically rewritten mixed-precision source.")
  in
  let profiled_arg =
    Arg.(
      value & flag
      & info [ "profiled" ]
          ~doc:
            "Drive the selection from a cached error-atom profile (one \
             gradient-augmented run, reused across invocations in the same \
             process) instead of a fresh adapt-model analysis.")
  in
  shared "tune" Api.tune
    ~doc:"Greedy mixed-precision tuning against an error threshold."
    Term.(
      const
        (fun func threshold target emit profiled jobs samples dist seed args ->
          { Api.default with func; threshold = Some threshold; target; emit;
            profiled; jobs; samples; dist; seed; args })
      $ func_arg $ threshold_arg $ target_arg $ emit_arg $ profiled_arg
      $ jobs_arg $ samples_arg $ dist_arg $ seed_arg $ rest_args)

let search_cmd =
  shared "search" Api.search
    ~doc:"Precimonious-style search-based tuning baseline (compare with tune)."
    Term.(
      const
        (fun func threshold target strategy prune_margin jobs batch no_batch
             samples dist seed target_quantile range args ->
          { Api.default with func; threshold = Some threshold; target;
            strategy; prune_margin; jobs; batch; no_batch; samples; dist;
            seed; target_quantile; range; args })
      $ func_arg $ threshold_arg $ target_arg $ strategy_arg
      $ prune_margin_arg $ jobs_arg $ batch_arg $ no_batch_arg $ samples_arg
      $ dist_arg $ seed_arg $ target_quantile_arg $ range_arg $ rest_args)

let validate_cmd =
  let mode_arg =
    Arg.(
      value & opt string Api.default.mode
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "Rounding mode of the validated execution: extended (default; \
             rounds on stores, the estimate's own semantics) or source \
             (rounds every operation; use --margin 2, see DESIGN.md \xc2\xa710).")
  in
  let margin_arg =
    Arg.(
      value & opt float Api.default.margin
      & info [ "margin" ] ~docv:"M"
          ~doc:"Safety factor applied to the modelled error in the bound.")
  in
  let check result =
    if Json.member "sound" result = Json.Bool false then
      let num k = Option.get (Json.to_float_opt (Json.member k result)) in
      raise @@ Unsound
        (Printf.sprintf
           "validate: UNSOUND — measured error %.6e exceeds the modelled \
            bound %.6e"
           (num "measured_error") (num "bound"))
  in
  shared "validate" Api.validate ~check
    ~doc:
      "Check the CHEF-FP estimate against double-double shadow execution: \
       measure the true error of a (possibly demoted) run and report \
       whether the modelled bound covers it, and how tightly. Exits \
       non-zero on an unsound verdict."
    Term.(
      const (fun func demote mode margin fuel args ->
          { Api.default with func; demote; mode; margin; fuel; args })
      $ func_arg $ demote_arg $ mode_arg $ margin_arg $ fuel_arg $ rest_args)

let write_output out text =
  match out with
  | Some path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Printf.eprintf "wrote %s\n%!" path
  | None -> print_string text

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"FILE"
        ~doc:"Write the result to $(docv) instead of stdout.")

let import_cmd =
  let run files out samples dist seed =
    wrap (fun () ->
        if files = [] then usage "no input files";
        let dists = (Api.decode { Api.default with dist }).dists in
        let buf = Buffer.create 4096 in
        Buffer.add_string buf
          (Printf.sprintf
             "// MiniFP translation of %d FPCore file(s), generated by \
              `cheffp import`.\n"
             (List.length files));
        let used = Hashtbl.create 64 in
        let uniquify name =
          if not (Hashtbl.mem used name) then begin
            Hashtbl.replace used name ();
            name
          end
          else
            let rec go k =
              let c = Printf.sprintf "%s_%d" name k in
              if Hashtbl.mem used c then go (k + 1)
              else begin
                Hashtbl.replace used c ();
                c
              end
            in
            go 2
        in
        let arg_str = function
          | Interp.Aflt x -> Printf.sprintf "%.17g" x
          | Interp.Aint n -> string_of_int n
          | Interp.Afarr _ | Interp.Aiarr _ -> "?"
        in
        let all = ref [] in
        List.iter
          (fun file ->
            let cores = Fpcore_import.parse_file file in
            (* Distributional annotation (--samples): the modelled
               estimate at the [:pre] midpoint is one point of a curve;
               sampling the [:pre] box shows how far the tail sits from
               it. Built against the file-local translation unit so
               cross-file name uniquification cannot interfere. *)
            let fprog =
              if samples > 0 then Some (Fpcore_import.program cores)
              else None
            in
            let sample_comment (c : Fpcore_import.core) =
              match fprog with
              | None -> ()
              | Some prog ->
                  let est =
                    Cheffp_core.Estimate.estimate_error
                      ~model:(Cheffp_core.Model.adapt ())
                      ~deriv:session.deriv ~builtins:session.builtins ~prog
                      ~func:c.Fpcore_import.name ()
                  in
                  let midpoint =
                    (Cheffp_core.Estimate.run est c.default_args)
                      .Cheffp_core.Estimate.total_error
                  in
                  let plan =
                    Cheffp_core.Sampling.plan ~dists ~ranges:c.ranges
                      ~func:c.func ~args:c.default_args ()
                  in
                  let s =
                    Cheffp_core.Estimate.run_sampled est ~plan
                      ~seed:(Int64.of_int seed) ~samples
                  in
                  Buffer.add_string buf
                    (Printf.sprintf "// midpoint estimate: %.3e\n" midpoint);
                  Buffer.add_string buf
                    (Printf.sprintf
                       "// sampled estimate quantiles (N=%d, seed %d): p50 \
                        %.3e  p95 %.3e  p99 %.3e  max %.3e\n"
                       s.Cheffp_core.Quantile.count seed
                       s.Cheffp_core.Quantile.p50 s.Cheffp_core.Quantile.p95
                       s.Cheffp_core.Quantile.p99 s.Cheffp_core.Quantile.max)
            in
            Buffer.add_string buf
              (Printf.sprintf "\n// --- %s ---\n" (Filename.basename file));
            List.iter
              (fun (c : Fpcore_import.core) ->
                let f = { c.Fpcore_import.func with Ast.fname = uniquify c.name } in
                all := f :: !all;
                Buffer.add_char buf '\n';
                Option.iter
                  (fun n ->
                    Buffer.add_string buf (Printf.sprintf "// :name %S\n" n))
                  c.source_name;
                Option.iter
                  (fun p ->
                    Buffer.add_string buf (Printf.sprintf "// :pre %s\n" p))
                  c.pre;
                if c.default_args <> [] then
                  Buffer.add_string buf
                    (Printf.sprintf "// suggested args: %s\n"
                       (String.concat " " (List.map arg_str c.default_args)));
                (match Config.demoted c.config with
                | [] -> ()
                | ds ->
                    Buffer.add_string buf
                      (Printf.sprintf "// config: %s\n"
                         (String.concat " "
                            (List.map
                               (fun (v, fmt) ->
                                 v ^ ":" ^ Fp.format_to_string fmt)
                               ds))));
                sample_comment c;
                Buffer.add_string buf (Pp.func_to_string f);
                Buffer.add_char buf '\n')
              cores)
          files;
        (* the translation must itself be a valid MiniFP unit *)
        Typecheck.check_program ~builtins:session.builtins
          { Ast.funcs = List.rev !all };
        write_output out (Buffer.contents buf))
  in
  let files_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"FILE" ~doc:"FPCore file(s) to translate.")
  in
  Cmd.v
    (Cmd.info "import" ~exits
       ~doc:
         "Translate FPCore (FPBench) files into one MiniFP translation \
          unit, with each kernel's provenance, [:pre]-derived sample \
          arguments and embedded precision config as comments. \
          Unsupported constructs are rejected with their source location, \
          never silently mistranslated. With --samples, each kernel is \
          additionally annotated with its modelled-error quantiles over \
          N inputs drawn from the [:pre] box, next to the midpoint \
          estimate.")
    Term.(
      ret
        (const run $ files_arg $ out_arg $ samples_arg $ dist_arg $ seed_arg))

let export_cmd =
  let run file func demote format out =
    wrap (fun () ->
        let prog = (load ~format file).prog in
        let config =
          if demote = [] then None
          else Some (Api.decode { Api.default with demote }).config
        in
        let text =
          match func with
          | Some fn -> Fpcore_export.func_to_fpcore ?config ~prog ~func:fn ()
          | None -> Fpcore_export.program_to_fpcore ?config prog
        in
        write_output out text)
  in
  let func_opt_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "f"; "func" ] ~docv:"NAME"
          ~doc:"Export only this function (default: every function).")
  in
  Cmd.v
    (Cmd.info "export" ~exits
       ~doc:
         "Render MiniFP functions as FPCore 1.x for exchange with other \
          FPBench tools. A --demote configuration is embedded as \
          :cheffp-config metadata; re-importing the output reconstructs \
          the function exactly (see DESIGN.md \xc2\xa715 for the supported \
          subset).")
    Term.(
      ret
        (const run $ file_arg $ func_opt_arg $ demote_arg $ format_arg
       $ out_arg))

let adapt_cmd =
  let module Adapt = Cheffp_adapt.Adapt in
  let module B = Cheffp_benchmarks in
  let run bench n target budget jobs obs =
    wrap (fun () ->
        with_obs ~cmd:"adapt" obs @@ fun () ->
        let { Api.target; jobs; _ } =
          Api.decode { Api.default with target; jobs }
        in
        let analyze run =
          Adapt.analyze ~target ?memory_budget:budget ~jobs run
        in
        let result =
          match bench with
          | "arclength" ->
              analyze (fun tape ->
                  let module N = (val Adapt.num tape) in
                  let module R = B.Arclength.Native (N) in
                  R.run ~n)
          | "simpsons" ->
              analyze (fun tape ->
                  let module N = (val Adapt.num tape) in
                  let module R = B.Simpsons.Native (N) in
                  R.run ~a:0. ~b:Float.pi ~n)
          | "kmeans" ->
              let w = B.Kmeans.generate ~npoints:n () in
              analyze (fun tape ->
                  let module N = (val Adapt.num tape) in
                  let module R = B.Kmeans.Native (N) in
                  R.run w)
          | other ->
              usage
                ("unknown benchmark " ^ other
               ^ " (arclength|simpsons|kmeans)")
        in
        match result with
        | Error oom ->
            Printf.printf
              "ADAPT: out of memory budget (%s) after %d tape nodes (%s)\n"
              (Cheffp_util.Meter.bytes_pp oom.Adapt.budget)
              oom.Adapt.nodes_at_failure
              (Cheffp_util.Meter.bytes_pp
                 (oom.Adapt.nodes_at_failure
                 * Cheffp_adapt.Tape.bytes_per_node))
        | Ok r ->
            Printf.printf "value: %.17g\n" r.Adapt.value;
            Printf.printf "estimated FP error (ADAPT, %s): %.6g\n"
              (Fp.format_to_string target)
              r.Adapt.total_error;
            Printf.printf "tape: %d nodes, %s\n" r.Adapt.nodes
              (Cheffp_util.Meter.bytes_pp r.Adapt.tape_bytes);
            print_endline "top error contributions:";
            List.iteri
              (fun i (name, e) ->
                if i < 10 then Printf.printf "  %-12s %.6g\n" name e)
              r.Adapt.per_variable)
  in
  let bench_arg =
    Arg.(
      value
      & opt string "arclength"
      & info [ "bench" ] ~docv:"NAME"
          ~doc:
            "Built-in benchmark to analyze: arclength, simpsons or kmeans \
             (the ADAPT baseline records a run-time tape, so it operates on \
             the native benchmark implementations, not on MiniFP files).")
  in
  let n_arg =
    Arg.(
      value & opt int 2_000
      & info [ "n" ] ~docv:"N"
          ~doc:"Workload size (sample points / k-means points).")
  in
  let budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~docv:"BYTES"
          ~doc:"Emulated tape memory budget; exceeding it aborts (paper's OOM).")
  in
  Cmd.v
    (Cmd.info "adapt" ~exits
       ~doc:
         "Run the ADAPT operator-overloading baseline on a built-in \
          benchmark (compare with analyze).")
    Term.(
      ret (const run $ bench_arg $ n_arg $ target_arg $ budget_arg $ jobs_arg
           $ obs_term))

(* Where the daemon listens, and where its clients find it. *)
let listen_term =
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"The daemon's Unix-domain socket at $(docv) (default cheffp.sock).")
  in
  let port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "port" ] ~docv:"N"
          ~doc:
            "The daemon's loopback TCP port $(docv) instead (0 = ephemeral, \
             for $(b,serve)).")
  in
  let listen socket port =
    match (socket, port) with
    | Some _, Some _ -> `Error (true, "pass either --socket or --port, not both")
    | None, Some p -> `Ok (Server.Tcp p)
    | path, None -> `Ok (Server.Unix_socket (Option.value ~default:"cheffp.sock" path))
  in
  Term.(ret (const listen $ socket_arg $ port_arg))

let serve_cmd =
  let run listen workers max_pending metrics no_telemetry window_epochs
      epoch_seconds tail_slowest tail_errors =
    wrap (fun () ->
        if metrics then Metrics.set_enabled true;
        (* Windowed latency quantiles need the timing histograms, so
           telemetry implies the metrics registry. *)
        if not no_telemetry then Metrics.set_enabled true;
        let srv =
          Server.create ?workers ~max_pending ~telemetry:(not no_telemetry)
            ~window_epochs ~window_epoch_s:epoch_seconds ~tail_slowest
            ~tail_errors listen
        in
        let stop _ = Server.request_stop srv in
        (try Sys.set_signal Sys.sigint (Sys.Signal_handle stop)
         with Invalid_argument _ -> ());
        (try Sys.set_signal Sys.sigterm (Sys.Signal_handle stop)
         with Invalid_argument _ -> ());
        Printf.eprintf "cheffp serve: listening on %s (%d worker domain(s))\n%!"
          (Server.address srv) (Server.workers srv);
        Server.run srv;
        Printf.eprintf "cheffp serve: drained, bye\n%!";
        if metrics then print_string (Export.metrics_dump ()))
  in
  let workers_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Worker domains executing requests (default: the machine's \
             recommended domain count minus one, at least 2).")
  in
  let max_pending_arg =
    Arg.(
      value
      & opt int Server.default_max_pending
      & info [ "max-pending" ] ~docv:"N"
          ~doc:
            "Admission bound: requests arriving while $(docv) tasks are \
             already queued are rejected immediately.")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Enable the metrics registry and dump it after the drain.")
  in
  let no_telemetry_arg =
    Arg.(
      value & flag
      & info [ "no-telemetry" ]
          ~doc:
            "Disable continuous telemetry (window ticker, tail trace \
             retention, per-request span recording). stats/traces \
             requests still answer, with empty windows.")
  in
  let window_epochs_arg =
    Arg.(
      value & opt int 12
      & info [ "window-epochs" ] ~docv:"N"
          ~doc:"Sliding-window ring size: $(docv) epoch snapshots.")
  in
  let epoch_seconds_arg =
    Arg.(
      value & opt float 5.
      & info [ "epoch-seconds" ] ~docv:"S"
          ~doc:
            "Seconds between epoch snapshots; the stats window covers \
             up to window-epochs x $(docv) seconds.")
  in
  let tail_slowest_arg =
    Arg.(
      value & opt int 16
      & info [ "tail-slowest" ] ~docv:"K"
          ~doc:"Retain the $(docv) slowest request traces.")
  in
  let tail_errors_arg =
    Arg.(
      value & opt int 64
      & info [ "tail-errors" ] ~docv:"N"
          ~doc:"Retain the most recent $(docv) error request traces.")
  in
  Cmd.v
    (Cmd.info "serve" ~exits
       ~doc:
         "Run the long-lived analysis server: newline-delimited JSON \
          requests (analyze, tune, search, sample, validate, range, ping, \
          metrics, stats, traces, shutdown) over a Unix or loopback TCP \
          socket, \
          executed concurrently on a shared worker-domain pool with \
          per-request tracing, continuous telemetry (sliding-window \
          stats, tail trace retention, Prometheus exposition) and a \
          cross-request compile cache. Results are bit-identical to the \
          one-shot subcommands.")
    Term.(
      ret
        (const run $ listen_term $ workers_arg $ max_pending_arg
       $ metrics_arg $ no_telemetry_arg $ window_epochs_arg
       $ epoch_seconds_arg $ tail_slowest_arg $ tail_errors_arg))

(* `cheffp top`: live terminal dashboard over the server's [stats]
   endpoint. Pure client: polls and prints the [stats] report under its
   own header — the daemon computes every number (Obs.Window /
   Obs.Tail) and renders the dashboard. *)
let top_cmd =
  let module Client = Cheffp_server.Client in
  let run listen interval count limit raw =
    wrap (fun () ->
        let connect, target =
          match listen with
          | Server.Unix_socket path -> ((fun () -> Client.connect_unix path), path)
          | Server.Tcp p ->
              ((fun () -> Client.connect_tcp p), Printf.sprintf "127.0.0.1:%d" p)
        in
        let c = Client.retry_connect connect in
        let id = ref 0 in
        let one frame =
          incr id;
          let resp =
            Client.rpc c
              (Client.request ~id:!id ~cmd:"stats"
                 [
                   (* jump the work queue: a dashboard poll should not
                      wait behind a 1000-candidate search *)
                   ("priority", Json.Num 1000.);
                   ("limit", Json.Num (float_of_int limit));
                 ])
          in
          (match Json.to_bool_opt (Json.member "ok" resp) with
          | Some true -> ()
          | _ ->
              failwith
                (Option.value ~default:"stats request failed"
                   (Json.to_string_opt (Json.member "error" resp))));
          let body =
            if raw then Json.to_string (Json.member "result" resp) ^ "\n"
            else
              Printf.sprintf "cheffp top — %s   frame %d   " target frame
              ^ Option.value ~default:"" (Json.to_string_opt (Json.member "report" resp))
          in
          if count <> 1 && not raw then print_string "\027[2J\027[H";
          print_string body;
          flush stdout
        in
        (try
           let frame = ref 0 in
           let continue () = count = 0 || !frame < count in
           while continue () do
             incr frame;
             one !frame;
             if continue () then Unix.sleepf interval
           done
         with End_of_file ->
           prerr_endline "cheffp top: server closed the connection");
        Client.close c)
  in
  let interval_arg =
    Arg.(
      value & opt float 2.
      & info [ "interval" ] ~docv:"S" ~doc:"Seconds between polls.")
  in
  let count_arg =
    Arg.(
      value & opt int 0
      & info [ "count" ] ~docv:"N"
          ~doc:"Render $(docv) frames then exit (0 = until interrupted).")
  in
  let limit_arg =
    Arg.(
      value & opt int 8
      & info [ "limit" ] ~docv:"K"
          ~doc:"Show at most $(docv) tail-latency offenders.")
  in
  let raw_arg =
    Arg.(
      value & flag
      & info [ "raw" ] ~doc:"Print the raw stats JSON instead of the dashboard.")
  in
  Cmd.v
    (Cmd.info "top" ~exits
       ~doc:
         "Live dashboard for a running cheffp serve daemon: polls the \
          stats request and renders req/s, windowed p50/p95/p99 \
          latency, pool utilization, per-shard cache occupancy, \
          per-tenant hit rates and the current tail-latency offenders.")
    Term.(
      ret
        (const run $ listen_term $ interval_arg $ count_arg
       $ limit_arg $ raw_arg))

let sensitivity_cmd =
  let run file func loop raw =
    wrap (fun () ->
        let prog = (load file).prog in
        let f = Api.func_exn prog func in
        let args () = Interp.parse_args f raw in
        let track =
          match loop with Some name -> `Loop name | None -> `Outermost
        in
        let est =
          Cheffp_core.Estimate.estimate_error
            ~model:(Cheffp_core.Model.adapt ())
            ~deriv:session.deriv ~builtins:session.builtins
            ~options:
              {
                Cheffp_core.Estimate.default_options with
                track_iterations = track;
              }
            ~prog ~func ()
        in
        let r =
          Api.located session ~prog ~func args (fun () ->
              Cheffp_core.Estimate.run est (args ()))
        in
        if r.Cheffp_core.Estimate.per_iteration = [] then
          print_endline "(no per-iteration records: is there a loop?)"
        else begin
          let _, series =
            Cheffp_core.Sensitivity.normalized
              r.Cheffp_core.Estimate.per_iteration
          in
          let per_row =
            List.map
              (fun (name, a) ->
                let m = Array.fold_left Float.max 0. a in
                (name, if m > 0. then Array.map (fun v -> v /. m) a else a))
              series
          in
          print_string (Cheffp_core.Sensitivity.heatmap per_row)
        end)
  in
  let loop_arg =
    Arg.(value & opt (some string) None
         & info [ "loop" ]
             ~docv:"VAR"
             ~doc:"Track iterations of the named loop variable (default: the outermost loop).")
  in
  Cmd.v
    (Cmd.info "sensitivity" ~exits
       ~doc:"Per-iteration sensitivity heatmap of every variable (paper Fig. 9).")
    Term.(ret (const run $ file_arg $ func_arg $ loop_arg $ rest_args))

let () =
  let info =
    Cmd.info "cheffp" ~version:"1.0.0" ~exits
      ~doc:"Automatic floating-point error analysis via source-transformation AD (CHEF-FP reproduction)."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ check_cmd; run_cmd; gradient_cmd; analyze_cmd; tune_cmd;
            search_cmd; validate_cmd; import_cmd; export_cmd; adapt_cmd;
            sensitivity_cmd; serve_cmd; top_cmd ]))
