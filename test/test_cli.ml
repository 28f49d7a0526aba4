(* End-to-end tests of the cheffp command-line tool: each subcommand is
   exercised against a temporary MiniFP file and its output inspected.
   The binary is located relative to this test executable inside
   _build. *)

let cheffp =
  Filename.concat
    (Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin")
    "cheffp.exe"

let source =
  {|
func poly(x: f64, y: f64): f64 {
  var a: f64 = x * y + 0.1;
  var b: f64 = a * a - y;
  return b / (a + 2.0);
}

func looped(x: f64, n: int): f64 {
  var s: f64 = 0.0;
  var t: f64;
  for i in 1 .. n + 1 {
    t = x / itof(i);
    s = s + t * t;
  }
  return sqrt(s);
}
|}

let with_source source f =
  let path = Filename.temp_file "cheffp_cli" ".mfp" in
  let oc = open_out path in
  output_string oc source;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let with_temp_file f = with_source source f

(* Runs the binary, returns (exit code, combined output). *)
let run_cli args =
  let cmd =
    Printf.sprintf "%s %s 2>&1" (Filename.quote cheffp)
      (String.concat " " (List.map Filename.quote args))
  in
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  let code = match status with Unix.WEXITED n -> n | _ -> -1 in
  (code, Buffer.contents buf)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_binary_exists () =
  Alcotest.(check bool) ("binary at " ^ cheffp) true (Sys.file_exists cheffp)

let test_check () =
  with_temp_file (fun path ->
      let code, out = run_cli [ "check"; path ] in
      Alcotest.(check int) "exit 0" 0 code;
      Alcotest.(check bool) "pretty-prints" true (contains out "func poly");
      Alcotest.(check bool) "counts" true (contains out "2 function(s), OK"))

let test_run () =
  with_temp_file (fun path ->
      let code, out = run_cli [ "run"; path; "--func"; "poly"; "0.5"; "2.0" ] in
      Alcotest.(check int) "exit 0" 0 code;
      Alcotest.(check bool) "prints result" true (contains out "result:");
      Alcotest.(check bool) "prints cost" true (contains out "modelled cost"))

let test_run_demoted () =
  with_temp_file (fun path ->
      let code, out =
        run_cli
          [ "run"; path; "--func"; "poly"; "--demote"; "a:f32"; "0.5"; "2.0" ]
      in
      Alcotest.(check int) "exit 0" 0 code;
      Alcotest.(check bool) "casts counted" true (contains out "implicit casts"))

let test_gradient () =
  with_temp_file (fun path ->
      let code, out = run_cli [ "gradient"; path; "--func"; "poly" ] in
      Alcotest.(check int) "exit 0" 0 code;
      Alcotest.(check bool) "generates adjoint" true
        (contains out "func poly_grad" && contains out "out _d_x: f64");
      Alcotest.(check bool) "has push/pop" true
        (contains out "push" && contains out "pop"))

let test_analyze () =
  with_temp_file (fun path ->
      let code, out =
        run_cli [ "analyze"; path; "--func"; "looped"; "1.3"; "20" ]
      in
      Alcotest.(check int) "exit 0" 0 code;
      Alcotest.(check bool) "estimate printed" true
        (contains out "estimated FP error");
      Alcotest.(check bool) "attribution printed" true (contains out "variable"))

let test_tune_and_emit () =
  with_temp_file (fun path ->
      let code, out =
        run_cli
          [ "tune"; path; "--func"; "looped"; "--threshold"; "1e-5"; "--emit";
            "1.3"; "50" ]
      in
      Alcotest.(check int) "exit 0" 0 code;
      Alcotest.(check bool) "contributions printed" true
        (contains out "contributions");
      Alcotest.(check bool) "rewritten source printed" true
        (contains out "func looped_mixed"))

let test_search () =
  with_temp_file (fun path ->
      let code, out =
        run_cli
          [ "search"; path; "--func"; "looped"; "--threshold"; "1e-6"; "1.3";
            "50" ]
      in
      Alcotest.(check int) "exit 0" 0 code;
      Alcotest.(check bool) "executions reported" true
        (contains out "program executions"))

let test_sensitivity () =
  with_temp_file (fun path ->
      let code, out =
        run_cli [ "sensitivity"; path; "--func"; "looped"; "1.3"; "30" ]
      in
      Alcotest.(check int) "exit 0" 0 code;
      Alcotest.(check bool) "heatmap rows" true
        (contains out "iterations 0.."))

let test_errors_reported () =
  with_temp_file (fun path ->
      let code, out = run_cli [ "run"; path; "--func"; "nosuch" ] in
      Alcotest.(check bool) "nonzero exit" true (code <> 0);
      Alcotest.(check bool) "mentions the function" true
        (contains out "nosuch");
      let code2, _ = run_cli [ "run"; path; "--func"; "poly"; "1.0" ] in
      Alcotest.(check bool) "arity error" true (code2 <> 0));
  let code3, _ = run_cli [ "check"; "/nonexistent/file.mfp" ] in
  Alcotest.(check bool) "missing file" true (code3 <> 0)

(* Each failure class has its own exit status, listed under EXIT
   STATUS in `cheffp --help`: 1 for an UNSOUND verdict, 2 for an input
   or analysis error, 124 (cmdliner's) for a usage error. *)
let test_exit_codes () =
  let ill_typed = Filename.temp_file "cheffp_cli" ".mfp" in
  Fun.protect
    ~finally:(fun () -> Sys.remove ill_typed)
    (fun () ->
      let oc = open_out ill_typed in
      output_string oc "func f(x: f64): f64 { var y: int = x; return x; }\n";
      close_out oc;
      let code, out = run_cli [ "check"; ill_typed ] in
      Alcotest.(check int) "type error" 2 code;
      Alcotest.(check bool) "type error reported" true
        (contains out "expected int"));
  with_temp_file (fun path ->
      let code, _ = run_cli [ "run"; path; "--func"; "nosuch" ] in
      Alcotest.(check int) "unknown function" 2 code;
      let code, _ = run_cli [ "run"; path; "--func"; "poly"; "--no-such-flag" ] in
      Alcotest.(check int) "unknown option" 124 code;
      let code, _ =
        run_cli [ "validate"; path; "--func"; "poly"; "--mode"; "bogus"; "1"; "2" ]
      in
      Alcotest.(check int) "bad option value" 124 code;
      (* Option values the library rejects are usage errors too, found
         before any analysis runs. *)
      List.iter
        (fun (what, args, accepted) ->
          let code, out = run_cli (List.hd args :: path :: List.tl args) in
          Alcotest.(check int) what 124 code;
          Alcotest.(check bool) (what ^ " names " ^ accepted ^ ": " ^ out) true
            (contains out accepted);
          Alcotest.(check bool) (what ^ ": nothing analysed") false
            (contains out "estimated FP error"))
        [
          ( "range backend",
            [ "analyze"; "--func"; "poly"; "--range"; "--range-backend"; "foo";
              "0.5"; "2.0" ],
            "bb|whole" );
          ( "prune margin",
            [ "search"; "--func"; "looped"; "--threshold"; "1e-6";
              "--prune-margin"; "0.5"; "1.3"; "20" ],
            ">= 1" );
          ( "target quantile",
            [ "search"; "--func"; "looped"; "--threshold"; "1e-6"; "--samples";
              "8"; "--target-quantile"; "7"; "1.3"; "20" ],
            "[0, 1]" );
          (* The adapt model needs a narrower target than binary64. *)
          ( "analyze at f64",
            [ "analyze"; "--func"; "poly"; "--target"; "f64"; "0.5"; "2.0" ],
            "f32|f16" );
          ( "tune at f64",
            [ "tune"; "--func"; "looped"; "--threshold"; "1e-6"; "--target";
              "f64"; "1.3"; "20" ],
            "f32|f16" );
        ]);
  (* The f64 cases that build no adapt model still run. *)
  with_temp_file (fun path ->
      List.iter
        (fun args ->
          let code, out = run_cli (List.hd args :: path :: List.tl args) in
          Alcotest.(check int) (String.concat " " args ^ ": " ^ out) 0 code)
        [
          [ "analyze"; "--func"; "poly"; "--model"; "taylor"; "--target"; "f64";
            "0.5"; "2.0" ];
          [ "tune"; "--func"; "looped"; "--threshold"; "1e-6"; "--profiled";
            "--target"; "f64"; "1.3"; "20" ];
          [ "search"; "--func"; "looped"; "--threshold"; "1e-6"; "--target";
            "f64"; "1.3"; "20" ];
        ]);
  let code, _ = run_cli [ "check"; "/nonexistent/file.mfp" ] in
  Alcotest.(check int) "missing file" 2 code;
  let hypot =
    Filename.concat
      (Option.get (Cheffp_benchmarks.Corpus.corpus_dir ()))
      "hypot.fpcore"
  in
  let code, out =
    run_cli
      [ "validate"; hypot; "--func"; "hypot"; "--demote"; "x1:f32"; "--demote";
        "x2:f32"; "--mode"; "source" ]
  in
  Alcotest.(check int) "UNSOUND verdict" 1 code;
  Alcotest.(check bool) "verdict printed" true (contains out "UNSOUND")

(* A configuration has one modelled speedup: the one [tune] reports is
   [Tuner.evaluate]'s for the configuration it chose, in the daemon's
   result and in the CLI's report. rigidbody2 and sine_taylor are the
   corpus kernels where a cost metered on lanes, over a body optimized
   with every variable opaque, differs most from the scalar one. *)
let test_tune_speedup_is_evaluate () =
  let module Api = Cheffp_server.Api in
  let module Json = Cheffp_server.Json in
  let s = Api.session () in
  List.iter
    (fun k ->
      let file =
        Filename.concat
          (Option.get (Cheffp_benchmarks.Corpus.corpus_dir ()))
          (k ^ ".fpcore")
      in
      let program = In_channel.with_open_bin file In_channel.input_all in
      let result, _ =
        Api.tune s
          { Api.default with program; fpcore = true; func = k;
            threshold = Some 1e-6 }
      in
      let src = Api.load s ~fpcore:true program in
      let core = Option.get (Cheffp_fpcore.Import.find src.Api.kernels k) in
      let config =
        Cheffp_precision.Config.demote_all Cheffp_precision.Config.double
          (Json.string_list (Json.member "demoted" result))
          Cheffp_precision.Fp.F32
      in
      let ev =
        Cheffp_core.Tuner.evaluate ~builtins:s.Api.builtins ~prog:src.Api.prog
          ~func:k ~args:core.Cheffp_fpcore.Import.default_args config
      in
      let speedup = ev.Cheffp_core.Tuner.modelled_speedup in
      Alcotest.(check (option (float 0.)))
        (k ^ ": tune's speedup") (Some speedup)
        (Json.to_float_opt (Json.member "modelled_speedup" result));
      let code, out =
        run_cli
          [ "tune"; file; "--format"; "fpcore"; "--func"; k; "--threshold";
            "1e-6" ]
      in
      Alcotest.(check int) (k ^ ": exit") 0 code;
      let line = Printf.sprintf "modelled speedup: %.2fx" speedup in
      Alcotest.(check bool) (k ^ " prints " ^ line ^ ": " ^ out) true
        (contains out line))
    [ "rigidbody2"; "sine_taylor" ]

(* A program that fails at run time is an input error (exit 2) with a
   message, in every command: never an escaped exception (125). *)
let expect_input_error src cmds =
  with_source src (fun path ->
      List.iter
        (fun cmd ->
          let extra = if cmd = "tune" then [ "--threshold"; "1e-6" ] else [] in
          let code, out =
            run_cli ([ cmd; path; "--func"; "f" ] @ extra @ [ "1.0" ])
          in
          Alcotest.(check int) (cmd ^ ": " ^ src) 2 code;
          Alcotest.(check bool) (cmd ^ " reports no exception") false
            (contains out "exception"))
        cmds)

let test_push_pop_errors () =
  expect_input_error
    "func f(x: f64): f64 { var a: f64[2]; push a[5]; return x; }"
    [ "run"; "validate" ];
  expect_input_error "func f(x: f64): f64 { var y: f64 = x; pop y; return y; }"
    [ "run"; "validate" ]

(* Compiled run failures are input errors in every command, on the
   scalar and the lane executors alike: an int division or modulo by
   zero, and an out-of-bounds read that every sampled lane agrees on.
   Where the interpreter's re-run at the given arguments fails too, its
   message is the one reported. *)
let test_compiled_run_failures () =
  let expect src args cmds =
    with_source src (fun path ->
        List.iter
          (fun (cmd, extra, message) ->
            let code, out = run_cli ([ cmd; path; "--func"; "f" ] @ extra @ args) in
            Alcotest.(check int) (cmd ^ ": " ^ src) 2 code;
            Alcotest.(check bool)
              (cmd ^ " reports " ^ message ^ ": " ^ out)
              true (contains out message))
          cmds)
  in
  let threshold = [ "--threshold"; "1e-6" ] in
  List.iter
    (fun (op, message) ->
      expect
        (Printf.sprintf
           "func f(x: f64, n: int): f64 { var k: int = 4 %s n; return x * itof(k); }"
           op)
        [ "1.5"; "0" ]
        (List.map
           (fun (cmd, extra) -> (cmd, extra, message))
           [ ("run", []); ("validate", []); ("analyze", []); ("tune", threshold);
             ("search", threshold) ]))
    [ ("/", "integer division by zero"); ("%", "integer modulo by zero") ];
  let sampled =
    [ "--threshold"; "1"; "--samples"; "64"; "--dist"; "x=uniform:2,3" ]
  in
  expect
    "func f(x: f64): f64 { var a: f64[2]; a[0] = x; a[1] = x * x; var k: int = ftoi(x); return a[k] + x; }"
    [ "1.5" ]
    [ ("tune", sampled, "index out of bounds"); ("search", sampled, "index out of bounds") ]

(* ------------------------------------------------------------------ *)
(* An in-process daemon on a temporary Unix socket. [f] gets a connect
   function; every connection it opens is closed before the drain, so
   [Server.run] returns and the test can inspect what it left behind. *)

module Server = Cheffp_server.Server
module Client = Cheffp_server.Client
module Json = Cheffp_server.Json
module Compile_cache = Cheffp_ir.Compile_cache

let with_server ?(workers = 1) f =
  let sock = Filename.temp_file "cheffp_serve" ".sock" in
  let srv =
    Server.create ~workers ~telemetry:false (Server.Unix_socket sock)
  in
  let accept = Thread.create Server.run srv in
  let opened = ref [] in
  let connect () =
    let c = Client.retry_connect (fun () -> Client.connect_unix sock) in
    opened := c :: !opened;
    c
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter Client.close !opened;
      Server.request_stop srv;
      Thread.join accept)
    (fun () -> f sock connect)

let analyze_request ?(fields = []) ~id ~program ~func args =
  Client.request ~id ~cmd:"analyze"
    ([ ("program", Json.Str program); ("func", Json.Str func);
       ("args", Json.List (List.map (fun a -> Json.Str a) args)) ]
    @ fields)

let member_str k j = Option.value ~default:"" (Json.to_string_opt (Json.member k j))

let expect_error who resp =
  Alcotest.(check bool) (who ^ ": error response") true
    (Json.member "ok" resp = Json.Bool false);
  member_str "error" resp

(* (hits, misses) of the response's compile-cache summary. *)
let cache_counts resp =
  let c = Json.member "cache" resp in
  let get k = Option.value ~default:(-1) (Json.to_int_opt (Json.member k c)) in
  (get "hits", get "misses")

let expect_ok who resp =
  if Json.member "ok" resp <> Json.Bool true then
    Alcotest.failf "%s: %s" who (Json.to_string resp)

let bounds_source =
  "func f(x: f64): f64 { var a: f64[2]; a[0] = x; return a[3] + x; }"

(* The interpreter's message for the bad read: it names the array, the
   index and the length, where the compiled run can only name the
   generated adjoint. *)
let bounds_located = {|index 3 out of bounds for "a" (length 2)|}

let test_compiled_bounds_error () =
  expect_input_error bounds_source [ "run"; "validate"; "analyze"; "tune" ];
  with_source bounds_source (fun path ->
      List.iter
        (fun (cmd, extra) ->
          let code, out = run_cli ([ cmd; path; "--func"; "f" ] @ extra @ [ "1.0" ]) in
          Alcotest.(check int) (cmd ^ " exit") 2 code;
          Alcotest.(check bool)
            (cmd ^ " locates the error: " ^ out)
            true (contains out bounds_located))
        [ ("analyze", []); ("tune", [ "--threshold"; "1e-3" ]) ]);
  with_server (fun _ connect ->
      let c = connect () in
      let err =
        expect_error "server analyze"
          (Client.rpc c
             (analyze_request ~id:1 ~program:bounds_source ~func:"f" [ "1.0" ]))
      in
      Alcotest.(check bool) ("server locates the error: " ^ err) true
        (contains err bounds_located))

(* The daemon's wire format is the other outside entry point. A
   request's [jobs] becomes the domain count of [Pool.parallel_map], so
   it is clamped where the request is decoded; nothing here runs the
   pool. *)
let test_protocol_jobs_clamped () =
  let jobs field =
    match
      Cheffp_server.Protocol.parse_request
        (Printf.sprintf {|{"id": 1, "cmd": "analyze"%s}|} field)
    with
    | Ok r -> (Cheffp_server.Api.decode r.Cheffp_server.Protocol.api).jobs
    | Error m -> Alcotest.fail m
  in
  let cores = Domain.recommended_domain_count () in
  Alcotest.(check int) "absent" 1 (jobs "");
  Alcotest.(check int) "500" cores (jobs {|, "jobs": 500|});
  Alcotest.(check int) "0" 1 (jobs {|, "jobs": 0|});
  Alcotest.(check int) "-3" 1 (jobs {|, "jobs": -3|});
  Alcotest.(check int) "cores" cores (jobs (Printf.sprintf {|, "jobs": %d|} cores))

(* ------------------------------------------------------------------ *)
(* The daemon's reuse of its own work: parsed programs and analyses in
   the compile cache, scoped to its registry. *)

let looped_args = [ "1.3"; "20" ]

let test_analyze_reuse () =
  with_source source (fun path ->
      let _, cli = run_cli ([ "analyze"; path; "--func"; "looped" ] @ looped_args) in
      with_server (fun _ connect ->
          let c = connect () in
          let rpc id =
            Client.rpc c
              (analyze_request ~id ~program:source ~func:"looped" looped_args)
          in
          let first = rpc 1 in
          expect_ok "first" first;
          Alcotest.(check (pair int int)) "first: program and analysis miss"
            (0, 2) (cache_counts first);
          List.iter
            (fun id ->
              let again = rpc id in
              expect_ok "repeat" again;
              Alcotest.(check (pair int int)) "repeat: both hit" (2, 0)
                (cache_counts again);
              Alcotest.(check string) "result identical to the first"
                (Json.to_string (Json.member "result" first))
                (Json.to_string (Json.member "result" again));
              Alcotest.(check string) "report identical to the CLI" cli
                (member_str "report" again))
            [ 2; 3 ]))

(* Every component of the analysis key separates entries: a change of
   function, model or target reuses the program but builds a new
   analysis; a change of text misses both. *)
let test_reuse_keys () =
  with_server (fun _ connect ->
      let c = connect () in
      let id = ref 0 in
      let counts ?fields ?(program = source) func args =
        incr id;
        let resp =
          Client.rpc c (analyze_request ?fields ~id:!id ~program ~func args)
        in
        expect_ok func resp;
        cache_counts resp
      in
      let check what want got = Alcotest.(check (pair int int)) what want got in
      check "cold" (0, 2) (counts "looped" looped_args);
      check "other func" (1, 1) (counts "poly" [ "0.5"; "2.0" ]);
      check "other model" (1, 1)
        (counts ~fields:[ ("model", Json.Str "taylor") ] "looped" looped_args);
      check "other target" (1, 1)
        (counts ~fields:[ ("target", Json.Str "f16") ] "looped" looped_args);
      check "other text" (0, 2)
        (counts ~program:(source ^ "\n") "looped" looped_args);
      check "other args" (2, 0) (counts "looped" [ "2.5"; "7" ]))

(* The CLI and the daemon run one handler per command, so on the same
   source every report is the CLI's stdout byte for byte, and every bad
   option value gets the CLI's usage message as the daemon's error. *)
let test_cli_equals_server () =
  let str s = Json.Str s in
  let strs l = Json.List (List.map str l) in
  with_source source (fun path ->
      with_server (fun _ connect ->
          let c = connect () in
          let id = ref 0 in
          let rpc cmd fields =
            incr id;
            Client.rpc c
              (Client.request ~id:!id ~cmd (("program", str source) :: fields))
          in
          let cli cmd flags args = run_cli ((cmd :: path :: flags) @ args) in
          List.iter
            (fun (cmd, func, flags, fields, args) ->
              let code, out = cli cmd ([ "--func"; func ] @ flags) args in
              Alcotest.(check int) (cmd ^ " exit") 0 code;
              let resp =
                rpc cmd ([ ("func", str func); ("args", strs args) ] @ fields)
              in
              expect_ok cmd resp;
              Alcotest.(check string) (cmd ^ ": report = CLI stdout") out
                (member_str "report" resp))
            [
              ("analyze", "looped", [], [], looped_args);
              ( "tune", "looped", [ "--threshold"; "1e-6" ],
                [ ("threshold", Json.Num 1e-6) ], looped_args );
              ( "search", "looped",
                [ "--threshold"; "1e-6"; "--samples"; "8" ],
                [ ("threshold", Json.Num 1e-6); ("samples", Json.Num 8.) ],
                looped_args );
              ( "validate", "poly",
                [ "--demote"; "a:f32"; "--margin"; "2" ],
                [ ("demote", strs [ "a:f32" ]); ("margin", Json.Num 2.) ],
                [ "0.5"; "2.0" ] );
            ];
          List.iter
            (fun (what, cmd, flags, server_cmd, fields) ->
              let code, out = cli cmd ([ "--func"; "looped" ] @ flags) looped_args in
              Alcotest.(check int) (what ^ ": usage error") 124 code;
              let err =
                expect_error what
                  (rpc server_cmd
                     ([ ("func", str "looped"); ("args", strs looped_args);
                        ("threshold", Json.Num 1e-6) ]
                     @ fields))
              in
              Alcotest.(check string) (what ^ ": the CLI's message")
                (List.hd (String.split_on_char '\n' out))
                ("cheffp: " ^ err))
            [
              ("model", "analyze", [ "--model"; "bogus" ], "analyze",
                [ ("model", str "bogus") ]);
              ("target", "analyze", [ "--target"; "f8" ], "analyze",
                [ ("target", str "f8") ]);
              ("adapt at f64", "analyze", [ "--target"; "f64" ], "analyze",
                [ ("target", str "f64") ]);
              ("tune at f64", "tune", [ "--threshold"; "1e-6"; "--target"; "f64" ],
                "tune", [ ("target", str "f64") ]);
              ("strategy", "search", [ "--threshold"; "1e-6"; "--strategy"; "bogus" ],
                "search", [ ("strategy", str "bogus") ]);
              ("mode", "validate", [ "--mode"; "bogus" ], "validate",
                [ ("mode", str "bogus") ]);
              ("range backend", "analyze", [ "--range"; "--range-backend"; "foo" ],
                "range", [ ("range_backend", str "foo") ]);
              ("demotion spec", "validate", [ "--demote"; "s" ], "validate",
                [ ("demote", strs [ "s" ]) ]);
              ("prune margin", "search",
                [ "--threshold"; "1e-6"; "--prune-margin"; "0.5" ], "search",
                [ ("prune_margin", Json.Num 0.5) ]);
              ("quantile", "search",
                [ "--threshold"; "1e-6"; "--samples"; "8"; "--target-quantile"; "7" ],
                "search", [ ("samples", Json.Num 8.); ("target_quantile", Json.Num 7.) ]);
            ]))

(* [jobs] reaches [Pool.parallel_map] end to end: 500 is answered, with
   the result of 1. The request is only sent once the decoder is seen to
   clamp, so a build without the clamp fails here instead of spawning
   hundreds of domains. *)
let test_jobs_clamped_end_to_end () =
  let cores = Domain.recommended_domain_count () in
  if (Cheffp_server.Api.decode { Cheffp_server.Api.default with jobs = 500 }).jobs > cores
  then Alcotest.fail "jobs 500 is not clamped to the host's cores";
  with_server (fun _ connect ->
      let c = connect () in
      let tune id jobs =
        let resp =
          Client.rpc c
            (Client.request ~id ~cmd:"tune"
               [ ("program", Json.Str source); ("func", Json.Str "looped");
                 ("args", Json.List (List.map (fun a -> Json.Str a) looped_args));
                 ("threshold", Json.Num 1e-6); ("jobs", Json.Num jobs) ])
        in
        expect_ok (Printf.sprintf "jobs %g" jobs) resp;
        Json.to_string (Json.member "result" resp)
      in
      Alcotest.(check string) "jobs 500 = jobs 1" (tune 1 1.) (tune 2 500.))

let test_errors_not_cached () =
  with_server (fun _ connect ->
      let c = connect () in
      let twice program =
        let size0 = (Compile_cache.stats ()).Compile_cache.size in
        let err id =
          expect_error "bad program"
            (Client.rpc c (analyze_request ~id ~program ~func:"f" [ "1.0" ]))
        in
        let e1 = err 1 and e2 = err 2 in
        Alcotest.(check string) "same error twice" e1 e2;
        Alcotest.(check int) "nothing cached" size0
          (Compile_cache.stats ()).Compile_cache.size;
        e1
      in
      let parse_err =
        twice "func f(x: f64): f64 {\n  var y: f64 = x +;\n  return y;\n}\n"
      in
      Alcotest.(check bool) ("parse error located: " ^ parse_err) true
        (contains parse_err "line 2, col 19");
      let type_err =
        twice "func f(x: f64): f64 { var y: int = x; return x; }\n"
      in
      Alcotest.(check bool) ("type error: " ^ type_err) true
        (contains type_err "expected int"))

let test_concurrent_analyze () =
  with_server ~workers:2 (fun _ connect ->
      let c = connect () in
      let req id = analyze_request ~id ~program:source ~func:"looped" looped_args in
      Client.send c (req 1);
      Client.send c (req 2);
      let a = Client.recv c and b = Client.recv c in
      expect_ok "a" a;
      expect_ok "b" b;
      Alcotest.(check string) "identical results"
        (Json.to_string (Json.member "result" a))
        (Json.to_string (Json.member "result" b)))

(* Once [Server.run] has drained, nothing compiled against its registry
   is left in the process-wide cache. *)
let test_drop_on_drain () =
  Compile_cache.clear ();
  with_server (fun _ connect ->
      let c = connect () in
      expect_ok "analyze"
        (Client.rpc c
           (analyze_request ~id:1 ~program:source ~func:"looped" looped_args));
      expect_ok "range"
        (Client.rpc c
           (Client.request ~id:2 ~cmd:"range"
              [ ("program", Json.Str source); ("func", Json.Str "poly");
                ("args", Json.List [ Json.Str "0.5"; Json.Str "2.0" ]) ]));
      expect_ok "search"
        (Client.rpc c
           (Client.request ~id:3 ~cmd:"search"
              [ ("program", Json.Str source); ("func", Json.Str "looped");
                ("args", Json.List (List.map (fun a -> Json.Str a) looped_args));
                ("threshold", Json.Num 1e-6) ]));
      Alcotest.(check bool) "entries while serving" true
        ((Compile_cache.stats ()).Compile_cache.size > 0));
  Alcotest.(check int) "no entry after the drain" 0
    (Compile_cache.stats ()).Compile_cache.size

(* One over-long line closes its own connection and no other. *)
let test_request_line_bound () =
  with_server (fun sock connect ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX sock);
          let line = String.make (Server.max_request_bytes + 1) 'x' in
          let rec write_all pos =
            if pos < String.length line then
              write_all
                (pos + Unix.write_substring fd line pos (String.length line - pos))
          in
          write_all 0;
          let ic = Unix.in_channel_of_descr fd in
          let err = expect_error "long line" (Json.of_string (input_line ic)) in
          Alcotest.(check bool) ("names the limit: " ^ err) true
            (contains err (string_of_int Server.max_request_bytes));
          Alcotest.(check bool) "connection closed" true
            (match input_line ic with
            | _ -> false
            | exception End_of_file -> true));
      let c = connect () in
      expect_ok "ping" (Client.rpc c (Client.request ~id:1 ~cmd:"ping" [])))

let () =
  Alcotest.run "cli"
    [
      ( "subcommands",
        [
          Alcotest.test_case "binary exists" `Quick test_binary_exists;
          Alcotest.test_case "check" `Quick test_check;
          Alcotest.test_case "run" `Quick test_run;
          Alcotest.test_case "run --demote" `Quick test_run_demoted;
          Alcotest.test_case "gradient" `Quick test_gradient;
          Alcotest.test_case "analyze" `Quick test_analyze;
          Alcotest.test_case "tune --emit" `Quick test_tune_and_emit;
          Alcotest.test_case "search" `Quick test_search;
          Alcotest.test_case "sensitivity" `Quick test_sensitivity;
          Alcotest.test_case "errors" `Quick test_errors_reported;
          Alcotest.test_case "exit codes" `Quick test_exit_codes;
          Alcotest.test_case "tune speedup = evaluate" `Quick
            test_tune_speedup_is_evaluate;
          Alcotest.test_case "compiled run failures" `Quick
            test_compiled_run_failures;
          Alcotest.test_case "push/pop errors" `Quick test_push_pop_errors;
          Alcotest.test_case "compiled bounds error" `Quick
            test_compiled_bounds_error;
        ] );
      ( "protocol",
        [ Alcotest.test_case "jobs clamped" `Quick test_protocol_jobs_clamped ] );
      ( "server",
        [
          Alcotest.test_case "analyze reuse" `Quick test_analyze_reuse;
          Alcotest.test_case "reuse keys" `Quick test_reuse_keys;
          Alcotest.test_case "cli = server" `Quick test_cli_equals_server;
          Alcotest.test_case "jobs clamped end to end" `Quick
            test_jobs_clamped_end_to_end;
          Alcotest.test_case "errors not cached" `Quick test_errors_not_cached;
          Alcotest.test_case "concurrent analyze" `Quick test_concurrent_analyze;
          Alcotest.test_case "drop on drain" `Quick test_drop_on_drain;
          Alcotest.test_case "request line bound" `Quick
            test_request_line_bound;
        ] );
    ]
