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
      Alcotest.(check int) "bad option value" 124 code);
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

let test_compiled_bounds_error () =
  expect_input_error
    "func f(x: f64): f64 { var a: f64[2]; a[0] = x; return a[3] + x; }"
    [ "run"; "validate"; "analyze"; "tune" ]

(* The daemon's wire format is the other outside entry point. A
   request's [jobs] becomes the domain count of [Pool.parallel_map], so
   it is clamped where it is decoded; nothing here runs the pool. *)
let test_protocol_jobs_clamped () =
  let jobs field =
    match
      Cheffp_server.Protocol.parse_request
        (Printf.sprintf {|{"id": 1, "cmd": "analyze"%s}|} field)
    with
    | Ok r -> r.Cheffp_server.Protocol.jobs
    | Error m -> Alcotest.fail m
  in
  let cores = Domain.recommended_domain_count () in
  Alcotest.(check int) "absent" 1 (jobs "");
  Alcotest.(check int) "500" cores (jobs {|, "jobs": 500|});
  Alcotest.(check int) "0" 1 (jobs {|, "jobs": 0|});
  Alcotest.(check int) "-3" 1 (jobs {|, "jobs": -3|});
  Alcotest.(check int) "cores" cores (jobs (Printf.sprintf {|, "jobs": %d|} cores))

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
          Alcotest.test_case "push/pop errors" `Quick test_push_pop_errors;
          Alcotest.test_case "compiled bounds error" `Quick
            test_compiled_bounds_error;
        ] );
      ( "protocol",
        [ Alcotest.test_case "jobs clamped" `Quick test_protocol_jobs_clamped ] );
    ]
