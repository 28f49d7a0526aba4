(* Golden digests of the optimizer's output.

   The fuzz suites check that optimized code computes the same values;
   this pins that it is the same code. One line per case: the number of
   statements in the optimized function and the MD5 of its [Pp] text.
   Cases:

   - every estimate build over the FPCore corpus, the paper programs
     (plus the per-option Black-Scholes entry point) and the functions
     of examples/programs/*.mfp, under the taylor(f32), adapt(f32) and
     atom models, each with the default options and with per-variable
     attribution off and range tracking on;
   - [Optimize.optimize_func] on seeded generated programs with no
     opaque set, with every variable opaque (as [Batch] calls it) and
     with a seeded demoted set (as [Compile] calls it).

   The output is diffed against optimizer_digest.expected by
   [dune runtest]; an intentional change to the generated code is
   promoted with [dune promote] and explained in the change log. *)

open Cheffp_ir
open Cheffp_core
module B = Cheffp_benchmarks
module Config = Cheffp_precision.Config
module Fp = Cheffp_precision.Fp

let rec count_stmts stmts =
  List.fold_left
    (fun acc s ->
      acc + 1
      +
      match s with
      | Ast.If (_, a, b) -> count_stmts a + count_stmts b
      | Ast.For { body; _ } | Ast.While (_, body) -> count_stmts body
      | _ -> 0)
    0 stmts

let line name (f : Ast.func) =
  Printf.printf "%s %d %s\n" name (count_stmts f.Ast.body)
    (Digest.to_hex (Digest.string (Pp.func_to_string f)))

let models =
  [
    ("taylor32", fun () -> Model.taylor ~target:Fp.F32 ());
    ("adapt32", fun () -> Model.adapt ~target:Fp.F32 ());
    ("atom", fun () -> Model.atom ());
  ]

let option_sets =
  [
    ("default", Estimate.default_options);
    ( "ranges",
      { Estimate.default_options with per_variable = false; track_ranges = true }
    );
  ]

let estimates label prog func =
  List.iter
    (fun (mname, model) ->
      List.iter
        (fun (oname, options) ->
          let name = Printf.sprintf "estimate %s/%s %s %s" label func mname oname in
          match Estimate.estimate_error ~model:(model ()) ~options ~prog ~func () with
          | t -> line name (Estimate.generated t)
          | exception Estimate.Error m -> Printf.printf "%s error %S\n" name m)
        option_sets)
    models

let examples_dir () =
  List.find Sys.file_exists
    [ "../examples/programs"; "examples/programs"; "../../examples/programs" ]

let generated_cases = 200

let () =
  List.iter
    (fun (e : B.Corpus.entry) ->
      List.iter
        (fun (f : Ast.func) ->
          estimates (Filename.basename e.path) e.prog f.Ast.fname)
        e.prog.Ast.funcs)
    (B.Corpus.load ());
  let bs = B.Blackscholes.program B.Blackscholes.Exact in
  List.iter
    (fun (label, prog, func) -> estimates label prog func)
    [
      ("arclength", B.Arclength.program, B.Arclength.func_name);
      ("simpsons", B.Simpsons.program, B.Simpsons.func_name);
      ("kmeans", B.Kmeans.program, B.Kmeans.func_name);
      ("hpccg", B.Hpccg.program, B.Hpccg.func_name);
      ("blackscholes", bs, B.Blackscholes.func_name);
      ("blackscholes", bs, B.Blackscholes.price_func);
    ];
  let dir = examples_dir () in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".mfp")
  |> List.sort compare
  |> List.iter (fun file ->
         let ic = open_in_bin (Filename.concat dir file) in
         let src = really_input_string ic (in_channel_length ic) in
         close_in ic;
         let prog = Parser.parse_program src in
         Typecheck.check_program prog;
         List.iter (fun (f : Ast.func) -> estimates file prog f.Ast.fname)
           prog.Ast.funcs);
  for seed = 0 to generated_cases - 1 do
    let rand = Random.State.make [| seed |] in
    let prog = QCheck.Gen.generate1 ~rand Gen_minifp.gen_program in
    let config = QCheck.Gen.generate1 ~rand Gen_minifp.gen_config in
    let f = Ast.func_exn prog "fuzz" in
    let demoted v =
      Config.has_override config v
      || not (Fp.equal_format (Config.default_format config) Fp.F64)
    in
    List.iter
      (fun (oname, opaque) ->
        line
          (Printf.sprintf "optimize gen%03d %s" seed oname)
          (Optimize.optimize_func ~opaque f))
      [ ("none", fun _ -> false); ("all", fun _ -> true); ("demoted", demoted) ]
  done
