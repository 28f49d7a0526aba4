(* Golden deterministic counts of the paper programs (Table II's byte
   columns).

   One line per program at a small size: the ADAPT tape's node count and
   modelled bytes, and the CHEF-FP analysis bytes of the same run. These
   are the counts a performance change to the tape or the estimate must
   leave exactly as they are. The sizes are small enough to keep the
   test quick and large enough that most tapes span several storage
   chunks.

   The output is diffed against paper_counts.expected by [dune runtest];
   an intentional change is promoted with [dune promote] and explained
   in the change log. *)

module B = Cheffp_benchmarks
module E = Cheffp_core.Estimate
module Model = Cheffp_core.Model
module Adapt = Cheffp_adapt.Adapt

let options = { E.default_options with E.per_variable = false }

let line name ~prog ~func ~args adapt_run =
  let est = E.estimate_error ~model:(Model.adapt ()) ~options ~prog ~func () in
  let report = E.run est args in
  match Adapt.analyze adapt_run with
  | Ok a ->
      Printf.printf "%s adapt_nodes %d adapt_tape_bytes %d analysis_bytes %d\n"
        name a.Adapt.nodes a.Adapt.tape_bytes report.E.analysis_bytes
  | Error _ -> Printf.printf "%s adapt out of memory\n" name

let () =
  let n = 2_000 in
  line "arclength" ~prog:B.Arclength.program ~func:B.Arclength.func_name
    ~args:(B.Arclength.args ~n) (fun tape ->
      let module N = (val Adapt.num tape) in
      let module M = B.Arclength.Native (N) in
      M.run ~n);
  let a = 0. and b = Float.pi and n = 5_000 in
  line "simpsons" ~prog:B.Simpsons.program ~func:B.Simpsons.func_name
    ~args:(B.Simpsons.args ~a ~b ~n) (fun tape ->
      let module N = (val Adapt.num tape) in
      let module M = B.Simpsons.Native (N) in
      M.run ~a ~b ~n);
  let km = B.Kmeans.generate ~npoints:500 () in
  line "kmeans" ~prog:B.Kmeans.program ~func:B.Kmeans.func_name
    ~args:(B.Kmeans.args km) (fun tape ->
      let module N = (val Adapt.num tape) in
      let module M = B.Kmeans.Native (N) in
      M.run km);
  let hp = B.Hpccg.generate ~nx:6 ~ny:6 ~nz:4 ~max_iter:8 () in
  line "hpccg" ~prog:B.Hpccg.program ~func:B.Hpccg.func_name
    ~args:(B.Hpccg.args hp) (fun tape ->
      let module N = (val Adapt.num tape) in
      let module M = B.Hpccg.Native (N) in
      M.run hp);
  let bs = B.Blackscholes.generate ~n:500 () in
  line "blackscholes"
    ~prog:(B.Blackscholes.program B.Blackscholes.Exact)
    ~func:B.Blackscholes.func_name ~args:(B.Blackscholes.args bs) (fun tape ->
      let module N = (val Adapt.num tape) in
      let module M = B.Blackscholes.Native (N) in
      M.run bs)
