(* Golden digests of the MiniFP interpreter's two instances and of the
   two compiled executors.

   [Interp.run] (the plain binary64 lane) and [Shadow.run] (the same
   interpreter carrying a double-double lane) must keep their exact
   results. One line per program: its name, the MD5 of its Interp dump
   and the MD5 of its Shadow dump. Each dump covers the program under
   binary64, uniform binary32, uniform binary16 and one variable demoted
   to binary32, each in Source and Extended rounding mode; generated
   programs add their seeded configuration. Values print with [%h], so
   one changed bit changes the digest.

   - Interp dump: the return value, the [out] parameters, the final
     contents of the array arguments, [stack_peak_bytes], and the cost
     counter's total and cast count.
   - Shadow dump: every measurement (low value, dd [hi]/[lo], absolute
     and relative error), [ret_int], the per-variable divergence and
     [branch_hash].

   After each program's line comes its [compiled] line: the name, the
   word [compiled] and three MD5s, over the same configurations and
   both rounding modes.

   - Compile dump: a metered [Compile.run] per configuration, with the
     Interp dump's fields.
   - Batch dump: every configuration as one [Batch.run] sweep: per
     lane the return value, [out] parameters and [stack_peak_bytes],
     then the sweep's [divergences]. Lanes carry no cost.
   - Input-sweep dump: per configuration, [Batch.run_inputs] over 8
     argument vectors, lane [l] scaling every float scalar and
     float-array element by [1 + l/8]; the Batch dump's fields.

   A compiled run that raises is recorded as [error] without its
   message, so a change of exception or wording moves no line.

   Programs: the FPCore corpus kernels at their [:pre] midpoints, the
   reverse-mode adjoints of those kernels, the five paper programs at
   small sizes, and seeded generated mixed-precision programs with
   their adjoints.

   The output is diffed against interp_digest.expected by
   [dune runtest]; an intentional change to interpreter or executor
   results is promoted with [dune promote] and explained in the change
   log. *)

open Cheffp_ir
module B = Cheffp_benchmarks
module Config = Cheffp_precision.Config
module Fp = Cheffp_precision.Fp
module Cost = Cheffp_precision.Cost
module Shadow = Cheffp_shadow.Shadow
module Dd = Cheffp_shadow.Dd
module Reverse = Cheffp_ad.Reverse

let fuel = 2_000_000

let value b = function
  | Builtins.F x -> Printf.bprintf b "F %h" x
  | Builtins.I n -> Printf.bprintf b "I %d" n

let arrays b args =
  List.iter
    (function
      | Interp.Afarr a -> Array.iter (Printf.bprintf b " %h") a
      | Interp.Aiarr a -> Array.iter (Printf.bprintf b " %d") a
      | Interp.Aint _ | Interp.Aflt _ -> ())
    args

let ret_outs b (r : Interp.result) =
  Buffer.add_string b "ret ";
  (match r.Interp.ret with
  | Some v -> value b v
  | None -> Buffer.add_string b "none");
  List.iter
    (fun (n, v) ->
      Printf.bprintf b " %s=" n;
      value b v)
    r.Interp.outs

(* The Interp dump's fields of one run. *)
let run_fields b counter args (r : Interp.result) =
  ret_outs b r;
  Buffer.add_string b " arrays";
  arrays b args;
  Printf.bprintf b " peak %d cost %h casts %d\n" r.Interp.stack_peak_bytes
    (Cost.Counter.total counter)
    (Cost.Counter.casts counter)

let interp_dump b ~config ~mode ~prog ~func args =
  let counter = Cost.Counter.create Cost.default in
  let args = Interp.copy_args args in
  match Interp.run ~config ~mode ~counter ~fuel ~prog ~func args with
  | r -> run_fields b counter args r
  | exception Interp.Runtime_error m -> Printf.bprintf b "error %S\n" m

let compile_dump b ~config ~mode ~prog ~func args =
  let counter = Cost.Counter.create Cost.default in
  let args = Interp.copy_args args in
  match
    Compile.run ~counter
      (Compile.compile ~config ~mode ~meter:true ~prog ~func ())
      args
  with
  | r -> run_fields b counter args r
  | exception _ -> Buffer.add_string b "error\n"

(* One lane sweep: per lane its result, then the divergence count. *)
let sweep_dump b sweep =
  match sweep () with
  | (r : Batch.result) ->
      Array.iter
        (fun lane ->
          ret_outs b lane;
          Printf.bprintf b " peak %d\n" lane.Interp.stack_peak_bytes)
        r.Batch.lanes;
      Printf.bprintf b "divergences %d\n" r.Batch.divergences
  | exception _ -> Buffer.add_string b "error\n"

let sweep_lanes = 8

(* Lane [l]'s arguments: every float scalar and float-array element
   scaled by [1 + l/8]. *)
let perturbed args l =
  let s = 1. +. (float_of_int l /. 8.) in
  List.map
    (function
      | Interp.Aflt x -> Interp.Aflt (x *. s)
      | Interp.Afarr a -> Interp.Afarr (Array.map (fun x -> x *. s) a)
      | Interp.Aiarr a -> Interp.Aiarr (Array.copy a)
      | Interp.Aint _ as a -> a)
    args

(* The Batch and input-sweep dumps of one rounding mode. *)
let batch_dumps bb bx ~configs ~mode ~prog ~func args =
  let inputs = Array.init sweep_lanes (perturbed args) in
  match Batch.compile ~mode ~prog ~func () with
  | exception _ ->
      Buffer.add_string bb "error\n";
      Buffer.add_string bx "error\n"
  | t ->
      let cfgs = Array.of_list (List.map snd configs) in
      sweep_dump bb (fun () ->
          Batch.run t ~configs:cfgs (Interp.copy_args args));
      List.iter
        (fun (cname, config) ->
          Printf.bprintf bx "%s: " cname;
          sweep_dump bx (fun () ->
              Batch.run_inputs t ~config (Array.map Interp.copy_args inputs)))
        configs

let measurement b (m : Shadow.measurement) =
  Printf.bprintf b " %s low %h hi %h lo %h abs %h rel %h" m.Shadow.name
    m.Shadow.low m.Shadow.shadow.Dd.hi m.Shadow.shadow.Dd.lo
    m.Shadow.abs_error m.Shadow.rel_error

let shadow_dump b ~config ~mode ~prog ~func args =
  let args = Interp.copy_args args in
  match Shadow.run ~config ~mode ~fuel ~prog ~func args with
  | r ->
      Buffer.add_string b "ms";
      Option.iter (measurement b) r.Shadow.ret;
      List.iter (measurement b) r.Shadow.outs;
      (match r.Shadow.ret_int with
      | Some n -> Printf.bprintf b " ret_int %d" n
      | None -> ());
      Buffer.add_string b " div";
      List.iter
        (fun (n, g) -> Printf.bprintf b " %s=%h" n g)
        r.Shadow.divergence;
      Buffer.add_string b " arrays";
      arrays b args;
      Printf.bprintf b " hash %d\n" r.Shadow.branch_hash
  | exception Interp.Runtime_error m -> Printf.bprintf b "error %S\n" m

(* The first float variable of [f]: a parameter, else a top-level local. *)
let first_float_var (f : Ast.func) =
  let param (p : Ast.param) =
    match p.Ast.pty with
    | Ast.Tscalar (Ast.Sflt _) | Ast.Tarr (Ast.Sflt _) -> Some p.Ast.pname
    | _ -> None
  in
  let local = function
    | Ast.Decl
        { name; dty = Ast.Dscalar (Ast.Sflt _) | Ast.Darr (Ast.Sflt _, _); _ } ->
        Some name
    | _ -> None
  in
  match List.find_map param f.Ast.params with
  | Some v -> Some v
  | None -> List.find_map local f.Ast.body

let configs ?(extra = []) (f : Ast.func) =
  [
    ("f64", Config.double);
    ("f32", Config.uniform Fp.F32);
    ("f16", Config.uniform Fp.F16);
  ]
  @ (match first_float_var f with
    | Some v -> [ ("demote " ^ v, Config.demote Config.double v Fp.F32) ]
    | None -> [])
  @ extra

let modes = [ ("source", Config.Source); ("extended", Config.Extended) ]
let md5 b = Digest.to_hex (Digest.string (Buffer.contents b))

let line ?extra name ~prog ~func args =
  let f = Ast.func_exn prog func in
  let configs = configs ?extra f in
  let bi = Buffer.create 4096 and bs = Buffer.create 4096 in
  let bc = Buffer.create 4096 in
  List.iter
    (fun (cname, config) ->
      List.iter
        (fun (mname, mode) ->
          let tag = Printf.sprintf "%s %s: " cname mname in
          Buffer.add_string bi tag;
          interp_dump bi ~config ~mode ~prog ~func args;
          Buffer.add_string bs tag;
          shadow_dump bs ~config ~mode ~prog ~func args;
          Buffer.add_string bc tag;
          compile_dump bc ~config ~mode ~prog ~func args)
        modes)
    configs;
  let bb = Buffer.create 4096 and bx = Buffer.create 4096 in
  List.iter
    (fun (mname, mode) ->
      Buffer.add_string bb (mname ^ " ");
      Buffer.add_string bx (mname ^ " ");
      batch_dumps bb bx ~configs ~mode ~prog ~func args)
    modes;
  Printf.printf "%s %s %s\n" name (md5 bi) (md5 bs);
  Printf.printf "%s compiled %s %s %s\n" name (md5 bc) (md5 bb) (md5 bx)

(* The adjoint of [func], run at [args] with zeroed derivative outputs
   (one per float parameter, in parameter order). *)
let adjoint ?extra name ~prog ~func args =
  let f = Ast.func_exn prog func in
  match Reverse.differentiate prog func with
  | exception Reverse.Error m -> Printf.printf "%s error %S\n" name m
  | g ->
      let zeros =
        List.filter_map
          (fun ((p : Ast.param), arg) ->
            match (p.Ast.pty, arg) with
            | Ast.Tscalar (Ast.Sflt _), _ -> Some (Interp.Aflt 0.)
            | Ast.Tarr (Ast.Sflt _), Interp.Afarr a ->
                Some (Interp.Afarr (Array.make (Array.length a) 0.))
            | _ -> None)
          (List.combine f.Ast.params args)
      in
      line ?extra name ~prog:(Ast.add_func prog g) ~func:g.Ast.fname
        (args @ zeros)

let generated_cases = 200

let () =
  List.iter
    (fun (e : B.Corpus.entry) ->
      let c = e.B.Corpus.core in
      let name = Filename.basename e.B.Corpus.path in
      let func = c.Cheffp_fpcore.Import.func.Ast.fname in
      let args = c.Cheffp_fpcore.Import.default_args in
      line name ~prog:e.B.Corpus.prog ~func args;
      adjoint (name ^ " adjoint") ~prog:e.B.Corpus.prog ~func args)
    (B.Corpus.load ());
  line "arclength" ~prog:B.Arclength.program ~func:B.Arclength.func_name
    (B.Arclength.args ~n:100);
  line "simpsons" ~prog:B.Simpsons.program ~func:B.Simpsons.func_name
    (B.Simpsons.args ~a:0. ~b:Float.pi ~n:100);
  line "kmeans" ~prog:B.Kmeans.program ~func:B.Kmeans.func_name
    (B.Kmeans.args (B.Kmeans.generate ~npoints:40 ()));
  line "hpccg" ~prog:B.Hpccg.program ~func:B.Hpccg.func_name
    (B.Hpccg.args (B.Hpccg.generate ~nx:3 ~ny:3 ~nz:3 ~max_iter:4 ()));
  line "blackscholes"
    ~prog:(B.Blackscholes.program B.Blackscholes.Exact)
    ~func:B.Blackscholes.func_name
    (B.Blackscholes.args (B.Blackscholes.generate ~n:16 ()));
  for seed = 0 to generated_cases - 1 do
    let rand = Random.State.make [| seed |] in
    let prog = QCheck.Gen.generate1 ~rand Gen_minifp.gen_mixed_program in
    let config = QCheck.Gen.generate1 ~rand Gen_minifp.gen_config in
    let x, y = QCheck.Gen.generate1 ~rand Gen_minifp.gen_inputs in
    let args = [ Interp.Aflt x; Interp.Aflt y; Interp.Aint 4 ] in
    let extra = [ ("seeded", config) ] in
    line ~extra (Printf.sprintf "gen%03d" seed) ~prog ~func:"fuzz" args;
    adjoint ~extra (Printf.sprintf "gen%03d adjoint" seed) ~prog ~func:"fuzz"
      args
  done
