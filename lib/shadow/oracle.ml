open Cheffp_ir.Ast
module Fp = Cheffp_precision.Fp
module Config = Cheffp_precision.Config
module Interp = Cheffp_ir.Interp
module Estimate = Cheffp_core.Estimate
module Model = Cheffp_core.Model
module Trace = Cheffp_obs.Trace

type verdict = {
  func : string;
  config : Config.t;
  mode : Config.rounding_mode;
  margin : float;
  demoted : (string * Fp.format) list;
  measurements : Shadow.measurement list;
  measured_error : float;
  demotion_error : float;
  inherent_error : float;
  modelled_error : float;
  baseline_error : float;
  bound : float;
  sound : bool;
  tightness : float option;
  branch_divergence : bool;
}

(* Every float variable of [func] with its declared scalar type, in
   declaration order: parameters first, then locals from a recursive
   walk of the body (first declaration of a name wins). *)
let float_declarations func =
  let seen = Hashtbl.create 32 in
  let acc = ref [] in
  let add name s =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.add seen name ();
      acc := (name, s) :: !acc
    end
  in
  List.iter
    (fun p ->
      match p.pty with
      | Tscalar (Sflt _ as s) | Tarr (Sflt _ as s) -> add p.pname s
      | Tscalar Sint | Tarr Sint -> ())
    func.params;
  let rec stmt = function
    | Decl { name; dty = Dscalar (Sflt _ as s); _ }
    | Decl { name; dty = Darr ((Sflt _ as s), _); _ } ->
        add name s
    | Decl _ | Assign _ | Return _ | Call_stmt _ | Push _ | Pop _ -> ()
    | If (_, t, e) ->
        List.iter stmt t;
        List.iter stmt e
    | For { body; _ } | While (_, body) -> List.iter stmt body
  in
  List.iter stmt func.body;
  List.rev !acc

let effective_demotions ~config ~func =
  List.filter_map
    (fun (name, s) ->
      let fmt = Interp.effective_format config s name in
      if Fp.equal_format fmt Fp.F64 then None else Some (name, fmt))
    (float_declarations func)

(* Worst |a - b| over outputs paired by name between two shadow runs. *)
let paired_gap (a : Shadow.result) (b : Shadow.result) =
  let gap (x : Shadow.measurement) (y : Shadow.measurement) =
    let g = Float.abs (x.Shadow.low -. y.Shadow.low) in
    if Float.is_nan g then 0.0 else g
  in
  let ret =
    match (a.Shadow.ret, b.Shadow.ret) with
    | Some x, Some y -> gap x y
    | _ -> 0.0
  in
  List.fold_left
    (fun acc (x : Shadow.measurement) ->
      match
        List.find_opt
          (fun (y : Shadow.measurement) -> String.equal y.Shadow.name x.Shadow.name)
          b.Shadow.outs
      with
      | Some y -> Float.max acc (gap x y)
      | None -> acc)
    ret a.Shadow.outs

let check_estimate ?builtins ?dd_builtins ?(mode = Config.Extended)
    ?(margin = 1.0) ?(slack = 1e-25) ?fuel ~prog ~func ~config args =
  Trace.with_span "oracle.check_estimate" @@ fun () ->
  if Trace.enabled () then begin
    Trace.add_attr "func" (Trace.Str func);
    Trace.add_attr "config" (Trace.Str (Config.to_string config))
  end;
  let f = func_exn prog func in
  let demoted = effective_demotions ~config ~func:f in
  let shadow cfg =
    Shadow.run ?builtins ?dd_builtins ~config:cfg ~mode ?fuel ~prog ~func
      (Interp.copy_args args)
  in
  let configured = shadow config in
  let reference = shadow Config.double in
  if configured.Shadow.ret = None && configured.Shadow.outs = [] then
    Format.kasprintf
      (fun s -> raise (Interp.Runtime_error s))
      "oracle: function %S produced no float output to validate" func;
  let measured_error = Shadow.measured_error configured in
  let inherent_error = Shadow.measured_error reference in
  let demotion_error = paired_gap configured reference in
  let branch_divergence =
    configured.Shadow.branch_hash <> reference.Shadow.branch_hash
  in
  (* One adapt analysis per distinct narrow format: Eq. 2's target
     format is baked into the model, so F32- and F16-demoted variables
     need separate gradient-augmented runs. *)
  let formats =
    List.sort_uniq Stdlib.compare (List.map snd demoted)
  in
  let modelled_error =
    List.fold_left
      (fun acc fmt ->
        let names =
          List.filter_map
            (fun (n, f') -> if Fp.equal_format f' fmt then Some n else None)
            demoted
        in
        let est =
          Estimate.estimate_error ~model:(Model.adapt ~target:fmt ()) ?builtins
            ~prog ~func ()
        in
        let report = Estimate.run est (Interp.copy_args args) in
        List.fold_left
          (fun a n ->
            a
            +. Option.value ~default:0.
                 (List.assoc_opt n report.Estimate.per_variable))
          acc names)
      0.0 formats
  in
  let baseline_estimate =
    let est =
      Estimate.estimate_error ~model:(Model.taylor ~target:Fp.F64 ()) ?builtins
        ~prog ~func ()
    in
    (Estimate.run est (Interp.copy_args args)).Estimate.total_error
  in
  let baseline_error = Float.max baseline_estimate inherent_error in
  let bound = (margin *. modelled_error) +. baseline_error in
  let sound = measured_error <= bound +. slack in
  let tightness =
    if measured_error > 0.0 then Some (bound /. measured_error) else None
  in
  if Trace.enabled () then begin
    Trace.add_attr "measured" (Trace.Float measured_error);
    Trace.add_attr "bound" (Trace.Float bound);
    Trace.add_attr "sound" (Trace.Bool sound)
  end;
  {
    func;
    config;
    mode;
    margin;
    demoted;
    measurements =
      (match configured.Shadow.ret with
      | Some m -> m :: configured.Shadow.outs
      | None -> configured.Shadow.outs);
    measured_error;
    demotion_error;
    inherent_error;
    modelled_error;
    baseline_error;
    bound;
    sound;
    tightness;
    branch_divergence;
  }

let render v =
  let b = Buffer.create 512 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "validate %s\n" v.func;
  pf "  mode: %s, margin: %g\n"
    (match v.mode with Config.Source -> "source" | Config.Extended -> "extended")
    v.margin;
  (match v.demoted with
  | [] -> pf "  demoted: (none — uniform binary64)\n"
  | ds ->
      pf "  demoted: %s\n"
        (String.concat ", "
           (List.map (fun (n, f) -> n ^ ":" ^ Fp.format_to_string f) ds)));
  List.iter
    (fun (m : Shadow.measurement) ->
      pf "  %-12s %.17g  (true %.17g, error %.3e)\n" m.Shadow.name m.Shadow.low
        (Dd.to_float m.Shadow.shadow)
        m.Shadow.abs_error)
    v.measurements;
  pf "  measured error:  %.6e  (demotion %.6e + binary64 floor %.6e)\n"
    v.measured_error v.demotion_error v.inherent_error;
  pf "  modelled bound:  %.6e  (CHEF-FP %.6e, baseline %.6e)\n" v.bound
    v.modelled_error v.baseline_error;
  (match v.tightness with
  | Some t -> pf "  tightness:       %.2fx\n" t
  | None -> pf "  tightness:       (exact — zero measured error)\n");
  if v.branch_divergence then
    pf "  warning: control flow diverged from the binary64 run\n";
  pf "  verdict:         %s\n" (if v.sound then "SOUND" else "UNSOUND");
  Buffer.contents b
