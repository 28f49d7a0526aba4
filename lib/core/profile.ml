open Cheffp_ir
module Config = Cheffp_precision.Config
module Fp = Cheffp_precision.Fp
module Trace = Cheffp_obs.Trace
module Metrics = Cheffp_obs.Metrics

type t = {
  func : string;
  atoms : (string * float) list;  (* descending *)
  ranges : (string * (float * float)) list;
  total_atom : float;
}

let builds_c = Metrics.counter "profile.builds"
let cache_hits_c = Metrics.counter "profile.cache_hits"

let func t = t.func
let atoms t = t.atoms
let ranges t = t.ranges
let total_atom t = t.total_atom

let atom t v =
  match List.assoc_opt v t.atoms with Some a -> a | None -> 0.

let of_atoms ?(ranges = []) ~func atoms =
  let atoms = List.sort (fun (_, a) (_, b) -> compare b a) atoms in
  {
    func;
    atoms;
    ranges;
    total_atom = List.fold_left (fun acc (_, a) -> acc +. a) 0. atoms;
  }

(* Relative to the all-binary64 reference: demoting nothing costs
   nothing, so F64 contributes no eps (the binary64 floor is the
   oracle's baseline term, deliberately not modelled here — exactly as
   in Eq. 2). *)
let eps_rel = function Fp.F64 -> 0. | fmt -> Fp.unit_roundoff fmt

let score t cfg =
  List.fold_left
    (fun acc (v, a) -> acc +. (a *. eps_rel (Config.format_of cfg v)))
    0. t.atoms

let score_vars t ~target vars =
  let eps = eps_rel target in
  List.fold_left (fun acc v -> acc +. (atom t v *. eps)) 0. vars

let overflows t ~target v =
  let limit = 0.5 *. Fp.max_finite target in
  match List.assoc_opt v t.ranges with
  | Some (lo, hi) -> Float.max (Float.abs lo) (Float.abs hi) > limit
  | None -> false

let build ?deriv ?builtins ~prog ~func ~args () =
  Trace.with_span "profile.build" @@ fun () ->
  if Trace.enabled () then Trace.add_attr "func" (Trace.Str func);
  Metrics.incr builds_c;
  let est =
    Estimate.estimate_error ~model:(Model.atom ()) ?deriv ?builtins
      ~options:{ Estimate.default_options with Estimate.track_ranges = true }
      ~prog ~func ()
  in
  (* The analyzed function may mutate array arguments; profile building
     must not. *)
  let report = Estimate.run est (Interp.copy_args args) in
  let atoms =
    List.sort
      (fun (_, a) (_, b) -> compare b a)
      report.Estimate.per_variable
  in
  let t =
    {
      func;
      atoms;
      ranges = report.Estimate.ranges;
      total_atom = report.Estimate.total_error;
    }
  in
  if Trace.enabled () then begin
    Trace.add_attr "vars" (Trace.Int (List.length t.atoms));
    Trace.add_attr "total_atom" (Trace.Float t.total_atom)
  end;
  t

(* ------------------------------------------------------------------ *)
(* Cached profiles, sharing the compile cache's LRU machinery.        *)

type Compile_cache.artifact += Profile_art of t

(* Canonical byte serialization of the argument vector (floats by their
   IEEE bits, so distinct NaN payloads and -0.0/0.0 digest apart like
   the runs they would produce). *)
let args_digest args =
  let b = Buffer.create 256 in
  let add_f x = Buffer.add_int64_le b (Int64.bits_of_float x) in
  List.iter
    (function
      | Interp.Aint n ->
          Buffer.add_char b 'i';
          Buffer.add_string b (string_of_int n);
          Buffer.add_char b ';'
      | Interp.Aflt x ->
          Buffer.add_char b 'f';
          add_f x
      | Interp.Afarr a ->
          Buffer.add_char b 'F';
          Buffer.add_string b (string_of_int (Array.length a));
          Buffer.add_char b ';';
          Array.iter add_f a
      | Interp.Aiarr a ->
          Buffer.add_char b 'I';
          Buffer.add_string b (string_of_int (Array.length a));
          Buffer.add_char b ';';
          Array.iter
            (fun n ->
              Buffer.add_string b (string_of_int n);
              Buffer.add_char b ',')
            a)
    args;
  Digest.to_hex (Digest.string (Buffer.contents b))

let cache_key ~prog ~func ~args =
  Printf.sprintf "profile|%s|%s|atom|%s"
    (Digest.to_hex (Digest.string (Pp.program_to_string prog)))
    func (args_digest args)

let build_cached ?deriv ?builtins ~prog ~func ~args () =
  let built = ref false in
  let t =
    Compile_cache.lookup_or
      ~key:(cache_key ~prog ~func ~args)
      ~label:func ~builtins
      ~select:(function Profile_art t -> Some t | _ -> None)
      ~inject:(fun t -> Profile_art t)
      ~build:(fun () ->
        built := true;
        build ?deriv ?builtins ~prog ~func ~args ())
  in
  if not !built then begin
    Metrics.incr cache_hits_c;
    Trace.event "profile.cache_hit" ~attrs:[ ("func", Trace.Str func) ]
  end;
  t
