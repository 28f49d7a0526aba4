open Ast
module Fp = Cheffp_precision.Fp
module Config = Cheffp_precision.Config
module Growable = Cheffp_util.Growable
module Pool = Cheffp_util.Pool
module Trace = Cheffp_obs.Trace
module Metrics = Cheffp_obs.Metrics

let fail = Lower.fail
let default_lanes = 8

(* Input sweeps carry one config and per-lane data only, so per-chunk
   fixed costs (environment build, result assembly) amortize over more
   lanes before cache pressure bites; config-axis batches stay at
   [default_lanes] because search phases rarely have more candidates. *)
let default_sweep_lanes = 64

let lanes_g = Metrics.gauge "batch.lanes"
let runs_c = Metrics.counter "batch.runs"
let input_sweeps_c = Metrics.counter "batch.input_sweeps"
let divergence_c = Metrics.counter "batch.divergence_total"

(* Rounders for the per-lane loops, which dispatch on a format tag.
   [r32] repeats [Fp.round F32] inline because a call through a closure
   or into another compilation unit boxes its float argument; [r16]
   (binary16 is rare) does call [Fp.round]. *)
let[@inline] r32 x = Int32.float_of_bits (Int32.bits_of_float x)
let r16 x = Fp.round Fp.F16 x

let[@inline] rnd fmt x =
  match fmt with Fp.F64 -> x | Fp.F32 -> r32 x | Fp.F16 -> r16 x

(* Agree on one integer across the live lanes. All agreeing: that value.
   Otherwise a divergence: the majority (ties towards the lowest-index
   lane) stays batched, every dissenting lane is deactivated and later
   re-run through the scalar fallback. *)
let consensus (env : Lower.env) (vals : int array) : int =
  let k = env.k in
  let first = ref min_int and seen = ref false and agree = ref true in
  for l = 0 to k - 1 do
    if env.lanes.active.(l) then
      if not !seen then begin
        first := vals.(l);
        seen := true
      end
      else if vals.(l) <> !first then agree := false
  done;
  if !agree then !first
  else begin
    let best = ref !first and best_n = ref (-1) in
    for l = 0 to k - 1 do
      if env.lanes.active.(l) then begin
        let n = ref 0 in
        for m = 0 to k - 1 do
          if env.lanes.active.(m) && vals.(m) = vals.(l) then incr n
        done;
        if !n > !best_n then begin
          best := vals.(l);
          best_n := !n
        end
      end
    done;
    let v = !best in
    for l = 0 to k - 1 do
      if env.lanes.active.(l) && vals.(l) <> v then begin
        env.lanes.active.(l) <- false;
        env.lanes.dropped <- env.lanes.dropped + 1
      end
    done;
    v
  end

(* ------------------------------------------------------------------ *)
(* The lane emitter. A float slot holds K contiguous lanes and an
   instruction is one unboxed loop over them. A node's format is a rule
   over the configuration: rule 0 is F64 on every lane; the others are a
   variable's storage format or the wider of two earlier rules. A run
   resolves every rule per lane into [env.lanes.fmts] before it starts.
   Wherever a float becomes an int the lanes vote ([consensus]). *)

type rule = Rf64 | Rvar of Ast.scalar * string | Rwider of int * int

let[@inline] cmp op (x : float) y =
  match op with
  | Eq -> x = y
  | Ne -> x <> y
  | Lt -> x < y
  | Le -> x <= y
  | Gt -> x > y
  | Ge -> x >= y
  | _ -> assert false

module Lanes = struct
  open Lower

  type fmt = int
  type st = { mutable rules : rule list; mutable nrules : int }

  let f64 = 0
  let same = Int.equal

  let add st r =
    let i = st.nrules in
    st.rules <- r :: st.rules;
    st.nrules <- i + 1;
    i

  let var_fmt st s name = add st (Rvar (s, name))

  (* F64 is the widest format, so it absorbs. *)
  let wider st a b =
    if a = b then a else if a = f64 || b = f64 then f64 else add st (Rwider (a, b))

  let predicated = true

  let move fmt d src : instr =
    if fmt = f64 then fun env ->
      let k = env.k in
      Array.blit env.fl (src * k) env.fl (d * k) k
    else fun env ->
      let k = env.k and fl = env.fl and fm = env.lanes.fmts in
      let d = d * k and src = src * k and r = fmt * k in
      for l = 0 to k - 1 do
        fl.(d + l) <-
          (match fm.(r + l) with
          | Fp.F64 -> fl.(src + l)
          | Fp.F32 -> r32 fl.(src + l)
          | Fp.F16 -> r16 fl.(src + l))
      done

  let neg d a : instr =
   fun env ->
    let k = env.k and fl = env.fl in
    let d = d * k and a = a * k in
    for l = 0 to k - 1 do
      fl.(d + l) <- -.fl.(a + l)
    done

  (* One specialised loop per operator; under a rule other than F64 the
     rounding is fused into the store. *)
  let arith op fmt d a b : instr =
    if fmt = f64 then
      match op with
      | Add -> fun env ->
          let k = env.k and fl = env.fl in
          let d = d * k and a = a * k and b = b * k in
          for l = 0 to k - 1 do fl.(d + l) <- fl.(a + l) +. fl.(b + l) done
      | Sub -> fun env ->
          let k = env.k and fl = env.fl in
          let d = d * k and a = a * k and b = b * k in
          for l = 0 to k - 1 do fl.(d + l) <- fl.(a + l) -. fl.(b + l) done
      | Mul -> fun env ->
          let k = env.k and fl = env.fl in
          let d = d * k and a = a * k and b = b * k in
          for l = 0 to k - 1 do fl.(d + l) <- fl.(a + l) *. fl.(b + l) done
      | Div -> fun env ->
          let k = env.k and fl = env.fl in
          let d = d * k and a = a * k and b = b * k in
          for l = 0 to k - 1 do fl.(d + l) <- fl.(a + l) /. fl.(b + l) done
      | _ -> assert false
    else
      match op with
      | Add -> fun env ->
          let k = env.k and fl = env.fl and fm = env.lanes.fmts in
          let d = d * k and a = a * k and b = b * k and r = fmt * k in
          for l = 0 to k - 1 do
            fl.(d + l) <-
              (match fm.(r + l) with
              | Fp.F64 -> fl.(a + l) +. fl.(b + l)
              | Fp.F32 -> r32 (fl.(a + l) +. fl.(b + l))
              | Fp.F16 -> r16 (fl.(a + l) +. fl.(b + l)))
          done
      | Sub -> fun env ->
          let k = env.k and fl = env.fl and fm = env.lanes.fmts in
          let d = d * k and a = a * k and b = b * k and r = fmt * k in
          for l = 0 to k - 1 do
            fl.(d + l) <-
              (match fm.(r + l) with
              | Fp.F64 -> fl.(a + l) -. fl.(b + l)
              | Fp.F32 -> r32 (fl.(a + l) -. fl.(b + l))
              | Fp.F16 -> r16 (fl.(a + l) -. fl.(b + l)))
          done
      | Mul -> fun env ->
          let k = env.k and fl = env.fl and fm = env.lanes.fmts in
          let d = d * k and a = a * k and b = b * k and r = fmt * k in
          for l = 0 to k - 1 do
            fl.(d + l) <-
              (match fm.(r + l) with
              | Fp.F64 -> fl.(a + l) *. fl.(b + l)
              | Fp.F32 -> r32 (fl.(a + l) *. fl.(b + l))
              | Fp.F16 -> r16 (fl.(a + l) *. fl.(b + l)))
          done
      | Div -> fun env ->
          let k = env.k and fl = env.fl and fm = env.lanes.fmts in
          let d = d * k and a = a * k and b = b * k and r = fmt * k in
          for l = 0 to k - 1 do
            fl.(d + l) <-
              (match fm.(r + l) with
              | Fp.F64 -> fl.(a + l) /. fl.(b + l)
              | Fp.F32 -> r32 (fl.(a + l) /. fl.(b + l))
              | Fp.F16 -> r16 (fl.(a + l) /. fl.(b + l)))
          done
      | _ -> assert false

  let load d slot gi : instr =
   fun env ->
    let i = gi env and k = env.k and fl = env.fl and fa = env.fa in
    let d = d * k and s = slot * k in
    for l = 0 to k - 1 do
      fl.(d + l) <- fa.(s + l).(i)
    done

  let store_elem fmt slot gi src : instr =
   fun env ->
    let i = gi env and k = env.k and fl = env.fl and fa = env.fa in
    let s = slot * k and src = src * k in
    if fmt = f64 then
      for l = 0 to k - 1 do
        fa.(s + l).(i) <- fl.(src + l)
      done
    else
      let fm = env.lanes.fmts and r = fmt * k in
      for l = 0 to k - 1 do
        fa.(s + l).(i) <- rnd fm.(r + l) fl.(src + l)
      done

  let zero slot : instr = fun env -> Array.fill env.fl (slot * env.k) env.k 0.

  let alloc slot gn : instr =
   fun env ->
    let n = gn env and k = env.k in
    for l = 0 to k - 1 do
      env.fa.((slot * k) + l) <- Array.make n 0.
    done

  (* Each lane's stack is private, so pushes and pops go lane by lane. *)
  let push slot : instr =
   fun env ->
    let k = env.k in
    for l = 0 to k - 1 do
      Growable.Float.push_from env.fstacks.(l) env.fl ((slot * k) + l)
    done

  let pop slot : instr =
   fun env ->
    let k = env.k in
    for l = 0 to k - 1 do
      Growable.Float.pop_into env.fstacks.(l) env.fl ((slot * k) + l)
    done

  let push_elem slot gi : instr =
   fun env ->
    let i = gi env and k = env.k in
    for l = 0 to k - 1 do
      Growable.Float.push_from env.fstacks.(l) env.fa.((slot * k) + l) i
    done

  let pop_elem slot gi : instr =
   fun env ->
    let i = gi env and k = env.k in
    for l = 0 to k - 1 do
      Growable.Float.pop_into env.fstacks.(l) env.fa.((slot * k) + l) i
    done

  let unary (p : Builtins.prim) d a : instr =
    let go : int -> float array -> int -> int -> unit =
      match p with
      | Sin -> fun k fl d a -> for l = 0 to k - 1 do fl.(d + l) <- sin fl.(a + l) done
      | Cos -> fun k fl d a -> for l = 0 to k - 1 do fl.(d + l) <- cos fl.(a + l) done
      | Tan -> fun k fl d a -> for l = 0 to k - 1 do fl.(d + l) <- tan fl.(a + l) done
      | Exp -> fun k fl d a -> for l = 0 to k - 1 do fl.(d + l) <- exp fl.(a + l) done
      | Log -> fun k fl d a -> for l = 0 to k - 1 do fl.(d + l) <- log fl.(a + l) done
      | Log10 ->
          fun k fl d a -> for l = 0 to k - 1 do fl.(d + l) <- log10 fl.(a + l) done
      | Sqrt -> fun k fl d a -> for l = 0 to k - 1 do fl.(d + l) <- sqrt fl.(a + l) done
      | Tanh -> fun k fl d a -> for l = 0 to k - 1 do fl.(d + l) <- tanh fl.(a + l) done
      | Atan -> fun k fl d a -> for l = 0 to k - 1 do fl.(d + l) <- atan fl.(a + l) done
      | Fabs ->
          fun k fl d a -> for l = 0 to k - 1 do fl.(d + l) <- Float.abs fl.(a + l) done
      | Floor ->
          fun k fl d a -> for l = 0 to k - 1 do fl.(d + l) <- Float.floor fl.(a + l) done
      | Ceil ->
          fun k fl d a -> for l = 0 to k - 1 do fl.(d + l) <- Float.ceil fl.(a + l) done
      | Castf32 -> fun k fl d a -> for l = 0 to k - 1 do fl.(d + l) <- r32 fl.(a + l) done
      | _ -> assert false
    in
    fun env -> go env.k env.fl (d * env.k) (a * env.k)

  let pow d a b : instr =
   fun env ->
    let k = env.k and fl = env.fl in
    let d = d * k and a = a * k and b = b * k in
    for l = 0 to k - 1 do
      fl.(d + l) <- fl.(a + l) ** fl.(b + l)
    done

  let fma d a b c : instr =
   fun env ->
    let k = env.k and fl = env.fl in
    let d = d * k and a = a * k and b = b * k and c = c * k in
    for l = 0 to k - 1 do
      fl.(d + l) <- Float.fma fl.(a + l) fl.(b + l) fl.(c + l)
    done

  (* Ints are shared by the lanes. *)
  let select d c a b : instr =
   fun env ->
    let k = env.k in
    Array.blit env.fl ((if c env <> 0 then a else b) * k) env.fl (d * k) k

  let itof d g : instr = fun env -> Array.fill env.fl (d * env.k) env.k (float_of_int (g env))

  let fast1 f d a : instr =
   fun env ->
    let k = env.k and fl = env.fl in
    let d = d * k and a = a * k in
    for l = 0 to k - 1 do
      fl.(d + l) <- f fl.(a + l)
    done

  let fast2 f d a b : instr =
   fun env ->
    let k = env.k and fl = env.fl in
    let d = d * k and a = a * k and b = b * k in
    for l = 0 to k - 1 do
      fl.(d + l) <- f fl.(a + l) fl.(b + l)
    done

  (* An intrinsic called through its closure: the int arguments are read
     once, then each lane gets its boxed argument vector. *)
  let boxed impl args : env -> int -> Builtins.value =
    let args = Array.of_list args in
    fun env ->
      let ints = Array.map (function Ai g -> g env | Af _ -> 0) args in
      let k = env.k and fl = env.fl in
      fun l ->
        impl
          (Array.mapi
             (fun i -> function
               | Af v -> Builtins.F fl.((v.at * k) + l)
               | Ai _ -> Builtins.I ints.(i))
             args)

  let generic impl args d : instr =
    let call = boxed impl args in
    fun env ->
      let lane = call env and k = env.k in
      for l = 0 to k - 1 do
        env.fl.((d * k) + l) <- Builtins.as_float (lane l)
      done

  (* The [Record_*] intrinsics run as calls. *)
  let record _ _ = None

  let mask op pre a b : instr =
   fun env ->
    pre env;
    let k = env.k and fl = env.fl and m = env.lanes.ints in
    let a = a * k and b = b * k in
    for l = 0 to k - 1 do
      m.(l) <- (if cmp op fl.(a + l) fl.(b + l) then 1 else 0)
    done

  let fcmp op pre a b : env -> int =
    let mask = mask op pre a b in
    fun env ->
      mask env;
      consensus env env.lanes.ints

  let ftoi pre a : env -> int =
   fun env ->
    pre env;
    let k = env.k in
    for l = 0 to k - 1 do
      env.lanes.ints.(l) <- int_of_float env.fl.((a * k) + l)
    done;
    consensus env env.lanes.ints

  let int_call pre impl args : env -> int =
    let call = boxed impl args in
    fun env ->
      pre env;
      let lane = call env in
      for l = 0 to env.k - 1 do
        env.lanes.ints.(l) <- Builtins.as_int (lane l)
      done;
      consensus env env.lanes.ints

  let masked_store sense fmt slot src : instr =
   fun env ->
    let k = env.k and fl = env.fl and fm = env.lanes.fmts and m = env.lanes.ints in
    let d = slot * k and src = src * k and r = fmt * k in
    for l = 0 to k - 1 do
      if m.(l) = sense then fl.(d + l) <- rnd fm.(r + l) fl.(src + l)
    done
end

module Lowering = Lower.Make (Lanes)

type t = {
  lowered : int Lower.lowered;
  rules : rule array;
  prog : Ast.program;
  func_name : string;
  builtins_opt : Builtins.t option;
  mode : Config.rounding_mode;
  optimize : bool;
  fmt_cache : (Config.t * int * Fp.format array) option Atomic.t;
      (** input sweeps resolve the same (config, lanes) formats for
          every chunk; the table is read-only once built, so the last
          resolution is cached and shared (also across pool domains:
          chunks of one sweep carry the same physical config) *)
}

let compile ?builtins ?(mode = Config.Source) ?(optimize = true) ~prog ~func
    () =
  let builtins_opt = builtins in
  let builtins =
    match builtins with Some b -> b | None -> Builtins.create ()
  in
  (* The configurations are unknown until run time, so every variable
     is opaque: only rewrites that preserve values under any
     store-rounding survive, which is what the per-lane bit-identity
     contract needs. *)
  let f = Lower.prepare ~opaque:(fun _ -> true) ~optimize prog func in
  let st = { Lanes.rules = [ Rf64 ]; nrules = 1 } in
  let lowered = Lowering.lower st ~builtins ~mode ~prog f in
  {
    lowered;
    rules = Array.of_list (List.rev st.Lanes.rules);
    prog;
    func_name = func;
    builtins_opt;
    mode;
    optimize;
    fmt_cache = Atomic.make None;
  }

(* ------------------------------------------------------------------ *)
(* Running.                                                           *)

type result = { lanes : Interp.result array; divergences : int }

(* Every rule's format per lane: rule [r] of lane [l] at [r * k + l].
   Rules refer only to earlier rules. *)
let resolve t configs =
  let k = Array.length configs in
  let fmts = Array.make (Array.length t.rules * k) Fp.F64 in
  Array.iteri
    (fun r rule ->
      let row = r * k in
      match rule with
      | Rf64 -> ()
      | Rvar (s, name) ->
          for l = 0 to k - 1 do
            fmts.(row + l) <- Interp.effective_format configs.(l) s name
          done
      | Rwider (a, b) ->
          for l = 0 to k - 1 do
            fmts.(row + l) <- Interp.wider fmts.((a * k) + l) fmts.((b * k) + l)
          done)
    t.rules;
  fmts

(* One sweep's chunks (and one caller's repeated sweeps) share one
   physical config: the physical-equality key makes a stale hit
   impossible and keeps the lookup free; a miss just recomputes. *)
let formats t configs =
  let c = configs.(0) and k = Array.length configs in
  if not (Array.for_all (fun c' -> c' == c) configs) then resolve t configs
  else
    match Atomic.get t.fmt_cache with
    | Some (c', k', fmts) when k' = k && c' == c -> fmts
    | _ ->
        let fmts = resolve t configs in
        Atomic.set t.fmt_cache (Some (c, k, fmts));
        fmts

let default_fallback t config =
  Compile.compile ?builtins:t.builtins_opt ~config ~mode:t.mode
    ~optimize:t.optimize ~prog:t.prog ~func:t.func_name ()

(* The one lane runner: lane [l] runs [inputs.(l)] under [configs.(l)].
   Both axes are this function. *)
let run_lanes ~span ~runs ?fallback t ~configs inputs =
  let k = Array.length configs in
  let lw = t.lowered in
  Array.iter (Lower.check_arity lw) inputs;
  Trace.with_span span @@ fun () ->
  if Trace.enabled () then Trace.add_attr "lanes" (Trace.Int k);
  Metrics.set_gauge lanes_g (float_of_int k);
  Metrics.incr runs;
  let fmts = formats t configs in
  (* Lane runs never write the sink: [Record_*] calls go through their
     closures. *)
  let env =
    Lower.env lw
      ~fstacks:(Array.init k (fun _ -> Growable.Float.create ()))
      ~counter:Lower.no_counter ~sink:Lower.no_sink
      ~lanes:{ fmts; active = Array.make k true; dropped = 0; ints = Array.make k 0 }
  in
  (* Arguments load per lane with storage-format rounding; caller arrays
     are never shared, since lanes need private copies and diverged
     lanes re-run from the pristine originals. Ints, int arrays and
     float-array lengths feed the shared control flow, so they go
     through [consensus] like a float->int crossing at run time. *)
  let argv = Array.map Array.of_list inputs and ints = env.lanes.ints in
  List.iteri
    (fun pi ((p : Ast.param), b) ->
      let arg l = argv.(l).(pi) in
      let kind_fail () = fail "argument kind mismatch for parameter %S" p.pname in
      match b with
      | Lower.Bf (slot, fmt) ->
          for l = 0 to k - 1 do
            match arg l with
            | Interp.Aflt x -> env.fl.((slot * k) + l) <- rnd fmts.((fmt * k) + l) x
            | _ -> kind_fail ()
          done
      | Lower.Bi slot ->
          for l = 0 to k - 1 do
            match arg l with Interp.Aint n -> ints.(l) <- n | _ -> kind_fail ()
          done;
          env.it.(slot) <- consensus env ints
      | Lower.Bfa (slot, fmt) ->
          (* Deactivated lanes get a zero-filled placeholder of the
             consensus length, so the batched loops stay in bounds. *)
          for l = 0 to k - 1 do
            match arg l with
            | Interp.Afarr a -> ints.(l) <- Array.length a
            | _ -> kind_fail ()
          done;
          let len = consensus env ints in
          for l = 0 to k - 1 do
            match arg l with
            | Interp.Afarr a ->
                let f = fmts.((fmt * k) + l) in
                env.fa.((slot * k) + l) <-
                  (if not env.lanes.active.(l) then Array.make len 0.
                   else if Fp.equal_format f Fp.F64 then Array.copy a
                   else Array.map (rnd f) a)
            | _ -> kind_fail ()
          done
      | Lower.Bia slot ->
          (* Lanes vote on their arrays' index in a list of the distinct
             ones. *)
          let distinct = ref [] in
          for l = 0 to k - 1 do
            match arg l with
            | Interp.Aiarr a ->
                let rec find i = function
                  | [] ->
                      distinct := !distinct @ [ a ];
                      i
                  | b :: _ when b == a || b = a -> i
                  | _ :: rest -> find (i + 1) rest
                in
                ints.(l) <- find 0 !distinct
            | _ -> kind_fail ()
          done;
          env.ia.(slot) <- Array.copy (List.nth !distinct (consensus env ints)))
    lw.params;
  let ending = Lower.execute lw env in
  (* A diverged lane re-runs scalar from its pristine arguments, the
     bit-identity contract's definition of correct: its batched state is
     garbage past the split. One scalar compilation per distinct
     configuration. *)
  let fallback = match fallback with Some f -> f | None -> default_fallback t in
  let scalar = ref [] in
  let compiled c =
    match List.assq_opt c !scalar with
    | Some s -> s
    | None ->
        let s = fallback c in
        scalar := (c, s) :: !scalar;
        s
  in
  let lanes =
    Array.init k (fun l ->
        if env.lanes.active.(l) then Lower.result lw env ending l
        else Compile.run (compiled configs.(l)) (Interp.copy_args inputs.(l)))
  in
  if env.lanes.dropped > 0 then Metrics.add divergence_c env.lanes.dropped;
  if Trace.enabled () then Trace.add_attr "divergences" (Trace.Int env.lanes.dropped);
  { lanes; divergences = env.lanes.dropped }

let run ?fallback t ~configs args =
  let k = Array.length configs in
  if k = 0 then invalid_arg "Batch.run: empty configuration array";
  run_lanes ~span:"batch.run" ~runs:runs_c ?fallback t ~configs
    (Array.make k args)

let run_inputs ?fallback t ~config (inputs : Interp.arg list array) =
  let k = Array.length inputs in
  if k = 0 then invalid_arg "Batch.run_inputs: empty inputs array";
  run_lanes ~span:"batch.input_sweep" ~runs:input_sweeps_c ?fallback t
    ~configs:(Array.make k config) inputs

let floats t r =
  Array.map
    (fun lane ->
      match lane.Interp.ret with
      | Some (Builtins.F x) -> x
      | _ -> fail "function %S did not return a float" t.lowered.Lower.func.fname)
    r.lanes

let run_inputs_floats ?fallback t ~config inputs =
  floats t (run_inputs ?fallback t ~config inputs)

let run_inputs_many ?(jobs = 1) ?(lanes = default_lanes) ?fallback t ~config
    (inputs : Interp.arg list array) =
  let lanes = max 1 lanes in
  let n = Array.length inputs in
  let nchunks = (n + lanes - 1) / lanes in
  List.init nchunks (fun c ->
      Array.sub inputs (c * lanes) (min lanes (n - (c * lanes))))
  |> Pool.parallel_map ~jobs (fun chunk ->
         run_inputs_floats ?fallback t ~config chunk)
  |> List.map Array.to_list
  |> List.concat
  |> Array.of_list

let run_many ?(jobs = 1) ?(lanes = default_lanes) ?fallback t ~configs args =
  let lanes = max 1 lanes in
  let rec chunk = function
    | [] -> []
    | cfgs ->
        let rec take n acc = function
          | rest when n = 0 -> (List.rev acc, rest)
          | [] -> (List.rev acc, [])
          | c :: rest -> take (n - 1) (c :: acc) rest
        in
        let head, rest = take lanes [] cfgs in
        Array.of_list head :: chunk rest
  in
  chunk configs
  |> Pool.parallel_map ~jobs (fun cfgs -> floats t (run ?fallback t ~configs:cfgs args))
  |> List.concat_map Array.to_list
