open Cheffp_util

let check_float = Alcotest.(check (float 1e-12))

(* ------------------------------------------------------------------ *)
(* Growable                                                           *)

let test_growable_push_pop () =
  let g = Growable.create ~dummy:0 () in
  Alcotest.(check bool) "empty" true (Growable.is_empty g);
  Growable.push g 1;
  Growable.push g 2;
  Growable.push g 3;
  Alcotest.(check int) "length" 3 (Growable.length g);
  Alcotest.(check int) "top" 3 (Growable.top g);
  Alcotest.(check int) "pop" 3 (Growable.pop g);
  Alcotest.(check int) "pop" 2 (Growable.pop g);
  Alcotest.(check int) "length after pops" 1 (Growable.length g)

let test_growable_growth () =
  let g = Growable.create ~capacity:2 ~dummy:(-1) () in
  for i = 0 to 99 do
    Growable.push g i
  done;
  Alcotest.(check int) "length" 100 (Growable.length g);
  Alcotest.(check bool) "capacity grew" true (Growable.capacity g >= 100);
  for i = 0 to 99 do
    Alcotest.(check int) (Printf.sprintf "get %d" i) i (Growable.get g i)
  done

let test_growable_set_get () =
  let g = Growable.create ~dummy:0 () in
  Growable.push g 10;
  Growable.push g 20;
  Growable.set g 0 99;
  Alcotest.(check int) "set/get" 99 (Growable.get g 0);
  Alcotest.(check (list int)) "to_list" [ 99; 20 ] (Growable.to_list g);
  Alcotest.(check int) "to_array" 2 (Array.length (Growable.to_array g))

let test_growable_errors () =
  let g = Growable.create ~dummy:0 () in
  Alcotest.check_raises "pop empty" (Invalid_argument "Growable.pop: empty")
    (fun () -> ignore (Growable.pop g));
  Growable.push g 1;
  Alcotest.check_raises "oob" (Invalid_argument "Growable: index 5 out of bounds [0,1)")
    (fun () -> ignore (Growable.get g 5))

let test_growable_clear_iter () =
  let g = Growable.create ~dummy:0 () in
  List.iter (Growable.push g) [ 1; 2; 3 ];
  let acc = ref 0 in
  Growable.iter (fun x -> acc := !acc + x) g;
  Alcotest.(check int) "iter sum" 6 !acc;
  let idx_sum = ref 0 in
  Growable.iteri (fun i _ -> idx_sum := !idx_sum + i) g;
  Alcotest.(check int) "iteri" 3 !idx_sum;
  Alcotest.(check int) "fold" 6 (Growable.fold_left ( + ) 0 g);
  Growable.clear g;
  Alcotest.(check int) "cleared" 0 (Growable.length g)

let test_growable_float () =
  let g = Growable.Float.create () in
  for i = 1 to 50 do
    Growable.Float.push g (float_of_int i)
  done;
  Alcotest.(check int) "peak" 50 (Growable.Float.peak_length g);
  for _ = 1 to 30 do
    ignore (Growable.Float.pop g)
  done;
  Alcotest.(check int) "length" 20 (Growable.Float.length g);
  Alcotest.(check int) "peak unchanged" 50 (Growable.Float.peak_length g);
  check_float "top" 20.0 (Growable.Float.top g);
  Growable.Float.set g 0 3.5;
  check_float "set/get" 3.5 (Growable.Float.get g 0);
  Growable.Float.clear g;
  Alcotest.(check bool) "empty" true (Growable.Float.is_empty g);
  Alcotest.(check int) "peak reset" 0 (Growable.Float.peak_length g)

(* The unboxed moves and the int stack keep the LIFO order and peak
   accounting of [push]/[pop] across growth. *)
let test_growable_moves_and_int_stack () =
  let g = Growable.Float.create () and st = Growable.Int.create () in
  let src = Array.init 40 (fun i -> float_of_int i +. 0.5) in
  Array.iteri
    (fun i _ ->
      Growable.Float.push_from g src i;
      Growable.Int.push st i)
    src;
  Alcotest.(check int) "float peak" 40 (Growable.Float.peak_length g);
  Alcotest.(check int) "int peak" 40 (Growable.Int.peak_length st);
  let dst = Array.make 40 0. in
  for i = 39 downto 0 do
    Growable.Float.pop_into g dst i;
    Alcotest.(check int) "int lifo" i (Growable.Int.pop st)
  done;
  Alcotest.(check bool) "float lifo" true (dst = src);
  Alcotest.check_raises "empty pop_into"
    (Invalid_argument "Growable.Float.pop: empty") (fun () ->
      Growable.Float.pop_into g dst 0);
  Alcotest.check_raises "empty int pop"
    (Invalid_argument "Growable.Int.pop: empty") (fun () ->
      ignore (Growable.Int.pop st))

let qcheck_growable_roundtrip =
  QCheck.Test.make ~count:200 ~name:"growable push*/to_list roundtrip"
    QCheck.(list int)
    (fun l ->
      let g = Growable.create ~dummy:0 () in
      List.iter (Growable.push g) l;
      Growable.to_list g = l)

let qcheck_growable_lifo =
  QCheck.Test.make ~count:200 ~name:"growable pops reverse pushes"
    QCheck.(list int)
    (fun l ->
      let g = Growable.create ~dummy:0 () in
      List.iter (Growable.push g) l;
      let popped = List.rev_map (fun _ -> Growable.pop g) l in
      popped = l)

(* ------------------------------------------------------------------ *)
(* Chunked stacks                                                     *)

(* [Growable.Float] and [Growable.Int] seen as stacks of ints, so one
   set of checks covers both. *)
module type STACK = sig
  type t

  val name : string
  val create : unit -> t
  val length : t -> int
  val push : t -> int -> unit
  val pop : t -> int
  val get : t -> int -> int
  val set : t -> int -> int -> unit
  val top : t -> int
  val is_empty : t -> bool
  val clear : t -> unit
  val peak_length : t -> int
end

module Float_stack : STACK = struct
  include Growable.Float

  let name = "Float"
  let push t i = push t (float_of_int i)
  let pop t = int_of_float (pop t)
  let get t i = int_of_float (get t i)
  let set t i x = set t i (float_of_int x)
  let top t = int_of_float (top t)
end

module Int_stack : STACK = struct
  include Growable.Int

  let name = "Int"
end

module Stack_checks (S : STACK) = struct
  let cap = Growable.chunk_cap
  let check_int msg = Alcotest.(check int) (S.name ^ ": " ^ msg)

  let push_range t lo hi =
    for i = lo to hi - 1 do
      S.push t i
    done

  (* Chunks of 16, 32, ... up to [cap] fill [cap - 16] elements, so
     [4 * cap + 5] elements end three full capped chunks into a partial
     one. *)
  let across_chunks () =
    let n = (4 * cap) + 5 in
    let t = S.create () in
    check_int "new stack" 0 (S.peak_length t);
    push_range t 0 n;
    check_int "length" n (S.length t);
    check_int "peak" n (S.peak_length t);
    check_int "top" (n - 1) (S.top t);
    let bad = ref 0 in
    for i = 0 to n - 1 do
      if S.get t i <> i then incr bad
    done;
    check_int "get across chunks" 0 !bad;
    (* Last and first elements of chunks, below and past the cap. *)
    let edges =
      [ 15; 16; 47; 48; cap - 17; cap - 16; (2 * cap) - 17; (2 * cap) - 16; n - 1 ]
    in
    List.iter
      (fun i ->
        S.set t i (-i);
        check_int (Printf.sprintf "set/get %d" i) (-i) (S.get t i))
      edges;
    check_int "top after set" (-(n - 1)) (S.top t);
    List.iter (fun i -> S.set t i i) edges;
    let bad = ref 0 in
    for i = n - 1 downto 0 do
      if S.pop t <> i then incr bad;
      if S.length t <> i then incr bad
    done;
    check_int "pops reverse pushes" 0 !bad;
    check_int "peak kept" n (S.peak_length t);
    Alcotest.(check bool) (S.name ^ ": empty") true (S.is_empty t);
    Alcotest.check_raises "pop empty"
      (Invalid_argument (Printf.sprintf "Growable.%s.pop: empty" S.name))
      (fun () -> ignore (S.pop t));
    Alcotest.check_raises "top empty"
      (Invalid_argument (Printf.sprintf "Growable.%s.top: empty" S.name))
      (fun () -> ignore (S.top t));
    Alcotest.check_raises "get out of bounds"
      (Invalid_argument
         (Printf.sprintf "Growable.%s: index 0 out of bounds [0,0)" S.name))
      (fun () -> ignore (S.get t 0))

  (* Back and forth over the boundary between the first two chunks. *)
  let straddled_boundary () =
    let t = S.create () in
    push_range t 0 16;
    for round = 1 to 4 do
      S.push t (100 * round);
      S.push t ((100 * round) + 1);
      check_int "length past the boundary" 18 (S.length t);
      check_int "top past the boundary" ((100 * round) + 1) (S.top t);
      check_int "pop" ((100 * round) + 1) (S.pop t);
      check_int "pop" (100 * round) (S.pop t);
      check_int "top at the boundary" 15 (S.top t);
      check_int "pop back across" 15 (S.pop t);
      check_int "pop" 14 (S.pop t);
      S.push t 14;
      S.push t 15;
      check_int "get below" 15 (S.get t 15)
    done;
    check_int "peak" 18 (S.peak_length t);
    check_int "length" 16 (S.length t)

  let clear () =
    let t = S.create () in
    push_range t 0 100;
    S.clear t;
    check_int "cleared length" 0 (S.length t);
    check_int "peak reset" 0 (S.peak_length t);
    Alcotest.check_raises "pop cleared"
      (Invalid_argument (Printf.sprintf "Growable.%s.pop: empty" S.name))
      (fun () -> ignore (S.pop t));
    push_range t 0 40;
    check_int "peak after refill" 40 (S.peak_length t);
    check_int "get after refill" 20 (S.get t 20);
    check_int "top after refill" 39 (S.top t)
end

module Float_checks = Stack_checks (Float_stack)
module Int_checks = Stack_checks (Int_stack)

(* Bytes [f] allocates. A minor collection on each side makes the count
   exact: on OCaml 5.1 [Gc.allocated_bytes] undercounts the words still
   in the minor heap until a minor collection, and large allocations
   can trigger one at any point. *)
let allocated_bytes f =
  Gc.minor ();
  let b0 = Gc.allocated_bytes () in
  f ();
  Gc.minor ();
  Gc.allocated_bytes () -. b0

(* A stack allocates what it holds plus less than one chunk, with no
   growth copies, and a push/pop sequence around a chunk boundary
   allocates nothing once the chunks exist. *)
let test_stack_allocation () =
  let cap = Growable.chunk_cap in
  let n = (3 * cap) + 5 in
  let bound = float_of_int ((8 * (n + cap)) + 1024) in
  let check name bytes =
    if bytes > bound then
      Alcotest.failf "%s: %.0f bytes for %d elements (bound %.0f)" name bytes
        n bound
  in
  let src = [| 0.5 |] and dst = [| 0. |] in
  let g = Growable.Float.create () and st = Growable.Int.create () in
  check "Float"
    (allocated_bytes (fun () ->
         for _ = 1 to n do
           Growable.Float.push_from g src 0
         done));
  check "Int"
    (allocated_bytes (fun () ->
         for i = 1 to n do
           Growable.Int.push st i
         done));
  let g = Growable.Float.create () and st = Growable.Int.create () in
  for _ = 1 to 17 do
    Growable.Float.push_from g src 0;
    Growable.Int.push st 0
  done;
  let bytes =
    allocated_bytes (fun () ->
        for _ = 1 to 1000 do
          Growable.Float.pop_into g dst 0;
          Growable.Float.pop_into g dst 0;
          Growable.Float.push_from g src 0;
          Growable.Float.push_from g src 0;
          ignore (Growable.Int.pop st);
          ignore (Growable.Int.pop st);
          Growable.Int.push st 0;
          Growable.Int.push st 0
        done)
  in
  let idle = allocated_bytes ignore in
  if bytes > idle +. 64. then
    Alcotest.failf
      "%.0f bytes for 1000 round trips over a chunk boundary (%.0f idle)"
      bytes idle

(* ------------------------------------------------------------------ *)
(* Rng                                                                *)

let test_rng_determinism () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1L and b = Rng.create 2L in
  Alcotest.(check bool) "different seeds differ" true
    (Rng.next_int64 a <> Rng.next_int64 b)

let test_rng_int_bounds () =
  let rng = Rng.create 7L in
  for _ = 1 to 1000 do
    let x = Rng.int rng 17 in
    Alcotest.(check bool) "in [0,17)" true (x >= 0 && x < 17)
  done;
  Alcotest.check_raises "bad bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_rng_uniform_range () =
  let rng = Rng.create 8L in
  for _ = 1 to 1000 do
    let x = Rng.uniform rng ~lo:(-2.) ~hi:3. in
    Alcotest.(check bool) "in [-2,3)" true (x >= -2. && x < 3.)
  done

let test_rng_gaussian_moments () =
  let rng = Rng.create 9L in
  let n = 20_000 in
  let samples = Array.init n (fun _ -> Rng.gaussian rng ~mu:5. ~sigma:2.) in
  let mean = Stats.mean samples in
  let std = Stats.stddev samples in
  Alcotest.(check bool) "mean approx 5" true (Float.abs (mean -. 5.) < 0.1);
  Alcotest.(check bool) "std approx 2" true (Float.abs (std -. 2.) < 0.1)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 10L in
  let a = Array.init 100 (fun i -> i) in
  let b = Array.copy a in
  Rng.shuffle rng b;
  let sb = Array.copy b in
  Array.sort compare sb;
  Alcotest.(check bool) "same multiset" true (sb = a);
  Alcotest.(check bool) "actually shuffled" true (b <> a)

let test_rng_split_independent () =
  let rng = Rng.create 11L in
  let child = Rng.split rng in
  Alcotest.(check bool) "split differs from parent" true
    (Rng.next_int64 child <> Rng.next_int64 rng)

let test_rng_float_bound () =
  let rng = Rng.create 13L in
  for _ = 1 to 1000 do
    let x = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (x >= 0. && x < 2.5)
  done;
  let heads = ref 0 in
  for _ = 1 to 1000 do
    if Rng.bool rng then incr heads
  done;
  Alcotest.(check bool) "bool roughly balanced" true
    (!heads > 400 && !heads < 600)

let test_rng_copy () =
  let rng = Rng.create 12L in
  ignore (Rng.next_int64 rng);
  let dup = Rng.copy rng in
  Alcotest.(check int64) "copy continues identically" (Rng.next_int64 rng)
    (Rng.next_int64 dup)

(* substream i must be a pure function of (seed, i): re-deriving it
   yields the same stream regardless of what was drawn from any other
   substream in between — this is the invariant that makes Monte-Carlo
   sweeps independent of chunking, lane width and pool job count. *)
let test_rng_substream_pure () =
  let draw seed i =
    let g = Rng.substream seed i in
    Array.init 8 (fun _ -> Rng.next_int64 g)
  in
  let first = Array.init 16 (fun i -> draw 42L i) in
  (* Interleave draws from other substreams, then re-derive: identical. *)
  ignore (draw 42L 3);
  ignore (draw 7L 0);
  Array.iteri
    (fun i s ->
      Alcotest.(check bool)
        (Printf.sprintf "substream %d re-derives identically" i)
        true
        (draw 42L i = s))
    first

let test_rng_substream_distinct () =
  let lead seed i = Rng.next_int64 (Rng.substream seed i) in
  (* Distinct indices under one seed give distinct streams... *)
  let leads = Array.init 64 (fun i -> lead 42L i) in
  let sorted = Array.copy leads in
  Array.sort compare sorted;
  let dup = ref false in
  for i = 1 to Array.length sorted - 1 do
    if sorted.(i) = sorted.(i - 1) then dup := true
  done;
  Alcotest.(check bool) "64 substreams all distinct" true (not !dup);
  (* ...and the same index under distinct seeds differs too. *)
  Alcotest.(check bool) "seed sensitivity" true (lead 1L 5 <> lead 2L 5)

(* The scheduling invariance the sampler relies on, stated directly on
   the primitive: chunk [0..n) any way you like, derive each substream
   inside its chunk, and the per-index draws match the sequential
   derivation. *)
let test_rng_substream_chunk_invariance () =
  let n = 48 in
  let sample i = Rng.uniform (Rng.substream 99L i) ~lo:(-1.) ~hi:1. in
  let sequential = Array.init n sample in
  List.iter
    (fun chunk ->
      let got = Array.make n 0. in
      let rec go start =
        if start < n then begin
          let stop = min n (start + chunk) in
          for i = start to stop - 1 do
            got.(i) <- sample i
          done;
          go stop
        end
      in
      go 0;
      Alcotest.(check bool)
        (Printf.sprintf "chunk size %d matches sequential" chunk)
        true (got = sequential))
    [ 1; 5; 16; 48 ]

(* ------------------------------------------------------------------ *)
(* Stats                                                              *)

let test_stats_sum_kahan () =
  (* Sum that defeats naive accumulation order effects. *)
  let a = Array.make 10_000 0.1 in
  let s = Stats.sum a in
  Alcotest.(check bool) "compensated" true (Float.abs (s -. 1000.) < 1e-10)

let test_stats_basics () =
  let a = [| 3.; 1.; 4.; 1.; 5. |] in
  check_float "mean" 2.8 (Stats.mean a);
  check_float "max" 5. (Stats.max a);
  check_float "min" 1. (Stats.min a);
  check_float "median" 3. (Stats.median a);
  check_float "mean empty" 0. (Stats.mean [||])

let test_stats_median_even () =
  check_float "even median" 2.5 (Stats.median [| 1.; 2.; 3.; 4. |])

let test_stats_percentile () =
  let a = Array.init 100 (fun i -> float_of_int (i + 1)) in
  check_float "p50" 50. (Stats.percentile a 50.);
  check_float "p100" 100. (Stats.percentile a 100.);
  check_float "p1" 1. (Stats.percentile a 1.)

let test_stats_stddev () =
  let a = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check_float "population stddev" 2. (Stats.stddev a);
  check_float "short" 0. (Stats.stddev [| 1. |])

let test_stats_geomean () =
  check_float "geomean" 4. (Stats.geomean [| 2.; 8. |]);
  Alcotest.check_raises "nonpositive"
    (Invalid_argument "Stats.geomean: non-positive element") (fun () ->
      ignore (Stats.geomean [| 1.; -1. |]))

let test_stats_errors () =
  Alcotest.check_raises "max empty" (Invalid_argument "Stats.max: empty")
    (fun () -> ignore (Stats.max [||]));
  Alcotest.check_raises "abs_diffs mismatch"
    (Invalid_argument "Stats.abs_diffs: length mismatch") (fun () ->
      ignore (Stats.abs_diffs [| 1. |] [||]))

let test_stats_abs_diffs () =
  let d = Stats.abs_diffs [| 1.; 5. |] [| 3.; 2. |] in
  check_float "d0" 2. d.(0);
  check_float "d1" 3. d.(1)

let qcheck_mean_bounded =
  QCheck.Test.make ~count:200 ~name:"mean within [min,max]"
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range (-1e6) 1e6))
    (fun l ->
      let a = Array.of_list l in
      let m = Stats.mean a in
      m >= Stats.min a -. 1e-6 && m <= Stats.max a +. 1e-6)

(* ------------------------------------------------------------------ *)
(* Table                                                              *)

let test_table_render () =
  let s =
    Table.render ~header:[ "name"; "value" ]
      [ [ "alpha"; "1" ]; [ "b"; "22" ] ]
  in
  Alcotest.(check bool) "has header" true
    (String.length s > 0
    &&
    let lines = String.split_on_char '\n' s in
    List.exists (fun l -> String.length l > 0 && l.[0] = '|') lines);
  Alcotest.(check int) "line count" 6
    (List.length (String.split_on_char '\n' s))

let test_table_pads_short_rows () =
  let s = Table.render ~header:[ "a"; "b"; "c" ] [ [ "only-one" ] ] in
  Alcotest.(check bool) "renders" true (String.length s > 0)

let test_table_aligns () =
  let s =
    Table.render
      ~aligns:[ Table.Right; Table.Left ]
      ~header:[ "n"; "name" ]
      [ [ "1"; "a" ]; [ "22"; "bb" ] ]
  in
  (* right-aligned first column pads on the left *)
  Alcotest.(check bool) "right alignment applied" true
    (let lines = String.split_on_char '\n' s in
     List.exists (fun l -> String.length l > 3 && l.[0] = '|' && l.[1] = ' '
                           && l.[2] = ' ' && l.[3] = '1') lines);
  (* mismatched aligns length falls back to defaults without raising *)
  let s2 = Table.render ~aligns:[ Table.Left ] ~header:[ "a"; "b" ] [] in
  Alcotest.(check bool) "fallback" true (String.length s2 > 0)

let test_table_formats () =
  Alcotest.(check string) "fe" "3.24e-06" (Table.fe 3.24e-6);
  Alcotest.(check string) "ff" "2.25" (Table.ff 2.25)

(* ------------------------------------------------------------------ *)
(* Meter                                                              *)

let test_meter_accounting () =
  let m = Meter.create () in
  Meter.alloc m 100;
  Meter.alloc m 50;
  Alcotest.(check int) "live" 150 (Meter.live_bytes m);
  Meter.free m 120;
  Alcotest.(check int) "after free" 30 (Meter.live_bytes m);
  Alcotest.(check int) "peak" 150 (Meter.peak_bytes m);
  Meter.free m 1000;
  Alcotest.(check int) "never negative" 0 (Meter.live_bytes m);
  Meter.reset m;
  Alcotest.(check int) "reset" 0 (Meter.peak_bytes m)

let test_meter_budget () =
  let m = Meter.create () in
  Meter.set_budget m (Some 100);
  Meter.alloc m 90;
  Alcotest.(check bool) "budget raise" true
    (try
       Meter.alloc m 20;
       false
     with Meter.Out_of_memory_budget { requested; budget } ->
       requested = 110 && budget = 100);
  Meter.set_budget m None;
  Meter.alloc m 1000;
  Alcotest.(check int) "unbounded" 1090 (Meter.live_bytes m)

let test_meter_time () =
  let x, t = Meter.time (fun () -> 42) in
  Alcotest.(check int) "result" 42 x;
  Alcotest.(check bool) "time non-negative" true (t >= 0.)

let test_meter_bytes_pp () =
  Alcotest.(check string) "B" "512 B" (Meter.bytes_pp 512);
  Alcotest.(check string) "kB" "1.50 kB" (Meter.bytes_pp 1500);
  Alcotest.(check string) "MB" "2.00 MB" (Meter.bytes_pp 2_000_000);
  Alcotest.(check string) "GB" "3.00 GB" (Meter.bytes_pp 3_000_000_000)

(* ------------------------------------------------------------------ *)
(* Pool                                                               *)

exception Boom of int

let test_pool_order_preserved () =
  let xs = List.init 100 Fun.id in
  (* Jittered work so completion order differs from input order. *)
  let f i =
    if i mod 7 = 0 then Unix.sleepf 0.002;
    i * i
  in
  Alcotest.(check (list int))
    "jobs=4 preserves order" (List.map (fun i -> i * i) xs)
    (Pool.parallel_map ~jobs:4 f xs);
  Alcotest.(check (list int))
    "jobs=1 preserves order" (List.map (fun i -> i * i) xs)
    (Pool.parallel_map ~jobs:1 f xs)

let test_pool_sequential_fallback () =
  (* jobs <= 1 must not spawn: the mapped function can then rely on
     domain-local state, and effects happen strictly left to right. *)
  let self = Domain.self () in
  let seen = ref [] in
  let r =
    Pool.parallel_map ~jobs:1
      (fun i ->
        Alcotest.(check bool) "same domain" true (Domain.self () = self);
        seen := i :: !seen;
        i + 1)
      [ 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "results" [ 2; 3; 4 ] r;
  Alcotest.(check (list int)) "left-to-right effects" [ 3; 2; 1 ] !seen;
  Alcotest.(check (list int)) "jobs=0 also sequential" [ 2; 3 ]
    (Pool.parallel_map ~jobs:0 (fun i -> i + 1) [ 1; 2 ])

let test_pool_exception_propagation () =
  let f i = if i >= 10 then raise (Boom i) else i in
  (match Pool.parallel_map ~jobs:4 f (List.init 40 Fun.id) with
  | _ -> Alcotest.fail "expected an exception"
  | exception Boom i ->
      (* The smallest failing index wins (deterministic under jobs=1;
         under contention, some failing item's exception arrives). *)
      Alcotest.(check bool) "a failing item's exception" true (i >= 10));
  match Pool.parallel_map ~jobs:1 f (List.init 40 Fun.id) with
  | _ -> Alcotest.fail "expected an exception"
  | exception Boom i -> Alcotest.(check int) "first failure sequentially" 10 i

let test_pool_edge_cases () =
  Alcotest.(check (list int)) "empty" [] (Pool.parallel_map ~jobs:4 Fun.id []);
  Alcotest.(check (list int)) "singleton" [ 7 ]
    (Pool.parallel_map ~jobs:4 (fun x -> x + 1) [ 6 ]);
  Alcotest.(check (list int)) "more jobs than items" [ 2; 3 ]
    (Pool.parallel_map ~jobs:64 (fun x -> x + 1) [ 1; 2 ]);
  Alcotest.(check bool) "default_jobs at least 1" true (Pool.default_jobs () >= 1)

let test_pool_domain_limit () =
  (* More workers than the runtime lets live at once: the call goes on
     with the domains it gets, returns every result in order, and joins
     them all, so a later call can spawn again. *)
  let xs = List.init 400 Fun.id in
  let f i =
    Unix.sleepf 0.01;
    i * 3
  in
  Alcotest.(check (list int))
    "all results in order" (List.map (fun i -> i * 3) xs)
    (Pool.parallel_map ~jobs:200 f xs);
  Alcotest.(check (list int))
    "domains released" [ 1; 2; 3 ]
    (Pool.parallel_map ~jobs:3 Fun.id [ 1; 2; 3 ])

(* ------------------------------------------------------------------ *)
(* Pool.Shared (the serve daemon's work-stealing request pool)        *)

let test_shared_basic () =
  let p = Pool.Shared.create ~workers:2 () in
  let sub = Pool.Shared.add_submitter p in
  let futs = List.init 100 (fun i -> Pool.Shared.submit p sub (fun () -> i * i)) in
  List.iteri
    (fun i f ->
      match Pool.Shared.await f with
      | Ok v -> Alcotest.(check int) "task result" (i * i) v
      | Error e -> Alcotest.fail (Printexc.to_string e))
    futs;
  Pool.Shared.drain p;
  Alcotest.(check int) "drained queue" 0 (Pool.Shared.queue_depth p);
  Alcotest.(check int) "nothing in flight" 0 (Pool.Shared.in_flight p);
  (* Exceptions resolve the future, they do not kill the worker. *)
  (match Pool.Shared.await (Pool.Shared.submit p sub (fun () -> raise (Boom 3))) with
  | Error (Boom 3) -> ()
  | _ -> Alcotest.fail "expected Boom to surface through await");
  (match
     Pool.Shared.await (Pool.Shared.submit p sub (fun () -> "still alive"))
   with
  | Ok s -> Alcotest.(check string) "worker survived" "still alive" s
  | Error e -> Alcotest.fail (Printexc.to_string e));
  Pool.Shared.remove_submitter p sub;
  Pool.Shared.shutdown p;
  Alcotest.(check bool) "submit after shutdown raises" true
    (try
       ignore (Pool.Shared.submit p sub Fun.id);
       false
     with Failure _ -> true)

(* A single gated worker makes dispatch order observable: while the
   gate task occupies the only worker, everything else queues, and the
   release order is exactly the admission policy's. *)
let with_gated_worker f =
  let p = Pool.Shared.create ~workers:1 () in
  let gate_m = Mutex.create () and gate_cv = Condition.create () in
  let open_ = ref false in
  let sub = Pool.Shared.add_submitter p in
  let gate =
    Pool.Shared.submit p sub (fun () ->
        Mutex.lock gate_m;
        while not !open_ do
          Condition.wait gate_cv gate_m
        done;
        Mutex.unlock gate_m)
  in
  (* Wait until the gate task actually occupies the worker (queue
     empty, task active), so later submissions cannot jump ahead of
     each other via an idle worker. *)
  while Pool.Shared.queue_depth p > 0 do
    Domain.cpu_relax ()
  done;
  let release () =
    Mutex.lock gate_m;
    open_ := true;
    Condition.broadcast gate_cv;
    Mutex.unlock gate_m;
    ignore (Pool.Shared.await gate)
  in
  let r = f p sub release in
  Pool.Shared.shutdown p;
  r

let test_shared_priority_deadline () =
  with_gated_worker (fun p sub release ->
      let order_m = Mutex.create () in
      let order = ref [] in
      let mark name () =
        Mutex.lock order_m;
        order := name :: !order;
        Mutex.unlock order_m
      in
      let now = Unix.gettimeofday () in
      (* Bindings force submission (seq) order — a list literal would
         evaluate its elements right to left. *)
      let f1 = Pool.Shared.submit p sub ~priority:0 (mark "low-early") in
      let f2 =
        Pool.Shared.submit p sub ~priority:0 ~deadline:(now +. 1.)
          (mark "deadline-tight")
      in
      let f3 =
        Pool.Shared.submit p sub ~priority:0 ~deadline:(now +. 9.)
          (mark "deadline-loose")
      in
      let f4 = Pool.Shared.submit p sub ~priority:5 (mark "high-late") in
      let futs = [ f1; f2; f3; f4 ] in
      release ();
      List.iter (fun f -> ignore (Pool.Shared.await f)) futs;
      (* Priority beats submission order; among equal priorities an
         earlier deadline beats a later one beats none (infinity);
         untied leftovers keep submission order. *)
      Alcotest.(check (list string))
        "admission order: priority, then deadline, then seq"
        [ "high-late"; "deadline-tight"; "deadline-loose"; "low-early" ]
        (List.rev !order))

let test_shared_round_robin () =
  with_gated_worker (fun p _gate_sub release ->
      let a = Pool.Shared.add_submitter p in
      let b = Pool.Shared.add_submitter p in
      let order_m = Mutex.create () in
      let order = ref [] in
      let mark name () =
        Mutex.lock order_m;
        order := name :: !order;
        Mutex.unlock order_m
      in
      (* Bindings force submission (seq) order — a list literal would
         evaluate its elements right to left. *)
      let fa1 = Pool.Shared.submit p a (mark "a1") in
      let fa2 = Pool.Shared.submit p a (mark "a2") in
      let fb1 = Pool.Shared.submit p b (mark "b1") in
      let fb2 = Pool.Shared.submit p b (mark "b2") in
      let futs = [ fa1; fa2; fb1; fb2 ] in
      release ();
      List.iter (fun f -> ignore (Pool.Shared.await f)) futs;
      (* Equal priorities: the rotating scan alternates between the two
         queues instead of draining the flooded one first — a queue
         only delays its own tasks. *)
      let got = List.rev !order in
      Alcotest.(check bool)
        (Printf.sprintf "round-robin across submitters (got %s)"
           (String.concat "," got))
        true
        (got = [ "a1"; "b1"; "a2"; "b2" ] || got = [ "b1"; "a1"; "b2"; "a2" ]);
      Pool.Shared.remove_submitter p a;
      Pool.Shared.remove_submitter p b)

let test_shared_cancel_on_remove () =
  with_gated_worker (fun p _gate_sub release ->
      let doomed = Pool.Shared.add_submitter p in
      let ran = Atomic.make 0 in
      let futs =
        List.init 5 (fun _ ->
            Pool.Shared.submit p doomed (fun () -> Atomic.incr ran))
      in
      Alcotest.(check int) "tasks queued behind the gate" 5
        (Pool.Shared.queue_depth p);
      Pool.Shared.remove_submitter p doomed;
      Alcotest.(check int) "queue emptied by removal" 0
        (Pool.Shared.queue_depth p);
      List.iter
        (fun f ->
          match Pool.Shared.await f with
          | Error Pool.Shared.Cancelled -> ()
          | Ok _ -> Alcotest.fail "cancelled task ran"
          | Error e -> Alcotest.fail (Printexc.to_string e))
        futs;
      release ();
      Pool.Shared.drain p;
      Alcotest.(check int) "no cancelled task executed" 0 (Atomic.get ran))

let () =
  Alcotest.run "util"
    [
      ( "growable",
        [
          Alcotest.test_case "push/pop" `Quick test_growable_push_pop;
          Alcotest.test_case "growth" `Quick test_growable_growth;
          Alcotest.test_case "set/get" `Quick test_growable_set_get;
          Alcotest.test_case "errors" `Quick test_growable_errors;
          Alcotest.test_case "clear/iter" `Quick test_growable_clear_iter;
          Alcotest.test_case "float variant" `Quick test_growable_float;
          Alcotest.test_case "unboxed moves, int stack" `Quick
            test_growable_moves_and_int_stack;
          QCheck_alcotest.to_alcotest qcheck_growable_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_growable_lifo;
        ] );
      ( "stacks",
        [
          Alcotest.test_case "float: across chunks" `Quick
            Float_checks.across_chunks;
          Alcotest.test_case "int: across chunks" `Quick Int_checks.across_chunks;
          Alcotest.test_case "float: straddled boundary" `Quick
            Float_checks.straddled_boundary;
          Alcotest.test_case "int: straddled boundary" `Quick
            Int_checks.straddled_boundary;
          Alcotest.test_case "float: clear" `Quick Float_checks.clear;
          Alcotest.test_case "int: clear" `Quick Int_checks.clear;
          Alcotest.test_case "allocation" `Quick test_stack_allocation;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "uniform range" `Quick test_rng_uniform_range;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "shuffle permutation" `Quick
            test_rng_shuffle_permutation;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "float/bool" `Quick test_rng_float_bound;
          Alcotest.test_case "substream purity" `Quick test_rng_substream_pure;
          Alcotest.test_case "substream distinctness" `Quick
            test_rng_substream_distinct;
          Alcotest.test_case "substream chunk invariance" `Quick
            test_rng_substream_chunk_invariance;
        ] );
      ( "stats",
        [
          Alcotest.test_case "kahan sum" `Quick test_stats_sum_kahan;
          Alcotest.test_case "basics" `Quick test_stats_basics;
          Alcotest.test_case "median even" `Quick test_stats_median_even;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "geomean" `Quick test_stats_geomean;
          Alcotest.test_case "errors" `Quick test_stats_errors;
          Alcotest.test_case "abs_diffs" `Quick test_stats_abs_diffs;
          QCheck_alcotest.to_alcotest qcheck_mean_bounded;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "short rows" `Quick test_table_pads_short_rows;
          Alcotest.test_case "aligns" `Quick test_table_aligns;
          Alcotest.test_case "formats" `Quick test_table_formats;
        ] );
      ( "meter",
        [
          Alcotest.test_case "accounting" `Quick test_meter_accounting;
          Alcotest.test_case "budget" `Quick test_meter_budget;
          Alcotest.test_case "time" `Quick test_meter_time;
          Alcotest.test_case "bytes_pp" `Quick test_meter_bytes_pp;
        ] );
      ( "pool",
        [
          Alcotest.test_case "order preserved" `Quick test_pool_order_preserved;
          Alcotest.test_case "sequential fallback" `Quick
            test_pool_sequential_fallback;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception_propagation;
          Alcotest.test_case "edge cases" `Quick test_pool_edge_cases;
          Alcotest.test_case "more jobs than domains" `Quick
            test_pool_domain_limit;
          Alcotest.test_case "shared pool basics" `Quick test_shared_basic;
          Alcotest.test_case "shared pool priority/deadline" `Quick
            test_shared_priority_deadline;
          Alcotest.test_case "shared pool round-robin fairness" `Quick
            test_shared_round_robin;
          Alcotest.test_case "shared pool cancel on remove" `Quick
            test_shared_cancel_on_remove;
        ] );
    ]
