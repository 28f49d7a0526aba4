(* Streaming, mergeable quantile estimator (DESIGN.md §16).

   Exact below a size cutoff: values accumulate in a growable buffer
   and every quantile query is a true order statistic. Past the cutoff
   the buffer is compressed into a fixed grid of [grid] equally-spaced
   weighted order statistics (an epsilon-approximate summary in the
   GK/t-digest family, kept deliberately simple); subsequent batches
   merge by weighted concat + sort + recompress. Each compression
   perturbs any quantile's rank by at most [total/(2*grid)], and
   compressions compound additively, so after [c] compressions a
   reported quantile is within rank [c*total/(2*grid)] of exact —
   with the default cutoff 4096 and grid 1024 that is under 0.2% of
   rank per compression, far tighter than Monte-Carlo noise at the
   sample counts this repo sweeps. [min]/[max]/[mean]/[count] are
   tracked exactly regardless of compression. *)

type t = {
  cutoff : int;
  grid : int;
  mutable buf : float array;  (* pending exact values, prefix [n] *)
  mutable n : int;
  mutable points : float array;  (* compressed sorted grid; [||] = exact *)
  mutable weight : float;  (* total weight represented by [points] *)
  mutable count : int;
  mutable vmin : float;
  mutable vmax : float;
  mutable sum : float;
}

let create ?(cutoff = 4096) ?(grid = 1024) () =
  if cutoff < 2 then invalid_arg "Quantile.create: cutoff must be >= 2";
  if grid < 2 then invalid_arg "Quantile.create: grid must be >= 2";
  {
    cutoff;
    grid;
    buf = Array.make 64 0.;
    n = 0;
    points = [||];
    weight = 0.;
    count = 0;
    vmin = infinity;
    vmax = neg_infinity;
    sum = 0.;
  }

let count t = t.count
let is_exact t = Array.length t.points = 0

let fcompare (a : float) b = compare a b

(* The merged weighted view: (value, weight) pairs sorted by value.
   Pending values weigh 1 each; each compressed point carries an equal
   share of the compressed weight. *)
let weighted t =
  let pending = Array.sub t.buf 0 t.n in
  Array.sort fcompare pending;
  let m = Array.length t.points in
  if m = 0 then Array.map (fun v -> (v, 1.)) pending
  else begin
    let pw = t.weight /. float_of_int m in
    let out = Array.make (m + t.n) (0., 0.) in
    let i = ref 0 and j = ref 0 and o = ref 0 in
    while !i < m || !j < t.n do
      if !j >= t.n || (!i < m && t.points.(!i) <= pending.(!j)) then begin
        out.(!o) <- (t.points.(!i), pw);
        incr i;
        incr o
      end
      else begin
        out.(!o) <- (pending.(!j), 1.);
        incr j;
        incr o
      end
    done;
    out
  end

let total_weight w = Array.fold_left (fun acc (_, wt) -> acc +. wt) 0. w

(* Install a weighted view as the compressed grid: point j takes the
   value at cumulative rank (j + 0.5)/grid of the weighted
   distribution. *)
let compress_view t w =
  let total = total_weight w in
  let m = t.grid in
  let pts = Array.make m 0. in
  let i = ref 0 and cum = ref 0. in
  let last = Array.length w - 1 in
  for j = 0 to m - 1 do
    let target = (float_of_int j +. 0.5) /. float_of_int m *. total in
    while !i < last && !cum +. snd w.(!i) <= target do
      cum := !cum +. snd w.(!i);
      incr i
    done;
    pts.(j) <- fst w.(!i)
  done;
  t.points <- pts;
  t.weight <- total;
  t.n <- 0

let add t x =
  if t.n = Array.length t.buf then begin
    let nb = Array.make (max 128 (2 * Array.length t.buf)) 0. in
    Array.blit t.buf 0 nb 0 t.n;
    t.buf <- nb
  end;
  t.buf.(t.n) <- x;
  t.n <- t.n + 1;
  t.count <- t.count + 1;
  if x < t.vmin then t.vmin <- x;
  if x > t.vmax then t.vmax <- x;
  t.sum <- t.sum +. x;
  if t.n >= t.cutoff then compress_view t (weighted t)

let add_array t xs = Array.iter (add t) xs

let of_array ?cutoff ?grid xs =
  let t = create ?cutoff ?grid () in
  add_array t xs;
  t

let quantile t q =
  if q < 0. || q > 1. then invalid_arg "Quantile.quantile: q outside [0, 1]";
  if t.count = 0 then Float.nan
  else begin
    let w = weighted t in
    let total = total_weight w in
    let target = q *. total in
    (* Nearest-rank: the value at the smallest position whose cumulative
       weight reaches q of the total. *)
    let res = ref (fst w.(Array.length w - 1)) in
    (try
       let cum = ref 0. in
       Array.iter
         (fun (v, wt) ->
           cum := !cum +. wt;
           if !cum >= target then begin
             res := v;
             raise Exit
           end)
         w
     with Exit -> ());
    !res
  end

(* The nearest rank of the q-quantile of n values: the 1-based
   position ⌈q·n⌉, clamped to [1, n]. *)
let rank n q = max 1 (min n (int_of_float (ceil (q *. float_of_int n))))

let quantile_of_array xs q =
  if Array.length xs = 0 then Float.nan
  else begin
    let s = Array.copy xs in
    Array.sort fcompare s;
    if q < 0. || q > 1. then invalid_arg "Quantile.quantile_of_array";
    (* Same nearest-rank convention as [quantile] on an exact summary. *)
    s.(rank (Array.length s) q - 1)
  end

(* The values strictly above a threshold sort last, so the q-quantile
   (rank r) exceeds the threshold exactly when at least n - r + 1 of the
   n values do. *)
let settle_count n q = n - rank n q + 1

let min_value t = if t.count = 0 then Float.nan else t.vmin
let max_value t = if t.count = 0 then Float.nan else t.vmax
let mean t = if t.count = 0 then Float.nan else t.sum /. float_of_int t.count

let merge dst src =
  if src.count > 0 then begin
    let stay_exact =
      is_exact dst && is_exact src && dst.n + src.n <= dst.cutoff
    in
    if stay_exact then
      for i = 0 to src.n - 1 do
        if dst.n = Array.length dst.buf then begin
          let nb = Array.make (max 128 (2 * Array.length dst.buf)) 0. in
          Array.blit dst.buf 0 nb 0 dst.n;
          dst.buf <- nb
        end;
        dst.buf.(dst.n) <- src.buf.(i);
        dst.n <- dst.n + 1
      done
    else begin
      let all = Array.append (weighted dst) (weighted src) in
      Array.sort (fun (a, _) (b, _) -> fcompare a b) all;
      compress_view dst all
    end;
    dst.count <- dst.count + src.count;
    dst.sum <- dst.sum +. src.sum;
    if src.vmin < dst.vmin then dst.vmin <- src.vmin;
    if src.vmax > dst.vmax then dst.vmax <- src.vmax
  end

type summary = {
  count : int;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
}

let summary (t : t) =
  {
    count = t.count;
    mean = mean t;
    p50 = quantile t 0.5;
    p95 = quantile t 0.95;
    p99 = quantile t 0.99;
    max = max_value t;
  }

let summary_of_array xs = summary (of_array xs)
