(** Streaming, mergeable quantile estimator (DESIGN.md §16).

    The sampling layer reports error {e distributions} — p50/p95/p99/max
    over Monte-Carlo input sweeps — and needs an accumulator that (a)
    streams (per-chunk results arrive as the domain pool finishes them),
    (b) merges (per-worker accumulators combine into one), and (c) stays
    cheap at large sample counts.

    {b Exact below the cutoff}: values accumulate in a buffer and every
    query is a true order statistic (nearest-rank convention). {b Past
    the cutoff}: the buffer compresses into [grid] equally-spaced
    weighted order statistics; further batches and {!merge}s combine by
    weighted concat + sort + recompress. Each compression perturbs a
    quantile's rank by at most [count/(2*grid)] and compressions
    compound additively — with the defaults (cutoff 4096, grid 1024)
    that is < 0.05% of rank per compression, far below Monte-Carlo noise
    at the sweep sizes this repo runs. [count]/[mean]/[min]/[max] are
    exact regardless of compression.

    Not thread-safe; give each domain its own accumulator and {!merge}.
    NaN values sort first (OCaml [compare] on floats), so a kernel that
    produces NaN errors skews low quantiles rather than poisoning the
    estimator. *)

type t

val create : ?cutoff:int -> ?grid:int -> unit -> t
(** [cutoff] (default 4096, >= 2) is the exact-mode size bound; [grid]
    (default 1024, >= 2) the compressed summary size.
    @raise Invalid_argument on bad bounds. *)

val add : t -> float -> unit
val add_array : t -> float array -> unit

val of_array : ?cutoff:int -> ?grid:int -> float array -> t

val count : t -> int

val is_exact : t -> bool
(** [true] while no compression has happened: quantiles are exact order
    statistics. *)

val quantile : t -> float -> float
(** [quantile t q] for [q] in [0, 1]: the value at the smallest rank
    whose cumulative weight reaches [q] of the total (nearest-rank).
    NaN when empty. @raise Invalid_argument outside [0, 1]. *)

val quantile_of_array : float array -> float -> float
(** One-shot exact nearest-rank quantile of an array (the array is not
    modified). Agrees with {!quantile} on an uncompressed accumulator
    of the same values. NaN on empty. *)

val settle_count : int -> float -> int
(** [settle_count n q] is [n - r + 1], where [r = ⌈q·n⌉] clamped to
    [[1, n]] is the nearest rank {!quantile_of_array} reads: the
    q-quantile of [n] values exceeds a threshold exactly when at least
    that many of the values lie strictly above it. Any subset of the
    values that already holds that many settles the question, whatever
    the rest are; NaN never counts, since it sorts lowest. [n >= 1]. *)

val min_value : t -> float
val max_value : t -> float
val mean : t -> float
(** Exact (never compressed); NaN when empty. *)

val merge : t -> t -> unit
(** [merge dst src] absorbs [src]'s distribution into [dst] ([src] is
    unchanged). Exact + exact stays exact while the combined size fits
    [dst]'s cutoff; otherwise the result is compressed to [dst]'s
    grid. *)

type summary = {
  count : int;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;  (** exact observed maximum *)
}

val summary : t -> summary
val summary_of_array : float array -> summary
