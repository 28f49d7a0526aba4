(** Run-time tape for the ADAPT-style operator-overloading baseline.

    Every elementary operation appends one node carrying its value, its
    predecessors, the local partials, an adjoint slot, and a variable
    attribution — the classic tracing design (CoDiPack/ADOL-C style) the
    paper's baseline is built on. The tape therefore grows with the
    {e operation count} of the program, which is exactly why ADAPT runs
    out of memory on the larger workloads of Figs. 4–8; the byte
    accounting here feeds that comparison deterministically.

    Layout is structure-of-arrays in fixed-size chunks of {!chunk_nodes}
    nodes, as CoDiPack's chunked tapes keep it: appending never copies a
    recorded node, only a small chunk directory grows, and the adjoint
    column is allocated once, at the tape's exact length, by
    {!backward}. The resident footprint therefore tracks
    {!bytes_per_node} (4 floats + 3 indices, 56 B) per node, plus at
    most one partly filled chunk. *)

type t

type num = { i : int; v : float }
(** The overloaded number: a tape index ([-1] for constants) and its
    value. *)

val create : ?meter:Cheffp_util.Meter.t -> unit -> t
(** With a meter, every appended node reports {!bytes_per_node}; a meter
    budget emulates the paper's out-of-memory failures. *)

val bytes_per_node : int

val chunk_nodes : int
(** Nodes per storage chunk (a power of two). The reverse sweep and the
    walks below visit the tape chunk by chunk, and a parallel
    {!walk_errors} hands one chunk to each pool task. *)

val length : t -> int
val bytes : t -> int

val const : float -> num
val input : t -> ?name:string -> float -> num
val register : t -> string -> num -> num
(** Attribution node: names the value for the error-estimation pass. *)

val unary : t -> v:float -> arg:num -> partial:float -> num
val binary : t -> v:float -> lhs:num -> dlhs:float -> rhs:num -> drhs:float -> num

val backward : t -> num -> unit
(** Seed the adjoint of the given output with 1 and propagate to all
    nodes. Resets previous adjoints. *)

val adjoint : t -> num -> float
(** [0.] for constants and for nodes recorded after the last
    {!backward}. *)

val value : t -> int -> float
(** Value of node [i]; [Invalid_argument] outside [0 .. length t - 1]. *)

val fold_registered : t -> init:'a -> f:('a -> string -> adjoint:float -> value:float -> 'a) -> 'a
(** Iterate over attribution nodes (inputs included if named), oldest
    first, after {!backward}. *)

val walk_errors :
  t ->
  ?jobs:int ->
  f:(adjoint:float -> value:float -> float) ->
  unit ->
  float * (string * float) list
(** [walk_errors t ~jobs ~f ()] evaluates [f] on every attribution node
    (after {!backward}) and returns the tape-order total and the
    per-name totals (unsorted). With [jobs > 1] and a tape of more than
    one chunk, the per-node evaluations fan out, one chunk per task, over
    {!Cheffp_util.Pool.parallel_map}; the reduction is always performed
    sequentially in tape order, so the result is bit-identical to
    [jobs = 1] (and to {!fold_registered}) for every [jobs] value. [f]
    must be pure — it runs concurrently on several domains. *)

val fold_inputs : t -> init:'a -> f:('a -> string -> adjoint:float -> 'a) -> 'a
(** Like {!fold_registered} but restricted to named input nodes — i.e.
    the gradient components, after {!backward}. *)

val var_names : t -> string array
