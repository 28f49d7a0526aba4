(** Growable (dynamic) arrays, and the value stacks of CHEF-FP runs.

    The standard library gains [Dynarray] only in OCaml 5.2; ['a t] is
    the subset of it this project needs, a doubling array.

    {!Float} (unboxed) and {!Int} are the push/pop stacks that compiled
    and interpreted runs store their values on. They are stacks of
    chunks that are never copied or moved, like the ADAPT tape: chunks
    start at 16 elements and double up to {!chunk_cap}, and every later
    chunk is full size. So growth copies nothing, a stack holds its
    {!Float.peak_length} plus less than one chunk (the bytes a CHEF-FP
    analysis models are the bytes it holds), and a stack that is never
    pushed allocates no chunk. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [create ~dummy ()] makes an empty growable array. [dummy] fills
    unused capacity and is never observable through the API. *)

val length : 'a t -> int
val capacity : 'a t -> int

val push : 'a t -> 'a -> unit
(** Append an element, growing the backing store geometrically. *)

val pop : 'a t -> 'a
(** Remove and return the last element. @raise Invalid_argument if empty. *)

val get : 'a t -> int -> 'a
(** @raise Invalid_argument on out-of-bounds access. *)

val set : 'a t -> int -> 'a -> unit
val top : 'a t -> 'a
val is_empty : 'a t -> bool
val clear : 'a t -> unit
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_list : 'a t -> 'a list
val to_array : 'a t -> 'a array

val chunk_cap : int
(** The elements of a full-size {!Float} or {!Int} chunk: [2^16]. *)

(** Unboxed float stack: chunks are [float array]s. *)
module Float : sig
  type t

  val create : unit -> t
  val length : t -> int
  val push : t -> float -> unit
  val pop : t -> float
  (** @raise Invalid_argument if empty. *)

  val push_from : t -> float array -> int -> unit
  (** [push_from t a i] pushes [a.(i)]. Unlike [push], no float crosses
      the call, so nothing is boxed. *)

  val pop_into : t -> float array -> int -> unit
  (** [pop_into t a i] pops into [a.(i)], unboxed. @raise
      Invalid_argument if empty. *)

  val get : t -> int -> float
  (** Element [i], counted from the bottom. @raise Invalid_argument on
      out-of-bounds access. *)

  val set : t -> int -> float -> unit
  val top : t -> float
  val is_empty : t -> bool

  val clear : t -> unit
  (** Empty the stack and reset its peak; its chunks are kept. *)

  val peak_length : t -> int
  (** High-water mark of [length] since creation or the last [clear]:
      used for deterministic peak-memory accounting of value stacks. *)
end

(** Monomorphic int stack, chunked like {!Float}: no polymorphic array
    dispatch on push/pop. *)
module Int : sig
  type t

  val create : unit -> t
  val length : t -> int
  val push : t -> int -> unit

  val pop : t -> int
  (** @raise Invalid_argument if empty. *)

  val get : t -> int -> int
  val set : t -> int -> int -> unit
  val top : t -> int
  val is_empty : t -> bool
  val clear : t -> unit

  val peak_length : t -> int
  (** High-water mark of [length] since creation or the last [clear]. *)
end
