(** Growable (dynamic) arrays.

    The standard library gains [Dynarray] only in OCaml 5.2; this module
    provides the subset needed by the tape structures in this project,
    plus a float-specialised variant backed by an unboxed [float array]. *)

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

(** Unboxed float variant: same semantics, [float array] backing store. *)
module Float : sig
  type t

  val create : ?capacity:int -> unit -> t
  val length : t -> int
  val push : t -> float -> unit
  val pop : t -> float

  val push_from : t -> float array -> int -> unit
  (** [push_from t a i] pushes [a.(i)]. Unlike [push], no float crosses
      the call, so nothing is boxed. *)

  val pop_into : t -> float array -> int -> unit
  (** [pop_into t a i] pops into [a.(i)], unboxed. @raise
      Invalid_argument if empty. *)

  val get : t -> int -> float
  val set : t -> int -> float -> unit
  val top : t -> float
  val is_empty : t -> bool
  val clear : t -> unit
  val peak_length : t -> int
  (** High-water mark of [length] since creation or the last [clear]:
      used for deterministic peak-memory accounting of value stacks. *)
end

(** Monomorphic int stack: no polymorphic array dispatch on push/pop. *)
module Int : sig
  type t

  val create : unit -> t
  val push : t -> int -> unit
  val pop : t -> int
  (** @raise Invalid_argument if empty. *)

  val peak_length : t -> int
  (** High-water mark of [length] since creation. *)
end
