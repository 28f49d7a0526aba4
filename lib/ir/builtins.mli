(** Intrinsic function registry for MiniFP.

    The registry is a first-class value so analyses can extend it: the
    CHEF-FP external error models (paper Listing 3) register plain OCaml
    closures here and the generated code calls them by name, exactly like
    Clad emitting a call to a user's [getErrorVal]. The FastApprox
    intrinsics are likewise registered on top of the defaults. *)

type kind = Kint | Kflt

val kind_of_scalar : Ast.scalar -> kind
val kind_name : kind -> string

type signature = {
  args : kind list;
  ret : kind;
  cls : Cheffp_precision.Cost.op_class;
  approx : bool;  (** approximate intrinsic: metered at a discounted cost *)
}

type value = I of int | F of float

type impl = value array -> value

type t

val create : unit -> t
(** Fresh registry preloaded with the default math intrinsics:
    [sin cos tan exp log log2 log10 sqrt pow fabs floor ceil fmin fmax
    fma tanh atan sign select itof ftoi castf32 castf16]. *)

val empty : unit -> t

(** Primitive tags. A tag tells the compiler it may run an intrinsic
    as the named primitive (unboxed, without calling [impl]) instead.
    {!create} tags the defaults that are exactly a stdlib primitive;
    the [Record_*] tags lower the instrumentation calls of an analysis
    to direct writes into the run's recording sink ({!Compile.sink}). *)
type prim =
  | Sin
  | Cos
  | Tan
  | Exp
  | Log
  | Log10
  | Sqrt
  | Tanh
  | Atan
  | Fabs
  | Floor
  | Ceil
  | Castf32
  | Pow
  | Fma
  | Select
  | Itof
  | Ftoi
  | Record_total  (** [(id, e)]: add [e] to the sink's [totals.(id)]; yields [e] *)
  | Record_range  (** [(id, v)]: widen [lo.(id)], [hi.(id)] to [v]; yields [v] *)
  | Record_iter
      (** [(id, iter, s)]: add [s] to the sink's [(id, iter)] entry; yields [s] *)

val register : ?prim:prim -> t -> string -> signature -> impl -> unit
(** Adds or replaces an intrinsic. Replacing clears the name's
    primitive tag and interval hooks; [prim] tags the new entry, and
    promises that [impl] computes exactly that primitive. A given
    [prim] overwrites the old tag in place, so re-registering the same
    tagged entry on a table other domains compile against never leaves
    the name untagged, even briefly. *)

val prim : t -> string -> prim option
(** The name's primitive tag, if it still holds the tagged entry. *)

val find : t -> string -> (signature * impl) option
val mem : t -> string -> bool
val signature : t -> string -> signature option
val names : t -> string list

val register_float1 :
  ?prim:prim ->
  t ->
  string ->
  ?cls:Cheffp_precision.Cost.op_class ->
  ?approx:bool ->
  (float -> float) ->
  unit
(** Convenience for unary float->float intrinsics. *)

val as_float : value -> float
(** @raise Invalid_argument on an integer value. *)

val as_int : value -> int

val fast1 : t -> string -> (float -> float) option
(** Direct float path for intrinsics registered via {!register_float1}:
    the compilers call it without building a [value] array. *)

val fast2 : t -> string -> (float -> float -> float) option

(** {2 Interval enclosures}

    Hooks for the range analysis (lib/range): a hook maps intervals
    enclosing the arguments to an interval enclosing every binary64
    value the registered implementation can return on them (endpoint
    libm evaluations are widened outward by a few ulps; an infinite
    endpoint means "no finite enclosure"). {!create} preloads hooks for
    the default float intrinsics. {!register} {e clears} any hook for
    the name being (re)registered — a replacement implementation (e.g.
    a FastApprox polynomial) silently inheriting the libm enclosure
    would be unsound, and a missing hook merely degrades the range
    analysis to an [Unbounded] verdict. *)

type iv = float * float

val interval1 : t -> string -> (iv -> iv) option
val interval2 : t -> string -> (iv -> iv -> iv) option

val register_interval1 : t -> string -> (iv -> iv) -> unit
val register_interval2 : t -> string -> (iv -> iv -> iv) -> unit
