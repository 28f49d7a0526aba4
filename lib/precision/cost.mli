(** Operation cost model for modelled mixed-precision speedups.

    OCaml has no native narrow floats, so the runtime gain of demoting a
    variable cannot be observed directly; instead the interpreter meters
    every arithmetic operation through this model. The default model is
    calibrated to contemporary x86 behaviour: a narrow operation costs
    half of the next wider one (SIMD width doubling), divisions and square
    roots are several times a multiply, transcendental calls an order of
    magnitude more, and precision casts carry a small penalty — the
    type-cast overhead the paper's §V-B discusses. Approximate intrinsics
    (FastApprox) are charged a fraction of their exact counterparts. *)

type op_class =
  | Basic  (** add, sub, mul, negate, compare, abs, min, max *)
  | Division
  | Square_root
  | Transcendental  (** exp, log, sin, cos, tan, pow, ... *)

val op_class_of_intrinsic : string -> op_class
(** Classifies an intrinsic by name; unknown names are [Transcendental]. *)

type t

val default : t

val make :
  ?basic:float ->
  ?division:float ->
  ?square_root:float ->
  ?transcendental:float ->
  ?cast:float ->
  ?narrow_factor:float ->
  ?approx_discount:float ->
  unit ->
  t
(** Base costs are for binary64; an operation in format [f] costs
    [base * narrow_factor^(steps below F64)]. [cast] is the cost of one
    precision conversion; [approx_discount] multiplies the cost of an
    approximate intrinsic relative to its exact version. *)

val op : t -> Fp.format -> op_class -> float
val cast : t -> float
val approx : t -> op_class -> float
(** Cost of an approximate (FastApprox-style) intrinsic of the class. *)

(** {2 Charges}

    A model is a table with one cost per charge (class x format for
    plain operations, class for approximate intrinsics, and the cast),
    computed once by {!make}. A compiler resolves each metered site to
    its charge ahead of the run; metering is then one table read. *)

type charge

val op_charge : Fp.format -> op_class -> charge
val approx_charge : op_class -> charge
val cast_charge : charge

(** Mutable accumulator threaded through an interpreter run. *)
module Counter : sig
  type model = t
  type t

  val create : model -> t
  val model : t -> model

  val charge : t -> charge -> unit
  (** Add the charge's cost to the total (kept unboxed: charging
      allocates nothing) and count it as a cast or an operation. *)

  val charge_op : t -> Fp.format -> op_class -> unit
  val charge_cast : t -> unit
  val charge_approx : t -> op_class -> unit
  val total : t -> float
  val casts : t -> int
  (** Number of precision casts charged: the paper's implicit-cast
      counter (§V-B, "Quantifying overhead of type-casts"). *)

  val ops : t -> int
end
