type op_class = Basic | Division | Square_root | Transcendental

let op_class_of_intrinsic = function
  | "sqrt" -> Square_root
  | "abs" | "fabs" | "min" | "max" | "floor" | "ceil" -> Basic
  | _ -> Transcendental

(* A charge is an index into the model's cost table: one entry per
   class x format for plain operations, one per class for approximate
   intrinsics, and the cast. *)
type charge = int

let class_index = function
  | Basic -> 0
  | Division -> 1
  | Square_root -> 2
  | Transcendental -> 3

let steps_below_f64 = function Fp.F64 -> 0 | Fp.F32 -> 1 | Fp.F16 -> 2
let op_charge fmt cls = (3 * class_index cls) + steps_below_f64 fmt
let approx_charge cls = 12 + class_index cls
let cast_charge = 16

(* The model is its cost table: the cost of every [charge], computed
   once by [make], so metering a run is one array read per charge. *)
type t = { table : float array }

let make ?(basic = 1.0) ?(division = 4.0) ?(square_root = 4.0)
    ?(transcendental = 10.0) ?(cast = 0.25) ?(narrow_factor = 0.5)
    ?(approx_discount = 0.25) () =
  let base = function
    | Basic -> basic
    | Division -> division
    | Square_root -> square_root
    | Transcendental -> transcendental
  in
  let table = Array.make (cast_charge + 1) 0. in
  List.iter
    (fun cls ->
      List.iter
        (fun fmt ->
          table.(op_charge fmt cls) <-
            base cls *. (narrow_factor ** float_of_int (steps_below_f64 fmt)))
        [ Fp.F64; Fp.F32; Fp.F16 ];
      table.(approx_charge cls) <- base cls *. approx_discount)
    [ Basic; Division; Square_root; Transcendental ];
  table.(cast_charge) <- cast;
  { table }

let default = make ()
let op t fmt cls = t.table.(op_charge fmt cls)
let cast t = t.table.(cast_charge)
let approx t cls = t.table.(approx_charge cls)

module Counter = struct
  type model = t

  (* An all-float record is stored flat, so adding to [sum] allocates
     nothing; a float field of the mixed record below would be boxed
     afresh on every charge. *)
  type running = { mutable sum : float }

  type nonrec t = {
    model : model;
    running : running;
    mutable casts : int;
    mutable ops : int;
  }

  let create model = { model; running = { sum = 0. }; casts = 0; ops = 0 }
  let model c = c.model

  let charge c k =
    let r = c.running in
    r.sum <- r.sum +. c.model.table.(k);
    if k = cast_charge then c.casts <- c.casts + 1 else c.ops <- c.ops + 1

  let charge_op c fmt cls = charge c (op_charge fmt cls)
  let charge_cast c = charge c cast_charge
  let charge_approx c cls = charge c (approx_charge cls)
  let total c = c.running.sum
  let casts c = c.casts
  let ops c = c.ops
end
