type 'a t = {
  mutable data : 'a array;
  mutable len : int;
  dummy : 'a;
}

let create ?(capacity = 8) ~dummy () =
  let capacity = max capacity 1 in
  { data = Array.make capacity dummy; len = 0; dummy }

let length t = t.len
let capacity t = Array.length t.data
let is_empty t = t.len = 0

let ensure t n =
  if n > Array.length t.data then begin
    let cap = ref (Array.length t.data) in
    while !cap < n do
      cap := !cap * 2
    done;
    let data = Array.make !cap t.dummy in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end

let push t x =
  ensure t (t.len + 1);
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Growable.pop: empty";
  t.len <- t.len - 1;
  let x = t.data.(t.len) in
  t.data.(t.len) <- t.dummy;
  x

let check t i =
  if i < 0 || i >= t.len then
    invalid_arg (Printf.sprintf "Growable: index %d out of bounds [0,%d)" i t.len)

let get t i = check t i; t.data.(i)
let set t i x = check t i; t.data.(i) <- x

let top t =
  if t.len = 0 then invalid_arg "Growable.top: empty";
  t.data.(t.len - 1)

let clear t =
  Array.fill t.data 0 t.len t.dummy;
  t.len <- 0

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold_left f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let to_list t = List.init t.len (fun i -> t.data.(i))
let to_array t = Array.sub t.data 0 t.len

module Float = struct
  type t = {
    mutable data : float array;
    mutable len : int;
    mutable peak : int;
  }

  let create ?(capacity = 16) () =
    { data = Array.make (max capacity 1) 0.; len = 0; peak = 0 }

  let length t = t.len
  let is_empty t = t.len = 0
  let peak_length t = t.peak

  let ensure t n =
    if n > Array.length t.data then begin
      let cap = ref (Array.length t.data) in
      while !cap < n do
        cap := !cap * 2
      done;
      let data = Array.make !cap 0. in
      Array.blit t.data 0 data 0 t.len;
      t.data <- data
    end

  let push t x =
    ensure t (t.len + 1);
    t.data.(t.len) <- x;
    t.len <- t.len + 1;
    if t.len > t.peak then t.peak <- t.len

  let pop t =
    if t.len = 0 then invalid_arg "Growable.Float.pop: empty";
    t.len <- t.len - 1;
    t.data.(t.len)

  (* [push_from]/[pop_into] move the value between arrays, so no float
     crosses a function boundary (where it would be boxed). *)
  let push_from t src i =
    ensure t (t.len + 1);
    t.data.(t.len) <- src.(i);
    t.len <- t.len + 1;
    if t.len > t.peak then t.peak <- t.len

  let pop_into t dst i =
    if t.len = 0 then invalid_arg "Growable.Float.pop: empty";
    dst.(i) <- t.data.(t.len - 1);
    t.len <- t.len - 1

  let check t i =
    if i < 0 || i >= t.len then
      invalid_arg
        (Printf.sprintf "Growable.Float: index %d out of bounds [0,%d)" i t.len)

  let get t i = check t i; t.data.(i)
  let set t i x = check t i; t.data.(i) <- x

  let top t =
    if t.len = 0 then invalid_arg "Growable.Float.top: empty";
    t.data.(t.len - 1)

  let clear t =
    t.len <- 0;
    t.peak <- 0
end

module Int = struct
  type t = {
    mutable data : int array;
    mutable len : int;
    mutable peak : int;
  }

  let create () = { data = Array.make 16 0; len = 0; peak = 0 }
  let peak_length t = t.peak

  let push t x =
    if t.len = Array.length t.data then begin
      let data = Array.make (2 * t.len) 0 in
      Array.blit t.data 0 data 0 t.len;
      t.data <- data
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1;
    if t.len > t.peak then t.peak <- t.len

  let pop t =
    if t.len = 0 then invalid_arg "Growable.Int.pop: empty";
    t.len <- t.len - 1;
    t.data.(t.len)
end
