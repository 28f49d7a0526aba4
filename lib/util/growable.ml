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

(* ------------------------------------------------------------------ *)
(* Chunked stacks                                                     *)

(* [Float] and [Int] are stacks of chunks that are never copied or
   moved, like the ADAPT tape: chunk [c] holds [16 lsl c] elements up to
   [chunk_cap], and every later chunk holds [chunk_cap]. So a stack
   holds its peak length plus less than one chunk, growth copies
   nothing, and a stack that is never pushed allocates no chunk. Pushes
   and pops touch only the current chunk [cur] at offset [pos]; the
   switch to a neighbouring chunk happens at a boundary, off that path.
   Chunks stay allocated when the stack shrinks, so a push/pop sequence
   around a boundary allocates nothing. The directory of chunks is made
   with the second chunk, at 16 entries; it next grows to 512 entries
   and doubles from there, in the major heap (OCaml allocates arrays
   over 256 words there), so bookkeeping adds no minor-heap words that
   grow with a stack's length. *)

module Chunks = struct
  let first_bits = 4
  let cap_bits = 16

  type 'a stack = {
    mutable cur : 'a array;  (** [[||]] before the first push *)
    mutable pos : int;  (** elements of [cur] in use, at most its length *)
    mutable base : int;  (** elements in the chunks below [cur] *)
    mutable ci : int;  (** index of [cur]; -1 before the first push *)
    mutable dir : 'a array array;  (** every chunk made, once there are two *)
    mutable peak : int;
  }

  let chunk_size c = 1 lsl (first_bits + min c (cap_bits - first_bits))

  (* The index of chunk [c]'s first element. *)
  let chunk_base c =
    let g = cap_bits - first_bits in
    if c <= g then ((1 lsl c) - 1) lsl first_bits
    else (((1 lsl g) - 1) lsl first_bits) + ((c - g) lsl cap_bits)

  (* The chunk holding element [i], searched from chunk [c]. *)
  let rec chunk_index c i =
    if i < chunk_base (c + 1) then c else chunk_index (c + 1) i

  let empty () =
    { cur = [||]; pos = 0; base = 0; ci = -1; dir = [||]; peak = 0 }
  let length t = t.base + t.pos

  (* Make the chunk after [cur] current: the one made before, or a new
     one from [make]. *)
  let next make t =
    let c = t.ci + 1 in
    let chunk =
      if c < Array.length t.dir && Array.length t.dir.(c) > 0 then t.dir.(c)
      else begin
        let chunk = make (chunk_size c) in
        if c > 0 then begin
          if c >= Array.length t.dir then begin
            let dir = Array.make (if c = 1 then 16 else max 512 (2 * c)) [||] in
            if c = 1 then dir.(0) <- t.cur else Array.blit t.dir 0 dir 0 c;
            t.dir <- dir
          end;
          t.dir.(c) <- chunk
        end;
        chunk
      end
    in
    t.base <- t.base + t.pos;
    t.ci <- c;
    t.cur <- chunk;
    t.pos <- 0

  (* [pos = 0]: make the full chunk before [cur] current, or fail with
     [msg] if there is none. *)
  let prev msg t =
    if t.base = 0 then invalid_arg msg;
    let c = t.ci - 1 in
    let chunk = t.dir.(c) in
    t.ci <- c;
    t.cur <- chunk;
    t.pos <- Array.length chunk;
    t.base <- t.base - Array.length chunk

  (* Element access for both stacks; [name] is the module's, for the
     messages. Not on a fast path, so polymorphic access will do. *)
  let check name t i =
    if i < 0 || i >= length t then
      invalid_arg
        (Printf.sprintf "Growable.%s: index %d out of bounds [0,%d)" name i
           (length t))

  (* Chunk [c], made and at most [ci]. *)
  let chunk_at t c = if c = t.ci then t.cur else t.dir.(c)

  let get name t i =
    check name t i;
    let c = chunk_index 0 i in
    (chunk_at t c).(i - chunk_base c)

  let set name t i x =
    check name t i;
    let c = chunk_index 0 i in
    (chunk_at t c).(i - chunk_base c) <- x

  let top name t =
    if length t = 0 then invalid_arg ("Growable." ^ name ^ ".top: empty");
    get name t (length t - 1)

  let clear t =
    if t.ci > 0 then begin
      t.ci <- 0;
      t.cur <- t.dir.(0)
    end;
    t.pos <- 0;
    t.base <- 0;
    t.peak <- 0
end

let chunk_cap = 1 lsl Chunks.cap_bits

(* The fast paths below write [cur.(pos)] and read [cur.(pos - 1)]
   unchecked: [next] and [prev] keep [0 <= pos <= length cur], and each
   access follows the test that rules out the boundary. *)

module Float = struct
  open Chunks

  type t = float stack

  let create () : t = empty ()
  let length = length
  let is_empty t = length t = 0
  let peak_length t = t.peak
  let clear = clear

  let push (t : t) x =
    if t.pos = Array.length t.cur then next Array.create_float t;
    let p = t.pos in
    Array.unsafe_set t.cur p x;
    let n = t.base + p + 1 in
    t.pos <- p + 1;
    if n > t.peak then t.peak <- n

  let pop (t : t) =
    if t.pos = 0 then prev "Growable.Float.pop: empty" t;
    let p = t.pos - 1 in
    t.pos <- p;
    Array.unsafe_get t.cur p

  (* [push_from]/[pop_into] move the value between arrays, so no float
     crosses a function boundary (where it would be boxed). *)
  let push_from (t : t) src i =
    if t.pos = Array.length t.cur then next Array.create_float t;
    let p = t.pos in
    Array.unsafe_set t.cur p src.(i);
    let n = t.base + p + 1 in
    t.pos <- p + 1;
    if n > t.peak then t.peak <- n

  let pop_into (t : t) dst i =
    if t.pos = 0 then prev "Growable.Float.pop: empty" t;
    let p = t.pos - 1 in
    dst.(i) <- Array.unsafe_get t.cur p;
    t.pos <- p

  let get t i = get "Float" t i
  let set t i x = set "Float" t i x
  let top t = top "Float" t
end

module Int = struct
  open Chunks

  type t = int stack

  let create () : t = empty ()
  let length = length
  let is_empty t = length t = 0
  let peak_length t = t.peak
  let clear = clear
  let make_chunk n = Array.make n 0

  let push (t : t) x =
    if t.pos = Array.length t.cur then next make_chunk t;
    let p = t.pos in
    Array.unsafe_set t.cur p x;
    let n = t.base + p + 1 in
    t.pos <- p + 1;
    if n > t.peak then t.peak <- n

  let pop (t : t) =
    if t.pos = 0 then prev "Growable.Int.pop: empty" t;
    let p = t.pos - 1 in
    t.pos <- p;
    Array.unsafe_get t.cur p

  let get t i = get "Int" t i
  let set t i x = set "Int" t i x
  let top t = top "Int" t
end
