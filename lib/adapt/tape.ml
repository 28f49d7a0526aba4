module Meter = Cheffp_util.Meter

type num = { i : int; v : float }

(* One fixed-size block of the recorded columns, structure-of-arrays.
   Node [k] of the tape lives in chunk [k lsr chunk_bits] at offset
   [k land (chunk_nodes - 1)]; [lhs] and [rhs] hold global node
   indices. *)
type chunk = {
  values : float array;
  dlhs : float array;
  drhs : float array;
  lhs : int array;
  rhs : int array;
  var_id : int array;
}

type t = {
  mutable chunks : chunk array;  (** directory; the first [nchunks] are live *)
  mutable nchunks : int;
  mutable cur : chunk;  (** the chunk receiving appends *)
  mutable len : int;
  mutable adjoints : float array;  (** [len] long after {!backward} *)
  names : (string, int) Hashtbl.t;
  mutable name_list : string list;  (** reversed *)
  meter : Meter.t option;
}

(* CoDiPack-style chunked storage: appending never moves a recorded
   node, so recording copies nothing and the resident tape is its own
   size (a doubling array holds up to 3x while it grows). *)
let chunk_bits = 14
let chunk_nodes = 1 lsl chunk_bits

(* 4 floats + 3 boxed-word indices per node. *)
let bytes_per_node = (4 * 8) + (3 * 8)

(* Never read: [cur] before the first append. *)
let no_chunk =
  {
    values = [||];
    dlhs = [||];
    drhs = [||];
    lhs = [||];
    rhs = [||];
    var_id = [||];
  }

let new_chunk () =
  {
    values = Array.create_float chunk_nodes;
    dlhs = Array.create_float chunk_nodes;
    drhs = Array.create_float chunk_nodes;
    lhs = Array.make chunk_nodes 0;
    rhs = Array.make chunk_nodes 0;
    var_id = Array.make chunk_nodes 0;
  }

let create ?meter () =
  {
    chunks = [||];
    nchunks = 0;
    cur = no_chunk;
    len = 0;
    adjoints = [||];
    names = Hashtbl.create 16;
    name_list = [];
    meter;
  }

let length t = t.len
let bytes t = t.len * bytes_per_node

let add_chunk t =
  if t.nchunks = Array.length t.chunks then begin
    let dir = Array.make (max 8 (2 * t.nchunks)) no_chunk in
    Array.blit t.chunks 0 dir 0 t.nchunks;
    t.chunks <- dir
  end;
  let c = new_chunk () in
  t.chunks.(t.nchunks) <- c;
  t.nchunks <- t.nchunks + 1;
  t.cur <- c

let push t ~v ~lhs ~dlhs ~rhs ~drhs ~var_id =
  (match t.meter with Some m -> Meter.alloc m bytes_per_node | None -> ());
  let i = t.len in
  let j = i land (chunk_nodes - 1) in
  if j = 0 then add_chunk t;
  let c = t.cur in
  c.values.(j) <- v;
  c.dlhs.(j) <- dlhs;
  c.drhs.(j) <- drhs;
  c.lhs.(j) <- lhs;
  c.rhs.(j) <- rhs;
  c.var_id.(j) <- var_id;
  t.len <- i + 1;
  { i; v }

(* Nodes recorded in chunk [c]. *)
let chunk_length t c = min chunk_nodes (t.len - (c lsl chunk_bits))

let const v = { i = -1; v }

let name_id t name =
  match Hashtbl.find_opt t.names name with
  | Some id -> id
  | None ->
      let id = Hashtbl.length t.names in
      Hashtbl.replace t.names name id;
      t.name_list <- name :: t.name_list;
      id

let input t ?name v =
  let var_id = match name with Some n -> name_id t n | None -> -1 in
  push t ~v ~lhs:(-1) ~dlhs:0. ~rhs:(-1) ~drhs:0. ~var_id

let register t name x =
  push t ~v:x.v ~lhs:x.i ~dlhs:1. ~rhs:(-1) ~drhs:0. ~var_id:(name_id t name)

let unary t ~v ~arg ~partial =
  push t ~v ~lhs:arg.i ~dlhs:partial ~rhs:(-1) ~drhs:0. ~var_id:(-1)

let binary t ~v ~lhs ~dlhs ~rhs ~drhs =
  push t ~v ~lhs:lhs.i ~dlhs ~rhs:rhs.i ~drhs ~var_id:(-1)

let backward t out =
  let adj = Array.make t.len 0. in
  t.adjoints <- adj;
  if out.i >= 0 then begin
    adj.(out.i) <- 1.;
    for c = t.nchunks - 1 downto 0 do
      let ch = t.chunks.(c) and base = c lsl chunk_bits in
      for j = chunk_length t c - 1 downto 0 do
        let a = adj.(base + j) in
        if a <> 0. then begin
          let l = ch.lhs.(j) in
          if l >= 0 then adj.(l) <- adj.(l) +. (a *. ch.dlhs.(j));
          let r = ch.rhs.(j) in
          if r >= 0 then adj.(r) <- adj.(r) +. (a *. ch.drhs.(j))
        end
      done
    done
  end

let adjoint t x =
  if x.i >= 0 && x.i < Array.length t.adjoints then t.adjoints.(x.i) else 0.

let value t i =
  if i < 0 || i >= t.len then invalid_arg "Tape.value";
  t.chunks.(i lsr chunk_bits).values.(i land (chunk_nodes - 1))

let var_names t =
  let n = Hashtbl.length t.names in
  let a = Array.make n "" in
  List.iteri (fun k name -> a.(n - 1 - k) <- name) t.name_list;
  a

(* [f acc chunk base length] over the live chunks, oldest first. *)
let fold_chunks t ~init ~f =
  let acc = ref init in
  for c = 0 to t.nchunks - 1 do
    acc := f !acc t.chunks.(c) (c lsl chunk_bits) (chunk_length t c)
  done;
  !acc

let fold_inputs t ~init ~f =
  let names = var_names t and adj = t.adjoints in
  fold_chunks t ~init ~f:(fun acc ch base n ->
      let acc = ref acc in
      for j = 0 to n - 1 do
        let id = ch.var_id.(j) in
        if id >= 0 && ch.lhs.(j) < 0 then
          acc := f !acc names.(id) ~adjoint:adj.(base + j)
      done;
      !acc)

let fold_registered t ~init ~f =
  let names = var_names t and adj = t.adjoints in
  fold_chunks t ~init ~f:(fun acc ch base n ->
      let acc = ref acc in
      for j = 0 to n - 1 do
        let id = ch.var_id.(j) in
        if id >= 0 then
          acc := f !acc names.(id) ~adjoint:adj.(base + j) ~value:ch.values.(j)
      done;
      !acc)

let walk_errors t ?(jobs = 1) ~f () =
  let names = var_names t and adj = t.adjoints in
  (* The per-node contributions are independent, so they may be
     computed out of order, one pool task per chunk, into a scratch
     array; the reduction below then consumes them strictly in tape
     order, which is what makes the parallel walk bit-identical to the
     sequential one (float addition is not associative — the summation
     order must not change). *)
  let precomputed =
    if jobs <= 1 || t.nchunks <= 1 then None
    else begin
      let out = Array.make t.len 0. in
      ignore
        (Cheffp_util.Pool.parallel_map ~jobs
           (fun c ->
             let ch = t.chunks.(c) and base = c lsl chunk_bits in
             for j = 0 to chunk_length t c - 1 do
               if ch.var_id.(j) >= 0 then
                 out.(base + j) <-
                   f ~adjoint:adj.(base + j) ~value:ch.values.(j)
             done)
           (List.init t.nchunks Fun.id));
      Some out
    end
  in
  let per_var : (string, float ref) Hashtbl.t = Hashtbl.create 16 in
  let total =
    fold_chunks t ~init:0. ~f:(fun total ch base n ->
        let total = ref total in
        for j = 0 to n - 1 do
          let id = ch.var_id.(j) in
          if id >= 0 then begin
            let e =
              match precomputed with
              | Some a -> a.(base + j)
              | None -> f ~adjoint:adj.(base + j) ~value:ch.values.(j)
            in
            (match Hashtbl.find_opt per_var names.(id) with
            | Some r -> r := !r +. e
            | None -> Hashtbl.replace per_var names.(id) (ref e));
            total := !total +. e
          end
        done;
        !total)
  in
  (total, Hashtbl.fold (fun name r acc -> (name, !r) :: acc) per_var [])
