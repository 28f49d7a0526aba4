module Trace = Cheffp_obs.Trace
module Metrics = Cheffp_obs.Metrics

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

let sequential_map f xs = List.map f xs

(* Registry handles are fetched once per map call / per worker, not per
   task; updates themselves are lock-free atomics. *)
let tasks_total () = Metrics.counter "pool.tasks"
let worker_tasks w = Metrics.counter (Printf.sprintf "pool.worker.%d.tasks" w)
let queue_wait () = Metrics.histogram "pool.queue_wait_seconds"
let busy () = Metrics.histogram "pool.busy_seconds"

let parallel_map ?jobs f xs =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | xs when jobs <= 1 ->
      (* Degraded mode still counts its tasks (one atomic add per item)
         so `-j 1` runs show up in the same metrics; it takes no
         timestamps and spawns nothing. *)
      let total = tasks_total () and mine = worker_tasks 0 in
      sequential_map
        (fun x ->
          let y = f x in
          Metrics.incr total;
          Metrics.incr mine;
          y)
        xs
  | xs ->
      let input = Array.of_list xs in
      let n = Array.length input in
      let results : ('b, exn) result option array = Array.make n None in
      let cursor = Atomic.make 0 in
      let failed = Atomic.make false in
      let total = tasks_total () in
      (* Timed observations (queue-wait = idle gap before claiming an
         item, busy = the item itself) need two clock reads per task, so
         they are gated; task counters are always on. *)
      let timed = Metrics.enabled () in
      let wait_h = if timed then Some (queue_wait (), busy ()) else None in
      let trace_parent = Trace.current () in
      let batch_start = if timed then Unix.gettimeofday () else 0. in
      (* Workers pull the next index from the shared cursor until the
         items run out or a sibling records a failure. Each index is
         claimed by exactly one worker, so the per-slot writes below
         never race; joining the domains publishes them to the caller. *)
      let worker w () =
        let mine = worker_tasks w in
        let last_end = ref batch_start in
        let rec loop () =
          if not (Atomic.get failed) then begin
            let i = Atomic.fetch_and_add cursor 1 in
            if i < n then begin
              let start =
                match wait_h with
                | Some (qw, _) ->
                    let t = Unix.gettimeofday () in
                    Metrics.observe qw (t -. !last_end);
                    t
                | None -> 0.
              in
              (match f input.(i) with
              | v -> results.(i) <- Some (Ok v)
              | exception e ->
                  results.(i) <- Some (Error e);
                  Atomic.set failed true);
              Metrics.incr total;
              Metrics.incr mine;
              (match wait_h with
              | Some (_, bh) ->
                  let t = Unix.gettimeofday () in
                  Metrics.observe bh (t -. start);
                  last_end := t
              | None -> ());
              loop ()
            end
          end
        in
        loop ()
      in
      (* Spawning stops at the first domain the runtime refuses (it
         caps how many are alive at once): the caller and the workers
         already running drain the cursor between them. *)
      let rec spawn k spawned =
        if k >= min jobs n then spawned
        else
          match
            Domain.spawn (fun () ->
                (* Spans opened inside worker tasks nest under the span
                   that issued this batch. *)
                Trace.with_parent trace_parent (worker k))
          with
          | d -> spawn (k + 1) (d :: spawned)
          | exception Failure _ -> spawned
      in
      let spawned = spawn 1 [] in
      worker 0 ();
      List.iter Domain.join spawned;
      Array.iter (function Some (Error e) -> raise e | _ -> ()) results;
      Array.to_list
        (Array.map
           (function
             | Some (Ok v) -> v
             | Some (Error _) | None ->
                 (* unreachable: a [None] slot implies [failed] was set,
                    i.e. some slot holds an [Error] raised above. *)
                 assert false)
           results)

(* ------------------------------------------------------------------ *)
(* Shared long-lived pool (the analysis server's executor). Unlike
   [parallel_map], whose domains live for one call, [Shared] keeps a
   fixed set of worker domains alive for the life of the process and
   multiplexes tasks from many concurrent submitters onto them. *)

module Shared = struct
  type 'a fstate = Pending | Done of ('a, exn) result

  type 'a future = {
    f_m : Mutex.t;
    f_cv : Condition.t;
    mutable f_st : 'a fstate;
  }

  type task = {
    t_run : unit -> unit;
    t_cancel : unit -> unit;
    t_prio : int;
    t_deadline : float;
    t_seq : int;  (* unique; FIFO tie-break within a queue *)
    t_enq : float;
  }

  type submitter = {
    s_id : int;
    s_lock : Mutex.t;
    mutable s_tasks : task list;
  }

  type t = {
    m : Mutex.t;  (* guards queued/active/seq/subs/stop *)
    work_cv : Condition.t;  (* workers sleep here when idle *)
    idle_cv : Condition.t;  (* [drain] waits here *)
    mutable subs : submitter array;  (* replaced wholesale, never mutated *)
    mutable stop : bool;
    mutable queued : int;
    mutable active : int;
    mutable seq : int;
    mutable next_sub_id : int;
    mutable domains : unit Domain.t array;
    n_workers : int;
  }

  let submitted_c = Metrics.counter "pool.shared.submitted"
  let completed_c = Metrics.counter "pool.shared.completed"
  let steals_c = Metrics.counter "pool.shared.steals"
  let depth_g = Metrics.gauge "pool.shared.queue_depth"
  (* Server request path: sub-millisecond waits are the common case, so
     use the finer latency buckets (windowed quantiles resolve them;
     DESIGN.md §14). *)
  let shared_wait () =
    Metrics.histogram ~buckets:Metrics.latency_buckets
      "pool.shared.queue_wait_seconds"

  (* Admission order within one queue: higher priority first, then
     earlier deadline, then submission order. *)
  let better a b =
    if a.t_prio <> b.t_prio then a.t_prio > b.t_prio
    else if a.t_deadline <> b.t_deadline then a.t_deadline < b.t_deadline
    else a.t_seq < b.t_seq

  let peek s =
    Mutex.lock s.s_lock;
    let b =
      match s.s_tasks with
      | [] -> None
      | x :: rest ->
          Some (List.fold_left (fun acc t -> if better t acc then t else acc) x rest)
    in
    Mutex.unlock s.s_lock;
    b

  let pop_best s =
    Mutex.lock s.s_lock;
    let r =
      match s.s_tasks with
      | [] -> None
      | x :: rest ->
          let best =
            List.fold_left (fun acc t -> if better t acc then t else acc) x rest
          in
          s.s_tasks <- List.filter (fun t -> t.t_seq <> best.t_seq) s.s_tasks;
          Some best
    in
    Mutex.unlock s.s_lock;
    r

  (* Queue choice: scan every submitter queue — the worker's home
     queues first (submitter id mod workers = this worker), then the
     rest (a steal) — and take the task that wins on
     (priority, deadline). Ties keep the earliest queue in scan order,
     and the scan order rotates (per-worker round-robin pointer), so
     equal-priority submitters are served round-robin: a submitter that
     floods its own queue with a 1000-candidate search only delays its
     own tasks, a quick analyze on another queue is picked up on the
     next slot. *)
  let strictly_better t bt =
    t.t_prio > bt.t_prio || (t.t_prio = bt.t_prio && t.t_deadline < bt.t_deadline)

  let try_take p w rr =
    let subs = p.subs in
    let n = Array.length subs in
    if n = 0 then None
    else begin
      let home i = subs.(i).s_id mod p.n_workers = w in
      let homes = ref [] and foreign = ref [] in
      for k = n - 1 downto 0 do
        let i = (!rr + k) mod n in
        if home i then homes := i :: !homes else foreign := i :: !foreign
      done;
      let best =
        List.fold_left
          (fun acc i ->
            match peek subs.(i) with
            | None -> acc
            | Some t -> (
                match acc with
                | Some (_, bt) when not (strictly_better t bt) -> acc
                | _ -> Some (i, t)))
          None
          (!homes @ !foreign)
      in
      match best with
      | None -> None
      | Some (i, _) -> (
          (* The queue may have been drained between peek and pop; the
             worker loop just rescans. *)
          match pop_best subs.(i) with
          | None -> None
          | Some task ->
              rr := (i + 1) mod n;
              if not (home i) then Metrics.incr steals_c;
              Some task)
    end

  let rec worker_loop p w rr mine =
    match try_take p w rr with
    | Some task ->
        Mutex.lock p.m;
        p.queued <- p.queued - 1;
        p.active <- p.active + 1;
        Metrics.set_gauge depth_g (float_of_int p.queued);
        Mutex.unlock p.m;
        if Metrics.enabled () then
          Metrics.observe (shared_wait ()) (Unix.gettimeofday () -. task.t_enq);
        task.t_run ();
        Metrics.incr completed_c;
        Metrics.incr mine;
        Mutex.lock p.m;
        p.active <- p.active - 1;
        if p.queued = 0 && p.active = 0 then Condition.broadcast p.idle_cv;
        Mutex.unlock p.m;
        worker_loop p w rr mine
    | None ->
        Mutex.lock p.m;
        if p.stop && p.queued = 0 then Mutex.unlock p.m (* exit *)
        else if p.queued = 0 then begin
          Condition.wait p.work_cv p.m;
          Mutex.unlock p.m;
          worker_loop p w rr mine
        end
        else begin
          (* queued > 0 but the scan lost a race with another worker's
             pop; back off briefly and rescan. *)
          Mutex.unlock p.m;
          Domain.cpu_relax ();
          worker_loop p w rr mine
        end

  let worker p w () =
    let mine = Metrics.counter (Printf.sprintf "pool.shared.worker.%d.tasks" w) in
    worker_loop p w (ref 0) mine

  let create ?workers () =
    let n =
      match workers with
      | Some n -> max 1 n
      | None -> max 2 (Domain.recommended_domain_count () - 1)
    in
    let p =
      {
        m = Mutex.create ();
        work_cv = Condition.create ();
        idle_cv = Condition.create ();
        subs = [||];
        stop = false;
        queued = 0;
        active = 0;
        seq = 0;
        next_sub_id = 0;
        domains = [||];
        n_workers = n;
      }
    in
    p.domains <- Array.init n (fun w -> Domain.spawn (worker p w));
    p

  let workers p = p.n_workers

  let add_submitter p =
    Mutex.lock p.m;
    let s = { s_id = p.next_sub_id; s_lock = Mutex.create (); s_tasks = [] } in
    p.next_sub_id <- p.next_sub_id + 1;
    p.subs <- Array.append p.subs [| s |];
    Mutex.unlock p.m;
    s

  let remove_submitter p s =
    Mutex.lock p.m;
    p.subs <- Array.of_list (List.filter (fun x -> x != s) (Array.to_list p.subs));
    Mutex.unlock p.m;
    Mutex.lock s.s_lock;
    let dropped = s.s_tasks in
    s.s_tasks <- [];
    Mutex.unlock s.s_lock;
    List.iter (fun t -> t.t_cancel ()) dropped;
    match List.length dropped with
    | 0 -> ()
    | k ->
        Mutex.lock p.m;
        p.queued <- p.queued - k;
        Metrics.set_gauge depth_g (float_of_int p.queued);
        if p.queued = 0 && p.active = 0 then Condition.broadcast p.idle_cv;
        Mutex.unlock p.m

  exception Cancelled

  let submit p s ?(priority = 0) ?(deadline = infinity) fn =
    let fut = { f_m = Mutex.create (); f_cv = Condition.create (); f_st = Pending } in
    let resolve r =
      Mutex.lock fut.f_m;
      (match fut.f_st with
      | Pending -> fut.f_st <- Done r
      | Done _ -> ());
      Condition.broadcast fut.f_cv;
      Mutex.unlock fut.f_m
    in
    Mutex.lock p.m;
    if p.stop then begin
      Mutex.unlock p.m;
      failwith "Pool.Shared.submit: pool is shut down"
    end;
    let seq = p.seq in
    p.seq <- seq + 1;
    Mutex.unlock p.m;
    let task =
      {
        t_run = (fun () -> resolve (try Ok (fn ()) with e -> Error e));
        t_cancel = (fun () -> resolve (Error Cancelled));
        t_prio = priority;
        t_deadline = deadline;
        t_seq = seq;
        t_enq = Unix.gettimeofday ();
      }
    in
    Mutex.lock s.s_lock;
    s.s_tasks <- task :: s.s_tasks;
    Mutex.unlock s.s_lock;
    Mutex.lock p.m;
    p.queued <- p.queued + 1;
    Metrics.set_gauge depth_g (float_of_int p.queued);
    Condition.signal p.work_cv;
    Mutex.unlock p.m;
    Metrics.incr submitted_c;
    fut

  let await fut =
    Mutex.lock fut.f_m;
    let rec get () =
      match fut.f_st with
      | Done r -> r
      | Pending ->
          Condition.wait fut.f_cv fut.f_m;
          get ()
    in
    let r = get () in
    Mutex.unlock fut.f_m;
    r

  let queue_depth p =
    Mutex.lock p.m;
    let d = p.queued in
    Mutex.unlock p.m;
    d

  let in_flight p =
    Mutex.lock p.m;
    let d = p.queued + p.active in
    Mutex.unlock p.m;
    d

  let drain p =
    Mutex.lock p.m;
    while p.queued > 0 || p.active > 0 do
      Condition.wait p.idle_cv p.m
    done;
    Mutex.unlock p.m

  let shutdown p =
    Mutex.lock p.m;
    p.stop <- true;
    Condition.broadcast p.work_cv;
    Mutex.unlock p.m;
    Array.iter Domain.join p.domains;
    p.domains <- [||]
end
