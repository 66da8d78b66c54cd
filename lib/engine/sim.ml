(* Event arena: every scheduled event lives in a preallocated slot of a
   struct-of-arrays pool, and the priority queue is a specialised binary
   heap over parallel (time, seq, slot) arrays. Steady state allocates
   nothing per event — slots and heap cells are recycled — which is what
   keeps 127-node sweeps laptop-fast.

   A handle is an int packing [slot | stamp << 32]. The stamp is bumped
   every time a slot is freed, so a stale handle (cancelling an event
   that already fired, possibly after its slot was reused) validates
   against the current stamp and becomes a no-op, exactly like the old
   record-per-event representation.

   Ordering contract (unchanged): events pop by (time, seq) with seq
   strictly increasing per schedule, a total order — same-instant events
   fire in scheduling order, so any correct heap yields the identical
   sequence the old [Heap]-of-records implementation did.

   Groups: a fabric of many protocol groups shares one simulator. Each
   group owns a FIFO ready queue for its zero-delay events; ready queues
   drain (lowest group first, FIFO within a group) before the heap pops,
   so one group's immediate work never interleaves through the global
   heap. Only group-tagged schedulers use them — the legacy paths are
   byte-identical. *)

type handle = int

type group = int

let slot_of_handle h = h land 0xFFFF_FFFF

let stamp_of_handle h = h lsr 32

let pack ~slot ~stamp = (stamp lsl 32) lor slot

let stamp_mask = 0x3FFF_FFFF

let nop () = ()

(* Slot states. *)
let st_free = 0

let st_queued = 1 (* in the heap or a ready queue *)

let st_cancelled = 2 (* still queued; reaped without executing *)

let st_detached = 3 (* live but not queued: [every]'s outer handle *)

type ready = {
  mutable rbuf : int array; (* circular buffer of slots *)
  mutable rhead : int;
  mutable rlen : int;
}

type t = {
  (* arena *)
  mutable fns : (unit -> unit) array;
  mutable stamps : int array;
  mutable states : int array;
  mutable free : int array; (* stack of free slots *)
  mutable free_len : int;
  (* event heap: parallel arrays ordered by (time, seq) *)
  mutable h_time : float array;
  mutable h_seq : int array;
  mutable h_slot : int array;
  mutable h_len : int;
  mutable next_seq : int;
  (* per-group ready queues *)
  mutable rings : ready array;
  mutable nrings : int;
  mutable ready_total : int;
  mutable clock : float;
  mutable stopping : bool;
  root_rng : Rng.t;
  mutable scheduled : int;
  mutable executed : int;
}

exception Stopped

let initial_capacity = 256

let create ?(seed = 1) () =
  let cap = initial_capacity in
  {
    fns = Array.make cap nop;
    stamps = Array.make cap 0;
    states = Array.make cap st_free;
    (* slots pop in ascending order: free.(i) = cap-1-i *)
    free = Array.init cap (fun i -> cap - 1 - i);
    free_len = cap;
    h_time = Array.make cap 0.0;
    h_seq = Array.make cap 0;
    h_slot = Array.make cap 0;
    h_len = 0;
    next_seq = 0;
    rings = [||];
    nrings = 0;
    ready_total = 0;
    clock = 0.0;
    stopping = false;
    root_rng = Rng.create ~seed;
    scheduled = 0;
    executed = 0;
  }

let now t = t.clock

let rng t = t.root_rng

(* ------------------------------------------------------------------ *)
(* Arena                                                              *)
(* ------------------------------------------------------------------ *)

let grow_arena t =
  let cap = Array.length t.fns in
  let cap' = cap * 2 in
  let fns = Array.make cap' nop in
  Array.blit t.fns 0 fns 0 cap;
  t.fns <- fns;
  let stamps = Array.make cap' 0 in
  Array.blit t.stamps 0 stamps 0 cap;
  t.stamps <- stamps;
  let states = Array.make cap' st_free in
  Array.blit t.states 0 states 0 cap;
  t.states <- states;
  let free = Array.make cap' 0 in
  Array.blit t.free 0 free 0 t.free_len;
  (* new slots cap .. cap'-1, lower slots popping first *)
  for i = 0 to cap - 1 do
    free.(t.free_len + i) <- cap' - 1 - i
  done;
  t.free <- free;
  t.free_len <- t.free_len + cap

let alloc t ~state fn =
  if t.free_len = 0 then grow_arena t;
  t.free_len <- t.free_len - 1;
  let slot = t.free.(t.free_len) in
  t.fns.(slot) <- fn;
  t.states.(slot) <- state;
  pack ~slot ~stamp:t.stamps.(slot)

let free_slot t slot =
  t.fns.(slot) <- nop;
  t.stamps.(slot) <- (t.stamps.(slot) + 1) land stamp_mask;
  t.states.(slot) <- st_free;
  t.free.(t.free_len) <- slot;
  t.free_len <- t.free_len + 1

let live t h = t.stamps.(slot_of_handle h) = stamp_of_handle h

let cancel_in t h =
  if live t h then begin
    let slot = slot_of_handle h in
    let st = t.states.(slot) in
    if st = st_queued then t.states.(slot) <- st_cancelled
    else if st = st_detached then free_slot t slot
  end

let is_cancelled_in t h =
  (not (live t h)) || t.states.(slot_of_handle h) = st_cancelled

(* ------------------------------------------------------------------ *)
(* Heap (time, seq, slot) — min by time, FIFO tie-break by seq         *)
(* ------------------------------------------------------------------ *)

let heap_before t i j =
  t.h_time.(i) < t.h_time.(j)
  || (t.h_time.(i) = t.h_time.(j) && t.h_seq.(i) < t.h_seq.(j))

let heap_swap t i j =
  let tm = t.h_time.(i) in
  t.h_time.(i) <- t.h_time.(j);
  t.h_time.(j) <- tm;
  let sq = t.h_seq.(i) in
  t.h_seq.(i) <- t.h_seq.(j);
  t.h_seq.(j) <- sq;
  let sl = t.h_slot.(i) in
  t.h_slot.(i) <- t.h_slot.(j);
  t.h_slot.(j) <- sl

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if heap_before t i parent then begin
      heap_swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 in
  if l < t.h_len then begin
    let r = l + 1 in
    let smallest = if r < t.h_len && heap_before t r l then r else l in
    if heap_before t smallest i then begin
      heap_swap t i smallest;
      sift_down t smallest
    end
  end

let heap_push t ~time slot =
  let cap = Array.length t.h_time in
  if t.h_len = cap then begin
    let cap' = cap * 2 in
    let time_a = Array.make cap' 0.0 in
    Array.blit t.h_time 0 time_a 0 cap;
    t.h_time <- time_a;
    let seq_a = Array.make cap' 0 in
    Array.blit t.h_seq 0 seq_a 0 cap;
    t.h_seq <- seq_a;
    let slot_a = Array.make cap' 0 in
    Array.blit t.h_slot 0 slot_a 0 cap;
    t.h_slot <- slot_a
  end;
  let i = t.h_len in
  t.h_time.(i) <- time;
  t.h_seq.(i) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.h_slot.(i) <- slot;
  t.h_len <- t.h_len + 1;
  sift_up t i

(* Pop the root slot; caller has read [t.h_time.(0)] already. *)
let heap_pop t =
  let slot = t.h_slot.(0) in
  t.h_len <- t.h_len - 1;
  if t.h_len > 0 then begin
    t.h_time.(0) <- t.h_time.(t.h_len);
    t.h_seq.(0) <- t.h_seq.(t.h_len);
    t.h_slot.(0) <- t.h_slot.(t.h_len);
    sift_down t 0
  end;
  slot

(* ------------------------------------------------------------------ *)
(* Scheduling                                                         *)
(* ------------------------------------------------------------------ *)

let schedule_at t ~time fn =
  let time = if time < t.clock then t.clock else time in
  let h = alloc t ~state:st_queued fn in
  heap_push t ~time (slot_of_handle h);
  t.scheduled <- t.scheduled + 1;
  h

let schedule t ~delay fn =
  let delay = if delay < 0.0 then 0.0 else delay in
  schedule_at t ~time:(t.clock +. delay) fn

(* ------------------------------------------------------------------ *)
(* Groups                                                             *)
(* ------------------------------------------------------------------ *)

let new_group t =
  let g = t.nrings in
  let ring = { rbuf = Array.make 16 0; rhead = 0; rlen = 0 } in
  let rings = Array.make (g + 1) ring in
  Array.blit t.rings 0 rings 0 g;
  t.rings <- rings;
  t.nrings <- g + 1;
  g

let ready_push t g slot =
  let r = t.rings.(g) in
  let cap = Array.length r.rbuf in
  if r.rlen = cap then begin
    let buf = Array.make (cap * 2) 0 in
    for i = 0 to r.rlen - 1 do
      buf.(i) <- r.rbuf.((r.rhead + i) mod cap)
    done;
    r.rbuf <- buf;
    r.rhead <- 0
  end;
  r.rbuf.((r.rhead + r.rlen) mod Array.length r.rbuf) <- slot;
  r.rlen <- r.rlen + 1;
  t.ready_total <- t.ready_total + 1

let ready_pop t g =
  let r = t.rings.(g) in
  let slot = r.rbuf.(r.rhead) in
  r.rhead <- (r.rhead + 1) mod Array.length r.rbuf;
  r.rlen <- r.rlen - 1;
  t.ready_total <- t.ready_total - 1;
  slot

let schedule_group t ~group ~delay fn =
  if group < 0 || group >= t.nrings then
    invalid_arg "Sim.schedule_group: unknown group";
  if delay > 0.0 then schedule t ~delay fn
  else begin
    let h = alloc t ~state:st_queued fn in
    ready_push t group (slot_of_handle h);
    t.scheduled <- t.scheduled + 1;
    h
  end

let cancel t h = cancel_in t h

let is_cancelled t h = is_cancelled_in t h

let every t ~period ?(jitter = 0.0) fn =
  assert (period > 0.0);
  (* The outer handle lives as long as the ticker (detached: never
     queued); each tick checks it so that cancelling stops the chain. *)
  let outer = alloc t ~state:st_detached nop in
  let next_delay () =
    if jitter > 0.0 then period +. Rng.uniform t.root_rng ~lo:0.0 ~hi:jitter
    else period
  in
  let rec tick () =
    if not (is_cancelled_in t outer) then begin
      fn ();
      if not (is_cancelled_in t outer) then
        ignore (schedule t ~delay:(next_delay ()) tick : handle)
    end
  in
  ignore (schedule t ~delay:(next_delay ()) tick : handle);
  outer

let pending t = t.h_len + t.ready_total

(* Run the event in [slot], freeing it first so that a cancel of its own
   handle from inside the callback is a stale-stamp no-op (the old
   representation got this by setting [cancelled] before the call). *)
let exec_slot t slot =
  let st = t.states.(slot) in
  let fn = t.fns.(slot) in
  free_slot t slot;
  if st = st_queued then begin
    t.executed <- t.executed + 1;
    fn ()
  end

(* Pop and run one heap event known to exist, advancing the clock to
   [time] (its priority, read by the caller). Cancelled events are
   reaped without counting as executed. *)
let exec_next t ~time =
  let slot = heap_pop t in
  t.clock <- time;
  exec_slot t slot

(* Run one ready event (lowest group id first, FIFO within a group) at
   the current clock. Caller guarantees [t.ready_total > 0]. *)
let exec_ready t =
  let g = ref 0 in
  while t.rings.(!g).rlen = 0 do
    incr g
  done;
  exec_slot t (ready_pop t !g)

let step t =
  if t.ready_total > 0 then begin
    exec_ready t;
    true
  end
  else if t.h_len = 0 then false
  else begin
    exec_next t ~time:t.h_time.(0);
    true
  end

let stop t = t.stopping <- true

let run ?until ?(max_events = max_int) t =
  t.stopping <- false;
  (* Bound the count of events actually executed: popping a cancelled
     event must not burn budget, or a run bounded by [max_events] ends
     early. [t.executed] only advances on real executions, so track a
     target against it. *)
  let exec_limit =
    if max_events >= max_int - t.executed then max_int else t.executed + max_events
  in
  let continue = ref true in
  while !continue do
    if t.stopping || t.executed >= exec_limit then continue := false
    else if t.ready_total > 0 then begin
      (* Ready events fire at the current instant; they only outrank the
         horizon when the clock itself does. *)
      match until with
      | Some limit when t.clock > limit -> continue := false
      | Some _ | None -> exec_ready t
    end
    else if t.h_len = 0 then continue := false
    else begin
      let time = t.h_time.(0) in
      match until with
      | Some limit when time > limit ->
        t.clock <- limit;
        continue := false
      | Some _ | None -> exec_next t ~time
    end
  done;
  (* Even with an empty queue, honour the requested horizon so that
     [now] reflects the elapsed virtual time — but never jump past
     events still queued before the horizon (the loop may have exited
     via [max_events] or [stop] with work pending; fast-forwarding then
     would make the next [step] move the clock backwards). *)
  match until with
  | Some limit when t.clock < limit && not t.stopping && t.ready_total = 0 ->
    if t.h_len = 0 || t.h_time.(0) > limit then t.clock <- limit
  | Some _ | None -> ()

let run_for t d = run ~until:(t.clock +. d) t

let events_executed t = t.executed

let groups t = t.nrings

let ready_pending t ~group =
  if group < 0 || group >= t.nrings then 0 else t.rings.(group).rlen

let register_metrics t m =
  Dpu_obs.Metrics.register_int m "sim_events_scheduled_total" (fun () -> t.scheduled);
  Dpu_obs.Metrics.register_int m "sim_events_executed_total" (fun () -> t.executed);
  Dpu_obs.Metrics.register_float m "sim_pending_events" (fun () ->
      float_of_int (pending t));
  Dpu_obs.Metrics.register_float m "sim_virtual_now_ms" (fun () -> t.clock)
