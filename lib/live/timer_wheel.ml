module Clock = Dpu_runtime.Clock
module Heap = Dpu_engine.Heap

type entry = {
  e_deadline : float;
  e_timer : Clock.timer option;
  e_fn : unit -> unit;
  mutable e_counted : bool;
      (* still counted in [pending]; cleared exactly once, when the
         entry fires or its timer is cancelled *)
}

type t = {
  heap : entry Heap.t;  (* positive-delay entries, by (deadline, insertion) *)
  ready : entry Queue.t;  (* zero-delay entries, fired FIFO next advance *)
  mutable pending : int;
  (* Event-loop profile: lifetime totals, sampled by observability
     callbacks at snapshot time. *)
  mutable fired : int;
  mutable cascades : int;
}

let create ?granularity_ms:_ ?slots:_ () =
  { heap = Heap.create (); ready = Queue.create (); pending = 0; fired = 0; cascades = 0 }

let pending t = t.pending

let fired t = t.fired

let cascades t = t.cascades

let entry t ~deadline ?timer fn =
  t.pending <- t.pending + 1;
  { e_deadline = deadline; e_timer = timer; e_fn = fn; e_counted = true }

(* File on the heap at an absolute deadline, even one already past: it
   then fires on the next [advance], never within the current pass. *)
let push t ~deadline ?timer fn =
  let e = entry t ~deadline ?timer fn in
  Heap.add t.heap ~priority:deadline e;
  e

let insert t ~now ~delay ?timer fn =
  if delay > 0.0 then push t ~deadline:(now +. delay) ?timer fn
  else begin
    let e = entry t ~deadline:now ?timer fn in
    Queue.push e t.ready;
    e
  end

let add t ~now ~delay fn = ignore (insert t ~now ~delay fn : entry)

let live e =
  match e.e_timer with Some tm -> not (Clock.is_cancelled tm) | None -> true

(* Take the entry out of the pending count, exactly once. *)
let discount t e =
  if e.e_counted then begin
    e.e_counted <- false;
    t.pending <- t.pending - 1
  end

(* Placeholder for a timer with no entry filed yet: never counted, so
   discounting it is a no-op. *)
let unfiled = { e_deadline = 0.0; e_timer = None; e_fn = ignore; e_counted = false }

(* A timer whose cancellation discounts its filed entry on the spot,
   wherever that entry sits in the heap — so [pending] stays exact with
   no scan. The caller keeps [current] pointing at the entry it filed
   last; once that entry fired, discounting it again is a no-op. *)
let counted_timer t =
  let current = ref unfiled in
  let tm = Clock.make_timer ~cancel:(fun () -> discount t !current) in
  (tm, current)

let schedule t ~now ~delay fn =
  let tm, current = counted_timer t in
  current := insert t ~now ~delay ~timer:tm fn;
  tm

let every t ~now ~period fn =
  let tm, current = counted_timer t in
  let rec arm deadline =
    current :=
      push t ~deadline ~timer:tm (fun () ->
          fn ();
          if not (Clock.is_cancelled tm) then arm (deadline +. period))
  in
  arm (now +. period);
  tm

let rec next_deadline t =
  match Heap.peek t.heap with
  | Some (_, e) when not (live e) ->
    ignore (Heap.pop_exn t.heap : entry);
    next_deadline t
  | top -> (
    let top = Option.map fst top in
    match Queue.peek_opt t.ready with
    | None -> top
    | Some e -> Some (Option.fold ~none:e.e_deadline ~some:(Float.min e.e_deadline) top))

let fire t e =
  if live e then begin
    discount t e;
    t.fired <- t.fired + 1;
    e.e_fn ()
  end

let advance t ~now =
  (* Pop everything due before firing anything: entries the callbacks
     file, even at a deadline already past, wait for the next pass. *)
  let rec due acc =
    match Heap.min_priority_exn t.heap with
    | d when d <= now -> due (Heap.pop_exn t.heap :: acc)
    | _ -> acc
    | exception Heap.Empty -> acc
  in
  List.iter (fire t) (List.rev (due []));
  (* Zero-delay entries run to quiescence within the pass: deferred
     work enqueued by a firing entry (one stack hop scheduling the
     next) happens now, exactly like same-instant events in the
     simulator. *)
  while not (Queue.is_empty t.ready) do
    let e = Queue.pop t.ready in
    if live e then t.cascades <- t.cascades + 1;
    fire t e
  done
