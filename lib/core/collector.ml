open Dpu_kernel
module Series = Dpu_engine.Series

(* An append-only log of (id, node, time) rows, one column each. The id
   column points at the caller's [Msg.id] record, so a message's id is
   shared with the message, never copied. Columns grow in fixed-size
   chunks, so an append never copies a column. Nothing is indexed while
   the run appends; a reader sorts row numbers on first use and keeps
   the permutation until the next append. *)
module Log = struct
  let chunk_bits = 10

  let chunk_rows = 1 lsl chunk_bits

  type chunk = { ids : Msg.id array; nodes : int array; times : Float.Array.t }

  type t = {
    mutable chunks : chunk array;
    mutable length : int;
    mutable by_id : int array option; (* rows, stably sorted by id *)
    mutable by_node : int array option; (* rows, stably sorted by node *)
  }

  let create () = { chunks = [||]; length = 0; by_id = None; by_node = None }

  let push t ~id ~node ~time =
    let c = t.length lsr chunk_bits and o = t.length land (chunk_rows - 1) in
    if o = 0 then begin
      let fresh =
        { ids = Array.make chunk_rows id; nodes = Array.make chunk_rows 0; times = Float.Array.create chunk_rows }
      in
      (* Only the spine of chunk pointers is ever copied; the slots past
         [c] hold [fresh] as a placeholder until their turn. *)
      if c = Array.length t.chunks then begin
        let spine = Array.make (max 4 (2 * c)) fresh in
        Array.blit t.chunks 0 spine 0 c;
        t.chunks <- spine
      end;
      t.chunks.(c) <- fresh
    end;
    let ch = t.chunks.(c) in
    ch.ids.(o) <- id (* mutation anchor: shared id *);
    ch.nodes.(o) <- node;
    Float.Array.set ch.times o time;
    t.length <- t.length + 1;
    t.by_id <- None;
    t.by_node <- None

  let id t r = t.chunks.(r lsr chunk_bits).ids.(r land (chunk_rows - 1))

  let node t r = t.chunks.(r lsr chunk_bits).nodes.(r land (chunk_rows - 1))

  let time t r = Float.Array.get t.chunks.(r lsr chunk_bits).times (r land (chunk_rows - 1))

  let sorted t cmp =
    let perm = Array.init t.length Fun.id in
    Array.stable_sort cmp perm;
    perm

  let by_id t =
    match t.by_id with
    | Some perm -> perm
    | None ->
      let perm = sorted t (fun a b -> Msg.id_compare (id t a) (id t b)) in
      t.by_id <- Some perm;
      perm

  let by_node t =
    match t.by_node with
    | Some perm -> perm
    | None ->
      let perm = sorted t (fun a b -> Int.compare (node t a) (node t b)) in
      t.by_node <- Some perm;
      perm

  (* The slice [lo, hi) of [perm] whose rows have key [cmp r = 0], where
     [cmp r] orders row [r]'s key against the one sought. Rows within
     the slice are in recording order, since [perm] is stable. *)
  let range perm cmp =
    let lo = ref 0 and hi = ref (Array.length perm) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cmp perm.(mid) < 0 then lo := mid + 1 else hi := mid
    done;
    let stop = ref !lo in
    while !stop < Array.length perm && cmp perm.(!stop) = 0 do
      incr stop
    done;
    (!lo, !stop)

  let id_range t key = range (by_id t) (fun r -> Msg.id_compare (id t r) key)

  let node_range t key = range (by_node t) (fun r -> Int.compare (node t r) key)

  (* [f r] for the rows [perm.(lo) .. perm.(hi - 1)], as a list in that
     order. *)
  let map_slice perm (lo, hi) f =
    let acc = ref [] in
    for i = hi - 1 downto lo do
      acc := f perm.(i) :: !acc
    done;
    !acc
end

type t = { sends : Log.t; deliveries : Log.t; mutable rev_switches : (int * int * float) list }

let create () = { sends = Log.create (); deliveries = Log.create (); rev_switches = [] }

let record_send t ~node ~id ~time = Log.push t.sends ~id ~node ~time

let record_deliver t ~node ~id ~time = Log.push t.deliveries ~id ~node ~time

let record_switch t ~node ~generation ~time =
  t.rev_switches <- (node, generation, time) :: t.rev_switches

let sends t =
  let s = t.sends in
  let acc = ref [] in
  for r = s.length - 1 downto 0 do
    acc := (Log.id s r, Log.node s r, Log.time s r) :: !acc
  done;
  !acc

let send_count t = t.sends.length

let send_time t id =
  let lo, hi = Log.id_range t.sends id in
  if lo < hi then Some (Log.time t.sends (Log.by_id t.sends).(lo)) else None

let delivers_of t ~node =
  let d = t.deliveries in
  Log.map_slice (Log.by_node d) (Log.node_range d node) (fun r -> (Log.id d r, Log.time d r))

let delivered_nodes t =
  let d = t.deliveries in
  let perm = Log.by_node d in
  let acc = ref [] in
  for i = Array.length perm - 1 downto 0 do
    let node = Log.node d perm.(i) in
    match !acc with n :: _ when n = node -> () | _ -> acc := node :: !acc
  done;
  !acc

let deliver_times t id =
  let d = t.deliveries in
  Log.map_slice (Log.by_id d) (Log.id_range d id) (fun r -> (Log.node d r, Log.time d r))

(* Sums the per-stack latencies in recording order, as the mean of
   [t_i(m)] has always been computed, so every float is reproducible. *)
let latency_of t id =
  match send_time t id with
  | None -> None
  | Some t0 ->
    let d = t.deliveries in
    let perm = Log.by_id d in
    let lo, hi = Log.id_range d id in
    if lo = hi then None
    else begin
      let sum = ref 0.0 in
      for i = lo to hi - 1 do
        sum := !sum +. (Log.time d perm.(i) -. t0)
      done;
      Some (!sum /. float_of_int (hi - lo))
    end

let latency_series t =
  let s = Series.create () in
  for r = 0 to t.sends.length - 1 do
    match latency_of t (Log.id t.sends r) with
    | Some l -> Series.add s ~time:(Log.time t.sends r) ~value:l
    | None -> ()
  done;
  s

let undelivered_ids t ~expected_copies =
  let acc = ref [] in
  for r = t.sends.length - 1 downto 0 do
    let id = Log.id t.sends r in
    let lo, hi = Log.id_range t.deliveries id in
    if hi - lo < expected_copies then acc := id :: !acc
  done;
  !acc

let switches t = List.rev t.rev_switches

let switch_window t ~generation =
  let times =
    List.filter_map
      (fun (_, g, time) -> if g = generation then Some time else None)
      (switches t)
  in
  match times with
  | [] -> None
  | first :: rest ->
    let lo = List.fold_left min first rest in
    let hi = List.fold_left max first rest in
    Some (lo, hi)
