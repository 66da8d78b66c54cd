open Dpu_kernel
module Series = Dpu_engine.Series

(* A row's key packs origin, seq and node into one int: origin in bits
   47-61, seq in bits 15-46, node in bits 0-14
   ([Msg.origin_limit = 2^node_bits]). Keys are never negative, so
   comparing [key lsr node_bits] orders rows as [Msg.id_compare] orders
   their ids. *)
let node_bits = 15

let seq_bits = 32

(* The id part of a key, or -1, which no row has, for an id outside the
   packable range. *)
let key_of_id { Msg.origin; seq } =
  if origin >= 0 && origin < Msg.origin_limit && seq >= 0 && seq < Msg.seq_limit then
    (origin lsl seq_bits) lor seq
  else -1

let pack ~id ~node =
  let k = key_of_id id in
  if k < 0 || node < 0 || node >= Msg.origin_limit then
    invalid_arg
      (Printf.sprintf "Collector: row (%s, node %d) out of range" (Msg.id_to_string id) node);
  (k lsl node_bits) lor node

let id_of_key k = { Msg.origin = k lsr seq_bits; seq = k land (Msg.seq_limit - 1) }

(* An append-only log of rows, each two words: the packed key in an int
   column and the time in a [Float.Array] column. No row points at the
   caller's id record. Columns grow in fixed-size chunks, so an append
   never copies a column. Nothing is indexed while the run appends; a
   reader sorts row numbers on first use and keeps the permutation, and
   the ids rebuilt from it, until the next append. *)
module Log = struct
  let chunk_bits = 10

  let chunk_rows = 1 lsl chunk_bits

  type t = {
    mutable keys : int array array;
    mutable times : Float.Array.t array;
    mutable length : int;
    mutable by_id : int array option; (* rows, stably sorted by id *)
    mutable ids : Msg.id array option; (* per row; one record per distinct id *)
    mutable by_node : int array option; (* rows, stably sorted by node *)
  }

  let create () = { keys = [||]; times = [||]; length = 0; by_id = None; ids = None; by_node = None }

  (* [spine] with [fresh] as chunk [c]. Only the spine of chunk pointers
     is ever copied; the slots past [c] hold [fresh] as a placeholder
     until their turn. *)
  let with_chunk spine c fresh =
    let spine =
      if c < Array.length spine then spine
      else begin
        let grown = Array.make (max 4 (2 * c)) fresh in
        Array.blit spine 0 grown 0 c;
        grown
      end
    in
    spine.(c) <- fresh;
    spine

  let push t ~key ~time =
    let c = t.length lsr chunk_bits and o = t.length land (chunk_rows - 1) in
    if o = 0 then begin
      t.keys <- with_chunk t.keys c (Array.make chunk_rows 0);
      t.times <- with_chunk t.times c (Float.Array.create chunk_rows)
    end;
    t.keys.(c).(o) <- key (* mutation anchor: packed push *);
    Float.Array.set t.times.(c) o time;
    t.length <- t.length + 1;
    t.by_id <- None;
    t.ids <- None;
    t.by_node <- None

  let key t r = t.keys.(r lsr chunk_bits).(r land (chunk_rows - 1))

  let id_key t r = key t r lsr node_bits

  let node t r = key t r land (Msg.origin_limit - 1)

  let time t r = Float.Array.get t.times.(r lsr chunk_bits) (r land (chunk_rows - 1))

  let append t src =
    for r = 0 to src.length - 1 do
      push t ~key:(key src r) ~time:(time src r)
    done

  let sorted t cmp =
    let perm = Array.init t.length Fun.id in
    Array.stable_sort cmp perm;
    perm

  let by_id t =
    match t.by_id with
    | Some perm -> perm
    | None ->
      let perm = sorted t (fun a b -> Int.compare (id_key t a) (id_key t b)) in
      t.by_id <- Some perm;
      perm

  let by_node t =
    match t.by_node with
    | Some perm -> perm
    | None ->
      let perm = sorted t (fun a b -> Int.compare (node t a) (node t b)) in
      t.by_node <- Some perm;
      perm

  (* Row [r]'s id. The rows of one message are adjacent in [by_id], so
     one walk of it gives them one shared record: checkers that keep
     the ids they read hold one record per message, not per row. *)
  let id t r =
    let ids =
      match t.ids with
      | Some ids -> ids
      | None ->
        let perm = by_id t in
        let unset = { Msg.origin = -1; seq = -1 } in
        let ids = Array.make t.length unset in
        let last = ref (-1) and shared = ref unset in
        Array.iter
          (fun r ->
            let k = id_key t r in
            if k <> !last then begin
              last := k;
              shared := id_of_key k
            end;
            ids.(r) <- !shared)
          perm;
        t.ids <- Some ids;
        ids
    in
    ids.(r)

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

  let id_range t k = range (by_id t) (fun r -> Int.compare (id_key t r) k)

  let node_range t n = range (by_node t) (fun r -> Int.compare (node t r) n)

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

let record_send t ~node ~id ~time = Log.push t.sends ~key:(pack ~id ~node) ~time

let record_deliver t ~node ~id ~time = Log.push t.deliveries ~key:(pack ~id ~node) ~time

let record_switch t ~node ~generation ~time =
  t.rev_switches <- (node, generation, time) :: t.rev_switches

let merge ts =
  let all = Log.create () in
  List.iter (fun t -> Log.append all t.sends) ts;
  let merged = create () in
  (* Stable, so equal times keep input order, then recording order. *)
  Array.iter
    (fun r -> Log.push merged.sends ~key:(Log.key all r) ~time:(Log.time all r))
    (Log.sorted all (fun a b -> Float.compare (Log.time all a) (Log.time all b)));
  List.iter (fun t -> Log.append merged.deliveries t.deliveries) ts;
  merged.rev_switches <- List.concat_map (fun t -> t.rev_switches) (List.rev ts);
  merged

let sends t =
  let s = t.sends in
  let acc = ref [] in
  for r = s.length - 1 downto 0 do
    acc := (Log.id s r, Log.node s r, Log.time s r) :: !acc
  done;
  !acc

let send_count t = t.sends.length

let send_time_of_key t k =
  let lo, hi = Log.id_range t.sends k in
  if lo < hi then Some (Log.time t.sends (Log.by_id t.sends).(lo)) else None

let send_time t id = send_time_of_key t (key_of_id id)

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
  Log.map_slice (Log.by_id d) (Log.id_range d (key_of_id id)) (fun r -> (Log.node d r, Log.time d r))

(* Sums the per-stack latencies in recording order, as the mean of
   [t_i(m)] has always been computed, so every float is reproducible. *)
let latency_of_key t k =
  match send_time_of_key t k with
  | None -> None
  | Some t0 ->
    let d = t.deliveries in
    let perm = Log.by_id d in
    let lo, hi = Log.id_range d k in
    if lo = hi then None
    else begin
      let sum = ref 0.0 in
      for i = lo to hi - 1 do
        sum := !sum +. (Log.time d perm.(i) -. t0)
      done;
      Some (!sum /. float_of_int (hi - lo))
    end

let latency_of t id = latency_of_key t (key_of_id id)

let latency_series t =
  let s = Series.create () in
  for r = 0 to t.sends.length - 1 do
    match latency_of_key t (Log.id_key t.sends r) with
    | Some l -> Series.add s ~time:(Log.time t.sends r) ~value:l
    | None -> ()
  done;
  s

let undelivered_ids t ~expected_copies =
  let acc = ref [] in
  for r = t.sends.length - 1 downto 0 do
    let lo, hi = Log.id_range t.deliveries (Log.id_key t.sends r) in
    if hi - lo < expected_copies then acc := Log.id t.sends r :: !acc
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
