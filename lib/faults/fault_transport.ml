module Transport = Dpu_runtime.Transport
module Clock = Dpu_runtime.Clock
module Rng = Dpu_engine.Rng
module Latency = Dpu_net.Latency

(* ------------------------------------------------------------------ *)
(* Compiled schedules: fault state as a pure function of time          *)
(* ------------------------------------------------------------------ *)

module State = struct
  type t = {
    (* (time, node, down?) crash/recover transitions, time-sorted *)
    transitions : (float * int * bool) array;
    (* (time, groups) partition/heal history, time-sorted; [None] = healed *)
    partitions : (float * int list list option) array;
    loss_windows : (float * float * float) array;  (* from, until, p *)
    dup_windows : (float * float * float) array;
    degrades : (float * float * int * int * Latency.link) array;
  }

  let compile schedule =
    let sorted = Schedule.sorted schedule in
    let transitions = ref [] and partitions = ref [] in
    let loss = ref [] and dup = ref [] and degrades = ref [] in
    List.iter
      (fun (e : Schedule.event) ->
        match e.Schedule.action with
        | Schedule.Crash node -> transitions := (e.at, node, true) :: !transitions
        | Schedule.Recover node -> transitions := (e.at, node, false) :: !transitions
        | Schedule.Partition groups -> partitions := (e.at, Some groups) :: !partitions
        | Schedule.Heal -> partitions := (e.at, None) :: !partitions
        | Schedule.Loss_window { p; from_; until } -> loss := (from_, until, p) :: !loss
        | Schedule.Dup_burst { p; from_; until } -> dup := (from_, until, p) :: !dup
        | Schedule.Degrade_link { src; dst; link; window } ->
          degrades := (window.from_, window.until, src, dst, link) :: !degrades)
      sorted;
    {
      transitions = Array.of_list (List.rev !transitions);
      partitions = Array.of_list (List.rev !partitions);
      loss_windows = Array.of_list (List.rev !loss);
      dup_windows = Array.of_list (List.rev !dup);
      degrades = Array.of_list (List.rev !degrades);
    }

  (* Windows are half-open [from_, until): the instant a window closes
     behaves exactly as if it never opened. *)
  let in_window ~now ~from_ ~until = from_ <= now && now < until

  let crashed t ~now node =
    let down = ref false in
    Array.iter
      (fun (at, who, d) -> if at <= now && who = node then down := d)
      t.transitions;
    !down

  let separated t ~now ~src ~dst =
    if src = dst then false
    else begin
      let current = ref None in
      Array.iter
        (fun (at, groups) -> if at <= now then current := Some groups)
        t.partitions;
      match !current with
      | None | Some None -> false
      | Some (Some groups) ->
        (* Nodes missing from every group share one implicit leftover
           group, mirroring [Datagram.partition]. *)
        let group_of node =
          let rec find gid = function
            | [] -> -1
            | members :: rest ->
              if List.mem node members then gid else find (gid + 1) rest
          in
          find 0 groups
        in
        group_of src <> group_of dst
    end

  (* Overlapping windows compose as independent trials. *)
  let combined windows ~now =
    let pass =
      Array.fold_left
        (fun acc (from_, until, p) ->
          if in_window ~now ~from_ ~until then acc *. (1.0 -. p) else acc)
        1.0 windows
    in
    1.0 -. pass

  let loss t ~now = combined t.loss_windows ~now

  let dup t ~now = combined t.dup_windows ~now

  let link t ~now ~src ~dst =
    Array.fold_left
      (fun acc (from_, until, s, d, l) ->
        if s = src && d = dst && in_window ~now ~from_ ~until then Some l else acc)
      None t.degrades
end

(* ------------------------------------------------------------------ *)
(* The shim                                                            *)
(* ------------------------------------------------------------------ *)

type stats = {
  blocked_crash : int;
  blocked_partition : int;
  injected_loss : int;
  injected_dup : int;
  delayed : int;
  rx_blocked : int;
}

let no_stats =
  {
    blocked_crash = 0;
    blocked_partition = 0;
    injected_loss = 0;
    injected_dup = 0;
    delayed = 0;
    rx_blocked = 0;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "crash-blocked %d, partition-blocked %d, lost %d, duplicated %d, delayed %d, \
     rx-blocked %d"
    s.blocked_crash s.blocked_partition s.injected_loss s.injected_dup s.delayed
    s.rx_blocked

type 'a t = {
  inner : 'a Transport.t;
  clock : Clock.t;
  state : State.t;
  rng : Rng.t;
  mutable blocked_crash : int;
  mutable blocked_partition : int;
  mutable injected_loss : int;
  mutable injected_dup : int;
  mutable delayed : int;
  mutable rx_blocked : int;
  mutable absorbed_bytes : int;
}

let create ?(seed = 0x5eed) ~schedule ~clock inner =
  {
    inner;
    clock;
    state = State.compile schedule;
    rng = Rng.create ~seed;
    blocked_crash = 0;
    blocked_partition = 0;
    injected_loss = 0;
    injected_dup = 0;
    delayed = 0;
    rx_blocked = 0;
    absorbed_bytes = 0;
  }

let stats t =
  {
    blocked_crash = t.blocked_crash;
    blocked_partition = t.blocked_partition;
    injected_loss = t.injected_loss;
    injected_dup = t.injected_dup;
    delayed = t.delayed;
    rx_blocked = t.rx_blocked;
  }

let absorbed t = t.blocked_crash + t.blocked_partition + t.injected_loss

let send t ~src ~dst ~size_bytes payload =
  let now = Clock.now t.clock in
  if State.crashed t.state ~now src || State.crashed t.state ~now dst then begin
    t.blocked_crash <- t.blocked_crash + 1;
    t.absorbed_bytes <- t.absorbed_bytes + size_bytes
  end
  else if State.separated t.state ~now ~src ~dst then begin
    t.blocked_partition <- t.blocked_partition + 1;
    t.absorbed_bytes <- t.absorbed_bytes + size_bytes
  end
  else begin
    let p_loss = State.loss t.state ~now in
    if p_loss > 0.0 && Rng.bool t.rng ~p:p_loss then begin
      t.injected_loss <- t.injected_loss + 1;
      t.absorbed_bytes <- t.absorbed_bytes + size_bytes
    end
    else begin
      let duplicate =
        let p = State.dup t.state ~now in
        p > 0.0 && Rng.bool t.rng ~p
      in
      let forward () =
        match State.link t.state ~now ~src ~dst with
        | None -> Transport.send t.inner ~src ~dst ~size_bytes payload
        | Some link ->
          (* On top of whatever latency the wrapped transport already
             has: a degraded link is extra queueing, not a replacement
             of the base path. *)
          t.delayed <- t.delayed + 1;
          let delay = Latency.delay link t.rng ~size_bytes in
          Clock.defer t.clock ~delay (fun () ->
              Transport.send t.inner ~src ~dst ~size_bytes payload)
      in
      forward ();
      if duplicate then begin
        t.injected_dup <- t.injected_dup + 1;
        forward ()
      end
    end
  end

let wrap_handler t ~node f ~src payload =
  let now = Clock.now t.clock in
  if
    State.crashed t.state ~now src
    || State.crashed t.state ~now node
    || State.separated t.state ~now ~src ~dst:node
  then t.rx_blocked <- t.rx_blocked + 1
  else f ~src payload

let counters t =
  let c = Transport.counters t.inner in
  let absorbed = absorbed t in
  {
    Transport.sent = c.Transport.sent + absorbed;
    delivered = c.Transport.delivered - t.rx_blocked;
    dropped = c.Transport.dropped + absorbed + t.rx_blocked;
    bytes = c.Transport.bytes + t.absorbed_bytes;
  }

let transport t =
  {
    Transport.n = Transport.n t.inner;
    send = (fun ~src ~dst ~size_bytes payload -> send t ~src ~dst ~size_bytes payload);
    set_handler =
      (fun ~node f -> Transport.set_handler t.inner ~node (wrap_handler t ~node f));
    counters = (fun () -> counters t);
    (* Faults absorb whole messages before they reach the inner
       transport's egress queues, so batch statistics pass through
       untouched. *)
    batches = (fun () -> Transport.batches t.inner);
  }
