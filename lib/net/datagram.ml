module Sim = Dpu_engine.Sim
module Rng = Dpu_engine.Rng

type counters = {
  sent : int;
  delivered : int;
  lost : int;
  filtered : int;
  duplicated : int;
  dup_bytes : int;
  blocked : int;
  blocked_crash : int;
  blocked_partition : int;
  blocked_no_handler : int;
  bytes : int;
}

type 'a t = {
  sim : Sim.t;
  n : int;
  rng : Rng.t;
  loss : float;
  dup : float;
  link : Latency.link;
  egress_free : float array;
      (* per-node NIC: time at which the interface is free again *)
  handlers : (src:int -> 'a -> unit) option array;
  crashed : bool array;
  mutable group_of : int array option; (* partition: group id per node *)
  mutable drop_filter : (src:int -> dst:int -> 'a -> bool) option;
  mutable sent : int;
  mutable delivered : int;
  mutable lost : int;
  mutable filtered : int;
  mutable duplicated : int;
  mutable dup_bytes : int;
  mutable blocked_crash : int;
  mutable blocked_partition : int;
  mutable blocked_no_handler : int;
  mutable bytes : int;
}

let create sim ~n ?rng ?(loss = 0.0) ?(dup = 0.0) ?(link = Latency.lan) () =
  assert (n > 0);
  {
    sim;
    n;
    rng = (match rng with Some r -> r | None -> Rng.split (Sim.rng sim));
    loss;
    dup;
    link;
    egress_free = Array.make n 0.0;
    handlers = Array.make n None;
    crashed = Array.make n false;
    group_of = None;
    drop_filter = None;
    sent = 0;
    delivered = 0;
    lost = 0;
    filtered = 0;
    duplicated = 0;
    dup_bytes = 0;
    blocked_crash = 0;
    blocked_partition = 0;
    blocked_no_handler = 0;
    bytes = 0;
  }

let size t = t.n

let sim t = t.sim

let set_handler t ~node f = t.handlers.(node) <- Some f

let is_crashed t node = t.crashed.(node)

let crash t node = t.crashed.(node) <- true

let correct_nodes t =
  let rec collect i acc =
    if i < 0 then acc
    else collect (i - 1) (if t.crashed.(i) then acc else i :: acc)
  in
  collect (t.n - 1) []

let partition t groups =
  let group_of = Array.make t.n (-1) in
  List.iteri (fun gid members -> List.iter (fun node -> group_of.(node) <- gid) members) groups;
  (* Leftover nodes form their own implicit group. *)
  let next = List.length groups in
  Array.iteri (fun i g -> if g = -1 then group_of.(i) <- next) group_of;
  t.group_of <- Some group_of

let heal t = t.group_of <- None

let set_drop_filter t f = t.drop_filter <- f

let separated t src dst =
  match t.group_of with
  | None -> false
  | Some g -> g.(src) <> g.(dst)

let deliver t ~src ~dst payload =
  if t.crashed.(dst) then t.blocked_crash <- t.blocked_crash + 1
  else if separated t src dst then t.blocked_partition <- t.blocked_partition + 1
  else
    match t.handlers.(dst) with
    | None -> t.blocked_no_handler <- t.blocked_no_handler + 1
    | Some f ->
      t.delivered <- t.delivered + 1;
      f ~src payload

let send t ~src ~dst ~size_bytes payload =
  assert (src >= 0 && src < t.n && dst >= 0 && dst < t.n);
  if not t.crashed.(src) then begin
    t.sent <- t.sent + 1;
    t.bytes <- t.bytes + size_bytes;
    let dropped_by_filter =
      match t.drop_filter with
      | None -> false
      | Some f -> f ~src ~dst payload
    in
    if src = dst then
      (* Loopback: reliable and nearly instantaneous. *)
      ignore
        (Sim.schedule t.sim ~delay:0.001 (fun () -> deliver t ~src ~dst payload)
          : Sim.handle)
    else if dropped_by_filter then t.filtered <- t.filtered + 1
    else if t.loss > 0.0 && Rng.bool t.rng ~p:t.loss then t.lost <- t.lost + 1
    else begin
      let ship () =
        (* The sender's interface serialises outgoing datagrams: the
           transmission delay of queued packets adds up. This is what
           makes large fan-outs (bigger n) measurably slower. *)
        let now = Sim.now t.sim in
        let transmission =
          if t.link.Latency.bandwidth_mbps = infinity then 0.0
          else float_of_int (size_bytes * 8) /. (t.link.Latency.bandwidth_mbps *. 1000.0)
        in
        let depart = Float.max now t.egress_free.(src) in
        t.egress_free.(src) <- depart +. transmission;
        let d =
          depart -. now +. transmission +. Latency.sample t.link.Latency.model t.rng
        in
        ignore
          (Sim.schedule t.sim ~delay:d (fun () -> deliver t ~src ~dst payload)
            : Sim.handle)
      in
      ship ();
      if t.dup > 0.0 && Rng.bool t.rng ~p:t.dup then begin
        t.duplicated <- t.duplicated + 1;
        t.dup_bytes <- t.dup_bytes + size_bytes;
        ship ()
      end
    end
  end

let egress_backlog_ms t ~node =
  Float.max 0.0 (t.egress_free.(node) -. Sim.now t.sim)

let register_metrics ?(labels = []) t m =
  let module M = Dpu_obs.Metrics in
  M.register_int m ~labels "net_sent_total" (fun () -> t.sent);
  M.register_int m ~labels "net_delivered_total" (fun () -> t.delivered);
  M.register_int m ~labels "net_lost_total" (fun () -> t.lost);
  M.register_int m ~labels "net_filtered_total" (fun () -> t.filtered);
  M.register_int m ~labels "net_duplicated_total" (fun () -> t.duplicated);
  M.register_int m ~labels "net_dup_bytes_total" (fun () -> t.dup_bytes);
  M.register_int m ~labels "net_blocked_total" (fun () ->
      t.blocked_crash + t.blocked_partition + t.blocked_no_handler);
  M.register_int m ~labels:(labels @ [ ("cause", "crash") ]) "net_blocked_by_cause_total"
    (fun () -> t.blocked_crash);
  M.register_int m ~labels:(labels @ [ ("cause", "partition") ]) "net_blocked_by_cause_total"
    (fun () -> t.blocked_partition);
  M.register_int m ~labels:(labels @ [ ("cause", "no-handler") ]) "net_blocked_by_cause_total"
    (fun () -> t.blocked_no_handler);
  M.register_int m ~labels "net_bytes_total" (fun () -> t.bytes);
  M.register_float m ~labels "net_loss_probability" (fun () -> t.loss);
  M.register_float m ~labels "net_dup_probability" (fun () -> t.dup)

let counters t =
  {
    sent = t.sent;
    delivered = t.delivered;
    lost = t.lost;
    filtered = t.filtered;
    duplicated = t.duplicated;
    dup_bytes = t.dup_bytes;
    blocked = t.blocked_crash + t.blocked_partition + t.blocked_no_handler;
    blocked_crash = t.blocked_crash;
    blocked_partition = t.blocked_partition;
    blocked_no_handler = t.blocked_no_handler;
    bytes = t.bytes;
  }
