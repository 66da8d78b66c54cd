module MW = Dpu_core.Middleware
module Clock = Dpu_runtime.Clock
module Rng = Dpu_engine.Rng

type pattern =
  | Constant
  | Poisson
  | Burst of { period_ms : float; duty : float }

let start mw ~rate_per_s ?(pattern = Constant) ?size ?(body = "payload") ~until () =
  let n = MW.n mw in
  let system = MW.system mw in
  let clock = Dpu_kernel.System.clock system in
  let rng = Rng.split (Dpu_kernel.System.rng system) in
  let per_node_gap = 1000.0 /. (rate_per_s /. float_of_int n) in
  let next_gap node =
    match pattern with
    | Constant -> per_node_gap
    | Poisson -> Rng.exponential rng ~mean:per_node_gap
    | Burst { period_ms; duty } ->
      (* Send at rate/duty while inside the duty window, else wait for
         the next window. *)
      let t = Clock.now clock in
      let phase = Float.rem t period_ms in
      if phase < period_ms *. duty then per_node_gap *. duty
      else period_ms -. phase +. (Rng.float rng *. 0.1 *. float_of_int node)
  in
  let rec loop node () =
    if Clock.now clock < until then begin
      ignore (MW.broadcast mw ~node ?size body : Dpu_kernel.Msg.t);
      Clock.defer clock ~delay:(next_gap node) (loop node)
    end
  in
  (* Only the nodes local to this process generate load (all of them in
     a simulated deployment). *)
  List.iter
    (fun node ->
      (* Stagger start phases so the aggregate load is smooth. *)
      let phase = per_node_gap *. float_of_int node /. float_of_int n in
      Clock.defer clock ~delay:phase (loop node))
    (Dpu_kernel.System.local_nodes system)

let closed_loop mw ~clients_per_node ?size ~until () =
  let clock = Dpu_kernel.System.clock (MW.system mw) in
  let think_ms = 0.05 in
  for node = 0 to MW.n mw - 1 do
    (* Re-broadcast the moment our own previous message comes back
       delivered. The re-send is deferred by a tiny think time rather
       than issued inside the delivery indication, so the stack never
       re-enters itself mid-dispatch. *)
    let send () =
      if Clock.now clock < until then
        ignore (MW.broadcast mw ~node ?size "closed-loop" : Dpu_kernel.Msg.t)
    in
    MW.subscribe mw ~node (fun m ->
        if m.Dpu_kernel.Msg.id.Dpu_kernel.Msg.origin = node then
          Clock.defer clock ~delay:think_ms send);
    for c = 0 to clients_per_node - 1 do
      (* Staggered starts: one in-flight message per client slot. *)
      Clock.defer clock
        ~delay:(think_ms *. float_of_int ((node * clients_per_node) + c + 1))
        send
    done
  done

let send_n mw ~count ?(gap_ms = 10.0) ?size ?(warmup = 0) () =
  let n = MW.n mw in
  let clock = Dpu_kernel.System.clock (MW.system mw) in
  let t0 = Clock.now clock in
  (* Warmup messages ride the same round-robin schedule, ahead of the
     counted ones: they populate caches, arm failure detectors and (in
     a batched stack) fill the first batch, so the measured messages
     see steady state. They are real broadcasts — the collector records
     them and the ABcast properties cover them — callers exclude them
     from latency stats by cutting the series at the returned time. *)
  for i = 0 to warmup + count - 1 do
    let node = i mod n in
    Clock.defer clock ~delay:(gap_ms *. float_of_int i) (fun () ->
        ignore (MW.broadcast mw ~node ?size "msg" : Dpu_kernel.Msg.t))
  done;
  t0 +. (gap_ms *. float_of_int warmup)
