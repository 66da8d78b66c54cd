open Dpu_kernel
module Middleware = Dpu_core.Middleware
module Collector = Dpu_core.Collector
module E = Dpu_workload.Experiment
module J = Dpu_obs.Json
module Metrics = Dpu_obs.Metrics

type report = {
  node : int;
  collector : Collector.t;
  counters : Dpu_runtime.Transport.counters;
  batches : Dpu_runtime.Transport.batch_counters option;
  rx_errors : int;
  faults : Dpu_faults.Fault_transport.stats option;
  metrics : J.t;
  trace : Trace.entry list;
}

let run ~(params : E.params) ~me ~epoch ~generation ~fd ~peers () =
  let wheel = Timer_wheel.create () in
  let lclock = Live_clock.create ~epoch wheel in
  let metrics = Dpu_obs.Metrics.create () in
  let mlabels = [ ("node", string_of_int me) ] in
  (* One batch cap for egress frames and the protocols' batches. *)
  let batch_cap =
    Option.map (fun (b : Dpu_protocols.Batcher.config) -> b.max_batch) params.batching
  in
  let on_batch =
    Option.map
      (fun (_ : int) ->
        let h =
          Metrics.histogram metrics ~labels:mlabels
            ~bounds:[| 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0 |]
            "live_msgs_per_batch"
        in
        fun count -> Metrics.observe h (float_of_int count))
      batch_cap
  in
  let tr = Udp_transport.create ~generation ?batching:batch_cap ?on_batch ~me ~fd ~peers () in
  (* Per-node seeds: protocol-internal randomisation must not be in
     lockstep across processes. *)
  let rng = Dpu_engine.Rng.create ~seed:(params.seed + (7919 * (me + 1))) in
  (* The nemesis interposes behind the Transport seam, on this node's
     clock: the same schedule value every other process (and the
     simulated driver) interprets. Distinct per-node RNG seeds keep the
     probabilistic faults independent across processes. *)
  let shim =
    match params.faults with
    | [] -> None
    | schedule ->
      Some
        (Dpu_faults.Fault_transport.create
           ~seed:(params.seed + (31 * (me + 1)))
           ~schedule ~clock:(Live_clock.clock lclock)
           (Udp_transport.transport tr))
  in
  let transport =
    match shim with
    | None -> Udp_transport.transport tr
    | Some s -> Dpu_faults.Fault_transport.transport s
  in
  let runtime =
    Dpu_runtime.Runtime.create ~clock:(Live_clock.clock lclock) ~transport ~rng
  in
  let system =
    System.of_runtime ~hop_cost:0.0 ~trace_enabled:params.trace_enabled ~metrics ~local:[ me ]
      ~runtime ~n:params.n ()
  in
  let mw = Middleware.of_system ~config:(E.middleware_config params) system in
  (* This node's share of the run, armed as the simulator arms each
     group, its times on the shared epoch. *)
  E.drive params ~shard:0 mw;
  (* Event-loop profile. The histograms/gauges live in the node's
     registry under a per-node label, so the parent's merged snapshot
     keeps the series apart; wheel totals are sampled only when the
     snapshot is taken. *)
  let select_wait = Metrics.histogram metrics ~labels:mlabels "live_select_wait_ms" in
  let drain_batch =
    Metrics.histogram metrics ~labels:mlabels
      ~bounds:[| 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0; 128.0; 256.0 |]
      "live_drain_batch"
  in
  let busy_ms = ref 0.0 and idle_ms = ref 0.0 in
  Metrics.register_int metrics ~labels:mlabels "live_wheel_fired" (fun () ->
      Timer_wheel.fired wheel);
  Metrics.register_int metrics ~labels:mlabels "live_wheel_cascades" (fun () ->
      Timer_wheel.cascades wheel);
  Metrics.register_float metrics ~labels:mlabels "live_wheel_pending" (fun () ->
      float_of_int (Timer_wheel.pending wheel));
  Metrics.register_float metrics ~labels:mlabels "live_busy_ms" (fun () -> !busy_ms);
  Metrics.register_float metrics ~labels:mlabels "live_idle_ms" (fun () -> !idle_ms);
  (* Start and stop marks in the kernel trace, on the shared epoch's
     time axis like every other entry. *)
  let mark what = Stack.app_event (System.stack system me) ~tag:"node" Fun.id what in
  mark "start";
  let stop_at = params.duration_ms +. params.drain_ms in
  let fd = Udp_transport.fd tr in
  let rec loop ~busy_from =
    Live_clock.advance lclock;
    Metrics.observe drain_batch (float_of_int (Udp_transport.drain tr));
    (* Ship partial egress batches before sleeping: batching must never
       hold a frame across a select wait, so the added latency is
       bounded by one loop pass. *)
    Udp_transport.flush tr;
    let nowms = Live_clock.now lclock in
    if nowms < stop_at then begin
      let next =
        match Live_clock.next_deadline lclock with
        | None -> stop_at
        | Some d -> Float.min d stop_at
      in
      (* Cap the sleep so the stop deadline and stray wakeups are
         handled promptly even with an empty wheel. *)
      let timeout = Float.max 0.0 (Float.min ((next -. nowms) /. 1000.0) 0.05) in
      let before = Unix.gettimeofday () in
      busy_ms := !busy_ms +. ((before -. busy_from) *. 1000.0);
      let ready =
        match Unix.select [ fd ] [] [] timeout with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      let after = Unix.gettimeofday () in
      idle_ms := !idle_ms +. ((after -. before) *. 1000.0);
      Metrics.observe select_wait ((after -. before) *. 1000.0);
      (match ready with
      | [] -> ()
      | _ :: _ ->
        Metrics.observe drain_batch (float_of_int (Udp_transport.drain tr));
        Udp_transport.flush tr);
      loop ~busy_from:after
    end
  in
  loop ~busy_from:(Unix.gettimeofday ());
  (* Nothing may be stranded in an egress queue at shutdown. *)
  Udp_transport.flush tr;
  mark "stop";
  let counters =
    match shim with
    | None -> Udp_transport.counters tr
    | Some s -> Dpu_faults.Fault_transport.counters s
  in
  {
    node = me;
    collector = Middleware.collector mw;
    counters;
    batches = Option.map (fun (_ : int) -> Udp_transport.batches tr) batch_cap;
    rx_errors = Udp_transport.rx_errors tr;
    faults = Option.map Dpu_faults.Fault_transport.stats shim;
    metrics = Dpu_obs.Metrics.to_json metrics;
    trace = Trace.entries (System.trace system);
  }
