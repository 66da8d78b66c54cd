(* The five benchmark workloads.

   Each workload builds its deployment through the public API only
   (Experiment.preflight, Middleware/Fabric create + run +
   change_protocol, Serve.run) and measures every layer from outside:
   it times the calls it makes and reads the counters the layers
   already export. One call of [run] is one repetition; the caller
   runs it in a forked child, so a sample must be plain data. *)

module MW = Dpu_core.Middleware
module Fabric = Dpu_core.Fabric
module Collector = Dpu_core.Collector
module Variants = Dpu_core.Variants
module System = Dpu_kernel.System
module Stack = Dpu_kernel.Stack
module Clock = Dpu_runtime.Clock
module Sim = Dpu_engine.Sim
module Stats = Dpu_engine.Stats
module Series = Dpu_engine.Series
module Datagram = Dpu_net.Datagram
module Metrics = Dpu_obs.Metrics
module Json = Dpu_obs.Json
module E = Dpu_workload.Experiment
module Serve = Dpu_live.Serve

type mode =
  | Plain
      (** as the paper's figures and [dpu_run scenario] run: kernel trace
          and metrics registry off *)
  | Instrumented  (** metrics registry on, egress backlog sampled *)
  | Kernel_trace_on  (** [Plain] plus the kernel trace (the Middleware default) *)

type sample = {
  attempted : int;  (** messages broadcast *)
  failed : int;  (** lost messages plus one per property violation *)
  violations : string list;
  exact : (string * float) list;
      (** deterministic for a seed: every repetition must agree *)
  timed : (string * float) list;  (** wall-clock, CPU and heap readings *)
  spans : (string * float * float) list;
      (** (name, start, duration) in seconds from the repetition start *)
}

type t = {
  name : string;
  simulated : bool;
  run : scale:float -> seed:int -> mode:mode -> setup_only:bool -> sample;
}

let wall = Unix.gettimeofday

let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let cpu_children () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

let per x n = if n = 0 then 0.0 else x /. float_of_int n

let percentile s p = if Stats.count s = 0 then 0.0 else Stats.percentile s p

let heap_mb () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Spans of one repetition, timed by the benchmark around its calls. *)
type recorder = { origin : float; mutable spans : (string * float * float) list }

let span r name f =
  let s = wall () in
  let v = f () in
  r.spans <- (name, s -. r.origin, wall () -. s) :: r.spans;
  v

let span_s r name =
  List.fold_left (fun acc (n, _, d) -> if n = name then acc +. d else acc) 0.0 r.spans

(* ------------------------------------------------------------------ *)
(* Simulated deployments                                              *)
(* ------------------------------------------------------------------ *)

(* One or more Middleware groups sharing one simulator. *)
type cluster = {
  groups : MW.t array;
  sim : Sim.t;
  fabric : Fabric.t option;
  mutable triggers : (int * float) list;  (** (group, virtual time) *)
}

let single mw =
  {
    groups = [| mw |];
    sim = Datagram.sim (System.net (MW.system mw));
    fabric = None;
    triggers = [];
  }

let of_fabric f =
  {
    groups = Array.init (Fabric.shards f) (Fabric.group f);
    sim = Fabric.sim f;
    fabric = Some f;
    triggers = [];
  }

let registry c =
  match c.fabric with Some f -> Fabric.metrics f | None -> MW.metrics c.groups.(0)

let clock_of mw = System.clock (MW.system mw)

(* Schedule [change_protocol] on group [g] at virtual time [at],
   remembering the trigger instant: a switch window runs from the
   trigger to the last stack installing the new generation. *)
let switch_at c ~group ~node ~at target =
  let mw = c.groups.(group) in
  Clock.defer (clock_of mw) ~delay:at (fun () ->
      c.triggers <- (group, Clock.now (clock_of mw)) :: c.triggers;
      MW.change_protocol mw ~node target)

let config ~mode ?(hop_cost = MW.default_config.MW.hop_cost) ?(loss = 0.0) ?batching
    ~seed ~msg_size () =
  {
    MW.default_config with
    seed;
    loss;
    hop_cost;
    msg_size;
    profile = { MW.default_config.MW.profile with batching };
    metrics_enabled = mode = Instrumented;
    trace_enabled = mode = Kernel_trace_on;
  }

let preflight params =
  let reports = E.preflight params in
  if not (Dpu_props.Report.all_ok reports) then
    failwith (Format.asprintf "preflight rejected the plan:@.%a" Dpu_props.Report.pp_all reports)

(* A closed-loop client slot re-broadcasts once its own previous
   message is delivered back, after a short think time (never from
   inside the delivery indication). *)
let closed_loop mw ~clients_per_node ~size ~until =
  let clock = clock_of mw in
  let think_ms = 0.05 in
  for node = 0 to MW.n mw - 1 do
    let send () =
      if Clock.now clock < until then
        ignore (MW.broadcast mw ~node ~size "closed-loop" : Dpu_kernel.Msg.t)
    in
    MW.subscribe mw ~node (fun m ->
        if m.Dpu_kernel.Msg.id.Dpu_kernel.Msg.origin = node then
          Clock.defer clock ~delay:think_ms send);
    for k = 1 to clients_per_node do
      Clock.defer clock ~delay:(think_ms *. float_of_int ((node * clients_per_node) + k)) send
    done
  done

(* Sample every node's egress backlog every 5 virtual ms up to the
   horizon (instrumented runs only: the sampler adds simulator events). *)
let sample_backlog c ~until =
  let backlog = Stats.create () in
  let h =
    Sim.every c.sim ~period:5.0 (fun () ->
        Array.iter
          (fun mw ->
            let net = System.net (MW.system mw) in
            List.iter
              (fun node -> Stats.add backlog (Datagram.egress_backlog_ms net ~node))
              (Datagram.correct_nodes net))
          c.groups)
  in
  ignore (Sim.schedule_at c.sim ~time:until (fun () -> Sim.cancel c.sim h) : Sim.handle);
  backlog

let during_margin_ms = 50.0

(* Switch windows of one group: the k-th trigger installs generation k,
   and its window closes when the last stack has installed it. *)
let switch_windows col triggers =
  List.filter_map Fun.id
    (List.mapi
       (fun i t ->
         Option.map (fun (_, last) -> (t, last)) (Collector.switch_window col ~generation:(i + 1)))
       (List.sort Float.compare triggers))

(* Latency of every message sent after the warmup, and apart of those
   sent during a switch window or up to [during_margin_ms] after it. *)
let add_latencies col ~warmup_ms ~windows ~lat ~sw_lat =
  List.iter
    (fun (p : Series.point) ->
      Stats.add lat p.value;
      if List.exists (fun (lo, hi) -> p.time >= lo && p.time <= hi +. during_margin_ms) windows
      then Stats.add sw_lat p.value)
    (Series.between (Collector.latency_series col) ~lo:warmup_ms ~hi:infinity)

let latency_metrics ~lat ~sw_lat ~windows ~concurrent =
  let width = Stats.create () in
  List.iter (fun (lo, hi) -> Stats.add width (hi -. lo)) windows;
  [
    ("lat_p75_ms", percentile lat 75.0);
    ("e2e.lat_p50_ms", percentile lat 50.0);
    ("e2e.lat_mean_ms", if Stats.count lat = 0 then 0.0 else Stats.mean lat);
    ("e2e.lat_p99_ms", percentile lat 99.0);
    ("e2e.lat_samples", float_of_int (Stats.count lat));
    ("core.switches", float_of_int (List.length windows));
    ("core.switch_window_p50_ms", percentile width 50.0);
    ("core.switch_lat_p50_ms", percentile sw_lat 50.0);
    ("core.switch_lat_p95_ms", percentile sw_lat 95.0);
    ("core.max_concurrent_switches", float_of_int concurrent);
  ]

let delivered_between col ~node ~lo ~hi =
  List.length (List.filter (fun (_, t) -> t >= lo && t < hi) (Collector.delivers_of col ~node))

(* Correctness and end-to-end numbers of a finished simulated run.
   A message fails when some correct node never delivered it although
   its sender stayed correct or another correct node delivered it
   (validity and uniform agreement). *)
let summarise c ~warmup_ms ~horizon_ms =
  let lat = Stats.create () and sw_lat = Stats.create () in
  let attempted = ref 0 and lost = ref 0 and delivered = ref 0 in
  let windows = ref [] and generations = ref 0 and violations = ref [] in
  Array.iteri
    (fun g mw ->
      let col = MW.collector mw in
      let correct = System.correct_nodes (MW.system mw) in
      let n_correct = List.length correct in
      List.iter
        (fun (id, sender, _) ->
          incr attempted;
          let got =
            List.length
              (List.filter (fun (node, _) -> List.mem node correct) (Collector.deliver_times col id))
          in
          if got < n_correct && (got > 0 || List.mem sender correct) then incr lost)
        (Collector.sends col);
      List.iter
        (fun (r : Dpu_props.Report.t) ->
          List.iter
            (fun v -> violations := Printf.sprintf "group %d %s: %s" g r.property v :: !violations)
            r.violations)
        (Dpu_props.Abcast_props.check_all col ~correct);
      (match correct with
      | first :: _ ->
        delivered := !delivered + delivered_between col ~node:first ~lo:warmup_ms ~hi:horizon_ms
      | [] -> ());
      let w =
        switch_windows col (List.filter_map (fun (g', t) -> if g' = g then Some t else None) c.triggers)
      in
      windows := w @ !windows;
      generations := max !generations (List.length w);
      add_latencies col ~warmup_ms ~windows:w ~lat ~sw_lat)
    c.groups;
  let violations = List.rev !violations in
  let concurrent =
    match c.fabric with
    | Some f ->
      let best = ref 0 in
      for generation = 1 to !generations do
        best := max !best (Fabric.max_concurrent_switches f ~generation)
      done;
      !best
    | None -> min 1 (List.length !windows)
  in
  ( !attempted,
    !lost + List.length violations,
    violations,
    ("msgs_per_s", float_of_int !delivered /. ((horizon_ms -. warmup_ms) /. 1000.0))
    :: latency_metrics ~lat ~sw_lat ~windows:!windows ~concurrent,
    List.length !windows )

(* Per-message work of every layer, read from the counters the layers
   keep whether or not observability is on. *)
let layer_counts c ~msgs =
  let stacks = Array.concat (Array.to_list (Array.map (fun mw -> System.stacks (MW.system mw)) c.groups)) in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 stacks in
  let hops = sum (fun s -> let calls, inds = Stack.dispatch_counts s in calls + inds) in
  let retrans = sum (fun s -> (Dpu_protocols.Rp2p.stats s).Dpu_protocols.Rp2p.retransmissions) in
  let net f =
    Array.fold_left (fun acc mw -> acc + f (Datagram.counters (System.net (MW.system mw)))) 0 c.groups
  in
  let frames = net (fun k -> k.Datagram.sent) in
  let dropped = net (fun k -> k.Datagram.lost + k.Datagram.blocked) in
  let decided =
    Array.fold_left
      (fun acc mw ->
        match System.correct_nodes (MW.system mw) with
        | first :: _ -> acc + Dpu_protocols.Consensus_ct.decided_count (System.stack (MW.system mw) first)
        | [] -> acc)
      0 c.groups
  in
  [
    ("engine.events_per_msg", per (float_of_int (Sim.events_executed c.sim)) msgs);
    ("net.frames_per_msg", per (float_of_int frames) msgs);
    ("net.kb_per_msg", per (float_of_int (net (fun k -> k.Datagram.bytes)) /. 1024.0) msgs);
    ("net.drop_frac", per (float_of_int dropped) frames);
    ("kernel.hops_per_msg", per (float_of_int hops) msgs);
    ("protocols.msgs_per_decision", per (float_of_int msgs) decided);
    ("protocols.rp2p_retrans_per_msg", per (float_of_int retrans) msgs);
  ]

(* Counts only the metrics registry has (instrumented runs). *)
let registry_counts c ~msgs ~switches =
  let reg = registry c in
  [
    ("core.intercepts_per_msg", per (Metrics.sum reg "repl_intercepted_calls_total") msgs);
    ("core.reissued_per_switch", per (Metrics.sum reg "repl_reissued_total") switches);
    ("core.epoch_stashed_per_switch", per (Metrics.sum reg "epoch_buffer_stashed_total") switches);
  ]

type plan = {
  preflight : unit -> unit;
  create : unit -> cluster;
  arm : cluster -> unit;
  warmup_ms : float;
  horizon_ms : float;  (** end of the load *)
  drain_ms : float;  (** run on after the load so in-flight messages land *)
}

let run_sim plan ~mode ~setup_only =
  let r = { origin = wall (); spans = [] } in
  span r "preflight" plan.preflight;
  let c = span r "create" plan.create in
  span r "arm" (fun () -> plan.arm c);
  let nodes = Array.fold_left (fun acc mw -> acc + MW.n mw) 0 c.groups in
  let setup_s = span_s r "preflight" +. span_s r "create" +. span_s r "arm" in
  let setup =
    [
      ("setup_s", setup_s);
      ("analysis.preflight_ms", 1000.0 *. span_s r "preflight");
      ("core.setup_ms_per_node", 1000.0 *. setup_s /. float_of_int nodes);
    ]
  in
  if setup_only then
    { attempted = 0; failed = 0; violations = []; exact = []; timed = setup; spans = r.spans }
  else begin
    let backlog =
      if mode = Instrumented then Some (sample_backlog c ~until:plan.horizon_ms) else None
    in
    let minor0 = Gc.minor_words () and major0 = (Gc.quick_stat ()).Gc.major_collections in
    let cpu0 = cpu_self () in
    span r "run" (fun () -> Sim.run ~until:(plan.horizon_ms +. plan.drain_ms) c.sim);
    let run_cpu = cpu_self () -. cpu0 in
    let minor = Gc.minor_words () -. minor0 in
    let majors = (Gc.quick_stat ()).Gc.major_collections - major0 in
    let peak = heap_mb () in
    let attempted, failed, violations, e2e, switches =
      span r "check" (fun () ->
          summarise c ~warmup_ms:plan.warmup_ms ~horizon_ms:plan.horizon_ms)
    in
    let exact =
      span r "summarise" (fun () ->
          e2e @ layer_counts c ~msgs:attempted
          @
          match backlog with
          | Some b ->
            ("net.egress_backlog_p99_ms", percentile b 99.0)
            :: registry_counts c ~msgs:attempted ~switches
          | None -> [])
    in
    {
      attempted;
      failed;
      violations;
      exact;
      timed =
        setup
        @ [
            ("e2e.cpu_us_per_msg", 1e6 *. per run_cpu attempted);
            ("cpu_s", run_cpu);
            ("peak_heap_mb", peak);
            (* GC work depends on the heap the child inherited at fork. *)
            ("alloc.minor_words_per_msg", per minor attempted);
            ("alloc.major_per_kmsg", 1000.0 *. per (float_of_int majors) attempted);
          ];
      spans = r.spans;
    }
  end

(* ------------------------------------------------------------------ *)
(* The four simulated workloads                                       *)
(* ------------------------------------------------------------------ *)

(* Fig. 5 of the paper: n=7, 4 KB, CT ABcast under the replacement
   layer, Poisson 40 msg/s, and the paper's own CT->CT swap every
   500 ms from a rotating trigger node. *)
let paper_n7 ~scale ~seed ~mode =
  let n = 7 and msg_size = 4096 and hop_cost = 0.5 in
  let horizon_ms = 30_000.0 *. scale in
  {
    preflight =
      (fun () ->
        preflight
          { E.default with n; seed; msg_size; hop_cost; initial = Variants.ct; switch_to = Some Variants.ct });
    create = (fun () -> single (MW.create ~config:(config ~mode ~hop_cost ~seed ~msg_size ()) ~n ()));
    arm =
      (fun c ->
        Dpu_workload.Load_gen.start c.groups.(0) ~rate_per_s:40.0 ~pattern:Dpu_workload.Load_gen.Poisson
          ~size:msg_size ~until:horizon_ms ();
        let k = ref 2 in
        while 500.0 *. float_of_int !k <= horizon_ms -. 500.0 do
          switch_at c ~group:0 ~node:(!k mod n) ~at:(500.0 *. float_of_int !k) Variants.ct;
          incr k
        done);
    warmup_ms = 500.0;
    horizon_ms;
    drain_ms = 2_000.0;
  }

(* Throughput hot path: closed loop, 16 clients per node, batching on,
   no replacement. *)
let saturate_n3 ~scale ~seed ~mode =
  let n = 3 and msg_size = 512 in
  let batching = { Dpu_protocols.Batcher.max_batch = 16; max_delay_ms = 5.0 } in
  let horizon_ms = 10_000.0 *. scale in
  {
    preflight =
      (fun () ->
        preflight { E.default with n; seed; msg_size; batching = Some batching; switch_to = None });
    create = (fun () -> single (MW.create ~config:(config ~mode ~batching ~seed ~msg_size ()) ~n ()));
    arm = (fun c -> closed_loop c.groups.(0) ~clients_per_node:16 ~size:msg_size ~until:horizon_ms);
    warmup_ms = 500.0 *. Float.min 1.0 (scale *. 10.0);
    horizon_ms;
    drain_ms = 2_000.0;
  }

(* Many small groups on one simulator: 63 nodes in 16 shards, Poisson
   630 msg/s in aggregate, a rolling seq/ct wave over every shard each
   second with a 0.25 ms stagger. *)
let fabric_n63 ~scale ~seed ~mode =
  let n = 63 and shards = 16 and msg_size = 512 in
  let horizon_ms = 10_000.0 *. scale in
  {
    preflight =
      (fun () ->
        let group = { E.default with n = 4; seed; msg_size } in
        preflight { group with initial = Variants.ct; switch_to = Some Variants.sequencer };
        preflight { group with initial = Variants.sequencer; switch_to = Some Variants.ct });
    create =
      (fun () -> of_fabric (Fabric.create ~config:(config ~mode ~seed ~msg_size ()) ~shards ~n ()));
    arm =
      (fun c ->
        Array.iter
          (fun mw ->
            Dpu_workload.Load_gen.start mw
              ~rate_per_s:(630.0 *. float_of_int (MW.n mw) /. float_of_int n)
              ~pattern:Dpu_workload.Load_gen.Poisson ~size:msg_size ~until:horizon_ms ())
          c.groups;
        let wave = ref 0 in
        while 500.0 +. (1000.0 *. float_of_int !wave) <= horizon_ms -. 250.0 do
          let target = if !wave mod 2 = 0 then Variants.sequencer else Variants.ct in
          Array.iteri
            (fun g _ ->
              switch_at c ~group:g ~node:0
                ~at:(500.0 +. (1000.0 *. float_of_int !wave) +. (0.25 *. float_of_int g))
                target)
            c.groups;
          incr wave
        done);
    warmup_ms = 200.0;
    horizon_ms;
    drain_ms = 2_000.0;
  }

(* The only workload with faults: 2 % iid loss, node 4 crashes at a
   third of the run, node 1 swaps CT->seq at half of it. *)
let lossy_n5 ~scale ~seed ~mode =
  let n = 5 and msg_size = 1024 and hop_cost = 0.5 and loss = 0.02 in
  let horizon_ms = 60_000.0 *. scale in
  {
    preflight =
      (fun () ->
        preflight
          { E.default with n; seed; msg_size; hop_cost; loss; initial = Variants.ct;
            switch_to = Some Variants.sequencer });
    create =
      (fun () -> single (MW.create ~config:(config ~mode ~hop_cost ~loss ~seed ~msg_size ()) ~n ()));
    arm =
      (fun c ->
        let mw = c.groups.(0) in
        Dpu_workload.Load_gen.start mw ~rate_per_s:60.0 ~pattern:Dpu_workload.Load_gen.Poisson
          ~size:msg_size ~until:horizon_ms ();
        Clock.defer (clock_of mw) ~delay:(horizon_ms /. 3.0) (fun () -> MW.crash mw 4);
        switch_at c ~group:0 ~node:1 ~at:(horizon_ms /. 2.0) Variants.sequencer);
    warmup_ms = 500.0;
    horizon_ms;
    drain_ms = 3_000.0;
  }

let simulated name plan =
  {
    name;
    simulated = true;
    run = (fun ~scale ~seed ~mode ~setup_only -> run_sim (plan ~scale ~seed ~mode) ~mode ~setup_only);
  }

(* ------------------------------------------------------------------ *)
(* The live workload                                                  *)
(* ------------------------------------------------------------------ *)

(* Sum of one metric over every node's exported registry snapshot. *)
let node_metric (reports : Dpu_live.Node.report list) name =
  List.fold_left
    (fun acc (r : Dpu_live.Node.report) ->
      match Json.member r.Dpu_live.Node.metrics "metrics" with
      | None -> acc
      | Some l ->
        List.fold_left
          (fun acc m ->
            if Json.member m "name" = Some (Json.Str name) then
              match Option.bind (Json.member m "value") Json.to_float_opt with
              | Some v -> acc +. v
              | None -> acc
            else acc)
          acc
          (Option.value ~default:[] (Json.to_list_opt l)))
    0.0 reports

(* n=3 OS processes on UDP loopback, 1 KB messages at 1000 msg/s
   offered, a CT->seq swap half way, in throughput mode (batches of up
   to 16, 2 ms delay trigger). Unbatched, loopback latency is mostly OS
   wakeup jitter and varies too much between runs to bound; batched, it
   is set by the live timer wheel and the stack. Latency runs from the
   actual send; how far the generator fell behind is reported apart. *)
(* What one live node builds before it serves, as [Node.run] does:
   sockets, UDP transport, timer wheel, live clock, runtime and the
   whole stack. Timed in this process: the wall time of [Serve.run]
   around the load is mostly process start and stop, which a busy
   machine stretches by a quarter from one minute to the next. *)
let live_node_setup ~seed ~n ~batch =
  let r = { origin = wall (); spans = [] } in
  let fds = Array.init n (fun _ -> Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0) in
  Fun.protect
    ~finally:(fun () -> Array.iter Unix.close fds)
    (fun () ->
      span r "create" (fun () ->
          Array.iter (fun fd -> Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0))) fds;
          let peers = Array.map Unix.getsockname fds in
          let tr = Dpu_live.Udp_transport.create ~service:"dpu" ~batching:batch ~me:0 ~fd:fds.(0) ~peers () in
          let clock =
            Dpu_live.Live_clock.create ~epoch:(wall ()) (Dpu_live.Timer_wheel.create ~granularity_ms:0.5 ())
          in
          let runtime =
            Dpu_runtime.Runtime.create ~clock:(Dpu_live.Live_clock.clock clock)
              ~transport:(Dpu_live.Udp_transport.transport tr) ~rng:(Dpu_engine.Rng.create ~seed)
          in
          let system =
            System.of_runtime ~hop_cost:0.0 ~trace_enabled:false ~metrics:(Metrics.create ()) ~local:[ 0 ]
              ~runtime ~n ()
          in
          let batching = Some { Dpu_protocols.Batcher.max_batch = batch; max_delay_ms = 2.0 } in
          let profile = { MW.default_config.MW.profile with batching } in
          ignore (MW.of_system ~config:{ MW.default_config with profile; msg_size = 1024 } system : MW.t)));
  let setup_s = span_s r "create" in
  {
    attempted = 0;
    failed = 0;
    violations = [];
    exact = [];
    timed = [ ("setup_s", setup_s); ("core.setup_ms_per_node", 1000.0 *. setup_s) ];
    spans = r.spans;
  }

let live_n3 ~scale ~seed ~mode =
  let load = 1000.0 in
  let duration_ms = Float.max 600.0 (2_000.0 *. scale) in
  let warmup_ms = Float.min 500.0 (duration_ms /. 4.0) in
  let params =
    {
      Serve.default with
      n = 3;
      load;
      duration_ms;
      drain_ms = Float.max 300.0 (500.0 *. scale);
      switch_at_ms = duration_ms /. 2.0;
      initial = Variants.ct;
      switch_to = Some Variants.sequencer;
      msg_size = 1024;
      seed;
      batching = Some 16;
    }
  in
  let r = { origin = wall (); spans = [] } in
  (* Instrumented: every node records its trace, as [serve --trace-out]. *)
  let trace_out =
    if mode = Instrumented then Some (Filename.temp_file "dpu-perf-live" ".json") else None
  in
  let cpu0 = cpu_children () in
  let outcome = span r "serve" (fun () -> Serve.run ?trace_out params) in
  let node_cpu = cpu_children () -. cpu0 in
  Option.iter Sys.remove trace_out;
  match outcome with
  | Error e -> failwith ("Serve.run: " ^ e)
  | Ok o ->
    let reports = o.Serve.node_reports in
    let col = o.Serve.collector in
    let lat = Stats.create () and sw_lat = Stats.create () in
    let windows = switch_windows col [ params.switch_at_ms ] in
    add_latencies col ~warmup_ms ~windows ~lat ~sw_lat;
    let sent = Collector.send_count col in
    let lost = List.length (Collector.undelivered_ids col ~expected_copies:params.n) in
    let violations =
      List.concat_map
        (fun (r : Dpu_props.Report.t) -> List.map (fun v -> r.property ^ ": " ^ v) r.violations)
        o.Serve.checks
    in
    let delivered = delivered_between col ~node:0 ~lo:warmup_ms ~hi:duration_ms in
    let frames =
      List.fold_left
        (fun acc (r : Dpu_live.Node.report) -> acc + r.Dpu_live.Node.counters.Dpu_runtime.Transport.sent)
        0 reports
    in
    let busy = node_metric reports "live_busy_ms" and idle = node_metric reports "live_idle_ms" in
    {
      attempted = sent;
      failed = lost + List.length violations;
      violations;
      exact = [];
      timed =
        [
          ("e2e.cpu_us_per_msg", 1e6 *. per node_cpu sent);
          ("cpu_s", node_cpu);
          ("msgs_per_s", float_of_int delivered /. ((duration_ms -. warmup_ms) /. 1000.0));
          ("peak_heap_mb", heap_mb ());
          ("live.frames_per_msg", per (float_of_int frames) sent);
          ("live.wheel_fired_per_msg", per (node_metric reports "live_wheel_fired") sent);
          ("live.busy_frac", if busy +. idle > 0.0 then busy /. (busy +. idle) else 0.0);
          ("live.gen_lag_frac", 1.0 -. (float_of_int sent /. (load *. duration_ms /. 1000.0)));
        ]
        @ latency_metrics ~lat ~sw_lat ~windows ~concurrent:(List.length windows);
      spans = r.spans;
    }

let all =
  [
    simulated "paper-n7" paper_n7;
    simulated "saturate-n3" saturate_n3;
    simulated "fabric-n63" fabric_n63;
    simulated "lossy-n5" lossy_n5;
    {
      name = "live-n3";
      simulated = false;
      run =
        (fun ~scale ~seed ~mode ~setup_only ->
          if setup_only then live_node_setup ~seed ~n:3 ~batch:16 else live_n3 ~scale ~seed ~mode);
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
