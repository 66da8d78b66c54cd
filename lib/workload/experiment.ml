module MW = Dpu_core.Middleware
module Fabric = Dpu_core.Fabric
module SB = Dpu_core.Stack_builder
module Collector = Dpu_core.Collector
module Stats = Dpu_engine.Stats
module Series = Dpu_engine.Series
module Clock = Dpu_runtime.Clock
module Json = Dpu_obs.Json
module Report = Dpu_props.Report

type approach =
  | No_layer
  | Repl
  | Maestro
  | Graceful

let approach_name = function
  | No_layer -> "no-layer"
  | Repl -> "repl"
  | Maestro -> "maestro"
  | Graceful -> "graceful"

type params = {
  n : int;
  seed : int;
  load : float;
  duration_ms : float;
  warmup_ms : float;
  msg_size : int;
  initial : string;
  switch_to : string option;
  switch_at_ms : float;
  switches : Dpu_faults.Corpus.switch list;
  approach : approach;
  batching : Dpu_protocols.Batcher.config option;
  loss : float;
  hop_cost : float;
  trace_enabled : bool;
  metrics_enabled : bool;
  pattern : Load_gen.pattern;
  closed_loop : int option;
  consensus_layer : string option;
  switch_consensus : (float * string) option;
  faults : Dpu_faults.Schedule.t;
  epoch_buffer : bool;
  shards : int;
  stagger_ms : float;
  drain_ms : float;
}

let default =
  {
    n = 7;
    seed = 1;
    load = 40.0;
    duration_ms = 10_000.0;
    warmup_ms = 500.0;
    msg_size = 4096;
    initial = Dpu_core.Variants.ct;
    switch_to = Some Dpu_core.Variants.ct;
    switch_at_ms = 5_000.0;
    switches = [];
    approach = Repl;
    batching = None;
    loss = 0.0;
    hop_cost = 0.5;
    trace_enabled = false;
    metrics_enabled = false;
    pattern = Load_gen.Poisson;
    closed_loop = None;
    consensus_layer = None;
    switch_consensus = None;
    faults = [];
    epoch_buffer = true;
    shards = 1;
    stagger_ms = 0.25;
    drain_ms = 120_000.0;
  }

let validate p =
  let fail fmt = Printf.ksprintf (fun msg -> Error msg) fmt in
  let bad_time =
    List.find_opt
      (fun (_, x) -> not (Float.is_finite x && x >= 0.0))
      ([ ("duration", p.duration_ms); ("warmup", p.warmup_ms); ("switch time", p.switch_at_ms);
         ("stagger", p.stagger_ms); ("drain", p.drain_ms) ]
      @ Option.fold p.batching ~none:[] ~some:(fun (b : Dpu_protocols.Batcher.config) ->
            [ ("batch delay", b.max_delay_ms) ])
      @ Option.fold p.switch_consensus ~none:[] ~some:(fun (at, _) ->
            [ ("consensus switch time", at) ])
      @ List.map (fun (at, _, _) -> ("switch time", at)) p.switches)
  in
  let bad_node = List.find_opt (fun (_, node, _) -> node < 0 || node >= p.n) p.switches in
  match (bad_time, bad_node, Dpu_faults.Schedule.validate ~n:p.n p.faults) with
  | _ when p.n < 1 -> fail "n must be >= 1, got %d" p.n
  | _ when p.shards < 1 || p.shards > p.n ->
    fail "shards must be in 1..n = 1..%d, got %d" p.n p.shards
  | _ when not (Float.is_finite p.load && p.load >= 0.0) ->
    fail "load must be finite and >= 0, got %g" p.load
  | _ when p.load = 0.0 && p.closed_loop = None -> fail "an open loop needs a load above 0"
  | _ when Option.fold p.batching ~none:false ~some:(fun (b : Dpu_protocols.Batcher.config) ->
               b.max_batch < 1) ->
    fail "batch must be at least 1"
  | _ when not (p.loss >= 0.0 && p.loss <= 1.0) -> fail "loss must be in [0, 1], got %g" p.loss
  | _ when p.msg_size < 0 -> fail "message size must be >= 0, got %d" p.msg_size
  | _ when not (Float.is_finite p.hop_cost && p.hop_cost >= 0.0) ->
    fail "hop cost must be finite and >= 0, got %g" p.hop_cost
  | Some (name, x), _, _ -> fail "%s must be finite and >= 0, got %g" name x
  | None, Some (_, node, _), _ -> fail "switch node %d out of range [0, %d)" node p.n
  | None, None, Error msg -> fail "bad fault schedule: %s" msg
  | None, None, Ok () when p.shards > 1 && (p.faults <> [] || p.switches <> []) ->
    fail "faults and switches need shards = 1"
  | None, None, Ok () -> Ok ()

(* Virtual grace beyond a scenario's drain for retransmission cycles to
   finish after the last fault window closes: virtual time is cheap,
   and the battery wants a quiescent trace. *)
let corpus_grace_ms = 30_000.0

let of_corpus ?(seed = 1) (sc : Dpu_faults.Corpus.t) =
  {
    default with
    n = sc.n;
    seed;
    load = sc.load;
    duration_ms = sc.duration_ms;
    msg_size = 1_024;
    initial = sc.initial;
    switch_to = None;
    switches = sc.switches;
    hop_cost = 0.05;
    faults = sc.schedule;
    drain_ms = sc.drain_ms +. corpus_grace_ms;
  }

type shard = {
  nodes : int;
  latency : Series.t;
  normal : Stats.t;
  during : Stats.t;
  switch_window : (float * float) option;
  switch_duration_ms : float;
  blocked_ms : float;
  sent : int;
  delivered_everywhere : int;
  collector : Dpu_core.Collector.t;
  trace : Dpu_kernel.Trace.t;
  correct : int list;
  faults : Dpu_faults.Fault_transport.stats;
}

type work = { events : int; hops : int; frames : int; bytes : int; retransmissions : int }

type result = {
  params : params;
  per_shard : shard array;
  metrics : Dpu_obs.Metrics.t;
  max_concurrent_switches : int;
  work : work;
}

let layer_of = function
  | No_layer -> None
  | Repl -> Some Dpu_core.Repl.protocol_name
  | Maestro -> Some Dpu_baselines.Maestro.protocol_name
  | Graceful -> Some Dpu_baselines.Graceful.protocol_name

let profile_of params =
  {
    SB.initial_abcast = params.initial;
    layer = layer_of params.approach;
    with_gm = false;
    batching = params.batching;
    consensus_layer = params.consensus_layer;
    epoch_buffer = params.epoch_buffer;
  }

(* The replacement target, if the approach has a layer to perform it. *)
let switch_target params =
  match (params.switch_to, layer_of params.approach) with
  | Some protocol, Some _ -> Some protocol
  | Some _, None | None, _ -> None

(* The extra replacements, under the same rule. *)
let planned_switches params =
  if Option.is_some (layer_of params.approach) then params.switches else []

(* Every replacement target the run may install. *)
let targets params =
  Option.to_list (switch_target params)
  @ List.map (fun (_, _, target) -> target) (planned_switches params)

let trigger_ms params g = params.switch_at_ms +. (params.stagger_ms *. float_of_int g)

let switch_plan params ~shard =
  (* "any process triggers the replacement" (§6.2): [switch_to] from
     the highest-numbered node of the shard still alive at its trigger
     time, then the planned ones. *)
  let from_switch_to protocol =
    let at = trigger_ms params shard in
    let crashed_by_then = Dpu_faults.Schedule.crashed_before params.faults ~time:at in
    let rec pick node =
      if node < 0 then 0 else if List.mem node crashed_by_then then pick (node - 1) else node
    in
    (at, pick ((Fabric.shard_sizes ~shards:params.shards ~n:params.n).(shard) - 1), protocol)
  in
  Option.to_list (Option.map from_switch_to (switch_target params)) @ planned_switches params

let middleware_config params =
  {
    MW.seed = params.seed;
    loss = params.loss;
    hop_cost = params.hop_cost;
    profile = profile_of params;
    trace_enabled = params.trace_enabled;
    metrics_enabled = params.metrics_enabled;
    msg_size = params.msg_size;
    faults = params.faults;
  }

let register_extra system =
  Dpu_baselines.Maestro.register system;
  Dpu_baselines.Graceful.register system

exception Preflight_failure of Dpu_props.Report.t list

let () =
  Printexc.register_printer (function
    | Preflight_failure reports ->
      Some
        (Format.asprintf "Experiment.Preflight_failure:@.%a"
           Dpu_props.Report.pp_all reports)
    | _ -> None)

let preflight params =
  let profile = profile_of params in
  (* A scratch system: registration populates the registry without
     building any stack, which is all the static verifier needs. *)
  let system = Dpu_kernel.System.create ~n:params.n () in
  SB.register_protocols ~register_extra ~profile system;
  Dpu_analysis.Composition.verify_profile
    ~registry:(Dpu_kernel.System.registry system)
    ~updates:(targets params)
    ~consensus_updates:(Option.to_list (Option.map snd params.switch_consensus))
    profile

(* Messages sent up to this long after the last stack switched are
   still attributed to the replacement: the fresh protocol's first
   instances are its cold start (the paper's spike decays over a short
   period after the switch, Fig. 5). *)
let during_margin_ms = 50.0

(* A scheduled crash silences a node at the shim, so a system still
   counts it: the schedule says which of [nodes] end the run down. *)
let correct_of (params : params) nodes =
  let down = Dpu_faults.Schedule.crashed_before params.faults ~time:infinity in
  List.filter (fun node -> not (List.mem node down)) nodes

(* One shard's view of the finished run. *)
let shard_of params g mw =
  let collector = MW.collector mw in
  let latency = Collector.latency_series collector in
  let switch_window =
    match (switch_target params, Collector.switch_window collector ~generation:1) with
    | Some _, Some (_first, last) -> Some (trigger_ms params g, last)
    | Some _, None | None, _ -> None
  in
  let during_range =
    match switch_window with
    | Some (lo, hi) -> Some (lo, hi +. during_margin_ms)
    | None -> None
  in
  let normal = Stats.create () in
  let during = Stats.create () in
  List.iter
    (fun (p : Series.point) ->
      if p.time >= params.warmup_ms then
        match during_range with
        | Some (lo, hi) when p.time >= lo && p.time <= hi -> Stats.add during p.value
        | Some _ | None -> Stats.add normal p.value)
    (Series.points latency);
  let system = MW.system mw in
  let correct = correct_of params (Dpu_kernel.System.correct_nodes system) in
  let sent = Collector.send_count collector in
  (* The messages the properties require at every correct node: those
     a correct node sent, and those delivered anywhere (uniform
     agreement). What a silenced node sent into the void is neither. *)
  let undelivered =
    List.filter
      (fun (id, sender, _) ->
        let at = List.map fst (Collector.deliver_times collector id) in
        (List.mem sender correct || at <> [])
        && List.exists (fun node -> not (List.mem node at)) correct)
      (Collector.sends collector)
  in
  {
    nodes = MW.n mw;
    latency;
    normal;
    during;
    switch_window;
    switch_duration_ms =
      (match switch_window with Some (lo, hi) -> hi -. lo | None -> 0.0);
    blocked_ms =
      Array.fold_left
        (fun acc stack -> Float.max acc (Dpu_baselines.Maestro.blocked_ms stack))
        0.0 (Dpu_kernel.System.stacks system);
    sent;
    delivered_everywhere = sent - List.length undelivered;
    collector;
    trace = Dpu_kernel.System.trace system;
    correct;
    faults = MW.fault_stats mw;
  }

(* The counters every layer keeps whether or not observability is on,
   summed over the shards (the simulator is shared: one event count). *)
let work_of fabric =
  let hops = ref 0 and retransmissions = ref 0 and frames = ref 0 and bytes = ref 0 in
  Fabric.iter_groups fabric (fun _ mw ->
      let system = MW.system mw in
      Array.iter
        (fun stack ->
          let calls, indications = Dpu_kernel.Stack.dispatch_counts stack in
          hops := !hops + calls + indications;
          retransmissions :=
            !retransmissions + (Dpu_protocols.Rp2p.stats stack).retransmissions)
        (Dpu_kernel.System.stacks system);
      let net = Dpu_net.Datagram.counters (Dpu_kernel.System.net system) in
      frames := !frames + net.sent;
      bytes := !bytes + net.bytes);
  {
    events = Dpu_engine.Sim.events_executed (Fabric.sim fabric);
    hops = !hops;
    frames = !frames;
    bytes = !bytes;
    retransmissions = !retransmissions;
  }

let per_message r =
  let delivered =
    Array.fold_left (fun acc (s : shard) -> acc + s.delivered_everywhere) 0 r.per_shard
  in
  let per count = if delivered = 0 then 0.0 else float_of_int count /. float_of_int delivered in
  [
    ("events_per_msg", per r.work.events);
    ("hops_per_msg", per r.work.hops);
    ("frames_per_msg", per r.work.frames);
    ("bytes_per_msg", per r.work.bytes);
    ("retransmissions_per_msg", per r.work.retransmissions);
  ]

let drive params ~shard mw =
  let system = MW.system mw in
  let clock = Dpu_kernel.System.clock system in
  let local = Dpu_kernel.System.local_nodes system in
  let at due f = Clock.defer clock ~delay:(due -. Clock.now clock) f in
  (match params.closed_loop with
  | Some k ->
    Load_gen.closed_loop mw ~clients_per_node:k ~size:params.msg_size ~until:params.duration_ms ()
  | None ->
    (* The aggregate rate splits by shard size, so every node carries
       the same per-node rate however the partition rounded. *)
    let rate_per_s = params.load *. (float_of_int (MW.n mw) /. float_of_int params.n) in
    Load_gen.start mw ~rate_per_s ~pattern:params.pattern ~size:params.msg_size
      ~until:params.duration_ms ());
  List.iter
    (fun (due, node, protocol) ->
      if List.mem node local then at due (fun () -> MW.change_protocol mw ~node protocol))
    (switch_plan params ~shard);
  Option.iter
    (fun (due, protocol) ->
      if List.mem 0 local then at due (fun () -> MW.change_consensus mw ~node:0 protocol))
    params.switch_consensus

let run params =
  (match validate params with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Experiment.run: " ^ msg));
  (let reports = preflight params in
   if not (Report.all_ok reports) then raise (Preflight_failure reports));
  let fabric =
    Fabric.create ~config:(middleware_config params) ~register_extra ~shards:params.shards
      ~n:params.n ()
  in
  Fabric.iter_groups fabric (fun g mw ->
      (* The fabric's shared registry leaves out the network counters:
         publish each shard's, labelled like its other series. *)
      Dpu_net.Datagram.register_metrics
        ~labels:[ ("group", string_of_int g) ]
        (Dpu_kernel.System.net (MW.system mw))
        (Fabric.metrics fabric);
      drive params ~shard:g mw);
  Fabric.run_until_quiescent ~limit:(params.duration_ms +. params.drain_ms) fabric;
  let per_shard =
    Array.init params.shards (fun g -> shard_of params g (Fabric.group fabric g))
  in
  {
    params;
    per_shard;
    metrics = Fabric.metrics fabric;
    max_concurrent_switches = Fabric.max_concurrent_switches fabric ~generation:1;
    work = work_of fabric;
  }

let battery (params : params) ~nodes ?trace collector =
  let correct = correct_of params nodes in
  let protocols =
    Dpu_props.Stack_props.protocols ~initial:params.initial
      (Option.to_list params.switch_to @ List.map (fun (_, _, target) -> target) params.switches)
  in
  (* A silenced node never switches: the §3 properties, like the
     ABcast ones, speak of the correct nodes. *)
  Dpu_props.Abcast_props.check_all collector ~correct
  @
  match trace with
  | Some trace when Dpu_kernel.Trace.enabled trace ->
    Dpu_props.Stack_props.check_generic trace ~protocols ~nodes:correct
  | Some _ | None -> []

let check_shard params s = battery params ~nodes:s.correct ~trace:s.trace s.collector

let check r =
  let label g (rep : Report.t) =
    if r.params.shards = 1 then rep
    else { rep with property = Printf.sprintf "shard %d: %s" g rep.property }
  in
  List.concat
    (Array.to_list (Array.mapi (fun g s -> List.map (label g) (check_shard r.params s)) r.per_shard))

(* What [to_json] and [render_shards] report of one shard, in the
   order they report it, and whether the shard is OK: its battery
   holds, nothing is undelivered or blocked, and a requested switch
   completed. Latency figures are over the post-warmup series. *)
let shard_summary r g s =
  let measured = Series.stats_between s.latency ~lo:r.params.warmup_ms ~hi:infinity in
  let stat f = if Stats.count measured = 0 then 0.0 else f measured in
  let q x = Json.Float (stat (fun m -> Stats.percentile m x)) in
  let generation =
    List.fold_left (fun acc (node, gen, _) -> if node = 0 then max acc gen else acc) 0
      (Collector.switches s.collector)
  in
  let reports = check_shard r.params s in
  let undelivered = s.sent - s.delivered_everywhere in
  let ok =
    Report.all_ok reports && undelivered = 0 && s.blocked_ms = 0.0
    && (switch_target r.params = None || generation >= 1)
  in
  ( ok,
    [
      ("shard", Json.Int g);
      ("nodes", Json.Int s.nodes);
      ("sent", Json.Int s.sent);
      ("delivered", Json.Int (List.length (Collector.delivers_of s.collector ~node:0)));
      ("measured", Json.Int (Stats.count measured));
      ("p50_ms", q 50.0);
      ("p99_ms", q 99.0);
      ("p999_ms", q 99.9);
      ("mean_ms", Json.Float (stat Stats.mean));
      ("generation", Json.Int generation);
      ("blocked_ms", Json.Float s.blocked_ms);
      ("undelivered", Json.Int undelivered);
      ("props_ok", Json.Bool (Report.all_ok reports));
    ]
    @ (match s.switch_window with
      | None -> []
      | Some (lo, hi) ->
        [ ("window_start_ms", Json.Float lo); ("window_end_ms", Json.Float hi) ])
    @
    match List.concat_map (fun (rep : Report.t) -> rep.violations) reports with
    | [] -> []
    | v -> [ ("violations", Json.List (List.map (fun x -> Json.Str x) v)) ] )

let summaries r = Array.to_list (Array.mapi (shard_summary r) r.per_shard)

let all_ok r = List.for_all fst (summaries r)

let to_json r =
  let p = r.params in
  let summaries = summaries r in
  Json.Obj
    [
      ( "params",
        Json.Obj
          ([ ("n", Json.Int p.n); ("shards", Json.Int p.shards); ("seed", Json.Int p.seed);
             ("msg_size", Json.Int p.msg_size); ("load_per_s", Json.Float p.load);
             ("warmup_ms", Json.Float p.warmup_ms); ("duration_ms", Json.Float p.duration_ms);
             ("loss", Json.Float p.loss) ]
          @ Option.fold p.closed_loop ~none:[] ~some:(fun k ->
                [ ("closed_loop_clients", Json.Int k) ])
          @ Option.fold (switch_target p) ~none:[] ~some:(fun t ->
                [ ( "rolling",
                    Json.Obj
                      [ ("to_protocol", Json.Str t); ("start_ms", Json.Float p.switch_at_ms);
                        ("stagger_ms", Json.Float p.stagger_ms) ] ) ])) );
      ("shards", Json.List (List.map (fun (_, fields) -> Json.Obj fields) summaries));
      ("max_concurrent_switches", Json.Int r.max_concurrent_switches);
      ("drained_at_ms", Json.Float (p.duration_ms +. p.drain_ms));
      ("all_ok", Json.Bool (List.for_all fst summaries));
    ]

let render_shards r =
  let header =
    [ "shard"; "nodes"; "sent"; "delivered"; "measured"; "p50_ms"; "p99_ms"; "p999_ms";
      "mean_ms"; "generation"; "window_start_ms"; "window_end_ms"; "blocked_ms";
      "undelivered"; "props_ok" ]
  in
  let cell fields key =
    match List.assoc_opt key fields with
    | Some (Json.Int i) -> string_of_int i
    | Some (Json.Float f) -> Printf.sprintf "%.3f" f
    | Some (Json.Bool b) -> string_of_bool b
    | Some _ | None -> "-"
  in
  let summaries = summaries r in
  Ascii.table ~header (List.map (fun (_, fields) -> List.map (cell fields) header) summaries)
  ^ Printf.sprintf "max concurrent in-flight swaps: %d\n%s\n" r.max_concurrent_switches
      (if List.for_all fst summaries then "all shards OK"
       else "FAILED: at least one shard violated its battery")
