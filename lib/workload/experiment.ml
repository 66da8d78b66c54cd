module MW = Dpu_core.Middleware
module SB = Dpu_core.Stack_builder
module Collector = Dpu_core.Collector
module Stats = Dpu_engine.Stats
module Series = Dpu_engine.Series
module Clock = Dpu_runtime.Clock

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
  approach : approach;
  batching : Dpu_protocols.Batcher.config option;
  loss : float;
  hop_cost : float;
  trace_enabled : bool;
  metrics_enabled : bool;
  pattern : Load_gen.pattern;
  closed_loop : int option;
  during_margin_ms : float;
  consensus_layer : string option;
  switch_consensus : (float * string) option;
  faults : Dpu_faults.Schedule.t;
  log_out : string option;
  epoch_buffer : bool;
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
    approach = Repl;
    batching = None;
    loss = 0.0;
    hop_cost = 0.5;
    trace_enabled = false;
    metrics_enabled = false;
    pattern = Load_gen.Poisson;
    closed_loop = None;
    during_margin_ms = 50.0;
    consensus_layer = None;
    switch_consensus = None;
    faults = [];
    log_out = None;
    epoch_buffer = true;
  }

type result = {
  params : params;
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
  metrics : Dpu_obs.Metrics.t;
  correct : int list;
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
  let updates =
    match (params.switch_to, profile.SB.layer) with
    | Some target, Some _ -> [ target ]
    | Some _, None | None, _ -> []
  in
  let consensus_updates =
    match params.switch_consensus with Some (_, target) -> [ target ] | None -> []
  in
  Dpu_analysis.Composition.verify_profile
    ~registry:(Dpu_kernel.System.registry system)
    ~updates ~consensus_updates profile

let blocked_ms mw =
  Array.fold_left
    (fun acc stack -> Float.max acc (Dpu_baselines.Maestro.blocked_ms stack))
    0.0
    (Dpu_kernel.System.stacks (MW.system mw))

let run params =
  (let reports = preflight params in
   if not (Dpu_props.Report.all_ok reports) then raise (Preflight_failure reports));
  let profile = profile_of params in
  let config =
    {
      MW.default_config with
      seed = params.seed;
      loss = params.loss;
      hop_cost = params.hop_cost;
      profile;
      trace_enabled = params.trace_enabled;
      metrics_enabled = params.metrics_enabled;
      msg_size = params.msg_size;
    }
  in
  let mw = MW.create ~config ~register_extra ~n:params.n () in
  let system = MW.system mw in
  let clock = Dpu_kernel.System.clock system in
  (* The structured log is stamped on the VIRTUAL clock: with the same
     params the emitted JSONL bytes are a pure function of the run —
     the determinism tests diff two runs' files verbatim. *)
  let log, close_log =
    match params.log_out with
    | None -> (Dpu_obs.Log.noop, fun () -> ())
    | Some path -> Dpu_obs.Log.to_file ~clock:(fun () -> Clock.now clock) path
  in
  Dpu_obs.Log.info log
    ~fields:
      [ ("n", Dpu_obs.Json.Int params.n);
        ("seed", Dpu_obs.Json.Int params.seed);
        ("load", Dpu_obs.Json.Float params.load);
        ("approach", Dpu_obs.Json.Str (approach_name params.approach));
        ("initial", Dpu_obs.Json.Str params.initial) ]
    "experiment start";
  (match Dpu_faults.Schedule.validate ~n:params.n params.faults with
  | Ok () -> ()
  | Error msg -> invalid_arg (Printf.sprintf "Experiment.run: bad fault schedule: %s" msg));
  (* In the full-stack harness a scheduled [Crash] is fail-stop (stack
     and network endpoint both die); a [Recover] of a fail-stopped node
     is ignored — the process model has no rejoin — so it only applies
     to network-level silences. *)
  Dpu_faults.Schedule.arm
    ~on_event:(fun _ what -> Dpu_obs.Log.warn log what)
    ~crash_node:(fun node -> MW.crash mw node)
    ~recover_node:(fun node ->
      if not (Dpu_kernel.Stack.is_crashed (Dpu_kernel.System.stack system node)) then
        Dpu_net.Datagram.recover (Dpu_kernel.System.net system) node)
    (Dpu_kernel.System.net system)
    params.faults;
  (match params.closed_loop with
  | Some k ->
    Load_gen.closed_loop mw ~clients_per_node:k ~size:params.msg_size
      ~until:params.duration_ms ()
  | None ->
    Load_gen.start mw ~rate_per_s:params.load ~pattern:params.pattern
      ~size:params.msg_size ~until:params.duration_ms ());
  let switch_requested =
    match (params.switch_to, layer_of params.approach) with
    | Some protocol, Some _ ->
      (* "any process triggers the replacement" (§6.2) — pick one that
         is still alive at the switch time. *)
      let trigger_node =
        let crashed_by_then =
          Dpu_faults.Schedule.crashed_before params.faults ~time:params.switch_at_ms
        in
        let rec pick node =
          if node < 0 then 0
          else if List.mem node crashed_by_then then pick (node - 1)
          else node
        in
        pick (params.n - 1)
      in
      Clock.defer clock ~delay:params.switch_at_ms (fun () ->
          Dpu_obs.Log.info log
            ~fields:
              [ ("node", Dpu_obs.Json.Int trigger_node);
                ("target", Dpu_obs.Json.Str protocol) ]
            "switch trigger";
          MW.change_protocol mw ~node:trigger_node protocol);
      true
    | Some _, None | None, _ -> false
  in
  (match params.switch_consensus with
  | Some (time, protocol) ->
    Clock.defer clock ~delay:time (fun () ->
        Dpu_obs.Log.info log
          ~fields:[ ("target", Dpu_obs.Json.Str protocol) ]
          "consensus switch trigger";
        MW.change_consensus mw ~node:0 protocol)
  | None -> ());
  MW.run_until_quiescent ~limit:(params.duration_ms +. 120_000.0) mw;
  let collector = MW.collector mw in
  let latency = Collector.latency_series collector in
  let switch_window =
    if switch_requested then
      match Collector.switch_window collector ~generation:1 with
      | Some (_first, last) -> Some (params.switch_at_ms, last)
      | None -> None
    else None
  in
  (* Messages sent up to [during_margin_ms] after the last stack
     switched are still attributed to the replacement: the fresh
     protocol's first instances are its cold start (the paper's spike
     decays over a short period after the switch, Fig. 5). *)
  let during_range =
    match switch_window with
    | Some (lo, hi) -> Some (lo, hi +. params.during_margin_ms)
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
  let correct = Dpu_kernel.System.correct_nodes (MW.system mw) in
  let sent = Collector.send_count collector in
  let undelivered =
    Collector.undelivered_ids collector ~expected_copies:(List.length correct)
  in
  Dpu_obs.Log.info log
    ~fields:
      ([ ("sent", Dpu_obs.Json.Int sent);
         ("delivered_everywhere", Dpu_obs.Json.Int (sent - List.length undelivered))
       ]
      @
      match switch_window with
      | Some (lo, hi) ->
        [ ("switch_from_ms", Dpu_obs.Json.Float lo);
          ("switch_to_ms", Dpu_obs.Json.Float hi) ]
      | None -> [])
    "experiment done";
  close_log ();
  {
    params;
    latency;
    normal;
    during;
    switch_window;
    switch_duration_ms =
      (match switch_window with Some (lo, hi) -> hi -. lo | None -> 0.0);
    blocked_ms = blocked_ms mw;
    sent;
    delivered_everywhere = sent - List.length undelivered;
    collector;
    trace = Dpu_kernel.System.trace (MW.system mw);
    metrics = MW.metrics mw;
    correct;
  }

let check result =
  let abcast = Dpu_props.Abcast_props.check_all result.collector ~correct:result.correct in
  let nodes = List.init result.params.n (fun i -> i) in
  let protocols =
    result.params.initial
    :: (match result.params.switch_to with Some p when p <> result.params.initial -> [ p ] | Some _ | None -> [])
  in
  let generic =
    if Dpu_kernel.Trace.enabled result.trace then
      Dpu_props.Stack_props.check_generic result.trace ~protocols ~nodes
    else []
  in
  abcast @ generic
