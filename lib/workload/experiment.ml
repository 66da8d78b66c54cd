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
    shards = 1;
    stagger_ms = 0.25;
    drain_ms = 120_000.0;
  }

let validate p =
  let fail fmt = Printf.ksprintf (fun msg -> Error msg) fmt in
  let negative =
    List.find_opt
      (fun (_, x) -> not (x >= 0.0))
      [ ("duration", p.duration_ms); ("warmup", p.warmup_ms); ("switch time", p.switch_at_ms);
        ("stagger", p.stagger_ms); ("drain", p.drain_ms) ]
  in
  if p.n < 1 then fail "n must be >= 1, got %d" p.n
  else if p.shards < 1 || p.shards > p.n then
    fail "shards must be in 1..n = 1..%d, got %d" p.n p.shards
  else if not (Float.is_finite p.load && p.load >= 0.0) then
    fail "load must be finite and >= 0, got %g" p.load
  else
    match (negative, Dpu_faults.Schedule.validate ~n:p.n p.faults) with
    | Some (name, x), _ -> fail "%s must be >= 0, got %g" name x
    | None, Error msg -> fail "bad fault schedule: %s" msg
    | None, Ok () when p.faults <> [] && p.shards > 1 -> fail "faults need shards = 1"
    | None, Ok () -> Ok ()

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
}

type result = {
  params : params;
  per_shard : shard array;
  metrics : Dpu_obs.Metrics.t;
  max_concurrent_switches : int;
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
    ~updates:(Option.to_list (switch_target params))
    ~consensus_updates:(Option.to_list (Option.map snd params.switch_consensus))
    profile

let trigger_ms params g = params.switch_at_ms +. (params.stagger_ms *. float_of_int g)

(* One shard's view of the finished run. *)
let shard_of params g mw =
  let collector = MW.collector mw in
  let latency = Collector.latency_series collector in
  let switch_window =
    match (switch_target params, Collector.switch_window collector ~generation:1) with
    | Some _, Some (_first, last) -> Some (trigger_ms params g, last)
    | Some _, None | None, _ -> None
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
  let system = MW.system mw in
  let correct = Dpu_kernel.System.correct_nodes system in
  let sent = Collector.send_count collector in
  let undelivered = Collector.undelivered_ids collector ~expected_copies:(List.length correct) in
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
  }

let run params =
  (match validate params with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Experiment.run: " ^ msg));
  (let reports = preflight params in
   if not (Report.all_ok reports) then raise (Preflight_failure reports));
  let config =
    {
      MW.default_config with
      seed = params.seed;
      loss = params.loss;
      hop_cost = params.hop_cost;
      profile = profile_of params;
      trace_enabled = params.trace_enabled;
      metrics_enabled = params.metrics_enabled;
      msg_size = params.msg_size;
    }
  in
  let fabric = Fabric.create ~config ~register_extra ~shards:params.shards ~n:params.n () in
  (* The fabric's shared registry leaves out the network counters:
     publish each shard's, labelled like its other series. *)
  Fabric.iter_groups fabric (fun g mw ->
      Dpu_net.Datagram.register_metrics
        ~labels:[ ("group", string_of_int g) ]
        (Dpu_kernel.System.net (MW.system mw))
        (Fabric.metrics fabric));
  (* The structured log is stamped on the VIRTUAL clock: with the same
     params the emitted JSONL bytes are a pure function of the run —
     the determinism tests diff two runs' files verbatim. *)
  let log, close_log =
    match params.log_out with
    | None -> (Dpu_obs.Log.noop, fun () -> ())
    | Some path -> Dpu_obs.Log.to_file ~clock:(fun () -> Fabric.now fabric) path
  in
  Dpu_obs.Log.info log
    ~fields:
      [ ("n", Json.Int params.n);
        ("seed", Json.Int params.seed);
        ("load", Json.Float params.load);
        ("approach", Json.Str (approach_name params.approach));
        ("initial", Json.Str params.initial) ]
    "experiment start";
  (* Faults need one shard ({!validate}), whose group is the whole
     cluster. In the full-stack harness a scheduled [Crash] is
     fail-stop (stack and network endpoint both die); a [Recover] of a
     fail-stopped node is ignored — the process model has no rejoin —
     so it only applies to network-level silences. *)
  (let mw = Fabric.group fabric 0 in
   let system = MW.system mw in
   Dpu_faults.Schedule.arm
     ~on_event:(fun _ what -> Dpu_obs.Log.warn log what)
     ~crash_node:(fun node -> MW.crash mw node)
     ~recover_node:(fun node ->
       if not (Dpu_kernel.Stack.is_crashed (Dpu_kernel.System.stack system node)) then
         Dpu_net.Datagram.recover (Dpu_kernel.System.net system) node)
     (Dpu_kernel.System.net system)
     params.faults);
  Fabric.iter_groups fabric (fun g mw ->
      let size = MW.n mw in
      let clock = Dpu_kernel.System.clock (MW.system mw) in
      (match params.closed_loop with
      | Some k ->
        Load_gen.closed_loop mw ~clients_per_node:k ~size:params.msg_size
          ~until:params.duration_ms ()
      | None ->
        (* The aggregate rate splits by shard size, so every node
           carries the same per-node rate however the partition
           rounded. *)
        let rate_per_s = params.load *. (float_of_int size /. float_of_int params.n) in
        Load_gen.start mw ~rate_per_s ~pattern:params.pattern ~size:params.msg_size
          ~until:params.duration_ms ());
      Option.iter
        (fun protocol ->
          (* "any process triggers the replacement" (§6.2) — pick the
             highest-numbered one still alive at the switch time. *)
          let at = trigger_ms params g in
          let crashed_by_then = Dpu_faults.Schedule.crashed_before params.faults ~time:at in
          let rec pick node =
            if node < 0 then 0
            else if List.mem node crashed_by_then then pick (node - 1)
            else node
          in
          let node = pick (size - 1) in
          Clock.defer clock ~delay:at (fun () ->
              Dpu_obs.Log.info log
                ~fields:
                  [ ("shard", Json.Int g); ("node", Json.Int node);
                    ("target", Json.Str protocol) ]
                "switch trigger";
              MW.change_protocol mw ~node protocol))
        (switch_target params);
      Option.iter
        (fun (time, protocol) ->
          Clock.defer clock ~delay:time (fun () ->
              Dpu_obs.Log.info log
                ~fields:[ ("shard", Json.Int g); ("target", Json.Str protocol) ]
                "consensus switch trigger";
              MW.change_consensus mw ~node:0 protocol))
        params.switch_consensus);
  Fabric.run_until_quiescent ~limit:(params.duration_ms +. params.drain_ms) fabric;
  let per_shard =
    Array.init params.shards (fun g -> shard_of params g (Fabric.group fabric g))
  in
  Array.iteri
    (fun g s ->
      Dpu_obs.Log.info log
        ~fields:
          ([ ("shard", Json.Int g);
             ("sent", Json.Int s.sent);
             ("delivered_everywhere", Json.Int s.delivered_everywhere) ]
          @
          match s.switch_window with
          | Some (lo, hi) ->
            [ ("switch_from_ms", Json.Float lo); ("switch_to_ms", Json.Float hi) ]
          | None -> [])
        "experiment done")
    per_shard;
  close_log ();
  {
    params;
    per_shard;
    metrics = Fabric.metrics fabric;
    max_concurrent_switches = Fabric.max_concurrent_switches fabric ~generation:1;
  }

let check_shard params s =
  let abcast = Dpu_props.Abcast_props.check_all s.collector ~correct:s.correct in
  let protocols =
    params.initial
    :: (match params.switch_to with Some p when p <> params.initial -> [ p ] | Some _ | None -> [])
  in
  let generic =
    if Dpu_kernel.Trace.enabled s.trace then
      Dpu_props.Stack_props.check_generic s.trace ~protocols
        ~nodes:(List.init s.nodes Fun.id)
    else []
  in
  abcast @ generic

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
