module Fabric = Dpu_core.Fabric
module MW = Dpu_core.Middleware
module Collector = Dpu_core.Collector
module Series = Dpu_engine.Series
module Metrics = Dpu_obs.Metrics
module Json = Dpu_obs.Json
module Clock = Dpu_runtime.Clock
module System = Dpu_kernel.System

type rolling = {
  to_protocol : string;
  start_ms : float;
  stagger_ms : float;
}

let default_rolling =
  { to_protocol = Dpu_core.Variants.sequencer; start_ms = 200.0; stagger_ms = 0.25 }

type params = {
  n : int;
  shards : int;
  seed : int;
  msg_size : int;
  load_per_s : float;
  warmup_ms : float;
  duration_ms : float;
  drain_ms : float;
  closed_loop : int option;
  rolling : rolling option;
  loss : float;
}

let default =
  {
    n = 15;
    shards = 4;
    seed = 1;
    msg_size = 512;
    load_per_s = 200.0;
    warmup_ms = 200.0;
    duration_ms = 2_000.0;
    drain_ms = 3_000.0;
    closed_loop = None;
    rolling = None;
    loss = 0.0;
  }

type shard_result = {
  shard : int;
  nodes : int;
  sent : int;
  delivered : int;
  measured : int;
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;
  mean_ms : float;
  generation : int;
  window : (float * float) option;
  blocked_ms : float;
  undelivered : int;
  props_ok : bool;
  violations : string list;
}

type result = {
  params : params;
  per_shard : shard_result list;
  max_concurrent_switches : int;
  drained_at_ms : float;
  all_ok : bool;
}

let make_fabric p =
  let config =
    { MW.default_config with seed = p.seed; msg_size = p.msg_size; loss = p.loss }
  in
  Fabric.create ~config ~shards:p.shards ~n:p.n ()

(* Offered load splits by shard size, so every node system-wide carries
   the same per-node rate regardless of how the ring rounded the
   partition. *)
let start_load p fabric =
  Fabric.iter_groups fabric (fun g mw ->
      match p.closed_loop with
      | Some k ->
        Load_gen.closed_loop mw ~clients_per_node:k ~size:p.msg_size
          ~until:p.duration_ms ()
      | None ->
        let rate =
          p.load_per_s *. float_of_int (Fabric.group_size fabric g) /. float_of_int p.n
        in
        Load_gen.start mw ~rate_per_s:rate ~pattern:Load_gen.Constant
          ~size:p.msg_size ~until:p.duration_ms ())

(* Each shard's trigger is deferred on its own group clock, so the
   rolling wave is part of the same deterministic schedule as the
   load. *)
let start_rolling fabric (r : rolling) =
  Fabric.iter_groups fabric (fun g mw ->
      let clock = System.clock (MW.system mw) in
      let at = r.start_ms +. (r.stagger_ms *. float_of_int g) in
      Clock.defer clock ~delay:at (fun () ->
          MW.change_protocol mw ~node:0 r.to_protocol))

let shard_result_of p fabric g =
  let mw = Fabric.group fabric g in
  let nodes = Fabric.group_size fabric g in
  let collector = MW.collector mw in
  (* Bucket estimates from a private histogram: the same bucket rule and
     min/max clamps as every quantile in a metrics snapshot. *)
  let latency = Metrics.histogram (Metrics.create ()) "latency_ms" in
  List.iter
    (fun (pt : Series.point) -> Metrics.observe latency pt.value)
    (Series.between (MW.latency_series mw) ~lo:p.warmup_ms ~hi:infinity);
  let measured = Metrics.histogram_count latency in
  let q x = Option.value ~default:0.0 (Metrics.histogram_quantile latency x) in
  let mean_ms =
    if measured = 0 then 0.0
    else Metrics.histogram_sum latency /. float_of_int measured
  in
  let generation = Fabric.generation fabric ~shard:g in
  let window =
    if generation = 0 then None
    else Fabric.switch_window fabric ~shard:g ~generation
  in
  let undelivered =
    List.length (Collector.undelivered_ids collector ~expected_copies:nodes)
  in
  let reports =
    Dpu_props.Abcast_props.check_all collector ~correct:(List.init nodes Fun.id)
  in
  let violations =
    List.concat_map (fun (r : Dpu_props.Report.t) -> r.violations) reports
  in
  {
    shard = g;
    nodes;
    sent = Collector.send_count collector;
    delivered = List.length (Collector.delivers_of collector ~node:0);
    measured;
    p50_ms = q 0.5;
    p99_ms = q 0.99;
    p999_ms = q 0.999;
    mean_ms;
    generation;
    window;
    blocked_ms = Experiment.blocked_ms mw;
    undelivered;
    props_ok = Dpu_props.Report.all_ok reports;
    violations;
  }

let run ?(params = default) () =
  let p = params in
  let fabric = make_fabric p in
  start_load p fabric;
  Option.iter (start_rolling fabric) p.rolling;
  (* The stacks' periodic timers (failure-detector beats every 20 ms on
     every node) never stop, so "quiescent" is really the drain horizon:
     long enough for every in-flight message to come out, short enough
     that 63 nodes' worth of idle heartbeats stays cheap. *)
  Fabric.run_until_quiescent ~limit:(p.duration_ms +. p.drain_ms) fabric;
  let drained_at_ms = Fabric.now fabric in
  let per_shard = List.init p.shards (shard_result_of p fabric) in
  let max_concurrent_switches =
    match p.rolling with
    | None -> 0
    | Some _ -> Fabric.max_concurrent_switches fabric ~generation:1
  in
  let shard_ok s =
    s.props_ok && s.undelivered = 0
    && s.blocked_ms = 0.0
    && (p.rolling = None || s.generation >= 1)
  in
  {
    params = p;
    per_shard;
    max_concurrent_switches;
    drained_at_ms;
    all_ok = List.for_all shard_ok per_shard;
  }

let csv_header =
  [
    "shard"; "nodes"; "sent"; "delivered"; "measured"; "p50_ms"; "p99_ms";
    "p999_ms"; "mean_ms"; "generation"; "window_start_ms"; "window_end_ms";
    "blocked_ms"; "undelivered"; "props_ok";
  ]

let csv_rows result =
  List.map
    (fun s ->
      let w_lo, w_hi = match s.window with Some (a, b) -> (a, b) | None -> (nan, nan) in
      [
        string_of_int s.shard;
        string_of_int s.nodes;
        string_of_int s.sent;
        string_of_int s.delivered;
        string_of_int s.measured;
        Printf.sprintf "%.3f" s.p50_ms;
        Printf.sprintf "%.3f" s.p99_ms;
        Printf.sprintf "%.3f" s.p999_ms;
        Printf.sprintf "%.3f" s.mean_ms;
        string_of_int s.generation;
        Printf.sprintf "%.3f" w_lo;
        Printf.sprintf "%.3f" w_hi;
        Printf.sprintf "%.3f" s.blocked_ms;
        string_of_int s.undelivered;
        string_of_bool s.props_ok;
      ])
    result.per_shard

let write_csv path result = Dpu_obs.Csv.to_file path ~header:csv_header (csv_rows result)

let json_of_shard s =
  Json.Obj
    ([
       ("shard", Json.Int s.shard);
       ("nodes", Json.Int s.nodes);
       ("sent", Json.Int s.sent);
       ("delivered", Json.Int s.delivered);
       ("measured", Json.Int s.measured);
       ("p50_ms", Json.Float s.p50_ms);
       ("p99_ms", Json.Float s.p99_ms);
       ("p999_ms", Json.Float s.p999_ms);
       ("mean_ms", Json.Float s.mean_ms);
       ("generation", Json.Int s.generation);
       ("blocked_ms", Json.Float s.blocked_ms);
       ("undelivered", Json.Int s.undelivered);
       ("props_ok", Json.Bool s.props_ok);
     ]
    @ (match s.window with
      | None -> []
      | Some (lo, hi) ->
        [ ("window_start_ms", Json.Float lo); ("window_end_ms", Json.Float hi) ])
    @
    match s.violations with
    | [] -> []
    | v -> [ ("violations", Json.List (List.map (fun x -> Json.Str x) v)) ])

let to_json result =
  let p = result.params in
  Json.Obj
    [
      ( "params",
        Json.Obj
          ([
             ("n", Json.Int p.n);
             ("shards", Json.Int p.shards);
             ("seed", Json.Int p.seed);
             ("msg_size", Json.Int p.msg_size);
             ("load_per_s", Json.Float p.load_per_s);
             ("warmup_ms", Json.Float p.warmup_ms);
             ("duration_ms", Json.Float p.duration_ms);
             ("loss", Json.Float p.loss);
           ]
          @ (match p.closed_loop with
            | None -> []
            | Some k -> [ ("closed_loop_clients", Json.Int k) ])
          @
          match p.rolling with
          | None -> []
          | Some r ->
            [
              ( "rolling",
                Json.Obj
                  [
                    ("to_protocol", Json.Str r.to_protocol);
                    ("start_ms", Json.Float r.start_ms);
                    ("stagger_ms", Json.Float r.stagger_ms);
                  ] );
            ]) );
      ("shards", Json.List (List.map json_of_shard result.per_shard));
      ("max_concurrent_switches", Json.Int result.max_concurrent_switches);
      ("drained_at_ms", Json.Float result.drained_at_ms);
      ("all_ok", Json.Bool result.all_ok);
    ]
