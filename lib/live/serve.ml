module E = Dpu_workload.Experiment
module Collector = Dpu_core.Collector
module Trace = Dpu_kernel.Trace
module Sweep = Dpu_runtime.Sweep
module J = Dpu_obs.Json

type params = {
  n : int;
  load : float;
  duration_ms : float;
  drain_ms : float;
  switch_at_ms : float;
  initial : string;
  switch_to : string option;
  switches : Dpu_faults.Corpus.switch list;
  nemesis : Dpu_faults.Schedule.t;
  msg_size : int;
  seed : int;
  batching : int option;
}

let default =
  {
    n = 3;
    load = 30.0;
    duration_ms = 3_000.0;
    drain_ms = 1_500.0;
    switch_at_ms = 1_500.0;
    initial = Dpu_core.Variants.ct;
    switch_to = Some Dpu_core.Variants.sequencer;
    switches = [];
    nemesis = [];
    msg_size = 1_024;
    seed = 1;
    batching = None;
  }

let of_corpus ?(base = default) (sc : Dpu_faults.Corpus.t) =
  {
    base with
    n = sc.n;
    load = sc.load;
    duration_ms = sc.duration_ms;
    drain_ms = sc.drain_ms;
    initial = sc.initial;
    switch_to = None;
    switches = sc.switches;
    nemesis = sc.schedule;
  }

let to_experiment p =
  {
    E.default with
    n = p.n;
    seed = p.seed;
    load = p.load;
    duration_ms = p.duration_ms;
    drain_ms = p.drain_ms;
    msg_size = p.msg_size;
    initial = p.initial;
    switch_to = p.switch_to;
    switch_at_ms = p.switch_at_ms;
    switches = p.switches;
    batching =
      Option.map (fun k -> { Dpu_protocols.Batcher.max_batch = k; max_delay_ms = 2.0 }) p.batching;
    faults = p.nemesis;
    hop_cost = 0.0;
    pattern = Dpu_workload.Load_gen.Constant;
  }

let supported (p : E.params) =
  let fail fmt = Printf.ksprintf (fun msg -> Error (msg ^ " needs the simulator")) fmt in
  if p.approach <> E.Repl then fail "approach %s" (E.approach_name p.approach)
  else if p.shards <> 1 then fail "shards = %d" p.shards
  else if p.loss <> 0.0 then fail "loss %g" p.loss
  else if p.consensus_layer <> None || p.switch_consensus <> None then
    fail "the consensus layer"
  else if p.closed_loop <> None then fail "a closed loop"
  else Ok ()

type outcome = {
  node_reports : Node.report list;  (** in node order *)
  collector : Collector.t;  (** all processes merged, one time axis *)
  checks : Dpu_props.Report.t list;
}

(* The nodes' kernel traces as one, in (time, node) order; the stable
   sort keeps each node's own order among equal times. *)
let merge_traces reports =
  let entries =
    List.concat_map (fun (r : Node.report) -> r.Node.trace) reports
    |> List.stable_sort (fun (a : Trace.entry) (b : Trace.entry) ->
           match Float.compare a.time b.time with 0 -> Int.compare a.node b.node | c -> c)
  in
  let trace = Trace.create () in
  List.iter (fun (e : Trace.entry) -> Trace.record trace ~time:e.time ~node:e.node e.kind) entries; (* mutation anchor: node trace *)
  trace

let counters_json (c : Dpu_runtime.Transport.counters) =
  J.Obj
    [
      ("sent", J.Int c.Dpu_runtime.Transport.sent);
      ("delivered", J.Int c.Dpu_runtime.Transport.delivered);
      ("dropped", J.Int c.Dpu_runtime.Transport.dropped);
      ("bytes", J.Int c.Dpu_runtime.Transport.bytes);
    ]

let run_experiment ?metrics_out ?trace_out ?log_out (params : E.params) =
  (* Every node records its kernel trace when asked to or when an
     output needs it. *)
  let params =
    { params with trace_enabled = params.trace_enabled || trace_out <> None || log_out <> None }
  in
  match Result.bind (E.validate params) (fun () -> supported params) with
  | Error _ as e -> e
  | Ok () -> (
    let fds =
      Array.init params.n (fun _ -> Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0)
    in
    Array.iter
      (fun fd -> Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)))
      fds;
    let peers = Array.map Unix.getsockname fds in
    let epoch = Unix.gettimeofday () in
    (* Stamped into every envelope: frames from an earlier deployment
       that bound the same ports are shed at the transport. *)
    let generation = Unix.getpid () land 0xffff in
    (* One sweep cell per node, one worker per cell: every node runs in
       its own process at once and hands its report back over the
       sweep's pipe. *)
    let node me =
      Array.iteri (fun i fd -> if i <> me then Unix.close fd) fds;
      Node.run ~params ~me ~epoch ~generation ~fd:fds.(me) ~peers ()
    in
    let reports =
      Fun.protect
        ~finally:(fun () -> Array.iter Unix.close fds)
        (fun () ->
          match Sweep.run ~jobs:params.n ~cells:params.n node with
          | o -> Ok (Array.to_list o.Sweep.results)
          | exception Sweep.Worker_failed { worker; reason } ->
            Error (Printf.sprintf "node %d: %s" worker reason)
          (* A lone node runs in this process, so it raises as itself. *)
          | exception e when params.n = 1 ->
            Error ("node 0: raised: " ^ Printexc.to_string e))
    in
    match reports with
    | Error _ as e -> e
    | Ok node_reports ->
      let collector =
        Collector.merge (List.map (fun (r : Node.report) -> r.Node.collector) node_reports)
      in
      (* With the trace recorded, the §3 battery runs over the merged
         trace as on the simulator. *)
      let trace = if params.trace_enabled then Some (merge_traces node_reports) else None in
      let checks = E.battery params ~nodes:(List.init params.n Fun.id) ?trace collector in
      (match metrics_out with
      | Some path ->
        J.to_file path
          (J.Obj
             [
               ( "nodes",
                 J.List
                   (List.map
                      (fun (r : Node.report) ->
                        J.Obj
                          [
                            ("node", J.Int r.Node.node);
                            ("transport", counters_json r.Node.counters);
                            ("metrics", r.Node.metrics);
                          ])
                      node_reports) );
             ])
      | None -> ());
      Option.iter
        (fun path ->
          ignore
            (Dpu_core.Spans.write_trace path ~trace
               ~faults:(params.faults, params.duration_ms +. params.drain_ms)
               ~n:params.n collector
              : int))
        trace_out;
      Option.iter
        (fun path -> Dpu_core.Spans.write_log path ~faults:params.faults (Option.to_list trace))
        log_out;
      Ok { node_reports; collector; checks })

let run ?metrics_out ?trace_out ?log_out params =
  run_experiment ?metrics_out ?trace_out ?log_out (to_experiment params)
