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

let planned params =
  (match params.switch_to with
  | Some p -> [ (params.switch_at_ms, 0, p) ]
  | None -> [])
  @ params.switches

let validate p =
  let bad_time =
    List.find_opt
      (fun (_, x) -> not (Float.is_finite x && x >= 0.0))
      ([ ("duration", p.duration_ms); ("drain", p.drain_ms); ("switch time", p.switch_at_ms) ]
      @ List.map (fun (at, _, _) -> ("switch time", at)) p.switches)
  in
  let bad_node = List.find_opt (fun (_, node, _) -> node < 0 || node >= p.n) p.switches in
  match (bad_time, Dpu_faults.Schedule.validate ~n:p.n p.nemesis, bad_node) with
  | _ when p.n < 1 -> Error "need at least one node"
  | _ when not (Float.is_finite p.load && p.load > 0.0) ->
    Error (Printf.sprintf "load must be finite and positive, got %g" p.load)
  | _ when p.msg_size < 0 -> Error (Printf.sprintf "message size must be >= 0, got %d" p.msg_size)
  | _ when Option.fold ~none:false ~some:(fun k -> k < 1) p.batching ->
    Error "batch must be at least 1"
  | Some (name, x), _, _ -> Error (Printf.sprintf "%s must be finite and >= 0, got %g" name x)
  | None, Error msg, _ -> Error ("nemesis: " ^ msg)
  | None, Ok (), Some (_, node, _) -> Error (Printf.sprintf "switch node %d out of range" node)
  | None, Ok (), None -> Ok ()

let run ?metrics_out ?trace_out ?log_out params =
  let traced = trace_out <> None || log_out <> None in
  let switches = planned params in
  match validate params with
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
      let config =
        {
          Node.me;
          n = params.n;
          epoch;
          service = "dpu";
          generation;
          initial = params.initial;
          switches;
          nemesis = params.nemesis;
          load = params.load;
          msg_size = params.msg_size;
          batching = params.batching;
          duration_ms = params.duration_ms;
          drain_ms = params.drain_ms;
          seed = params.seed;
          trace_enabled = traced;
        }
      in
      Node.run ~config ~fd:fds.(me) ~peers ()
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
      (* Nodes the nemesis silences for good make no promises — the
         properties quantify over the nodes that stay correct. *)
      let silenced =
        Dpu_faults.Schedule.crashed_before params.nemesis ~time:infinity
      in
      let correct =
        List.filter
          (fun node -> not (List.mem node silenced))
          (List.init params.n Fun.id)
      in
      (* With the trace recorded, the §3 battery runs over the merged
         trace as on the simulator. *)
      let trace = if traced then Some (merge_traces node_reports) else None in
      let checks =
        Dpu_props.Abcast_props.check_all collector ~correct
        @
        match trace with
        | Some trace ->
          let protocols =
            Dpu_props.Stack_props.protocols ~initial:params.initial
              (List.map (fun (_, _, target) -> target) switches)
          in
          Dpu_props.Stack_props.check_generic trace ~protocols ~nodes:correct
        | None -> []
      in
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
          let events =
            Dpu_core.Spans.of_run ?trace
              ~faults:(params.nemesis, params.duration_ms +. params.drain_ms)
              ~n:params.n collector
          in
          J.to_file path (Dpu_core.Spans.to_json events))
        trace_out;
      Option.iter
        (fun path ->
          Out_channel.with_open_bin path (fun oc ->
              List.iter (Printf.fprintf oc "%s\n")
                (Dpu_core.Spans.log_lines ~faults:params.nemesis (Option.to_list trace))))
        log_out;
      Ok { node_reports; collector; checks })
