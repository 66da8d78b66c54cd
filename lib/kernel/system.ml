module Sim = Dpu_engine.Sim
module Datagram = Dpu_net.Datagram
module Clock = Dpu_runtime.Clock

type backend =
  | Simulated of { sim : Sim.t; net : Payload.t Datagram.t }
  | External

type t = {
  backend : backend;
  runtime : Payload.t Dpu_runtime.Runtime.t;
  trace : Trace.t;
  metrics : Dpu_obs.Metrics.t;
  registry : Registry.t;
  stacks : Stack.t option array;
  local : int list;
  group_id : int option;
}

let make ?group_id ~backend ~runtime ~trace ~metrics ~hop_cost ~n ~local () =
  let clock = Dpu_runtime.Runtime.clock runtime in
  let stacks = Array.make n None in
  List.iter
    (fun node ->
      if node < 0 || node >= n then
        invalid_arg (Printf.sprintf "System: local node %d out of range" node);
      stacks.(node) <-
        Some (Stack.create ~clock ~node ?group:group_id ~hop_cost ~trace ~metrics ()))
    local;
  {
    backend;
    runtime;
    trace;
    metrics;
    registry = Registry.create ();
    stacks;
    local;
    group_id;
  }

let of_runtime ?(hop_cost = 0.05) ?(trace_enabled = true)
    ?(metrics = Dpu_obs.Metrics.noop) ?local ~runtime ~n () =
  let trace = Trace.create ~enabled:trace_enabled () in
  let local = match local with None -> List.init n Fun.id | Some l -> l in
  make ~backend:External ~runtime ~trace ~metrics ~hop_cost ~n ~local ()

let of_sim ?group_id ?(hop_cost = 0.05) ?(trace_enabled = true)
    ?(metrics = Dpu_obs.Metrics.noop) ~runtime ~sim ~net ~n () =
  if Datagram.size net <> n then
    invalid_arg "System.of_sim: network size does not match n";
  let trace = Trace.create ~enabled:trace_enabled () in
  make ?group_id
    ~backend:(Simulated { sim; net })
    ~runtime ~trace ~metrics ~hop_cost ~n
    ~local:(List.init n Fun.id) ()

let create ?(seed = 1) ?(loss = 0.0) ?(dup = 0.0) ?(link = Dpu_net.Latency.lan)
    ?(hop_cost = 0.05) ?(trace_enabled = true) ?(metrics = Dpu_obs.Metrics.noop) ~n
    () =
  let sim = Sim.create ~seed () in
  let net = Datagram.create sim ~n ~loss ~dup ~link () in
  Sim.register_metrics sim metrics;
  Datagram.register_metrics net metrics;
  of_sim ~hop_cost ~trace_enabled ~metrics
    ~runtime:(Dpu_runtime.Sim_backend.runtime sim net)
    ~sim ~net ~n ()

let n t = Array.length t.stacks

let group_id t = t.group_id

let runtime t = t.runtime

let clock t = Dpu_runtime.Runtime.clock t.runtime

let transport t = Dpu_runtime.Runtime.transport t.runtime

let rng t = Dpu_runtime.Runtime.rng t.runtime

let net t =
  match t.backend with
  | Simulated { net; _ } -> net
  | External -> invalid_arg "System.net: not a simulated deployment"

let trace t = t.trace

let metrics t = t.metrics

let registry t = t.registry

let local_nodes t = t.local

let stack t i =
  match t.stacks.(i) with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "System.stack: node %d is not local" i)

let iter_stacks t f = Array.iter (function Some s -> f s | None -> ()) t.stacks

let stacks t = Array.of_list (List.filter_map Fun.id (Array.to_list t.stacks))

let crash_node t i =
  (match t.stacks.(i) with Some s -> Stack.crash s | None -> ());
  match t.backend with Simulated { net; _ } -> Datagram.crash net i | External -> ()

let correct_nodes t =
  match t.backend with
  | Simulated { net; _ } -> Datagram.correct_nodes net
  | External ->
    List.filter
      (fun i ->
        match t.stacks.(i) with Some s -> not (Stack.is_crashed s) | None -> false)
      t.local

let now t = Clock.now (clock t)

let sim_exn t =
  match t.backend with
  | Simulated { sim; _ } -> sim
  | External -> invalid_arg "System: not a simulated deployment"

let run_for t d = Sim.run_for (sim_exn t) d

let run_until t time = Sim.run ~until:time (sim_exn t)

let run_until_quiescent ?limit t =
  match limit with
  | None -> Sim.run (sim_exn t)
  | Some l -> Sim.run ~until:l (sim_exn t)
