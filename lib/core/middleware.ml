open Dpu_kernel
module Abcast_iface = Dpu_protocols.Abcast_iface
module Repl_iface = Dpu_protocols.Repl_iface

type config = {
  seed : int;
  loss : float;
  hop_cost : float;
  profile : Stack_builder.profile;
  trace_enabled : bool;
  metrics_enabled : bool;
  msg_size : int;
  faults : Dpu_faults.Schedule.t;
}

let default_config =
  {
    seed = 1;
    loss = 0.0;
    hop_cost = 0.05;
    profile = Stack_builder.default_profile;
    trace_enabled = true;
    metrics_enabled = false;
    msg_size = 4096;
    faults = [];
  }

type t = {
  config : config;
  system : System.t;
  collector : Collector.t;
  metrics : Dpu_obs.Metrics.t;
  m_sends : Dpu_obs.Metrics.counter;
  next_seq : int array;  (* per-node app message counter *)
  shim : Payload.t Dpu_faults.Fault_transport.t option;
}

let build ?shim ~config ?register_extra system =
  let metrics = System.metrics system in
  let collector = Collector.create () in
  Stack_builder.build ~collector ?register_extra ~profile:config.profile system;
  (* On a fabric's shared registry the group label keeps each group's
     app counter its own series. *)
  let labels =
    match System.group_id system with
    | Some g -> [ ("group", string_of_int g) ]
    | None -> []
  in
  {
    config;
    system;
    collector;
    metrics;
    m_sends = Dpu_obs.Metrics.counter metrics ~labels "app_sends_total";
    next_seq = Array.make (System.n system) 0;
    shim;
  }

let of_system ?(config = default_config) ?register_extra system =
  build ~config ?register_extra system

(* The one place a fault schedule meets a simulated cluster: the
   group's transport goes behind the same shim the live backend uses,
   so a schedule means the same thing on both. Without a schedule the
   runtime is used as given. *)
let of_sim ?group_id ?(config = default_config) ?register_extra ~metrics ~runtime ~sim
    ~net () =
  let module FT = Dpu_faults.Fault_transport in
  let runtime, shim =
    match config.faults with
    | [] -> (runtime, None)
    | schedule ->
      let shim =
        FT.create ~seed:(config.seed + 0x5eed) ~schedule
          ~clock:runtime.Dpu_runtime.Runtime.clock runtime.Dpu_runtime.Runtime.transport
      in
      ({ runtime with Dpu_runtime.Runtime.transport = FT.transport shim }, Some shim)
  in
  let system =
    System.of_sim ?group_id ~hop_cost:config.hop_cost ~trace_enabled:config.trace_enabled
      ~metrics ~runtime ~sim ~net ~n:(Dpu_net.Datagram.size net) ()
  in
  build ?shim ~config ?register_extra system

(* Built step by step as [System.create] builds, so a run without a
   fault schedule is the same simulation. *)
let create ?(config = default_config) ?register_extra ~n () =
  let metrics =
    if config.metrics_enabled then Dpu_obs.Metrics.create () else Dpu_obs.Metrics.noop
  in
  let sim = Dpu_engine.Sim.create ~seed:config.seed () in
  let net = Dpu_net.Datagram.create sim ~n ~loss:config.loss () in
  Dpu_engine.Sim.register_metrics sim metrics;
  Dpu_net.Datagram.register_metrics net metrics;
  of_sim ~config ?register_extra ~metrics
    ~runtime:(Dpu_runtime.Sim_backend.runtime sim net) ~sim ~net ()

let config t = t.config

let n t = System.n t.system

let group_id t = System.group_id t.system

let system t = t.system

let collector t = t.collector

let metrics t = t.metrics

let now t = System.now t.system

let has_layer t = Option.is_some t.config.profile.Stack_builder.layer

let app_service t = if has_layer t then Service.r_abcast else Service.abcast

let broadcast t ~node ?size body =
  let size = match size with Some s -> s | None -> t.config.msg_size in
  let m = Msg.make ~origin:node ~seq:t.next_seq.(node) ~size body in
  t.next_seq.(node) <- t.next_seq.(node) + 1;
  let stack = System.stack t.system node in
  if Stack.is_crashed stack then m
  else begin
  Dpu_obs.Metrics.incr t.m_sends;
  Collector.record_send t.collector ~node ~id:m.id ~time:(now t);
  Stack.app_event stack ~tag:"abcast" Msg.id_to_string m.id;
  (if has_layer t then
     Stack.call stack Service.r_abcast
       (Repl_iface.R_broadcast { size; payload = App_msg.App m })
   else
     Stack.call stack Service.abcast
       (Abcast_iface.Broadcast { size; payload = App_msg.App m }));
  m
  end

(* Application callbacks are tiny passive modules: they require the
   observed service and forward matching indications. *)
let add_listener t ~node ~name ~service f =
  let stack = System.stack t.system node in
  ignore
    (Stack.add_module stack ~name ~provides:[] ~requires:[ service ]
       (fun _stack _self ->
         { Stack.default_handlers with handle_indication = f })
      : Stack.module_)

let subscribe t ~node callback =
  let service = app_service t in
  let layered = has_layer t in
  add_listener t ~node ~name:"app.subscriber" ~service (fun svc p ->
      if Service.equal svc service then
        match p with
        | Repl_iface.R_deliver { origin = _; payload = App_msg.App m } when layered ->
          callback m
        | Abcast_iface.Deliver { origin = _; payload = App_msg.App m } when not layered ->
          callback m
        | _ -> ())

let change_protocol t ~node protocol =
  if not (has_layer t) then
    invalid_arg "Middleware.change_protocol: profile has no replacement layer";
  let stack = System.stack t.system node in
  Stack.app_event stack ~tag:"change-abcast" Fun.id protocol;
  Stack.call stack Service.r_abcast (Repl_iface.Change_abcast protocol)

let on_protocol_change t ~node callback =
  add_listener t ~node ~name:"app.switch-listener" ~service:Service.r_abcast
    (fun svc p ->
      if Service.equal svc Service.r_abcast then
        match p with
        | Repl_iface.Protocol_changed { generation; protocol } ->
          callback ~generation ~protocol
        | _ -> ())

let change_consensus t ~node protocol =
  if Option.is_none t.config.profile.Stack_builder.consensus_layer then
    invalid_arg "Middleware.change_consensus: profile has no consensus layer";
  let stack = System.stack t.system node in
  Stack.call stack Service.consensus (Repl_consensus.Change_consensus protocol)

let join t ~node target =
  Stack.call (System.stack t.system node) Service.gm (Dpu_protocols.Gm.Join target)

let leave t ~node target =
  Stack.call (System.stack t.system node) Service.gm (Dpu_protocols.Gm.Leave target)

let on_view t ~node callback =
  add_listener t ~node ~name:"app.view-listener" ~service:Service.gm (fun svc p ->
      if Service.equal svc Service.gm then
        match p with
        | Dpu_protocols.Gm.View v -> callback v
        | _ -> ())

let crash t node = System.crash_node t.system node

let fault_stats t =
  match t.shim with
  | None -> Dpu_faults.Fault_transport.no_stats
  | Some shim -> Dpu_faults.Fault_transport.stats shim

let run_for t d = System.run_for t.system d

let run_until_quiescent ?limit t = System.run_until_quiescent ?limit t.system

let latency_series t = Collector.latency_series t.collector

let switch_window t ~generation = Collector.switch_window t.collector ~generation
