open Dpu_kernel
module Abcast_iface = Dpu_protocols.Abcast_iface
module Repl_iface = Dpu_protocols.Repl_iface

type mode =
  | Layered
  | Direct

let module_name = "monitor"

let observed_service = function
  | Layered -> Service.r_abcast
  | Direct -> Service.abcast

let requires mode = [ observed_service mode ]

let install ~collector ~mode stack =
  let node = Stack.node stack in
  let service = observed_service mode in
  Stack.add_module stack ~name:module_name ~provides:[] ~requires:[ service ]
    (fun stack _self ->
      let now () = Stack.now stack in
      let m_delivers =
        Dpu_obs.Metrics.counter (Stack.metrics stack) ~labels:(Stack.labels stack)
          "app_delivers_total"
      in
      let deliver (m : Msg.t) =
        Dpu_obs.Metrics.incr m_delivers;
        Stack.app_event stack ~tag:"adeliver" Msg.id_to_string m.id;
        Collector.record_deliver collector ~node ~id:m.id ~time:(now ())
      in
      {
        Stack.default_handlers with
        handle_indication =
          (fun svc p ->
            if Service.equal svc service then
              match (mode, p) with
              | Layered, Repl_iface.R_deliver { origin = _; payload = App_msg.App m } ->
                deliver m
              | Layered, Repl_iface.Protocol_changed { generation; protocol = _ } ->
                Collector.record_switch collector ~node ~generation ~time:(now ())
              | Direct, Abcast_iface.Deliver { origin = _; payload = App_msg.App m } ->
                deliver m
              | (Layered | Direct), _ -> ());
      })
