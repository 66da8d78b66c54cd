open Dpu_kernel
module Abcast_iface = Dpu_protocols.Abcast_iface
module Repl_iface = Dpu_protocols.Repl_iface

type Payload.t +=
  | M_data of { gen : int; id : Msg.id; size : int; payload : Payload.t }
  | M_switch of { gen : int; protocol : string }

let () =
  Payload.register_codec ~tag:"maestro"
    ~encode:(function
      | M_data { gen; id; size; payload } ->
        Some
          (fun w ->
            Wire.W.u8 w 0;
            Wire.W.int w gen;
            Msg.write_id w id;
            Wire.W.int w size;
            Wire.W.str w (Payload.encode_exn payload))
      | M_switch { gen; protocol } ->
        Some
          (fun w ->
            Wire.W.u8 w 1;
            Wire.W.int w gen;
            Wire.W.str w protocol)
      | _ -> None)
    ~decode:(fun r ->
      match Wire.R.u8 r with
      | 0 ->
        let gen = Wire.R.int r in
        let id = Msg.read_id r in
        let size = Wire.R.int r in
        let payload = Payload.decode (Wire.R.str r) in
        M_data { gen; id; size; payload }
      | 1 ->
        let gen = Wire.R.int r in
        let protocol = Wire.R.str r in
        M_switch { gen; protocol }
      | c -> raise (Wire.Error (Printf.sprintf "maestro: bad case %d" c)))

type config = { drain_ms : float; startup_ms : float }

let default_config = { drain_ms = 150.0; startup_ms = 20.0 }

let protocol_name = "maestro.ss"

let header_size = 48

(* Blocked time accumulates in whole microseconds. *)
type counts = { mutable blocked_us : int; mutable reissued : int }

let k_counts : counts Stack.key = Stack.key ()

let counts stack = Stack.state stack k_counts (fun () -> { blocked_us = 0; reissued = 0 })

let blocked_ms stack = float_of_int (counts stack).blocked_us /. 1000.0

let reissued stack = (counts stack).reissued

(* The "whole stack" that gets replaced: every module providing one of
   the group-communication services below the switch module. *)
let substrate_services =
  [ Service.net; Service.rp2p; Service.fd; Service.consensus;
    Dpu_protocols.Rbcast.service; Service.abcast ]

let install ?(config = default_config) ~registry stack =
  let me = Stack.node stack in
  Stack.add_module stack ~name:protocol_name ~provides:[ Service.r_abcast ]
    ~requires:[ Service.abcast ]
    (fun stack _self ->
      let counts = counts stack in
      let epoch = Abcast_iface.epoch stack in
      let gen = ref 0 in
      let next_local = ref 0 in
      let undelivered : (Msg.id, int * Payload.t) Hashtbl.t = Hashtbl.create 64 in
      let blocked = ref false in
      let blocked_since = ref 0.0 in
      let now () = Stack.now stack in
      let abcast ~size payload =
        Stack.call stack Service.abcast (Abcast_iface.Broadcast { size; payload })
      in
      let send_data id size payload =
        abcast ~size:(size + header_size) (M_data { gen = !gen; id; size; payload })
      in
      let r_broadcast ~size payload =
        let id = { Msg.origin = me; seq = !next_local } in
        incr next_local;
        Hashtbl.replace undelivered id (size, payload);
        (* While blocked, the message stays in [undelivered] and goes
           out with the re-issue pass once the new stack is up. *)
        if not !blocked then send_data id size payload
      in
      let teardown () =
        let victims =
          List.filter
            (fun m ->
              List.exists
                (fun svc ->
                  List.exists (Service.equal svc) (Stack.module_provides m))
                substrate_services)
            (Stack.modules stack)
        in
        List.iter (Stack.remove_module stack) victims
      in
      let rebuild protocol =
        teardown ();
        incr gen;
        epoch := !gen;
        ignore (Registry.instantiate registry stack ~name:protocol : Stack.module_);
        (* Give the fresh stack a warm-up before resuming traffic. *)
        ignore
          (Stack.after stack ~delay:config.startup_ms (fun () ->
               blocked := false;
               counts.blocked_us <-
                 counts.blocked_us + int_of_float ((now () -. !blocked_since) *. 1000.0);
               Stack.app_event stack ~tag:"maestro.switch"
                 (fun () -> Printf.sprintf "gen=%d prot=%s" !gen protocol) ();
               Stack.indicate stack Service.r_abcast
                 (Repl_iface.Protocol_changed { generation = !gen; protocol });
               let pending =
                 (* dpu-lint: allow hashtbl-iter — folded messages are sorted by id below *)
                 Hashtbl.fold (fun id v acc -> (id, v) :: acc) undelivered []
                 |> List.sort (fun (a, _) (b, _) -> Msg.id_compare a b)
               in
               counts.reissued <- counts.reissued + List.length pending;
               List.iter (fun (id, (size, payload)) -> send_data id size payload) pending)
            : Dpu_runtime.Clock.timer)
      in
      let on_switch g protocol =
        if g = !gen && not !blocked then begin
          (* Finalise: block the application, stop delivering, and let
             in-flight traffic (including this switch message at slower
             stacks) drain before destroying the old stack. *)
          blocked := true;
          blocked_since := now ();
          ignore
            (Stack.after stack ~delay:config.drain_ms (fun () -> rebuild protocol)
              : Dpu_runtime.Clock.timer)
        end
      in
      let on_data g id payload =
        (* Deliveries ordered after the switch point (or from a stale
           generation) are discarded at every stack alike; senders
           re-issue them through the new stack. *)
        if g = !gen && not !blocked then begin
          Hashtbl.remove undelivered id;
          Stack.indicate stack Service.r_abcast
            (Repl_iface.R_deliver { origin = id.Msg.origin; payload })
        end
      in
      {
        Stack.default_handlers with
        handle_call =
          (fun _svc p ->
            match p with
            | Repl_iface.R_broadcast { size; payload } -> r_broadcast ~size payload
            | Repl_iface.Change_abcast protocol ->
              abcast ~size:header_size (M_switch { gen = !gen; protocol })
            | _ -> ());
        handle_indication =
          (fun svc p ->
            if Service.equal svc Service.abcast then
              match p with
              | Abcast_iface.Deliver { origin = _; payload = M_data { gen = g; id; size = _; payload } } ->
                on_data g id payload
              | Abcast_iface.Deliver { origin = _; payload = M_switch { gen = g; protocol } } ->
                on_switch g protocol
              | _ -> ());
      })

let spec =
  Spec.make ~service:(Service.name Service.r_abcast) ~roles:[ "member" ]
    ~kinds:[ Spec.kind ~role:"member" "maestro.switch" ]
    ~transitions:
      [
        Spec.t "idle" (Spec.Emit "maestro.switch") "switching";
        Spec.t "switching" (Spec.Recv "maestro.switch") "idle";
      ]
    ~obligations:[ Spec.Total_order; Spec.Exactly_once; Spec.Validity ]
      (* blocks sends while the substrate is torn down and rebuilt, then
         re-issues what the old stack never delivered *)
    ~capabilities:
      [
        Spec.Quiesce_before_switch;
        Spec.Reissue_undelivered;
        Spec.Generation_filter;
      ]
    ()

let register ?config system =
  let registry = System.registry system in
  Registry.register registry ~name:protocol_name ~provides:[ Service.r_abcast ]
    ~requires:[ Service.abcast ] ~spec
    (fun stack -> install ?config ~registry stack)
