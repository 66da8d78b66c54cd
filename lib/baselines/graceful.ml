open Dpu_kernel
module Abcast_iface = Dpu_protocols.Abcast_iface
module Repl_iface = Dpu_protocols.Repl_iface
module Rp2p = Dpu_protocols.Rp2p

type Payload.t +=
  | G_data of { gen : int; id : Msg.id; size : int; payload : Payload.t }
  | G_point of { gen : int; protocol : string }  (* cut-over marker, ordered *)
  (* Control messages over rp2p. *)
  | C_prepare of { gen : int; protocol : string; initiator : int }
  | C_prepared of { gen : int; from : int; ok : bool }
  | C_activated of { gen : int; from : int }

let () =
  Payload.register_codec ~tag:"graceful"
    ~encode:(function
      | G_data { gen; id; size; payload } ->
        Some
          (fun w ->
            Wire.W.u8 w 0;
            Wire.W.int w gen;
            Msg.write_id w id;
            Wire.W.int w size;
            Wire.W.str w (Payload.encode_exn payload))
      | G_point { gen; protocol } ->
        Some
          (fun w ->
            Wire.W.u8 w 1;
            Wire.W.int w gen;
            Wire.W.str w protocol)
      | C_prepare { gen; protocol; initiator } ->
        Some
          (fun w ->
            Wire.W.u8 w 2;
            Wire.W.int w gen;
            Wire.W.str w protocol;
            Wire.W.int w initiator)
      | C_prepared { gen; from; ok } ->
        Some
          (fun w ->
            Wire.W.u8 w 3;
            Wire.W.int w gen;
            Wire.W.int w from;
            Wire.W.bool w ok)
      | C_activated { gen; from } ->
        Some
          (fun w ->
            Wire.W.u8 w 4;
            Wire.W.int w gen;
            Wire.W.int w from)
      | _ -> None)
    ~decode:(fun r ->
      match Wire.R.u8 r with
      | 0 ->
        let gen = Wire.R.int r in
        let id = Msg.read_id r in
        let size = Wire.R.int r in
        let payload = Payload.decode (Wire.R.str r) in
        G_data { gen; id; size; payload }
      | 1 ->
        let gen = Wire.R.int r in
        let protocol = Wire.R.str r in
        G_point { gen; protocol }
      | 2 ->
        let gen = Wire.R.int r in
        let protocol = Wire.R.str r in
        let initiator = Wire.R.int r in
        C_prepare { gen; protocol; initiator }
      | 3 ->
        let gen = Wire.R.int r in
        let from = Wire.R.int r in
        let ok = Wire.R.bool r in
        C_prepared { gen; from; ok }
      | 4 ->
        let gen = Wire.R.int r in
        let from = Wire.R.int r in
        C_activated { gen; from }
      | c -> raise (Wire.Error (Printf.sprintf "graceful: bad case %d" c)))

let protocol_name = "graceful.ca"

let header_size = 48
let control_size = 64

(* The last switch's duration is kept in whole microseconds. *)
type counts = { mutable refused : int; mutable switch_us : int }

let k_counts : counts Stack.key = Stack.key ()

let counts stack = Stack.state stack k_counts (fun () -> { refused = 0; switch_us = 0 })

let refused stack = (counts stack).refused

let switch_duration_ms stack = float_of_int (counts stack).switch_us /. 1000.0

let install ~registry ~n stack =
  let me = Stack.node stack in
  Stack.add_module stack ~name:protocol_name ~provides:[ Service.r_abcast ]
    ~requires:[ Service.abcast; Service.rp2p ]
    (fun stack _self ->
      let counts = counts stack in
      let epoch = Abcast_iface.epoch stack in
      let gen = ref 0 in
      let next_local = ref 0 in
      let undelivered : (Msg.id, int * Payload.t) Hashtbl.t = Hashtbl.create 64 in
      let prepared : Stack.module_ option ref = ref None in
      (* Initiator-side barrier state. *)
      let prepare_acks : (int, unit) Hashtbl.t = Hashtbl.create 8 in
      let activate_acks : (int, unit) Hashtbl.t = Hashtbl.create 8 in
      let initiating = ref None in  (* protocol being adapted to *)
      let initiate_started = ref 0.0 in
      let point_sent = ref false in
      let now () = Stack.now stack in
      let abcast ~size payload =
        Stack.call stack Service.abcast (Abcast_iface.Broadcast { size; payload })
      in
      let ctl ~dst payload =
        Stack.call stack Service.rp2p (Rp2p.Send { dst; size = control_size; payload })
      in
      let ctl_all payload =
        for dst = 0 to n - 1 do
          ctl ~dst payload
        done
      in
      let send_data id size payload =
        abcast ~size:(size + header_size) (G_data { gen = !gen; id; size; payload })
      in
      let r_broadcast ~size payload =
        let id = { Msg.origin = me; seq = !next_local } in
        incr next_local;
        Hashtbl.replace undelivered id (size, payload);
        (* Message flow continues during the whole adaptation. *)
        send_data id size payload
      in
      (* Step 1 at every stack: instantiate the new AAC without
         activating it. The AAC may only use services the module
         already has — Registry.create_only never builds providers. *)
      let on_prepare g protocol initiator =
        if g = !gen && !prepared = None then begin
          (* The factory reads the generation at creation time, so the
             epoch cell must be bumped before the new AAC is instantiated —
             otherwise its wire traffic would collide with the active
             component's. *)
          epoch := !gen + 1;
          let m = Registry.create_only registry stack ~name:protocol in
          let unmet =
            List.filter
              (fun svc -> Option.is_none (Stack.bound stack svc))
              (Stack.module_requires m)
          in
          if unmet = [] then begin
            prepared := Some m;
            ctl ~dst:initiator (C_prepared { gen = g; from = me; ok = true })
          end
          else begin
            Stack.remove_module stack m;
            epoch := !gen;
            counts.refused <- counts.refused + 1;
            Stack.app_event stack ~tag:"graceful.refused"
              (fun () -> Printf.sprintf "%s requires %s" protocol
                   (String.concat "," (List.map Service.name unmet))) ();
            ctl ~dst:initiator (C_prepared { gen = g; from = me; ok = false })
          end
        end
      in
      (* Step 3 at every stack: the ordered cut-over marker arrived —
         deactivate the old AAC, activate the new one. *)
      let on_point g protocol =
        if g = !gen then begin
          match !prepared with
          | None -> ()  (* refused locally; initiator aborted anyway *)
          | Some m ->
            prepared := None;
            Stack.unbind stack Service.abcast;
            Stack.bind stack Service.abcast m;
            incr gen;
            Stack.app_event stack ~tag:"graceful.switch"
              (fun () -> Printf.sprintf "gen=%d prot=%s" !gen protocol) ();
            Stack.indicate stack Service.r_abcast
              (Repl_iface.Protocol_changed { generation = !gen; protocol });
            let pending =
              (* dpu-lint: allow hashtbl-iter — folded messages are sorted by id below *)
              Hashtbl.fold (fun id v acc -> (id, v) :: acc) undelivered []
              |> List.sort (fun (a, _) (b, _) -> Msg.id_compare a b)
            in
            List.iter (fun (id, (size, payload)) -> send_data id size payload) pending;
            ctl_all (C_activated { gen = g; from = me })
        end
      in
      let on_data g id payload =
        if g = !gen then begin
          Hashtbl.remove undelivered id;
          Stack.indicate stack Service.r_abcast
            (Repl_iface.R_deliver { origin = id.Msg.origin; payload })
        end
      in
      (* Initiator-side barrier bookkeeping. *)
      let on_prepared g from ok =
        match !initiating with
        | Some protocol when g = !gen ->
          if not ok then begin
            (* One stack refused: abort the adaptation. *)
            initiating := None;
            Hashtbl.reset prepare_acks;
            Stack.app_event stack ~tag:"graceful.aborted" Fun.id protocol
          end
          else begin
            Hashtbl.replace prepare_acks from ();
            if Hashtbl.length prepare_acks = n && not !point_sent then begin
              point_sent := true;
              abcast ~size:header_size (G_point { gen = g; protocol })
            end
          end
        | Some _ | None -> ()
      in
      let on_activated g from =
        if !initiating <> None && g + 1 = !gen then begin
          Hashtbl.replace activate_acks from ();
          if Hashtbl.length activate_acks = n then begin
            initiating := None;
            point_sent := false;
            Hashtbl.reset prepare_acks;
            Hashtbl.reset activate_acks;
            counts.switch_us <- int_of_float ((now () -. !initiate_started) *. 1000.0)
          end
        end
      in
      let change protocol =
        if !initiating = None then begin
          initiating := Some protocol;
          initiate_started := now ();
          point_sent := false;
          Hashtbl.reset prepare_acks;
          Hashtbl.reset activate_acks;
          ctl_all (C_prepare { gen = !gen; protocol; initiator = me })
        end
      in
      {
        Stack.default_handlers with
        handle_call =
          (fun _svc p ->
            match p with
            | Repl_iface.R_broadcast { size; payload } -> r_broadcast ~size payload
            | Repl_iface.Change_abcast protocol -> change protocol
            | _ -> ());
        handle_indication =
          (fun svc p ->
            if Service.equal svc Service.abcast then
              match p with
              | Abcast_iface.Deliver { origin = _; payload = G_data { gen = g; id; size = _; payload } } ->
                on_data g id payload
              | Abcast_iface.Deliver { origin = _; payload = G_point { gen = g; protocol } } ->
                on_point g protocol
              | _ -> ()
            else if Service.equal svc Service.rp2p then
              match p with
              | Rp2p.Recv { src = _; payload = C_prepare { gen = g; protocol; initiator } } ->
                on_prepare g protocol initiator
              | Rp2p.Recv { src = _; payload = C_prepared { gen = g; from; ok } } ->
                on_prepared g from ok
              | Rp2p.Recv { src = _; payload = C_activated { gen = g; from } } ->
                on_activated g from
              | _ -> ());
      })

let spec =
  Spec.make ~service:(Service.name Service.r_abcast) ~roles:[ "member" ]
    ~kinds:
      [
        Spec.kind ~role:"member" "graceful.prepare";
        Spec.kind ~role:"member" "graceful.point";
      ]
    ~transitions:
      [
        Spec.t "idle" (Spec.Emit "graceful.prepare") "preparing";
        Spec.t "preparing" (Spec.Recv "graceful.prepare") "prepared";
        Spec.t "prepared" (Spec.Emit "graceful.point") "cutting";
        Spec.t "cutting" (Spec.Recv "graceful.point") "idle";
      ]
    ~obligations:[ Spec.Total_order; Spec.Exactly_once; Spec.Validity ]
      (* ordered G-point cut-over; undelivered payloads re-issued on the
         prepared alternative, deliveries filtered by generation *)
    ~capabilities:[ Spec.Reissue_undelivered; Spec.Generation_filter ] ()

let register system =
  let registry = System.registry system in
  let n = System.n system in
  Registry.register registry ~name:protocol_name ~provides:[ Service.r_abcast ]
    ~requires:[ Service.abcast; Service.rp2p ] ~spec
    (fun stack -> install ~registry ~n stack)
