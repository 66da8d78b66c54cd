open Dpu_kernel
module Abcast_iface = Dpu_protocols.Abcast_iface
module Repl_iface = Dpu_protocols.Repl_iface
module Step = Dpu_model.Repl_step

type Payload.t +=
  | A_data of { sn : int; id : Msg.id; size : int; payload : Payload.t }
  | A_new of { sn : int; protocol : string }

let () =
  Payload.register_codec ~tag:"repl"
    ~encode:(function
      | A_data { sn; id; size; payload } ->
        Some
          (fun w ->
            Wire.W.u8 w 0;
            Wire.W.int w sn;
            Msg.write_id w id;
            Wire.W.int w size;
            Wire.W.str w (Payload.encode_exn payload))
      | A_new { sn; protocol } ->
        Some
          (fun w ->
            Wire.W.u8 w 1;
            Wire.W.int w sn;
            Wire.W.str w protocol)
      | _ -> None)
    ~decode:(fun r ->
      match Wire.R.u8 r with
      | 0 ->
        let sn = Wire.R.int r in
        let id = Msg.read_id r in
        let size = Wire.R.int r in
        let payload = Payload.decode (Wire.R.str r) in
        A_data { sn; id; size; payload }
      | 1 ->
        let sn = Wire.R.int r in
        let protocol = Wire.R.str r in
        A_new { sn; protocol }
      | c -> raise (Wire.Error (Printf.sprintf "repl: bad case %d" c)))

let protocol_name = "repl.abcast"

let header_size = 48

(* The generation handed to the ABcast module in force. *)
let generation = Abcast_iface.current_epoch

(* A superseded generation's module, kept until it can be retired. *)
type old = { gen : int; module_ : Stack.module_ }

let install ~registry ~n stack =
  let me = Stack.node stack in
  Stack.add_module stack ~name:protocol_name ~provides:[ Service.r_abcast ]
    ~requires:[ Service.abcast ]
    (fun stack _self ->
      let module M = Dpu_obs.Metrics in
      let labels = Stack.labels stack in
      let metrics = Stack.metrics stack in
      let m_intercepted = M.counter metrics ~labels "repl_intercepted_calls_total" in
      let m_reissued = M.counter metrics ~labels "repl_reissued_total" in
      let m_switches = M.counter metrics ~labels "repl_switches_total" in
      let m_stale = M.counter metrics ~labels "repl_stale_changes_total" in
      (* Algorithm 1, lines 1-4: seqNumber and undelivered live in the
         step; an undelivered message keeps its size and payload. *)
      let st = ref Step.initial in
      M.register_int metrics ~labels "repl_undelivered" (fun () ->
          List.length !st.undelivered);
      let next_local = ref 0 in
      let abcast (entry : _ Step.entry) =
        let size, payload =
          match entry with
          | Data { sn; id; v = size, payload } ->
            (size + header_size, A_data { sn; id; size; payload })
          | New { sn; protocol } -> (header_size, A_new { sn; protocol })
        in
        Stack.call stack Service.abcast (Abcast_iface.Broadcast { size; payload })
      in
      (* Retirement, decided from the adeliveries alone. Per member, the
         highest [sn] adelivered from it ([max_int] for this stack): a
         member seen past g has left generation g, since it tags an
         entry with the generation it is in. [left] is the lowest of
         them, so every other member has left each generation below it.
         A superseded generation's module drains until this stack and
         every other member have left it; then no member is owed a
         generation-g delivery, and the module is removed, whatever its
         protocol. *)
      let seen = Array.make n 0 in
      seen.(me) <- max_int;
      let left = ref (Array.fold_left Int.min max_int seen) in
      let superseded = ref [] in
      let retire () =
        superseded :=
          List.filter
            (fun old ->
              let ready =
                old.gen < !st.sn
                && old.gen < !left (* mutation anchor: others past *)
              in
              if ready then Stack.remove_module stack old.module_;
              not ready)
            !superseded
      in
      (* Lines 10-21: Adeliver(entry) is the step; its effects run here,
         in the order of Algorithm 1. *)
      let deliver ~origin entry =
        let sn = match entry with Step.Data { sn; _ } | Step.New { sn; _ } -> sn in
        if origin >= 0 && origin < n && sn > seen.(origin) then begin
          seen.(origin) <- sn;
          left := Array.fold_left Int.min max_int seen
        end;
        let after, actions = Step.deliver ~equal:Msg.id_equal !st entry in
        st := after;
        List.iter
          (function
            | Step.R_deliver { id; v = _, payload } ->
              Stack.indicate stack Service.r_abcast
                (Repl_iface.R_deliver { origin = id.Msg.origin; payload })
            | Step.Stale_change { sn; protocol } ->
              (* A change ABcast before its requester had switched:
                 applying it would break agreement ([Dpu_model.Algo1]
                 finds the counterexample). The requester can simply
                 re-issue it. *)
              M.incr m_stale;
              Stack.app_event stack ~tag:"repl.stale-change"
                (fun () -> Printf.sprintf "sn=%d current=%d prot=%s" sn after.sn protocol) ()
            | Step.Switch { generation; protocol } ->
              let gen = generation - 1 in
              Option.iter
                (fun module_ -> superseded := !superseded @ [ { gen; module_ } ])
                (Stack.bound stack Service.abcast);
              Stack.unbind stack Service.abcast;
              (* Pass the new generation to the factory (epochs keep the
                 old and new protocol's wire traffic disjoint), then
                 create and bind the new module — lines 13-14 and 22-28. *)
              Abcast_iface.epoch stack := generation; (* mutation anchor: epoch *)
              ignore (Registry.instantiate registry stack ~name:protocol : Stack.module_);
              M.incr m_switches;
              Stack.app_event stack ~tag:"repl.switch"
                (fun () -> Printf.sprintf "gen=%d prot=%s" generation protocol) ();
              Stack.indicate stack Service.r_abcast
                (Repl_iface.Protocol_changed { generation; protocol })
            | Step.Reissue entry ->
              (* Lines 15-16, in id order. *)
              M.incr m_reissued;
              abcast entry)
          actions;
        retire ()
      in
      {
        Stack.default_handlers with
        handle_call =
          (fun _svc p ->
            match p with
            | Repl_iface.R_broadcast { size; payload } ->
              (* Lines 7-9: rABcast(m). *)
              M.incr m_intercepted;
              let id = { Msg.origin = me; seq = !next_local } in
              incr next_local;
              let after, entry = Step.broadcast !st ~id (size, payload) in
              st := after;
              abcast entry
            | Repl_iface.Change_abcast protocol ->
              (* Lines 5-6: changeABcast(prot). *)
              M.incr m_intercepted;
              abcast (Step.change !st protocol)
            | _ -> ());
        handle_indication =
          (fun svc p ->
            if Service.equal svc Service.abcast then
              match p with
              | Abcast_iface.Deliver { origin; payload = A_data { sn; id; size; payload } } ->
                deliver ~origin (Data { sn; id; v = (size, payload) })
              | Abcast_iface.Deliver { origin; payload = A_new { sn; protocol } } ->
                deliver ~origin (New { sn; protocol })
              | _ -> ());
      })

let spec =
  Spec.make ~service:(Service.name Service.r_abcast) ~roles:[ "member" ]
    ~kinds:[ Spec.kind ~role:"member" "repl.change" ]
    ~transitions:
      [
        Spec.t "idle" (Spec.Emit "repl.change") "changing";
        Spec.t "changing" (Spec.Recv "repl.change") "idle";
      ]
    ~obligations:[ Spec.Total_order; Spec.Exactly_once; Spec.Validity ]
      (* Algorithm 1, lines 15-18: undelivered payloads are re-issued on
         the successor, and deliveries are filtered by generation *)
    ~capabilities:[ Spec.Reissue_undelivered; Spec.Generation_filter ] ()

let register system =
  let registry = System.registry system in
  Registry.register registry ~name:protocol_name ~provides:[ Service.r_abcast ]
    ~requires:[ Service.abcast ] ~spec
    (fun stack -> install ~registry ~n:(System.n system) stack)
