open Dpu_kernel
module P = Dpu_protocols
module CI = Dpu_protocols.Consensus_iface
module Step = Dpu_model.Consensus_step

type Payload.t +=
  | Change_consensus of string
  | Consensus_changed of { generation : int; protocol : string }

(* The value wrapper: carries the client's value plus, optionally, a
   protocol change request threaded through the decision. *)
type Payload.t += Wrapped of { value : Payload.t; switch : string option }

(* A change request is gossiped to every stack's layer so that *every*
   subsequent proposal carries the tag: consensus decides one proposal,
   and the switch must be threaded through whichever one wins. *)
type Payload.t += Wire_request of { protocol : string }

let () =
  Payload.register_codec ~tag:"repl-consensus"
    ~encode:(function
      | Change_consensus protocol ->
        Some
          (fun w ->
            Wire.W.u8 w 0;
            Wire.W.str w protocol)
      | Consensus_changed { generation; protocol } ->
        Some
          (fun w ->
            Wire.W.u8 w 1;
            Wire.W.int w generation;
            Wire.W.str w protocol)
      | Wrapped { value; switch } ->
        Some
          (fun w ->
            Wire.W.u8 w 2;
            Wire.W.str w (Payload.encode_exn value);
            Wire.W.opt w Wire.W.str switch)
      | Wire_request { protocol } ->
        Some
          (fun w ->
            Wire.W.u8 w 3;
            Wire.W.str w protocol)
      | _ -> None)
    ~decode:(fun r ->
      match Wire.R.u8 r with
      | 0 -> Change_consensus (Wire.R.str r)
      | 1 ->
        let generation = Wire.R.int r in
        let protocol = Wire.R.str r in
        Consensus_changed { generation; protocol }
      | 2 ->
        let value = Payload.decode (Wire.R.str r) in
        let switch = Wire.R.opt r Wire.R.str in
        Wrapped { value; switch }
      | 3 -> Wire_request { protocol = Wire.R.str r }
      | c -> raise (Wire.Error (Printf.sprintf "repl-consensus: bad case %d" c)))

let protocol_name = "repl.consensus"

let slots = 8

let gen_stride = 1024

let impl_service slot = Service.make (Printf.sprintf "consensus-impl.%d" slot)

let impl_name prot ~slot = Printf.sprintf "%s@%d" prot slot

let spec =
  Spec.make ~service:(Service.name Service.consensus) ~roles:[ "member" ]
    ~kinds:[ Spec.kind ~role:"member" "repl-consensus.request" ]
    ~transitions:
      [
        Spec.t "idle" (Spec.Emit "repl-consensus.request") "changing";
        Spec.t "changing" (Spec.Recv "repl-consensus.request") "idle";
      ]
    ~obligations:[ Spec.Validity; Spec.Exactly_once ]
      (* undecided proposals are re-issued under the new generation, and
         decisions of a superseded generation are ignored (the analogue
         of Algorithm 1's lines 15-18 for the agreement stream) *)
    ~capabilities:
      [
        Spec.Slot_scoped_rounds;
        Spec.Reissue_undelivered;
        Spec.Generation_filter;
      ]
    ()

let header_size = 32

let k_generation : int ref Stack.key = Stack.key ()

let current stack = Stack.state stack k_generation (fun () -> ref 0)

let generation stack = !(current stack)

let install ~registry ~initial ~n stack =
  let me = Stack.node stack in
  let all_impl_services = List.init slots impl_service in
  Stack.add_module stack ~name:protocol_name ~provides:[ Service.consensus ]
    ~requires:(Service.rp2p :: all_impl_services)
    (fun stack _self ->
      let current = current stack in
      let module M = Dpu_obs.Metrics in
      let labels = Stack.labels stack in
      let metrics = Stack.metrics stack in
      let m_proposals = M.counter metrics ~labels "repl_consensus_proposals_total" in
      let m_decisions = M.counter metrics ~labels "repl_consensus_decisions_total" in
      let m_stale = M.counter metrics ~labels "repl_consensus_stale_decisions_total" in
      let m_switches = M.counter metrics ~labels "repl_consensus_switches_total" in
      let m_reissued = M.counter metrics ~labels "repl_consensus_reissued_total" in
      (* Stream epoch -> the step's state. A pending proposal keeps its
         value and weight; a decided instance, the client value. *)
      let streams : (int, (Payload.t * int, Payload.t, string) Step.t) Hashtbl.t =
        Hashtbl.create 4
      in
      let request = ref None in
      let run_step epoch f =
        let step, out = f (Option.value (Hashtbl.find_opt streams epoch) ~default:Step.initial) in
        Hashtbl.replace streams epoch step;
        (step.Step.gen, out)
      in
      let ensure_impl ~protocol ~gen =
        let slot = gen mod slots in
        let svc = impl_service slot in
        (* The slot may hold the module of generation [gen - slots] (long
           drained) or a different implementation: rebind. *)
        Stack.unbind stack svc;
        ignore
          (Registry.instantiate registry stack ~name:(impl_name protocol ~slot)
            : Stack.module_)
      in
      let propose_impl ~epoch ~gen ~k ~value ~weight =
        let iid = { CI.epoch = (epoch * gen_stride) + gen; k } in
        Stack.call stack
          (impl_service (gen mod slots))
          (CI.Propose
             { iid; value = Wrapped { value; switch = !request }; weight = weight + header_size })
      in
      let on_decide iid value =
        let epoch = iid.CI.epoch / gen_stride and k = iid.CI.k in
        let client_value, switch =
          match value with Wrapped { value; switch } -> (value, switch) | other -> (other, None)
        in
        let gen, actions =
          run_step epoch (fun step ->
              Step.decide step ~gen:(iid.CI.epoch mod gen_stride) ~k client_value ~switch)
        in
        List.iter
          (function
            | Step.Stale ->
              (* Line-18 analogue: the instances a superseded generation
                 decided were (or will be) re-decided under the current
                 one. *)
              M.incr m_stale
            | Step.Decided ->
              M.incr m_decisions;
              Stack.indicate stack Service.consensus
                (CI.Decide { iid = { CI.epoch; k }; value = client_value })
            | Step.Switch { generation; protocol } ->
              request := None;
              if epoch = 0 then current := generation;
              ensure_impl ~protocol ~gen:generation;
              M.incr m_switches;
              Stack.app_event stack ~tag:"repl-consensus.switch"
                (fun () -> Printf.sprintf "stream=%d gen=%d prot=%s" epoch generation protocol) ();
              Stack.indicate stack Service.consensus
                (Consensus_changed { generation; protocol })
            | Step.Reissue { k; value = value, weight } ->
              M.incr m_reissued;
              propose_impl ~epoch ~gen ~k ~value ~weight)
          actions
      in
      let on_propose { CI.epoch; k } value weight =
        M.incr m_proposals;
        match run_step epoch (fun step -> Step.propose step ~k (value, weight)) with
        | _, Step.Repeat v ->
          (* Already decided: repeat the indication for the caller. *)
          Stack.indicate stack Service.consensus (CI.Decide { iid = { CI.epoch; k }; value = v })
        | _, Step.Propose_under gen -> propose_impl ~epoch ~gen ~k ~value ~weight
      in
      {
        Stack.default_handlers with
        on_start = (fun () -> ensure_impl ~protocol:initial ~gen:0);
        handle_call =
          (fun _svc p ->
            match p with
            | CI.Propose { iid; value; weight } -> on_propose iid value weight
            | Change_consensus protocol ->
              Stack.app_event stack ~tag:"change-consensus" Fun.id protocol;
              request := Some protocol;
              for dst = 0 to n - 1 do
                if dst <> me then
                  Stack.call stack Service.rp2p
                    (P.Rp2p.Send
                       { dst; size = header_size; payload = Wire_request { protocol } })
              done
            | _ -> ());
        handle_indication =
          (fun svc p ->
            if Service.equal svc Service.rp2p then
              match p with
              | P.Rp2p.Recv { src = _; payload = Wire_request { protocol } } ->
                if !request = None then request := Some protocol
              | _ -> ()
            else begin
              let is_impl_svc =
                List.exists (fun s -> Service.equal s svc) all_impl_services
              in
              if is_impl_svc then
                match p with
                | CI.Decide { iid; value } -> on_decide iid value
                | _ -> ()
            end);
      })

let register_impls system =
  (* Both implementations at every ring slot. *)
  for slot = 0 to slots - 1 do
    P.Consensus_ct.register ~service:(impl_service slot)
      ~name:(impl_name P.Consensus_ct.protocol_name ~slot)
      system;
    P.Consensus_paxos.register ~service:(impl_service slot)
      ~name:(impl_name P.Consensus_paxos.protocol_name ~slot)
      system
  done
