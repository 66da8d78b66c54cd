open Dpu_kernel

type item = { id : Msg.id; size : int; payload : Payload.t }

type Payload.t += Batch of item list

type Payload.t += Disseminate of { epoch : int; item : item }

let () =
  let write_item w { id; size; payload } =
    Msg.write_id w id;
    Wire.W.int w size;
    Wire.W.str w (Payload.encode_exn payload)
  in
  let read_item r =
    let id = Msg.read_id r in
    let size = Wire.R.int r in
    let payload = Payload.decode (Wire.R.str r) in
    { id; size; payload }
  in
  Payload.register_codec ~tag:"ct-abcast"
    ~encode:(function
      | Batch items -> Some (fun w -> Wire.W.u8 w 0; Wire.W.list w write_item items)
      | Disseminate { epoch; item } ->
        Some
          (fun w ->
            Wire.W.u8 w 1;
            Wire.W.int w epoch;
            write_item w item)
      | _ -> None)
    ~decode:(fun r ->
      match Wire.R.u8 r with
      | 0 -> Batch (Wire.R.list r read_item)
      | 1 ->
        let epoch = Wire.R.int r in
        let item = read_item r in
        Disseminate { epoch; item }
      | c -> raise (Wire.Error (Printf.sprintf "ct-abcast: bad case %d" c)))

let () =
  Abcast_iface.register_wire_epoch (function
    | Rbcast.Deliver { payload = Disseminate { epoch; _ }; _ } -> Some epoch
    | Consensus_iface.Decide { iid = { epoch; _ }; _ } -> Some epoch
    | _ -> None)

let protocol_name = "abcast.ct"

let header_size = 64

let install ?batching stack =
  let me = Stack.node stack in
  let current = Abcast_iface.epoch stack in
  let epoch = !current in
  Stack.add_module stack ~name:protocol_name
    ~provides:[ Service.abcast ]
    ~requires:[ Service.consensus; Rbcast.service ]
    (fun stack _self ->
      let next_seq = ref 0 in
      let unordered : (Msg.id, item) Hashtbl.t = Hashtbl.create 64 in
      let delivered = Seq_set.create () in
      let is_delivered (id : Msg.id) = Seq_set.mem delivered ~src:id.origin id.seq in
      let decisions : (int, item list) Hashtbl.t = Hashtbl.create 16 in
      let next_k = ref 0 in
      let proposed = ref false in
      let cap =
        match batching with
        | Some (cfg : Batcher.config) -> cfg.Batcher.max_batch
        | None -> 1
      in
      let propose_now () =
        if (not !proposed) && Hashtbl.length unordered > 0 then begin
          let items =
            (* dpu-lint: allow hashtbl-iter — folded items are sorted by id below *)
            Hashtbl.fold (fun _ item acc -> item :: acc) unordered []
            |> List.sort (fun a b -> Msg.id_compare a.id b.id)
          in
          let batch = List.filteri (fun i _ -> i < cap) items in
          let weight = List.fold_left (fun acc i -> acc + i.size) 0 batch in
          proposed := true;
          Stack.call stack Service.consensus
            (Consensus_iface.Propose
               { iid = { epoch; k = !next_k }; value = Batch batch; weight })
        end
      in
      let trigger =
        Option.map
          (fun cfg -> Batcher.Trigger.create stack cfg ~fire:propose_now)
          batching
      in
      let maybe_propose () =
        match trigger with
        | None -> propose_now ()
        | Some tr ->
          if !proposed then ()
          else if !current <> epoch then
            (* Epoch-boundary flush: once superseded, never hold
               messages for a fuller batch — propose immediately so the
               switch window is not stretched by the batch timer. *)
            Batcher.Trigger.force tr
          else Batcher.Trigger.notify tr ~pending:(Hashtbl.length unordered)
      in
      let rec apply_ready () =
        match Hashtbl.find_opt decisions !next_k with
        | None -> ()
        | Some items ->
          Hashtbl.remove decisions !next_k;
          List.iter
            (fun item ->
              if not (is_delivered item.id) then begin
                Seq_set.add delivered ~src:item.id.origin item.id.seq;
                Hashtbl.remove unordered item.id;
                Stack.indicate stack Service.abcast
                  (Abcast_iface.Deliver { origin = item.id.Msg.origin; payload = item.payload })
              end)
            items;
          incr next_k;
          proposed := false;
          maybe_propose ();
          apply_ready ()
      in
      let on_decide k value =
        if not (Hashtbl.mem decisions k) && k >= !next_k then begin
          let items =
            match value with
            | Batch items -> items
            | Consensus_iface.No_value -> []
            | _ -> []
          in
          Hashtbl.replace decisions k items;
          apply_ready ()
        end
      in
      let on_disseminated item =
        if (not (is_delivered item.id)) && not (Hashtbl.mem unordered item.id)
        then begin
          Hashtbl.replace unordered item.id item;
          maybe_propose ()
        end
      in
      {
        Stack.default_handlers with
        (* Stopped, this module proposes nothing more in its epoch: its
           batch timer is disarmed, and consensus may drop the epoch's
           last values. *)
        on_stop =
          (fun () ->
            Option.iter Batcher.Trigger.cancel trigger;
            Consensus_iface.close stack ~epoch);
        handle_call =
          (fun _svc p ->
            match p with
            | Abcast_iface.Broadcast { size; payload } ->
              let id = { Msg.origin = me; seq = !next_seq } in
              incr next_seq;
              let item = { id; size; payload } in
              Stack.call stack Rbcast.service
                (Rbcast.Bcast
                   { size = size + header_size; payload = Disseminate { epoch; item } })
            | _ -> ());
        handle_indication =
          (fun svc p ->
            if Service.equal svc Rbcast.service then
              match p with
              | Rbcast.Deliver { origin = _; payload = Disseminate { epoch = e; item } }
                when e = epoch ->
                on_disseminated item
              | _ -> ()
            else if Service.equal svc Service.consensus then
              match p with
              | Consensus_iface.Decide { iid = { epoch = e; k }; value } when e = epoch ->
                on_decide k value
              | _ -> ());
      })

(* With aggregation on, accepted items are parked in an open proposal
   batch until the trigger fires — a partially-flushed batch is a
   first-class in-flight shape at a switch point, discharged by the
   epoch-boundary force-flush above. *)
let spec ~batched =
  let aggregation =
    if batched then
      [
        Spec.t "pooled" (Spec.Aggregate "ct.propose") "batching";
        Spec.t "batching" (Spec.Flush "ct.propose") "deciding";
      ]
    else [ Spec.t "pooled" (Spec.Emit "ct.propose") "deciding" ]
  in
  Spec.make ~service:(Service.name Service.abcast) ~roles:[ "member" ]
    ~kinds:
      [
        Spec.kind ~payload:true ~role:"member" "ct.disseminate";
        Spec.kind ~payload:true ~role:"member" "ct.propose";
        Spec.kind ~payload:true ~role:"member" "ct.decide";
      ]
    ~transitions:
      ([
         Spec.t "idle" Spec.Accept "accepted";
         Spec.t "accepted" (Spec.Emit "ct.disseminate") "gossiped";
         Spec.t "gossiped" (Spec.Recv "ct.disseminate") "pooled";
       ]
      @ aggregation
      @ [
          Spec.t "deciding" (Spec.Recv "ct.propose") "proposed";
          Spec.t "proposed" (Spec.Emit "ct.decide") "ordered";
          Spec.t "ordered" (Spec.Recv "ct.decide") "decided";
          Spec.t "decided" Spec.Deliver "idle";
        ])
    ~obligations:
      ([ Spec.Total_order; Spec.Exactly_once; Spec.Validity; Spec.Gap_free_gseq ]
      @ if batched then [ Spec.Epoch_flush ] else [])
    ~capabilities:
      ([ Spec.Epoch_tagged_wire ]
      @ if batched then [ Spec.Epoch_flush_on_supersede ] else [])
    ()

let register ?batching system =
  Registry.register (System.registry system) ~name:protocol_name
    ~provides:[ Service.abcast ]
    ~requires:[ Service.consensus; Rbcast.service ]
    ~spec:(spec ~batched:(batching <> None))
    (fun stack -> install ?batching stack)
