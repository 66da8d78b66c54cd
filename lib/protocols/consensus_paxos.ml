open Dpu_kernel
open Consensus_iface

(* Wire messages, multiplexed over rp2p. *)
type Payload.t +=
  | P_wakeup of { iid : iid }
  | P_offer of { iid : iid; value : Payload.t; weight : int; from : int }
  | P_prepare of { iid : iid; ballot : int; from : int }
  | P_promise of {
      iid : iid;
      ballot : int;
      accepted : (int * Payload.t * int) option;  (* ballot, value, weight *)
      from : int;
    }
  | P_accept of { iid : iid; ballot : int; value : Payload.t; weight : int; from : int }
  | P_accepted of { iid : iid; ballot : int; from : int }
  | P_decide of { iid : iid; value : Payload.t; weight : int }

let () =
  let write_accepted w (ballot, value, weight) =
    Wire.W.int w ballot;
    Wire.W.str w (Payload.encode_exn value);
    Wire.W.int w weight
  in
  let read_accepted r =
    let ballot = Wire.R.int r in
    let value = Payload.decode (Wire.R.str r) in
    let weight = Wire.R.int r in
    (ballot, value, weight)
  in
  Payload.register_codec ~tag:"consensus.paxos"
    ~encode:(function
      | P_wakeup { iid } ->
        Some
          (fun w ->
            Wire.W.u8 w 0;
            write_iid w iid)
      | P_offer { iid; value; weight; from } ->
        Some
          (fun w ->
            Wire.W.u8 w 1;
            write_iid w iid;
            Wire.W.str w (Payload.encode_exn value);
            Wire.W.int w weight;
            Wire.W.int w from)
      | P_prepare { iid; ballot; from } ->
        Some
          (fun w ->
            Wire.W.u8 w 2;
            write_iid w iid;
            Wire.W.int w ballot;
            Wire.W.int w from)
      | P_promise { iid; ballot; accepted; from } ->
        Some
          (fun w ->
            Wire.W.u8 w 3;
            write_iid w iid;
            Wire.W.int w ballot;
            Wire.W.opt w write_accepted accepted;
            Wire.W.int w from)
      | P_accept { iid; ballot; value; weight; from } ->
        Some
          (fun w ->
            Wire.W.u8 w 4;
            write_iid w iid;
            Wire.W.int w ballot;
            Wire.W.str w (Payload.encode_exn value);
            Wire.W.int w weight;
            Wire.W.int w from)
      | P_accepted { iid; ballot; from } ->
        Some
          (fun w ->
            Wire.W.u8 w 5;
            write_iid w iid;
            Wire.W.int w ballot;
            Wire.W.int w from)
      | P_decide { iid; value; weight } ->
        Some
          (fun w ->
            Wire.W.u8 w 6;
            write_iid w iid;
            Wire.W.str w (Payload.encode_exn value);
            Wire.W.int w weight)
      | _ -> None)
    ~decode:(fun r ->
      match Wire.R.u8 r with
      | 0 -> P_wakeup { iid = read_iid r }
      | 1 ->
        let iid = read_iid r in
        let value = Payload.decode (Wire.R.str r) in
        let weight = Wire.R.int r in
        let from = Wire.R.int r in
        P_offer { iid; value; weight; from }
      | 2 ->
        let iid = read_iid r in
        let ballot = Wire.R.int r in
        let from = Wire.R.int r in
        P_prepare { iid; ballot; from }
      | 3 ->
        let iid = read_iid r in
        let ballot = Wire.R.int r in
        let accepted = Wire.R.opt r read_accepted in
        let from = Wire.R.int r in
        P_promise { iid; ballot; accepted; from }
      | 4 ->
        let iid = read_iid r in
        let ballot = Wire.R.int r in
        let value = Payload.decode (Wire.R.str r) in
        let weight = Wire.R.int r in
        let from = Wire.R.int r in
        P_accept { iid; ballot; value; weight; from }
      | 5 ->
        let iid = read_iid r in
        let ballot = Wire.R.int r in
        let from = Wire.R.int r in
        P_accepted { iid; ballot; from }
      | 6 ->
        let iid = read_iid r in
        let value = Payload.decode (Wire.R.str r) in
        let weight = Wire.R.int r in
        P_decide { iid; value; weight }
      | c -> raise (Wire.Error (Printf.sprintf "consensus.paxos: bad case %d" c)))

type config = { retry_ms : float }

let default_config = { retry_ms = 50.0 }

let protocol_name = "consensus.paxos"

let header_size = 64

let k_decided : int ref Stack.key = Stack.key ()

let decided_total stack = Stack.state stack k_decided (fun () -> ref 0)

let decided_count stack = !(decided_total stack)

(* Leader-side state for one ballot attempt. *)
type attempt = {
  ballot : int;
  mutable promises : (int * (int * Payload.t * int) option) list;  (* from, accepted *)
  mutable proposal : (Payload.t * int) option;  (* value sent in phase 2 *)
  mutable accepts : int list;
}

type inst = {
  iid : iid;
  (* acceptor state *)
  mutable promised : int;
  mutable accepted : (int * Payload.t * int) option;
  (* initial values *)
  mutable offer : (Payload.t * int * int) option;  (* value, weight, origin *)
  mutable offered : bool;  (* did we broadcast our own offer *)
  mutable max_ballot_seen : int;
  (* leader state *)
  mutable attempt : attempt option;
  mutable decided : bool;
  mutable retry_timer : Dpu_runtime.Clock.timer option;
  mutable announced : bool;
}

let install ?(config = default_config) ?(service = Service.consensus) ~n stack =
  let me = Stack.node stack in
  let majority = (n / 2) + 1 in
  Stack.add_module stack ~name:protocol_name ~provides:[ service ]
    ~requires:[ Service.rp2p; Service.fd ]
    (fun stack _self ->
      let decided_total = decided_total stack in
      let insts : (iid, inst) Hashtbl.t = Hashtbl.create 64 in
      let suspected = Array.make n false in
      let send ~dst ~size payload =
        Stack.call stack Service.rp2p (Rp2p.Send { dst; size; payload })
      in
      let send_all ~size payload =
        for dst = 0 to n - 1 do
          if dst <> me then send ~dst ~size payload
        done
      in
      let leader () =
        let rec probe i = if i >= n then me else if suspected.(i) then probe (i + 1) else i in
        probe 0
      in
      let get_inst iid =
        match Hashtbl.find_opt insts iid with
        | Some i -> i
        | None ->
          let i =
            {
              iid;
              promised = -1;
              accepted = None;
              offer = None;
              offered = false;
              max_ballot_seen = -1;
              attempt = None;
              decided = false;
              retry_timer = None;
              announced = false;
            }
          in
          Hashtbl.replace insts iid i;
          i
      in
      let weight_of inst = match inst.offer with Some (_, w, _) -> w | None -> 0 in
      let decide inst value weight =
        if not inst.decided then begin
          inst.decided <- true;
          (match inst.retry_timer with
          | Some h -> Dpu_runtime.Clock.cancel h
          | None -> ());
          (* Remember the decision for late short-circuits. *)
          inst.accepted <- Some (max_int, value, weight);
          incr decided_total;
          send_all ~size:(header_size + max weight 0) (P_decide { iid = inst.iid; value; weight });
          Stack.indicate stack service (Decide { iid = inst.iid; value })
        end
      in
      let better_offer a b =
        (* Heavier first, then lower origin: deterministic and favours
           non-empty batches. *)
        match (a, b) with
        | None, o | o, None -> o
        | Some (_, wa, oa), Some (_, wb, ob) ->
          if wa > wb || (wa = wb && oa <= ob) then a else b
      in
      let stash_offer inst value weight origin =
        inst.offer <- better_offer inst.offer (Some (value, weight, origin))
      in
      (* Phase 1: claim a ballot higher than anything seen. *)
      let start_ballot inst =
        if (not inst.decided) && leader () = me then begin
          let round = (max inst.max_ballot_seen 0 / n) + 1 in
          let ballot = (round * n) + me in
          inst.max_ballot_seen <- ballot;
          inst.attempt <- Some { ballot; promises = []; proposal = None; accepts = [] };
          send_all ~size:header_size (P_prepare { iid = inst.iid; ballot; from = me });
          (* Self-promise. *)
          if ballot > inst.promised then begin
            inst.promised <- ballot;
            match inst.attempt with
            | Some a -> a.promises <- [ (me, inst.accepted) ]
            | None -> ()
          end
        end
      in
      let arm_retry inst =
        if inst.retry_timer = None then
          inst.retry_timer <-
            Some
              (Stack.periodic stack ~period:config.retry_ms (fun () ->
                   if not inst.decided then start_ballot inst))
      in
      (* Phase 2 once a majority has promised. *)
      let maybe_propose inst =
        match inst.attempt with
        | Some a when a.proposal = None && List.length a.promises >= majority ->
          let highest_accepted =
            List.fold_left
              (fun acc (_, accepted) ->
                match (acc, accepted) with
                | None, o | o, None -> o
                | (Some (b1, _, _) as o1), (Some (b2, _, _) as o2) ->
                  if b1 >= b2 then o1 else o2)
              None
              (List.map (fun (f, acc_val) -> (f, acc_val)) a.promises)
          in
          let value, weight =
            match highest_accepted with
            | Some (_, v, w) -> (v, w)
            | None -> (
              match inst.offer with
              | Some (v, w, _) -> (v, w)
              | None -> (No_value, -1))
          in
          a.proposal <- Some (value, weight);
          send_all ~size:(header_size + max weight 0)
            (P_accept { iid = inst.iid; ballot = a.ballot; value; weight; from = me });
          (* Self-accept. *)
          if a.ballot >= inst.promised then begin
            inst.promised <- a.ballot;
            inst.accepted <- Some (a.ballot, value, weight);
            a.accepts <- [ me ]
          end
        | Some _ | None -> ()
      in
      let maybe_decide inst =
        match inst.attempt with
        | Some a when List.length a.accepts >= majority -> (
          match a.proposal with
          | Some (v, w) -> decide inst v w
          | None -> ())
        | Some _ | None -> ()
      in
      let announce inst =
        if not inst.announced then begin
          inst.announced <- true;
          let rec loop () =
            if not inst.decided then begin
              send_all ~size:header_size (P_wakeup { iid = inst.iid });
              ignore (Stack.after stack ~delay:200.0 loop : Dpu_runtime.Clock.timer)
            end
          in
          loop ()
        end
      in
      let join inst =
        arm_retry inst;
        if leader () = me && inst.attempt = None then start_ballot inst
      in
      let short_circuit inst dst =
        match inst.accepted with
        | Some (_, v, w) when inst.decided ->
          send ~dst ~size:(header_size + max w 0) (P_decide { iid = inst.iid; value = v; weight = w })
        | Some _ | None -> ()
      in
      let on_propose_call iid value weight =
        let inst = get_inst iid in
        if inst.decided then
          match inst.accepted with
          | Some (_, v, _) -> Stack.indicate stack service (Decide { iid; value = v })
          | None -> ()
        else begin
          stash_offer inst value weight me;
          if not inst.offered then begin
            inst.offered <- true;
            send_all ~size:(header_size + max weight 0)
              (P_offer { iid; value; weight; from = me })
          end;
          announce inst;
          join inst
        end
      in
      let on_wire payload =
        match payload with
        | P_wakeup { iid } ->
          let inst = get_inst iid in
          if inst.decided then () else join inst
        | P_offer { iid; value; weight; from } ->
          let inst = get_inst iid in
          if inst.decided then short_circuit inst from
          else begin
            stash_offer inst value weight from;
            join inst
          end
        | P_prepare { iid; ballot; from } ->
          let inst = get_inst iid in
          if inst.decided then short_circuit inst from
          else begin
            inst.max_ballot_seen <- max inst.max_ballot_seen ballot;
            if ballot > inst.promised then begin
              inst.promised <- ballot;
              send ~dst:from
                ~size:(header_size + match inst.accepted with Some (_, _, w) -> max w 0 | None -> 0)
                (P_promise { iid; ballot; accepted = inst.accepted; from = me })
            end;
            arm_retry inst
          end
        | P_promise { iid; ballot; accepted; from } ->
          let inst = get_inst iid in
          if not inst.decided then begin
            match inst.attempt with
            | Some a when a.ballot = ballot ->
              if not (List.mem_assoc from a.promises) then begin
                a.promises <- (from, accepted) :: a.promises;
                maybe_propose inst;
                maybe_decide inst
              end
            | Some _ | None -> ()
          end
        | P_accept { iid; ballot; value; weight; from } ->
          let inst = get_inst iid in
          if inst.decided then short_circuit inst from
          else begin
            inst.max_ballot_seen <- max inst.max_ballot_seen ballot;
            if ballot >= inst.promised then begin
              inst.promised <- ballot;
              inst.accepted <- Some (ballot, value, weight);
              send ~dst:from ~size:header_size (P_accepted { iid; ballot; from = me })
            end;
            arm_retry inst
          end
        | P_accepted { iid; ballot; from } ->
          let inst = get_inst iid in
          if not inst.decided then begin
            match inst.attempt with
            | Some a when a.ballot = ballot && a.proposal <> None ->
              if not (List.mem from a.accepts) then begin
                a.accepts <- from :: a.accepts;
                maybe_decide inst
              end
            | Some _ | None -> ()
          end
        | P_decide { iid; value; weight } ->
          let inst = get_inst iid in
          if not inst.decided then decide inst value weight
        | _ -> ()
      in
      let on_fd_change () =
        (* Leadership may have moved to us: push stalled instances. *)
        if leader () = me then
          (* dpu-lint: allow hashtbl-iter — folded instances are sorted by iid before use *)
          Hashtbl.fold (fun _ inst acc -> inst :: acc) insts []
          |> List.sort (fun a b -> iid_compare a.iid b.iid)
          |> List.iter (fun inst ->
                 if (not inst.decided) && inst.attempt = None then start_ballot inst)
      in
      ignore weight_of;
      {
        Stack.default_handlers with
        handle_call =
          (fun _svc p ->
            match p with
            | Propose { iid; value; weight } -> on_propose_call iid value weight
            | _ -> ());
        handle_indication =
          (fun svc p ->
            if Service.equal svc Service.rp2p then
              match p with
              | Rp2p.Recv { src = _; payload } -> on_wire payload
              | _ -> ()
            else if Service.equal svc Service.fd then
              match p with
              | Fd.Suspect q ->
                if q < n then suspected.(q) <- true;
                on_fd_change ()
              | Fd.Restore q ->
                if q < n then suspected.(q) <- false;
                on_fd_change ()
              | _ -> ());
        on_stop =
          (fun () ->
            (* dpu-lint: allow hashtbl-iter — cancelling every timer is order-insensitive *)
            Hashtbl.iter
              (fun _ inst ->
                match inst.retry_timer with
                | Some h -> Dpu_runtime.Clock.cancel h
                | None -> ())
              insts);
      })

let spec ~service =
  Spec.make ~service:(Service.name service)
    ~roles:[ "proposer"; "acceptor"; "learner" ]
    ~kinds:
      [
        Spec.kind ~role:"proposer" "paxos.prepare";
        Spec.kind ~role:"acceptor" "paxos.promise";
        Spec.kind ~payload:true ~role:"proposer" "paxos.accept";
        Spec.kind ~payload:true ~role:"acceptor" "paxos.learn";
      ]
    ~transitions:
      [
        Spec.t "idle" Spec.Accept "proposing";
        Spec.t "proposing" (Spec.Emit "paxos.prepare") "preparing";
        Spec.t "preparing" (Spec.Recv "paxos.prepare") "prepared";
        Spec.t "prepared" (Spec.Emit "paxos.promise") "promising";
        Spec.t "promising" (Spec.Recv "paxos.promise") "promised";
        Spec.t "promised" (Spec.Emit "paxos.accept") "accepting";
        Spec.t "accepting" (Spec.Recv "paxos.accept") "accepted";
        Spec.t "accepted" (Spec.Emit "paxos.learn") "learning";
        Spec.t "learning" (Spec.Recv "paxos.learn") "learned";
        Spec.t "learned" Spec.Deliver "idle";
      ]
    ~obligations:[ Spec.Validity; Spec.Exactly_once ]
    ~capabilities:[ Spec.Slot_scoped_rounds; Spec.Epoch_tagged_wire ] ()

let register ?config ?(service = Service.consensus) ?name system =
  let n = System.n system in
  let name = match name with Some name -> name | None -> protocol_name in
  Registry.register (System.registry system) ~name ~provides:[ service ]
    ~requires:[ Service.rp2p; Service.fd ] ~spec:(spec ~service)
    (fun stack -> install ?config ~service ~n stack)
