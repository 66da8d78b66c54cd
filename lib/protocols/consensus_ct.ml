open Dpu_kernel
open Consensus_iface

(* Wire messages, multiplexed over rp2p. *)
type Payload.t +=
  | W_estimate of { iid : iid; round : int; from : int; value : Payload.t; ts : int; weight : int }
  | W_propose of { iid : iid; round : int; value : Payload.t; weight : int }
  | W_ack of { iid : iid; round : int; from : int }
  | W_nack of { iid : iid; round : int; from : int }
  | W_decide of { iid : iid; value : Payload.t }
  | W_wakeup of { iid : iid }
      (* a proposer announces the instance so every process joins it:
         CT needs all (correct) processes to run the consensus task,
         even those with nothing to propose *)
  | W_released of { iid : iid }
      (* answers an estimate for an instance whose value the answerer
         has dropped; it carries no value, so nothing can decide on it *)

let () =
  Payload.register_codec ~tag:"consensus.ct"
    ~encode:(function
      | W_estimate { iid; round; from; value; ts; weight } ->
        Some
          (fun w ->
            Wire.W.u8 w 0;
            write_iid w iid;
            Wire.W.int w round;
            Wire.W.int w from;
            Wire.W.str w (Payload.encode_exn value);
            Wire.W.int w ts;
            Wire.W.int w weight)
      | W_propose { iid; round; value; weight } ->
        Some
          (fun w ->
            Wire.W.u8 w 1;
            write_iid w iid;
            Wire.W.int w round;
            Wire.W.str w (Payload.encode_exn value);
            Wire.W.int w weight)
      | W_ack { iid; round; from } ->
        Some
          (fun w ->
            Wire.W.u8 w 2;
            write_iid w iid;
            Wire.W.int w round;
            Wire.W.int w from)
      | W_nack { iid; round; from } ->
        Some
          (fun w ->
            Wire.W.u8 w 3;
            write_iid w iid;
            Wire.W.int w round;
            Wire.W.int w from)
      | W_decide { iid; value } ->
        Some
          (fun w ->
            Wire.W.u8 w 4;
            write_iid w iid;
            Wire.W.str w (Payload.encode_exn value))
      | W_wakeup { iid } ->
        Some
          (fun w ->
            Wire.W.u8 w 5;
            write_iid w iid)
      | W_released { iid } ->
        Some
          (fun w ->
            Wire.W.u8 w 6;
            write_iid w iid)
      | _ -> None)
    ~decode:(fun r ->
      match Wire.R.u8 r with
      | 0 ->
        let iid = read_iid r in
        let round = Wire.R.int r in
        let from = Wire.R.int r in
        let value = Payload.decode (Wire.R.str r) in
        let ts = Wire.R.int r in
        let weight = Wire.R.int r in
        W_estimate { iid; round; from; value; ts; weight }
      | 1 ->
        let iid = read_iid r in
        let round = Wire.R.int r in
        let value = Payload.decode (Wire.R.str r) in
        let weight = Wire.R.int r in
        W_propose { iid; round; value; weight }
      | 2 ->
        let iid = read_iid r in
        let round = Wire.R.int r in
        let from = Wire.R.int r in
        W_ack { iid; round; from }
      | 3 ->
        let iid = read_iid r in
        let round = Wire.R.int r in
        let from = Wire.R.int r in
        W_nack { iid; round; from }
      | 4 ->
        let iid = read_iid r in
        let value = Payload.decode (Wire.R.str r) in
        W_decide { iid; value }
      | 5 -> W_wakeup { iid = read_iid r }
      | 6 -> W_released { iid = read_iid r }
      | c -> raise (Wire.Error (Printf.sprintf "consensus.ct: bad case %d" c)))

let protocol_name = "consensus.ct"

let round_pacing_ms = 10.0

type counts = {
  mutable decided : int;
  mutable retained : int;
  mutable installs : int;  (* modules of this protocol ever added to the stack *)
}

let k_counts : counts Stack.key = Stack.key ()

let counts stack =
  Stack.state stack k_counts (fun () ->
      let c = { decided = 0; retained = 0; installs = 0 } in
      Dpu_obs.Metrics.register_int (Stack.metrics stack) ~labels:(Stack.labels stack)
        "consensus_decided_retained" (fun () -> c.retained);
      c)

let decided_count stack = (counts stack).decided

let retained stack = (counts stack).retained

(* Control messages are small; estimates/proposals carry the value, so
   their size is the value's weight-declared size plus a header. The
   weight is also (ab)used as a rough payload size for the bandwidth
   term: callers pass the batch byte size as weight. *)
let header_size = 64

type coord_round = {
  mutable estimates : (int * Payload.t * int * int) list;
      (* from, value, ts, weight *)
  mutable proposal : (Payload.t * int) option;  (* value proposed this round *)
  mutable acks : int list;
  mutable decided_sent : bool;
}

type inst = {
  iid : iid;
  mutable round : int;
  mutable estimate : Payload.t;
  mutable ts : int;
  mutable weight : int;
  mutable awaiting_propose : bool;
  mutable decided : bool;
  mutable entered : bool;  (* has the participant entered round 0 yet *)
  pending_proposals : (int, Payload.t * int) Hashtbl.t;  (* round -> value, weight *)
  coord : (int, coord_round) Hashtbl.t;  (* round -> coordinator state *)
}

(* A decided instance whose value is still held. *)
type held = {
  value : Payload.t;
  d_weight : int;
  heard : Bytes.t;  (* '\001' at each member whose W_decide arrived *)
  mutable missing : int;  (* other members still to relay their decision *)
}

(* Per epoch, created on first use: how far the caller has moved on,
   and the weight of every released instance. *)
type epoch_log = {
  mutable top : int;  (* highest k the caller has proposed, -1 before any *)
  mutable closed : bool;  (* the caller will never propose in the epoch again *)
  mutable released : int array;  (* by k: the weight, or -1 if not released *)
}

let wakeup_resend_ms = 200.0

let install ?(service = Service.consensus) ~n stack =
  let me = Stack.node stack in
  let majority = (n / 2) + 1 in
  Stack.add_module stack ~name:protocol_name ~provides:[ service ]
    ~requires:[ Service.rp2p; Service.fd ]
    (fun stack _self ->
      let counts = counts stack in
      counts.installs <- counts.installs + 1;
      (* Running instances only. A decided instance moves to [decided],
         which keeps just what late participants need: the value and
         its weight (the declared size of every W_decide it answers).
         Once no member and no caller can ask for the value, it goes,
         and only the weight stays, in its epoch's [released]. *)
      let insts : (iid, inst) Hashtbl.t = Hashtbl.create 64 in
      let decided : (iid, held) Hashtbl.t = Hashtbl.create 16 in
      let epochs : (int, epoch_log) Hashtbl.t = Hashtbl.create 4 in
      let released_weight iid =
        match Hashtbl.find_opt epochs iid.epoch with
        | Some log when iid.k >= 0 && iid.k < Array.length log.released -> log.released.(iid.k)
        | Some _ | None -> -1
      in
      let is_decided iid = Hashtbl.mem decided iid || released_weight iid >= 0 in
      (* Drop a held value once (a) every other member has relayed its
         decision, so none can still be a late participant needing the
         short-circuit, and (b) the caller has proposed a later instance
         of the epoch or closed it, so it never re-proposes this one. A
         relay names a node, not a module, so (a) holds only for a stack
         with one install of this protocol: a stack that ever had two (a
         consensus replacement, a rebuilt stack) releases nothing.
         Replacements give a new install new epochs, so a stack whose
         caller proposes one of those has two installs as well. *)
      let try_release iid d =
        match Hashtbl.find_opt epochs iid.epoch with
        | None -> ()
        | Some log ->
          if 0 <= iid.k && (iid.k < log.top || log.closed) && counts.installs = 1
             && d.missing = 0 (* mutation anchor: all relayed *)
          then begin
            Hashtbl.remove decided iid;
            counts.retained <- counts.retained - 1;
            let len = Array.length log.released in
            if iid.k >= len then begin
              let grown = Array.make (max (iid.k + 1) (2 * len)) (-1) in
              Array.blit log.released 0 grown 0 len;
              log.released <- grown
            end;
            log.released.(iid.k) <- max d.d_weight 0
          end
      in
      let epoch_log epoch =
        match Hashtbl.find_opt epochs epoch with
        | Some log -> log
        | None ->
          let log = { top = -1; closed = false; released = [||] } in
          Hashtbl.replace epochs epoch log;
          log
      in
      (* The caller proposed [iid]: every held instance of the epoch
         below it that was waiting for (b) alone can go. *)
      let caller_reached iid =
        let log = epoch_log iid.epoch in
        if iid.k > log.top then begin
          let from = max log.top 0 in
          log.top <- iid.k;
          for k = from to iid.k - 1 do
            let below = { iid with k } in
            match Hashtbl.find_opt decided below with
            | Some d -> try_release below d
            | None -> ()
          done
        end
      in
      (* The caller closed [epoch]: every held instance of it that was
         waiting for (b) alone can go, and the rest once relayed. *)
      let close epoch =
        let log = epoch_log epoch in
        if not log.closed then begin
          log.closed <- true;
          (* dpu-lint: allow hashtbl-iter — folded instances are sorted by iid below *)
          Hashtbl.fold (fun iid d acc -> if iid.epoch = epoch then (iid, d) :: acc else acc)
            decided []
          |> List.sort (fun (a, _) (b, _) -> iid_compare a b)
          |> List.iter (fun (iid, d) -> try_release iid d)
        end
      in
      let stop_closing = Consensus_iface.on_close stack close in
      (* Rotating coordinator, staggered by instance number so that
         concurrent instances do not all funnel their round 0 through
         process 0 (whose interface would otherwise bottleneck the whole
         sequence of instances). *)
      let coordinator iid r = (iid.k + r) mod n in
      let suspected = Array.make n false in
      let send ~dst ~size payload =
        Stack.call stack Service.rp2p (Rp2p.Send { dst; size; payload })
      in
      let send_all ~size payload =
        for dst = 0 to n - 1 do
          if dst <> me then send ~dst ~size payload
        done
      in
      let get_inst iid =
        match Hashtbl.find_opt insts iid with
        | Some i -> i
        | None ->
          let i =
            {
              iid;
              round = 0;
              estimate = No_value;
              ts = 0;
              weight = -1;
              awaiting_propose = false;
              decided = false;
              entered = false;
              pending_proposals = Hashtbl.create 4;
              coord = Hashtbl.create 4;
            }
          in
          Hashtbl.replace insts iid i;
          i
      in
      let coord_round inst r =
        match Hashtbl.find_opt inst.coord r with
        | Some c -> c
        | None ->
          let c = { estimates = []; proposal = None; acks = []; decided_sent = false } in
          Hashtbl.replace inst.coord r c;
          c
      in
      let decide inst value =
        if not inst.decided then begin
          inst.decided <- true;
          inst.estimate <- value;
          Hashtbl.remove insts inst.iid;
          let heard = Bytes.make n '\000' in
          Bytes.set heard me '\001';
          Hashtbl.replace decided inst.iid { value; d_weight = inst.weight; heard; missing = n - 1 };
          counts.decided <- counts.decided + 1;
          counts.retained <- counts.retained + 1;
          (* Reliable dissemination: relay on first receipt. *)
          send_all ~size:(header_size + max inst.weight 0)
            (W_decide { iid = inst.iid; value });
          Stack.indicate stack service (Decide { iid = inst.iid; value })
        end
      in
      let rec enter_round inst r =
        if not inst.decided then begin
          inst.round <- r;
          inst.entered <- true;
          let c = coordinator inst.iid r in
          let est =
            W_estimate
              { iid = inst.iid; round = r; from = me; value = inst.estimate; ts = inst.ts;
                weight = inst.weight }
          in
          send ~dst:c ~size:(header_size + max inst.weight 0) est;
          match Hashtbl.find_opt inst.pending_proposals r with
          | Some (v, w) ->
            Hashtbl.remove inst.pending_proposals r;
            accept_proposal inst r v w
          | None ->
            if suspected.(c) then nack_and_advance inst
            else inst.awaiting_propose <- true
        end

      and accept_proposal inst r v w =
        inst.estimate <- v;
        inst.ts <- r;
        inst.weight <- w;
        inst.awaiting_propose <- false;
        send ~dst:(coordinator inst.iid r) ~size:header_size
          (W_ack { iid = inst.iid; round = r; from = me });
        enter_round inst (r + 1)

      and nack_and_advance inst =
        let r = inst.round in
        inst.awaiting_propose <- false;
        send ~dst:(coordinator inst.iid r) ~size:header_size
          (W_nack { iid = inst.iid; round = r; from = me });
        (* Pace suspicion-driven retries: advancing immediately would
           spin thousands of rounds per second while the failure
           detector output is wrong, and the resulting estimate storm
           (full values every round) congests the network enough to
           keep delaying the heartbeats that would fix the suspicion —
           a positive feedback loop. A small delay bounds the retry
           traffic; the happy path (proposal received, ack) still
           advances immediately. *)
        ignore
          (Stack.after stack ~delay:round_pacing_ms (fun () ->
               if (not inst.decided) && inst.round = r then enter_round inst (r + 1))
            : Dpu_runtime.Clock.timer)
      in
      let on_estimate iid round from value ts weight =
        match Hashtbl.find_opt decided iid with
        | Some d ->
          (* Late participant: short-circuit it straight to the decision. *)
          send ~dst:from ~size:(header_size + max d.d_weight 0) (W_decide { iid; value = d.value })
        | None when released_weight iid >= 0 ->
          (* Released, so by (a) the sending node has decided; the
             answer keeps the size the value would have had. A module
             there that has not decided cannot adopt it: the worst case
             is a stalled instance, never a second decision. *)
          send ~dst:from ~size:(header_size + released_weight iid) (W_released { iid })
        | None when coordinator iid round = me ->
          let inst = get_inst iid in
          let cr = coord_round inst round in
          if Option.is_none cr.proposal then begin
            (* One estimate per participant: a later message from the
               same sender replaces the earlier one (participants may
               refine a No_value initial estimate, see below). *)
            cr.estimates <-
              (from, value, ts, weight)
              :: List.filter (fun (f, _, _, _) -> f <> from) cr.estimates;
            if List.length cr.estimates >= majority then begin
              (* Highest timestamp wins (CT safety); ties prefer heavier
                 (non-empty) estimates, then lower process id. *)
              let best (f1, v1, t1, w1) (f2, v2, t2, w2) =
                if t1 > t2 then (f1, v1, t1, w1)
                else if t2 > t1 then (f2, v2, t2, w2)
                else if w1 > w2 then (f1, v1, t1, w1)
                else if w2 > w1 then (f2, v2, t2, w2)
                else if f1 <= f2 then (f1, v1, t1, w1)
                else (f2, v2, t2, w2)
              in
              match cr.estimates with
              | [] -> ()
              | e0 :: rest ->
                let _, v, _, w = List.fold_left best e0 rest in
                cr.proposal <- Some (v, w);
                let prop = W_propose { iid; round; value = v; weight = w } in
                send_all ~size:(header_size + max w 0) prop;
                (* The coordinator is also a participant: handle its own
                   proposal locally without a network round-trip. *)
                if inst.round = round && inst.awaiting_propose then
                  accept_proposal inst round v w
                else if inst.round < round || not inst.entered then
                  Hashtbl.replace inst.pending_proposals round (v, w)
            end
          end
        | None -> ()
      in
      let on_proposal iid round value weight =
        if not (is_decided iid) then begin
          let inst = get_inst iid in
          if round = inst.round && inst.awaiting_propose then
            accept_proposal inst round value weight
          else if round > inst.round || not inst.entered then
            Hashtbl.replace inst.pending_proposals round (value, weight)
          (* else: stale round, we already replied to it *)
        end
      in
      let on_ack iid round from =
        if (not (is_decided iid)) && coordinator iid round = me then begin
          let inst = get_inst iid in
          let cr = coord_round inst round in
          if (not cr.decided_sent) && not (List.mem from cr.acks) then begin
            cr.acks <- from :: cr.acks;
            match cr.proposal with
            | Some (v, w) when List.length cr.acks >= majority ->
              cr.decided_sent <- true;
              inst.weight <- w;
              decide inst v
            | Some _ | None -> ()
          end
        end
      in
      let on_decide ~src iid value =
        if not (is_decided iid) then decide (get_inst iid) value;
        match Hashtbl.find_opt decided iid with
        | Some d when src >= 0 && src < n && Bytes.get d.heard src = '\000' ->
          Bytes.set d.heard src '\001';
          d.missing <- d.missing - 1;
          try_release iid d
        | Some _ | None -> ()
      in
      let on_suspect p =
        suspected.(p) <- true;
        (* dpu-lint: allow hashtbl-iter — folded instances are sorted by iid before use *)
        Hashtbl.fold (fun _ inst acc -> inst :: acc) insts []
        |> List.sort (fun a b -> iid_compare a.iid b.iid)
        |> List.iter (fun inst ->
               if inst.awaiting_propose && coordinator inst.iid inst.round = p then
                 nack_and_advance inst)
      in
      let on_wakeup iid =
        if not (is_decided iid) then begin
          let inst = get_inst iid in
          if not inst.entered then enter_round inst 0
        end
      in
      let on_propose_call iid value weight =
        match Hashtbl.find_opt decided iid with
        | Some d ->
          caller_reached iid;
          (* The caller may have missed the indication (e.g. it was just
             created); repeat it. *)
          Stack.indicate stack service (Decide { iid; value = d.value })
        | None when released_weight iid >= 0 ->
          invalid_arg
            (Printf.sprintf "Consensus_ct: %s re-proposed after a later instance" (pp_iid iid))
        | None ->
          caller_reached iid;
          let inst = get_inst iid in
          let refined = inst.weight < 0 && inst.ts = 0 in
          if refined then begin
            inst.estimate <- value;
            inst.weight <- weight
          end;
          if not inst.entered then begin
            (* Pull every other process into the instance; they enter
               round 0 with a No_value estimate. Resent periodically
               until decided, so a participant whose module instance is
               created late (e.g. by a dynamic replacement of the layer
               above or of consensus itself) still joins. *)
            let rec announce () =
              if not inst.decided then begin
                send_all ~size:header_size (W_wakeup { iid });
                ignore
                  (Stack.after stack ~delay:wakeup_resend_ms announce
                    : Dpu_runtime.Clock.timer)
              end
            in
            announce ();
            enter_round inst 0
          end
          else if refined && inst.awaiting_propose then
            (* This process joined the instance (via a wakeup) before
               its upper layer had a value, and its No_value estimate is
               already on the wire. Any initial value is valid while
               ts = 0, so refine it: resend, and the coordinator
               replaces the previous entry. Without this, decided
               batches degenerate to whatever the fastest proposer had,
               starving batching. *)
            send ~dst:(coordinator inst.iid inst.round)
              ~size:(header_size + max inst.weight 0)
              (W_estimate
                 { iid = inst.iid; round = inst.round; from = me; value = inst.estimate;
                   ts = inst.ts; weight = inst.weight })
      in
      {
        Stack.default_handlers with
        on_stop = stop_closing;
        handle_call =
          (fun _svc p ->
            match p with
            | Propose { iid; value; weight } -> on_propose_call iid value weight
            | _ -> ());
        handle_indication =
          (fun svc p ->
            if Service.equal svc Service.rp2p then
              match p with
              | Rp2p.Recv { src; payload } -> (
                match payload with
                | W_estimate { iid; _ }
                | W_propose { iid; _ }
                | W_ack { iid; _ }
                | W_nack { iid; _ }
                | W_decide { iid; _ }
                | W_wakeup { iid }
                | W_released { iid }
                  when iid.k < 0 ->
                  (* The codec rejects a negative k; a frame injected
                     past it is dropped, since its coordinator
                     (k + r) mod n may be negative. *)
                  ()
                | W_estimate { iid; round; from; value; ts; weight } ->
                  on_estimate iid round from value ts weight
                | W_propose { iid; round; value; weight } -> on_proposal iid round value weight
                | W_ack { iid; round; from } -> on_ack iid round from
                | W_nack { iid = _; round = _; from = _ } ->
                  (* Nacks carry no information the coordinator acts on:
                     it simply never reaches a majority of acks. *)
                  ()
                | W_decide { iid; value } -> on_decide ~src iid value
                | W_wakeup { iid } -> on_wakeup iid
                | W_released _ -> ()
                | _ -> ())
              | _ -> ()
            else if Service.equal svc Service.fd then
              match p with
              | Fd.Suspect q -> on_suspect q
              | Fd.Restore q -> suspected.(q) <- false
              | _ -> ());
      })

let spec ~service =
  Spec.make ~service:(Service.name service)
    ~roles:[ "coordinator"; "participant" ]
    ~kinds:
      [
        Spec.kind ~payload:true ~role:"participant" "consensus.estimate";
        Spec.kind ~role:"participant" "consensus.ack";
        Spec.kind ~payload:true ~role:"coordinator" "consensus.decide";
      ]
    ~transitions:
      [
        Spec.t "idle" Spec.Accept "proposing";
        Spec.t "proposing" (Spec.Emit "consensus.estimate") "estimating";
        Spec.t "estimating" (Spec.Recv "consensus.estimate") "coordinated";
        Spec.t "coordinated" (Spec.Emit "consensus.decide") "deciding";
        Spec.t "deciding" (Spec.Recv "consensus.decide") "decided";
        Spec.t "decided" Spec.Deliver "idle";
      ]
    ~obligations:[ Spec.Validity; Spec.Exactly_once ]
      (* instances are keyed by {epoch; k}: rounds of distinct
         generations can never interfere on the wire *)
    ~capabilities:[ Spec.Slot_scoped_rounds; Spec.Epoch_tagged_wire ] ()

let register ?(service = Service.consensus) ?name system =
  let n = System.n system in
  let name = match name with Some name -> name | None -> protocol_name in
  Registry.register (System.registry system) ~name ~provides:[ service ]
    ~requires:[ Service.rp2p; Service.fd ] ~spec:(spec ~service)
    (fun stack -> install ~service ~n stack)
