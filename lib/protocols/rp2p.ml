open Dpu_kernel

type Payload.t +=
  | Send of { dst : int; size : int; payload : Payload.t }
  | Recv of { src : int; payload : Payload.t }

(* Wire format, multiplexed over the [net] service. [attempt] plays the
   role of a TCP timestamp option: the ack echoes which transmission it
   answers, so the sender can take an RTT sample even from packets that
   were retransmitted (escaping Karn's ambiguity — essential when the
   true round-trip exceeds the initial timeout, where otherwise no
   sample would ever be taken). *)
type Payload.t +=
  | Wire_data of { src : int; seq : int; attempt : int; size : int; payload : Payload.t }
  | Wire_ack of { src : int; seq : int; attempt : int }

let () =
  Payload.register_codec ~tag:"rp2p"
    ~encode:(function
      | Send { dst; size; payload } ->
        Some
          (fun w ->
            Wire.W.u8 w 0;
            Wire.W.int w dst;
            Wire.W.int w size;
            Wire.W.str w (Payload.encode_exn payload))
      | Recv { src; payload } ->
        Some
          (fun w ->
            Wire.W.u8 w 1;
            Wire.W.int w src;
            Wire.W.str w (Payload.encode_exn payload))
      | Wire_data { src; seq; attempt; size; payload } ->
        Some
          (fun w ->
            Wire.W.u8 w 2;
            Wire.W.int w src;
            Wire.W.int w seq;
            Wire.W.int w attempt;
            Wire.W.int w size;
            Wire.W.str w (Payload.encode_exn payload))
      | Wire_ack { src; seq; attempt } ->
        Some
          (fun w ->
            Wire.W.u8 w 3;
            Wire.W.int w src;
            Wire.W.int w seq;
            Wire.W.int w attempt)
      | _ -> None)
    ~decode:(fun r ->
      match Wire.R.u8 r with
      | 0 ->
        let dst = Wire.R.int r in
        let size = Wire.R.int r in
        let payload = Payload.decode (Wire.R.str r) in
        Send { dst; size; payload }
      | 1 ->
        let src = Wire.R.int r in
        let payload = Payload.decode (Wire.R.str r) in
        Recv { src; payload }
      | 2 ->
        let src = Wire.R.int r in
        let seq = Wire.R.int r in
        let attempt = Wire.R.int r in
        let size = Wire.R.int r in
        let payload = Payload.decode (Wire.R.str r) in
        Wire_data { src; seq; attempt; size; payload }
      | 3 ->
        let src = Wire.R.int r in
        let seq = Wire.R.int r in
        let attempt = Wire.R.int r in
        Wire_ack { src; seq; attempt }
      | c -> raise (Wire.Error (Printf.sprintf "rp2p: bad case %d" c)))

type config = {
  rto_ms : float;
  backoff : float;
  max_rto_ms : float;
  max_retries : int;
  adaptive : bool;
}

let default_config =
  { rto_ms = 10.0; backoff = 1.5; max_rto_ms = 1_000.0; max_retries = 40; adaptive = true }

let protocol_name = "rp2p"

type stats = { accepted : int; delivered : int; retransmissions : int; gave_up : int }

(* An unacknowledged outgoing datagram and its retransmission state.
   [sent_at.(a)] is the send time of attempt [a] (for [a <= tries]), so
   the echoed attempt number in the ack yields an unambiguous RTT
   sample. The unboxed column grows by doubling up to
   [max_retries + 1] slots: a frame's state is bounded however often
   it is retried. *)
type pending = {
  mutable tries : int;
  mutable timer : slot;
  mutable sent_at : Float.Array.t;
}

(* What drives a frame's next retransmission. [Parked] holds the
   frame's retransmission closure (the only place its payload lives)
   while its destination is in probe mode: no timer, until an ack
   resumes it. [Idle] only between creation and the first arming. *)
and slot = Idle | Armed of Dpu_runtime.Clock.timer | Parked of (unit -> unit)

(* Record the send time of attempt [p.tries]. *)
let stamp ~cap p time =
  let len = Float.Array.length p.sent_at in
  if p.tries >= len then begin
    let grown = Float.Array.create (min cap (2 * len)) in
    Float.Array.blit p.sent_at 0 grown 0 len;
    p.sent_at <- grown
  end;
  Float.Array.set p.sent_at p.tries time

(* Jacobson/Karels round-trip estimation, one estimator per peer. Under
   load the per-hop delay includes NIC queueing, and a fixed timeout
   below the actual RTT triggers a retransmission storm that feeds the
   very queue that caused it; adapting the timeout to the measured RTT
   is what breaks that loop. *)
type rtt = {
  mutable srtt : float;
  mutable rttvar : float;
  mutable valid : bool;
  mutable storm_backoff : float;
      (* persistent per-peer multiplier: doubled on every timeout,
         reset by a fresh RTT sample (which, thanks to the per-attempt
         ack echo, every successful exchange provides). Without the
         persistence, each new packet restarts its own backoff at a
         stale (too small) timeout and a transient queue becomes a
         self-sustaining retransmission storm. *)
}

(* Everything a sender keeps for destination [dst]. Frames are
   numbered per destination so each receiver sees a contiguous sequence
   from each sender, and its [seen] window stays as small as the frames
   still out of order. [frames] holds those in flight, by sequence
   number. [probe] is the sequence number of the one frame still
   retransmitted on a timer while the destination is in probe mode,
   [no_probe] outside it, and [resuming] while an ack resumes the
   parked frames. [timeout_ms] is the delay last armed for one of
   them. *)
type dest = {
  dst : int;
  mutable next_seq : int;
  frames : (int, pending) Hashtbl.t;
  mutable probe : int;
  rtt : rtt;
  mutable timeout_ms : float;
}

(* The stack's Rp2p cell: counters that survive a reinstall, and the
   current install's destinations. *)
type state = {
  mutable accepted : int;
  mutable delivered : int;
  mutable retransmissions : int;
  mutable gave_up : int;
  mutable dests : (int, dest) Hashtbl.t;
}

let k_state : state Stack.key = Stack.key ()

let state stack =
  Stack.state stack k_state (fun () ->
      { accepted = 0; delivered = 0; retransmissions = 0; gave_up = 0;
        dests = Hashtbl.create 8 })

let stats stack : stats =
  let st = state stack in
  { accepted = st.accepted; delivered = st.delivered;
    retransmissions = st.retransmissions; gave_up = st.gave_up }

let timeout_ms stack ~dst =
  match Hashtbl.find_opt (state stack).dests dst with
  | Some d -> d.timeout_ms
  | None -> 0.0

let no_probe = -1
let resuming = -2

(* A frame that times out this many times puts its destination into
   probe mode (DESIGN.md "Protocol state"). *)
let probe_after = 6

let ack_size = 32

let install ?(config = default_config) stack =
  let me = Stack.node stack in
  Stack.add_module stack ~name:protocol_name ~provides:[ Service.rp2p ]
    ~requires:[ Service.net ]
    (fun stack _self ->
      let st = state stack in
      let dests : (int, dest) Hashtbl.t = Hashtbl.create 8 in
      st.dests <- dests;
      let dest_of dst =
        match Hashtbl.find_opt dests dst with
        | Some d -> d
        | None ->
          let rtt =
            { srtt = config.rto_ms /. 2.0; rttvar = config.rto_ms /. 4.0; valid = false;
              storm_backoff = 1.0 }
          in
          let d =
            { dst; next_seq = 0; frames = Hashtbl.create 64; probe = no_probe; rtt;
              timeout_ms = 0.0 }
          in
          Hashtbl.replace dests dst d;
          d
      in
      (* src -> already-delivered sequence numbers *)
      let seen = Seq_set.create () in
      let now () = Stack.now stack in
      let rto d =
        if not config.adaptive then config.rto_ms
        else begin
          let r = d.rtt in
          let base =
            if r.valid then Float.max config.rto_ms (r.srtt +. (4.0 *. r.rttvar))
            else config.rto_ms
          in
          Float.min (base *. r.storm_backoff) config.max_rto_ms
        end
      in
      let record_rtt d sample =
        let r = d.rtt in
        r.storm_backoff <- 1.0;
        if r.valid then begin
          let err = sample -. r.srtt in
          r.srtt <- r.srtt +. (0.125 *. err);
          r.rttvar <- r.rttvar +. (0.25 *. (Float.abs err -. r.rttvar))
        end
        else begin
          r.srtt <- sample;
          r.rttvar <- sample /. 2.0;
          r.valid <- true
        end
      in
      let udp_send ~dst ~size payload =
        Stack.call stack Service.net (Udp.Send { dst; size; payload })
      in
      let arm d (p : pending) retransmit =
        let delay =
          Float.min config.max_rto_ms
            (rto d *. (config.backoff ** float_of_int p.tries))
        in
        d.timeout_ms <- delay;
        p.timer <- Armed (Stack.after stack ~delay retransmit)
      in
      (* Send attempt [p.tries] of frame [seq] and arm its timer. *)
      let transmit d seq p ~size payload retransmit =
        udp_send ~dst:d.dst ~size (Wire_data { src = me; seq; attempt = p.tries; size; payload });
        arm d p retransmit
      in
      (* Every timeout waits at most [max_rto_ms], so no frame retried
         on its own timer gives up later than this after its first send. *)
      let horizon = float_of_int (config.max_retries + 1) *. config.max_rto_ms in
      let expired p = now () >= Float.Array.get p.sent_at 0 +. horizon in
      (* Parked frames have no timer: the probe gives up those past
         their deadline each time it fires. *)
      let expire_parked d =
        (* dpu-lint: allow hashtbl-iter — each expired frame is dropped and counted, order-insensitive *)
        Hashtbl.filter_map_inplace
          (fun _ p ->
            match p.timer with
            | Parked _ when expired p ->
              st.gave_up <- st.gave_up + 1;
              None
            | Idle | Armed _ | Parked _ -> Some p)
          d.frames
      in
      let parked d =
        (* dpu-lint: allow hashtbl-iter — folded then sorted by seq *)
        Hashtbl.fold
          (fun seq p acc -> match p.timer with Parked f -> (seq, p, f) :: acc | _ -> acc)
          d.frames []
        |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
      in
      (* The probe has given up: the oldest parked frame takes over. *)
      let next_probe d =
        expire_parked d;
        match parked d with
        | (seq, p, retransmit) :: _ ->
          d.probe <- seq;
          arm d p retransmit
        | [] -> d.probe <- no_probe
      in
      (* The destination answered: resend every parked frame now, in
         sequence order. *)
      let resume d =
        let frames = parked d in
        d.probe <- resuming;
        List.iter (fun (_, _, retransmit) -> retransmit ()) frames;
        d.probe <- no_probe
      in
      (* Frame [seq]'s timer fired (or a resume runs it). Returns whether
         to send its next attempt: not if it gave up or was parked. *)
      let timed_out d seq p retransmit =
        if not (Hashtbl.mem d.frames seq) then false
        else if p.tries >= config.max_retries || expired p then begin
          Hashtbl.remove d.frames seq;
          st.gave_up <- st.gave_up + 1;
          if d.probe = seq then next_probe d;
          false
        end
        else if d.probe >= 0 && d.probe <> seq then begin
          p.timer <- Parked retransmit;
          false
        end
        else begin
          if d.probe = seq then expire_parked d;
          if p.tries + 1 >= probe_after && d.probe = no_probe then d.probe <- seq; (* mutation anchor: probe *)
          p.tries <- p.tries + 1;
          stamp ~cap:(config.max_retries + 1) p (now ());
          (* A resume answers an ack, not a timeout. *)
          if d.probe <> resuming then begin
            d.rtt.storm_backoff <- Float.min 128.0 (d.rtt.storm_backoff *. 2.0)
          end;
          st.retransmissions <- st.retransmissions + 1;
          true
        end
      in
      let send ~dst ~size payload =
        st.accepted <- st.accepted + 1;
        let d = dest_of dst in
        let seq = d.next_seq in
        d.next_seq <- seq + 1;
        let p = { tries = 0; timer = Idle; sent_at = Float.Array.make 1 (now ()) } in
        (* One closure per frame, re-armed on every try and kept while
           the frame is parked. *)
        let rec retransmit () =
          if timed_out d seq p retransmit then transmit d seq p ~size payload retransmit
        in
        Hashtbl.replace d.frames seq p;
        transmit d seq p ~size payload retransmit
      in
      let on_wire src payload =
        match payload with
        | Wire_data { src = origin; seq; attempt; size = _; payload } ->
          (* Always re-ack: the previous ack may have been lost. *)
          udp_send ~dst:src ~size:ack_size (Wire_ack { src = me; seq; attempt });
          if not (Seq_set.mem seen ~src:origin seq) then begin
            Seq_set.add seen ~src:origin seq;
            st.delivered <- st.delivered + 1;
            Stack.indicate stack Service.rp2p (Recv { src = origin; payload })
          end
        | Wire_ack { src = acker; seq; attempt } -> (
          match Hashtbl.find_opt dests acker with
          | None -> ()
          | Some d ->
            (match Hashtbl.find_opt d.frames seq with
            | None -> ()
            | Some p ->
              (match p.timer with
              | Armed h -> Dpu_runtime.Clock.cancel h
              | Idle | Parked _ -> ());
              (* An echo of no attempt of ours (hostile or corrupt)
                 still releases the frame, but yields no sample. *)
              if attempt >= 0 && attempt <= p.tries then
                record_rtt d (now () -. Float.Array.get p.sent_at attempt);
              Hashtbl.remove d.frames seq);
            if d.probe >= 0 then resume d)
        | _ -> ()
      in
      {
        Stack.default_handlers with
        handle_call =
          (fun _svc p ->
            match p with
            | Send { dst; size; payload } -> send ~dst ~size payload
            | _ -> ());
        handle_indication =
          (fun svc p ->
            match p with
            | Udp.Recv { src; payload } when Service.equal svc Service.net ->
              on_wire src payload
            | _ -> ());
        on_stop =
          (fun () ->
            (* Finalisation (the Maestro baseline tears stacks down):
               stop retransmitting everything still in flight. *)
            (* dpu-lint: allow hashtbl-iter — cancelling every timer is order-insensitive *)
            Hashtbl.iter
              (fun _ d ->
                (* dpu-lint: allow hashtbl-iter — cancelling is order-insensitive *)
                Hashtbl.iter
                  (fun _ p ->
                    match p.timer with
                    | Armed h -> Dpu_runtime.Clock.cancel h
                    | Idle | Parked _ -> ())
                  d.frames;
                Hashtbl.clear d.frames)
              dests);
      })

let spec =
  Spec.make ~service:(Service.name Service.rp2p) ~roles:[ "sender"; "receiver" ]
    ~kinds:
      [
        Spec.kind ~payload:true ~role:"sender" "rp2p.msg";
        Spec.kind ~role:"receiver" "rp2p.ack";
      ]
    ~transitions:
      [
        Spec.t "idle" Spec.Accept "queued";
        Spec.t "queued" (Spec.Emit "rp2p.msg") "sent";
        Spec.t "sent" (Spec.Recv "rp2p.msg") "arrived";
        Spec.t "arrived" (Spec.Emit "rp2p.ack") "acked";
        Spec.t "acked" (Spec.Recv "rp2p.ack") "confirmed";
        Spec.t "confirmed" Spec.Deliver "idle";
      ]
    ~obligations:[ Spec.Exactly_once ] ()

let register ?config system =
  Registry.register (System.registry system) ~name:protocol_name
    ~provides:[ Service.rp2p ] ~requires:[ Service.net ] ~spec
    (fun stack -> install ?config stack)
