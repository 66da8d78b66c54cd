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
  Payload.register_printer (function
    | Send { dst; size; _ } -> Some (Printf.sprintf "rp2p.send dst=%d size=%d" dst size)
    | Recv { src; _ } -> Some (Printf.sprintf "rp2p.recv src=%d" src)
    | Wire_data { src; seq; attempt; _ } ->
      Some (Printf.sprintf "rp2p.data src=%d seq=%d try=%d" src seq attempt)
    | Wire_ack { src; seq; attempt } ->
      Some (Printf.sprintf "rp2p.ack src=%d seq=%d try=%d" src seq attempt)
    | _ -> None)

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

let k_accepted = "rp2p.accepted"
let k_delivered = "rp2p.delivered"
let k_retrans = "rp2p.retransmissions"
let k_gave_up = "rp2p.gave_up"

let bump stack key = Stack.set_env stack key (Stack.get_env stack key ~default:0 + 1)

let stats stack =
  {
    accepted = Stack.get_env stack k_accepted ~default:0;
    delivered = Stack.get_env stack k_delivered ~default:0;
    retransmissions = Stack.get_env stack k_retrans ~default:0;
    gave_up = Stack.get_env stack k_gave_up ~default:0;
  }

(* An unacknowledged outgoing datagram and its retransmission state.
   [sent_at.(a)] is the send time of attempt [a] (for [a <= tries]), so
   the echoed attempt number in the ack yields an unambiguous RTT
   sample. The unboxed column grows by doubling up to
   [max_retries + 1] slots: a frame's state is bounded however often
   it is retried. *)
type pending = {
  mutable tries : int;
  mutable timer : Dpu_runtime.Clock.timer option;
  mutable sent_at : Float.Array.t;
}

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

let ack_size = 32

let install ?(config = default_config) stack =
  let me = Stack.node stack in
  Stack.add_module stack ~name:protocol_name ~provides:[ Service.rp2p ]
    ~requires:[ Service.net ]
    (fun stack _self ->
      (* dst -> next sequence number. Frames are numbered per
         destination so each receiver sees a contiguous sequence from
         each sender, and its [seen] window stays as small as the
         frames still out of order. *)
      let next_seq : (int, int) Hashtbl.t = Hashtbl.create 8 in
      (* dst -> seq -> retransmission state *)
      let pending : (int, (int, pending) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
      let pending_to dst =
        match Hashtbl.find_opt pending dst with
        | Some frames -> frames
        | None ->
          let frames = Hashtbl.create 64 in
          Hashtbl.replace pending dst frames;
          frames
      in
      (* src -> already-delivered sequence numbers *)
      let seen = Seq_set.create () in
      let rtts : (int, rtt) Hashtbl.t = Hashtbl.create 8 in
      let rto_keys : (int, string) Hashtbl.t = Hashtbl.create 8 in
      let rto_key dst =
        match Hashtbl.find_opt rto_keys dst with
        | Some k -> k
        | None ->
          let k = Printf.sprintf "rp2p.rto_us.%d" dst in
          Hashtbl.replace rto_keys dst k;
          k
      in
      let now () = Stack.now stack in
      let rtt_of dst =
        match Hashtbl.find_opt rtts dst with
        | Some r -> r
        | None ->
          let r =
            { srtt = config.rto_ms /. 2.0; rttvar = config.rto_ms /. 4.0; valid = false;
              storm_backoff = 1.0 }
          in
          Hashtbl.replace rtts dst r;
          r
      in
      let rto dst =
        if not config.adaptive then config.rto_ms
        else begin
          let r = rtt_of dst in
          let base =
            if r.valid then Float.max config.rto_ms (r.srtt +. (4.0 *. r.rttvar))
            else config.rto_ms
          in
          Float.min (base *. r.storm_backoff) config.max_rto_ms
        end
      in
      let record_rtt dst sample =
        let r = rtt_of dst in
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
      let arm ~dst (p : pending) retransmit =
        let delay =
          Float.min config.max_rto_ms
            (rto dst *. (config.backoff ** float_of_int p.tries))
        in
        Stack.set_env stack (rto_key dst) (int_of_float (delay *. 1000.0));
        p.timer <- Some (Stack.after stack ~delay retransmit)
      in
      let send ~dst ~size payload =
        bump stack k_accepted;
        let seq = Option.value (Hashtbl.find_opt next_seq dst) ~default:0 in
        Hashtbl.replace next_seq dst (seq + 1);
        udp_send ~dst ~size (Wire_data { src = me; seq; attempt = 0; size; payload });
        let frames = pending_to dst in
        let p = { tries = 0; timer = None; sent_at = Float.Array.make 1 (now ()) } in
        (* One closure per frame, re-armed on every try. *)
        let rec retransmit () =
          if Hashtbl.mem frames seq then begin
            if p.tries >= config.max_retries then begin
              Hashtbl.remove frames seq;
              bump stack k_gave_up
            end
            else begin
              p.tries <- p.tries + 1;
              stamp ~cap:(config.max_retries + 1) p (now ());
              let r = rtt_of dst in
              r.storm_backoff <- Float.min 128.0 (r.storm_backoff *. 2.0);
              bump stack k_retrans;
              udp_send ~dst ~size
                (Wire_data { src = me; seq; attempt = p.tries; size; payload });
              arm ~dst p retransmit
            end
          end
        in
        Hashtbl.replace frames seq p;
        arm ~dst p retransmit
      in
      let on_wire src payload =
        match payload with
        | Wire_data { src = origin; seq; attempt; size = _; payload } ->
          (* Always re-ack: the previous ack may have been lost. *)
          udp_send ~dst:src ~size:ack_size (Wire_ack { src = me; seq; attempt });
          if not (Seq_set.mem seen ~src:origin seq) then begin
            Seq_set.add seen ~src:origin seq;
            bump stack k_delivered;
            Stack.indicate stack Service.rp2p (Recv { src = origin; payload })
          end
        | Wire_ack { src = acker; seq; attempt } -> (
          match Hashtbl.find_opt pending acker with
          | None -> ()
          | Some frames -> (
            match Hashtbl.find_opt frames seq with
            | None -> ()
            | Some p ->
              (match p.timer with
              | Some h -> Dpu_runtime.Clock.cancel h
              | None -> ());
              (* An echo of no attempt of ours (hostile or corrupt)
                 still releases the frame, but yields no sample. *)
              if attempt >= 0 && attempt <= p.tries then
                record_rtt acker (now () -. Float.Array.get p.sent_at attempt);
              Hashtbl.remove frames seq))
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
              (fun _ frames ->
                (* dpu-lint: allow hashtbl-iter — cancelling is order-insensitive *)
                Hashtbl.iter
                  (fun _ p ->
                    match p.timer with
                    | Some h -> Dpu_runtime.Clock.cancel h
                    | None -> ())
                  frames;
                Hashtbl.clear frames)
              pending);
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
