(** The [RP2P] module of Fig. 4: reliable point-to-point channels over
    the unreliable [net] service.

    Implements positive acknowledgement with retransmission and
    duplicate suppression: every datagram accepted by {!Send} is
    delivered to a correct, connected destination exactly once,
    regardless of network loss and duplication (up to the retry
    budget — channels are quasi-reliable: a frame gives up after
    [max_retries] attempts, or, parked behind its destination's probe
    (see {!probe_after}), once its retry horizon has passed; either
    only happens when the destination is crashed or partitioned away
    for the whole horizon).

    Delivery order is not guaranteed (like the paper's stack, ordering
    is the business of the layers above). *)

open Dpu_kernel

type Payload.t +=
  | Send of { dst : int; size : int; payload : Payload.t }  (** call *)
  | Recv of { src : int; payload : Payload.t }  (** indication *)

(** Wire payloads (exposed for wire round-trip tests and trace
    tooling). *)
type Payload.t +=
  | Wire_data of {
      src : int;
      seq : int;
      attempt : int;
      size : int;
      payload : Payload.t;
    }
  | Wire_ack of { src : int; seq : int; attempt : int }

type config = {
  rto_ms : float;  (** initial retransmission timeout *)
  backoff : float;  (** multiplicative timeout growth per retry *)
  max_rto_ms : float;  (** backoff ceiling *)
  max_retries : int;  (** give-up bound *)
  adaptive : bool;
      (** Jacobson/Karels RTT estimation with a persistent per-peer
          storm backoff. With [false] the timeout is the fixed
          [rto_ms]: under load, queueing pushes the real round-trip
          past it and every retransmission feeds the queue further —
          test_protocols' "adaptive RTO converges" keeps this as a
          negative control. *)
}

val default_config : config

val probe_after : int
(** Timeouts of one frame after which its destination enters probe
    mode: only that frame keeps a retransmission timer, every other
    frame to the destination is parked at its next timeout until any
    ack from the destination resumes them in sequence order. A parked
    frame gives up once [(max_retries + 1) * max_rto_ms] have passed
    since it was first sent. *)

val protocol_name : string
(** ["rp2p"] *)

val install : ?config:config -> Stack.t -> Stack.module_

val register : ?config:config -> System.t -> unit

(** {1 Introspection (tests, benches)} *)

type stats = { accepted : int; delivered : int; retransmissions : int; gave_up : int }

val stats : Stack.t -> stats
(** Statistics of the rp2p module in [stack]; zeros if absent. *)

val timeout_ms : Stack.t -> dst:int -> float
(** The retransmission delay last armed for a frame to [dst] by the
    rp2p module in [stack]; [0.] before any. *)
