(** The atomic broadcast *service* interface (paper §5.1).

    Every ABcast protocol implementation (consensus-based, sequencer,
    token ring) provides [Service.abcast] with these payloads, so the
    replacement module depends only on this specification — the key
    structural claim of the paper (§4.1): DPU needs the specification
    of the replaced protocol, never its algorithm.

    Properties each provider must satisfy (checked in [Dpu_props]):
    validity, uniform agreement, uniform integrity, uniform total
    order. *)

open Dpu_kernel

type Payload.t +=
  | Broadcast of { size : int; payload : Payload.t }
      (** call: ABcast [payload] to the group *)
  | Deliver of { origin : int; payload : Payload.t }
      (** indication: Adeliver — same sequence of payloads at every
          stack *)

val epoch : Stack.t -> int ref
(** [stack]'s cell holding the protocol generation number under which a
    newly created ABcast module must operate (written by the
    replacement module before it instantiates the new module, read by
    factories). Generations keep wire traffic and consensus instances
    of old and new protocol versions disjoint. *)

val current_epoch : Stack.t -> int
(** The generation in force in [stack] (0 before any replacement). *)

(** {1 Wire-epoch recognition}

    A node that switches generations late (it was partitioned, or its
    copy of the change message was delayed) receives the new
    generation's wire traffic before the module that understands it
    exists. The transport has already acknowledged those datagrams, so
    without intervention they are lost permanently — the late node can
    deadlock waiting for a sequence prefix nobody will resend. Each
    ABcast implementation registers an extractor recognising its own
    wire payloads so that [Epoch_buffer] can stash such traffic and
    replay it once the generation is installed. *)

val register_wire_epoch : (Payload.t -> int option) -> unit
(** Register an extractor. It receives the full indication payload
    (e.g. [Rp2p.Recv {...}]) and returns [Some epoch] iff it
    recognises one of its protocol's generation-tagged wire messages. *)

val wire_epoch : Payload.t -> int option
(** Apply registered extractors; first match wins. *)
