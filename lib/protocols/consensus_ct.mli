(** The [CT] module of Fig. 4: Chandra–Toueg ◇S consensus with a
    rotating coordinator [5], providing the {!Consensus_iface} service.

    Multi-instance: each instance is an [(epoch, k)] pair; the epoch
    keeps streams of different protocol generations disjoint (see
    {!Consensus_iface.iid}). The module survives replacements of the
    protocols above it — it keeps providing service *while* e.g. the
    ABcast implementation is being updated.

    Round structure (round [r], coordinator [c = (k + r) mod n]):
    + every process sends its timestamped estimate to [c];
    + [c] waits for a majority, adopts the estimate with the highest
      timestamp (ties prefer heavier, then lower sender id), proposes;
    + a process that receives the proposal adopts it and acks; one
      whose failure detector suspects [c] nacks (paced, to avoid retry
      storms); either way it proceeds to round [r+1];
    + on a majority of acks, [c] reliably broadcasts the decision.

    Engineering details that matter under load: instance wake-ups are
    rebroadcast until decision (late-created participants still join);
    suspicion-driven round retries are paced; a participant may refine
    its initial (timestamp-0) estimate, so batched proposals are not
    starved by fast empty ones. A decided instance keeps only its value
    and weight, in a log every entry point consults first: late
    participants get the decision, and stray traffic for a decided
    instance never restarts it. The value goes once every other member
    has relayed its decision and the caller has proposed a later
    instance of the epoch or closed it ({!Consensus_iface.close}), on a
    stack that has installed this protocol only once (a relay names a
    node, not one of its modules). The
    weight stays, so a stale estimate is still answered with a frame of
    the same size: a [W_released], which carries no value and which
    no module decides on.

    Safety holds with any failure-detector output; termination needs a
    majority of correct processes and ◇S-quality detection, which
    {!Fd} provides in runs with bounded delays. *)

open Dpu_kernel

(** Wire payloads (exposed for wire round-trip tests and trace
    tooling). *)
type Payload.t +=
  | W_estimate of {
      iid : Consensus_iface.iid;
      round : int;
      from : int;
      value : Payload.t;
      ts : int;
      weight : int;
    }
  | W_propose of {
      iid : Consensus_iface.iid;
      round : int;
      value : Payload.t;
      weight : int;
    }
  | W_ack of { iid : Consensus_iface.iid; round : int; from : int }
  | W_nack of { iid : Consensus_iface.iid; round : int; from : int }
  | W_decide of { iid : Consensus_iface.iid; value : Payload.t }
  | W_wakeup of { iid : Consensus_iface.iid }
  | W_released of { iid : Consensus_iface.iid }

val protocol_name : string
(** ["consensus.ct"] *)

val install : ?service:Service.t -> n:int -> Stack.t -> Stack.module_
(** [service] defaults to [Service.consensus]; the consensus
    replacement layer instead installs implementations under its
    private implementation service. *)

val register : ?service:Service.t -> ?name:string -> System.t -> unit

val decided_count : Stack.t -> int
(** Number of instances this stack has decided (diagnostics). *)

val retained : Stack.t -> int
(** Number of decided values this stack still holds, over every
    install of the module; also the [consensus_decided_retained]
    gauge. *)
