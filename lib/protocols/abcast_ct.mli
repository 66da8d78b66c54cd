(** Consensus-based atomic broadcast (the [ABcast] module of Fig. 4).

    The Chandra–Toueg reduction [5]: payloads are disseminated with
    reliable broadcast; a sequence of consensus instances decides, for
    each slot [k], a batch of not-yet-delivered payloads; every stack
    delivers decided batches in slot order, giving uniform total order.

    As in the paper's prototype, the default proposes one message per
    consensus instance and ships full message contents (not
    identifiers) through consensus — the paper's §6 notes its latency
    figures are high for exactly this reason, and the load/latency
    curve of Fig. 6 is shaped by this queueing. [batching] lifts the
    limit for throughput mode.

    The module is epoch-aware: it reads the protocol generation from
    the stack's epoch cell at creation and tags all its consensus
    instances and wire traffic with it, so a replacement's new module
    never collides with its predecessor. *)

open Dpu_kernel

type item = { id : Msg.id; size : int; payload : Payload.t }

type Payload.t += Batch of item list
(** The consensus value: a batch of items, sorted by id by the
    proposer; decided batches are applied in that order. *)

type Payload.t += Disseminate of { epoch : int; item : item }
(** The rbcast wire payload (exposed for trace tooling and tests). *)

val protocol_name : string
(** ["abcast.ct"] *)

val install : ?batching:Batcher.config -> Stack.t -> Stack.module_
(** Without [batching], one consensus instance carries one item (the
    paper's prototype). [batching] turns on the throughput-mode flush
    policy: propose only once [max_batch] messages are pending or the
    oldest has waited [max_delay_ms] ({!Batcher.Trigger}); the cap
    becomes [max_batch].
    Because the consensus value is the whole {!Batch}, one slot of the
    underlying consensus ({!Consensus_ct}, {!Consensus_paxos} — and
    one {!Repl_consensus} wrapped instance when the replacement layer
    shares the stream) then carries many app payloads. Batches are cut
    from a single epoch; on supersession pending messages are proposed
    immediately rather than held for a fuller batch. *)

val register : ?batching:Batcher.config -> System.t -> unit
