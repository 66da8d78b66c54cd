(** Simulated unreliable datagram network (the paper's [Net] service).

    Semantics of UDP over a switched LAN: messages may be lost,
    duplicated and reordered (reordering arises naturally from random
    per-packet latency); they are never corrupted. Crashed nodes
    neither send nor receive. Partitions silently drop cross-group
    traffic until healed.

    The payload type is a parameter so the network can be tested in
    isolation and reused under any protocol kernel. *)

type 'a t

type counters = {
  sent : int;  (** datagrams accepted from senders *)
  delivered : int;  (** datagrams handed to a receiver *)
  lost : int;  (** dropped by the stochastic loss process *)
  filtered : int;  (** dropped by the injected {!set_drop_filter} *)
  duplicated : int;  (** extra copies injected *)
  dup_bytes : int;
      (** payload bytes of those extra copies. [bytes] counts each
          datagram once at {!send}; a duplicated datagram occupies the
          wire twice, so total wire traffic attributable to the
          duplication process is [dup_bytes] on top of [bytes]. *)
  blocked : int;  (** total of the three [blocked_*] causes below *)
  blocked_crash : int;  (** dropped at arrival: destination crashed *)
  blocked_partition : int;  (** dropped at arrival: cross-partition *)
  blocked_no_handler : int;  (** dropped at arrival: no handler installed *)
  bytes : int;  (** payload bytes accepted *)
}

val create :
  Dpu_engine.Sim.t ->
  n:int ->
  ?rng:Dpu_engine.Rng.t ->
  ?loss:float ->
  ?dup:float ->
  ?link:Latency.link ->
  unit ->
  'a t
(** [create sim ~n ()] is a network of nodes [0 .. n-1].
    [loss] and [dup] are iid per-datagram probabilities (default 0).
    [rng] drives the loss/dup/latency draws (default: a [Rng.split] of
    the simulator's root — a fabric passes each group's network its own
    keyed substream so the draws are independent of group count). *)

val size : 'a t -> int
(** Number of nodes. *)

val sim : 'a t -> Dpu_engine.Sim.t

val set_handler : 'a t -> node:int -> (src:int -> 'a -> unit) -> unit
(** Install the receive callback of [node]; replaces any previous one.
    Datagrams arriving at a node with no handler are counted as blocked. *)

val send : 'a t -> src:int -> dst:int -> size_bytes:int -> 'a -> unit
(** Queue a datagram. Self-sends are delivered with minimal delay and
    are never lost. *)

val crash : 'a t -> int -> unit
(** Silence a node for good (fail-stop). In-flight datagrams to it are
    discarded at arrival time. Recoverable faults live behind the
    transport seam, in [Dpu_faults.Fault_transport]. *)

val is_crashed : 'a t -> int -> bool

val correct_nodes : 'a t -> int list
(** Nodes not crashed, ascending. *)

val partition : 'a t -> int list list -> unit
(** Install a partition: nodes in different groups cannot communicate.
    Nodes absent from every group form an implicit extra group. *)

val heal : 'a t -> unit
(** Remove any partition. *)

val set_drop_filter : 'a t -> (src:int -> dst:int -> 'a -> bool) option -> unit
(** Test hook: when the filter returns [true] the datagram is dropped
    (counted as [filtered], not [lost]). Applied before the iid loss
    process; the loss process draws no random bit for filtered
    datagrams, so installing a filter does not perturb the RNG
    stream of the survivors. *)

val counters : 'a t -> counters

val register_metrics : ?labels:(string * string) list -> 'a t -> Dpu_obs.Metrics.t -> unit
(** Export every {!counters} field (plus [net_blocked_by_cause_total]
    labelled by cause and the current loss/dup probabilities) as
    snapshot-time callbacks — no per-datagram cost. [labels] (default
    none) go on every series, so several networks can share one
    registry. *)

val egress_backlog_ms : 'a t -> node:int -> float
(** How far ahead of the current virtual time the node's interface is
    booked: the queueing delay a datagram sent now would experience
    before transmission begins. 0 when the interface is idle. *)
