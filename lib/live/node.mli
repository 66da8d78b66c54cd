(** One OS process of a live deployment: a full DPU stack on the live
    clock and UDP transport, driven by a [select] event loop.

    The process hosts exactly one node of the group. It generates its
    share of the open-loop load, participates in every protocol
    (consensus, ABcast, the replacement layer), triggers whichever
    mid-stream protocol swaps are assigned to it, and on completion
    returns a {!report} that carries its local {!Dpu_core.Collector}
    as is — the parent merges these into the run-wide record.

    When [nemesis] is non-empty the UDP transport is wrapped in
    {!Dpu_faults.Fault_transport} on this node's live clock: every
    process interprets the same schedule value against its own traffic,
    so the whole deployment experiences the scripted adversity. *)

open Dpu_kernel

type config = {
  me : int;  (** which node this process hosts *)
  n : int;
  epoch : float;  (** shared wall-clock origin, from the parent *)
  service : string;  (** envelope service name; foreign frames drop *)
  generation : int;  (** envelope deployment generation *)
  initial : string;  (** initial ABcast variant *)
  switches : Dpu_faults.Corpus.switch list;
      (** (at_ms, node, target): this process arms only its own *)
  nemesis : Dpu_faults.Schedule.t;  (** [[]] = clean network *)
  load : float;  (** aggregate messages per second across the group *)
  msg_size : int;
  batching : int option;
      (** throughput mode: egress batch cap for the UDP transport and
          protocol-level batch aggregation (same cap, 2 ms delay) for
          the stack; [None] = the exact unbatched code paths *)
  duration_ms : float;  (** load generation horizon *)
  drain_ms : float;  (** extra time to let in-flight traffic settle *)
  seed : int;
  trace_enabled : bool;
      (** record the kernel trace (plus start/stop marks as
          [App ("node", _)] entries) against the shared epoch, shipped
          in the report; [false] keeps the hot path allocation-free *)
}

(** What one node observed. Plain data with no closures, so it crosses
    the {!Dpu_runtime.Sweep} result pipe from a node's process to the
    parent as is. *)
type report = {
  node : int;
  collector : Dpu_core.Collector.t;
      (** this node's sends, deliveries and switches, two words per send
          or delivery; the parent merges them with
          {!Dpu_core.Collector.merge} *)
  counters : Dpu_runtime.Transport.counters;
      (** the shim's view when a nemesis is active, else the raw wire *)
  batches : Dpu_runtime.Transport.batch_counters option;
      (** egress batching statistics; [Some] iff the run batched *)
  rx_errors : int;  (** receive-path syscall errors survived by drain *)
  faults : Dpu_faults.Fault_transport.stats option;
      (** [Some] iff the run had a nemesis *)
  metrics : Dpu_obs.Json.t;
  trace : Trace.entry list;
      (** this process's kernel trace, timestamps in ms since the
          shared epoch; [[]] when tracing was off *)
}

val run :
  config:config -> fd:Unix.file_descr -> peers:Unix.sockaddr array -> unit ->
  report
(** Run the node to completion ([duration_ms + drain_ms] of wall
    time). [fd] must already be bound to [peers.(config.me)]. *)
