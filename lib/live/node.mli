(** One OS process of a live deployment: a full DPU stack on the live
    clock and UDP transport, driven by a [select] event loop.

    The process hosts one node of the group and runs the same
    {!Dpu_workload.Experiment.params} as every other node (the fields
    [Serve.supported] accepts). It has no load generator or switch
    plan of its own: {!Dpu_workload.Experiment.drive}, which arms
    every simulated group, arms its share of the load and of the
    switch plan on the shared epoch, so a node that starts late keeps
    the plan. It takes part in every protocol and returns a
    {!report} that carries its local {!Dpu_core.Collector} as is.
    [batching] caps both the egress batch per UDP frame and the
    protocols' batches. A non-empty [faults] wraps the transport in
    {!Dpu_faults.Fault_transport} on this node's live clock: every
    process interprets the same schedule. *)

open Dpu_kernel

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
  params:Dpu_workload.Experiment.params ->
  me:int ->
  epoch:float ->
  generation:int ->
  fd:Unix.file_descr ->
  peers:Unix.sockaddr array ->
  unit ->
  report
(** Run node [me] of [params] to completion, until [duration_ms +
    drain_ms] after [epoch], the wall-clock origin every node shares.
    [generation] is stamped into every envelope, so frames of an
    earlier deployment that bound the same ports drop. With
    [trace_enabled] the node records its kernel trace (plus start/stop
    marks as [App ("node", _)] entries) on the shared epoch. [fd] must
    already be bound to [peers.(me)]. *)
