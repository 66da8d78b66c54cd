(** Multi-process live deployment on localhost.

    A live run executes the {!Dpu_workload.Experiment.params} the
    simulator runs, range-checked by the same
    {!Dpu_workload.Experiment.validate}. {!supported} rejects the fields
    the live backend cannot honour: an [approach] other than [Repl],
    [shards <> 1], a non-zero [loss], a [consensus_layer] or
    [switch_consensus], and a [closed_loop]. Every node arms its share
    with the simulator's {!Dpu_workload.Experiment.drive}, so [pattern]
    and the switch plan are honoured. [warmup_ms], [hop_cost] and
    [metrics_enabled] are ignored: a node always keeps its metrics.

    [run_experiment] binds [n] UDP sockets on 127.0.0.1 (ephemeral
    ports) and fans the nodes out through {!Dpu_runtime.Sweep}, one OS
    process per node (a single node runs in the calling process); each
    runs {!Node.run} and returns its {!Node.report} over the sweep's
    pipe. The parent merges the reports onto the shared time axis and
    runs {!Dpu_workload.Experiment.battery} on them, as the simulator's
    {!Dpu_workload.Experiment.check} does. Nodes that [faults]
    crash-silences for good are not among the correct nodes.

    [metrics_out] writes a JSON metrics snapshot (per node, plus
    transport counters). [trace_enabled], [trace_out] and [log_out]
    each turn every node's kernel trace on (structural entries on the
    shared epoch, plus [App ("node", "start"|"stop")] marks); the
    parent merges them in (time, node) order into one
    {!Dpu_kernel.Trace.t}, which feeds the §3 battery. [trace_out] and
    [log_out] write it with {!Dpu_core.Spans.write_trace} and
    {!Dpu_core.Spans.write_log}, the simulated run's writers.

    {!params} is a compact input shape for a live run built by hand;
    {!to_experiment} turns it into the run description. *)

type params = {
  n : int;
  load : float;  (** aggregate messages per second *)
  duration_ms : float;
  drain_ms : float;  (** settle time after the load stops *)
  switch_at_ms : float;
  initial : string;
  switch_to : string option;
  switches : Dpu_faults.Corpus.switch list;
      (** extra replacements: [(at_ms, node, target)] *)
  nemesis : Dpu_faults.Schedule.t;  (** [[]] = clean network *)
  msg_size : int;
  seed : int;
  batching : int option;
      (** throughput mode: egress batch cap per UDP frame, and the same
          cap (with a 2 ms delay trigger) for protocol-level batch
          aggregation in every child's ABcast; [None] = the exact
          unbatched paths *)
}

val default : params
(** 3 nodes, 30 msg/s for 3 s, CT ABcast swapped to the sequencer
    variant at 1.5 s, clean network, no batching. *)

val of_corpus : ?base:params -> Dpu_faults.Corpus.t -> params
(** [base] (default {!default}) running a corpus scenario: its nodes,
    load, duration, drain, initial protocol, switch list and schedule
    as the nemesis, with no [switch_to]. *)

val to_experiment : params -> Dpu_workload.Experiment.params
(** The run [params] describes: {!Dpu_workload.Experiment.default}
    with its fields, [batching = Some k] as a batch cap of [k] with a
    2 ms delay, [nemesis] as [faults], no hop cost and a constant-rate
    load pattern. *)

val supported : Dpu_workload.Experiment.params -> (unit, string) result
(** [Ok ()] iff the live backend honours every field of the run:
    approach [Repl], one shard, no modelled loss, no consensus layer or
    swap, and an open loop. *)

type outcome = {
  node_reports : Node.report list;  (** in node order *)
  collector : Dpu_core.Collector.t;  (** all processes merged, one time axis *)
  checks : Dpu_props.Report.t list;
}

val run_experiment :
  ?metrics_out:string ->
  ?trace_out:string ->
  ?log_out:string ->
  Dpu_workload.Experiment.params ->
  (outcome, string) result
(** [Error] on parameters {!Dpu_workload.Experiment.validate} or
    {!supported} rejects, before any socket is bound; and [Error "node
    i: ..."] when node [i] raises or dies, in which case the nodes
    still running are killed. Property violations are not an error —
    inspect [checks]. *)

val run :
  ?metrics_out:string ->
  ?trace_out:string ->
  ?log_out:string ->
  params ->
  (outcome, string) result
(** {!run_experiment} of {!to_experiment}. *)
