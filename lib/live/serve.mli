(** Multi-process live deployment on localhost.

    [run] binds [n] UDP sockets on 127.0.0.1 (ephemeral ports) and fans
    the nodes out through {!Dpu_runtime.Sweep}, one cell and one OS
    process per node (a single node runs in the calling process). Each
    node inherits its socket and the full peer address table and runs
    the complete DPU stack under open-loop load for [duration_ms], with
    node 0 triggering an ABcast replacement (Algorithm 1 of the paper)
    at [switch_at_ms]. Each node returns its {!Node.report} of what its
    local collector saw over the sweep's pipe; the parent merges
    everything onto the shared time axis and checks the four atomic
    broadcast properties of §5.1 across the replacement — the live
    counterpart of the simulator's {!Dpu_workload.Experiment.check}.

    A non-empty [nemesis] schedule is inherited by every child through
    the fork and interpreted by a per-process
    {!Dpu_faults.Fault_transport} shim, so the whole deployment lives
    through the same scripted adversity; nodes the schedule
    crash-silences for good are excluded from the [~correct] set the
    property checkers get. [switches] arms additional replacements
    beyond the [switch_to]/[switch_at_ms] pair (each triple is
    [(at_ms, node, target)]).

    [metrics_out] writes a JSON metrics snapshot (per node, plus
    transport counters).

    [trace_out] and [log_out] turn each node's kernel trace on (its
    structural entries, no per-message hop, stamped against the
    shared epoch, plus [App ("node", "start"|"stop")] marks); the
    parent merges the shipped entry lists in (time, node) order into
    one {!Dpu_kernel.Trace.t}. [trace_out] writes it through
    {!Dpu_core.Spans.of_run} with the nemesis schedule: ONE Chrome
    trace (per-message spans, replacement windows, blocked calls,
    switch triggers, node marks and fault windows), loadable in
    Perfetto and rendered exactly as a simulated run's. [log_out]
    writes its JSONL milestones through {!Dpu_core.Spans.log_lines},
    as [dpu_run run --log-out] does on the simulator. The merged
    trace also feeds the paper's §3 battery
    ({!Dpu_props.Stack_props.check_generic} over the correct nodes,
    protocols from {!Dpu_props.Stack_props.protocols}), appended to
    [checks] as {!Dpu_workload.Experiment.check} does on the
    simulator. With neither given, the nodes run with tracing off. *)

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

val planned : params -> Dpu_faults.Corpus.switch list
(** Every replacement the run triggers: [switch_to] at [switch_at_ms]
    from node 0, then [switches]. Generation [i + 1] is the [i]-th. *)

val validate : params -> (unit, string) result
(** [Ok ()] iff [n >= 1], [load] is finite and positive, [msg_size >=
    0], the batch cap is at least 1, every time (duration, drain,
    switch times) is finite and [>= 0], and the nemesis schedule and
    every switch name a node in range. *)

type outcome = {
  node_reports : Node.report list;  (** in node order *)
  collector : Dpu_core.Collector.t;  (** all processes merged, one time axis *)
  checks : Dpu_props.Report.t list;
}

val run :
  ?metrics_out:string ->
  ?trace_out:string ->
  ?log_out:string ->
  params ->
  (outcome, string) result
(** [Error] on parameters {!validate} rejects, before any socket is
    bound; and [Error "node i: ..."] when
    node [i] raises or dies, in which case the nodes still running are
    killed. Property violations are not an error — inspect [checks]. *)
