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

    [metrics_out]/[spans_out] mirror the sim path's exports: a JSON
    metrics snapshot (here per-node, plus transport counters) and
    Chrome trace-event spans of the merged run.

    [trace_out] goes further: it turns per-node trace recording on
    (each child records switch triggers, fault injections and
    start/stop marks against the shared epoch, shipped in its report)
    and writes ONE merged Chrome trace — collector spans, every node's
    events and the nemesis schedule as fault windows — loadable in
    Perfetto. [logs_dir] gives each child a structured JSONL log file
    ([node-<i>.jsonl], created on demand); with neither given, children
    run with tracing off and the noop logger, exactly as before. *)

type params = {
  n : int;
  load : float;  (** aggregate messages per second *)
  duration_ms : float;
  drain_ms : float;  (** settle time after the load stops *)
  switch_at_ms : float;
  initial : string;
  switch_to : string option;
  switches : (float * int * string) list;
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

type outcome = {
  node_reports : Node.report list;  (** in node order *)
  collector : Dpu_core.Collector.t;  (** all processes merged, one time axis *)
  checks : Dpu_props.Report.t list;
}

val run :
  ?metrics_out:string ->
  ?spans_out:string ->
  ?trace_out:string ->
  ?logs_dir:string ->
  params ->
  (outcome, string) result
(** [Error] on bad parameters — [n < 1], [load <= 0], a batch cap
    below 1, or a nemesis schedule or switch naming a node out of
    range — before any socket is bound; and [Error "node i: ..."] when
    node [i] raises or dies, in which case the nodes still running are
    killed. Property violations are not an error — inspect [checks]. *)
