(** Per-message spans and the replacement timeline, reconstructed from
    the {!Collector} and the kernel {!Dpu_kernel.Trace} (a simulated
    run's, or a live run's merged from every node), as Chrome trace
    events (load the exported JSON in Perfetto or chrome://tracing).

    Layout: each node is one process (pid = node) with two
    lanes — tid 0 carries one span per (message, delivering node) from
    ABcast to delivery there, tid 1 carries kernel/DPU events (blocked
    service calls as spans, generation installs, switch triggers and
    node start/stop as instants). One synthetic process (pid = n)
    holds the replacement windows: a span per generation from the
    first install to the last, the paper's replacement window. A
    faulty run adds a second one (pid = n + 1) with the nemesis
    schedule's fault windows.

    {!log_lines} is the same trace's other sink: the JSONL milestone
    log. *)

open Dpu_kernel

val message_events : Collector.t -> Dpu_obs.Trace_event.t list
(** One complete span per (sent message, delivering node); messages
    never delivered anywhere render as instants on the sender. *)

val switch_events : Collector.t -> n:int -> Dpu_obs.Trace_event.t list
(** Per-node generation-install instants plus one window span per
    generation on the timeline process. *)

val blocked_events : Trace.t -> Dpu_obs.Trace_event.t list
(** One span per blocked service call (from [Call_blocked] to its FIFO
    matching [Call_unblocked]); requires the trace to have been
    enabled during the run. *)

val replacement_timeline : Collector.t -> (int * (float * float)) list
(** Per generation, the [(first_install, last_install)] window — the
    data behind the timeline-process spans, sorted by generation. *)

val nemesis_events :
  n:int -> horizon_ms:float -> Dpu_faults.Schedule.t -> Dpu_obs.Trace_event.t list
(** The fault schedule as a lane on the synthetic process [n + 1]
    (one past the replacement timeline's): instants at every
    boundary (crash/recover, partition/heal) and a span per window —
    crash .. recover, partition .. heal or the next partition, and the
    loss/dup/degrade windows. Windows the schedule never closes are
    clamped at [horizon_ms]. An empty schedule adds no events. *)

val of_run :
  ?trace:Trace.t ->
  ?faults:Dpu_faults.Schedule.t * float ->
  n:int ->
  Collector.t ->
  Dpu_obs.Trace_event.t list
(** Everything above plus process/thread naming metadata: the one
    Chrome renderer of a run, simulated or live. [trace], when given
    and enabled, contributes blocked-call spans, switch-trigger
    instants and a live node's ["node start"]/["node stop"] marks.
    [faults] = [(schedule, horizon_ms)] adds {!nemesis_events}. *)

val to_json : Dpu_obs.Trace_event.t list -> Dpu_obs.Json.t
(** The loadable trace-event envelope. *)

val log_lines : ?faults:Dpu_faults.Schedule.t -> Trace.t list -> string list
(** The run's JSONL log, the trace's other sink: one JSON object per
    line, in time order — one per [App] and [Crash] entry of each
    shard's trace (one trace per shard), and one ["fault"] per
    schedule event, described by {!Dpu_faults.Schedule.pp_action}.
    Every object starts with [t] (ms on the trace's clock) and
    [event] (the [App] tag, ["crash"] or ["fault"]), then [shard]
    (only with more than one trace), [node] and [data] where they
    apply. A pure function of its arguments: two identical
    simulated runs give identical lines. *)
