(** The one run description, and the one simulated runner behind
    every figure and table.

    {!params} describes a run on either backend: {!run} simulates it,
    and [Dpu_live.Serve.run_experiment] deploys the same record as OS
    processes over UDP. {!validate} is the one range check of run
    parameters, {!drive} the one place a run's workload is armed
    (load, replacement plan and consensus swap) and {!battery} the one
    property check of a run's record.

    One [run] simulates the paper's benchmark (§6.2): [n] stacks on a
    LAN, a constant aggregate load of ABcast messages, optionally one
    dynamic protocol replacement triggered mid-run, under a selectable
    DPU approach. The stacks form [shards] independent groups of a
    {!Dpu_core.Fabric} over one simulator; [shards = 1] is the paper's
    single group. For each shard the run returns the per-message
    latency series (the paper's average-latency metric), the
    statistics split into the normal period and the replacement
    window, and enough bookkeeping to check every correctness property
    afterwards. *)

module Stats = Dpu_engine.Stats
module Series = Dpu_engine.Series

type approach =
  | No_layer  (** application directly on [abcast] (Fig. 6 baseline) *)
  | Repl  (** the paper's replacement module (Algorithm 1) *)
  | Maestro  (** whole-stack switch baseline [20] *)
  | Graceful  (** AAC/CA barrier baseline [6] *)

val approach_name : approach -> string

type params = {
  n : int;
  seed : int;
  load : float;  (** total messages per second *)
  duration_ms : float;  (** load generation horizon *)
  warmup_ms : float;  (** excluded from the "normal" statistics *)
  msg_size : int;
  initial : string;  (** initial ABcast variant *)
  switch_to : string option;  (** [None]: no replacement *)
  switch_at_ms : float;
  switches : Dpu_faults.Corpus.switch list;
      (** extra replacements [(at_ms, node, target)] (default [[]]; a
          non-empty list needs [shards = 1]). Like [switch_to], ignored
          without a replacement layer. *)
  approach : approach;
  batching : Dpu_protocols.Batcher.config option;
      (** throughput-mode batch aggregation in the ordering hot path
          ([None] = the exact unbatched code paths) *)
  loss : float;
  hop_cost : float;
  trace_enabled : bool;
  metrics_enabled : bool;
      (** allocate a live metrics registry (default off: all
          instrumentation is no-op and results are bit-identical to a
          run without observability) *)
  pattern : Load_gen.pattern;  (** arrival process (default Poisson) *)
  closed_loop : int option;
      (** [Some k]: replace the open loop ([load], [pattern]) with [k]
          {!Load_gen.closed_loop} clients per node (default [None]) *)
  consensus_layer : string option;
      (** install the consensus replacement layer on this initial
          implementation *)
  switch_consensus : (float * string) option;
      (** (time, target implementation): hot-swap consensus mid-run
          (needs [consensus_layer]) *)
  faults : Dpu_faults.Schedule.t;
      (** fault schedule from virtual time 0, interpreted by the
          {!Dpu_faults.Fault_transport} shim around the cluster's
          transport ([Middleware.config.faults]), as on the live
          backend: a [Crash] is fail-silence until a matching
          [Recover]. Default: no faults. *)
  epoch_buffer : bool;
      (** install the future-epoch wire buffer alongside the layer
          (default [true]). Disabling it reopens the receive-side hole
          in the generation filter; {!preflight} rejects such a plan
          whenever a switch is requested *)
  shards : int;
      (** independent ABcast groups the [n] nodes are partitioned into,
          round-robin (default 1). [load] splits across them by shard
          size, and [switch_to] and [switch_consensus] apply to every
          shard. A non-empty [faults] needs [shards = 1]. *)
  stagger_ms : float;
      (** shard [g] triggers [switch_to] at
          [switch_at_ms + g * stagger_ms] (default 0.25: smaller than a
          switch window, so the shards' replacements overlap) *)
  drain_ms : float;
      (** virtual time after [duration_ms] for in-flight messages to
          come out (default 120 000) — a horizon, not a poll: the
          stacks' failure-detector timers never stop, so the simulator
          is never idle *)
}

val default : params
(** n=7, 40 msg/s, 4 KB, 10 s, CT→CT switch at 5 s under [Repl], one
    shard — the paper's Fig. 5 setting. *)

val validate : params -> (unit, string) result
(** [Ok ()] iff [n >= 1], [1 <= shards <= n], [load] is finite and
    [>= 0] and, in an open loop ([closed_loop = None]), above 0,
    [loss] is in [[0, 1]], [msg_size >= 0], the batch cap is at least
    1, [hop_cost] is finite and [>= 0], every time (duration, warmup,
    switch time, stagger, drain, the batch delay, the consensus swap
    and [switches]) is finite and [>= 0], every [switches] node is in
    range, [faults] passes {!Dpu_faults.Schedule.validate}, and
    [faults] and [switches] are empty when [shards > 1]. *)

val of_corpus : ?seed:int -> Dpu_faults.Corpus.t -> params
(** A corpus scenario as a run (default seed 1): its nodes, load,
    duration, initial protocol, switch list and fault schedule, no
    [switch_to], 0.05 ms hops, 1 KB messages, tracing off, and a drain
    30 s beyond the scenario's so retransmissions settle. *)

type shard = {
  nodes : int;  (** the shard's size; its nodes are numbered [0 .. nodes-1] *)
  latency : Series.t;  (** avg latency per message, keyed by send time *)
  normal : Stats.t;  (** messages sent after warmup, outside the replacement window *)
  during : Stats.t;
      (** messages sent inside it or up to 50 ms after it: the fresh
          protocol's cold start *)
  switch_window : (float * float) option;
      (** [(the shard's trigger, last stack switched)] *)
  switch_duration_ms : float;  (** window width; 0 when no switch *)
  blocked_ms : float;  (** max application-blocked time over stacks *)
  sent : int;
  delivered_everywhere : int;
      (** [sent] minus the messages a correct stack missed although a
          correct node sent it or some stack delivered it *)
  collector : Dpu_core.Collector.t;
  trace : Dpu_kernel.Trace.t;
  correct : int list;
      (** the nodes neither fail-stopped nor left silenced by
          [faults] at the end of the run *)
  faults : Dpu_faults.Fault_transport.stats;
      (** the fault shim's ledger ({!Dpu_faults.Fault_transport.no_stats}
          without a schedule) *)
}

type work = {
  events : int;  (** simulator events executed *)
  hops : int;  (** kernel dispatch hops: calls plus indications *)
  frames : int;  (** datagrams sent on the simulated networks *)
  bytes : int;  (** their bytes *)
  retransmissions : int;  (** Rp2p retransmissions *)
}
(** The run's deterministic work, summed over every shard. *)

type result = {
  params : params;
  per_shard : shard array;  (** one per shard; a single-group run reads index 0 *)
  metrics : Dpu_obs.Metrics.t;
      (** the run's metrics registry, shared by the shards (per-shard
          series carry a [group] label; {!Dpu_obs.Metrics.noop} unless
          [metrics_enabled]) *)
  max_concurrent_switches : int;
      (** most shards whose generation-1 switch windows overlap at one
          instant; 0 without a switch *)
  work : work;
}

val per_message : result -> (string * float) list
(** [work] per message delivered everywhere (summed over the shards;
    0 when none was), as [events_per_msg], [hops_per_msg],
    [frames_per_msg], [bytes_per_msg] and [retransmissions_per_msg]. *)

val middleware_config : params -> Dpu_core.Middleware.config
(** The stacks' configuration on either backend: {!run} builds its
    fabric from it, and a live node its middleware, whose own clock,
    transport and fault shim replace the modelled ones. *)

exception Preflight_failure of Dpu_props.Report.t list
(** The static composition verifier rejected the configuration. Raised
    by [run] before any simulation step, so a mis-composed profile or
    unsafe update plan fails in milliseconds instead of surfacing as a
    stuck stack minutes into a sweep. *)

val preflight : params -> Dpu_props.Report.t list
(** Statically verify the configuration [run] would assemble
    ({!Dpu_analysis.Composition}): stack well-formedness, provider
    acyclicity, unique bindings and update-plan safety for the planned
    [switch_to] / [switches] / [switch_consensus] swaps. No simulation
    happens. *)

val switch_plan : params -> shard:int -> Dpu_faults.Corpus.switch list
(** Group [shard]'s replacements: [switch_to] at
    [switch_at_ms + shard * stagger_ms] from the shard's
    highest-numbered node that [faults] has not crashed by then (§6.2:
    "any process triggers the replacement"), then [switches].
    Generation [i + 1] is the [i]-th. Empty without a layer. *)

val drive : params -> shard:int -> Dpu_core.Middleware.t -> unit
(** Arm group [shard]'s run on the middleware's local nodes: the open
    loop (its share of [load], in [pattern]) or the [closed_loop], the
    {!switch_plan} and the [switch_consensus] from node 0. Every time
    is on the clock's axis from 0: {!run} arms at 0, and a live node
    armed after its shared epoch keeps the same plan. *)

val run : params -> result
(** Raises [Invalid_argument] if {!validate} rejects [params], and
    {!Preflight_failure} if the static composition verifier rejects the
    configuration. Builds the fabric and {!drive}s every group. *)

val battery :
  params ->
  nodes:int list ->
  ?trace:Dpu_kernel.Trace.t ->
  Dpu_core.Collector.t ->
  Dpu_props.Report.t list
(** The properties of one group's run record, on either backend. The
    correct nodes are those of [nodes] (the ones still up at the end)
    that [faults] does not leave silenced. Every ABcast property of
    §5.1 over them, then, when [trace] is given and enabled, the
    generic §3 properties over the same nodes for [initial] and every
    [switch_to]/[switches] target. *)

val check : result -> Dpu_props.Report.t list
(** All ABcast properties plus, when tracing, the generic §3
    properties over the correct nodes, checked shard by shard. With more than one shard each
    report's property is prefixed with ["shard g: "]. *)

val all_ok : result -> bool
(** Every shard passes {!check}, delivered every message at every
    correct stack, never blocked the application and, when a switch
    was requested, completed it. *)

val to_json : result -> Dpu_obs.Json.t
(** The run as JSON: its parameters, one entry per shard (sent,
    delivered at node 0, post-warmup latency p50/p99/p999/mean,
    generation, switch window, blocked time, undelivered count,
    property verdict), [max_concurrent_switches] and {!all_ok}.
    [dpu_run report --shard] renders it. *)

val render_shards : result -> string
(** The per-shard rows of {!to_json} as a text table, then
    [max_concurrent_switches] and the {!all_ok} verdict. *)
