(** The scenario runner behind every figure and table.

    One [run] simulates the paper's benchmark (§6.2): [n] stacks on a
    LAN, a constant aggregate load of ABcast messages, optionally one
    dynamic protocol replacement triggered mid-run, under a selectable
    DPU approach. It returns the per-message latency series (the
    paper's average-latency metric), the statistics split into the
    normal period and the replacement window, and enough bookkeeping
    to check every correctness property afterwards. *)

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
  approach : approach;
  batch_size : int;
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
  during_margin_ms : float;
      (** messages sent this long after the last stack switched still
          count as "during the replacement" (cold-start tail) *)
  consensus_layer : string option;
      (** install the consensus replacement layer on this initial
          implementation *)
  switch_consensus : (float * string) option;
      (** (time, target implementation): hot-swap consensus mid-run
          (needs [consensus_layer]) *)
  faults : Dpu_faults.Schedule.t;
      (** declarative fault schedule armed at virtual time 0. [Crash]
          is fail-stop here (stack + network endpoint); [Recover] of a
          fail-stopped node is ignored. Default: no faults. *)
  log_out : string option;
      (** write structured JSONL milestone logs (start, switch
          triggers, fault events, completion) to this path, stamped on the
          {e virtual} clock — identical params produce byte-identical
          files; [None] (the default) is the noop logger *)
  epoch_buffer : bool;
      (** install the future-epoch wire buffer alongside the layer
          (default [true]). Disabling it reopens the receive-side hole
          in the generation filter; {!preflight} rejects such a plan
          whenever a switch is requested *)
}

val default : params
(** n=7, 40 msg/s, 4 KB, 10 s, CT→CT switch at 5 s under [Repl] — the
    paper's Fig. 5 setting. *)

type result = {
  params : params;
  latency : Series.t;  (** avg latency per message, keyed by send time *)
  normal : Stats.t;  (** messages sent outside the replacement window *)
  during : Stats.t;  (** messages sent inside it *)
  switch_window : (float * float) option;
      (** [(trigger, last stack switched)] *)
  switch_duration_ms : float;  (** window width; 0 when no switch *)
  blocked_ms : float;  (** max application-blocked time over stacks *)
  sent : int;
  delivered_everywhere : int;  (** messages delivered by all correct stacks *)
  collector : Dpu_core.Collector.t;
  trace : Dpu_kernel.Trace.t;
  metrics : Dpu_obs.Metrics.t;
      (** the run's metrics registry ({!Dpu_obs.Metrics.noop} unless
          [metrics_enabled]) *)
  correct : int list;
}

exception Preflight_failure of Dpu_props.Report.t list
(** The static composition verifier rejected the configuration. Raised
    by [run] before any simulation step, so a mis-composed profile or
    unsafe update plan fails in milliseconds instead of surfacing as a
    stuck stack minutes into a sweep. *)

val preflight : params -> Dpu_props.Report.t list
(** Statically verify the configuration [run] would assemble
    ({!Dpu_analysis.Composition}): stack well-formedness, provider
    acyclicity, unique bindings and update-plan safety for the planned
    [switch_to] / [switch_consensus] swaps. No simulation happens. *)

val blocked_ms : Dpu_core.Middleware.t -> float
(** Worst application-blocked time over the stacks
    ({!Dpu_baselines.Maestro.blocked_ms}; 0 for every other approach). *)

val run : params -> result
(** Raises [Invalid_argument] if [params.faults] fails
    {!Dpu_faults.Schedule.validate}, and {!Preflight_failure} if the
    static composition verifier rejects the configuration. *)

val check : result -> Dpu_props.Report.t list
(** All ABcast properties plus the generic §3 properties for the run. *)
