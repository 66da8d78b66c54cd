(** Sharded load runner: drive a {!Dpu_core.Fabric} — many independent
    ABcast groups over one simulator — under open- or closed-loop load,
    optionally performing a {e rolling protocol replacement} across
    every shard while the load keeps flowing, and report per-shard
    latency quantiles, switch windows and property batteries.

    The headline artefact of a rolling run is
    [result.max_concurrent_switches]: how many Algorithm 1 instances
    were in flight at the same instant. Per-group generations mean
    shard replacements never serialise, so with a stagger smaller than
    a switch window this is > 1. *)

type rolling = {
  to_protocol : string;  (** ABcast variant to switch every shard to *)
  start_ms : float;  (** virtual time of the first shard's switch *)
  stagger_ms : float;  (** delay between consecutive shards' triggers *)
}

val default_rolling : rolling
(** Sequencer at 200 ms with a 0.25 ms stagger — smaller than a switch
    window, so consecutive shards' windows overlap. *)

type params = {
  n : int;  (** total nodes across all shards *)
  shards : int;
  seed : int;
  msg_size : int;
  load_per_s : float;  (** aggregate open-loop rate, split by shard size *)
  warmup_ms : float;  (** latency samples before this are discarded *)
  duration_ms : float;  (** load stops here; the run then drains *)
  drain_ms : float;
      (** extra virtual time after [duration_ms] for in-flight messages
          to come out — a horizon, not a poll: the stacks' periodic
          failure-detector timers never stop, so the simulator is
          never literally idle *)
  closed_loop : int option;
      (** [Some k]: replace the open loop with [k]
          {!Load_gen.closed_loop} clients per node *)
  rolling : rolling option;
  loss : float;
}

val default : params
(** 15 nodes / 4 shards, 200 msg/s aggregate, 2 s + drain, no rolling. *)

type shard_result = {
  shard : int;
  nodes : int;
  sent : int;
  delivered : int;  (** at the shard's node 0 (total order) *)
  measured : int;  (** latency samples after warmup *)
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;  (** bucket estimates ({!Dpu_obs.Metrics.histogram_quantile}) *)
  mean_ms : float;
  generation : int;
  window : (float * float) option;  (** switch window of [generation] *)
  blocked_ms : float;  (** worst per-stack app-blocked time (0 for Repl) *)
  undelivered : int;
  props_ok : bool;
  violations : string list;  (** first few, for the report *)
}

type result = {
  params : params;
  per_shard : shard_result list;
  max_concurrent_switches : int;
      (** across the generation-1 windows of all shards; 0 without rolling *)
  drained_at_ms : float;  (** virtual time the fabric went quiescent *)
  all_ok : bool;
      (** every shard: properties hold, nothing undelivered, nothing
          blocked, and (when rolling) the switch completed *)
}

val run : ?params:params -> unit -> result

val csv_header : string list

val csv_rows : result -> string list list

val write_csv : string -> result -> unit

val to_json : result -> Dpu_obs.Json.t
(** The full result as JSON — consumed by [dpu_run report]'s per-shard
    section. *)
