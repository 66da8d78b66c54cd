(** A multi-group ABcast fabric: N independent protocol groups sharing
    ONE discrete-event simulator.

    Each group (shard) is a full {!Middleware} cluster — its own
    simulated network, registry, kernel trace, collector and
    generations — so a {!change_protocol} on one shard runs Algorithm 1
    entirely inside that shard: replacements on different shards
    proceed concurrently and never serialise against each other. The
    shared simulator gives one global virtual clock and one event heap;
    each group's zero-delay work drains through its own ready queue
    ([Sim.new_group]).

    Randomness is keyed, not sequential: group [g] draws from
    [Rng.split_key root ~key:g], so a shard's stream — network jitter,
    workload gaps — is identical whether the fabric has 4 shards or
    400.

    {[
      let fabric = Fabric.create ~shards:16 ~n:63 () in
      (* rolling replacement, all shards in flight together *)
      Fabric.iter_groups fabric (fun g _ ->
          Fabric.change_protocol fabric ~shard:g Variants.sequencer);
      Fabric.run_until_quiescent fabric
    ]} *)

type t

val shard_sizes : shards:int -> n:int -> int array
(** The size of each of [shards] groups of [n] nodes, as {!create}
    partitions them: [n / shards], plus one for the first
    [n mod shards]. *)

val create :
  ?config:Middleware.config ->
  ?register_extra:(Dpu_kernel.System.t -> unit) ->
  shards:int ->
  n:int ->
  unit ->
  t
(** [create ~shards ~n ()] partitions [n] total nodes round-robin into
    [shards] groups (sizes differ by at most one; [n >= shards]
    required). [config] applies to every group; [config.seed] seeds the
    one shared simulator. With [config.metrics_enabled] all groups
    share one registry — per-group series carry a [group=g] label.
    Raises [Invalid_argument] for a non-empty [config.faults] with
    [shards > 1]: a schedule names group-local nodes. *)

val shards : t -> int

val total_nodes : t -> int

val config : t -> Middleware.config

val sim : t -> Dpu_engine.Sim.t

val metrics : t -> Dpu_obs.Metrics.t

val group : t -> int -> Middleware.t
(** The shard's cluster. Nodes are group-local ([0 .. group_size-1]). *)

val group_size : t -> int -> int

val first_node : t -> int -> int
(** Global id of the shard's node 0 (shards number their nodes
    locally; this maps them onto one fabric-wide node space). *)

val iter_groups : t -> (int -> Middleware.t -> unit) -> unit

val generation : t -> shard:int -> int
(** Last protocol generation the shard completed (observed at its
    node 0). *)

(** {1 Running} *)

val now : t -> float

val run_for : t -> float -> unit

val run_until_quiescent : ?limit:float -> t -> unit

(** {1 Protocol replacement} *)

val change_protocol : t -> shard:int -> ?node:int -> string -> unit
(** Trigger Algorithm 1 on one shard (from its group-local [node],
    default 0). Other shards are untouched. *)

val switch_window : t -> shard:int -> generation:int -> (float * float) option

val max_concurrent_switches : t -> generation:int -> int
(** Max number of shards whose [generation] switch windows overlap at
    one instant — the headline "how many Algorithm 1 runs were in
    flight together". *)
