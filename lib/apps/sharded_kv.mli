(** The sharded front of {!Replicated_kv}: a consistent-hash ring over
    keys routes every operation to one group of a {!Dpu_core.Fabric},
    where it rides that shard's totally ordered broadcast.

    Each shard is an independent replicated store — its own history,
    its own digests — so ordering (and protocol replacement!) on one
    shard never waits on another. Cross-shard reads stay local: a read
    goes to a replica of the owning shard and is served from its state.

    {[
      let fabric = Fabric.create ~shards:4 ~n:12 () in
      let kv = Sharded_kv.create fabric in
      Sharded_kv.put kv "user:42" "ada";
      Fabric.change_protocol fabric ~shard:(Sharded_kv.shard_of kv "user:42")
        Variants.sequencer;
      Sharded_kv.put kv "user:42" "lovelace";   (* rides the switch *)
      Fabric.run_until_quiescent fabric
    ]} *)

type t

val create : ?vnodes:int -> Dpu_core.Fabric.t -> t
(** Attach one replica per node of every group. [vnodes] is the ring's
    points-per-shard (default 64). *)

val fabric : t -> Dpu_core.Fabric.t

val ring : t -> Hash_ring.t

val shard_of : t -> string -> int
(** Which shard owns a key. *)

val replicas : t -> shard:int -> Replicated_kv.t array
(** The shard's replicas, indexed by group-local node. *)

val replica : t -> shard:int -> node:int -> Replicated_kv.t

(** {1 Updates (ordered within the owning shard)} *)

val put : t -> string -> string -> unit

val delete : t -> string -> unit

val incr : t -> ?by:int -> string -> unit

(** {1 Local reads} *)

val get : t -> string -> string option

val get_int : t -> string -> int

(** {1 Convergence} *)

val converged : t -> bool
(** Every shard's replicas agree. *)

val size : t -> int
(** Live keys across all shards (counted at each shard's node 0). *)
