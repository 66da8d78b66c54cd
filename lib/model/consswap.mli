(** Bounded model checking of the consensus replacement layer
    ([Dpu_core.Repl_consensus], the paper's §7 / TR [16] extension).

    The abstraction: one sequential stream of consensus instances
    [k = 0, 1, …]. Every node proposes each instance (under its current
    generation, optionally tagged with a pending change request), and
    proposes [k+1] only after it accepted a decision for [k] — the
    sequential-client contract the layer documents. Each generation's
    implementation may decide an instance by picking one of the
    proposals made under that generation; one instance can end up
    decided by *both* the old and the new implementation (the re-issue
    path), which is exactly the razor's edge the design must survive.
    Nodes learn decisions in arbitrary order, and every node-local
    transition is the shipped step {!Consensus_step}, the one
    [Dpu_core.Repl_consensus] runs: accept only the current generation,
    track the decided prefix, apply a tagged switch only once the
    prefix reaches it, re-issue own undecided proposals beyond the
    switch point. The variants delete one rule by rewriting the step's
    input or output around it.

    Checked in every reachable state: {e decision agreement} (no two
    nodes accept different values for one instance) and {e at most one
    acceptance per instance per node}; in every quiescent state:
    {e completeness} (every node accepted a decision for every instance
    it proposed) and {e switch agreement} (all nodes end in the same
    generation). *)

type bounds = {
  nodes : int;
  instances : int;  (** length of the instance stream *)
  changes : int;  (** change requests (0 or 1) *)
  max_states : int;
}

val default_bounds : bounds
(** 2 nodes, 2 instances, 1 change, 4M states. *)

type variant =
  | Sound  (** the shipped design *)
  | No_prefix_defer
      (** apply a tagged switch immediately on its decision, even with
          earlier instances still undecided locally *)
  | No_stale_discard
      (** accept decisions of superseded generations *)
  | No_reissue  (** do not re-propose undecided instances after a switch *)

val variant_name : variant -> string

type result = string Explore.result

val check : ?variant:variant -> ?bounds:bounds -> unit -> result

val pp_result : Format.formatter -> result -> unit
