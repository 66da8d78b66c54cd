(** Behavioural safe-update checker.

    The structural checks of {!Composition} decide whether a swapped-in
    protocol {e fits} the stack; this module decides whether the swap
    can {e strand} work that is already in flight. It follows the shape
    of Castro-Perez & Yoshida's DMst construction:

    + {e 1-unfolding}: walk the old protocol's {!Dpu_kernel.Spec} from
      its quiescent state, firing each transition at most once. Every
      reachable non-quiescent configuration is an in-flight {e shape} a
      switch point can observe — an undelivered payload, an open
      ordering round (a wire message emitted but not consumed), or a
      partially-flushed batch — together with the trace that produced
      it.
    + {e combination} (the ♢ of the paper, scaled to this stack): place
      each shape next to the new protocol's spec under the replacement
      layer's capabilities and ask whether some declared capability
      discharges it — re-issue for undelivered payloads, epoch tagging
      for stale wire messages, supersession flush for open batches, a
      future-epoch buffer for the successor's early traffic.
    + every shape that nothing discharges is a {!hazard}: the checker
      reports which obligation breaks, whether the shape is stranded or
      re-issued into the wrong instance, and a counterexample trace
      (the shape's provenance followed by the failing switch step).

    The verdict is deliberately aligned with the dynamic machinery: a
    pair the checker accepts must survive the nemesis property battery
    across a mid-stream swap, and a pair it rejects must come with a
    concrete violating schedule ([test_analysis.ml] asserts both
    directions). *)

open Dpu_kernel

(** One unit of in-flight work at the switch point. *)
type pending =
  | P_deliver  (** a payload accepted but not yet delivered *)
  | P_wire of Spec.kind  (** a wire message emitted but not consumed *)
  | P_batch of Spec.kind  (** a payload parked in an open batch *)

(** A reachable in-flight configuration of the 1-unfolding. *)
type shape = {
  sh_state : string;  (** LTS state the unfolding stopped in *)
  sh_pending : pending list;  (** in-flight units, oldest first *)
  sh_trace : string list;  (** provenance: one step per fired label *)
}

val unfold1 : Spec.t -> shape list
(** All in-flight shapes of one broadcast: every configuration with a
    non-empty pending set reachable from [s_init] firing each
    transition at most once. Deterministic; deduplicated by
    [(state, pending)] keeping the first (shortest) provenance. *)

val pending_name : pending -> string
(** Human name of one pending unit, e.g.
    ["an in-flight seq.order"]. *)

(** An in-flight shape the old/new combination fails to discharge. *)
type hazard = {
  h_shape : string;  (** {!pending_name} of the undischarged unit *)
  h_fate : [ `Stranded | `Reissued ];
      (** [`Stranded]: the work is lost; [`Reissued]: it re-enters the
          wrong instance (duplicate or order divergence) *)
  h_obligation : Spec.obligation;  (** the obligation that breaks *)
  h_trace : string list;
      (** counterexample: the shape's provenance, then the switch, then
          the failing step *)
}

val check_pair :
  old_name:string ->
  old_spec:Spec.t ->
  new_name:string ->
  new_spec:Spec.t ->
  layer:string * Spec.t ->
  passives:(string * Spec.t) list ->
  int * hazard list
(** Combine the old spec's 1-unfolding with the new spec under the
    layer's capabilities; [passives] are the plan's passive listeners
    (the epoch buffer, when installed). Returns how many discharge
    obligations were examined and the hazards that survived. Both specs
    and the layer spec must be non-opaque — the caller
    ({!Composition.verify}) turns opaque/missing specs into violations
    before getting here. *)

val hazard_message : old_name:string -> new_name:string -> hazard -> string
(** One-line violation text for a report, ending in
    ["counterexample: <step>; <step>; ..."]. *)
