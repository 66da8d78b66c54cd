(** Assembly of the Fig. 4 group-communication stack on every node.

    With the replacement layer, each stack is (bottom-up):
    UDP → RP2P / FD → CT consensus + RBcast → ABcast (initial variant)
    → replacement layer → (optionally GM), plus a monitor. Without a
    layer the application observes [abcast] directly — the paper's
    “normal, without replacement layer” baseline of Fig. 6.

    The layer is pluggable by protocol name so the executable baselines
    ([Dpu_baselines.Maestro], [Dpu_baselines.Graceful]) can be swapped
    in for the paper's [Repl] under an identical harness; all three
    provide [Service.r_abcast] with the {!Dpu_protocols.Repl_iface}
    payloads.

    The build itself uses [Registry.instantiate]: the registry's
    recursive dependency resolution (Algorithm 1 lines 22–28)
    constructs the whole stack, which doubles as a permanent test of
    that machinery. *)

open Dpu_kernel

type profile = {
  initial_abcast : string;  (** e.g. [Variants.ct] *)
  layer : string option;
      (** protocol name of the [r-abcast] provider; [None] = no
          replacement layer *)
  with_gm : bool;  (** install group membership (needs a layer) *)
  batching : Dpu_protocols.Batcher.config option;
      (** throughput-mode batch aggregation for the ABcast variants
          ({!Dpu_protocols.Batcher}); [None] (the default) keeps the
          exact unbatched code paths *)
  consensus_layer : string option;
      (** install the consensus replacement layer ([Repl_consensus]),
          starting on the named implementation; [None] = plain
          consensus bound directly (the paper's Fig. 4) *)
  epoch_buffer : bool;
      (** install {!Dpu_protocols.Epoch_buffer} alongside a replacement
          layer (the default). [false] reopens the receive-side hole in
          the generation filter — a deliberately unsafe configuration
          that the behavioural safe-update checker rejects *)
}

val default_profile : profile
(** CT ABcast, [Repl] layer, no GM, no batching, epoch buffer on. *)

val register_protocols :
  ?register_extra:(System.t -> unit) -> profile:profile -> System.t -> unit
(** Populate the system registry with every protocol the profile can
    name (plus whatever [register_extra] adds) without building any
    stack — what the static analyser and [dpu_run check] need to reason
    about a configuration before (or instead of) running it. *)

val build :
  ?collector:Collector.t ->
  ?register_extra:(System.t -> unit) ->
  profile:profile ->
  System.t ->
  unit
(** [register_protocols], then build the profile's stack on every node.
    With a collector, a monitor module is installed on each stack. *)
