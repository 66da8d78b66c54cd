(** The catalogue of replaceable ABcast protocol implementations.

    These names are what [changeABcast] ships inside the protocol
    change message (Algorithm 1's [prot] argument). *)

val ct : string
(** ["abcast.ct"] — consensus-based (Chandra–Toueg reduction). *)

val sequencer : string
(** ["abcast.seq"] — fixed sequencer. *)

val token : string
(** ["abcast.token"] — token ring. *)

val all : string list

val register_all :
  ?batching:Dpu_protocols.Batcher.config ->
  Dpu_kernel.System.t ->
  unit
(** Register every variant (and their substrate protocols: udp, rp2p,
    fd, rbcast, consensus) in the system registry, so that
    [Registry.instantiate] can build any of them on demand during a
    replacement. [batching] turns on throughput-mode aggregation for
    the consensus and sequencer variants (the token ring stays
    unbatched). *)
