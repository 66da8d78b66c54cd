(** Dynamic replacement of the *consensus* protocol — the paper's §7
    future work, following the idea of the companion report [16]
    ("Dynamic update of distributed agreement protocols"): thread the
    protocol change through the very sequence of agreements the
    protocol produces.

    The module provides [Service.consensus] (so clients such as the
    consensus-based ABcast are unaware of it, exactly like [Repl] for
    ABcast) and routes each proposal to the current implementation —
    Chandra–Toueg or Paxos.

    {2 Algorithm}

    Instances of one [epoch] form a {e stream}. The layer requires the
    client to use each stream sequentially: propose instance [k+1] only
    after instance [k]'s decision was indicated (the consensus-based
    ABcast does exactly this). Then:

    - every proposal is wrapped and tagged with the stream's current
      {e generation}; while a change is requested, outgoing proposals
      additionally carry the target protocol name;
    - implementations run instances under an encoded epoch
      ([stream * 1024 + generation]), so wire traffic of different
      generations can never interfere;
    - when a decision tagged with a change request is delivered for
      instance [(e, k_s)], every stack schedules the switch for stream
      [e] {e at the same point of the stream}: it takes effect once the
      stack has seen decisions for every [k <= k_s] (they keep coming
      from the old implementation, which remains in the stack), and all
      later instances run on the new implementation;
    - decisions arriving for a superseded generation are ignored, and
      this stack's undecided proposals are re-issued under the new
      generation — the analogue of Algorithm 1's lines 15–18.

    Sequential use per stream makes the switch point unambiguous, which
    is what rules out two implementations deciding the same instance
    differently at different stacks.

    These per-stream rules are one pure step,
    {!Dpu_model.Consensus_step}, the same function the model checker
    [Dpu_model.Consswap] explores: [Consensus_step.propose] either
    repeats an already-decided value or proposes under the stream's
    generation, [Consensus_step.decide] yields [Stale] or [Decided]
    followed, once the prefix covers [k_s], by [Switch] and the
    [Reissue]s. This module runs the step for every stream and
    interprets its actions against the kernel.

    {2 Implementation slots}

    A draining old generation must still accept wire traffic while the
    new one serves proposals, and a stack can only bind one module per
    service. Generations therefore cycle through a small ring of
    implementation services ([consensus-impl.0] … [consensus-impl.7]);
    at most 8 generations can be draining at once (far more than any
    realistic switch rate).

    {2 Scope}

    Generations are tracked per stream; a stream created later (e.g. by
    an ABcast replacement) starts on the initial implementation.
    Replacing ABcast and consensus *simultaneously* is out of scope
    here, as in the paper. *)

open Dpu_kernel

type Payload.t +=
  | Change_consensus of string
      (** call: replace the consensus protocol with the registered
          implementation named [prot] (e.g.
          [Dpu_protocols.Consensus_paxos.protocol_name]) *)
  | Consensus_changed of { generation : int; protocol : string }
      (** indication (on [Service.consensus]): stream 0's switch
          completed on this stack *)

(** Wire payloads (exposed for wire round-trip tests and trace
    tooling). *)
type Payload.t +=
  | Wrapped of { value : Payload.t; switch : string option }
      (** the value wrapper threaded through the underlying consensus *)
  | Wire_request of { protocol : string }
      (** change-request gossip, so every stack tags its proposals *)

val protocol_name : string
(** ["repl.consensus"] *)

val slots : int
(** Size of the implementation-service ring (8). *)

val impl_name : string -> slot:int -> string
(** Registry name of implementation [prot] at a ring slot. *)

val impl_service : int -> Service.t
(** The implementation service of a ring slot ([consensus-impl.k]). *)

val spec : Spec.t
(** Behavioural spec of the layer: generation-scoped agreement rounds,
    superseded decisions filtered, undecided proposals re-issued. *)

val register_impls : System.t -> unit
(** Register both implementations (CT and Paxos) at every ring slot in
    the system registry, so generation switches can instantiate them. *)

val install : registry:Registry.t -> initial:string -> n:int -> Stack.t -> Stack.module_
(** Add the layer to a stack and bring up generation 0 on the [initial]
    implementation (default choice:
    [Dpu_protocols.Consensus_ct.protocol_name]). The caller binds the
    returned module to [Service.consensus]. Installed directly rather
    than through the registry: its dependency list covers the whole
    slot ring, which only the layer itself should populate. *)

val generation : Stack.t -> int
(** Current generation of stream 0 (diagnostics). *)
