(** Adaptive group-communication middleware — the public face of the
    library.

    A [t] is a simulated cluster running the Fig. 4 stack on every
    node. Applications broadcast messages, receive totally ordered
    deliveries, observe membership views, and — the point of the paper
    — replace the atomic broadcast protocol on the fly with
    {!change_protocol} while everything keeps running.

    {[
      let mw = Middleware.create ~n:3 () in
      Middleware.subscribe mw ~node:0 (fun m -> Format.printf "%a@." Msg.pp m);
      ignore (Middleware.broadcast mw ~node:1 "hello");
      Middleware.change_protocol mw ~node:2 Variants.sequencer;
      Middleware.run_for mw 1_000.0
    ]} *)

open Dpu_kernel

type config = {
  seed : int;
  loss : float;  (** network loss probability *)
  hop_cost : float;  (** per-module dispatch cost, ms *)
  profile : Stack_builder.profile;
  trace_enabled : bool;  (** record the kernel trace (needed by checkers) *)
  metrics_enabled : bool;
      (** allocate a live metrics registry; off by default, in which
          case all instrumentation across the stack is no-op *)
  msg_size : int;  (** default broadcast payload size, bytes *)
  faults : Dpu_faults.Schedule.t;
      (** fault schedule from virtual time 0, interpreted by a
          {!Dpu_faults.Fault_transport} shim around the cluster's
          transport — the same shim the live backend uses, so a [Crash]
          is fail-silence until a matching [Recover]. Default [[]]: no
          shim, the exact fault-free code paths. *)
}

val default_config : config
(** Seed 1, lossless LAN, 0.05 ms hops, CT ABcast with replacement
    layer, 4 KB messages, tracing on, metrics off. *)

type t

val create : ?config:config -> ?register_extra:(System.t -> unit) -> n:int -> unit -> t
(** [register_extra] can register additional protocol factories (e.g.
    the executable baselines' replacement layers) before the stacks are
    built. *)

val of_system : ?config:config -> ?register_extra:(System.t -> unit) -> System.t -> t
(** Like {!create}, but on a system the caller already built — e.g. a
    live deployment assembled with {!Dpu_kernel.System.of_runtime}.
    The simulation-only fields of [config] (seed, loss, hop_cost,
    trace/metrics switches, faults) are ignored: those live
    in the system itself. Only the local stacks of [system] are built. *)

val of_sim :
  ?group_id:int ->
  ?config:config ->
  ?register_extra:(System.t -> unit) ->
  metrics:Dpu_obs.Metrics.t ->
  runtime:Payload.t Dpu_runtime.Runtime.t ->
  sim:Dpu_engine.Sim.t ->
  net:Payload.t Dpu_net.Datagram.t ->
  unit ->
  t
(** One simulated cluster over a caller-built simulator, network and
    runtime ({!Dpu_kernel.System.of_sim}): what {!create} and each
    {!Fabric} group build through. A non-empty [config.faults] wraps
    [runtime]'s transport in a {!Dpu_faults.Fault_transport} shim
    (seed [config.seed + 0x5eed]). *)

val config : t -> config

val n : t -> int

val group_id : t -> int option
(** The fabric group this cluster is (when it is one group of a
    {!Fabric}); [None] for a standalone cluster. *)

val system : t -> System.t

val collector : t -> Collector.t

val metrics : t -> Dpu_obs.Metrics.t
(** The cluster's metrics registry ({!Dpu_obs.Metrics.noop} unless
    [config.metrics_enabled]). *)

val now : t -> float

(** {1 Application operations} *)

val broadcast : t -> node:int -> ?size:int -> string -> Msg.t
(** Atomically broadcast an application message from [node]; returns
    the message (with its unique id) and records the send in the
    collector. *)

val subscribe : t -> node:int -> (Msg.t -> unit) -> unit
(** Invoke the callback on every application message delivered at
    [node], in total order. *)

val change_protocol : t -> node:int -> string -> unit
(** [changeABcast(prot)], triggered from [node]. Requires the
    replacement layer. Raises [Invalid_argument] without it. *)

val on_protocol_change : t -> node:int -> (generation:int -> protocol:string -> unit) -> unit
(** Invoke the callback when [node] completes a switch. *)

val change_consensus : t -> node:int -> string -> unit
(** Replace the consensus implementation on the fly (requires a profile
    with [consensus_layer]); the change is threaded through the next
    decided instance. Raises [Invalid_argument] without the layer. *)

(** {1 Group membership (when the profile enables GM)} *)

val join : t -> node:int -> int -> unit

val leave : t -> node:int -> int -> unit

val on_view : t -> node:int -> (Dpu_protocols.Gm.view -> unit) -> unit

(** {1 Fault injection} *)

val crash : t -> int -> unit
(** Fail-stop [node]: its stack and its network endpoint. *)

val fault_stats : t -> Dpu_faults.Fault_transport.stats
(** The shim's ledger of injected faults ({!Dpu_faults.Fault_transport.no_stats}
    without a schedule). *)

(** {1 Running} *)

val run_for : t -> float -> unit

val run_until_quiescent : ?limit:float -> t -> unit

(** {1 Results} *)

val latency_series : t -> Dpu_engine.Series.t
(** Per-message average latency keyed by send time (paper §6). *)

val switch_window : t -> generation:int -> (float * float) option
