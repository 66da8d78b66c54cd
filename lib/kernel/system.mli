(** A distributed system: [n] protocol stacks over one runtime.

    Owns the runtime (clock + transport + RNG), the shared kernel trace
    and the protocol registry. Builders (e.g. [Dpu_core.Stack_builder])
    populate each stack with modules.

    Two deployment shapes exist:

    - {!create} builds the classic {e simulated} deployment: a
      discrete-event simulator, a simulated datagram network, and all
      [n] stacks living in this process. Bit-identical to the
      pre-runtime behaviour.
    - {!of_runtime} wraps an externally supplied runtime (e.g. the
      live-clock/UDP backend), where typically only {e one} node of the
      [n]-node system is local to this process. Non-local slots have no
      stack; {!stack} on them raises. *)

type t

val create :
  ?seed:int ->
  ?loss:float ->
  ?dup:float ->
  ?link:Dpu_net.Latency.link ->
  ?hop_cost:float ->
  ?trace_enabled:bool ->
  ?metrics:Dpu_obs.Metrics.t ->
  n:int ->
  unit ->
  t
(** Simulated deployment. [metrics] (default {!Dpu_obs.Metrics.noop})
    is wired into the simulator, the network and every stack; protocol
    modules reach it through [Stack.metrics]. *)

val of_runtime :
  ?hop_cost:float ->
  ?trace_enabled:bool ->
  ?metrics:Dpu_obs.Metrics.t ->
  ?local:int list ->
  runtime:Payload.t Dpu_runtime.Runtime.t ->
  n:int ->
  unit ->
  t
(** External deployment over a caller-supplied runtime. [local]
    (default: all of [0..n-1]) lists the nodes whose stacks live in
    this process. *)

val of_sim :
  ?group_id:int ->
  ?hop_cost:float ->
  ?trace_enabled:bool ->
  ?metrics:Dpu_obs.Metrics.t ->
  runtime:Payload.t Dpu_runtime.Runtime.t ->
  sim:Dpu_engine.Sim.t ->
  net:Payload.t Dpu_net.Datagram.t ->
  n:int ->
  unit ->
  t
(** One {e group} of a multi-group fabric: a simulated deployment over
    a caller-built simulator, network and runtime, so many systems can
    share ONE [Sim.t] (each with its own network, registry, trace and
    generations). Unlike {!create} nothing is registered on [metrics] —
    a fabric shares one registry across groups and per-group kernel
    series are told apart by the [group=g] label that [group_id] adds
    via [Stack.create]. The driving calls ({!run_for}, …) advance the
    {e shared} simulator. *)

val n : t -> int

val group_id : t -> int option
(** The fabric group this system is a member of ([None] outside a
    fabric). *)

val runtime : t -> Payload.t Dpu_runtime.Runtime.t

val clock : t -> Dpu_runtime.Clock.t

val transport : t -> Payload.t Dpu_runtime.Transport.t

val rng : t -> Dpu_engine.Rng.t
(** The runtime's root PRNG (the simulator's root under {!create}). *)

val net : t -> Payload.t Dpu_net.Datagram.t
(** The simulated datagram network — for fault injection and
    link-level twiddling in experiments. Raises [Invalid_argument] on
    an {!of_runtime} deployment. *)

val trace : t -> Trace.t

val metrics : t -> Dpu_obs.Metrics.t

val registry : t -> Registry.t

val local_nodes : t -> int list
(** Nodes whose stacks live in this process (all nodes under
    {!create}). *)

val stacks : t -> Stack.t array
(** The local stacks, in node order. *)

val stack : t -> int -> Stack.t
(** Raises [Invalid_argument] if the node is not local. *)

val iter_stacks : t -> (Stack.t -> unit) -> unit
(** Iterate the local stacks. *)

val crash_node : t -> int -> unit
(** Fail-stop the stack and (in a simulated deployment) silence its
    network endpoint. *)

val correct_nodes : t -> int list

val now : t -> float

(** {1 Driving a simulated deployment}

    These raise [Invalid_argument] on {!of_runtime} deployments — a
    live runtime advances on its own. *)

val run_for : t -> float -> unit

val run_until : t -> float -> unit

val run_until_quiescent : ?limit:float -> t -> unit
(** Drain all pending events, or stop at virtual time [limit]. *)
