(** Protocol stacks: modules, dynamic bindings, call/indication dispatch.

    This implements the composition model of §2 of the paper:

    - a {e stack} is the set of modules located on one machine;
    - a module may be dynamically {e bound} to a service it provides
      and later unbound; unbinding does not remove the module;
    - at most one module per stack is bound to a service at a time;
    - a {e service call} executes the module bound to the service; if
      no module is bound the call is blocked (queued) until some module
      is bound — this realises weak stack-well-formedness;
    - an {e indication} (a response to a call, flowing upward) is
      delivered to every module of the stack that requires the service;
      a module can emit indications even after being unbound (§2:
      “a module Qi can respond to a service call even if Qi has been
      unbound”).

    Dispatch is asynchronous through the runtime {!Dpu_runtime.Clock}
    and each hop costs [hop_cost] milliseconds (virtual under the
    simulated backend, wall-clock under the live one), standing in for
    per-module processing cost; the ≈5 % overhead of the replacement
    layer in the paper's Fig. 6 emerges from this. The stack never
    touches the simulator directly — it runs unchanged on any clock
    backend. *)

type t

type module_

type handlers = {
  handle_call : Service.t -> Payload.t -> unit;
      (** invoked when this module is bound to the called service *)
  handle_indication : Service.t -> Payload.t -> unit;
      (** invoked when a service this module requires emits an
          indication; non-matching payloads must be ignored *)
  on_start : unit -> unit;  (** after the module is added to the stack *)
  on_stop : unit -> unit;  (** when the module is removed *)
}

val default_handlers : handlers
(** All no-ops. *)

val create :
  clock:Dpu_runtime.Clock.t ->
  node:int ->
  ?group:int ->
  ?hop_cost:float ->
  trace:Trace.t ->
  ?metrics:Dpu_obs.Metrics.t ->
  unit ->
  t
(** A stack for machine [node]. [hop_cost] defaults to [0.05] ms.
    [metrics] (default {!Dpu_obs.Metrics.noop}) receives the per-node
    kernel series ([kernel_calls_total], [kernel_calls_blocked_total],
    [kernel_binds_total], …, all labelled [node=i], plus the
    [kernel_blocked_call_ms] histogram) and is exposed to modules via
    {!metrics} so protocol layers can register their own series.
    [group] adds a [group=g] label to every series — node ids repeat
    across the groups of a fabric, so the label keeps their series
    apart on a shared registry. *)

val node : t -> int

val labels : t -> (string * string) list
(** The metric labels of this stack's series: [node=i], plus
    [group=g] when created with a [group]. Layers label their own
    series with them, so the stacks of a fabric's groups keep apart. *)

val now : t -> float
(** Current time on the stack's clock, in milliseconds. *)

val metrics : t -> Dpu_obs.Metrics.t
(** The registry passed at creation ({!Dpu_obs.Metrics.noop} when
    observability is off — instruments created against it are free). *)

val crash : t -> unit
(** Fail-stop: all subsequent dispatch, timers and sends are dropped. *)

val is_crashed : t -> bool

(** {1 Modules} *)

val add_module :
  t ->
  name:string ->
  provides:Service.t list ->
  requires:Service.t list ->
  (t -> module_ -> handlers) ->
  module_
(** Create a module and add it to the stack. The init function receives
    the stack and the module itself (so handlers can close over both)
    and returns the handlers; [on_start] runs immediately after. *)

val remove_module : t -> module_ -> unit
(** Run [on_stop], drop the module, and unbind any service still bound
    to it. The module handles no further indication, not even one whose
    dispatch is under way. *)

val modules : t -> module_ list
(** Modules currently in the stack, in addition order. *)

val module_name : module_ -> string

val module_provides : module_ -> Service.t list

val module_requires : module_ -> Service.t list

val has_module : t -> name:string -> bool

val find_module : t -> name:string -> module_ option

(** {1 Bindings} *)

exception Already_bound of Service.t

val bind : t -> Service.t -> module_ -> unit
(** Bind a module to a service it provides. Raises {!Already_bound} if
    another module is currently bound (unbind first — Algorithm 1
    line 12 does exactly that). Queued blocked calls for the service
    are released. *)

val unbind : t -> Service.t -> unit
(** Remove the current binding, if any. The module stays in the stack. *)

val bound : t -> Service.t -> module_ option

val blocked_calls : t -> Service.t -> int
(** Number of calls currently queued on an unbound service. *)

(** {1 Interactions} *)

val call : t -> Service.t -> Payload.t -> unit
(** Service call: executes the bound module after one hop; queued if
    the service is unbound. *)

val indicate : t -> Service.t -> Payload.t -> unit
(** Response/indication: delivered after one hop to every module
    requiring the service (membership evaluated at delivery time). The
    receivers are fixed before the first handler runs: a module that a
    handler adds misses the indication, and one that a handler removes
    does not see it. *)

val app_event : t -> tag:string -> ('a -> string) -> 'a -> unit
(** [app_event t ~tag to_string x] records an application-level trace
    entry [to_string x] (used by monitors and by the property
    checkers). [to_string] runs only when the trace is on; pass
    [Fun.id] for a ready string. *)

val dispatch_counts : t -> int * int
(** [(calls, indications)] executed so far — the per-stack dispatch
    work, each unit costing [hop_cost]. The measured overhead of a
    layer is its share of these hops. *)

(** {1 Per-stack state}

    Typed cells, one per key and stack, for what a module shares beyond
    its closure: the generation a replacement module hands to the next
    ABcast factory, and the counters and views that readers return. A
    cell outlives its module, so counts survive a reinstall. A module
    fetches its cell once, at install. *)

type 'a key

val key : unit -> 'a key
(** A fresh key, distinct from every other. *)

val state : t -> 'a key -> (unit -> 'a) -> 'a
(** [state t k init] is [t]'s cell for [k], made by [init] on first use. *)

(** {1 Timers} *)

val after : t -> delay:float -> (unit -> unit) -> Dpu_runtime.Clock.timer
(** One-shot timer that is suppressed if the stack has crashed by the
    time it fires. Cancel with {!Dpu_runtime.Clock.cancel}. *)

val periodic : t -> period:float -> (unit -> unit) -> Dpu_runtime.Clock.timer
(** Periodic timer, stopped by cancellation or by a crash. *)
