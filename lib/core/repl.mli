(** The replacement module — Algorithm 1 of the paper.

    [Repl] provides the [r-abcast] indirection service (Fig. 3's [r-p])
    and requires [abcast]. It intercepts every broadcast and delivery
    so that it can coordinate a dynamic replacement of the ABcast
    protocol with no extra synchronisation machinery: the protocol
    change message is simply atomically broadcast through the protocol
    being replaced, so every stack switches at the same point of the
    total order.

    Line-by-line correspondence with Algorithm 1. The algorithm itself
    is one pure step, {!Dpu_model.Repl_step}, the same function the
    model checker [Dpu_model.Algo1] explores; this module runs it and
    interprets its actions against the kernel:

    - state: [undelivered] (line 2) and [seqNumber] (line 4) are the
      step's state; the current provider binding (line 3) is the
      stack's;
    - [Change_abcast prot] call → [Repl_step.change], ABcast as
      {!A_new} (lines 5–6);
    - [R_broadcast m] call → [Repl_step.broadcast] adds [m] to
      [undelivered], and its entry is ABcast as {!A_data} (lines 7–9);
    - [Adeliver] → [Repl_step.deliver] (lines 10–21). Its [Switch]
      action unbinds the old module, [create_module]s the new protocol
      (recursively binding providers for any services it requires —
      lines 22–28 via [Registry.instantiate]) and indicates
      [Protocol_changed]; each [Reissue] ABcasts an undelivered
      message through the new protocol (lines 15–16); [R_deliver] is
      line 21. A data entry of another generation yields nothing
      (line 18). A change tagged with a superseded [seqNumber] yields
      [Stale_change] and is dropped: the line-10 check the printed
      algorithm lacks (see [Dpu_model.Algo1]).

    The [prot] argument travels as a protocol name resolved against the
    system registry (see {!Dpu_kernel.Registry}).

    Correctness: weak stack-well-formedness (the unbind of line 12 is
    followed by a bind within the same replacement step), weak
    protocol-operationability (uniform agreement of ABcast makes every
    correct stack eventually deliver {!A_new} and create the module),
    and the four ABcast properties across replacements (§5.2.2) — all
    checked mechanically by the [Dpu_props] test-suite. *)

open Dpu_kernel

(** Wire payloads carried inside the underlying ABcast stream. Exposed
    for tests and trace inspection. *)
type Payload.t +=
  | A_data of { sn : int; id : Msg.id; size : int; payload : Payload.t }
      (** [ABcast(nil, seqNumber, m)] *)
  | A_new of { sn : int; protocol : string }
      (** [ABcast(newABcast, seqNumber, prot)] *)

val protocol_name : string
(** ["repl.abcast"] *)

val install : registry:Registry.t -> n:int -> Stack.t -> Stack.module_
(** [n] is the group's size: nodes [0 .. n-1] are its members. *)

val register : System.t -> unit
(** Register under {!protocol_name}, providing [Service.r_abcast]. *)

val generation : Stack.t -> int
(** Current [seqNumber] of the stack's replacement module (0 initially):
    the generation it handed to the ABcast module in force
    ({!Dpu_protocols.Abcast_iface.current_epoch}). The size of its [undelivered] set is the [repl_undelivered] series
    of the stack's metrics. *)
