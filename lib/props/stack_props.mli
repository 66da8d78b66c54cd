(** Mechanical checkers for the paper's generic DPU properties (§3),
    evaluated over the kernel {!Dpu_kernel.Trace}.

    - {e Stack-well-formedness}: whenever a module calls a service, the
      service is bound to one module (strong) or eventually bound
      (weak). The kernel queues calls on unbound services and records
      [Call_blocked]/[Call_unblocked] pairs, so the weak property holds
      iff every blocked call was eventually released, and the strong
      property holds iff no call ever blocked.

    - {e Protocol-operationability}: whenever a module of protocol [P]
      is bound in some stack, every non-crashed stack (eventually, for
      weak) contains a module of [P]. Modules are identified by their
      protocol name. *)

open Dpu_kernel

val weak_stack_well_formedness : Trace.t -> Report.t

val strong_stack_well_formedness : Trace.t -> Report.t
(** Fails on every [Call_blocked] entry; [checked] is the number of
    stacks (nodes) with an entry in the trace. *)

val weak_protocol_operationability :
  Trace.t -> protocol:string -> nodes:int list -> Report.t
(** [nodes] is the full set of stacks in the system; stacks with a
    [Crash] entry are exempted from the obligation. *)

val strong_protocol_operationability :
  Trace.t -> protocol:string -> nodes:int list -> Report.t
(** Every bind of [P] at time [t] requires every non-crashed stack to
    already contain a [P] module at [t]. *)

val protocols : initial:string -> string list -> string list
(** The protocols a run's operationability checks cover: [initial],
    then every distinct switch target but [initial], sorted. The
    simulator and the live backend both derive their battery's list
    here. *)

val check_generic : Trace.t -> protocols:string list -> nodes:int list -> Report.t list
(** Weak well-formedness plus weak operationability for each protocol. *)
