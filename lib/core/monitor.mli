(** Per-stack monitor module feeding the {!Collector}.

    A passive module that requires the broadcast service under
    observation and records every {!App_msg.App} delivery (and every
    protocol switch) into the system-wide collector. It never calls
    anything, so it perturbs the stack only by the one dispatch hop its
    indications already cost every other subscriber. *)

open Dpu_kernel

type mode =
  | Layered  (** observe [r-abcast] (replacement layer present) *)
  | Direct  (** observe [abcast] (no replacement layer) *)

val module_name : string
(** ["monitor"]. *)

val requires : mode -> Service.t list
(** The monitor's declared requirements (introspection for the static
    analyser; it only listens, never calls). *)

val install : collector:Collector.t -> mode:mode -> Stack.t -> Stack.module_
