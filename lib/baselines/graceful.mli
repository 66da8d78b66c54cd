(** Executable model of Graceful Adaptation [6] (§4.2).

    Each adaptable module hosts alternative implementations
    (adaptation-aware components, AACs); a component adaptor (CA)
    coordinates switching between them in three coordinated steps:

    + {b prepare}: the initiator asks every stack to instantiate the
      new AAC (not yet activated); a barrier waits for {e all} stacks;
    + {b deactivate}: the cut-over point is agreed by all stacks (here,
      as in [6], coordination runs in parallel with the message flow);
    + {b activate}: each stack deactivates the old AAC, activates the
      new one, re-issues its in-flight messages, and acks back;
      a final barrier ends the adaptation.

    Two contrasts with the paper's [Repl] are modelled faithfully:

    - the {e barrier rounds}: the switch spans two extra round-trips
      plus the straggliest stack, so the replacement window is longer;
    - the {e service restriction}: an AAC may only use the services its
      host module already has bound (it is prepared with
      [Registry.create_only], never creating new providers). A switch
      to a protocol with unmet requirements is *refused* — observable
      via {!refused} — where [Repl] would simply build the missing
      substrate (Algorithm 1 lines 22–28).

    Provides [Service.r_abcast] with the [Repl_iface] payloads. *)

open Dpu_kernel

(** Wire payloads (exposed for wire round-trip tests and trace
    tooling). *)
type Payload.t +=
  | G_data of { gen : int; id : Msg.id; size : int; payload : Payload.t }
  | G_point of { gen : int; protocol : string }
  | C_prepare of { gen : int; protocol : string; initiator : int }
  | C_prepared of { gen : int; from : int; ok : bool }
  | C_activated of { gen : int; from : int }

val protocol_name : string
(** ["graceful.ca"] *)

val install : registry:Registry.t -> n:int -> Stack.t -> Stack.module_

val register : System.t -> unit

val refused : Stack.t -> int
(** Number of adaptation requests this stack refused because the new
    component required services outside the module's requirements. *)

val switch_duration_ms : Stack.t -> float
(** Duration of the last completed adaptation as seen by its initiator
    (prepare request to final ack); 0 if none completed here. *)
