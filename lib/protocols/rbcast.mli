(** Reliable broadcast over reliable point-to-point channels.

    Forward-on-first-receipt: the sender sends to every node; every
    node relays a message the first time it receives it. This gives the
    all-or-nothing agreement among correct processes that the
    Chandra–Toueg reduction of atomic broadcast to consensus needs [5]:
    if any correct process delivers, all correct processes do, even if
    the sender crashed mid-broadcast.

    Relaying costs O(n^2) datagrams per broadcast; [relay:false] turns
    it off (cheaper, but agreement then depends on the sender surviving
    its send loop; test_protocols' "no relay breaks it" shows the
    loss). *)

open Dpu_kernel

type Payload.t +=
  | Bcast of { size : int; payload : Payload.t }  (** call *)
  | Deliver of { origin : int; payload : Payload.t }  (** indication *)

type Payload.t +=
  | Wire of { origin : int; seq : int; size : int; payload : Payload.t }
      (** wire payload (exposed for wire round-trip tests and trace
          tooling) *)

val protocol_name : string
(** ["rbcast"] *)

val service : Service.t
(** The ["rbcast"] service. *)

val install : ?relay:bool -> n:int -> Stack.t -> Stack.module_

val register : ?relay:bool -> System.t -> unit
