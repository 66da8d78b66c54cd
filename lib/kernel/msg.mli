(** Application messages with globally unique identities.

    Algorithm 1 manipulates a set of [undelivered] messages and tests
    membership (line 19) and duplication (line 18), so messages must be
    comparable by a unique identity: the originating node plus a local
    sequence counter. *)

type id = { origin : int; seq : int }

type t = {
  id : id;
  size : int;  (** payload size in bytes, used for transmission delay *)
  body : string;  (** opaque application data *)
}

val id_compare : id -> id -> int

val id_equal : id -> id -> bool

val id_to_string : id -> string

val compare : t -> t -> int
(** Orders by [id] only. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

val make : origin:int -> seq:int -> ?size:int -> string -> t
(** [make ~origin ~seq body] with a default size of 4096 bytes (the
    paper's 4 KB experiment payloads). *)

val origin_limit : int
(** [2^15]. An origin, like any node number, is in [\[0, origin_limit)]. *)

val seq_limit : int
(** [2^32]. A sequence number is in [\[0, seq_limit)]. *)

val write_id : Wire.W.t -> id -> unit

val read_id : Wire.R.t -> id
(** Raises {!Wire.Error} on an id outside the range above, so an id
    that crossed the wire always fits the run record's packed rows
    ([Dpu_core.Collector]). *)

val write : Wire.W.t -> t -> unit
(** Wire helpers for codecs carrying message ids or whole messages. *)

val read : Wire.R.t -> t

module Id_map : Map.S with type key = id
module Id_set : Set.S with type elt = id
module Set : Set.S with type elt = t
