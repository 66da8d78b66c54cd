(** Per-source sets of sequence numbers, in space bounded by the
    numbers still out of order rather than by every number ever seen.

    Each source that numbers its messages 0, 1, 2, ... gets a window: a
    floor below which every number has been seen, plus the numbers seen
    above the floor. Adding the floor itself advances it past every
    contiguous number already held above, so once a gap fills the set
    above the floor empties again. Sources are keyed by any [int]
    (a node id, or a message id's origin).

    The floor starts at 0: numbers below 0 count as seen, so a negative
    number from a hostile peer is treated as a duplicate and never
    stored. *)

type t

val create : unit -> t

val mem : t -> src:int -> int -> bool
(** [mem t ~src seq]: has [seq] from [src] been added (or is it
    negative)? *)

val add : t -> src:int -> int -> unit
(** Mark [seq] from [src] as seen; a no-op if it already is. *)

(** {1 Introspection (tests)} *)

val floor : t -> src:int -> int
(** Every number below it has been seen from [src]. *)

val above : t -> src:int -> int
(** How many numbers from [src] are held above the floor. *)
