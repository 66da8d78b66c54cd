(** Batch aggregation for the ordering hot path.

    The classic production atomic-broadcast trick: amortise one
    ordering round (a sequencer broadcast, a consensus instance) over
    many application payloads. A batch flushes when it reaches
    [max_batch] messages or when the oldest pending message has waited
    [max_delay_ms] — whichever comes first — so batching trades a
    bounded amount of latency for throughput.

    Epoch-boundary rule (see DESIGN.md §5l): a batch never spans
    protocol generations. Users flush eagerly when they observe their
    epoch superseded ({!Abcast_iface.current_epoch} moved on), and
    every wire batch is tagged with the single epoch it was cut from,
    so receivers accept or drop it atomically and Algorithm 1's
    reissue logic never sees half a batch.

    Timers run through {!Stack.after}, so batching behaves identically
    on the simulated and live backends and stays deterministic in sim
    runs. *)

open Dpu_kernel

type config = { max_batch : int; max_delay_ms : float }

val default : config
(** [{ max_batch = 16; max_delay_ms = 2.0 }] *)

(** The bare flush trigger — count/deadline logic without owning the
    pending set, for protocols whose pending messages already live in
    their own structures (e.g. {!Abcast_ct}'s unordered table). *)
module Trigger : sig
  type t

  val create : Stack.t -> config -> fire:(unit -> unit) -> t
  (** Raises [Invalid_argument] on a non-positive [max_batch] or a
      negative [max_delay_ms]. *)

  val notify : t -> pending:int -> unit
  (** Report the current pending count: at or above [max_batch] fires
      immediately; a positive count arms the delay timer (if not
      already armed); zero cancels it. *)

  val force : t -> unit
  (** Cancel any armed timer and fire now — the epoch-boundary flush. *)

  val cancel : t -> unit
  (** Disarm the timer without firing: a stopped module's batch never
      flushes. *)
end

(** Accumulating batcher: owns the pending list, preserves insertion
    order. *)
type 'a t

val create : Stack.t -> config -> flush:('a list -> unit) -> 'a t
(** [flush] receives batches in insertion order and is never called
    with an empty list. Raises like {!Trigger.create} on a bad
    config. *)

val add : 'a t -> 'a -> unit

val flush : 'a t -> unit
(** Flush whatever is pending now (no-op when empty). *)

val cancel : 'a t -> unit
(** {!Trigger.cancel}: what is pending is never flushed. *)
