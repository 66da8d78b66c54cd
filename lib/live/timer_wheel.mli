(** Timer queue backing the live clock.

    Deadlines are absolute times in milliseconds on whatever clock the
    caller feeds to {!add} and {!advance}; the queue itself never reads
    a clock, which keeps it unit-testable with synthetic time. Entries
    sit in a binary heap keyed on their exact deadline; {!advance}
    fires every due entry in (deadline, insertion) order. *)

type t

val create : ?granularity_ms:float -> ?slots:int -> unit -> t
(** An empty queue. [granularity_ms] and [slots] are accepted for
    compatibility and ignored: deadlines are exact. *)

val add : t -> now:float -> delay:float -> (unit -> unit) -> unit
(** Arm a callback [delay] ms after [now] (clamped to be non-negative).
    Positive-delay entries armed from inside a firing callback never
    fire in the same {!advance} pass. *)

val schedule :
  t -> now:float -> delay:float -> (unit -> unit) -> Dpu_runtime.Clock.timer
(** {!add}, cancellable: cancelling the timer before the callback ran
    stops it and takes the entry out of {!pending} at once. *)

val every :
  t -> now:float -> period:float -> (unit -> unit) -> Dpu_runtime.Clock.timer
(** Periodic callback due at [now + k * period] for k = 1, 2, ...: each
    re-arm counts from the previous nominal deadline, not from when the
    callback ran, so firing late never shifts the phase. A loop running
    behind catches up one period per {!advance} pass, never in a burst.
    Cancellation stops the chain and discounts its pending entry. *)

val advance : t -> now:float -> unit
(** Fire everything due at or before [now]. Due entries are taken off
    the heap before any fires, so entries armed by the callbacks wait
    for the next pass. Zero-delay entries run to quiescence within the
    pass (in FIFO order, including ones enqueued by firing entries) —
    the live counterpart of the simulator's same-instant event
    cascades. *)

val next_deadline : t -> float option
(** Earliest deadline among live entries, for sizing a poll timeout:
    {!advance} at that instant fires the entry. Cancelled entries at
    the top of the heap are dropped on the way. *)

val pending : t -> int
(** Entries still expected to fire: cancelled ones leave the count the
    moment their timer is cancelled, so idle detection never sees
    phantom work. *)

(** {1 Event-loop profile} — lifetime totals, for observability
    callbacks sampled at metrics-snapshot time. Reading them costs
    nothing on the hot path; they are maintained unconditionally (two
    integer bumps per callback run). *)

val fired : t -> int
(** Callbacks actually run (cancelled entries excluded). *)

val cascades : t -> int
(** The subset of {!fired} that ran from the zero-delay ready queue —
    same-instant cascade work, the live counterpart of the simulator's
    same-time event chains. *)
