(** Discrete-event simulator with a virtual clock.

    All protocol code in this repository runs inside a [Sim.t] event
    loop. Time is virtual, expressed in milliseconds as a [float].
    Events scheduled for the same instant fire in scheduling order,
    which makes every run deterministic given the PRNG seed.

    Internally events live in a preallocated arena (struct-of-arrays
    slots recycled through a free list) and the queue is a specialised
    heap over parallel arrays — steady state allocates nothing per
    event. A {!handle} is an int packing the slot and a reuse stamp, so
    cancelling an already-fired event stays a no-op even after its slot
    has been recycled. *)

type t

type handle
(** A cancellation handle for a scheduled event. Stamp-validated:
    handles of fired events go stale and cancel as a no-op. *)

type group
(** A ready-queue id for one protocol group of a multi-group fabric
    sharing this simulator; see {!new_group}. *)

val create : ?seed:int -> unit -> t
(** A fresh simulator. [seed] (default 1) seeds {!rng}. *)

val now : t -> float
(** Current virtual time in milliseconds. *)

val rng : t -> Rng.t
(** The simulator's root PRNG. Subsystems should [Rng.split] it (or
    [Rng.split_key] it, for streams independent of subsystem count). *)

val schedule : t -> delay:float -> (unit -> unit) -> handle
(** [schedule t ~delay f] runs [f] at [now t +. max delay 0.]. *)

val schedule_at : t -> time:float -> (unit -> unit) -> handle
(** [schedule_at t ~time f] runs [f] at [max time (now t)]. *)

val cancel : t -> handle -> unit
(** Cancel a pending event; cancelling a fired event is a no-op. *)

val is_cancelled : t -> handle -> bool

val every : t -> period:float -> ?jitter:float -> (unit -> unit) -> handle
(** [every t ~period f] runs [f] every [period] ms, starting one period
    from now, until the returned handle is cancelled. [jitter] adds a
    uniform random offset in [\[0, jitter\]] to each firing. *)

(** {1 Groups}

    A fabric running many independent protocol groups over one
    simulator gives each group a ready queue: zero-delay events
    scheduled through {!schedule_group} bypass the global heap and
    drain FIFO, lowest group id first, before the next heap pop. One
    group's immediate work therefore never interleaves through another
    group's timeline, and adding groups does not grow the heap. Code
    that never calls {!new_group} is unaffected. *)

val new_group : t -> group
(** Allocate a ready queue. Group ids order the drain. *)

val schedule_group : t -> group:group -> delay:float -> (unit -> unit) -> handle
(** Like {!schedule}, but a non-positive [delay] enqueues on the
    group's ready queue (runs at the current instant, after other work
    already queued for the group) instead of the heap. *)

val pending : t -> int
(** Number of events still queued — heap plus ready queues, including
    cancelled ones not yet reaped. *)

val ready_pending : t -> group:group -> int
(** Events waiting on one group's ready queue. *)

val groups : t -> int
(** Number of groups allocated with {!new_group}. *)

val step : t -> bool
(** Execute the next event (ready queues first). Returns [false] when
    nothing is queued. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Drain the event queue. [until] stops the clock at that virtual time
    (events beyond it remain queued); [max_events] bounds the number of
    executed events (a runaway-loop backstop). Cancelled events reaped
    from the queue do not count against [max_events]. *)

val run_for : t -> float -> unit
(** [run_for t d] is [run ~until:(now t +. d) t]. *)

exception Stopped

val stop : t -> unit
(** Make the current [run] return after the current event completes. *)

(** {1 Observability} *)

val events_executed : t -> int
(** Total non-cancelled events executed. *)

val register_metrics : t -> Dpu_obs.Metrics.t -> unit
(** Export [sim_events_scheduled_total], [sim_events_executed_total],
    [sim_pending_events] and [sim_virtual_now_ms] as snapshot-time
    callbacks (no hot-path cost). *)
