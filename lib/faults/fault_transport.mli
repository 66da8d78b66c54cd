(** Fault injection behind the {!Dpu_runtime.Transport} seam.

    A shim that wraps {e any} transport — the simulated datagram
    backend or the live UDP one — and interprets a {!Schedule} against
    it, so the same schedule value produces the same adverse
    interleaving on both backends:

    - [Crash node]: every frame from or to the node is absorbed, in
      both directions, until a matching [Recover]. The node's process
      keeps running — this is fail-silence at the network, which is
      what a nemesis can do to a live process without killing it (and
      exactly what [Recover] needs to be meaningful).
    - [Partition groups] / [Heal]: frames crossing group boundaries are
      absorbed; nodes listed in no group share one implicit leftover
      group, mirroring [Dpu_net.Datagram.partition].
    - [Loss_window] / [Dup_burst]: inside the window each frame is
      independently dropped (or sent twice) with probability [p], drawn
      from the shim's own deterministic {!Dpu_engine.Rng} so the
      wrapped transport's randomness is never perturbed. Overlapping
      windows compose as independent trials.
    - [Degrade_link]: frames on the (src, dst) link are deferred by a
      delay sampled from the window's latency model via the runtime
      {!Dpu_runtime.Clock} — added on top of whatever delay the wrapped
      transport itself has.

    Fault state is a {e pure function of [Clock.now]} (see {!State}),
    not a set of armed timers: a live node that sleeps through a whole
    window still observes exactly the schedule's boundaries, and a
    simulated run replays byte-identically however events interleave.

    Send-side checks use the sender's clock; receive-side checks
    (crash/partition only — the deterministic faults) are re-applied
    when the wrapped transport hands a frame up, which keeps windows
    honest across processes whose clocks are only approximately
    aligned, and catches frames that were already in flight when a
    window opened. *)

module Transport = Dpu_runtime.Transport
module Clock = Dpu_runtime.Clock

(** Compiled schedule: fault state as a pure function of time. Windows
    are half-open [[from_, until)]. *)
module State : sig
  type t

  val compile : Schedule.t -> t

  val crashed : t -> now:float -> int -> bool

  val separated : t -> now:float -> src:int -> dst:int -> bool

  val loss : t -> now:float -> float
  (** Combined drop probability of all loss windows open at [now]. *)

  val dup : t -> now:float -> float

  val link : t -> now:float -> src:int -> dst:int -> Dpu_net.Latency.link option
  (** The degraded-link model covering (src, dst) at [now], if any. *)
end

type stats = {
  blocked_crash : int;  (** frames absorbed: src or dst crash-silenced *)
  blocked_partition : int;  (** frames absorbed: endpoints separated *)
  injected_loss : int;  (** frames absorbed inside a loss window *)
  injected_dup : int;  (** extra copies sent inside a dup burst *)
  delayed : int;  (** frames deferred by a degraded link *)
  rx_blocked : int;
      (** frames the wrapped transport delivered but the shim absorbed
          on the receive side (crash/partition at arrival time) *)
}

val no_stats : stats

val pp_stats : Format.formatter -> stats -> unit
(** The ledger as one line: [crash-blocked N, partition-blocked N,
    lost N, duplicated N, delayed N, rx-blocked N]. *)

type 'a t

val create :
  ?seed:int ->
  ?on_event:(kind:string -> detail:string -> unit) ->
  schedule:Schedule.t ->
  clock:Clock.t ->
  'a Transport.t ->
  'a t
(** [seed] feeds the shim's private RNG for loss/dup draws and degrade
    latency sampling; give each process of a live deployment a distinct
    seed so their drop patterns are independent.

    [on_event] fires synchronously at each injection, with [kind] one
    of ["blocked_crash"], ["blocked_partition"], ["injected_loss"],
    ["injected_dup"], ["delayed"], ["rx_blocked"] and [detail] naming
    the endpoints — observability hooks record these as trace instants.
    This module stays observability-agnostic: plain strings, no
    [Dpu_obs] dependency. *)

val transport : 'a t -> 'a Transport.t
(** The faulty view. Its counters fold the shim's absorptions into the
    wrapped transport's: absorbed sends count as [sent] + [dropped]
    (charging the modelled [size_bytes]), receive-side absorptions move
    a frame from [delivered] to [dropped] — so
    [sent = delivered + dropped] style invariants keep holding from the
    protocols' point of view. *)

val stats : 'a t -> stats

val counters : 'a t -> Transport.counters
(** Same as the wrapped view's [counters]. *)
