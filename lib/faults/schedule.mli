(** Declarative, deterministic fault schedules.

    A schedule is a list of timed actions against a deployment's
    network: crashes, recoveries, partitions and heals fire at one
    instant; loss windows, duplication bursts and link degradations
    open and close around a time window. {!Fault_transport} is the one
    interpreter, on the simulator and on the live backend alike, so the
    same schedule on the same seed replays the exact same adverse
    interleaving — a failing soak reproduces from its seed alone.

    Times are absolute milliseconds from the start of the run. *)

module Latency = Dpu_net.Latency

type window = { from_ : float; until : float }

type action =
  | Crash of int  (** silence a node (fail-silence until a [Recover]) *)
  | Recover of int  (** un-silence a node *)
  | Partition of int list list  (** groups; leftovers isolate together *)
  | Heal  (** remove any partition *)
  | Loss_window of { p : float; from_ : float; until : float }
      (** raise iid datagram loss to [p] inside the window, then
          restore the probability in force when the window opened *)
  | Dup_burst of { p : float; from_ : float; until : float }
      (** raise iid datagram duplication to [p] inside the window *)
  | Degrade_link of { src : int; dst : int; link : Latency.link; window : window }
      (** give one directed pair a (typically slower) link inside the
          window, then restore the default *)

type event = { at : float; action : action }
(** For windowed actions [at] is the opening time of the window; the
    constructors below maintain this invariant. *)

type t = event list

(** {1 Constructors} *)

val crash : at:float -> int -> event

val recover : at:float -> int -> event

val partition : at:float -> int list list -> event

val heal : at:float -> event

val loss_window : p:float -> from_:float -> until:float -> event

val dup_burst : p:float -> from_:float -> until:float -> event

val degrade_link :
  src:int -> dst:int -> link:Latency.link -> from_:float -> until:float -> event

(** {1 Inspection} *)

val sorted : t -> t
(** Stable-sorted by [at]. *)

val duration : t -> float
(** Latest time mentioned by any event (including window closings);
    0 for the empty schedule. *)

val crashed_before : t -> time:float -> int list
(** Nodes whose last [Crash]/[Recover] at or before [time] is a
    [Crash] — i.e. down at [time] under this schedule (ascending). *)

val validate : n:int -> t -> (unit, string) result
(** Check node indices against [n], probabilities in [0, 1], windows
    non-empty and times non-negative. *)

val pp_action : Format.formatter -> action -> unit

val pp_event : Format.formatter -> event -> unit

val pp : Format.formatter -> t -> unit

(** {1 Spec strings}

    Compact one-token grammar for command lines:
    {v
    crash@T:NODE            recover@T:NODE
    partition@T:0,1|2,3     heal@T
    loss@FROM-UNTIL:P       dup@FROM-UNTIL:P
    slow@FROM-UNTIL:SRC>DST:LATENCY_MS
    v} *)

val event_of_spec : string -> (event, string) result

val of_specs : string list -> (t, string) result
(** Parse every spec; the first error aborts. *)
