(** The live CLOCK backend: wall-clock milliseconds since a shared
    epoch, timers on a {!Timer_wheel}.

    Every process of a deployment is created with the same [epoch]
    (chosen once by the parent), so timestamps recorded on different
    processes of one machine are directly comparable — the merged
    trace has one time axis, like the simulator's. *)

type t

val create : epoch:float -> Timer_wheel.t -> t
(** [epoch] is an absolute [Unix.gettimeofday] instant; [now] is
    milliseconds elapsed since it. *)

val now : t -> float

val clock : t -> Dpu_runtime.Clock.t
(** The {!Dpu_runtime.Clock} view: [defer]/[schedule]/[every] arm
    {!Timer_wheel} entries at exact deadlines. [every] keeps its phase
    (each period counts from the previous nominal deadline, as in the
    simulator), and cancelling a timer takes its entry out of
    {!Timer_wheel.pending} at once. *)

val advance : t -> unit
(** Fire all timers due at the current wall-clock instant. *)

val next_deadline : t -> float option

val wheel : t -> Timer_wheel.t
