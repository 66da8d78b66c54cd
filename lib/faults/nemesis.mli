(** Seeded random fault-schedule generator for soak testing.

    Samples a {!Schedule.t} from an explicit {!Dpu_engine.Rng} stream:
    the same generator state produces the same schedule, so a soak
    failure reproduces from its seed. Generated schedules respect the
    crash-prone-but-live assumptions the protocols need: at most a
    minority of nodes is ever down at once, node 0 is never crashed
    (it bootstraps the sequencer/token variants), partitions always
    heal, and windows close before [0.9 * horizon_ms] so the run can
    converge and the checkers see a quiescent system. *)

type fault_class =
  | Crashes
  | Partitions
  | Loss
  | Dup
  | Slow_links

val generate :
  rng:Dpu_engine.Rng.t ->
  n:int ->
  horizon_ms:float ->
  ?classes:fault_class list ->
  ?faults:int ->
  ?recoverable:bool ->
  unit ->
  Schedule.t
(** [generate ~rng ~n ~horizon_ms ()] draws [faults] (default 3)
    faults of random classes (default: every class), sorted by time.
    With [recoverable] (default [false]) crashed nodes may be
    recovered later — enable only for network-level runs; the
    full-stack harness treats crashes as fail-stop. *)
