(** Deterministic multi-process fan-out: fork, compute, collect.

    The paper's evaluation is a grid of independent simulation cells —
    (n, load, seed, protocol pair) — each of which builds its own
    {!Dpu_engine.Sim.t} from a fixed seed. [Sweep] fans such cells out
    to [jobs] worker processes ([Unix.fork] + pipes, results shipped
    back with [Marshal]) and merges them in canonical cell order, so
    the merged output is bit-identical to a sequential run regardless
    of worker count or completion order. A live deployment
    ([Dpu_live.Serve]) uses the same fan-out with one cell per node
    and [jobs = cells], so every node runs in its own process at once.

    Worker [w] runs cells [w, w + jobs, w + 2 jobs, ...]; assignment is
    static, so no coordination traffic exists beyond the result pipe.

    A worker that dies (crash, kill, uncaught exception) surfaces as
    {!Worker_failed} in the parent — never a hang: the parent drains
    each worker's pipe to EOF in worker order and checks its exit
    status, and on the first failure kills the workers still running. *)

exception Worker_failed of { worker : int; reason : string }
(** A worker exited abnormally or its result stream was cut short.
    [worker] is the worker index (0-based); [reason] describes the exit
    status or the exception the worker raised. *)

type stats = {
  jobs : int;  (** worker count actually used (clamped to cells) *)
  cells : int;
  wall_s : float;  (** parent wall-clock for the whole sweep *)
  cells_wall_s : float;  (** sum of per-cell wall-clock, measured in workers *)
  speedup : float;  (** [cells_wall_s /. wall_s] — the realised parallelism *)
}

type 'r outcome = {
  results : 'r array;  (** indexed by cell, canonical order *)
  stats : stats;
}

val default_jobs : unit -> int
(** [$DPU_JOBS] when set to a positive integer, else 1. *)

val run : ?jobs:int -> cells:int -> (int -> 'r) -> 'r outcome
(** [run ~jobs ~cells f] evaluates [f i] for every cell [i] in
    [0 .. cells-1] and returns the results in cell order.

    [f] must be a pure function of the cell index: each invocation
    should build its own simulator from a seed derived from [i] alone,
    and its result must contain no closures or custom blocks (it
    crosses a [Marshal] boundary when [jobs > 1]).

    [jobs] defaults to {!default_jobs}; it is clamped to [cells], and
    values [<= 1] run everything in-process with no fork (an exception
    from [f] then propagates as itself).

    @raise Worker_failed when a forked worker dies or raises. *)
