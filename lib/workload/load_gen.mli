(** Workload generators.

    The paper's benchmark (§6.2): messages of 4 KB are ABcast under a
    constant load by all machines. [Constant] reproduces that — each
    node broadcasts at [rate/n], with staggered phases so the aggregate
    is smooth. [Poisson] and [Burst] exist for the robustness tests and
    ablations.

    Due times are on the clock's axis from 0, each deferred by
    [due - now]: every caller arms at time 0, and a live node armed
    after its shared epoch keeps the same schedule. *)

type pattern =
  | Constant
  | Poisson
  | Burst of { period_ms : float; duty : float }
      (** all traffic compressed into a fraction [duty] of each period *)

val start :
  Dpu_core.Middleware.t ->
  rate_per_s:float ->
  ?pattern:pattern ->
  ?size:int ->
  until:float ->
  unit ->
  unit
(** Broadcast from every local node at each tick due before [until]
    (ms), at [rate_per_s] in total. A late tick still sends and the
    next stays on its nominal time, so a starved node catches up.
    Raises [Invalid_argument] unless [rate_per_s] is finite and
    [>= 0]. *)

val closed_loop :
  Dpu_core.Middleware.t ->
  clients_per_node:int ->
  ?size:int ->
  until:float ->
  unit ->
  unit
(** Closed-loop clients: [clients_per_node] outstanding messages on
    every local node, each re-broadcast 0.05 ms after the node delivers
    its own previous one, until virtual time [until]. Starts are staggered
    by the same think time. There is no offered-rate parameter: the
    loop settles at the rate the stack sustains. *)

val send_n :
  Dpu_core.Middleware.t ->
  count:int ->
  ?gap_ms:float ->
  ?size:int ->
  ?warmup:int ->
  unit ->
  float
(** Round-robin [count] messages across nodes, one every [gap_ms]
    (default 10). Convenience for tests.

    [warmup] (default 0) schedules that many extra messages {e before}
    the counted ones, on the same cadence. Warmup traffic is recorded
    like any other (so the ABcast property checks still see it) but is
    meant to be excluded from latency statistics: the returned virtual
    time is the instant the first counted message is sent — pass it as
    [~lo] to {!Dpu_engine.Series.stats_between}. Cold-start sends pay
    for failure-detector arming and first-batch fill, which skews
    low-load latency points if counted. *)
