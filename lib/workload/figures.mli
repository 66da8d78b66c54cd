(** Regeneration of every figure and headline number in the paper's
    evaluation (§6).

    We do not match the paper's absolute milliseconds (their prototype
    ran unoptimised Java on Pentium-III hardware); we reproduce the
    *shape* of each result: where the spike is and how long it lasts
    (Fig. 5), how latency grows with load and with n, and how small the
    replacement layer's overhead is (Fig. 6, ≈5 %). *)

(** {1 Figure 5} — latency of each ABcast vs. its send time; a
    replacement (CT → CT, all steps executed) is triggered mid-run.
    n = 7, 40 msg/s, 4 KB messages. *)

val figure5 : ?n:int -> ?load:float -> ?seed:int -> unit -> Experiment.result

val render_figure5 : Experiment.result -> string

(** {1 Figure 6} — average latency vs. load for n = 3 and n = 7:
    normal runs with and without the replacement layer, and messages
    sent during a replacement. *)

type fig6_point = {
  n : int;
  load : float;
  no_layer_ms : float;  (** normal, without replacement layer *)
  with_layer_ms : float;  (** normal, with replacement layer *)
  during_ms : float;  (** messages sent during the replacement *)
}

val figure6 :
  ?ns:int list ->
  ?loads:float list ->
  ?seed:int ->
  ?jobs:int ->
  unit ->
  fig6_point list * Dpu_runtime.Sweep.stats
(** Each (n, load) pair is one {!Dpu_runtime.Sweep} cell, fanned out to
    [jobs] worker processes (default {!Dpu_runtime.Sweep.default_jobs});
    the points are bit-identical for every [jobs]. The stats report the
    sweep's wall-clock and realised parallelism. *)

val render_figure6 : fig6_point list -> string

(** {1 §6 headline numbers} *)

type headline = {
  layer_overhead_pct : float;  (** paper: ≈ 5 % *)
  spike_pct : float;  (** paper: ≈ 50 % *)
  spike_duration_ms : float;  (** paper: ≈ 1 s *)
  app_blocked_ms : float;  (** paper: never blocked (0) *)
}

val headline :
  ?n:int ->
  ?load:float ->
  ?seeds:int list ->
  ?jobs:int ->
  unit ->
  headline * Dpu_runtime.Sweep.stats
(** Aggregated over [seeds] (default 1–5): one switch produces only a
    few during-window messages, so several runs give the statistic
    weight. Each seed is one {!Dpu_runtime.Sweep} cell; the per-seed
    sample arrays are re-folded in seed order, so the aggregate is
    bit-identical for every [jobs]. *)

val render_headline : headline -> string

(** {1 Approach comparison} (the paper's §4.2/§5.3 claims, quantified) *)

type comparison_row = {
  approach : Experiment.approach;
  normal_ms : float;
  during_switch_ms : float;
  switch_duration : float;
  blocked : float;
  all_delivered : bool;
}

val compare_approaches :
  ?n:int ->
  ?load:float ->
  ?seed:int ->
  ?jobs:int ->
  unit ->
  comparison_row list * Dpu_runtime.Sweep.stats
(** One {!Dpu_runtime.Sweep} cell per approach. *)

val render_comparison : comparison_row list -> string
