(** Self-contained HTML rendering for `dpu_run report`.

    Four optional sections, each driven by one artifact kind:

    - a replacement timeline (table of "replacement gen=N" windows plus
      an SVG swimlane per trace pid) from a merged Chrome trace;
    - latency quantile tables (p50/p99/p999 via
      {!Metrics.quantile_of_buckets}) from an exported metrics snapshot,
      accepting both the simulated run's shape ("dpu.metrics/1") and
      the live run's per-node nesting ([{"nodes": [...]}]);
    - a sharded-run section (per-shard quantile table plus a
      switch-window swimlane, one lane per shard) from a
      [dpu_run run --json-out] export;
    - per-commit trend charts over a history of BENCH_results.json
      files, one small SVG line chart per numeric series.

    The output embeds all CSS/SVG inline — no scripts, no external
    fetches — so it can be archived as a single CI artifact. *)

val windows_of_events : Trace_event.t list -> (int * (float * float)) list
(** The replacement windows recoverable from a trace: generation with
    [(start_ms, end_ms)], sorted by generation. *)

val render :
  ?metrics:Json.t ->
  ?trace:Trace_event.t list ->
  ?shard:Json.t ->
  ?history:(string * Json.t) list ->
  title:string ->
  unit ->
  string
(** [history] entries are [(label, bench_json)] in chronological
    order (oldest first); labels become the x-axis endpoints. *)
