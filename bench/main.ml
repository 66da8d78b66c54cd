(* Benchmark harness: regenerates every figure and headline number of
   the paper's evaluation (§6), the ablations and the consensus
   extension (§7), and records every deterministic value it prints in
   BENCH_results.json, which CI diffs against the committed seed. The
   fig6, throughput and shard runs also record their work per
   delivered message, so the diff pins events, hops, frames, bytes and
   retransmissions too.
   Per-primitive wall-clock costs live in bench/perf.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- fig5         # one section
     dune exec bench/main.exe -- -j 2 compare # sweeps on two workers
     sections: fig5 fig6 headline compare throughput shard ablation
               consensus *)

module W = Dpu_workload
module E = W.Experiment
module F = W.Figures
module Stats = Dpu_engine.Stats
module Series = Dpu_engine.Series
module Clock = Dpu_runtime.Clock
module Json = Dpu_obs.Json
module Sweep = Dpu_runtime.Sweep

(* Every section but [shard] runs the paper's single group: shard 0. *)
let run_single p = (E.run p).E.per_shard.(0)

(* A run's deterministic work per delivered message
   ({!E.per_message}); the seed diff pins it exactly. *)
let work_json work = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) work)

let section name = Printf.printf "\n============ %s ============\n%!" name

(* Machine-readable results: every section deposits its numbers here
   and the driver writes BENCH_results.json at the end. Accumulated in
   reverse (prepend is O(1), appending was quadratic) and reversed at
   write-out. *)
let results : (string * Json.t) list ref = ref []

let record key v = results := (key, v) :: !results

(* Worker count for the sweep-backed sections (fig6, headline, compare,
   ablations); set by -j/--jobs. *)
let jobs = ref 1

(* Per-sweep wall-clock and realised speedup, keyed by section. These
   live under a separate top-level "sweeps" key — never inside
   "results" — so the results sections stay bit-identical across -j. *)
let sweeps : (string * Json.t) list ref = ref []

let record_sweep key (st : Sweep.stats) =
  sweeps :=
    ( key,
      Json.Obj
        [
          ("jobs", Json.Int st.Sweep.jobs);
          ("cells", Json.Int st.Sweep.cells);
          ("wall_s", Json.Float st.Sweep.wall_s);
          ("cells_wall_s", Json.Float st.Sweep.cells_wall_s);
          ("speedup", Json.Float st.Sweep.speedup);
        ] )
    :: !sweeps

(* ------------------------------------------------------------------ *)
(* Figure 5                                                           *)
(* ------------------------------------------------------------------ *)

(* Figure 5's setting with a CT->CT swap every 500 ms from the nodes in
   turn, as bench/perf's paper-n7 runs it: the most modules any stack
   holds at the end. A superseded generation leaves the stack once
   every member has left it, so this does not grow with the number of
   swaps. *)
let run_history () =
  let n = 7 and horizon_ms = 20_000.0 in
  let switches =
    List.init 38 (fun i -> (500.0 *. float_of_int (i + 2), (i + 2) mod n, Dpu_core.Variants.ct))
  in
  let r =
    E.run
      {
        E.default with
        n;
        load = 40.0;
        seed = 1;
        duration_ms = horizon_ms;
        drain_ms = 2_000.0;
        switch_to = None;
        switches;
        metrics_enabled = true;
      }
  in
  let modules node =
    Option.value ~default:0.0
      (Dpu_obs.Metrics.value r.E.metrics
         ~labels:[ ("node", string_of_int node); ("group", "0") ]
         "kernel_modules")
  in
  let max_modules = List.fold_left (fun acc i -> Float.max acc (modules i)) 0.0 (List.init n Fun.id) in
  Printf.printf "history: %d swaps in %.0f ms, at most %.0f modules per stack\n"
    (List.length switches) horizon_ms max_modules;
  record "history"
    (Json.Obj
       [
         ("n", Json.Int n);
         ("swap_every_ms", Json.Float 500.0);
         ("horizon_ms", Json.Float horizon_ms);
         ("switches", Json.Int (List.length switches));
         ("max_modules_per_stack", Json.Int (int_of_float max_modules));
       ])

let run_fig5 () =
  section "Figure 5: latency around a replacement (n=7, 40 msg/s, CT->CT)";
  let r = F.figure5 () in
  print_string (F.render_figure5 r);
  let reports = E.check r in
  let s = r.E.per_shard.(0) in
  record "fig5"
    (Json.Obj
       [
         ("n", Json.Int r.E.params.E.n);
         ("seed", Json.Int r.E.params.E.seed);
         ("load_msg_per_s", Json.Float r.E.params.E.load);
         ("sent", Json.Int s.E.sent);
         ("delivered_everywhere", Json.Int s.E.delivered_everywhere);
         ("normal_mean_ms", Json.Float (Stats.mean s.E.normal));
         ("normal_p95_ms", Json.Float (Stats.percentile s.E.normal 95.0));
         ("during_mean_ms", Json.Float (Stats.mean s.E.during));
         ("switch_duration_ms", Json.Float s.E.switch_duration_ms);
         ("blocked_ms", Json.Float s.E.blocked_ms);
         ("properties_ok", Json.Bool (Dpu_props.Report.all_ok reports));
       ]);
  Format.printf "properties: %s@."
    (if Dpu_props.Report.all_ok reports then "all ok" else "VIOLATED");
  if not (Dpu_props.Report.all_ok reports) then
    Format.printf "%a" Dpu_props.Report.pp_all reports;
  run_history ()


(* ------------------------------------------------------------------ *)
(* Figure 6                                                           *)
(* ------------------------------------------------------------------ *)

let run_fig6 () =
  section "Figure 6: latency vs load (n=3 and n=7; layer overhead; during switch)";
  let points, sweep_stats = F.figure6 ~jobs:!jobs () in
  record_sweep "fig6" sweep_stats;
  record "fig6"
    (Json.Obj
       [
         ("seed", Json.Int 1);
         ( "points",
           Json.List
             (List.map
                (fun (p : F.fig6_point) ->
                  Json.Obj
                    [
                      ("n", Json.Int p.F.n);
                      ("load_msg_per_s", Json.Float p.F.load);
                      ("no_layer_ms", Json.Float p.F.no_layer_ms);
                      ("with_layer_ms", Json.Float p.F.with_layer_ms);
                      ("during_ms", Json.Float p.F.during_ms);
                      ("work", work_json p.F.work);
                    ])
                points) );
       ]);
  print_string (F.render_figure6 points)

(* ------------------------------------------------------------------ *)
(* Throughput / saturation                                            *)
(* ------------------------------------------------------------------ *)

(* One saturation point. Throughput is deliveries inside the
   [warmup, duration) window, not deliveries ever: the run drains to
   quiescence afterwards, so under overload every message IS eventually
   delivered — what saturates is the rate at which they come out during
   the window. Counted at node 0 (total order: every correct node
   delivers the same sequence). Latency percentiles come from the same
   window, keyed by send time; messages sent in-window but delivered
   after it still contribute their (large) latency, which is exactly the
   queueing signal. *)
type point = {
  offered : float;
  delivered_per_s : float;
  p50_ms : float;
  p99_ms : float;
  measured : int;
  work : (string * float) list;
}

let measure_window (p : E.params) =
  let result = E.run p in
  let r = result.E.per_shard.(0) in
  let lo = p.E.warmup_ms and hi = p.E.duration_ms in
  let delivered =
    List.length
      (List.filter
         (fun (_, t) -> t >= lo && t < hi)
         (Dpu_core.Collector.delivers_of r.E.collector ~node:0))
  in
  let lat = Series.stats_between r.E.latency ~lo ~hi in
  let pct q = if Stats.count lat = 0 then 0.0 else Stats.percentile lat q in
  {
    offered = p.E.load;
    delivered_per_s = float_of_int delivered /. ((hi -. lo) /. 1000.0);
    p50_ms = pct 50.0;
    p99_ms = pct 99.0;
    measured = Stats.count lat;
    work = E.per_message result;
  }

type curve = {
  batching : Dpu_protocols.Batcher.config option;
  points : point list;
  knee : float;
  saturated_per_s : float;
}

(* The knee is the last offered load the stack still kept up with
   (delivered within 10% of offered); past it the delivered rate
   plateaus at the service capacity, which [saturated_per_s] reports
   as the best rate seen anywhere on the curve. *)
let curve_of ~batching points =
  let knee =
    List.fold_left
      (fun acc pt ->
        if pt.delivered_per_s >= 0.9 *. pt.offered then Float.max acc pt.offered
        else acc)
      0.0 points
  in
  let saturated_per_s =
    List.fold_left (fun acc pt -> Float.max acc pt.delivered_per_s) 0.0 points
  in
  { batching; points; knee; saturated_per_s }

let batching_label = function
  | None -> "off"
  | Some c ->
    Printf.sprintf "on(max=%d,delay=%.1fms)" c.Dpu_protocols.Batcher.max_batch
      c.Dpu_protocols.Batcher.max_delay_ms

let write_throughput_csv path curves =
  Dpu_obs.Csv.to_file path
    ~header:
      [ "batching"; "offered_msg_s"; "delivered_msg_s"; "p50_ms"; "p99_ms"; "measured" ]
    (List.concat_map
       (fun c ->
         List.map
           (fun pt ->
             [
               batching_label c.batching;
               Printf.sprintf "%.1f" pt.offered;
               Printf.sprintf "%.1f" pt.delivered_per_s;
               Printf.sprintf "%.3f" pt.p50_ms;
               Printf.sprintf "%.3f" pt.p99_ms;
               string_of_int pt.measured;
             ])
           c.points)
       curves)

let run_throughput () =
  section "Throughput: saturation knee with and without ordering-path batching";
  let batched =
    Some { Dpu_protocols.Batcher.max_batch = 16; max_delay_ms = 5.0 }
  in
  (* The full default stack (CT ABcast under the Repl layer) at n=3,
     512-byte payloads, 3 s of load after a 500 ms warmup, no swap. *)
  let params batching offered =
    {
      E.default with
      n = 3;
      seed = 1;
      msg_size = 512;
      duration_ms = 3_000.0;
      warmup_ms = 500.0;
      hop_cost = 0.05;
      pattern = W.Load_gen.Constant;
      switch_to = None;
      load = offered;
      batching;
    }
  in
  (* One sweep cell per (batching, offered) step. The unbatched curve
     stops at 800 msg/s — it saturates near 580, and overload points
     only get more expensive to drain — while the batched one runs to
     3200 to find its own knee. *)
  let grid =
    Array.of_list
      (List.map (fun l -> (None, l)) [ 100.0; 200.0; 400.0; 800.0 ]
      @ List.map (fun l -> (batched, l)) [ 100.0; 200.0; 400.0; 800.0; 1600.0; 3200.0 ])
  in
  let outcome =
    Sweep.run ~jobs:!jobs ~cells:(Array.length grid) (fun i ->
        let batching, offered = grid.(i) in
        measure_window (params batching offered))
  in
  record_sweep "throughput" outcome.Sweep.stats;
  let curve batching =
    let pts = ref [] in
    Array.iteri
      (fun i pt -> if fst grid.(i) == batching then pts := pt :: !pts)
      outcome.Sweep.results;
    curve_of ~batching (List.rev !pts)
  in
  let off = curve None and on = curve batched in
  (* Closed loop: enough outstanding messages per node to keep batches
     full; settles at the sustainable rate with no offered-load guess. *)
  let closed batching =
    (measure_window { (params batching 0.0) with closed_loop = Some 16 }).delivered_per_s
  in
  let closed_off = closed None and closed_on = closed batched in
  let pt_rows c =
    List.map
      (fun p ->
        [
          batching_label c.batching;
          Printf.sprintf "%.0f" p.offered;
          Printf.sprintf "%.1f" p.delivered_per_s;
          Printf.sprintf "%.2f" p.p50_ms;
          Printf.sprintf "%.2f" p.p99_ms;
        ])
      c.points
  in
  print_string
    (W.Ascii.table
       ~header:[ "batching"; "offered [msg/s]"; "delivered [msg/s]"; "p50 [ms]"; "p99 [ms]" ]
       (pt_rows off @ pt_rows on));
  let xy c = List.map (fun p -> (p.offered, p.delivered_per_s)) c.points in
  print_string
    (W.Ascii.chart ~title:"saturation: delivered vs offered"
       ~x_unit:"offered msg/s" ~y_unit:"delivered msg/s"
       [ ("batching off", xy off); ("batching on", xy on) ]);
  Printf.printf
    "knee: %.0f -> %.0f msg/s; saturated: %.1f -> %.1f msg/s (%.1fx)\n\
     closed loop (16 clients/node): %.1f -> %.1f msg/s (%.1fx)\n"
    off.knee on.knee off.saturated_per_s on.saturated_per_s
    (on.saturated_per_s /. off.saturated_per_s)
    closed_off closed_on (closed_on /. closed_off);
  write_throughput_csv "BENCH_throughput.csv" [ off; on ];
  Printf.printf "saturation curves written to BENCH_throughput.csv\n";
  let curve_json c =
    Json.Obj
      [
        ("batching", Json.Str (batching_label c.batching));
        ("knee_msg_s", Json.Float c.knee);
        ("saturated_msg_s", Json.Float c.saturated_per_s);
        ( "points",
          Json.List
            (List.map
               (fun p ->
                 Json.Obj
                   [
                     ("offered_msg_s", Json.Float p.offered);
                     ("delivered_msg_s", Json.Float p.delivered_per_s);
                     ("p50_ms", Json.Float p.p50_ms);
                     ("p99_ms", Json.Float p.p99_ms);
                     ("measured", Json.Int p.measured);
                     ("work", work_json p.work);
                   ])
               c.points) );
      ]
  in
  record "throughput"
    (Json.Obj
       [
         ("seed", Json.Int 1);
         ("n", Json.Int 3);
         ("max_batch", Json.Int 16);
         ("max_delay_ms", Json.Float 5.0);
         ("curves", Json.List [ curve_json off; curve_json on ]);
         ( "closed_loop",
           Json.Obj
             [ ("off_msg_s", Json.Float closed_off); ("on_msg_s", Json.Float closed_on) ] );
         ( "saturation_speedup",
           Json.Float (on.saturated_per_s /. off.saturated_per_s) );
       ])

(* ------------------------------------------------------------------ *)
(* Sharded fabric scaling                                             *)
(* ------------------------------------------------------------------ *)

let run_shard () =
  section "Sharded fabric: rolling replacement under load, n x shards grid";
  (* The full {7,31,63,127} x {1,4,16} grid minus infeasible cells:
     shards <= n, and per-group size capped at 63 — a single 127-node
     consensus group needs minutes of wall clock per virtual second,
     which is precisely the problem the sharded fabric removes. *)
  let grid =
    List.concat_map
      (fun n ->
        List.filter_map
          (fun shards ->
            if shards <= n && n / shards <= 63 then Some (n, shards) else None)
          [ 1; 4; 16 ])
      [ 7; 31; 63; 127 ]
  in
  let grid = Array.of_list grid in
  let outcome =
    Sweep.run ~jobs:!jobs ~cells:(Array.length grid) (fun i ->
        let n, shards = grid.(i) in
        let p =
          {
            E.default with
            n;
            shards;
            msg_size = 512;
            hop_cost = 0.05;
            pattern = W.Load_gen.Constant;
            load = 1.5 *. float_of_int n;
            warmup_ms = 100.0;
            duration_ms = 600.0;
            drain_ms = 1_200.0;
            switch_to = Some Dpu_core.Variants.sequencer;
            switch_at_ms = 250.0;
            stagger_ms = 0.25;
          }
        in
        let r = E.run p in
        let shards = Array.to_list r.E.per_shard in
        let sum f = List.fold_left (fun a s -> a + f s) 0 shards in
        (* Post-warmup quantiles; a shard without samples does not count. *)
        let worst q =
          List.fold_left
            (fun a (s : E.shard) ->
              let m = Series.stats_between s.latency ~lo:p.warmup_ms ~hi:infinity in
              if Stats.count m = 0 then a else Float.max a (Stats.percentile m q))
            0.0 shards
        in
        ( sum (fun s -> s.E.sent),
          sum (fun s -> s.E.delivered_everywhere),
          worst 50.0,
          worst 99.0,
          r.E.max_concurrent_switches,
          E.all_ok r,
          E.per_message r ))
  in
  record_sweep "shard" outcome.Sweep.stats;
  let cells = Array.to_list (Array.mapi (fun i r -> (grid.(i), r)) outcome.Sweep.results) in
  print_string
    (W.Ascii.table
       ~header:
         [ "n"; "shards"; "sent"; "delivered"; "worst p50 [ms]"; "worst p99 [ms]";
           "max swaps in flight"; "all ok" ]
       (List.map
          (fun ((n, shards), (sent, delivered, p50, p99, maxcc, ok, _)) ->
            [
              string_of_int n;
              string_of_int shards;
              string_of_int sent;
              string_of_int delivered;
              Printf.sprintf "%.2f" p50;
              Printf.sprintf "%.2f" p99;
              string_of_int maxcc;
              string_of_bool ok;
            ])
          cells));
  print_endline
    "  (every cell performs a rolling replacement across all its shards while\n\
    \   the load runs; \"max swaps in flight\" > 1 means shard replacements\n\
    \   genuinely overlapped rather than serialising)";
  record "shard"
    (Json.Obj
       [
         ("seed", Json.Int E.default.E.seed);
         ( "cells",
           Json.List
             (List.map
                (fun ((n, shards), (sent, delivered, p50, p99, maxcc, ok, work)) ->
                  Json.Obj
                    [
                      ("n", Json.Int n);
                      ("shards", Json.Int shards);
                      ("sent", Json.Int sent);
                      ("delivered", Json.Int delivered);
                      ("worst_p50_ms", Json.Float p50);
                      ("worst_p99_ms", Json.Float p99);
                      ("max_concurrent_switches", Json.Int maxcc);
                      ("all_ok", Json.Bool ok);
                      ("work", work_json work);
                    ])
                cells) );
       ])

(* ------------------------------------------------------------------ *)
(* Headline numbers of §6                                             *)
(* ------------------------------------------------------------------ *)

let run_headline () =
  section "Headline numbers (paper §6 vs this reproduction)";
  let h, sweep_stats = F.headline ~jobs:!jobs () in
  record_sweep "headline" sweep_stats;
  record "headline"
    (Json.Obj
       [
         ("seeds", Json.List (List.map (fun s -> Json.Int s) [ 1; 2; 3; 4; 5 ]));
         ("layer_overhead_pct", Json.Float h.F.layer_overhead_pct);
         ("spike_pct", Json.Float h.F.spike_pct);
         ("spike_duration_ms", Json.Float h.F.spike_duration_ms);
         ("app_blocked_ms", Json.Float h.F.app_blocked_ms);
       ]);
  print_string (F.render_headline h)

(* ------------------------------------------------------------------ *)
(* Approach comparison (§4.2 / §5.3 quantified)                       *)
(* ------------------------------------------------------------------ *)

let run_compare () =
  section "DPU approach comparison: Repl vs Graceful Adaptation vs Maestro";
  let rows, sweep_stats = F.compare_approaches ~jobs:!jobs () in
  record_sweep "compare" sweep_stats;
  record "compare"
    (Json.Obj
       [
         ("seed", Json.Int 1);
         ( "approaches",
           Json.List
             (List.map
                (fun (row : F.comparison_row) ->
                  Json.Obj
                    [
                      ("approach", Json.Str (E.approach_name row.F.approach));
                      ("normal_ms", Json.Float row.F.normal_ms);
                      ("during_switch_ms", Json.Float row.F.during_switch_ms);
                      ("switch_duration_ms", Json.Float row.F.switch_duration);
                      ("blocked_ms", Json.Float row.F.blocked);
                      ("all_delivered", Json.Bool row.F.all_delivered);
                    ])
                rows) );
       ]);
  print_string (F.render_comparison rows);
  print_string
    (W.Ascii.vbars
       (List.map
          (fun r -> (E.approach_name r.F.approach ^ " blocked [ms]", r.F.blocked))
          rows));
  (* The flexibility difference (§4.2): switching to a protocol that
     needs services absent from the stack. *)
  Printf.printf
    "\nflexibility: switch seq->ct (new protocol requires consensus+rbcast)\n";
  let try_switch approach =
    let r =
      run_single
        {
          E.default with
          n = 4;
          load = 20.0;
          duration_ms = 4_000.0;
          switch_at_ms = 2_000.0;
          initial = Dpu_core.Variants.sequencer;
          switch_to = Some Dpu_core.Variants.ct;
          approach;
        }
    in
    Printf.printf "  %-10s -> %s\n" (E.approach_name approach)
      (match r.E.switch_window with
      | Some _ -> "switched (substrate built on the fly)"
      | None -> "REFUSED (cannot create providers for new services)")
  in
  try_switch E.Repl;
  try_switch E.Graceful

(* ------------------------------------------------------------------ *)
(* Ablations                                                          *)
(* ------------------------------------------------------------------ *)

(* Fan an (independent-cell) grid out to the worker pool; results come
   back in grid order. *)
let sweep_cells name grid cell =
  let grid = Array.of_list grid in
  let outcome =
    Sweep.run ~jobs:!jobs ~cells:(Array.length grid) (fun idx -> cell grid.(idx))
  in
  record_sweep name outcome.Sweep.stats;
  List.combine (Array.to_list grid) (Array.to_list outcome.Sweep.results)

let run_ablation () =
  section "Ablation: per-hop dispatch cost (stack depth sensitivity)";
  let hops =
    List.map
      (fun hop_cost ->
        let normal_mean approach =
          Stats.mean
            (run_single
               { E.default with hop_cost; approach; switch_to = None; duration_ms = 4_000.0 })
              .E.normal
        in
        (hop_cost, normal_mean E.No_layer, normal_mean E.Repl))
      [ 0.1; 0.25; 0.5; 1.0 ]
  in
  print_string
    (W.Ascii.table
       ~header:[ "hop [ms]"; "no layer [ms]"; "with layer [ms]"; "layer overhead" ]
       (List.map
          (fun (hop, without, with_layer) ->
            [
              Printf.sprintf "%.2f" hop;
              Printf.sprintf "%.2f" without;
              Printf.sprintf "%.2f" with_layer;
              Printf.sprintf "%+.1f%%" ((with_layer -. without) /. without *. 100.0);
            ])
          hops));

  section "Ablation: ABcast variant latency profiles (same service, n=3/7)";
  let variants =
    sweep_cells "ablation_variants"
      (List.concat_map
         (fun n -> List.map (fun variant -> (n, variant)) Dpu_core.Variants.all)
         [ 3; 7 ])
      (fun (n, variant) ->
        let r =
          run_single
            {
              E.default with
              n;
              load = 30.0;
              initial = variant;
              switch_to = None;
              duration_ms = 5_000.0;
            }
        in
        (Stats.mean r.E.normal, Stats.percentile r.E.normal 95.0))
  in
  print_string
    (W.Ascii.table ~header:[ "variant"; "n"; "mean [ms]"; "p95 [ms]" ]
       (List.map
          (fun ((n, variant), (mean, p95)) ->
            [
              variant;
              string_of_int n;
              Printf.sprintf "%.2f" mean;
              Printf.sprintf "%.2f" p95;
            ])
          variants));

  section "Ablation: heterogeneous switch matrix (during-switch latency)";
  let matrix =
    sweep_cells "ablation_switch_matrix"
      (List.concat_map
         (fun from_p ->
           List.filter_map
             (fun to_p -> if from_p = to_p then None else Some (from_p, to_p))
             Dpu_core.Variants.all)
         Dpu_core.Variants.all)
      (fun (from_p, to_p) ->
        let r =
          run_single
            {
              E.default with
              n = 5;
              load = 30.0;
              initial = from_p;
              switch_to = Some to_p;
              duration_ms = 6_000.0;
              switch_at_ms = 3_000.0;
            }
        in
        ( Stats.mean r.E.normal,
          Stats.mean r.E.during,
          r.E.switch_duration_ms,
          r.E.delivered_everywhere = r.E.sent ))
  in
  print_string
    (W.Ascii.table
       ~header:[ "switch"; "normal [ms]"; "during [ms]"; "window [ms]"; "all delivered" ]
       (List.map
          (fun ((from_p, to_p), (normal, during, window, all)) ->
            [
              Printf.sprintf "%s -> %s" from_p to_p;
              Printf.sprintf "%.2f" normal;
              Printf.sprintf "%.2f" during;
              Printf.sprintf "%.1f" window;
              string_of_bool all;
            ])
          matrix));
  record "ablation"
    (Json.Obj
       [
         ("seed", Json.Int 1);
         ( "hop_cost",
           Json.List
             (List.map
                (fun (hop, without, with_layer) ->
                  Json.Obj
                    [
                      ("hop_ms", Json.Float hop);
                      ("no_layer_ms", Json.Float without);
                      ("with_layer_ms", Json.Float with_layer);
                    ])
                hops) );
         ( "variants",
           Json.List
             (List.map
                (fun ((n, variant), (mean, p95)) ->
                  Json.Obj
                    [
                      ("variant", Json.Str variant);
                      ("n", Json.Int n);
                      ("mean_ms", Json.Float mean);
                      ("p95_ms", Json.Float p95);
                    ])
                variants) );
         ( "switch_matrix",
           Json.List
             (List.map
                (fun ((from_p, to_p), (normal, during, window, all)) ->
                  Json.Obj
                    [
                      ("from", Json.Str from_p);
                      ("to", Json.Str to_p);
                      ("normal_ms", Json.Float normal);
                      ("during_ms", Json.Float during);
                      ("window_ms", Json.Float window);
                      ("all_delivered", Json.Bool all);
                    ])
                matrix) );
       ])

(* ------------------------------------------------------------------ *)
(* Consensus replacement (paper §7 / TR [16])                         *)
(* ------------------------------------------------------------------ *)

let stats_json fields (st : Stats.t) =
  Json.Obj
    (fields
    @ [
        ("mean_ms", Json.Float (Stats.mean st));
        ("p95_ms", Json.Float (Stats.percentile st 95.0));
        ("msgs", Json.Int (Stats.count st));
      ])

let mean_p95 (st : Stats.t) =
  [ Printf.sprintf "%.2f" (Stats.mean st); Printf.sprintf "%.2f" (Stats.percentile st 95.0) ]

let run_consensus () =
  section "Extension: CT vs Paxos consensus (same service, same stack)";
  let consensus_mw initial =
    let profile =
      { Dpu_core.Stack_builder.default_profile with consensus_layer = Some initial }
    in
    let config = { Dpu_core.Middleware.default_config with profile; seed = 1 } in
    Dpu_core.Middleware.create ~config ~n:5 ()
  in
  let impls =
    List.map
      (fun initial ->
        let mw = consensus_mw initial in
        W.Load_gen.start mw ~rate_per_s:30.0 ~until:5_000.0 ();
        Dpu_core.Middleware.run_until_quiescent ~limit:60_000.0 mw;
        (initial, Dpu_engine.Series.stats (Dpu_core.Middleware.latency_series mw)))
      [ Dpu_protocols.Consensus_ct.protocol_name; Dpu_protocols.Consensus_paxos.protocol_name ]
  in
  print_string
    (W.Ascii.table
       ~header:[ "consensus impl"; "mean [ms]"; "p95 [ms]" ]
       (List.map (fun (impl, st) -> impl :: mean_p95 st) impls));

  section "Extension: hot-swapping consensus (CT -> Paxos) under ABcast load";
  let mw = consensus_mw Dpu_protocols.Consensus_ct.protocol_name in
  W.Load_gen.start mw ~rate_per_s:40.0 ~until:8_000.0 ();
  let clock = Dpu_kernel.System.clock (Dpu_core.Middleware.system mw) in
  ignore
    (Clock.defer clock ~delay:4_000.0 (fun () ->
         Dpu_core.Middleware.change_consensus mw ~node:2
           Dpu_protocols.Consensus_paxos.protocol_name));
  Dpu_core.Middleware.run_until_quiescent ~limit:60_000.0 mw;
  let series = Dpu_core.Middleware.latency_series mw in
  let phases =
    List.map
      (fun (label, lo, hi) -> (label, Dpu_engine.Series.stats_between series ~lo ~hi))
      [
        ("CT (before switch)", 500.0, 4_000.0);
        ("around the switch", 4_000.0, 4_500.0);
        ("Paxos (after switch)", 4_500.0, 8_000.0);
      ]
  in
  print_string
    (W.Ascii.table
       ~header:[ "phase"; "mean [ms]"; "p95 [ms]"; "msgs" ]
       (List.map
          (fun (label, st) -> (label :: mean_p95 st) @ [ string_of_int (Stats.count st) ])
          phases));
  let properties_ok =
    Dpu_props.Report.all_ok
      (Dpu_props.Abcast_props.check_all (Dpu_core.Middleware.collector mw)
         ~correct:[ 0; 1; 2; 3; 4 ])
  in
  Format.printf "properties across the consensus switch: %s@."
    (if properties_ok then "all ok" else "VIOLATED");
  record "consensus"
    (Json.Obj
       [
         ("seed", Json.Int 1);
         ( "impls",
           Json.List (List.map (fun (impl, st) -> stats_json [ ("impl", Json.Str impl) ] st) impls)
         );
         ( "hot_swap",
           Json.Obj
             [
               ( "phases",
                 Json.List
                   (List.map
                      (fun (label, st) -> stats_json [ ("phase", Json.Str label) ] st)
                      phases) );
               ("properties_ok", Json.Bool properties_ok);
             ] );
       ])

(* ------------------------------------------------------------------ *)

let all_sections =
  [
    ("fig5", run_fig5);
    ("fig6", run_fig6);
    ("headline", run_headline);
    ("compare", run_compare);
    ("throughput", run_throughput);
    ("shard", run_shard);
    ("ablation", run_ablation);
    ("consensus", run_consensus);
  ]

let main jobs_arg requested =
  jobs := jobs_arg;
  let requested =
    match requested with [] -> List.map fst all_sections | names -> names
  in
  let t0 = Unix.gettimeofday () in
  (* Per-section wall-clock, in run order; machine-readable alongside
     the sweep speedups so the perf trajectory is diffable PR over PR. *)
  let timings =
    List.map
      (fun name ->
        let f = List.assoc name all_sections in
        let s0 = Unix.gettimeofday () in
        f ();
        (name, Json.Float (Unix.gettimeofday () -. s0)))
      requested
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let out =
    Json.Obj
      [
        ("schema", Json.Str "dpu.bench/1");
        ("sections", Json.List (List.map (fun s -> Json.Str s) requested));
        ("jobs", Json.Int !jobs);
        ("wall_clock_s", Json.Float wall_s);
        ("section_wall_s", Json.Obj timings);
        ("sweeps", Json.Obj (List.rev !sweeps));
        ("results", Json.Obj (List.rev !results));
      ]
  in
  Json.to_file "BENCH_results.json" out;
  Printf.printf "\nmachine-readable results written to BENCH_results.json\n";
  Printf.printf "(total bench wall time: %.1f s, jobs: %d)\n" wall_s !jobs

let () =
  let open Cmdliner in
  let jobs =
    Arg.(
      value
      & opt int (Sweep.default_jobs ())
      & info [ "j"; "jobs" ] ~docv:"JOBS"
          ~doc:
            "Fan the sweep-backed sections out to $(docv) worker processes. \
             Results are bit-identical for every $(docv). Defaults to \\$DPU_JOBS \
             or 1.")
  in
  let sections =
    Arg.(
      value
      & pos_all (enum (List.map (fun (name, _) -> (name, name)) all_sections)) []
      & info [] ~docv:"SECTION"
          ~doc:
            (Printf.sprintf "Sections to run, in order (default: all). One of %s."
               (String.concat ", " (List.map fst all_sections))))
  in
  exit
    (Cmd.eval
       (Cmd.v
          (Cmd.info "main" ~doc:"Regenerate the paper's figures, tables and ablations.")
          Term.(const main $ jobs $ sections)))
