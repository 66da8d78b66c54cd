(* Benchmark harness: regenerates every figure and headline number of
   the paper's evaluation (§6) and runs the ablation studies called out
   in DESIGN.md. Per-primitive wall-clock costs live in bench/perf.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- fig5         # one section
     dune exec bench/main.exe -- -j 2 compare # sweeps on two workers
     sections: fig5 fig6 headline compare throughput shard ablation
               consensus model *)

module W = Dpu_workload
module E = W.Experiment
module F = W.Figures
module Stats = Dpu_engine.Stats
module Series = Dpu_engine.Series
module Clock = Dpu_runtime.Clock
module Json = Dpu_obs.Json

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

let record_sweep key (st : W.Sweep.stats) =
  sweeps :=
    ( key,
      Json.Obj
        [
          ("jobs", Json.Int st.W.Sweep.jobs);
          ("cells", Json.Int st.W.Sweep.cells);
          ("wall_s", Json.Float st.W.Sweep.wall_s);
          ("cells_wall_s", Json.Float st.W.Sweep.cells_wall_s);
          ("speedup", Json.Float st.W.Sweep.speedup);
        ] )
    :: !sweeps

(* ------------------------------------------------------------------ *)
(* Figure 5                                                           *)
(* ------------------------------------------------------------------ *)

let run_fig5 () =
  section "Figure 5: latency around a replacement (n=7, 40 msg/s, CT->CT)";
  let r = F.figure5 () in
  print_string (F.render_figure5 r);
  let reports = E.check r in
  record "fig5"
    (Json.Obj
       [
         ("n", Json.Int r.E.params.E.n);
         ("seed", Json.Int r.E.params.E.seed);
         ("load_msg_per_s", Json.Float r.E.params.E.load);
         ("sent", Json.Int r.E.sent);
         ("delivered_everywhere", Json.Int r.E.delivered_everywhere);
         ("normal_mean_ms", Json.Float (Stats.mean r.E.normal));
         ("normal_p95_ms", Json.Float (Stats.percentile r.E.normal 95.0));
         ("during_mean_ms", Json.Float (Stats.mean r.E.during));
         ("switch_duration_ms", Json.Float r.E.switch_duration_ms);
         ("blocked_ms", Json.Float r.E.blocked_ms);
         ("properties_ok", Json.Bool (Dpu_props.Report.all_ok reports));
       ]);
  Format.printf "properties: %s@."
    (if Dpu_props.Report.all_ok reports then "all ok" else "VIOLATED");
  if not (Dpu_props.Report.all_ok reports) then
    Format.printf "%a" Dpu_props.Report.pp_all reports

(* ------------------------------------------------------------------ *)
(* Figure 6                                                           *)
(* ------------------------------------------------------------------ *)

let run_fig6 () =
  section "Figure 6: latency vs load (n=3 and n=7; layer overhead; during switch)";
  let outcome = F.figure6_sweep ~jobs:!jobs () in
  record_sweep "fig6" outcome.W.Sweep.stats;
  let points = Array.to_list outcome.W.Sweep.results in
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
}

let measure_window (p : E.params) =
  let r = E.run p in
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
    W.Sweep.run ~jobs:!jobs ~cells:(Array.length grid) (fun _ i ->
        let batching, offered = grid.(i) in
        measure_window (params batching offered))
  in
  record_sweep "throughput" outcome.W.Sweep.stats;
  let curve batching =
    let pts = ref [] in
    Array.iteri
      (fun i pt -> if fst grid.(i) == batching then pts := pt :: !pts)
      outcome.W.Sweep.results;
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
  let module Sh = W.Shard in
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
    W.Sweep.run ~jobs:!jobs ~cells:(Array.length grid) (fun _ i ->
        let n, shards = grid.(i) in
        let params =
          {
            Sh.default with
            n;
            shards;
            load_per_s = 1.5 *. float_of_int n;
            warmup_ms = 100.0;
            duration_ms = 600.0;
            drain_ms = 1_200.0;
            rolling = Some { Sh.default_rolling with start_ms = 250.0 };
          }
        in
        let r = Sh.run ~params () in
        let sum f = List.fold_left (fun a s -> a + f s) 0 r.Sh.per_shard in
        let worst f =
          List.fold_left (fun a s -> Float.max a (f s)) 0.0 r.Sh.per_shard
        in
        ( sum (fun s -> s.Sh.sent),
          sum (fun s -> s.Sh.delivered),
          worst (fun s -> s.Sh.p50_ms),
          worst (fun s -> s.Sh.p99_ms),
          r.Sh.max_concurrent_switches,
          r.Sh.all_ok ))
  in
  record_sweep "shard" outcome.W.Sweep.stats;
  let cells = Array.to_list (Array.mapi (fun i r -> (grid.(i), r)) outcome.W.Sweep.results) in
  print_string
    (W.Ascii.table
       ~header:
         [ "n"; "shards"; "sent"; "delivered"; "worst p50 [ms]"; "worst p99 [ms]";
           "max swaps in flight"; "all ok" ]
       (List.map
          (fun ((n, shards), (sent, delivered, p50, p99, maxcc, ok)) ->
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
         ("seed", Json.Int Sh.default.Sh.seed);
         ( "cells",
           Json.List
             (List.map
                (fun ((n, shards), (sent, delivered, p50, p99, maxcc, ok)) ->
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
                    ])
                cells) );
       ])

(* ------------------------------------------------------------------ *)
(* Headline numbers of §6                                             *)
(* ------------------------------------------------------------------ *)

let run_headline () =
  section "Headline numbers (paper §6 vs this reproduction)";
  let h, sweep_stats = F.headline_sweep ~jobs:!jobs () in
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
  let rows, sweep_stats = F.compare_approaches_sweep ~jobs:!jobs () in
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
      E.run
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

(* Fan an (independent-cell) grid out to the worker pool; each cell
   returns one pre-rendered table row, so rows stay in grid order. *)
let sweep_rows name grid cell =
  let grid = Array.of_list grid in
  let outcome =
    W.Sweep.run ~jobs:!jobs ~cells:(Array.length grid) (fun _ idx -> cell grid.(idx))
  in
  record_sweep name outcome.W.Sweep.stats;
  Array.to_list outcome.W.Sweep.results

let run_ablation () =
  section "Ablation: consensus batching (paper ran consensus per message)";
  let rows =
    sweep_rows "ablation_batching"
      (List.concat_map
         (fun batch_size -> List.map (fun load -> (batch_size, load)) [ 40.0; 80.0 ])
         [ 1; 4; 16 ])
      (fun (batch_size, load) ->
        let r =
          E.run
            { E.default with batch_size; load; switch_to = None; duration_ms = 6_000.0 }
        in
        [
          string_of_int batch_size;
          Printf.sprintf "%.0f" load;
          Printf.sprintf "%.2f" (Stats.mean r.E.normal);
          Printf.sprintf "%.2f" (Stats.percentile r.E.normal 95.0);
        ])
  in
  print_string
    (W.Ascii.table ~header:[ "batch"; "load"; "mean [ms]"; "p95 [ms]" ] rows);

  section "Ablation: per-hop dispatch cost (stack depth sensitivity)";
  let dispatches_per_msg approach hop_cost =
    let profile =
      {
        Dpu_core.Stack_builder.default_profile with
        layer =
          (match approach with
          | E.No_layer -> None
          | _ -> Some Dpu_core.Repl.protocol_name);
      }
    in
    let config =
      { Dpu_core.Middleware.default_config with profile; seed = 1; hop_cost }
    in
    let mw = Dpu_core.Middleware.create ~config ~n:7 () in
    W.Load_gen.start mw ~rate_per_s:40.0 ~until:2_000.0 ();
    Dpu_core.Middleware.run_until_quiescent ~limit:30_000.0 mw;
    let total =
      Array.fold_left
        (fun acc stack ->
          let c, i = Dpu_kernel.Stack.dispatch_counts stack in
          acc + c + i)
        0
        (Dpu_kernel.System.stacks (Dpu_core.Middleware.system mw))
    in
    let sent = Dpu_core.Collector.send_count (Dpu_core.Middleware.collector mw) in
    float_of_int total /. float_of_int (max sent 1)
  in
  let rows =
    List.map
      (fun hop_cost ->
        let with_layer =
          E.run { E.default with hop_cost; switch_to = None; duration_ms = 4_000.0 }
        in
        let without =
          E.run
            {
              E.default with
              hop_cost;
              approach = E.No_layer;
              switch_to = None;
              duration_ms = 4_000.0;
            }
        in
        let overhead =
          (Stats.mean with_layer.E.normal -. Stats.mean without.E.normal)
          /. Stats.mean without.E.normal *. 100.0
        in
        [
          Printf.sprintf "%.2f" hop_cost;
          Printf.sprintf "%.2f" (Stats.mean without.E.normal);
          Printf.sprintf "%.2f" (Stats.mean with_layer.E.normal);
          Printf.sprintf "%+.1f%%" overhead;
        ])
      [ 0.1; 0.25; 0.5; 1.0 ]
  in
  print_string
    (W.Ascii.table
       ~header:[ "hop [ms]"; "no layer [ms]"; "with layer [ms]"; "layer overhead" ]
       rows);
  Printf.printf
    "dispatch hops per message (all stacks): no layer %.1f, with layer %.1f\n"
    (dispatches_per_msg E.No_layer 0.5)
    (dispatches_per_msg E.Repl 0.5);

  section "Ablation: ABcast variant latency profiles (same service, n=3/7)";
  let rows =
    sweep_rows "ablation_variants"
      (List.concat_map
         (fun n -> List.map (fun variant -> (n, variant)) Dpu_core.Variants.all)
         [ 3; 7 ])
      (fun (n, variant) ->
        let r =
          E.run
            {
              E.default with
              n;
              load = 30.0;
              initial = variant;
              switch_to = None;
              duration_ms = 5_000.0;
            }
        in
        [
          variant;
          string_of_int n;
          Printf.sprintf "%.2f" (Stats.mean r.E.normal);
          Printf.sprintf "%.2f" (Stats.percentile r.E.normal 95.0);
        ])
  in
  print_string (W.Ascii.table ~header:[ "variant"; "n"; "mean [ms]"; "p95 [ms]" ] rows);

  section "Ablation: the price of ordering (reliable < FIFO < causal < total)";
  let ordering_row name register_svc svc wrap_bcast unwrap =
    let system = Dpu_kernel.System.create ~seed:1 ~n:5 () in
    Dpu_protocols.Udp.register system;
    Dpu_protocols.Rp2p.register system;
    Dpu_protocols.Fd.register system;
    Dpu_protocols.Rbcast.register system;
    Dpu_protocols.Consensus_ct.register system;
    Dpu_protocols.Abcast_ct.register system;
    register_svc system;
    Dpu_kernel.System.iter_stacks system (fun stack ->
        Dpu_kernel.Registry.ensure_bound (Dpu_kernel.System.registry system) stack svc);
    let clock = Dpu_kernel.System.clock system in
    let stats = Dpu_engine.Stats.create () in
    let sent : (int, float) Hashtbl.t = Hashtbl.create 256 in
    (* Latency to the farthest receiver. *)
    let worst : (int, float) Hashtbl.t = Hashtbl.create 256 in
    for node = 0 to 4 do
      ignore
        (Dpu_kernel.Stack.add_module
           (Dpu_kernel.System.stack system node)
           ~name:"meter" ~provides:[] ~requires:[ svc ]
           (fun _ _ ->
             {
               Dpu_kernel.Stack.default_handlers with
               handle_indication =
                 (fun s p ->
                   if Dpu_kernel.Service.equal s svc then
                     match unwrap p with
                     | Some i ->
                       let t = Clock.now clock in
                       Hashtbl.replace worst i
                         (Float.max t
                            (Option.value ~default:0.0 (Hashtbl.find_opt worst i)))
                     | None -> ());
             })
          : Dpu_kernel.Stack.module_)
    done;
    for i = 0 to 99 do
      let node = i mod 5 in
      ignore
        (Clock.defer clock ~delay:(float_of_int i *. 10.0) (fun () ->
             Hashtbl.replace sent i (Clock.now clock);
             Dpu_kernel.Stack.call
               (Dpu_kernel.System.stack system node)
               svc (wrap_bcast i)))
    done;
    Dpu_kernel.System.run_until_quiescent ~limit:30_000.0 system;
    Hashtbl.iter
      (fun i t1 ->
        match Hashtbl.find_opt sent i with
        | Some t0 -> Dpu_engine.Stats.add stats (t1 -. t0)
        | None -> ())
      worst;
    [
      name;
      Printf.sprintf "%.2f" (Dpu_engine.Stats.mean stats);
      Printf.sprintf "%.2f" (Dpu_engine.Stats.percentile stats 95.0);
    ]
  in
  let module K = Dpu_kernel in
  print_string
    (W.Ascii.table
       ~header:[ "guarantee"; "mean worst-receiver latency [ms]"; "p95 [ms]" ]
       [
         ordering_row "reliable (rbcast)"
           (fun _ -> ())
           Dpu_protocols.Rbcast.service
           (fun i ->
             Dpu_protocols.Rbcast.Bcast { size = 512; payload = Dpu_core.App_msg.App (K.Msg.make ~origin:0 ~seq:i ~size:512 "x") })
           (function
             | Dpu_protocols.Rbcast.Deliver { payload = Dpu_core.App_msg.App m; _ } ->
               Some m.K.Msg.id.K.Msg.seq
             | _ -> None);
         ordering_row "FIFO"
           (fun system -> Dpu_protocols.Fifo_bcast.register system)
           Dpu_protocols.Fifo_bcast.service
           (fun i ->
             Dpu_protocols.Fifo_bcast.Bcast { size = 512; payload = Dpu_core.App_msg.App (K.Msg.make ~origin:0 ~seq:i ~size:512 "x") })
           (function
             | Dpu_protocols.Fifo_bcast.Deliver { payload = Dpu_core.App_msg.App m; _ } ->
               Some m.K.Msg.id.K.Msg.seq
             | _ -> None);
         ordering_row "causal"
           (fun system -> Dpu_protocols.Causal_bcast.register system)
           Dpu_protocols.Causal_bcast.service
           (fun i ->
             Dpu_protocols.Causal_bcast.Bcast { size = 512; payload = Dpu_core.App_msg.App (K.Msg.make ~origin:0 ~seq:i ~size:512 "x") })
           (function
             | Dpu_protocols.Causal_bcast.Deliver { payload = Dpu_core.App_msg.App m; _ } ->
               Some m.K.Msg.id.K.Msg.seq
             | _ -> None);
         ordering_row "total (abcast over consensus)"
           (fun _ -> ())
           K.Service.abcast
           (fun i ->
             Dpu_protocols.Abcast_iface.Broadcast { size = 512; payload = Dpu_core.App_msg.App (K.Msg.make ~origin:0 ~seq:i ~size:512 "x") })
           (function
             | Dpu_protocols.Abcast_iface.Deliver { payload = Dpu_core.App_msg.App m; _ } ->
               Some m.K.Msg.id.K.Msg.seq
             | _ -> None);
       ]);

  section "Ablation: heterogeneous switch matrix (during-switch latency)";
  let rows =
    sweep_rows "ablation_switch_matrix"
      (List.concat_map
         (fun from_p ->
           List.filter_map
             (fun to_p -> if from_p = to_p then None else Some (from_p, to_p))
             Dpu_core.Variants.all)
         Dpu_core.Variants.all)
      (fun (from_p, to_p) ->
        let r =
          E.run
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
        [
          Printf.sprintf "%s -> %s" from_p to_p;
          Printf.sprintf "%.2f" (Stats.mean r.E.normal);
          Printf.sprintf "%.2f" (Stats.mean r.E.during);
          Printf.sprintf "%.1f" r.E.switch_duration_ms;
          string_of_bool (r.E.delivered_everywhere = r.E.sent);
        ])
  in
  print_string
    (W.Ascii.table
       ~header:[ "switch"; "normal [ms]"; "during [ms]"; "window [ms]"; "all delivered" ]
       rows)

(* ------------------------------------------------------------------ *)
(* Consensus replacement (paper §7 / TR [16])                         *)
(* ------------------------------------------------------------------ *)

let run_consensus () =
  section "Extension: CT vs Paxos consensus (same service, same stack)";
  let impl_row initial =
    let profile =
      { Dpu_core.Stack_builder.default_profile with consensus_layer = Some initial }
    in
    let config = { Dpu_core.Middleware.default_config with profile; seed = 1 } in
    let mw = Dpu_core.Middleware.create ~config ~n:5 () in
    W.Load_gen.start mw ~rate_per_s:30.0 ~until:5_000.0 ();
    Dpu_core.Middleware.run_until_quiescent ~limit:60_000.0 mw;
    let stats = Dpu_engine.Series.stats (Dpu_core.Middleware.latency_series mw) in
    [
      initial;
      Printf.sprintf "%.2f" (Stats.mean stats);
      Printf.sprintf "%.2f" (Stats.percentile stats 95.0);
    ]
  in
  print_string
    (W.Ascii.table
       ~header:[ "consensus impl"; "mean [ms]"; "p95 [ms]" ]
       [
         impl_row Dpu_protocols.Consensus_ct.protocol_name;
         impl_row Dpu_protocols.Consensus_paxos.protocol_name;
       ]);

  section "Extension: hot-swapping consensus (CT -> Paxos) under ABcast load";
  let profile =
    {
      Dpu_core.Stack_builder.default_profile with
      consensus_layer = Some Dpu_protocols.Consensus_ct.protocol_name;
    }
  in
  let config = { Dpu_core.Middleware.default_config with profile; seed = 1 } in
  let mw = Dpu_core.Middleware.create ~config ~n:5 () in
  W.Load_gen.start mw ~rate_per_s:40.0 ~until:8_000.0 ();
  let clock = Dpu_kernel.System.clock (Dpu_core.Middleware.system mw) in
  ignore
    (Clock.defer clock ~delay:4_000.0 (fun () ->
         Dpu_core.Middleware.change_consensus mw ~node:2
           Dpu_protocols.Consensus_paxos.protocol_name));
  Dpu_core.Middleware.run_until_quiescent ~limit:60_000.0 mw;
  let series = Dpu_core.Middleware.latency_series mw in
  let before = Dpu_engine.Series.stats_between series ~lo:500.0 ~hi:4_000.0 in
  let around = Dpu_engine.Series.stats_between series ~lo:4_000.0 ~hi:4_500.0 in
  let after = Dpu_engine.Series.stats_between series ~lo:4_500.0 ~hi:8_000.0 in
  print_string
    (W.Ascii.table
       ~header:[ "phase"; "mean [ms]"; "p95 [ms]"; "msgs" ]
       [
         [ "CT (before switch)"; Printf.sprintf "%.2f" (Stats.mean before);
           Printf.sprintf "%.2f" (Stats.percentile before 95.0);
           string_of_int (Stats.count before) ];
         [ "around the switch"; Printf.sprintf "%.2f" (Stats.mean around);
           Printf.sprintf "%.2f" (Stats.percentile around 95.0);
           string_of_int (Stats.count around) ];
         [ "Paxos (after switch)"; Printf.sprintf "%.2f" (Stats.mean after);
           Printf.sprintf "%.2f" (Stats.percentile after 95.0);
           string_of_int (Stats.count after) ];
       ]);
  let reports =
    Dpu_props.Abcast_props.check_all (Dpu_core.Middleware.collector mw)
      ~correct:[ 0; 1; 2; 3; 4 ]
  in
  Format.printf "properties across the consensus switch: %s@."
    (if Dpu_props.Report.all_ok reports then "all ok" else "VIOLATED");

  section "Ablation: adaptive vs fixed retransmission timeout (batch=16, load=80)";
  let run_with_rp2p label rp2p_config =
    let profile = { Dpu_core.Stack_builder.default_profile with batch_size = 16 } in
    let config =
      { Dpu_core.Middleware.default_config with profile; seed = 1; hop_cost = 0.5 }
    in
    let mw =
      Dpu_core.Middleware.create ~config
        ~register_extra:(fun system ->
          (* Most recent registration wins: override rp2p. *)
          Dpu_protocols.Rp2p.register ~config:rp2p_config system)
        ~n:7 ()
    in
    W.Load_gen.start mw ~rate_per_s:80.0 ~size:4096 ~until:5_000.0 ();
    Dpu_core.Middleware.run_until_quiescent ~limit:120_000.0 mw;
    let stats = Dpu_engine.Series.stats (Dpu_core.Middleware.latency_series mw) in
    let retrans =
      Array.fold_left
        (fun acc stack -> acc + (Dpu_protocols.Rp2p.stats stack).Dpu_protocols.Rp2p.retransmissions)
        0
        (Dpu_kernel.System.stacks (Dpu_core.Middleware.system mw))
    in
    [
      label;
      Printf.sprintf "%.1f" (Stats.mean stats);
      Printf.sprintf "%.1f" (Stats.percentile stats 95.0);
      string_of_int retrans;
    ]
  in
  print_string
    (W.Ascii.table
       ~header:[ "rp2p timeout"; "mean [ms]"; "p95 [ms]"; "retransmissions" ]
       [
         run_with_rp2p "adaptive (Jacobson+storm backoff)"
           Dpu_protocols.Rp2p.default_config;
         run_with_rp2p "fixed 10 ms (lucky guess)"
           { Dpu_protocols.Rp2p.default_config with adaptive = false; max_rto_ms = 200.0 };
         run_with_rp2p "fixed 3 ms (below loaded RTT)"
           {
             Dpu_protocols.Rp2p.default_config with
             rto_ms = 3.0;
             adaptive = false;
             max_rto_ms = 200.0;
           };
       ]);
  print_endline
    "  (a fixed timeout below the loaded round-trip self-amplifies: every\n\
    \   retransmission feeds the queue that delayed the ack; the adaptive\n\
    \   estimator with a persistent storm backoff breaks that loop)" 

(* ------------------------------------------------------------------ *)
(* Bounded model checking of Algorithm 1                              *)
(* ------------------------------------------------------------------ *)

let run_model () =
  section "Model checking Algorithm 1 (exhaustive within bounds)";
  let module M = Dpu_model.Algo1 in
  let row label mutation bounds =
    let t0 = Unix.gettimeofday () in
    let r = M.check ~mutation ~bounds () in
    let outcome, states =
      match r with
      | M.Verified { states; _ } -> ("verified", states)
      | M.Violation { property; states; _ } -> ("VIOLATION: " ^ property, states)
      | M.Bound_exceeded { states } -> ("bound exceeded", states)
    in
    [ label; M.mutation_name mutation; outcome; string_of_int states;
      Printf.sprintf "%.1f" (Unix.gettimeofday () -. t0) ]
  in
  let b = M.default_bounds in
  print_string
    (W.Ascii.table
       ~header:[ "bounds"; "variant"; "result"; "states"; "wall [s]" ]
       [
         row "n=2 s=2 c=1" M.Faithful b;
         row "n=3 s=1 c=1" M.Faithful { b with nodes = 3; sends = 1 };
         row "n=2 s=2 c=1 +crash" M.Faithful { b with crashes = 1 };
         row "n=2 s=2 c=1" M.No_sn_check b;
         row "n=2 s=2 c=1" M.No_reissue b;
         row "n=2 s=2 c=1" M.No_undelivered_removal b;
         row "n=2 s=1 c=2" M.Faithful { b with sends = 1; changes = 2 };
         row "n=2 s=1 c=2" M.Fixed_line10 { b with sends = 1; changes = 2 };
       ]);
  print_endline
    "  (the n=2 s=1 c=2 rows are the finding: Algorithm 1 as printed breaks\n\
    \   uniform agreement under overlapping changeABcast requests; the\n\
    \   symmetric line-10 generation check, which this repo implements,\n\
    \   restores every property)";
  print_endline "\nthe as-printed counterexample, in full:";
  (match M.check ~mutation:M.Faithful ~bounds:{ b with sends = 1; changes = 2 } () with
  | M.Violation _ as r -> Format.printf "%a@." M.pp_result r
  | M.Verified _ | M.Bound_exceeded _ -> ());

  section "Model checking the consensus replacement layer (extension)";
  let module C = Dpu_model.Consswap in
  let crow label variant bounds =
    let t0 = Unix.gettimeofday () in
    let r = C.check ~variant ~bounds () in
    let outcome, states =
      match r with
      | C.Verified { states; _ } -> ("verified", states)
      | C.Violation { property; states; _ } -> ("VIOLATION: " ^ property, states)
      | C.Bound_exceeded { states } -> ("bound exceeded", states)
    in
    [ label; C.variant_name variant; outcome; string_of_int states;
      Printf.sprintf "%.1f" (Unix.gettimeofday () -. t0) ]
  in
  let cb = C.default_bounds in
  print_string
    (W.Ascii.table
       ~header:[ "bounds"; "variant"; "result"; "states"; "wall [s]" ]
       [
         crow "n=2 i=2 c=1" C.Sound cb;
         crow "n=2 i=4 c=1" C.Sound { cb with instances = 4 };
         crow "n=3 i=2 c=1" C.Sound { cb with nodes = 3 };
         crow "n=2 i=2 c=1" C.No_prefix_defer cb;
         crow "n=2 i=2 c=1" C.No_stale_discard cb;
         crow "n=2 i=2 c=1" C.No_reissue cb;
       ]);
  print_endline
    "  (the prefix-defer rule is essential: without it, a stack that switches\n\
    \   early re-decides an instance a slower stack already accepted under the\n\
    \   old implementation. The stale-discard and re-issue guards verify as\n\
    \   redundant under the sequential-client contract: defense-in-depth.)";
  (match C.check ~variant:C.No_prefix_defer () with
  | C.Violation _ as r ->
    print_endline "\nthe no-defer counterexample, in full:";
    Format.printf "%a@." C.pp_result r
  | C.Verified _ | C.Bound_exceeded _ -> ())

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
    ("model", run_model);
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
      & opt int (W.Sweep.default_jobs ())
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
