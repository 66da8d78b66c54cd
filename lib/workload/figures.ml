module Series = Dpu_engine.Series
module Stats = Dpu_engine.Stats
module Sweep = Dpu_runtime.Sweep

let figure5 ?(n = 7) ?(load = 40.0) ?(seed = 1) () =
  Experiment.run { Experiment.default with n; load; seed }

(* Every figure runs the paper's single group: its numbers are shard 0's. *)
let single (r : Experiment.result) = r.per_shard.(0)

let render_figure5 (r : Experiment.result) =
  let s = single r in
  let buf = Buffer.create 4096 in
  let windowed = Series.window_average s.latency ~width:250.0 in
  let points = List.map (fun (p : Series.point) -> (p.time, p.value)) windowed in
  let ymax = List.fold_left (fun acc (_, y) -> Float.max acc y) 1.0 points in
  let window_markers =
    match s.switch_window with
    | Some (lo, hi) ->
      (* A vertical band of markers over the replacement window. *)
      let column x = List.init 8 (fun i -> (x, ymax *. float_of_int (i + 1) /. 8.0)) in
      [ ("replacement window", column lo @ column hi) ]
    | None -> []
  in
  Buffer.add_string buf
    (Ascii.chart
       ~title:
         (Printf.sprintf
            "Figure 5: ABcast latency vs send time (n=%d, %.0f msg/s, switch at %.0f ms)"
            r.params.n r.params.load r.params.switch_at_ms)
       ~x_unit:"ms (send time)" ~y_unit:"ms"
       (("avg latency (250 ms windows)", points) :: window_markers));
  (match s.switch_window with
  | Some (lo, hi) ->
    Buffer.add_string buf
      (Printf.sprintf "replacement window: %.1f .. %.1f ms (%.1f ms)\n" lo hi (hi -. lo))
  | None -> Buffer.add_string buf "no replacement completed\n");
  Buffer.add_string buf
    (Printf.sprintf "normal: %.2f ms (n=%d)   during replacement: %.2f ms (n=%d)\n"
       (Stats.mean s.normal) (Stats.count s.normal) (Stats.mean s.during)
       (Stats.count s.during));
  Buffer.contents buf

type fig6_point = {
  n : int;
  load : float;
  no_layer_ms : float;
  with_layer_ms : float;
  during_ms : float;
  work : (string * float) list;
}

let figure6 ?(ns = [ 3; 7 ]) ?(loads = [ 10.0; 20.0; 40.0; 60.0; 80.0 ]) ?(seed = 1)
    ?jobs () =
  let grid =
    Array.of_list (List.concat_map (fun n -> List.map (fun load -> (n, load)) loads) ns)
  in
  let point idx =
    let n, load = grid.(idx) in
    let base =
      { Experiment.default with n; load; seed; duration_ms = 8_000.0; switch_at_ms = 4_000.0 }
    in
    let run p = single (Experiment.run p) in
    let no_layer = run { base with approach = Experiment.No_layer; switch_to = None } in
    let with_layer = run { base with switch_to = None } in
    let switching = Experiment.run base in
    {
      n;
      load;
      no_layer_ms = Stats.mean no_layer.normal;
      with_layer_ms = Stats.mean with_layer.normal;
      during_ms = Stats.mean (single switching).during;
      work = Experiment.per_message switching;
    }
  in
  let outcome = Sweep.run ?jobs ~cells:(Array.length grid) point in
  (Array.to_list outcome.Sweep.results, outcome.Sweep.stats)

let render_figure6 points =
  let buf = Buffer.create 4096 in
  let ns = List.sort_uniq Int.compare (List.map (fun p -> p.n) points) in
  List.iter
    (fun n ->
      let mine = List.filter (fun p -> p.n = n) points in
      let series name f = (name, List.map (fun p -> (p.load, f p)) mine) in
      Buffer.add_string buf
        (Ascii.chart
           ~title:(Printf.sprintf "Figure 6: latency vs load (n=%d)" n)
           ~x_unit:"msg/s" ~y_unit:"ms"
           [
             series "normal, without replacement layer" (fun p -> p.no_layer_ms);
             series "normal, with replacement layer" (fun p -> p.with_layer_ms);
             series "during replacement" (fun p -> p.during_ms);
           ]))
    ns;
  let rows =
    List.map
      (fun p ->
        [
          string_of_int p.n;
          Printf.sprintf "%.0f" p.load;
          Printf.sprintf "%.2f" p.no_layer_ms;
          Printf.sprintf "%.2f" p.with_layer_ms;
          Printf.sprintf "%+.1f%%"
            ((p.with_layer_ms -. p.no_layer_ms) /. p.no_layer_ms *. 100.0);
          Printf.sprintf "%.2f" p.during_ms;
        ])
      points
  in
  Buffer.add_string buf
    (Ascii.table
       ~header:[ "n"; "load"; "no-layer"; "with-layer"; "overhead"; "during-switch" ]
       rows);
  Buffer.contents buf

type headline = {
  layer_overhead_pct : float;
  spike_pct : float;
  spike_duration_ms : float;
  app_blocked_ms : float;
}

(* Marshal-safe per-seed slice of the headline aggregation: raw sample
   arrays, not [Stats.t] (which the parent re-folds in seed order so
   the float arithmetic matches the sequential run exactly). *)
type headline_cell = {
  hc_no_layer : float array;
  hc_with_layer : float array;
  hc_normal : float array;
  hc_during : float array;
  hc_duration_ms : float;
  hc_blocked_ms : float;
}

let headline ?(n = 7) ?(load = 40.0) ?(seeds = [ 1; 2; 3; 4; 5 ]) ?jobs () =
  (* One switch yields only a handful of during-window messages (the
     window is about one ABcast latency), so the headline aggregates
     several seeds for statistical weight. Each seed is one sweep cell. *)
  let seeds = Array.of_list seeds in
  let cell idx =
    let base = { Experiment.default with n; load; seed = seeds.(idx) } in
    let run p = single (Experiment.run p) in
    let no_layer = run { base with approach = Experiment.No_layer; switch_to = None } in
    let with_layer = run { base with switch_to = None } in
    let switching = run base in
    {
      hc_no_layer = Stats.samples no_layer.normal;
      hc_with_layer = Stats.samples with_layer.normal;
      hc_normal = Stats.samples switching.normal;
      hc_during = Stats.samples switching.during;
      hc_duration_ms = switching.switch_duration_ms;
      hc_blocked_ms = switching.blocked_ms;
    }
  in
  let outcome = Sweep.run ?jobs ~cells:(Array.length seeds) cell in
  let no_layer_all = Stats.create () in
  let with_layer_all = Stats.create () in
  let normal_all = Stats.create () in
  let during_all = Stats.create () in
  let durations = Stats.create () in
  let blocked = ref 0.0 in
  Array.iter
    (fun c ->
      Array.iter (Stats.add no_layer_all) c.hc_no_layer;
      Array.iter (Stats.add with_layer_all) c.hc_with_layer;
      Array.iter (Stats.add normal_all) c.hc_normal;
      Array.iter (Stats.add during_all) c.hc_during;
      Stats.add durations c.hc_duration_ms;
      blocked := Float.max !blocked c.hc_blocked_ms)
    outcome.Sweep.results;
  let overhead =
    (Stats.mean with_layer_all -. Stats.mean no_layer_all)
    /. Stats.mean no_layer_all *. 100.0
  in
  let spike =
    (Stats.mean during_all -. Stats.mean normal_all) /. Stats.mean normal_all *. 100.0
  in
  ( {
      layer_overhead_pct = overhead;
      spike_pct = spike;
      spike_duration_ms = Stats.mean durations;
      app_blocked_ms = !blocked;
    },
    outcome.Sweep.stats )

let render_headline h =
  Ascii.table
    ~header:[ "metric"; "paper"; "measured" ]
    [
      [ "replacement-layer overhead"; "~5%"; Printf.sprintf "%.1f%%" h.layer_overhead_pct ];
      [ "latency spike during switch"; "~50%"; Printf.sprintf "%.1f%%" h.spike_pct ];
      [
        "replacement duration"; "~1 s (short period)";
        Printf.sprintf "%.0f ms" h.spike_duration_ms;
      ];
      [ "application blocked"; "never"; Printf.sprintf "%.1f ms" h.app_blocked_ms ];
    ]

type comparison_row = {
  approach : Experiment.approach;
  normal_ms : float;
  during_switch_ms : float;
  switch_duration : float;
  blocked : float;
  all_delivered : bool;
}

let compare_approaches ?(n = 5) ?(load = 40.0) ?(seed = 1) ?jobs () =
  let approaches = [| Experiment.Repl; Experiment.Graceful; Experiment.Maestro |] in
  let cell idx =
    let approach = approaches.(idx) in
    let r = single (Experiment.run { Experiment.default with n; load; seed; approach }) in
    {
      approach;
      normal_ms = Stats.mean r.normal;
      during_switch_ms = Stats.mean r.during;
      switch_duration = r.switch_duration_ms;
      blocked = r.blocked_ms;
      all_delivered = r.delivered_everywhere = r.sent;
    }
  in
  let outcome = Sweep.run ?jobs ~cells:(Array.length approaches) cell in
  (Array.to_list outcome.Sweep.results, outcome.Sweep.stats)

let render_comparison rows =
  Ascii.table
    ~header:
      [ "approach"; "normal [ms]"; "during switch [ms]"; "switch [ms]"; "blocked [ms]"; "all delivered" ]
    (List.map
       (fun r ->
         [
           Experiment.approach_name r.approach;
           Printf.sprintf "%.2f" r.normal_ms;
           Printf.sprintf "%.2f" r.during_switch_ms;
           Printf.sprintf "%.1f" r.switch_duration;
           Printf.sprintf "%.1f" r.blocked;
           string_of_bool r.all_delivered;
         ])
       rows)
