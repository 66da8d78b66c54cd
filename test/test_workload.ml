(* Tests for the workload generators, the ASCII renderer and the
   experiment harness behind the figures. *)

module W = Dpu_workload
module MW = Dpu_core.Middleware
module Stats = Dpu_engine.Stats

let check = Alcotest.check
let fail = Alcotest.fail

(* A single-group run's numbers are its shard 0's. *)
let run_single p = (W.Experiment.run p).W.Experiment.per_shard.(0)

(* Small, fast experiment parameters. *)
let small =
  {
    W.Experiment.default with
    n = 3;
    load = 30.0;
    duration_ms = 2_000.0;
    warmup_ms = 200.0;
    switch_at_ms = 1_000.0;
    msg_size = 512;
  }

(* ------------------------------------------------------------------ *)
(* Load generators                                                    *)
(* ------------------------------------------------------------------ *)

let count_sends rate pattern =
  let mw = MW.create ~n:3 () in
  W.Load_gen.start mw ~rate_per_s:rate ~pattern ~size:256 ~until:2_000.0 ();
  MW.run_until_quiescent ~limit:10_000.0 mw;
  Dpu_core.Collector.send_count (MW.collector mw)

let test_constant_rate () =
  let sent = count_sends 50.0 W.Load_gen.Constant in
  (* 50 msg/s for 2 s => ~100 *)
  if sent < 90 || sent > 110 then fail (Printf.sprintf "constant rate produced %d" sent)

let test_poisson_rate () =
  let sent = count_sends 50.0 W.Load_gen.Poisson in
  if sent < 60 || sent > 140 then fail (Printf.sprintf "poisson rate produced %d" sent)

let test_burst_rate () =
  let sent = count_sends 50.0 (W.Load_gen.Burst { period_ms = 500.0; duty = 0.2 }) in
  if sent < 50 || sent > 150 then fail (Printf.sprintf "burst produced %d" sent)

let test_send_n () =
  let mw = MW.create ~n:3 () in
  ignore (W.Load_gen.send_n mw ~count:12 ~gap_ms:5.0 () : float);
  MW.run_until_quiescent ~limit:10_000.0 mw;
  check Alcotest.int "count" 12 (Dpu_core.Collector.send_count (MW.collector mw))

let test_send_n_warmup_boundary () =
  let mw = MW.create ~n:3 () in
  let boundary = W.Load_gen.send_n mw ~count:10 ~gap_ms:5.0 ~warmup:6 () in
  MW.run_until_quiescent ~limit:10_000.0 mw;
  (* Warmup messages are real traffic... *)
  check Alcotest.int "warmup + counted all sent" 16
    (Dpu_core.Collector.send_count (MW.collector mw));
  (* ...but the returned boundary splits the latency series so exactly
     the counted messages land at or after it. *)
  let series = Dpu_core.Collector.latency_series (MW.collector mw) in
  let measured = Dpu_engine.Series.stats_between series ~lo:boundary ~hi:infinity in
  check Alcotest.int "measured excludes warmup" 10 (Stats.count measured);
  check (Alcotest.float 1e-9) "boundary is first counted send" 30.0 boundary

let test_load_spread_across_nodes () =
  let mw = MW.create ~n:3 () in
  W.Load_gen.start mw ~rate_per_s:60.0 ~size:256 ~until:1_000.0 ();
  MW.run_until_quiescent ~limit:10_000.0 mw;
  let sends = Dpu_core.Collector.sends (MW.collector mw) in
  let per_node = Array.make 3 0 in
  List.iter (fun (_, node, _) -> per_node.(node) <- per_node.(node) + 1) sends;
  Array.iter
    (fun c -> check Alcotest.bool "each node sends" true (c > 10))
    per_node

(* ------------------------------------------------------------------ *)
(* Protocol state                                                     *)
(* ------------------------------------------------------------------ *)

(* Protocol state must scale with in-flight work, not with history. The
   same n=3 CT cluster runs Poisson 100 msg/s for 5 s and for 20 s of
   virtual time (trace off, 512 B messages, 1 s to settle); the extra
   words reachable from the middleware, less its Collector (the
   measurement log the checkers read), are charged to the extra
   messages sent. What remains per message is the weight each node
   keeps of a released consensus instance. With one dedup-table entry
   per message ever seen (rp2p, rbcast, abcast.ct) and every decided
   consensus instance kept whole, this read 520 words per message
   unbatched and 449 batched; with sequence windows and a compact
   decided log, 56 and 51; now that a decided value goes once every
   member has relayed it and the caller has moved on, 3.0 and 3.0. *)
(* One run of that cluster for [until] ms plus 1 s: the words of
   protocol state, the messages sent, and the most ABcast modules any
   stack holds at the end. [swap_every] triggers a CT->CT replacement
   every so many ms, from the nodes in turn. *)
let history_run ?swap_every ?(plan = fun _ -> Dpu_core.Variants.ct) ~batching until =
  let config =
    {
      MW.default_config with
      trace_enabled = false;
      msg_size = 512;
      profile = { MW.default_config.profile with batching };
    }
  in
  let mw = MW.create ~config ~n:3 () in
  W.Load_gen.start mw ~rate_per_s:100.0 ~pattern:W.Load_gen.Poisson ~size:512 ~until ();
  Option.iter
    (fun every ->
      let clock = Dpu_kernel.System.clock (MW.system mw) in
      let k = ref 1 in
      while every *. float_of_int !k < until do
        let node = !k mod 3 in
        let protocol = plan !k in
        Dpu_runtime.Clock.defer clock ~delay:(every *. float_of_int !k) (fun () ->
            MW.change_protocol mw ~node protocol);
        incr k
      done)
    swap_every;
  MW.run_for mw (until +. 1_000.0);
  let collector = MW.collector mw in
  let abcast_modules stack =
    List.length
      (List.filter
         (fun m ->
           List.exists
             (Dpu_kernel.Service.equal Dpu_kernel.Service.abcast)
             (Dpu_kernel.Stack.module_provides m))
         (Dpu_kernel.Stack.modules stack))
  in
  ( Obj.reachable_words (Obj.repr mw) - Obj.reachable_words (Obj.repr collector),
    Dpu_core.Collector.send_count collector,
    Array.fold_left
      (fun acc stack -> max acc (abcast_modules stack))
      0
      (Dpu_kernel.System.stacks (MW.system mw)) )

let words_per_extra_msg ?swap_every ?plan ~batching () =
  let w5, s5, _ = history_run ?swap_every ?plan ~batching 5_000.0 in
  let w20, s20, modules = history_run ?swap_every ?plan ~batching 20_000.0 in
  (float_of_int (w20 - w5) /. float_of_int (s20 - s5), modules)

let test_state_bounded_by_in_flight_work ~batching () =
  let per_msg, _ = words_per_extra_msg ~batching () in
  if per_msg >= 16.0 then
    fail (Printf.sprintf "%.0f words of protocol state per extra message" per_msg)

(* The same gate with a swap every 500 ms (9 swaps in the short run,
   39 in the long one), CT->CT and then alternating token and
   sequencer. A superseded generation leaves each stack once every
   member has moved on, whatever its protocol, so modules and state do
   not pile up with the swaps. CT->CT read 19.0 words per message and
   48 modules per stack at 20 s keeping every generation, and 4.4
   words with 9 modules, one of them an ABcast, with retirement. *)
let test_state_bounded_with_swaps () =
  List.iter
    (fun (name, plan) ->
      let per_msg, modules =
        words_per_extra_msg ~swap_every:500.0 ~plan ~batching:None ()
      in
      if modules > 3 then fail (Printf.sprintf "%s: %d ABcast modules in one stack" name modules);
      if per_msg >= 16.0 then
        fail (Printf.sprintf "%s: %.1f words of protocol state per extra message" name per_msg))
    [
      ("ct", fun _ -> Dpu_core.Variants.ct);
      ( "token/seq",
        fun k -> if k mod 2 = 1 then Dpu_core.Variants.token else Dpu_core.Variants.sequencer );
    ]

(* ------------------------------------------------------------------ *)
(* Ascii                                                              *)
(* ------------------------------------------------------------------ *)

let test_ascii_table () =
  let s = W.Ascii.table ~header:[ "a"; "bbbb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ] in
  check Alcotest.bool "contains rule" true
    (String.split_on_char '\n' s |> List.exists (fun l -> String.length l > 0 && l.[0] = '-'));
  check Alcotest.bool "aligned" true
    (String.split_on_char '\n' s |> List.for_all (fun l -> not (String.contains l '\t')))

let test_ascii_chart_empty () =
  check Alcotest.string "placeholder" "(no data)\n" (W.Ascii.chart [])

let test_ascii_chart_renders () =
  let s =
    W.Ascii.chart ~title:"t" ~x_unit:"x" ~y_unit:"y"
      [ ("a", [ (0.0, 1.0); (1.0, 2.0) ]); ("b", [ (0.5, 1.5) ]) ]
  in
  check Alcotest.bool "has title" true (String.length s > 0 && s.[0] = 't');
  check Alcotest.bool "has glyph legend" true
    (String.split_on_char '\n' s |> List.exists (fun l -> l = "  + a"))

let test_ascii_vbars () =
  let s = W.Ascii.vbars [ ("one", 1.0); ("two", 2.0) ] in
  let lines = String.split_on_char '\n' s in
  check Alcotest.int "two bars + trailing" 3 (List.length lines)

(* ------------------------------------------------------------------ *)
(* Experiment harness                                                 *)
(* ------------------------------------------------------------------ *)

let test_experiment_runs_and_delivers () =
  let r = run_single small in
  check Alcotest.bool "sent some" true (r.W.Experiment.sent > 30);
  check Alcotest.int "all delivered everywhere" r.W.Experiment.sent
    r.W.Experiment.delivered_everywhere;
  check Alcotest.bool "switch completed" true (r.W.Experiment.switch_window <> None);
  check Alcotest.bool "normal stats populated" true (Stats.count r.W.Experiment.normal > 0)

let test_experiment_no_switch () =
  let r = run_single { small with switch_to = None } in
  check Alcotest.bool "no window" true (r.W.Experiment.switch_window = None);
  check (Alcotest.float 0.0) "no duration" 0.0 r.W.Experiment.switch_duration_ms;
  check Alcotest.int "during empty" 0 (Stats.count r.W.Experiment.during)

let test_experiment_no_layer () =
  let r =
    run_single { small with approach = W.Experiment.No_layer; switch_to = None }
  in
  check Alcotest.int "all delivered" r.W.Experiment.sent r.W.Experiment.delivered_everywhere

let test_experiment_no_layer_ignores_switch () =
  (* A switch request without a layer is meaningless; the harness must
     simply not schedule one. *)
  let r = run_single { small with approach = W.Experiment.No_layer } in
  check Alcotest.bool "no window" true (r.W.Experiment.switch_window = None)

let test_experiment_maestro_blocks () =
  let r = run_single { small with approach = W.Experiment.Maestro } in
  check Alcotest.bool "blocked time recorded" true (r.W.Experiment.blocked_ms > 50.0);
  check Alcotest.int "still all delivered" r.W.Experiment.sent
    r.W.Experiment.delivered_everywhere

let test_experiment_graceful () =
  let r = run_single { small with approach = W.Experiment.Graceful } in
  check (Alcotest.float 0.0) "graceful does not block" 0.0 r.W.Experiment.blocked_ms;
  check Alcotest.int "all delivered" r.W.Experiment.sent r.W.Experiment.delivered_everywhere

let test_experiment_check_clean () =
  let r = W.Experiment.run { small with trace_enabled = true } in
  let reports = W.Experiment.check r in
  check Alcotest.bool "several properties" true (List.length reports >= 5);
  List.iter
    (fun rep ->
      check Alcotest.bool rep.Dpu_props.Report.property true rep.Dpu_props.Report.ok)
    reports

let test_experiment_crash_injection () =
  let r =
    run_single
      {
        small with
        n = 5;
        switch_at_ms = 1_200.0;
        faults = [ Dpu_faults.Schedule.crash ~at:500.0 2 ];
      }
  in
  check (Alcotest.list Alcotest.int) "correct nodes" [ 0; 1; 3; 4 ] r.W.Experiment.correct;
  let reports = Dpu_props.Abcast_props.check_all r.W.Experiment.collector
      ~correct:r.W.Experiment.correct in
  List.iter
    (fun rep ->
      check Alcotest.bool rep.Dpu_props.Report.property true rep.Dpu_props.Report.ok)
    reports

let test_experiment_determinism () =
  let r1 = run_single small in
  let r2 = run_single small in
  check Alcotest.int "same sends" r1.W.Experiment.sent r2.W.Experiment.sent;
  check (Alcotest.float 1e-9) "same mean latency"
    (Stats.mean r1.W.Experiment.normal)
    (Stats.mean r2.W.Experiment.normal)

let test_experiment_seed_changes_run () =
  let r1 = run_single small in
  let r2 = run_single { small with seed = 99 } in
  check Alcotest.bool "different latencies" true
    (Stats.mean r1.W.Experiment.normal <> Stats.mean r2.W.Experiment.normal)

(* Each bad parameter is an [Error] from [validate] and an
   [Invalid_argument] from [run], before any simulation step. *)
(* The kernel trace records structure, not per-message hops: doubling a
   run's duration under the same single switch records the same
   entries. *)
let test_trace_independent_of_duration () =
  let module Trace = Dpu_kernel.Trace in
  let kinds duration_ms =
    let r = run_single { small with duration_ms; trace_enabled = true } in
    List.map (fun e -> e.Trace.kind) (Trace.entries r.W.Experiment.trace)
  in
  let short = kinds 3_000.0 and long = kinds 6_000.0 in
  check Alcotest.int "same number of entries" (List.length short) (List.length long);
  check Alcotest.bool "same sequence of kinds" true (short = long)

let test_experiment_validate () =
  let module E = W.Experiment in
  check Alcotest.bool "default is valid" true (E.validate E.default = Ok ());
  check Alcotest.bool "a closed loop needs no load" true
    (E.validate { small with load = 0.0; closed_loop = Some 2 } = Ok ());
  List.iter
    (fun (what, params) ->
      (match E.validate params with
      | Error _ -> ()
      | Ok () -> fail (what ^ ": accepted"));
      match E.run params with
      | exception Invalid_argument _ -> ()
      | _ -> fail (what ^ ": ran"))
    [
      ("n = 0", { small with n = 0 });
      ("shards = 0", { small with shards = 0 });
      ("shards > n", { small with n = 15; shards = 20 });
      ("negative load", { small with load = -5.0 });
      ("NaN load", { small with load = Float.nan });
      ("infinite load", { small with load = Float.infinity });
      ("zero open-loop load", { small with load = 0.0 });
      ( "batch below one",
        { small with batching = Some { Dpu_protocols.Batcher.default with max_batch = 0 } } );
      ( "negative batch delay",
        { small with batching = Some { Dpu_protocols.Batcher.default with max_delay_ms = -1.0 } }
      );
      ("negative duration", { small with duration_ms = -1.0 });
      ("negative warmup", { small with warmup_ms = -1.0 });
      ("negative switch time", { small with switch_at_ms = -1.0 });
      ("negative stagger", { small with n = 6; shards = 2; stagger_ms = -1.0 });
      ("negative drain", { small with drain_ms = -1.0 });
      ("infinite duration", { small with duration_ms = Float.infinity });
      ("infinite warmup", { small with warmup_ms = Float.infinity });
      ("infinite switch time", { small with switch_at_ms = Float.infinity });
      ("infinite stagger", { small with stagger_ms = Float.infinity });
      ("infinite drain", { small with drain_ms = Float.infinity });
      ( "fault on a missing node",
        { small with faults = [ Dpu_faults.Schedule.crash ~at:100.0 9 ] } );
      ( "faults on several shards",
        { small with n = 6; shards = 2; faults = [ Dpu_faults.Schedule.crash ~at:100.0 1 ] } );
      ("loss above one", { small with loss = 1.5 });
      ("negative loss", { small with loss = -0.5 });
      ("NaN loss", { small with loss = Float.nan });
      ("negative message size", { small with msg_size = -5 });
      ("negative hop cost", { small with hop_cost = -0.1 });
      ("infinite hop cost", { small with hop_cost = Float.infinity });
      ( "negative consensus swap time",
        {
          small with
          consensus_layer = Some Dpu_protocols.Consensus_ct.protocol_name;
          switch_consensus = Some (-5.0, Dpu_protocols.Consensus_paxos.protocol_name);
        } );
      ( "infinite consensus swap time",
        {
          small with
          consensus_layer = Some Dpu_protocols.Consensus_ct.protocol_name;
          switch_consensus = Some (Float.infinity, Dpu_protocols.Consensus_paxos.protocol_name);
        } );
      ( "switch on a missing node",
        { small with switches = [ (100.0, 9, Dpu_core.Variants.sequencer) ] } );
      ( "switch at a negative time",
        { small with switches = [ (-1.0, 0, Dpu_core.Variants.sequencer) ] } );
      ( "switch at an infinite time",
        { small with switches = [ (Float.infinity, 0, Dpu_core.Variants.sequencer) ] } );
      ( "switches on several shards",
        { small with n = 6; shards = 2; switches = [ (100.0, 0, Dpu_core.Variants.sequencer) ] }
      );
    ];
  List.iter
    (fun rate_per_s ->
      match W.Load_gen.start (MW.create ~n:3 ()) ~rate_per_s ~until:100.0 () with
      | exception Invalid_argument _ -> ()
      | () -> fail (Printf.sprintf "Load_gen.start accepted rate %g" rate_per_s))
    [ -5.0; Float.nan; Float.infinity ]

(* ------------------------------------------------------------------ *)
(* Throughput mode: batching under replacement, and the speedup       *)
(* ------------------------------------------------------------------ *)

let batched_cfg = { Dpu_protocols.Batcher.max_batch = 64; max_delay_ms = 200.0 }

(* A 200 ms delay trigger at 100 msg/s means the switch at 1 s lands
   mid-accumulation with near-certainty: the pending batch must be
   flushed at the epoch boundary (never split, never stranded) and any
   copy that raced into the old generation is dropped atomically and
   reissued by Algorithm 1 — so exactly-once delivery and total order
   must survive. *)
let run_switch_mid_batch ~initial ~target =
  let result =
    W.Experiment.run
      {
        small with
        load = 100.0;
        initial;
        switch_to = Some target;
        batching = Some batched_cfg;
      }
  in
  let r = result.W.Experiment.per_shard.(0) in
  check Alcotest.bool "switch completed" true (r.W.Experiment.switch_window <> None);
  check Alcotest.int "no message lost or stranded in a batch"
    r.W.Experiment.sent r.W.Experiment.delivered_everywhere;
  List.iter
    (fun rep ->
      check Alcotest.bool rep.Dpu_props.Report.property true rep.Dpu_props.Report.ok)
    (W.Experiment.check result)

let test_switch_mid_batch_seq_to_ct () =
  run_switch_mid_batch ~initial:Dpu_core.Variants.sequencer ~target:Dpu_core.Variants.ct

let test_switch_mid_batch_ct_to_seq () =
  run_switch_mid_batch ~initial:Dpu_core.Variants.ct ~target:Dpu_core.Variants.sequencer

(* The saturation bench's run shape: n=3, 512-byte payloads, 3 s of
   constant load after a 500 ms warmup, no swap. Returns the delivered
   rate at node 0 and the latency statistics inside [warmup, duration). *)
let saturation_window ?closed_loop ?batching offered =
  let p =
    {
      W.Experiment.default with
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
      closed_loop;
    }
  in
  let r = run_single p in
  let lo = p.warmup_ms and hi = p.duration_ms in
  let delivered =
    List.length
      (List.filter
         (fun (_, t) -> t >= lo && t < hi)
         (Dpu_core.Collector.delivers_of r.W.Experiment.collector ~node:0))
  in
  ( float_of_int delivered /. ((hi -. lo) /. 1000.0),
    Dpu_engine.Series.stats_between r.W.Experiment.latency ~lo ~hi )

let check_window name (rate, lat) ~rate_per_s ~p50 ~p99 ~samples =
  check (Alcotest.float 1e-9) (name ^ " delivered msg/s") rate_per_s rate;
  check (Alcotest.float 5e-7) (name ^ " p50 ms") p50 (Stats.percentile lat 50.0);
  check (Alcotest.float 5e-7) (name ^ " p99 ms") p99 (Stats.percentile lat 99.0);
  check Alcotest.int (name ^ " samples") samples (Stats.count lat)

let test_throughput_open_loop_tracks_offered () =
  (* Well under the knee, delivered tracks offered exactly. *)
  check_window "open loop" (saturation_window 100.0) ~rate_per_s:100.0 ~p50:2.568698
    ~p99:2.812592 ~samples:250

let test_throughput_batching_at_least_doubles () =
  (* The headline claim of throughput mode: with the consensus path
     ordering one batch per round instead of one message, the closed
     loop sustains at least twice the unbatched rate. *)
  let ((off, _) as unbatched) = saturation_window ~closed_loop:16 0.0 in
  check_window "closed loop" unbatched ~rate_per_s:587.6 ~p50:27.154826 ~p99:28.183028
    ~samples:1469;
  let on, _ =
    saturation_window ~closed_loop:16
      ~batching:{ Dpu_protocols.Batcher.max_batch = 16; max_delay_ms = 5.0 }
      0.0
  in
  check Alcotest.bool
    (Printf.sprintf "batched %.0f msg/s >= 2x unbatched %.0f msg/s" on off)
    true
    (on >= 2.0 *. off)

let test_switch_window_agrees_with_trace () =
  (* The collector's replacement window must agree with the kernel's
     own record of the switches: every node logs a "repl.switch" trace
     event when it installs the new generation, and the collector
     learns of it via the Protocol_changed indication a fixed number of
     dispatch hops later. *)
  let module Trace = Dpu_kernel.Trace in
  let r = run_single { small with trace_enabled = true } in
  let kernel_switches =
    List.filter
      (fun e ->
        match e.Trace.kind with
        | Trace.App ("repl.switch", _) -> true
        | _ -> false)
      (Trace.entries r.W.Experiment.trace)
  in
  check Alcotest.int "one kernel switch per node" small.W.Experiment.n
    (List.length kernel_switches);
  let collector_switches = Dpu_core.Collector.switches r.W.Experiment.collector in
  check Alcotest.int "collector saw the same switches"
    (List.length kernel_switches)
    (List.length collector_switches);
  let slack = 5.0 in
  (* a few dispatch hops at hop_cost 0.5 ms *)
  List.iter
    (fun (node, generation, t_collector) ->
      check Alcotest.int "only generation 1" 1 generation;
      match List.find_opt (fun e -> e.Trace.node = node) kernel_switches with
      | None -> fail (Printf.sprintf "collector switch on node %d has no trace event" node)
      | Some e ->
        check Alcotest.bool
          (Printf.sprintf "node %d: collector trails the kernel by <= %.1f ms" node slack)
          true
          (t_collector >= e.Trace.time && t_collector -. e.Trace.time <= slack))
    collector_switches;
  match Dpu_core.Collector.switch_window r.W.Experiment.collector ~generation:1 with
  | None -> fail "no switch window"
  | Some (lo, hi) ->
    let times = List.map (fun e -> e.Trace.time) kernel_switches in
    let tmin = List.fold_left Float.min infinity times in
    let tmax = List.fold_left Float.max neg_infinity times in
    check Alcotest.bool "window opens with the first switch" true
      (lo >= tmin && lo -. tmin <= slack);
    check Alcotest.bool "window closes with the last switch" true
      (hi >= tmax && hi -. tmax <= slack)

let test_layer_overhead_positive () =
  (* The replacement layer adds a dispatch hop: with-layer latency must
     exceed no-layer latency, by a small factor (paper: ~5%). *)
  let base = { small with switch_to = None; duration_ms = 3_000.0 } in
  let without =
    run_single { base with approach = W.Experiment.No_layer }
  in
  let with_layer = run_single base in
  let overhead =
    (Stats.mean with_layer.W.Experiment.normal -. Stats.mean without.W.Experiment.normal)
    /. Stats.mean without.W.Experiment.normal
  in
  check Alcotest.bool
    (Printf.sprintf "overhead %.3f in (0, 0.25)" overhead)
    true
    (overhead > 0.0 && overhead < 0.25)

let test_figures_render () =
  (* Smoke-render each figure artifact on small runs. *)
  let r = W.Experiment.run small in
  let s5 = W.Figures.render_figure5 r in
  check Alcotest.bool "fig5 text" true (String.length s5 > 100);
  let points, _ = W.Figures.figure6 ~ns:[ 3 ] ~loads:[ 20.0 ] ~seed:1 () in
  check Alcotest.int "fig6 one point" 1 (List.length points);
  let s6 = W.Figures.render_figure6 points in
  check Alcotest.bool "fig6 text" true (String.length s6 > 100);
  let h =
    {
      W.Figures.layer_overhead_pct = 5.0;
      spike_pct = 50.0;
      spike_duration_ms = 40.0;
      app_blocked_ms = 0.0;
    }
  in
  check Alcotest.bool "headline text" true
    (String.length (W.Figures.render_headline h) > 50)

let test_comparison_rows () =
  let rows, _ = W.Figures.compare_approaches ~n:3 ~load:20.0 ~seed:1 () in
  check Alcotest.int "three approaches" 3 (List.length rows);
  let find a = List.find (fun r -> r.W.Figures.approach = a) rows in
  let repl = find W.Experiment.Repl in
  let maestro = find W.Experiment.Maestro in
  check (Alcotest.float 0.0) "repl no blocking" 0.0 repl.W.Figures.blocked;
  check Alcotest.bool "maestro blocks" true (maestro.W.Figures.blocked > 50.0);
  check Alcotest.bool "everyone correct" true
    (List.for_all (fun r -> r.W.Figures.all_delivered) rows);
  check Alcotest.bool "rendering" true
    (String.length (W.Figures.render_comparison rows) > 100)

(* ------------------------------------------------------------------ *)
(* Sharded runner                                                      *)
(* ------------------------------------------------------------------ *)

let shard_small =
  {
    W.Experiment.default with
    n = 6;
    shards = 2;
    msg_size = 512;
    hop_cost = 0.05;
    pattern = W.Load_gen.Constant;
    load = 100.0;
    warmup_ms = 100.0;
    duration_ms = 600.0;
    drain_ms = 3_000.0;
    switch_to = None;
  }

let post_warmup (r : W.Experiment.result) (s : W.Experiment.shard) =
  Dpu_engine.Series.stats_between s.latency ~lo:r.params.warmup_ms ~hi:infinity

let check_battery r =
  List.iter
    (fun rep ->
      check Alcotest.bool rep.Dpu_props.Report.property true rep.Dpu_props.Report.ok)
    (W.Experiment.check r)

let test_shard_runner_reports () =
  let r = W.Experiment.run shard_small in
  check Alcotest.int "one result per shard" 2 (Array.length r.W.Experiment.per_shard);
  Array.iter
    (fun (s : W.Experiment.shard) ->
      let measured = post_warmup r s in
      check Alcotest.bool "delivered something" true (s.delivered_everywhere > 0);
      check Alcotest.int "nothing undelivered" s.sent s.delivered_everywhere;
      check (Alcotest.float 0.0) "nothing blocked" 0.0 s.blocked_ms;
      check Alcotest.bool "no switch" true (s.switch_window = None);
      check Alcotest.bool "latency measured" true (Stats.count measured > 0);
      check Alcotest.bool "quantiles ordered" true
        (Stats.percentile measured 50.0 <= Stats.percentile measured 99.0
        && Stats.percentile measured 99.0 <= Stats.percentile measured 99.9))
    r.W.Experiment.per_shard;
  check_battery r;
  check Alcotest.int "no rolling, no switches" 0 r.W.Experiment.max_concurrent_switches;
  check Alcotest.bool "all ok" true (W.Experiment.all_ok r)

let test_shard_rolling_overlaps () =
  let params =
    {
      shard_small with
      n = 12;
      shards = 4;
      duration_ms = 800.0;
      switch_to = Some Dpu_core.Variants.sequencer;
      switch_at_ms = 150.0;
      stagger_ms = 0.25;
    }
  in
  let r = W.Experiment.run params in
  Array.iteri
    (fun g (s : W.Experiment.shard) ->
      let generations =
        List.map
          (fun (_, generation, _) -> generation)
          (Dpu_core.Collector.switches s.collector)
      in
      check (Alcotest.list Alcotest.int) "every shard switched, once per node"
        (List.init s.nodes (fun _ -> 1))
        generations;
      match s.switch_window with
      | None -> fail "no window recorded"
      | Some (lo, _) ->
        check (Alcotest.float 1e-9) "window opens at the staggered trigger"
          (150.0 +. (0.25 *. float_of_int g))
          lo)
    r.W.Experiment.per_shard;
  check_battery r;
  check Alcotest.bool "switch windows overlapped" true
    (r.W.Experiment.max_concurrent_switches > 1);
  check Alcotest.bool "all ok" true (W.Experiment.all_ok r)

let test_shard_closed_loop () =
  let params = { shard_small with duration_ms = 400.0; closed_loop = Some 2 } in
  let r = W.Experiment.run params in
  Array.iter
    (fun (s : W.Experiment.shard) ->
      check Alcotest.bool "closed loop kept sending" true (s.delivered_everywhere > 10))
    r.W.Experiment.per_shard;
  check_battery r;
  check Alcotest.bool "all ok" true (W.Experiment.all_ok r)

let test_shard_export_shapes () =
  let r = W.Experiment.run shard_small in
  let module J = Dpu_obs.Json in
  let j = W.Experiment.to_json r in
  (match J.member j "shards" with
  | Some (J.List l) ->
    check Alcotest.int "json shard entries" 2 (List.length l);
    List.iter
      (fun entry ->
        List.iter
          (fun key ->
            check Alcotest.bool (key ^ " present") true (J.member entry key <> None))
          [ "shard"; "nodes"; "sent"; "delivered"; "p50_ms"; "p99_ms"; "p999_ms";
            "mean_ms"; "generation"; "blocked_ms"; "undelivered"; "props_ok" ])
      l
  | _ -> fail "missing shards list");
  (match J.member j "all_ok" with
  | Some (J.Bool b) -> check Alcotest.bool "json all_ok" true b
  | _ -> fail "missing all_ok");
  let table = W.Experiment.render_shards r in
  check Alcotest.bool "table ends with the verdict" true
    (String.ends_with ~suffix:"all shards OK\n" table)

let test_shard_determinism () =
  let quantiles r =
    Array.map
      (fun (s : W.Experiment.shard) ->
        let m = post_warmup r s in
        (s.sent, s.delivered_everywhere, Stats.percentile m 50.0, Stats.percentile m 99.0))
      r.W.Experiment.per_shard
  in
  let a = W.Experiment.run shard_small in
  let b = W.Experiment.run shard_small in
  check Alcotest.bool "identical runs" true (quantiles a = quantiles b)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "workload"
    [
      ( "load_gen",
        [
          tc "constant rate" test_constant_rate;
          tc "poisson rate" test_poisson_rate;
          tc "burst rate" test_burst_rate;
          tc "send_n" test_send_n;
          tc "send_n warmup boundary" test_send_n_warmup_boundary;
          tc "spread across nodes" test_load_spread_across_nodes;
        ] );
      ( "state",
        [
          tc "bounded by in-flight work, unbatched"
            (test_state_bounded_by_in_flight_work ~batching:None);
          tc "bounded by in-flight work, batched"
            (test_state_bounded_by_in_flight_work
               ~batching:(Some Dpu_protocols.Batcher.default));
          tc "bounded with a swap every 500 ms" test_state_bounded_with_swaps;
        ] );
      ( "ascii",
        [
          tc "table" test_ascii_table;
          tc "chart empty" test_ascii_chart_empty;
          tc "chart renders" test_ascii_chart_renders;
          tc "vbars" test_ascii_vbars;
        ] );
      ( "experiment",
        [
          tc "runs and delivers" test_experiment_runs_and_delivers;
          tc "no switch" test_experiment_no_switch;
          tc "no layer" test_experiment_no_layer;
          tc "no layer ignores switch" test_experiment_no_layer_ignores_switch;
          tc "maestro blocks" test_experiment_maestro_blocks;
          tc "graceful" test_experiment_graceful;
          tc "check clean" test_experiment_check_clean;
          tc "crash injection" test_experiment_crash_injection;
          tc "determinism" test_experiment_determinism;
          tc "seed sensitivity" test_experiment_seed_changes_run;
          tc "layer overhead positive" test_layer_overhead_positive;
          tc "switch window agrees with trace" test_switch_window_agrees_with_trace;
          tc "trace independent of duration" test_trace_independent_of_duration;
          tc "validate rejects bad parameters" test_experiment_validate;
        ] );
      ( "throughput",
        [
          tc "replacement mid-batch, seq->ct" test_switch_mid_batch_seq_to_ct;
          tc "replacement mid-batch, ct->seq" test_switch_mid_batch_ct_to_seq;
          tc "open loop tracks offered below the knee"
            test_throughput_open_loop_tracks_offered;
          tc "batching at least doubles the sustained rate"
            test_throughput_batching_at_least_doubles;
        ] );
      ( "figures",
        [ tc "render" test_figures_render; tc "comparison" test_comparison_rows ] );
      ( "shard",
        [
          tc "runner reports per-shard results" test_shard_runner_reports;
          tc "rolling replacement overlaps" test_shard_rolling_overlaps;
          tc "closed loop" test_shard_closed_loop;
          tc "export shapes" test_shard_export_shapes;
          tc "determinism" test_shard_determinism;
        ] );
    ]
