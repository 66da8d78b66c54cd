(* Tests for the observability stack (Dpu_obs + Spans): the JSON
   emitter/parser, the metrics registry and its no-op path, trace-event
   and CSV export, span reconstruction, and the cross-layer invariants
   tying the metric values to the collector's ground truth. *)

module Json = Dpu_obs.Json
module M = Dpu_obs.Metrics
module TE = Dpu_obs.Trace_event
module Csv = Dpu_obs.Csv
module RH = Dpu_obs.Report_html
module Spans = Dpu_core.Spans
module Collector = Dpu_core.Collector
module E = Dpu_workload.Experiment
module Series = Dpu_engine.Series

let check = Alcotest.check
let fail = Alcotest.fail

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* JSON                                                               *)
(* ------------------------------------------------------------------ *)

let test_json_print () =
  let v =
    Json.Obj
      [
        ("a", Json.Int 1);
        ("b", Json.List [ Json.Bool true; Json.Null ]);
        ("c", Json.Str "x");
      ]
  in
  check Alcotest.string "compact form" {|{"a":1,"b":[true,null],"c":"x"}|}
    (Json.to_string v)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("int", Json.Int (-42));
        ("float", Json.Float 1.5);
        ("str", Json.Str "quote \" backslash \\ newline \n tab \t");
        ("list", Json.List [ Json.Int 1; Json.Str "two"; Json.Null ]);
        ("nested", Json.Obj [ ("empty_list", Json.List []); ("empty_obj", Json.Obj []) ]);
        ("bool", Json.Bool false);
      ]
  in
  match Json.of_string (Json.to_string v) with
  | Ok v' -> check Alcotest.bool "roundtrip equal" true (v = v')
  | Error e -> fail ("parse failed: " ^ e)

let test_json_unicode_escape () =
  match Json.of_string {|"AAé"|} with
  | Ok (Json.Str s) -> check Alcotest.string "decoded" "AA\xc3\xa9" s
  | Ok _ -> fail "expected a string"
  | Error e -> fail e

let test_json_nonfinite () =
  check Alcotest.string "nan is null" "null" (Json.to_string (Json.Float nan));
  check Alcotest.string "inf is null" "null" (Json.to_string (Json.Float infinity))

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> fail (Printf.sprintf "accepted malformed %S" s)
      | Error _ -> ())
    [ "{"; "[1,"; {|{"a":}|}; "tru"; {|"unterminated|}; "1 2" ]

let test_json_accessors () =
  let v = Json.Obj [ ("x", Json.Int 3); ("s", Json.Str "hi"); ("f", Json.Float 2.5) ] in
  check (Alcotest.option Alcotest.int) "member int" (Some 3)
    (Option.bind (Json.member v "x") Json.to_int_opt);
  check (Alcotest.option Alcotest.string) "member str" (Some "hi")
    (Option.bind (Json.member v "s") Json.to_string_opt);
  check (Alcotest.option (Alcotest.float 0.0)) "member float" (Some 2.5)
    (Option.bind (Json.member v "f") Json.to_float_opt);
  check Alcotest.bool "missing member" true (Json.member v "nope" = None)

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                   *)
(* ------------------------------------------------------------------ *)

let test_metrics_counter () =
  let m = M.create () in
  let c = M.counter m "reqs_total" in
  M.incr c;
  M.add c 4;
  check Alcotest.int "value" 5 (M.counter_value c);
  (* Re-creating the same name+labels returns the same cell. *)
  let c' = M.counter m "reqs_total" in
  M.incr c';
  check Alcotest.int "shared cell" 6 (M.counter_value c);
  check (Alcotest.option (Alcotest.float 0.0)) "query" (Some 6.0)
    (M.value m "reqs_total")

let test_metrics_labels () =
  let m = M.create () in
  let a = M.counter m ~labels:[ ("node", "0"); ("proto", "ct") ] "x_total" in
  (* Label order must not matter for identity. *)
  let a' = M.counter m ~labels:[ ("proto", "ct"); ("node", "0") ] "x_total" in
  let b = M.counter m ~labels:[ ("node", "1"); ("proto", "ct") ] "x_total" in
  M.incr a;
  M.incr a';
  M.add b 10;
  check Alcotest.int "label order insensitive" 2 (M.counter_value a);
  check (Alcotest.float 0.0) "sum across label sets" 12.0 (M.sum m "x_total");
  check (Alcotest.option (Alcotest.float 0.0)) "exact label query" (Some 10.0)
    (M.value m ~labels:[ ("proto", "ct"); ("node", "1") ] "x_total")

let test_metrics_gauge_and_callbacks () =
  let m = M.create () in
  let g = M.gauge m "depth" in
  M.set g 7.5;
  check (Alcotest.float 0.0) "gauge" 7.5 (M.gauge_value g);
  let backing = ref 3 in
  M.register_int m "backing_total" (fun () -> !backing);
  backing := 9;
  check (Alcotest.option (Alcotest.float 0.0)) "callback sampled at query" (Some 9.0)
    (M.value m "backing_total")

let test_metrics_histogram () =
  let m = M.create () in
  let h = M.histogram m ~bounds:[| 1.0; 10.0 |] "lat_ms" in
  List.iter (M.observe h) [ 0.5; 5.0; 50.0 ];
  check Alcotest.int "count" 3 (M.histogram_count h);
  check (Alcotest.float 1e-9) "sum" 55.5 (M.histogram_sum h);
  (* Snapshot carries the bucket counts, including the +inf bucket. *)
  let j = M.to_json m in
  let metrics = Option.get (Option.bind (Json.member j "metrics") Json.to_list_opt) in
  let hist = List.hd metrics in
  let buckets = Option.get (Option.bind (Json.member hist "buckets") Json.to_list_opt) in
  let counts =
    List.map (fun b -> Option.get (Option.bind (Json.member b "count") Json.to_int_opt)) buckets
  in
  check (Alcotest.list Alcotest.int) "bucket counts" [ 1; 1; 1 ] counts

let test_metrics_noop () =
  let c = M.counter M.noop "x_total" in
  M.incr c;
  M.add c 100;
  check Alcotest.int "noop counter dead" 0 (M.counter_value c);
  let h = M.histogram M.noop "h_ms" in
  M.observe h 1.0;
  check Alcotest.int "noop histogram dead" 0 (M.histogram_count h);
  M.register_int M.noop "cb_total" (fun () ->
      ignore (fail "sampled a noop callback" : unit);
      0);
  check Alcotest.bool "nothing registered" true (M.names M.noop = []);
  check Alcotest.bool "noop disabled" true (not (M.enabled M.noop));
  M.set_enabled M.noop true;
  check Alcotest.bool "noop cannot be enabled" true (not (M.enabled M.noop))

let test_metrics_disable_enable () =
  let m = M.create ~enabled:false () in
  let c = M.counter m "x_total" in
  M.incr c;
  check Alcotest.int "disabled: no count" 0 (M.counter_value c);
  M.set_enabled m true;
  M.incr c;
  check Alcotest.int "enabled: counts" 1 (M.counter_value c)

let test_metrics_snapshot_parses () =
  let m = M.create () in
  M.incr (M.counter m ~labels:[ ("node", "0") ] "a_total");
  M.set (M.gauge m "b") 2.0;
  M.observe (M.histogram m "c_ms") 1.0;
  let s = Json.to_string (M.to_json m) in
  match Json.of_string s with
  | Ok j ->
    check (Alcotest.option Alcotest.string) "schema" (Some "dpu.metrics/1")
      (Option.bind (Json.member j "schema") Json.to_string_opt);
    let metrics = Option.get (Option.bind (Json.member j "metrics") Json.to_list_opt) in
    check Alcotest.int "three series" 3 (List.length metrics)
  | Error e -> fail ("snapshot does not parse: " ^ e)

(* ------------------------------------------------------------------ *)
(* Bucket-based quantile estimation                                   *)
(* ------------------------------------------------------------------ *)

let qopt = Alcotest.option (Alcotest.float 1e-9)

let test_quantile_empty () =
  check qopt "all-zero buckets" None
    (M.quantile_of_buckets ~bounds:[| 1.0; 2.0; 4.0 |] ~counts:[| 0; 0; 0; 0 |] 0.5);
  let m = M.create () in
  let h = M.histogram m "lat_ms" in
  check qopt "empty histogram" None (M.histogram_quantile h 0.5)

let test_quantile_interpolation () =
  let bounds = [| 1.0; 2.0; 4.0 |] in
  (* All ten observations in the (1, 2] bucket: the median sits halfway
     up that bucket's linear interpolation. *)
  check qopt "median interpolates" (Some 1.5)
    (M.quantile_of_buckets ~bounds ~counts:[| 0; 10; 0; 0 |] 0.5);
  check qopt "p90 interpolates" (Some 1.9)
    (M.quantile_of_buckets ~bounds ~counts:[| 0; 10; 0; 0 |] 0.9)

let test_quantile_inf_bucket_capped () =
  let bounds = [| 1.0; 2.0; 4.0 |] in
  (* Mass in the open +inf bucket: the observed max caps the estimate;
     without it the last finite bound is the best answer. *)
  check qopt "+inf capped by hi" (Some 7.5)
    (M.quantile_of_buckets ~bounds ~counts:[| 0; 0; 0; 5 |] ~hi:7.5 0.99);
  check qopt "+inf falls back to last bound" (Some 4.0)
    (M.quantile_of_buckets ~bounds ~counts:[| 0; 0; 0; 5 |] 0.99)

let test_quantile_clamped_to_extremes () =
  (* The observed min tightens the first bucket's lower edge. *)
  check qopt "q=0 reports the observed min" (Some 2.0)
    (M.quantile_of_buckets ~bounds:[| 10.0 |] ~counts:[| 4; 0 |] ~lo:2.0 0.0);
  (* And the observed max bounds any interpolated value from above. *)
  check qopt "interpolation never exceeds hi" (Some 6.0)
    (M.quantile_of_buckets ~bounds:[| 10.0 |] ~counts:[| 4; 0 |] ~lo:2.0 ~hi:6.0 1.0)

let test_quantile_invalid_arguments () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> fail "expected Invalid_argument"
  in
  raises (fun () -> M.quantile_of_buckets ~bounds:[| 1.0 |] ~counts:[| 1; 0 |] 1.5);
  raises (fun () -> M.quantile_of_buckets ~bounds:[| 1.0 |] ~counts:[| 1; 0 |] (-0.1));
  (* counts must carry the trailing +inf bucket. *)
  raises (fun () -> M.quantile_of_buckets ~bounds:[| 1.0 |] ~counts:[| 1 |] 0.5)

let test_quantile_of_instrument () =
  let m = M.create () in
  let h = M.histogram m ~bounds:[| 1.0; 10.0 |] "lat_ms" in
  List.iter (M.observe h) [ 0.5; 5.0; 50.0 ];
  check qopt "p100 is the observed max" (Some 50.0) (M.histogram_quantile h 1.0);
  check qopt "median interpolated in (1, 10]" (Some 5.5) (M.histogram_quantile h 0.5);
  (* pp_summary surfaces the quantiles for humans. *)
  let s = Format.asprintf "%a" M.pp_summary m in
  check Alcotest.bool "summary lists p50/p99/p999" true
    (contains s "p50=" && contains s "p99=" && contains s "p999=")

(* ------------------------------------------------------------------ *)
(* JSONL log: the trace's milestone sink                              *)
(* ------------------------------------------------------------------ *)

module Trace = Dpu_kernel.Trace
module Schedule = Dpu_faults.Schedule

(* A hand-built trace and a crash/recover schedule: every App and
   Crash entry is a line, kernel hops are not, faults are merged in by
   time (ahead of an entry at the same time) and a second shard adds
   the [shard] field. *)
let test_spans_log_lines () =
  let tr = Trace.create () in
  Trace.record tr ~time:0.0 ~node:0 (Trace.App ("node", "start"));
  Trace.record tr ~time:10.0 ~node:1 (Trace.Bind ("abcast", "abcast.ct"));
  Trace.record tr ~time:100.0 ~node:2 (Trace.App ("change-abcast", "abcast.seq"));
  Trace.record tr ~time:300.5 ~node:1 Trace.Crash;
  let faults = [ Schedule.recover ~at:400.0 2; Schedule.crash ~at:100.0 2 ] in
  check
    Alcotest.(list string)
    "one line per milestone and per fault, in time order"
    [
      {|{"t":0,"event":"node","node":0,"data":"start"}|};
      {|{"t":100,"event":"fault","data":"crash node 2"}|};
      {|{"t":100,"event":"change-abcast","node":2,"data":"abcast.seq"}|};
      {|{"t":300.5,"event":"crash","node":1}|};
      {|{"t":400,"event":"fault","data":"recover node 2"}|};
    ]
    (Spans.log_lines ~faults [ tr ]);
  let other = Trace.create () in
  Trace.record other ~time:50.0 ~node:0 (Trace.App ("change-abcast", "abcast.ct"));
  check
    Alcotest.(list string)
    "shards interleave by time and say which they are"
    [
      {|{"t":0,"event":"node","shard":0,"node":0,"data":"start"}|};
      {|{"t":50,"event":"change-abcast","shard":1,"node":0,"data":"abcast.ct"}|};
      {|{"t":100,"event":"change-abcast","shard":0,"node":2,"data":"abcast.seq"}|};
      {|{"t":300.5,"event":"crash","shard":0,"node":1}|};
    ]
    (Spans.log_lines [ tr; other ]);
  check Alcotest.(list string) "an untraced run logs nothing" []
    (Spans.log_lines [ Trace.create ~enabled:false () ])

(* ------------------------------------------------------------------ *)
(* Trace events and CSV                                               *)
(* ------------------------------------------------------------------ *)

let test_trace_event_json () =
  let events =
    [
      TE.process_name ~pid:0 "node 0";
      TE.complete ~name:"m" ~cat:"abcast" ~pid:0 ~tid:0 ~ts_ms:1.5 ~dur_ms:2.0 ();
      TE.instant ~name:"i" ~cat:"dpu" ~pid:0 ~tid:1 ~ts_ms:3.0 ();
    ]
  in
  let j = TE.to_json events in
  let evs = Option.get (Option.bind (Json.member j "traceEvents") Json.to_list_opt) in
  check Alcotest.int "three events" 3 (List.length evs);
  List.iter
    (fun e ->
      check Alcotest.bool "has ph" true (Json.member e "ph" <> None);
      check Alcotest.bool "has pid" true (Json.member e "pid" <> None))
    evs;
  (* Timestamps are microseconds in the trace-event format. *)
  let x = List.nth evs 1 in
  check (Alcotest.option (Alcotest.float 1e-9)) "ts in us" (Some 1500.0)
    (Option.bind (Json.member x "ts") Json.to_float_opt);
  check (Alcotest.option (Alcotest.float 1e-9)) "dur in us" (Some 2000.0)
    (Option.bind (Json.member x "dur") Json.to_float_opt)

let test_trace_event_negative_duration_clamped () =
  let e = TE.complete ~name:"m" ~cat:"c" ~pid:0 ~tid:0 ~ts_ms:1.0 ~dur_ms:(-5.0) () in
  match Json.member (TE.to_json [ e ]) "traceEvents" with
  | Some (Json.List [ ev ]) ->
    check (Alcotest.option (Alcotest.float 0.0)) "clamped" (Some 0.0)
      (Option.bind (Json.member ev "dur") Json.to_float_opt)
  | _ -> fail "expected one event"

(* The live path serialises each node's trace buffer into its report
   and the parent parses it back: of_json must invert event_json for
   every phase this module emits. *)
let test_trace_event_parse_roundtrip () =
  let events =
    [
      TE.process_name ~pid:0 "node 0";
      TE.thread_name ~pid:0 ~tid:1 "kernel / dpu";
      TE.complete ~name:"replacement gen=1" ~cat:"dpu" ~pid:2 ~tid:0 ~ts_ms:30.0
        ~dur_ms:7.0
        ~args:[ ("generation", Json.Int 1) ]
        ();
      TE.instant ~name:"heal partition" ~cat:"nemesis" ~pid:3 ~tid:0 ~ts_ms:12.5 ();
    ]
  in
  (match TE.events_of_json (TE.to_json events) with
  | Ok back -> check Alcotest.bool "envelope roundtrip" true (back = events)
  | Error e -> fail ("envelope did not parse back: " ^ e));
  (* Each event individually, through the single-event parser. *)
  List.iter
    (fun e ->
      match TE.of_json (TE.event_json e) with
      | Ok e' -> check Alcotest.bool "event roundtrip" true (e = e')
      | Error err -> fail ("event did not parse back: " ^ err))
    events;
  (* A bare list (no envelope) is accepted too. *)
  match TE.events_of_json (Json.List (List.map TE.event_json events)) with
  | Ok back -> check Alcotest.int "bare list" (List.length events) (List.length back)
  | Error e -> fail e

let test_trace_event_parse_rejects_garbage () =
  (match TE.of_json (Json.Obj [ ("ph", Json.Str "Z") ]) with
  | Ok _ -> fail "accepted an unknown phase"
  | Error _ -> ());
  match TE.events_of_json (Json.Str "nope") with
  | Ok _ -> fail "accepted a non-list"
  | Error _ -> ()

let test_csv_escaping () =
  check Alcotest.string "plain" "x" (Csv.escape "x");
  check Alcotest.string "comma" "\"a,b\"" (Csv.escape "a,b");
  check Alcotest.string "quote" "\"a\"\"b\"" (Csv.escape "a\"b");
  check Alcotest.string "newline" "\"a\nb\"" (Csv.escape "a\nb");
  let s = Csv.render ~header:[ "t"; "v" ] [ [ "1"; "a,b" ]; [ "2"; "c" ] ] in
  check Alcotest.string "render" "t,v\n1,\"a,b\"\n2,c\n" s

(* ------------------------------------------------------------------ *)
(* Span reconstruction                                                *)
(* ------------------------------------------------------------------ *)

let test_spans_from_collector () =
  let open Dpu_kernel in
  let c = Collector.create () in
  let id = { Msg.origin = 0; seq = 1 } in
  Collector.record_send c ~node:0 ~id ~time:10.0;
  Collector.record_deliver c ~node:0 ~id ~time:14.0;
  Collector.record_deliver c ~node:1 ~id ~time:16.0;
  let never = { Msg.origin = 1; seq = 5 } in
  Collector.record_send c ~node:1 ~id:never ~time:20.0;
  Collector.record_switch c ~node:0 ~generation:1 ~time:30.0;
  Collector.record_switch c ~node:1 ~generation:1 ~time:37.0;
  let events = Spans.of_run ~n:2 c in
  let j = TE.to_json events in
  let evs = Option.get (Option.bind (Json.member j "traceEvents") Json.to_list_opt) in
  let completes ph = List.filter (fun e -> Json.member e "ph" = Some (Json.Str ph)) evs in
  (* One span per (message, delivering node) plus the gen-1 window. *)
  check Alcotest.int "complete spans" 3 (List.length (completes "X"));
  (* The undelivered message renders as an instant, plus 2 installs. *)
  check Alcotest.int "instants" 3 (List.length (completes "i"));
  let window =
    List.find
      (fun e ->
        match Json.member e "name" with
        | Some (Json.Str s) -> s = "replacement gen=1"
        | _ -> false)
      evs
  in
  check (Alcotest.option (Alcotest.float 1e-6)) "window start" (Some 30_000.0)
    (Option.bind (Json.member window "ts") Json.to_float_opt);
  check (Alcotest.option (Alcotest.float 1e-6)) "window width" (Some 7_000.0)
    (Option.bind (Json.member window "dur") Json.to_float_opt);
  (* The window lives on the synthetic timeline process (pid = n). *)
  check (Alcotest.option Alcotest.int) "timeline pid" (Some 2)
    (Option.bind (Json.member window "pid") Json.to_int_opt)

(* The fault schedule's lane: boundary instants and one span per
   window on pid n + 1; windows the schedule never closes end at the
   horizon; no schedule, no lane. *)
let test_spans_nemesis_lane () =
  let module S = Dpu_faults.Schedule in
  let schedule =
    [
      S.crash ~at:100.0 1;
      S.partition ~at:200.0 [ [ 0 ]; [ 1; 2 ] ];
      S.recover ~at:300.0 1;
      S.heal ~at:400.0;
      S.crash ~at:500.0 2;
      S.partition ~at:600.0 [ [ 0; 1 ]; [ 2 ] ];
      S.loss_window ~p:0.1 ~from_:700.0 ~until:2_000.0;
    ]
  in
  let events = Spans.nemesis_events ~n:3 ~horizon_ms:1_000.0 schedule in
  (* The lane is one process past the timeline's (pid = n). *)
  let pid = 4 in
  let instants =
    List.filter_map
      (function TE.Instant { name; pid = p; ts_us; _ } when p = pid -> Some (name, ts_us) | _ -> None)
      events
  in
  check
    Alcotest.(list (pair string (float 1e-6)))
    "boundary instants"
    [
      ("crash node 1", 100_000.0);
      ("partition 0|1,2", 200_000.0);
      ("recover node 1", 300_000.0);
      ("heal", 400_000.0);
      ("crash node 2", 500_000.0);
      ("partition 0,1|2", 600_000.0);
    ]
    instants;
  let windows =
    List.filter_map
      (function
        | TE.Complete { name; pid = p; ts_us; dur_us; _ } when p = pid -> Some (name, (ts_us, dur_us))
        | _ -> None)
      events
    |> List.sort compare
  in
  check
    Alcotest.(list (pair string (pair (float 1e-6) (float 1e-6))))
    "windows, open ones clamped at the horizon"
    [
      ("crash node 1", (100_000.0, 200_000.0));
      ("crash node 2", (500_000.0, 500_000.0));
      ("loss p=0.1", (700_000.0, 300_000.0));
      ("partition 0,1|2", (600_000.0, 400_000.0));
      ("partition 0|1,2", (200_000.0, 200_000.0));
    ]
    windows;
  check Alcotest.bool "the lane is named" true
    (List.mem (TE.process_name ~pid "nemesis") events);
  check Alcotest.int "instants + windows + two names" (6 + 5 + 2) (List.length events);
  check Alcotest.int "an empty schedule adds no events" 0
    (List.length (Spans.nemesis_events ~n:3 ~horizon_ms:1_000.0 []));
  let c = Collector.create () in
  Collector.record_switch c ~node:0 ~generation:1 ~time:30.0;
  check Alcotest.bool "nor does it to of_run" true
    (Spans.of_run ~faults:([], 1_000.0) ~n:2 c = Spans.of_run ~n:2 c);
  check Alcotest.int "of_run appends the lane" (List.length events)
    (List.length (Spans.of_run ~faults:(schedule, 1_000.0) ~n:3 c)
    - List.length (Spans.of_run ~n:3 c))

(* ------------------------------------------------------------------ *)
(* Replacement windows: collector vs trace round-trip                 *)
(* ------------------------------------------------------------------ *)

let windows_testable =
  Alcotest.(list (pair int (pair (float 1e-6) (float 1e-6))))

let test_windows_roundtrip_through_trace () =
  let c = Collector.create () in
  Collector.record_switch c ~node:0 ~generation:1 ~time:30.0;
  Collector.record_switch c ~node:1 ~generation:1 ~time:37.0;
  Collector.record_switch c ~node:1 ~generation:2 ~time:80.0;
  Collector.record_switch c ~node:0 ~generation:2 ~time:95.5;
  let timeline = Spans.replacement_timeline c in
  check windows_testable "timeline from collector"
    [ (1, (30.0, 37.0)); (2, (80.0, 95.5)) ]
    timeline;
  (* The same windows must be recoverable from the exported trace —
     the property the live merge relies on. *)
  let events = Spans.of_run ~n:2 c in
  check windows_testable "windows survive the trace" timeline
    (RH.windows_of_events events);
  (* And survive a serialisation round-trip through JSON. *)
  match Dpu_obs.Trace_event.events_of_json (Spans.to_json events) with
  | Ok back -> check windows_testable "windows survive JSON" timeline
                 (RH.windows_of_events back)
  | Error e -> fail e

(* ------------------------------------------------------------------ *)
(* HTML report rendering                                              *)
(* ------------------------------------------------------------------ *)

let bench_entry wall x_ms =
  Json.Obj
    [
      ("schema", Json.Str "dpu.bench/1");
      ("wall_clock_s", Json.Float wall);
      ("results", Json.Obj [ ("sec", Json.Obj [ ("x_ms", Json.Float x_ms) ]) ]);
    ]

let test_report_html_render () =
  let events =
    [
      TE.process_name ~pid:0 "node 0";
      TE.complete ~name:"replacement gen=1" ~cat:"dpu" ~pid:2 ~tid:0 ~ts_ms:30.0
        ~dur_ms:7.0 ();
      TE.complete ~name:"partition [0] | [1 2]" ~cat:"nemesis" ~pid:3 ~tid:0
        ~ts_ms:10.0 ~dur_ms:25.0 ();
      TE.instant ~name:"injected_loss src=0 dst=1" ~cat:"fault" ~pid:0 ~tid:1
        ~ts_ms:15.0 ();
    ]
  in
  check windows_testable "windows parsed" [ (1, (30.0, 37.0)) ]
    (RH.windows_of_events events);
  let m = M.create () in
  let h = M.histogram m ~bounds:[| 1.0; 10.0 |] ~labels:[ ("node", "0") ] "live_select_wait_ms" in
  List.iter (M.observe h) [ 0.5; 5.0; 50.0 ];
  M.incr (M.counter m "net_sent_total");
  let history = [ ("0001-aaaa", bench_entry 1.0 12.0); ("0002-bbbb", bench_entry 1.2 11.0) ] in
  let html = RH.render ~metrics:(M.to_json m) ~trace:events ~history ~title:"t" () in
  List.iter
    (fun needle ->
      check Alcotest.bool (Printf.sprintf "html contains %S" needle) true
        (contains html needle))
    [
      "<!doctype html>";
      "</html>";
      "Replacement timeline";
      "Latency quantiles";
      "p999";
      "live_select_wait_ms";
      "Perf trends";
      "sec.x_ms";
      "bench.wall_clock_s";
      "<svg";
      "polyline";
    ];
  (* No scripts, no external fetches: the page must be self-contained. *)
  check Alcotest.bool "no <script>" false (contains html "<script");
  check Alcotest.bool "no http fetches" false (contains html "src=\"http")

let test_report_html_empty_inputs () =
  let html = RH.render ~title:"empty" () in
  check Alcotest.bool "placeholder" true (contains html "nothing to report")

(* ------------------------------------------------------------------ *)
(* End-to-end: metrics-enabled experiment                             *)
(* ------------------------------------------------------------------ *)

let obs_params =
  {
    E.default with
    n = 3;
    load = 30.0;
    duration_ms = 2_000.0;
    warmup_ms = 200.0;
    switch_at_ms = 1_000.0;
    msg_size = 512;
    metrics_enabled = true;
    trace_enabled = true;
  }

let test_cross_layer_invariants () =
  let r = E.run obs_params in
  let m = r.E.metrics in
  let s = r.E.per_shard.(0) in
  check Alcotest.bool "registry live" true (M.enabled m);
  (* The middleware's own send counter must agree with the collector.
     The run is a one-shard fabric, whose series carry group="0". *)
  check (Alcotest.option (Alcotest.float 0.0)) "sends agree"
    (Some (float_of_int (Collector.send_count s.E.collector)))
    (M.value m ~labels:[ ("group", "0") ] "app_sends_total");
  (* The epoch buffer can only replay what it stashed. *)
  check Alcotest.bool "replayed <= stashed" true
    (M.sum m "epoch_buffer_replayed_total" <= M.sum m "epoch_buffer_stashed_total");
  (* The net-layer series must mirror the datagram counters exactly. *)
  let system = Dpu_kernel.System.create ~seed:1 ~n:1 () in
  ignore system;
  (* Every layer contributes series. *)
  let names = M.names m in
  List.iter
    (fun n ->
      check Alcotest.bool (n ^ " present") true (List.mem n names))
    [
      "sim_events_scheduled_total";
      "sim_events_executed_total";
      "net_sent_total";
      "net_delivered_total";
      "kernel_calls_total";
      "kernel_binds_total";
      "kernel_blocked_call_ms";
      "repl_intercepted_calls_total";
      "repl_switches_total";
      "epoch_buffer_stashed_total";
      "epoch_buffer_replayed_total";
      "app_sends_total";
      "app_delivers_total";
    ];
  (* Every node switched exactly once: the per-node switch counters sum
     to n, and so do the collector's switch records. *)
  check (Alcotest.float 0.0) "repl switches = collector switches"
    (float_of_int (List.length (Collector.switches s.E.collector)))
    (M.sum m "repl_switches_total");
  (* Delivery counters: each node's app monitor counted its own
     deliveries. *)
  let delivered_via_collector =
    List.fold_left
      (fun acc node ->
        acc + List.length (Collector.delivers_of s.E.collector ~node))
      0 s.E.correct
  in
  check (Alcotest.float 0.0) "app delivers = collector delivers"
    (float_of_int delivered_via_collector)
    (M.sum m "app_delivers_total")

(* The groups of a fabric reuse node ids, so every layer labels its
   series with the stack's group as well as its node: two shards then
   never share a counter cell, nor drop each other's callback series. *)
let test_per_group_series () =
  let r = E.run { obs_params with n = 6; shards = 2; trace_enabled = false } in
  let m = r.E.metrics in
  let switches = ref 0 and delivers = ref 0 in
  Array.iteri
    (fun g (s : E.shard) ->
      switches := !switches + List.length (Collector.switches s.E.collector);
      List.iter
        (fun node -> delivers := !delivers + List.length (Collector.delivers_of s.E.collector ~node))
        s.E.correct;
      for node = 0 to s.E.nodes - 1 do
        let labels = [ ("group", string_of_int g); ("node", string_of_int node) ] in
        let value name = M.value m ~labels name in
        check (Alcotest.option (Alcotest.float 0.0))
          (Printf.sprintf "group %d node %d switched once" g node)
          (Some 1.0) (value "repl_switches_total");
        List.iter
          (fun name ->
            check Alcotest.bool
              (Printf.sprintf "%s{group=%d,node=%d}" name g node)
              true
              (Option.is_some (value name)))
          [
            "repl_intercepted_calls_total";
            "repl_undelivered";
            "epoch_buffer_stashed_total";
            "app_delivers_total";
          ]
      done)
    r.E.per_shard;
  (* Splitting the cells leaves the sums as they were. *)
  check (Alcotest.float 0.0) "switch sum" (float_of_int !switches) (M.sum m "repl_switches_total");
  check (Alcotest.float 0.0) "deliver sum" (float_of_int !delivers) (M.sum m "app_delivers_total")

(* The JSONL log of a simulated run, rendered from its trace. *)
let experiment_log params =
  let r = E.run params in
  Spans.log_lines ~faults:params.E.faults
    (Array.to_list (Array.map (fun (s : E.shard) -> s.E.trace) r.E.per_shard))

let parse_log lines =
  List.map
    (fun l ->
      match Json.of_string l with
      | Ok j -> j
      | Error e -> fail ("log line does not parse: " ^ e))
    lines

let field key f j = Option.bind (Json.member j key) f

(* The log is stamped on the virtual clock: identical params must
   produce byte-identical logs across runs. *)
let test_experiment_log_deterministic () =
  let a = String.concat "\n" (experiment_log obs_params) in
  let b = String.concat "\n" (experiment_log obs_params) in
  check Alcotest.string "byte-identical across runs" a b;
  let entries = parse_log (String.split_on_char '\n' a) in
  check Alcotest.bool "switch trigger logged" true
    (List.exists (fun e -> field "event" Json.to_string_opt e = Some "change-abcast") entries);
  (* Milestones carry virtual-clock stamps in run order. *)
  let times = List.filter_map (field "t" Json.to_float_opt) entries in
  check Alcotest.int "every line stamped" (List.length entries) (List.length times);
  check Alcotest.bool "timestamps non-decreasing" true (List.sort compare times = times)

(* Under a fault schedule the log carries one [fault] line per
   schedule event, stamped at the event's virtual time. *)
let test_experiment_log_records_faults () =
  let faults =
    [ Dpu_faults.Schedule.crash ~at:500.0 2; Dpu_faults.Schedule.recover ~at:800.0 2 ]
  in
  let entries = parse_log (experiment_log { obs_params with faults }) in
  let faults =
    List.filter (fun e -> field "event" Json.to_string_opt e = Some "fault") entries
  in
  check (Alcotest.list (Alcotest.float 1e-9)) "one line per event, at its time"
    [ 500.0; 800.0 ]
    (List.filter_map (field "t" Json.to_float_opt) faults);
  check (Alcotest.list (Alcotest.option Alcotest.string)) "the event described"
    [ Some "crash node 2"; Some "recover node 2" ]
    (List.map (field "data" Json.to_string_opt) faults)

let test_metrics_off_is_noop_registry () =
  let r = E.run { obs_params with metrics_enabled = false; trace_enabled = false } in
  check Alcotest.bool "noop registry" true (not (M.enabled r.E.metrics));
  check Alcotest.bool "no series" true (M.names r.E.metrics = [])

(* The acceptance criterion behind the no-op path: enabling metrics
   must not perturb the simulation. Virtual time is deterministic, so
   the latency series must be *identical*, not just statistically
   close. *)
let test_metrics_do_not_perturb_results () =
  let on = E.run obs_params in
  let off = E.run { obs_params with metrics_enabled = false } in
  let on = on.E.per_shard.(0) and off = off.E.per_shard.(0) in
  let pts s = List.map (fun (p : Series.point) -> (p.time, p.value)) (Series.points s.E.latency) in
  check Alcotest.int "same message count" (List.length (pts off)) (List.length (pts on));
  check Alcotest.bool "bit-identical latency series" true (pts on = pts off);
  check Alcotest.int "same sends" off.E.sent on.E.sent

(* ------------------------------------------------------------------ *)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "obs"
    [
      ( "json",
        [
          tc "print" test_json_print;
          tc "roundtrip" test_json_roundtrip;
          tc "unicode escape" test_json_unicode_escape;
          tc "nonfinite floats" test_json_nonfinite;
          tc "parse errors" test_json_parse_errors;
          tc "accessors" test_json_accessors;
        ] );
      ( "metrics",
        [
          tc "counter" test_metrics_counter;
          tc "labels" test_metrics_labels;
          tc "gauge and callbacks" test_metrics_gauge_and_callbacks;
          tc "histogram" test_metrics_histogram;
          tc "noop" test_metrics_noop;
          tc "disable/enable" test_metrics_disable_enable;
          tc "snapshot parses" test_metrics_snapshot_parses;
        ] );
      ( "quantiles",
        [
          tc "empty" test_quantile_empty;
          tc "interpolation" test_quantile_interpolation;
          tc "+inf bucket capped" test_quantile_inf_bucket_capped;
          tc "clamped to extremes" test_quantile_clamped_to_extremes;
          tc "invalid arguments" test_quantile_invalid_arguments;
          tc "instrument + pp_summary" test_quantile_of_instrument;
        ] );
      ( "export",
        [
          tc "trace-event json" test_trace_event_json;
          tc "negative duration clamped" test_trace_event_negative_duration_clamped;
          tc "parse roundtrip" test_trace_event_parse_roundtrip;
          tc "parse rejects garbage" test_trace_event_parse_rejects_garbage;
          tc "csv escaping" test_csv_escaping;
        ] );
      ( "spans",
        [
          tc "from collector" test_spans_from_collector;
          tc "nemesis lane" test_spans_nemesis_lane;
          tc "log lines" test_spans_log_lines;
          tc "windows roundtrip through trace" test_windows_roundtrip_through_trace;
        ] );
      ( "report",
        [
          tc "render" test_report_html_render;
          tc "empty inputs" test_report_html_empty_inputs;
        ] );
      ( "end_to_end",
        [
          tc "cross-layer invariants" test_cross_layer_invariants;
          tc "series per group and node" test_per_group_series;
          tc "metrics off = noop registry" test_metrics_off_is_noop_registry;
          tc "metrics do not perturb results" test_metrics_do_not_perturb_results;
          tc "experiment log deterministic" test_experiment_log_deterministic;
          tc "experiment log records faults" test_experiment_log_records_faults;
        ] );
    ]
