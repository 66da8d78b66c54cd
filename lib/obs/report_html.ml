module TE = Trace_event

(* ------------------------------------------------------------------ *)
(* Small HTML/SVG helpers                                             *)
(* ------------------------------------------------------------------ *)

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Compact numeric rendering: integers stay integers, everything else
   keeps three decimals with trailing zeros trimmed. *)
let num v =
  if Float.is_nan v then "-"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else begin
    let s = Printf.sprintf "%.3f" v in
    let rec trim i = if i > 0 && s.[i] = '0' then trim (i - 1) else i in
    let i = trim (String.length s - 1) in
    let i = if s.[i] = '.' then i - 1 else i in
    String.sub s 0 (i + 1)
  end

let categorical =
  (* cat / series palette, colour-blind-safe. *)
  [| "#4269d0"; "#efb118"; "#ff725c"; "#6cc5b0"; "#3ca951"; "#a463f2"; "#97bbf5"; "#9c6b4e" |]

let color_of_cat = function
  | "dpu" -> "#4269d0"
  | "nemesis" -> "#ff725c"
  | "fault" -> "#efb118"
  | "node" -> "#6cc5b0"
  | "kernel" -> "#a463f2"
  | _ -> "#9ea3ad"

(* ------------------------------------------------------------------ *)
(* Timeline section (merged Chrome trace)                             *)
(* ------------------------------------------------------------------ *)

type row_event =
  | Span of { name : string; cat : string; t0 : float; t1 : float }
  | Mark of { name : string; cat : string; at : float }

let timeline_cats = [ "dpu"; "nemesis"; "fault"; "node"; "kernel" ]

let windows_of_events events =
  (* "replacement gen=N" complete spans, wherever they live. *)
  List.filter_map
    (function
      | TE.Complete { name; cat = "dpu"; ts_us; dur_us; _ } -> (
        match Scanf.sscanf_opt name "replacement gen=%d" Fun.id with
        | Some generation ->
          Some (generation, (ts_us /. 1000.0, (ts_us +. dur_us) /. 1000.0))
        | None -> None)
      | _ -> None)
    events
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let rows_of_events events =
  let names : (int, string) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (function
      | TE.Process_name { pid; name } -> Hashtbl.replace names pid name
      | _ -> ())
    events;
  let rows : (int, row_event list ref) Hashtbl.t = Hashtbl.create 8 in
  let push pid e =
    match Hashtbl.find_opt rows pid with
    | Some r -> r := e :: !r
    | None -> Hashtbl.replace rows pid (ref [ e ])
  in
  List.iter
    (function
      | TE.Complete { name; cat; pid; ts_us; dur_us; _ }
        when List.mem cat timeline_cats ->
        push pid (Span { name; cat; t0 = ts_us /. 1000.0; t1 = (ts_us +. dur_us) /. 1000.0 })
      | TE.Instant { name; cat; pid; ts_us; _ } when List.mem cat timeline_cats ->
        push pid (Mark { name; cat; at = ts_us /. 1000.0 })
      | _ -> ())
    events;
  (* dpu-lint: allow hashtbl-iter — folded rows are sorted by pid below *)
  Hashtbl.fold
    (fun pid r acc ->
      let label =
        match Hashtbl.find_opt names pid with
        | Some n -> n
        | None -> Printf.sprintf "pid %d" pid
      in
      (pid, label, List.rev !r) :: acc)
    rows []
  |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)

let timeline_svg rows =
  let all =
    List.concat_map
      (fun (_, _, es) ->
        List.concat_map
          (function Span { t0; t1; _ } -> [ t0; t1 ] | Mark { at; _ } -> [ at ])
          es)
      rows
  in
  match all with
  | [] -> "<p class=\"empty\">no timeline events in the trace</p>"
  | _ ->
    let tmin = List.fold_left Float.min infinity all in
    let tmax = List.fold_left Float.max neg_infinity all in
    let span = Float.max (tmax -. tmin) 1e-6 in
    let left = 150.0 and width = 760.0 and row_h = 26.0 in
    let x t = left +. ((t -. tmin) /. span *. width) in
    let height = (row_h *. float_of_int (List.length rows)) +. 40.0 in
    let buf = Buffer.create 4096 in
    Printf.bprintf buf
      "<svg viewBox=\"0 0 %.0f %.0f\" role=\"img\" class=\"timeline\">\n"
      (left +. width +. 20.0) height;
    (* time axis: five labelled gridlines *)
    for i = 0 to 4 do
      let t = tmin +. (span *. float_of_int i /. 4.0) in
      Printf.bprintf buf
        "<line x1=\"%.1f\" y1=\"18\" x2=\"%.1f\" y2=\"%.1f\" class=\"grid\"/>\n\
         <text x=\"%.1f\" y=\"12\" class=\"axis\" text-anchor=\"middle\">%s ms</text>\n"
        (x t) (x t) (height -. 10.0) (x t) (num t)
    done;
    List.iteri
      (fun i (_, label, es) ->
        let y = 24.0 +. (row_h *. float_of_int i) in
        Printf.bprintf buf
          "<text x=\"%.1f\" y=\"%.1f\" class=\"rowlabel\" text-anchor=\"end\">%s</text>\n"
          (left -. 8.0) (y +. 14.0) (escape label);
        List.iter
          (function
            | Span { name; cat; t0; t1 } ->
              let x0 = x t0 and x1 = x t1 in
              Printf.bprintf buf
                "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"14\" rx=\"2\" \
                 fill=\"%s\" fill-opacity=\"0.75\"><title>%s: %s..%s ms (%s ms)</title></rect>\n"
                x0 (y +. 4.0)
                (Float.max (x1 -. x0) 1.5)
                (color_of_cat cat) (escape name) (num t0) (num t1) (num (t1 -. t0))
            | Mark { name; cat; at } ->
              Printf.bprintf buf
                "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"3.5\" fill=\"%s\">\
                 <title>%s @ %s ms</title></circle>\n"
                (x at) (y +. 11.0) (color_of_cat cat) (escape name) (num at))
          es)
      rows;
    Buffer.add_string buf "</svg>\n";
    (* legend *)
    Buffer.add_string buf "<p class=\"legend\">";
    List.iter
      (fun cat ->
        Printf.bprintf buf
          "<span><span class=\"swatch\" style=\"background:%s\"></span>%s</span> "
          (color_of_cat cat) cat)
      timeline_cats;
    Buffer.add_string buf "</p>\n";
    Buffer.contents buf

let timeline_section events =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "<h2>Replacement timeline</h2>\n";
  (match windows_of_events events with
  | [] -> Buffer.add_string buf "<p class=\"empty\">no replacement window in the trace</p>\n"
  | windows ->
    Buffer.add_string buf
      "<table><tr><th>generation</th><th>start [ms]</th><th>end [ms]</th><th>window [ms]</th></tr>\n";
    List.iter
      (fun (generation, (lo, hi)) ->
        Printf.bprintf buf "<tr><td>%d</td><td>%s</td><td>%s</td><td>%s</td></tr>\n"
          generation (num lo) (num hi)
          (num (hi -. lo)))
      windows;
    Buffer.add_string buf "</table>\n");
  let messages =
    List.length
      (List.filter
         (function TE.Complete { cat = "abcast"; _ } -> true | _ -> false)
         events)
  in
  Buffer.add_string buf (timeline_svg (rows_of_events events));
  Printf.bprintf buf
    "<p class=\"note\">%d trace events in total, %d per-message abcast spans \
     (omitted above; load the trace JSON in Perfetto for the full picture).</p>\n"
    (List.length events) messages;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Metrics section (latency quantile tables from histogram buckets)   *)
(* ------------------------------------------------------------------ *)

type parsed_hist = {
  ph_name : string;
  ph_labels : string;
  ph_count : int;
  ph_mean : float;
  ph_min : float;
  ph_max : float;
  ph_bounds : float array;
  ph_counts : int array;
}

type parsed_scalar = { ps_name : string; ps_labels : string; ps_value : float }

let labels_string j =
  match Json.member j "labels" with
  | Some (Json.Obj []) | None -> ""
  | Some (Json.Obj fields) ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) ->
             k ^ "=" ^ match Json.to_string_opt v with Some s -> s | None -> "?")
           fields)
    ^ "}"
  | Some _ -> ""

let parse_instrument ~extra j =
  let name =
    Option.value ~default:"?" (Option.bind (Json.member j "name") Json.to_string_opt)
  in
  let labels = extra ^ labels_string j in
  match Option.bind (Json.member j "type") Json.to_string_opt with
  | Some "histogram" -> (
    let f field = Option.bind (Json.member j field) Json.to_float_opt in
    match Option.bind (Json.member j "buckets") Json.to_list_opt with
    | None -> None
    | Some buckets ->
      let parsed =
        List.filter_map
          (fun b ->
            match Option.bind (Json.member b "count") Json.to_int_opt with
            | None -> None
            | Some count ->
              let le = Option.bind (Json.member b "le") Json.to_float_opt in
              Some (le, count))
          buckets
      in
      let bounds = Array.of_list (List.filter_map fst parsed) in
      let counts = Array.of_list (List.map snd parsed) in
      if Array.length counts <> Array.length bounds + 1 then None
      else
        Some
          (Either.Left
             {
               ph_name = name;
               ph_labels = labels;
               ph_count =
                 Option.value ~default:0
                   (Option.bind (Json.member j "count") Json.to_int_opt);
               ph_mean = Option.value ~default:Float.nan (f "mean");
               ph_min = Option.value ~default:Float.nan (f "min");
               ph_max = Option.value ~default:Float.nan (f "max");
               ph_bounds = bounds;
               ph_counts = counts;
             }))
  | Some ("counter" | "gauge") ->
    Option.map
      (fun v -> Either.Right { ps_name = name; ps_labels = labels; ps_value = v })
      (Option.bind (Json.member j "value") Json.to_float_opt)
  | Some _ | None -> None

(* Accept both exported metrics shapes: the simulated run's snapshot
   ({"schema":"dpu.metrics/1","metrics":[...]}) and the live run's per-node
   nesting ({"nodes":[{"node":i,"metrics":<snapshot>}, ...]}). *)
let parse_metrics j =
  let of_snapshot ~extra j =
    match Option.bind (Json.member j "metrics") Json.to_list_opt with
    | None -> []
    | Some instruments -> List.filter_map (parse_instrument ~extra) instruments
  in
  match Option.bind (Json.member j "nodes") Json.to_list_opt with
  | Some nodes ->
    List.concat_map
      (fun entry ->
        let extra =
          match Option.bind (Json.member entry "node") Json.to_int_opt with
          | Some node -> Printf.sprintf "[node %d]" node
          | None -> ""
        in
        match Json.member entry "metrics" with
        | Some snapshot -> of_snapshot ~extra snapshot
        | None -> [])
      nodes
  | None -> of_snapshot ~extra:"" j

let metrics_section j =
  let hists, scalars = List.partition_map Fun.id (parse_metrics j) in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "<h2>Latency quantiles</h2>\n";
  (match hists with
  | [] -> Buffer.add_string buf "<p class=\"empty\">no histograms in the metrics snapshot</p>\n"
  | hists ->
    Buffer.add_string buf
      "<table><tr><th>histogram</th><th>count</th><th>mean</th><th>min</th>\
       <th>max</th><th>p50</th><th>p99</th><th>p999</th></tr>\n";
    List.iter
      (fun h ->
        let q p =
          match
            Metrics.quantile_of_buckets ~bounds:h.ph_bounds ~counts:h.ph_counts
              ~lo:h.ph_min ~hi:h.ph_max p
          with
          | Some v -> num v
          | None -> "-"
        in
        Printf.bprintf buf
          "<tr><td>%s%s</td><td>%d</td><td>%s</td><td>%s</td><td>%s</td>\
           <td>%s</td><td>%s</td><td>%s</td></tr>\n"
          (escape h.ph_name) (escape h.ph_labels) h.ph_count (num h.ph_mean)
          (num h.ph_min) (num h.ph_max) (q 0.5) (q 0.99) (q 0.999))
      hists;
    Buffer.add_string buf "</table>\n");
  (match scalars with
  | [] -> ()
  | scalars ->
    Printf.bprintf buf
      "<details><summary>%d counters and gauges</summary><table>\
       <tr><th>series</th><th>value</th></tr>\n"
      (List.length scalars);
    List.iter
      (fun s ->
        Printf.bprintf buf "<tr><td>%s%s</td><td>%s</td></tr>\n" (escape s.ps_name)
          (escape s.ps_labels) (num s.ps_value))
      scalars;
    Buffer.add_string buf "</table></details>\n");
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Trend section (history of BENCH_results.json files)                *)
(* ------------------------------------------------------------------ *)

let mean = function
  | [] -> None
  | l -> Some (List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l))

(* The numeric series worth tracking per bench file: every numeric
   scalar directly under each results section (fig5, headline, ...),
   plus aggregates over the fig6 point grid and the per-approach
   comparison rows, plus the total wall clock. *)
let series_of_bench j =
  let results =
    match Json.member j "results" with Some (Json.Obj sections) -> sections | _ -> []
  in
  let scalars =
    List.concat_map
      (fun (section, body) ->
        match body with
        | Json.Obj fields ->
          List.filter_map
            (fun (k, v) ->
              match Json.to_float_opt v with
              | Some f -> Some (section ^ "." ^ k, f)
              | None -> None)
            fields
        | _ -> [])
      results
  in
  let fig6 =
    match
      Option.bind
        (Option.bind (List.assoc_opt "fig6" results) (fun s -> Json.member s "points"))
        Json.to_list_opt
    with
    | None -> []
    | Some points ->
      List.filter_map
        (fun key ->
          List.filter_map
            (fun p -> Option.bind (Json.member p key) Json.to_float_opt)
            points
          |> mean
          |> Option.map (fun v -> ("fig6.mean_" ^ key, v)))
        [ "no_layer_ms"; "with_layer_ms"; "during_ms" ]
  in
  let compare_rows =
    match
      Option.bind
        (Option.bind (List.assoc_opt "compare" results) (fun s ->
             Json.member s "approaches"))
        Json.to_list_opt
    with
    | None -> []
    | Some rows ->
      List.concat_map
        (fun row ->
          match Option.bind (Json.member row "approach") Json.to_string_opt with
          | None -> []
          | Some approach ->
            List.filter_map
              (fun key ->
                Option.map
                  (fun v -> (Printf.sprintf "compare.%s.%s" approach key, v))
                  (Option.bind (Json.member row key) Json.to_float_opt))
              [ "normal_ms"; "during_switch_ms"; "switch_duration_ms"; "blocked_ms" ])
        rows
  in
  let wall =
    match Option.bind (Json.member j "wall_clock_s") Json.to_float_opt with
    | Some v -> [ ("bench.wall_clock_s", v) ]
    | None -> []
  in
  scalars @ fig6 @ compare_rows @ wall

let trend_chart ~key ~labels points =
  (* [points]: one [float option] per history entry, entry order. *)
  let w = 270.0 and h = 72.0 and pad = 6.0 in
  let present = List.filter_map Fun.id points in
  match present with
  | [] -> ""
  | _ ->
    let vmin = List.fold_left Float.min infinity present in
    let vmax = List.fold_left Float.max neg_infinity present in
    let spread = if vmax -. vmin < 1e-9 then 1.0 else vmax -. vmin in
    let n = List.length points in
    let x i = pad +. (float_of_int i /. float_of_int (max 1 (n - 1)) *. (w -. (2.0 *. pad))) in
    let y v = h -. pad -. ((v -. vmin) /. spread *. (h -. (2.0 *. pad))) in
    let buf = Buffer.create 1024 in
    Printf.bprintf buf "<div class=\"trend\"><div class=\"trend-title\">%s</div>\n"
      (escape key);
    Printf.bprintf buf "<svg viewBox=\"0 0 %.0f %.0f\" role=\"img\">\n" w h;
    let coords =
      List.mapi (fun i v -> Option.map (fun v -> (x i, y v)) v) points
      |> List.filter_map Fun.id
    in
    (match coords with
    | [ (cx, cy) ] ->
      Printf.bprintf buf "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"3\" fill=\"%s\"/>\n" cx cy
        categorical.(0)
    | coords ->
      Printf.bprintf buf "<polyline fill=\"none\" stroke=\"%s\" stroke-width=\"1.5\" points=\""
        categorical.(0);
      List.iter (fun (cx, cy) -> Printf.bprintf buf "%.1f,%.1f " cx cy) coords;
      Buffer.add_string buf "\"/>\n";
      List.iter
        (fun (cx, cy) ->
          Printf.bprintf buf "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"2.2\" fill=\"%s\"/>\n"
            cx cy categorical.(0))
        coords);
    Buffer.add_string buf "</svg>\n";
    let last = List.fold_left (fun acc v -> match v with Some v -> Some v | None -> acc) None points in
    let first_label = match labels with l :: _ -> l | [] -> "" in
    let last_label = List.fold_left (fun _ l -> l) first_label labels in
    Printf.bprintf buf
      "<div class=\"trend-foot\"><span>%s → %s</span><span>last %s \
       <small>(min %s, max %s)</small></span></div></div>\n"
      (escape first_label) (escape last_label)
      (match last with Some v -> num v | None -> "-")
      (num vmin) (num vmax);
    Buffer.contents buf

let trend_section history =
  let labels = List.map fst history in
  let per_entry = List.map (fun (_, j) -> series_of_bench j) history in
  (* Union of keys, in first-seen order. *)
  let keys =
    List.fold_left
      (fun acc series ->
        List.fold_left
          (fun acc (k, _) -> if List.mem k acc then acc else acc @ [ k ])
          acc series)
      [] per_entry
  in
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "<h2>Perf trends (%d bench entries)</h2>\n" (List.length history);
  if keys = [] then
    Buffer.add_string buf "<p class=\"empty\">no numeric series found in the history</p>\n"
  else begin
    Buffer.add_string buf "<div class=\"trends\">\n";
    List.iter
      (fun key ->
        let points = List.map (fun series -> List.assoc_opt key series) per_entry in
        Buffer.add_string buf (trend_chart ~key ~labels points))
      keys;
    Buffer.add_string buf "</div>\n"
  end;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Shard section (a run JSON from `dpu_run run --json-out`)           *)
(* ------------------------------------------------------------------ *)

let shard_field j name = Option.bind (Json.member j name) Json.to_float_opt

let shard_num j name = match shard_field j name with Some v -> num v | None -> "-"

(* One swimlane per shard, its generation-1 switch window as a bar:
   vertically overlapping bars ARE the headline — that many Algorithm 1
   runs were in flight at the same instant. *)
let shard_swimlane shards =
  let windows =
    List.filter_map
      (fun s ->
        match
          ( shard_field s "shard",
            shard_field s "window_start_ms",
            shard_field s "window_end_ms" )
        with
        | Some id, Some lo, Some hi -> Some (int_of_float id, lo, hi)
        | _ -> None)
      shards
  in
  match windows with
  | [] -> "<p class=\"empty\">no switch windows (run without --switch-to)</p>\n"
  | _ ->
    let tmin = List.fold_left (fun a (_, lo, _) -> Float.min a lo) infinity windows in
    let tmax = List.fold_left (fun a (_, _, hi) -> Float.max a hi) neg_infinity windows in
    let span = Float.max (tmax -. tmin) 1e-6 in
    let left = 150.0 and width = 760.0 and row_h = 22.0 in
    let x t = left +. ((t -. tmin) /. span *. width) in
    let height = (row_h *. float_of_int (List.length windows)) +. 40.0 in
    let buf = Buffer.create 4096 in
    Printf.bprintf buf
      "<svg class=\"timeline\" viewBox=\"0 0 %.0f %.0f\" height=\"%.0f\">\n"
      (left +. width +. 20.0) height height;
    List.iteri
      (fun i (shard, lo, hi) ->
        let y = 20.0 +. (row_h *. float_of_int i) in
        Printf.bprintf buf
          "<text class=\"rowlabel\" x=\"4\" y=\"%.1f\">shard %d</text>\n"
          (y +. 13.0) shard;
        Printf.bprintf buf
          "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" rx=\"2\" \
           fill=\"%s\"><title>shard %d: %.2f..%.2f ms (%.2f ms)</title></rect>\n"
          (x lo) (y +. 3.0)
          (Float.max (x hi -. x lo) 2.0)
          (row_h -. 6.0)
          categorical.(i mod Array.length categorical)
          shard lo hi (hi -. lo))
      windows;
    Printf.bprintf buf
      "<text class=\"axis\" x=\"%.1f\" y=\"%.1f\">%.2f ms</text>\n\
       <text class=\"axis\" x=\"%.1f\" y=\"%.1f\" text-anchor=\"end\">%.2f ms</text>\n"
      left (height -. 6.0) tmin (left +. width) (height -. 6.0) tmax;
    Buffer.add_string buf "</svg>\n";
    Buffer.contents buf

let shard_section j =
  let buf = Buffer.create 8192 in
  let shards =
    match Option.bind (Json.member j "shards") Json.to_list_opt with
    | Some l -> l
    | None -> []
  in
  Printf.bprintf buf "<h2>Sharded run (%d shards)</h2>\n" (List.length shards);
  (match Json.member j "all_ok" with
  | Some (Json.Bool true) ->
    Buffer.add_string buf
      "<p class=\"note\">all shards: properties hold, nothing undelivered, \
       nothing blocked</p>\n"
  | Some (Json.Bool false) ->
    Buffer.add_string buf "<p><strong>VIOLATIONS — see the table</strong></p>\n"
  | _ -> ());
  Buffer.add_string buf
    "<table><tr><th>shard</th><th>nodes</th><th>sent</th><th>delivered</th>\
     <th>p50 ms</th><th>p99 ms</th><th>p999 ms</th><th>mean ms</th>\
     <th>gen</th><th>blocked ms</th><th>undelivered</th><th>props</th></tr>\n";
  List.iter
    (fun s ->
      let ok =
        match Json.member s "props_ok" with Some (Json.Bool b) -> b | _ -> false
      in
      Printf.bprintf buf
        "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td>\
         <td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n"
        (shard_num s "shard") (shard_num s "nodes") (shard_num s "sent")
        (shard_num s "delivered") (shard_num s "p50_ms") (shard_num s "p99_ms")
        (shard_num s "p999_ms") (shard_num s "mean_ms") (shard_num s "generation")
        (shard_num s "blocked_ms") (shard_num s "undelivered")
        (if ok then "ok" else "VIOLATED"))
    shards;
  Buffer.add_string buf "</table>\n";
  Buffer.add_string buf "<h2>Replacement swimlane</h2>\n";
  (match Option.bind (Json.member j "max_concurrent_switches") Json.to_int_opt with
  | Some k when k > 0 ->
    Printf.bprintf buf "<p class=\"note\">max concurrent in-flight swaps: %d</p>\n" k
  | _ -> ());
  Buffer.add_string buf (shard_swimlane shards);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* The page                                                           *)
(* ------------------------------------------------------------------ *)

let style =
  {|body{font:14px/1.5 system-ui,sans-serif;color:#1a1c22;margin:2rem auto;max-width:960px;padding:0 1rem}
h1{font-size:1.4rem}h2{font-size:1.1rem;margin-top:2rem;border-bottom:1px solid #d5d8e0;padding-bottom:.3rem}
table{border-collapse:collapse;margin:.5rem 0}
td,th{border:1px solid #d5d8e0;padding:.25rem .6rem;text-align:right;font-variant-numeric:tabular-nums}
th{background:#f2f3f7}td:first-child,th:first-child{text-align:left}
.empty,.note{color:#6b7081}.legend span{margin-right:1rem}
.swatch{display:inline-block;width:10px;height:10px;border-radius:2px;margin-right:.35rem}
svg.timeline{width:100%;background:#fafbfd;border:1px solid #e3e6ee;border-radius:4px}
.grid{stroke:#e3e6ee}.axis,.rowlabel{font-size:11px;fill:#6b7081}.rowlabel{font-size:12px;fill:#1a1c22}
.trends{display:flex;flex-wrap:wrap;gap:1rem}
.trend{border:1px solid #e3e6ee;border-radius:4px;padding:.5rem;width:286px}
.trend svg{width:100%;background:#fafbfd}
.trend-title{font-size:12px;font-weight:600;margin-bottom:.2rem;word-break:break-all}
.trend-foot{display:flex;justify-content:space-between;font-size:11px;color:#6b7081}
@media(prefers-color-scheme:dark){body{background:#15171c;color:#e4e6eb}
th{background:#23262e}td,th{border-color:#3a3e48}
svg.timeline,.trend svg{background:#1b1e24;border-color:#3a3e48}.trend{border-color:#3a3e48}
h2{border-color:#3a3e48}.rowlabel{fill:#e4e6eb}.grid{stroke:#2a2e36}}|}

let render ?metrics ?trace ?shard ?(history = []) ~title () =
  let buf = Buffer.create 16384 in
  Printf.bprintf buf
    "<!doctype html>\n<html><head><meta charset=\"utf-8\">\n<title>%s</title>\n\
     <style>%s</style></head>\n<body>\n<h1>%s</h1>\n"
    (escape title) style (escape title);
  (match trace with
  | Some events -> Buffer.add_string buf (timeline_section events)
  | None -> ());
  (match metrics with
  | Some j -> Buffer.add_string buf (metrics_section j)
  | None -> ());
  (match shard with
  | Some j -> Buffer.add_string buf (shard_section j)
  | None -> ());
  if history <> [] then Buffer.add_string buf (trend_section history);
  if trace = None && metrics = None && shard = None && history = [] then
    Buffer.add_string buf "<p class=\"empty\">nothing to report: no inputs given</p>\n";
  Buffer.add_string buf "</body></html>\n";
  Buffer.contents buf
