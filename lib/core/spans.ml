open Dpu_kernel
module Schedule = Dpu_faults.Schedule
module TE = Dpu_obs.Trace_event
module Json = Dpu_obs.Json

(* Lane (tid) assignment within a node's process. *)
let tid_messages = 0

let tid_kernel = 1

let timeline_pid ~n = n

let message_events collector =
  List.concat_map
    (fun (id, origin, t0) ->
      let name = Msg.id_to_string id in
      match Collector.deliver_times collector id with
      | [] ->
        [
          TE.instant ~name:("undelivered " ^ name) ~cat:"abcast" ~pid:origin
            ~tid:tid_messages ~ts_ms:t0 ();
        ]
      | deliveries ->
        List.map
          (fun (node, t1) ->
            TE.complete ~name ~cat:"abcast" ~pid:node ~tid:tid_messages ~ts_ms:t0
              ~dur_ms:(t1 -. t0)
              ~args:[ ("origin", Json.Int origin); ("send_ms", Json.Float t0) ]
              ())
          deliveries)
    (Collector.sends collector)

let switch_events collector ~n =
  let switches = Collector.switches collector in
  let instants =
    List.map
      (fun (node, generation, time) ->
        TE.instant
          ~name:(Printf.sprintf "install gen=%d" generation)
          ~cat:"dpu" ~pid:node ~tid:tid_kernel ~ts_ms:time
          ~args:[ ("generation", Json.Int generation) ]
          ())
      switches
  in
  let generations =
    List.sort_uniq Int.compare (List.map (fun (_, g, _) -> g) switches)
  in
  let windows =
    List.filter_map
      (fun generation ->
        match Collector.switch_window collector ~generation with
        | Some (lo, hi) ->
          Some
            (TE.complete
               ~name:(Printf.sprintf "replacement gen=%d" generation)
               ~cat:"dpu" ~pid:(timeline_pid ~n) ~tid:0 ~ts_ms:lo ~dur_ms:(hi -. lo)
               ~args:[ ("generation", Json.Int generation) ]
               ())
        | None -> None)
      generations
  in
  instants @ windows

(* Blocked-call spans: pair each [Call_blocked] with the matching
   [Call_unblocked] per (node, service). The kernel releases blocked
   calls of one service in FIFO order, so a queue per key suffices. *)
let blocked_events trace =
  let open Trace in
  let pending : (int * string, float Queue.t) Hashtbl.t = Hashtbl.create 16 in
  let out = ref [] in
  List.iter
    (fun e ->
      match e.kind with
      | Call_blocked svc ->
        let q =
          match Hashtbl.find_opt pending (e.node, svc) with
          | Some q -> q
          | None ->
            let q = Queue.create () in
            Hashtbl.replace pending (e.node, svc) q;
            q
        in
        Queue.add e.time q
      | Call_unblocked svc -> (
        match Hashtbl.find_opt pending (e.node, svc) with
        | Some q when not (Queue.is_empty q) ->
          let t0 = Queue.pop q in
          out :=
            TE.complete ~name:("blocked " ^ svc) ~cat:"kernel" ~pid:e.node
              ~tid:tid_kernel ~ts_ms:t0 ~dur_ms:(e.time -. t0) ()
            :: !out
        | Some _ | None -> ())
      | _ -> ())
    (entries trace);
  List.rev !out

(* Application marks: switch triggers, and a live node's start and
   stop. *)
let app_events trace =
  let open Trace in
  List.filter_map
    (fun e ->
      let mark =
        match e.kind with
        | App (("change-abcast" | "change-consensus") as tag, data) ->
          Some (Printf.sprintf "trigger %s -> %s" tag data, "dpu")
        | App ("node", what) -> Some ("node " ^ what, "node")
        | _ -> None
      in
      Option.map
        (fun (name, cat) -> TE.instant ~name ~cat ~pid:e.node ~tid:tid_kernel ~ts_ms:e.time ())
        mark)
    (entries trace)

let group_string groups =
  String.concat "|" (List.map (fun g -> String.concat "," (List.map string_of_int g)) groups)

let nemesis_events ~n ~horizon_ms schedule =
  match schedule with
  | [] -> []
  | _ ->
    (* The synthetic process after the timeline's (pid = n), so fault
       windows sit in their own swimlane. *)
    let pid = n + 1 in
    let out = ref [] in
    let mark ~name ~ts_ms = out := TE.instant ~name ~cat:"nemesis" ~pid ~tid:0 ~ts_ms () :: !out in
    let span ~name ~t0 ~t1 =
      out :=
        TE.complete ~name ~cat:"nemesis" ~pid ~tid:0 ~ts_ms:t0
          ~dur_ms:(Float.min t1 horizon_ms -. t0)
          ()
        :: !out
    in
    (* Crash and partition windows are implicit (crash .. recover,
       partition .. heal/next partition); ones never closed by the
       schedule are clamped at the horizon — the fault outlives the
       run. *)
    let crash_open : (int, float) Hashtbl.t = Hashtbl.create 4 in
    let partition_open = ref None in
    let close_partition ~at =
      match !partition_open with
      | None -> ()
      | Some (t0, desc) ->
        partition_open := None;
        span ~name:("partition " ^ desc) ~t0 ~t1:at
    in
    List.iter
      (fun (e : Schedule.event) ->
        match e.action with
        | Schedule.Crash node ->
          mark ~name:(Printf.sprintf "crash node %d" node) ~ts_ms:e.at;
          Hashtbl.replace crash_open node e.at
        | Schedule.Recover node -> (
          mark ~name:(Printf.sprintf "recover node %d" node) ~ts_ms:e.at;
          match Hashtbl.find_opt crash_open node with
          | Some t0 ->
            Hashtbl.remove crash_open node;
            span ~name:(Printf.sprintf "crash node %d" node) ~t0 ~t1:e.at
          | None -> ())
        | Schedule.Partition groups ->
          close_partition ~at:e.at;
          let desc = group_string groups in
          mark ~name:("partition " ^ desc) ~ts_ms:e.at;
          partition_open := Some (e.at, desc)
        | Schedule.Heal ->
          mark ~name:"heal" ~ts_ms:e.at;
          close_partition ~at:e.at
        | Schedule.Loss_window { p; from_; until } ->
          span ~name:(Printf.sprintf "loss p=%g" p) ~t0:from_ ~t1:until
        | Schedule.Dup_burst { p; from_; until } ->
          span ~name:(Printf.sprintf "dup p=%g" p) ~t0:from_ ~t1:until
        | Schedule.Degrade_link { src; dst; window; _ } ->
          span ~name:(Printf.sprintf "slow %d>%d" src dst) ~t0:window.from_ ~t1:window.until)
      (Schedule.sorted schedule);
    (* dpu-lint: allow hashtbl-iter — folded nodes are sorted before use *)
    Hashtbl.fold (fun node t0 acc -> (node, t0) :: acc) crash_open []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.iter (fun (node, t0) ->
           span ~name:(Printf.sprintf "crash node %d" node) ~t0 ~t1:horizon_ms);
    close_partition ~at:horizon_ms;
    TE.process_name ~pid "nemesis" :: TE.thread_name ~pid ~tid:0 "fault windows" :: List.rev !out

let metadata ~n =
  let per_node node =
    [
      TE.process_name ~pid:node (Printf.sprintf "node %d" node);
      TE.thread_name ~pid:node ~tid:tid_messages "abcast messages";
      TE.thread_name ~pid:node ~tid:tid_kernel "kernel / dpu";
    ]
  in
  List.concat_map per_node (List.init n (fun i -> i))
  @ [
      TE.process_name ~pid:(timeline_pid ~n) "replacement timeline";
      TE.thread_name ~pid:(timeline_pid ~n) ~tid:0 "windows";
    ]

(* The replacement windows two ways: straight from the collector, and
   parsed back out of a trace-event list — the round-trip tests pin
   that a merged live trace carries exactly the windows the parent
   measured. *)
let replacement_timeline collector =
  let generations =
    List.sort_uniq Int.compare
      (List.map (fun (_, g, _) -> g) (Collector.switches collector))
  in
  List.filter_map
    (fun generation ->
      Option.map
        (fun window -> (generation, window))
        (Collector.switch_window collector ~generation))
    generations

let of_run ?trace ?faults ~n collector =
  let from_trace =
    match trace with
    | Some tr when Trace.enabled tr -> blocked_events tr @ app_events tr
    | Some _ | None -> []
  in
  let nemesis =
    match faults with
    | Some (schedule, horizon_ms) -> nemesis_events ~n ~horizon_ms schedule
    | None -> []
  in
  metadata ~n @ message_events collector @ switch_events collector ~n @ from_trace @ nemesis

let to_json events = TE.to_json events

(* The JSONL log: the trace's milestones (every [App] and [Crash]
   entry) and the schedule's faults, one object per line in time order.
   At equal times faults come first, then the shards in order, each in
   its own recording order. *)
let log_lines ?(faults = []) traces =
  let line t event fields =
    Json.to_string (Json.Obj (("t", Json.Float t) :: ("event", Json.Str event) :: fields))
  in
  let shard g = if List.length traces > 1 then [ ("shard", Json.Int g) ] else [] in
  let per_shard g tr =
    let milestone (e : Trace.entry) =
      let node = ("node", Json.Int e.node) in
      match e.kind with
      | Trace.App (tag, data) ->
        Some (e.time, line e.time tag (shard g @ [ node; ("data", Json.Str data) ]))
      | Trace.Crash -> Some (e.time, line e.time "crash" (shard g @ [ node ]))
      | _ -> None
    in
    List.filter_map milestone (Trace.entries tr)
  in
  let fault (e : Schedule.event) =
    let data = Format.asprintf "%a" Schedule.pp_action e.action in
    (e.at, line e.at "fault" [ ("data", Json.Str data) ])
  in
  List.map snd
    (List.stable_sort
       (fun (a, _) (b, _) -> Float.compare a b)
       (List.map fault (Schedule.sorted faults) @ List.concat (List.mapi per_shard traces)))

let write_trace path ~trace ~faults ~n collector =
  let events = of_run ?trace ~faults ~n collector in
  Json.to_file path (to_json events);
  List.length events

let write_log path ~faults traces =
  Out_channel.with_open_bin path (fun oc ->
      List.iter (Printf.fprintf oc "%s\n") (log_lines ~faults traces))
