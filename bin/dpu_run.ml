(* dpu_run — command-line front end for the DPU reproduction.

   Subcommands:
     run        one run on the simulator, or over real UDP sockets with
                --live; --scenario runs the adversarial corpus
     fig5       regenerate Figure 5
     fig6       regenerate Figure 6
     headline   regenerate the §6 headline numbers
     compare    quantify Repl vs Graceful vs Maestro
     check      static composition verification, no simulation
     report     render metrics/trace/shard/bench-history artifacts as HTML

   A run is described once, as an [Experiment.params] on either
   backend: every [run] flag overrides one field of a base record
   ([Experiment.default], [Serve.default] converted under --live, or a
   corpus scenario's), and [Experiment.validate] is the one range
   check. *)

open Cmdliner
module E = Dpu_workload.Experiment
module F = Dpu_workload.Figures
module Serve = Dpu_live.Serve
module Corpus = Dpu_faults.Corpus
module Schedule = Dpu_faults.Schedule
module Report = Dpu_props.Report
module Stats = Dpu_engine.Stats

(* A usage error of subcommand [cmd]: one line on stderr, exit 2. *)
let fail cmd fmt =
  Printf.ksprintf (fun m -> Printf.eprintf "dpu_run %s: %s\n" cmd m; exit 2) fmt

let ( |? ) flag base = Option.value flag ~default:base

(* ------------------------------------------------------------------ *)
(* Run flags                                                          *)
(* ------------------------------------------------------------------ *)

(* An argument that is [None] unless given. A run flag overrides one
   field of the base run when given. *)
let optional ?absent kind names ~docv doc =
  Arg.(value & opt (some kind) None & info names ?absent ~docv ~doc)

let bool_flag names doc = Arg.(value & flag & info names ~doc)

let ms = Printf.sprintf "%g"

let jobs_arg =
  Arg.(
    value
    & opt int (Dpu_runtime.Sweep.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"JOBS"
        ~doc:
          "Fan independent experiment cells out to $(docv) worker processes. \
           Results are bit-identical for every $(docv). Defaults to \\$DPU_JOBS \
           or 1.")

let n_arg =
  optional Arg.int [ "n"; "nodes" ] ~docv:"N" ~absent:(string_of_int E.default.n)
    "Number of machines (OS processes under $(b,--live))."

let load_arg =
  optional Arg.float [ "load" ] ~docv:"MSG/S" ~absent:(ms E.default.load)
    "Aggregate ABcast load in messages per second."

let seed_arg =
  optional Arg.int [ "seed" ] ~docv:"SEED" ~absent:(string_of_int E.default.seed)
    "Seed of the run."

(* One batching knob: [--batch K] is [Batcher.max_batch = K] on the
   simulator and the egress frame cap plus [Batcher.max_batch] live;
   omitted, every path stays unbatched (the paper's one message per
   ordering round). *)
let batch_arg =
  let parse s =
    match int_of_string_opt s with
    | Some k when k >= 1 -> Ok k
    | Some _ -> Error (`Msg (Printf.sprintf "batch %s must be at least 1" s))
    | None -> Error (`Msg (Printf.sprintf "invalid batch %S, expected an integer" s))
  in
  Arg.(
    value
    & opt (some (conv (parse, Format.pp_print_int))) None
    & info [ "batch" ] ~docv:"K"
        ~doc:
          "Throughput mode: aggregate up to K messages per ordering round in \
           the ABcast hot path, flushing a partial batch after 2 ms (and, \
           under $(b,--live), up to K messages per UDP frame on egress). Omit \
           for the unbatched paths.")

let approach_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "repl" -> Ok E.Repl
    | "maestro" -> Ok E.Maestro
    | "graceful" -> Ok E.Graceful
    | "none" | "no-layer" -> Ok E.No_layer
    | other -> Error (`Msg (Printf.sprintf "unknown approach %S" other))
  in
  Arg.conv (parse, fun ppf a -> Format.pp_print_string ppf (E.approach_name a))

let fault_conv =
  let parse s =
    match Schedule.event_of_spec s with Ok e -> Ok e | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Schedule.pp_event)

(* No params record holds a consensus swap time ([E.default] plans no
   swap): a planned swap runs at this time unless [run
   --switch-consensus-at] moves it, as in the shipped consensus-swap
   configuration. *)
let consensus_swap_at_ms = 2_500.0

(* The update plan: the flags [run] and [check] share. *)
type plan = {
  n : int option;
  initial : string option;
  switch_to : string option;
  approach : E.approach option;
  batch : int option;
  consensus_layer : bool;
  switch_consensus_to : string option;
}

let plan_term =
  let open Term.Syntax in
  let+ n = n_arg
  and+ initial =
    optional Arg.string [ "initial" ] ~docv:"PROTO" ~absent:E.default.initial
      "Initial ABcast variant (abcast.ct, abcast.seq, abcast.token)."
  and+ switch_to =
    optional Arg.string [ "switch-to" ] ~docv:"PROTO"
      ~absent:(Option.value E.default.switch_to ~default:"none")
      "Replacement target."
  and+ approach =
    optional approach_conv [ "approach" ] ~docv:"A"
      ~absent:(E.approach_name E.default.approach)
      "repl | graceful | maestro | no-layer (the simulator; repl under $(b,--live))."
  and+ batch = batch_arg
  and+ consensus_layer =
    bool_flag [ "consensus-layer" ]
      "Install the consensus replacement layer (implied by --switch-consensus-to; \
       simulator only)."
  and+ switch_consensus_to =
    optional Arg.string [ "switch-consensus-to" ] ~docv:"IMPL"
      "Hot-swap consensus to IMPL (consensus.ct | consensus.paxos; simulator only)."
  in
  { n; initial; switch_to; approach; batch; consensus_layer; switch_consensus_to }

(* The plan over a simulated base run. *)
let plan_over (pl : plan) (p : E.params) =
  {
    p with
    n = pl.n |? p.n;
    initial = pl.initial |? p.initial;
    switch_to = (match pl.switch_to with None -> p.switch_to | given -> given);
    approach = pl.approach |? p.approach;
    batching =
      (match pl.batch with
      | Some k -> Some { Dpu_protocols.Batcher.default with max_batch = k }
      | None -> p.batching);
    consensus_layer =
      (if pl.consensus_layer || pl.switch_consensus_to <> None then
         Some Dpu_protocols.Consensus_ct.protocol_name
       else p.consensus_layer);
    switch_consensus =
      (match pl.switch_consensus_to with
      | Some prot -> Some (consensus_swap_at_ms, prot)
      | None -> p.switch_consensus);
  }

type flags = {
  plan : plan;
  live : bool;
  scenario : string option;
  load : float option;
  seed : int option;
  duration : float option;
  drain : float option;
  switch_at : float option;
  size : int option;
  faults : Schedule.t;
  nemesis_seed : int option;
  nemesis_faults : int option;
  check : bool;
  metrics_out : string option;
  trace_out : string option;
  log_out : string option;
  switch_consensus_at : float option;
  loss : float option;
  shards : int option;
  stagger : float option;
  csv_out : string option;
  json_out : string option;
}

(* A corpus scenario is a check: it runs the battery. *)
let checked f = f.check || f.scenario <> None

(* The [--fault] events, then a [--nemesis-seed] draw over the run's
   horizon: one schedule for either backend. *)
let schedule f ~n ~horizon_ms =
  f.faults
  @
  match f.nemesis_seed with
  | None -> []
  | Some _ when n < 2 -> fail "run" "--nemesis-seed needs at least 2 nodes"
  | Some seed ->
    Dpu_faults.Nemesis.generate
      ~rng:(Dpu_engine.Rng.create ~seed)
      ~n ~horizon_ms ?faults:f.nemesis_faults ()

(* The one parameter builder: the flags over a base run. *)
let params f (base : E.params) =
  let p = plan_over f.plan base in
  let duration_ms = f.duration |? p.duration_ms in
  {
    p with
    load = f.load |? p.load;
    seed = f.seed |? p.seed;
    duration_ms;
    drain_ms = f.drain |? p.drain_ms;
    switch_at_ms = f.switch_at |? p.switch_at_ms;
    msg_size = f.size |? p.msg_size;
    switch_consensus =
      Option.map (fun (at, prot) -> (f.switch_consensus_at |? at, prot)) p.switch_consensus;
    loss = f.loss |? p.loss;
    shards = f.shards |? p.shards;
    stagger_ms = f.stagger |? p.stagger_ms;
    faults = p.faults @ schedule f ~n:p.n ~horizon_ms:duration_ms;
    trace_enabled = checked f || f.trace_out <> None || f.log_out <> None;
    metrics_enabled = f.metrics_out <> None || f.trace_out <> None || f.csv_out <> None;
  }

(* ------------------------------------------------------------------ *)
(* run                                                                *)
(* ------------------------------------------------------------------ *)

(* The fault shim's ledger, per run on the simulator and per node live. *)
let fault_ledger stats =
  Format.asprintf "faults: %a" Dpu_faults.Fault_transport.pp_stats stats

let print_schedule s = if s <> [] then Format.printf "fault schedule: %a@." Schedule.pp s

let print_checks reports =
  Format.printf "%a" Report.pp_all reports;
  Report.all_ok reports

let written what path = Option.iter (Printf.printf "%s written to %s\n" what) path

(* One simulated run and its report; [false] iff a checked property
   failed. *)
let run_sim f (p : E.params) =
  print_schedule p.faults;
  let r =
    match E.run p with
    | r -> r
    | exception E.Preflight_failure reports ->
      Format.printf "%a@?" Report.pp_all reports;
      fail "run" "the static composition check rejected the configuration"
  in
  (* Shard 0 is the whole run when there is one shard, the only case
     the per-message exports below accept. *)
  let s = r.E.per_shard.(0) in
  if p.shards > 1 then print_string (E.render_shards r)
  else begin
    Printf.printf "sent %d, delivered everywhere %d, correct nodes {%s}\n" s.E.sent
      s.E.delivered_everywhere
      (String.concat "," (List.map string_of_int s.E.correct));
    Printf.printf "normal latency: mean %.2f ms, p95 %.2f ms (%d msgs)\n"
      (Stats.mean s.E.normal)
      (Stats.percentile s.E.normal 95.0)
      (Stats.count s.E.normal);
    (match s.E.switch_window with
    | Some (lo, hi) ->
      Printf.printf "replacement: %.1f..%.1f ms (window %.1f ms); during: mean %.2f ms (%d msgs)\n"
        lo hi (hi -. lo) (Stats.mean s.E.during) (Stats.count s.E.during)
    | None when p.switches = [] -> print_endline "no replacement performed"
    | None -> ());
    (* [switch_to], when planned, is generation 1. *)
    let first = if p.switch_to = None then 1 else 2 in
    List.iteri
      (fun i _ ->
        let generation = first + i in
        match Dpu_core.Collector.switch_window s.E.collector ~generation with
        | Some (lo, hi) ->
          Printf.printf "generation %d installed: %.1f..%.1f ms\n" generation lo hi
        | None -> Printf.printf "generation %d: not installed\n" generation)
      p.switches;
    if s.E.blocked_ms > 0.0 then
      Printf.printf "application blocked for %.1f ms\n" s.E.blocked_ms;
    if p.faults <> [] then print_endline (fault_ledger s.E.faults)
  end;
  Option.iter
    (fun path -> Dpu_obs.Json.to_file path (Dpu_obs.Metrics.to_json r.E.metrics))
    f.metrics_out;
  written "metrics snapshot" f.metrics_out;
  Option.iter
    (fun path ->
      let count =
        Dpu_core.Spans.write_trace path ~trace:(Some s.E.trace)
          ~faults:(p.faults, p.duration_ms +. p.drain_ms)
          ~n:p.n s.E.collector
      in
      Printf.printf "%d trace events written to %s (load in Perfetto / chrome://tracing)\n"
        count path)
    f.trace_out;
  Option.iter
    (fun path ->
      let rows =
        List.map
          (fun (pt : Dpu_engine.Series.point) ->
            [ Printf.sprintf "%.3f" pt.time; Printf.sprintf "%.3f" pt.value ])
          (Dpu_engine.Series.points s.E.latency)
      in
      Dpu_obs.Csv.to_file path ~header:[ "send_time_ms"; "latency_ms" ] rows;
      Printf.printf "%d latency samples written to %s\n" (List.length rows) path)
    f.csv_out;
  Option.iter (fun path -> Dpu_obs.Json.to_file path (E.to_json r)) f.json_out;
  written "result JSON" f.json_out;
  Option.iter
    (fun path ->
      Dpu_core.Spans.write_log path ~faults:p.faults
        (Array.to_list (Array.map (fun (s : E.shard) -> s.E.trace) r.E.per_shard)))
    f.log_out;
  written "structured log" f.log_out;
  if p.metrics_enabled then begin
    print_endline "--- observability summary ---";
    Format.printf "%a@?" Dpu_obs.Metrics.pp_summary r.E.metrics
  end;
  (not (checked f)) || print_checks (E.check r)

(* One live deployment and its report; [false] iff a checked property
   failed. *)
let run_live f (p : E.params) =
  Printf.printf "serving %d nodes over UDP on 127.0.0.1 (%.0f msg/s for %.0f ms)\n%!" p.n
    p.load p.duration_ms;
  print_schedule p.faults;
  match
    Serve.run_experiment ?metrics_out:f.metrics_out ?trace_out:f.trace_out
      ?log_out:f.log_out p
  with
  | Error msg -> fail "run" "%s" msg
  | Ok o ->
    let module C = Dpu_core.Collector in
    let module N = Dpu_live.Node in
    let module T = Dpu_runtime.Transport in
    List.iter
      (fun (r : N.report) ->
        let c = r.N.counters in
        Printf.printf
          "node %d: sent %d, delivered %d; wire: %d out / %d in / %d dropped, %d bytes\n"
          r.N.node (C.send_count r.N.collector)
          (List.length (C.delivers_of r.N.collector ~node:r.N.node))
          c.T.sent
          c.T.delivered c.T.dropped c.T.bytes;
        Option.iter
          (fun (b : T.batch_counters) ->
            Printf.printf "node %d: %d egress batches carrying %d msgs (avg %.1f/frame)\n"
              r.N.node b.T.batches_sent b.T.batched_msgs
              (if b.T.batches_sent = 0 then 0.0
               else float_of_int b.T.batched_msgs /. float_of_int b.T.batches_sent))
          r.N.batches;
        if r.N.rx_errors > 0 then
          Printf.printf "node %d: survived %d receive errors\n" r.N.node r.N.rx_errors;
        Option.iter
          (fun stats -> Printf.printf "node %d %s\n" r.N.node (fault_ledger stats))
          r.N.faults)
      o.Serve.node_reports;
    let collector = o.Serve.collector in
    (match E.switch_plan p ~shard:0 with
    | [] -> print_endline "no replacement requested"
    | planned ->
      List.iteri
        (fun i (_, _, proto) ->
          let generation = i + 1 in
          match C.switch_window collector ~generation with
          | Some (lo, hi) ->
            Printf.printf "replacement to %s: %.1f..%.1f ms (window %.1f ms), %d/%d nodes\n"
              proto lo hi (hi -. lo)
              (List.length
                 (List.filter (fun (_, g, _) -> g = generation) (C.switches collector)))
              p.n
          | None -> Printf.printf "replacement to %s: never completed\n" proto)
        planned);
    written "per-node metrics" f.metrics_out;
    Option.iter
      (Printf.printf "merged cross-process trace written to %s (load in Perfetto)\n")
      f.trace_out;
    written "structured log" f.log_out;
    (not (checked f)) || print_checks o.Serve.checks

(* The run [sc] names (the flags' own when [None]), built and
   validated; it starts when the thunk is called. *)
let prepare f (sc : Corpus.t option) =
  let valid = function
    | Ok () -> ()
    | Error msg ->
      fail "run" "%s%s" (Option.fold sc ~none:"" ~some:(fun sc -> sc.Corpus.name ^ ": ")) msg
  in
  let p =
    params f
      (if f.live then
         Serve.to_experiment (Option.fold sc ~none:Serve.default ~some:Serve.of_corpus)
       else Option.fold sc ~none:E.default ~some:E.of_corpus)
  in
  if p.shards > 1 && (f.trace_out <> None || f.csv_out <> None) then
    fail "run" "--trace-out and --csv-out need --shards 1";
  valid (E.validate p);
  if f.live then (valid (Serve.supported p); fun () -> run_live f p) else fun () -> run_sim f p

let run f =
  let fail fmt = fail "run" fmt in
  if f.live && (f.csv_out <> None || f.json_out <> None) then
    fail "--csv-out and --json-out need the simulator (drop --live)";
  if Option.fold f.nemesis_faults ~none:false ~some:(fun k -> k < 0) then
    fail "--nemesis-faults must be >= 0";
  match f.scenario with
  | None -> if not (prepare f None ()) then exit 1
  | Some which ->
    let scenarios =
      match (which, Corpus.find which) with
      | "all", _ -> Corpus.all
      | _, Some sc -> [ sc ]
      | _, None ->
        fail "unknown scenario %S (have: all, %s)" which
          (String.concat ", " (Corpus.names ()))
    in
    let outputs =
      [ f.metrics_out; f.trace_out; f.log_out; f.csv_out; f.json_out ]
    in
    if List.length scenarios > 1 && List.exists Option.is_some outputs then
      fail "--scenario all takes no --*-out: each scenario would overwrite the file";
    (* Every scenario is validated before the first one starts. *)
    let runs = List.map (fun sc -> (sc, prepare f (Some sc))) scenarios in
    let failed =
      List.filter_map
        (fun ((sc : Corpus.t), go) ->
          Printf.printf "== %s (%s) ==\n%s\n" sc.name
            (if f.live then "live UDP" else "simulated")
            sc.summary;
          let ok = go () in
          Printf.printf "%s: %s\n\n" sc.name (if ok then "OK" else "FAILED");
          if ok then None else Some sc.name)
        runs
    in
    if failed = [] then print_endline "corpus: all scenarios OK"
    else begin
      Printf.printf "corpus: FAILED: %s\n" (String.concat ", " failed);
      exit 1
    end

let run_cmd =
  let open Term.Syntax in
  let flags =
    let+ plan = plan_term
    and+ live =
      bool_flag [ "live" ]
        "Run over real UDP sockets on 127.0.0.1, one OS process per node, on \
         wall-clock timers, instead of the simulator."
    and+ scenario =
      optional Arg.string [ "scenario" ] ~docv:"NAME"
        (Printf.sprintf
           "Start from a named corpus scenario (its nodes, load, duration, drain, \
            initial protocol, switch list and fault schedule), or run each with \
            $(b,all). Implies $(b,--check). Scenarios: %s."
           (String.concat ", " (Corpus.names ())))
    and+ load = load_arg
    and+ seed = seed_arg
    and+ duration =
      optional Arg.float [ "duration" ] ~docv:"MS" ~absent:(ms E.default.duration_ms)
        "Load generation horizon (virtual ms; wall-clock ms under $(b,--live))."
    and+ drain =
      optional Arg.float [ "drain" ] ~docv:"MS" ~absent:(ms E.default.drain_ms)
        "Time after the load stops for in-flight messages to come out."
    and+ switch_at =
      optional Arg.float [ "switch-at" ] ~docv:"MS" ~absent:(ms E.default.switch_at_ms)
        "When to trigger the replacement."
    and+ size =
      optional Arg.int [ "size" ] ~docv:"BYTES" ~absent:(string_of_int E.default.msg_size)
        "Modelled application payload size."
    and+ faults =
      Arg.(
        value & opt_all fault_conv []
        & info [ "fault" ] ~docv:"SPEC"
            ~doc:
              "Schedule a fault (repeatable). SPEC is one of crash@T:NODE, \
               recover@T:NODE, partition@T:0,1|2,3, heal@T, \
               loss@FROM-UNTIL:P, dup@FROM-UNTIL:P, \
               slow@FROM-UNTIL:SRC>DST:LAT_MS. A crash silences the node's \
               traffic (fail-silence) until a matching recover; one fault \
               shim interprets the schedule on both backends.")
    and+ nemesis_seed =
      optional Arg.int [ "nemesis-seed" ] ~docv:"SEED"
        "Additionally sample a random fault schedule from SEED."
    and+ nemesis_faults =
      optional Arg.int [ "nemesis-faults" ] ~docv:"K" "How many faults the nemesis draws."
    and+ check =
      bool_flag [ "check" ] "Verify every correctness property afterwards; exit 1 on a violation."
    and+ metrics_out =
      optional Arg.string [ "metrics-out" ] ~docv:"FILE"
        "Write a JSON metrics snapshot to FILE (per node, with transport counters, \
         under $(b,--live)); enables metrics collection."
    and+ trace_out =
      optional Arg.string [ "trace-out" ] ~docv:"FILE"
        "Record the kernel trace and write it to FILE as Chrome trace-event JSON \
         (load in Perfetto): per-message spans, the replacement windows, blocked \
         calls, switch triggers and the fault schedule as windows. Under \
         $(b,--live) every node records its trace on the shared epoch's time \
         axis (with start/stop marks) and the merged trace also feeds \
         $(b,--check)'s battery."
    and+ log_out =
      optional Arg.string [ "log-out" ] ~docv:"FILE"
        "Record the kernel trace and write its milestones (switch triggers, \
         installs, crashes, under $(b,--live) node start/stop) and the fault \
         schedule to FILE as JSONL, one object per line in time order."
    and+ switch_consensus_at =
      optional Arg.float [ "switch-consensus-at" ] ~docv:"MS"
        ~absent:(ms consensus_swap_at_ms)
        "When to trigger the consensus swap (simulator only)."
    and+ loss =
      optional Arg.float [ "loss" ] ~docv:"P" ~absent:(ms E.default.loss)
        "Datagram loss probability (simulator only)."
    and+ shards =
      optional Arg.int [ "shards" ] ~docv:"S" ~absent:(string_of_int E.default.shards)
        "Partition the nodes into $(docv) ABcast groups on one simulator."
    and+ stagger =
      optional Arg.float [ "stagger" ] ~docv:"MS" ~absent:(ms E.default.stagger_ms)
        "Delay between consecutive shards' switch triggers (simulator only)."
    and+ csv_out =
      optional Arg.string [ "csv-out" ] ~docv:"FILE"
        "Write the per-message latency series to FILE as CSV (simulator only)."
    and+ json_out =
      optional Arg.string [ "json-out" ] ~docv:"FILE"
        "Write the per-shard result to FILE as JSON, for $(b,report --shard) \
         (simulator only)."
    in
    {
      plan; live; scenario; load; seed; duration; drain; switch_at; size; faults;
      nemesis_seed; nemesis_faults; check; metrics_out; trace_out; log_out;
      switch_consensus_at; loss; shards; stagger; csv_out; json_out;
    }
  in
  let live = Serve.default in
  let doc =
    Printf.sprintf
      "Run the stack with a mid-stream protocol replacement, optionally under faults: \
       on the simulator, or with $(b,--live) as one OS process per node over UDP. A \
       flag left out keeps the base run's value: the simulator's default (shown as \
       \"absent\"), the $(b,--scenario)'s, or under $(b,--live) %d nodes, %g msg/s \
       of %d-byte messages for %g ms and a %g ms drain, seed %d, %s replaced by %s \
       at %g ms. Both backends run the same parameters; under $(b,--live) an \
       approach other than repl, a loss, more than one shard, the consensus layer, \
       $(b,--csv-out) and $(b,--json-out) are usage errors (exit 2)."
      live.n live.load live.msg_size live.duration_ms live.drain_ms live.seed live.initial
      (Option.value live.switch_to ~default:"none")
      live.switch_at_ms
  in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run $ flags)

(* ------------------------------------------------------------------ *)
(* figures                                                            *)
(* ------------------------------------------------------------------ *)

let fig5_cmd =
  let run n load seed = print_string (F.render_figure5 (F.figure5 ?n ?load ?seed ())) in
  Cmd.v
    (Cmd.info "fig5" ~doc:"Regenerate Figure 5 (latency around a replacement).")
    Term.(const run $ n_arg $ load_arg $ seed_arg)

let fig6_cmd =
  let loads =
    Arg.(
      value
      & opt (list float) [ 10.0; 20.0; 40.0; 60.0; 80.0 ]
      & info [ "loads" ] ~docv:"L1,L2,.." ~doc:"Loads to sweep.")
  in
  let ns =
    Arg.(value & opt (list int) [ 3; 7 ] & info [ "ns" ] ~docv:"N1,N2" ~doc:"Group sizes.")
  in
  let run ns loads seed jobs =
    print_string (F.render_figure6 (fst (F.figure6 ~ns ~loads ?seed ~jobs ())))
  in
  Cmd.v
    (Cmd.info "fig6" ~doc:"Regenerate Figure 6 (latency vs load).")
    Term.(const run $ ns $ loads $ seed_arg $ jobs_arg)

let headline_cmd =
  let run n load jobs = print_string (F.render_headline (fst (F.headline ?n ?load ~jobs ()))) in
  Cmd.v
    (Cmd.info "headline" ~doc:"Regenerate the headline numbers of §6.")
    Term.(const run $ n_arg $ load_arg $ jobs_arg)

let compare_cmd =
  (* The CLI compares at the simulator's default n, not the library
     function's. *)
  let run n load seed jobs =
    print_string
      (F.render_comparison
         (fst (F.compare_approaches ~n:(n |? E.default.n) ?load ?seed ~jobs ())))
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Quantify Repl vs Graceful Adaptation vs Maestro.")
    Term.(const run $ n_arg $ load_arg $ seed_arg $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* check — static composition verification, no simulation             *)
(* ------------------------------------------------------------------ *)

let shipped_configs =
  let base = { E.default with duration_ms = 0.0 } in
  [
    ("repl ct->ct", { base with approach = E.Repl });
    ("graceful ct->ct", { base with approach = E.Graceful });
    ("maestro ct->ct", { base with approach = E.Maestro });
    ("no-layer ct", { base with approach = E.No_layer; switch_to = None });
  ]
  (* the full old/new matrix over the shipped ABcast variants *)
  @ List.concat_map
      (fun initial ->
        List.map
          (fun target ->
            ( Printf.sprintf "repl %s->%s" initial target,
              { base with initial; switch_to = Some target } ))
          Dpu_core.Variants.all)
      Dpu_core.Variants.all
  @ [
      ( "repl seq->token, batched",
        {
          base with
          initial = Dpu_core.Variants.sequencer;
          switch_to = Some Dpu_core.Variants.token;
          batching = Some { Dpu_protocols.Batcher.max_batch = 16; max_delay_ms = 2.0 };
        } );
      ("repl ct, no switch", { base with switch_to = None });
      ( "repl ct->ct + consensus ct->paxos",
        {
          base with
          consensus_layer = Some Dpu_protocols.Consensus_ct.protocol_name;
          switch_consensus =
            Some (consensus_swap_at_ms, Dpu_protocols.Consensus_paxos.protocol_name);
        } );
    ]

let check_one ~label params =
  let reports = E.preflight params in
  let ok = Report.all_ok reports in
  Format.printf "@[<v>-- %s: %s@,%a@]@." label
    (if ok then "OK" else "REJECTED")
    Report.pp_all reports;
  (ok, reports)

let check plan no_epoch_buffer shipped json_out =
  let results =
    if shipped then List.map (fun (label, p) -> check_one ~label p) shipped_configs
    else
      [
        check_one ~label:"configuration"
          { (plan_over plan E.default) with epoch_buffer = not no_epoch_buffer };
      ]
  in
  (match json_out with
  | Some path ->
    let reports = List.concat_map snd results in
    Dpu_obs.Json.to_file path (Dpu_analysis.Composition.to_json reports);
    Printf.printf "verdicts written to %s\n" path
  | None -> ());
  if List.for_all fst results then
    print_endline "static composition check: all configurations OK"
  else begin
    print_endline "static composition check: FAILED";
    exit 1
  end

let check_cmd =
  let no_epoch_buffer =
    bool_flag [ "no-epoch-buffer" ]
      "Plan the stack without the future-epoch wire buffer. The \
       behavioural check rejects any switch under this flag: a \
       late-switching node would lose the successor's early traffic."
  in
  let shipped =
    bool_flag [ "shipped" ]
      "Verify every shipped configuration — the full old/new ABcast \
       pair matrix plus the batched and consensus-swap plans — instead \
       of one."
  in
  let json_out =
    optional Arg.string [ "json" ] ~docv:"FILE" "Write the verdicts to FILE as JSON."
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Statically verify a stack composition and update plan without running \
          any simulation (missing providers, provider cycles, duplicate \
          bindings, unsafe replacement plans).")
    Term.(const check $ plan_term $ no_epoch_buffer $ shipped $ json_out)

(* ------------------------------------------------------------------ *)
(* report — render observability artifacts as one HTML page           *)
(* ------------------------------------------------------------------ *)

let report metrics_path trace_path shard_path history_dir out title =
  let fail fmt = fail "report" fmt in
  let read_json path =
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error e -> fail "%s" e
    | content -> (
      match Dpu_obs.Json.of_string content with
      | Ok j -> j
      | Error e -> fail "%s: %s" path e)
  in
  let metrics = Option.map read_json metrics_path in
  let shard = Option.map read_json shard_path in
  let trace =
    Option.map
      (fun path ->
        match Dpu_obs.Trace_event.events_of_json (read_json path) with
        | Ok events -> events
        | Error e -> fail "%s: %s" path e)
      trace_path
  in
  let history =
    match history_dir with
    | None -> []
    | Some dir ->
      let entries =
        match Sys.readdir dir with
        | exception Sys_error e -> fail "%s" e
        | entries -> entries
      in
      (* Filename order IS the history order: name the files so they
         sort chronologically (zero-padded sequence numbers, dates, or
         CI run numbers). *)
      Array.sort String.compare entries;
      Array.to_list entries
      |> List.filter (fun f -> Filename.check_suffix f ".json")
      |> List.map (fun f ->
             (Filename.remove_extension f, read_json (Filename.concat dir f)))
  in
  if metrics = None && trace = None && shard = None && history = [] then
    fail "nothing to render: give at least one of --metrics, --trace, --shard, --history";
  let html = Dpu_obs.Report_html.render ?metrics ?trace ?shard ~history ~title () in
  Out_channel.with_open_text out (fun oc -> Out_channel.output_string oc html);
  (match trace with
  | Some events ->
    List.iter
      (fun (generation, (lo, hi)) ->
        Printf.printf "replacement gen=%d: %.1f..%.1f ms (window %.1f ms)\n"
          generation lo hi (hi -. lo))
      (Dpu_obs.Report_html.windows_of_events events)
  | None -> ());
  if history <> [] then
    Printf.printf "trend history: %d bench entries (%s .. %s)\n"
      (List.length history)
      (fst (List.hd history))
      (fst (List.nth history (List.length history - 1)));
  Printf.printf "report written to %s (%d bytes, self-contained HTML)\n" out
    (String.length html)

let report_cmd =
  let metrics =
    optional Arg.string [ "metrics" ] ~docv:"FILE"
      "Metrics snapshot to render latency-quantile tables from (either a \
       $(b,run --metrics-out) snapshot or a $(b,run --live --metrics-out) \
       per-node file)."
  in
  let trace =
    optional Arg.string [ "trace" ] ~docv:"FILE"
      "Chrome trace to render the replacement timeline from (a $(b,run \
       --trace-out) export, simulated or live)."
  in
  let shard =
    optional Arg.string [ "shard" ] ~docv:"FILE"
      "Per-shard run JSON (a $(b,run --json-out) export) to render \
       the per-shard quantile table and switch-window swimlane from."
  in
  let history =
    optional Arg.string [ "history" ] ~docv:"DIR"
      "Directory of BENCH_results.json files (sorted by filename = \
       chronological order) to render per-commit trend charts from."
  in
  let out =
    Arg.(
      value
      & opt string "dpu_report.html"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output HTML path.")
  in
  let title =
    Arg.(
      value
      & opt string "dpu run report"
      & info [ "title" ] ~docv:"TITLE" ~doc:"Page title.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render observability artifacts — a metrics snapshot, a merged Chrome \
          trace, a history of bench results — as one self-contained HTML page: \
          switch-window timeline, p50/p99/p999 latency tables, per-commit trend \
          charts.")
    Term.(const report $ metrics $ trace $ shard $ history $ out $ title)

let () =
  let doc = "Dynamic protocol update (IPDPS 2006) — simulation driver" in
  let info = Cmd.info "dpu_run" ~version:"1.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; fig5_cmd; fig6_cmd; headline_cmd; compare_cmd; check_cmd; report_cmd ]))
