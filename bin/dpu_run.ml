(* dpu_run — command-line front end for the DPU reproduction.

   Subcommands:
     scenario   run one simulated scenario with full parameter control
     fig5       regenerate Figure 5
     fig6       regenerate Figure 6
     headline   regenerate the §6 headline numbers
     compare    quantify Repl vs Graceful vs Maestro
     check      static composition verification, no simulation
     serve      live deployment over real UDP sockets (--nemesis/--scenario)
     corpus     adversarial replacement scenarios, sim or live
     report     render metrics/trace/shard/bench-history artifacts as HTML

   [scenario --shards S] runs S groups on one simulator. *)

open Cmdliner
module E = Dpu_workload.Experiment
module F = Dpu_workload.Figures
module Stats = Dpu_engine.Stats

(* ------------------------------------------------------------------ *)
(* Common arguments                                                   *)
(* ------------------------------------------------------------------ *)

let n_arg =
  Arg.(value & opt int 7 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of machines.")

let load_arg =
  Arg.(
    value & opt float 40.0
    & info [ "load" ] ~docv:"MSG/S" ~doc:"Aggregate ABcast load in messages per second.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Simulation seed.")

let jobs_arg =
  Arg.(
    value
    & opt int (Dpu_runtime.Sweep.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"JOBS"
        ~doc:
          "Fan independent experiment cells out to $(docv) worker processes. \
           Results are bit-identical for every $(docv). Defaults to \\$DPU_JOBS \
           or 1.")

(* One batching knob for every subcommand: [--batch K] is
   [Batcher.max_batch = K]; omitted, every path stays unbatched (the
   paper's one message per ordering round). *)
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
           under $(b,serve), up to K messages per UDP frame on egress). Omit \
           for the unbatched paths.")

(* The simulator's reading of [--batch K]. *)
let sim_batching =
  Option.map (fun k -> { Dpu_protocols.Batcher.default with max_batch = k })

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

(* ------------------------------------------------------------------ *)
(* scenario                                                           *)
(* ------------------------------------------------------------------ *)

let scenario n load seed duration switch_at initial switch_to approach loss batch check
    consensus_layer switch_consensus_to switch_consensus_at faults nemesis_seed
    nemesis_faults shards stagger drain metrics_out spans_out csv_out json_out log_out =
  let fail fmt =
    Printf.ksprintf (fun m -> Printf.eprintf "dpu_run scenario: %s\n" m; exit 2) fmt
  in
  (* The per-message exports and the faults are single-group for now. *)
  if
    shards > 1
    && (spans_out <> None || csv_out <> None || faults <> [] || nemesis_seed <> None
       || nemesis_faults <> None)
  then fail "--spans-out, --csv-out, --fault and --nemesis-* need --shards 1";
  let consensus_layer =
    if consensus_layer || switch_consensus_to <> None then
      Some Dpu_protocols.Consensus_ct.protocol_name
    else None
  in
  let switch_consensus =
    Option.map (fun prot -> (switch_consensus_at, prot)) switch_consensus_to
  in
  let faults =
    match nemesis_seed with
    | None -> faults
    | Some _ when n < 2 -> fail "--nemesis-seed needs at least 2 nodes"
    | Some seed ->
      faults
      @ Dpu_faults.Nemesis.generate
          ~rng:(Dpu_engine.Rng.create ~seed)
          ~n ~horizon_ms:duration ?faults:nemesis_faults ()
  in
  let obs_requested = metrics_out <> None || spans_out <> None || csv_out <> None in
  let params =
    {
      E.default with
      n;
      load;
      seed;
      duration_ms = duration;
      switch_at_ms = switch_at;
      initial;
      switch_to;
      approach;
      loss;
      batching = sim_batching batch;
      trace_enabled = check || spans_out <> None;
      metrics_enabled = obs_requested;
      consensus_layer;
      switch_consensus;
      faults;
      log_out;
      shards;
      stagger_ms = stagger;
      drain_ms = drain;
    }
  in
  (match E.validate params with Ok () -> () | Error msg -> fail "%s" msg);
  if faults <> [] then
    Format.printf "fault schedule: %a@." Dpu_faults.Schedule.pp faults;
  let r =
    match E.run params with
    | r -> r
    | exception E.Preflight_failure reports ->
      Format.printf "%a@?" Dpu_props.Report.pp_all reports;
      fail "the static composition check rejected the configuration"
  in
  (* Shard 0 is the whole run when there is one shard, the only case
     the per-message exports below accept. *)
  let s = r.E.per_shard.(0) in
  if shards > 1 then print_string (E.render_shards r)
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
    | None -> print_endline "no replacement performed");
    if s.E.blocked_ms > 0.0 then
      Printf.printf "application blocked for %.1f ms\n" s.E.blocked_ms
  end;
  (match metrics_out with
  | Some path ->
    Dpu_obs.Json.to_file path (Dpu_obs.Metrics.to_json r.E.metrics);
    Printf.printf "metrics snapshot written to %s\n" path
  | None -> ());
  (match spans_out with
  | Some path ->
    let events = Dpu_core.Spans.of_run ~trace:s.E.trace ~n s.E.collector in
    Dpu_obs.Json.to_file path (Dpu_core.Spans.to_json events);
    Printf.printf "%d trace events written to %s (load in Perfetto / chrome://tracing)\n"
      (List.length events) path
  | None -> ());
  (match csv_out with
  | Some path ->
    let rows =
      List.map
        (fun (p : Dpu_engine.Series.point) ->
          [ Printf.sprintf "%.3f" p.time; Printf.sprintf "%.3f" p.value ])
        (Dpu_engine.Series.points s.E.latency)
    in
    Dpu_obs.Csv.to_file path ~header:[ "send_time_ms"; "latency_ms" ] rows;
    Printf.printf "%d latency samples written to %s\n" (List.length rows) path
  | None -> ());
  (match json_out with
  | Some path ->
    Dpu_obs.Json.to_file path (E.to_json r);
    Printf.printf "result JSON written to %s\n" path
  | None -> ());
  (match log_out with
  | Some path -> Printf.printf "structured log written to %s\n" path
  | None -> ());
  if obs_requested then begin
    print_endline "--- observability summary ---";
    Format.printf "%a@?" Dpu_obs.Metrics.pp_summary r.E.metrics
  end;
  if check then begin
    let reports = E.check r in
    Format.printf "%a" Dpu_props.Report.pp_all reports;
    if not (Dpu_props.Report.all_ok reports) then exit 1
  end

let fault_conv =
  let parse s =
    match Dpu_faults.Schedule.event_of_spec s with
    | Ok e -> Ok e
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Dpu_faults.Schedule.pp_event)

let scenario_cmd =
  let duration =
    Arg.(
      value & opt float 10_000.0
      & info [ "duration" ] ~docv:"MS" ~doc:"Load generation horizon (virtual ms).")
  in
  let switch_at =
    Arg.(
      value & opt float 5_000.0
      & info [ "switch-at" ] ~docv:"MS" ~doc:"When to trigger the replacement.")
  in
  let initial =
    Arg.(
      value
      & opt string Dpu_core.Variants.ct
      & info [ "initial" ] ~docv:"PROTO"
          ~doc:"Initial ABcast variant (abcast.ct, abcast.seq, abcast.token).")
  in
  let switch_to =
    Arg.(
      value
      & opt (some string) (Some Dpu_core.Variants.ct)
      & info [ "switch-to" ] ~docv:"PROTO" ~doc:"Replacement target; omit for none.")
  in
  let approach =
    Arg.(
      value & opt approach_conv E.Repl
      & info [ "approach" ] ~docv:"A" ~doc:"repl | graceful | maestro | no-layer.")
  in
  let loss =
    Arg.(value & opt float 0.0 & info [ "loss" ] ~docv:"P" ~doc:"Datagram loss probability.")
  in
  let check =
    Arg.(value & flag & info [ "check" ] ~doc:"Verify all correctness properties afterwards.")
  in
  let consensus_layer =
    Arg.(
      value & flag
      & info [ "consensus-layer" ]
          ~doc:"Install the consensus replacement layer (implied by --switch-consensus-to).")
  in
  let switch_consensus_to =
    Arg.(
      value
      & opt (some string) None
      & info [ "switch-consensus-to" ] ~docv:"IMPL"
          ~doc:"Hot-swap consensus to IMPL (consensus.ct | consensus.paxos).")
  in
  let switch_consensus_at =
    Arg.(
      value & opt float 2_500.0
      & info [ "switch-consensus-at" ] ~docv:"MS"
          ~doc:"When to trigger the consensus swap.")
  in
  let faults =
    Arg.(
      value & opt_all fault_conv []
      & info [ "fault" ] ~docv:"SPEC"
          ~doc:
            "Schedule a fault (repeatable). SPEC is one of crash@T:NODE, \
             recover@T:NODE, partition@T:0,1|2,3, heal@T, \
             loss@FROM-UNTIL:P, dup@FROM-UNTIL:P, \
             slow@FROM-UNTIL:SRC>DST:LAT_MS.")
  in
  let nemesis_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "nemesis-seed" ] ~docv:"SEED"
          ~doc:"Additionally sample a random fault schedule from SEED.")
  in
  let nemesis_faults =
    Arg.(
      value
      & opt (some int) None
      & info [ "nemesis-faults" ] ~docv:"K"
          ~doc:"How many faults the nemesis draws (default 3).")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"Write a JSON metrics snapshot to FILE (enables metrics collection).")
  in
  let spans_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "spans-out" ] ~docv:"FILE"
          ~doc:
            "Write per-message spans and the replacement timeline to FILE as \
             Chrome trace-event JSON (load in Perfetto); implies tracing.")
  in
  let csv_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv-out" ] ~docv:"FILE"
          ~doc:"Write the per-message latency series to FILE as CSV.")
  in
  let shards =
    Arg.(
      value & opt int E.default.shards
      & info [ "shards" ] ~docv:"S"
          ~doc:"Partition the nodes into $(docv) ABcast groups on one simulator.")
  in
  let stagger =
    Arg.(
      value & opt float E.default.stagger_ms
      & info [ "stagger" ] ~docv:"MS"
          ~doc:"Delay between consecutive shards' switch triggers.")
  in
  let drain =
    Arg.(
      value & opt float E.default.drain_ms
      & info [ "drain" ] ~docv:"MS"
          ~doc:"Virtual time after the load stops for in-flight messages to come out.")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json-out" ] ~docv:"FILE"
          ~doc:"Write the per-shard result to FILE as JSON (for $(b,report --shard)).")
  in
  let log_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "log-out" ] ~docv:"FILE"
          ~doc:
            "Write structured JSONL milestone logs to FILE, stamped on the \
             virtual clock (identical runs produce identical files).")
  in
  let term =
    Term.(
      const scenario $ n_arg $ load_arg $ seed_arg $ duration $ switch_at $ initial
      $ switch_to $ approach $ loss $ batch_arg $ check $ consensus_layer
      $ switch_consensus_to $ switch_consensus_at $ faults $ nemesis_seed
      $ nemesis_faults $ shards $ stagger $ drain $ metrics_out $ spans_out $ csv_out
      $ json_out $ log_out)
  in
  Cmd.v
    (Cmd.info "scenario"
       ~doc:
         "Run one simulated group-communication scenario: one group, or \
          $(b,--shards) independent groups on one simulator.")
    term

(* ------------------------------------------------------------------ *)
(* figures                                                            *)
(* ------------------------------------------------------------------ *)

let fig5_cmd =
  let run n load seed = print_string (F.render_figure5 (F.figure5 ~n ~load ~seed ())) in
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
    print_string (F.render_figure6 (fst (F.figure6 ~ns ~loads ~seed ~jobs ())))
  in
  Cmd.v
    (Cmd.info "fig6" ~doc:"Regenerate Figure 6 (latency vs load).")
    Term.(const run $ ns $ loads $ seed_arg $ jobs_arg)

let headline_cmd =
  let run n load jobs = print_string (F.render_headline (fst (F.headline ~n ~load ~jobs ()))) in
  Cmd.v
    (Cmd.info "headline" ~doc:"Regenerate the headline numbers of §6.")
    Term.(const run $ n_arg $ load_arg $ jobs_arg)

let compare_cmd =
  let run n load seed jobs =
    print_string (F.render_comparison (fst (F.compare_approaches ~n ~load ~seed ~jobs ())))
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
          switch_consensus = Some (2_500.0, Dpu_protocols.Consensus_paxos.protocol_name);
        } );
    ]

let check_one ~label params =
  let reports = E.preflight params in
  let ok = Dpu_props.Report.all_ok reports in
  Format.printf "@[<v>-- %s: %s@,%a@]@." label
    (if ok then "OK" else "REJECTED")
    Dpu_props.Report.pp_all reports;
  (ok, reports)

let check n initial switch_to approach batch consensus_layer switch_consensus_to
    no_epoch_buffer shipped json_out =
  let results =
    if shipped then List.map (fun (label, p) -> check_one ~label p) shipped_configs
    else begin
      let consensus_layer =
        if consensus_layer || switch_consensus_to <> None then
          Some Dpu_protocols.Consensus_ct.protocol_name
        else None
      in
      let params =
        {
          E.default with
          n;
          initial;
          switch_to;
          approach;
          batching = sim_batching batch;
          consensus_layer;
          switch_consensus =
            Option.map (fun prot -> (2_500.0, prot)) switch_consensus_to;
          epoch_buffer = not no_epoch_buffer;
        }
      in
      [ check_one ~label:"configuration" params ]
    end
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
  let initial =
    Arg.(
      value
      & opt string Dpu_core.Variants.ct
      & info [ "initial" ] ~docv:"PROTO" ~doc:"Initial ABcast variant.")
  in
  let switch_to =
    Arg.(
      value
      & opt (some string) (Some Dpu_core.Variants.ct)
      & info [ "switch-to" ] ~docv:"PROTO" ~doc:"Replacement target; omit for none.")
  in
  let approach =
    Arg.(
      value & opt approach_conv E.Repl
      & info [ "approach" ] ~docv:"A" ~doc:"repl | graceful | maestro | no-layer.")
  in
  let consensus_layer =
    Arg.(
      value & flag
      & info [ "consensus-layer" ]
          ~doc:"Install the consensus replacement layer (implied by --switch-consensus-to).")
  in
  let switch_consensus_to =
    Arg.(
      value
      & opt (some string) None
      & info [ "switch-consensus-to" ] ~docv:"IMPL"
          ~doc:"Plan a consensus hot-swap to IMPL (consensus.ct | consensus.paxos).")
  in
  let no_epoch_buffer =
    Arg.(
      value & flag
      & info [ "no-epoch-buffer" ]
          ~doc:
            "Plan the stack without the future-epoch wire buffer. The \
             behavioural check rejects any switch under this flag: a \
             late-switching node would lose the successor's early traffic.")
  in
  let shipped =
    Arg.(
      value & flag
      & info [ "shipped" ]
          ~doc:
            "Verify every shipped configuration — the full old/new ABcast \
             pair matrix plus the batched and consensus-swap plans — instead \
             of one.")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the verdicts to FILE as JSON.")
  in
  let term =
    Term.(
      const check $ n_arg $ initial $ switch_to $ approach $ batch_arg $ consensus_layer
      $ switch_consensus_to $ no_epoch_buffer $ shipped $ json_out)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Statically verify a stack composition and update plan without running \
          any simulation (missing providers, provider cycles, duplicate \
          bindings, unsafe replacement plans).")
    term

(* ------------------------------------------------------------------ *)
(* serve — live deployment over real UDP sockets                      *)
(* ------------------------------------------------------------------ *)

let corpus_switches (sc : Dpu_faults.Corpus.t) =
  List.map
    (fun (s : Dpu_faults.Corpus.switch) ->
      (s.Dpu_faults.Corpus.sw_at, s.Dpu_faults.Corpus.sw_node, s.Dpu_faults.Corpus.sw_to))
    sc.Dpu_faults.Corpus.switches

let serve n load duration drain switch_at initial switch_to seed msg_size batching
    check nemesis scenario_name metrics_out spans_out trace_out logs_dir =
  let params =
    {
      Dpu_live.Serve.n;
      load;
      duration_ms = duration;
      drain_ms = drain;
      switch_at_ms = switch_at;
      initial;
      switch_to;
      switches = [];
      nemesis;
      msg_size;
      seed;
      batching;
    }
  in
  let params =
    match scenario_name with
    | None -> params
    | Some name -> (
      match Dpu_faults.Corpus.find name with
      | None ->
        Printf.eprintf "dpu_run serve: unknown scenario %S (have: %s)\n" name
          (String.concat ", " (Dpu_faults.Corpus.names ()));
        exit 2
      | Some sc ->
        Printf.printf "scenario %s: %s\n" sc.Dpu_faults.Corpus.name
          sc.Dpu_faults.Corpus.summary;
        {
          params with
          Dpu_live.Serve.n = sc.Dpu_faults.Corpus.n;
          load = sc.Dpu_faults.Corpus.load;
          duration_ms = sc.Dpu_faults.Corpus.duration_ms;
          drain_ms = sc.Dpu_faults.Corpus.drain_ms;
          initial = sc.Dpu_faults.Corpus.initial;
          switch_to = None;
          switches = corpus_switches sc;
          nemesis = sc.Dpu_faults.Corpus.schedule;
        })
  in
  Printf.printf "serving %d nodes over UDP on 127.0.0.1 (%.0f msg/s for %.0f ms)\n%!"
    params.Dpu_live.Serve.n params.Dpu_live.Serve.load
    params.Dpu_live.Serve.duration_ms;
  if params.Dpu_live.Serve.nemesis <> [] then
    Format.printf "fault schedule: %a@.%!" Dpu_faults.Schedule.pp
      params.Dpu_live.Serve.nemesis;
  match Dpu_live.Serve.run ?metrics_out ?spans_out ?trace_out ?logs_dir params with
  | Error msg ->
    Printf.eprintf "dpu_run serve: %s\n" msg;
    exit 2
  | Ok o ->
    let module C = Dpu_core.Collector in
    let module T = Dpu_runtime.Transport in
    let module FT = Dpu_faults.Fault_transport in
    List.iter
      (fun (r : Dpu_live.Node.report) ->
        let c = r.Dpu_live.Node.counters in
        Printf.printf
          "node %d: sent %d, delivered %d; wire: %d out / %d in / %d dropped, %d bytes\n"
          r.Dpu_live.Node.node
          (List.length r.Dpu_live.Node.sends)
          (List.length r.Dpu_live.Node.delivers)
          c.T.sent c.T.delivered c.T.dropped c.T.bytes;
        (match r.Dpu_live.Node.batches with
        | None -> ()
        | Some b ->
          Printf.printf "node %d: %d egress batches carrying %d msgs (avg %.1f/frame)\n"
            r.Dpu_live.Node.node b.T.batches_sent b.T.batched_msgs
            (if b.T.batches_sent = 0 then 0.0
             else float_of_int b.T.batched_msgs /. float_of_int b.T.batches_sent));
        if r.Dpu_live.Node.rx_errors > 0 then
          Printf.printf "node %d: survived %d receive errors\n"
            r.Dpu_live.Node.node r.Dpu_live.Node.rx_errors;
        match r.Dpu_live.Node.faults with
        | None -> ()
        | Some f ->
          Printf.printf
            "node %d faults: crash-blocked %d, partition-blocked %d, lost %d, \
             duplicated %d, delayed %d, rx-blocked %d\n"
            r.Dpu_live.Node.node f.FT.blocked_crash f.FT.blocked_partition
            f.FT.injected_loss f.FT.injected_dup f.FT.delayed f.FT.rx_blocked)
      o.Dpu_live.Serve.node_reports;
    let collector = o.Dpu_live.Serve.collector in
    let planned =
      (match params.Dpu_live.Serve.switch_to with
      | Some p -> [ (params.Dpu_live.Serve.switch_at_ms, 0, p) ]
      | None -> [])
      @ params.Dpu_live.Serve.switches
    in
    if planned = [] then print_endline "no replacement requested"
    else
      List.iteri
        (fun i (_, _, proto) ->
          let generation = i + 1 in
          match C.switch_window collector ~generation with
          | Some (lo, hi) ->
            Printf.printf
              "replacement to %s: %.1f..%.1f ms (window %.1f ms), %d/%d nodes\n"
              proto lo hi (hi -. lo)
              (List.length
                 (List.filter
                    (fun (_, g, _) -> g = generation)
                    (C.switches collector)))
              params.Dpu_live.Serve.n
          | None -> Printf.printf "replacement to %s: never completed\n" proto)
        planned;
    (match metrics_out with
    | Some path -> Printf.printf "per-node metrics written to %s\n" path
    | None -> ());
    (match spans_out with
    | Some path ->
      Printf.printf "merged trace events written to %s (load in Perfetto)\n" path
    | None -> ());
    (match trace_out with
    | Some path ->
      Printf.printf
        "merged cross-process trace written to %s (load in Perfetto)\n" path
    | None -> ());
    (match logs_dir with
    | Some dir -> Printf.printf "per-node JSONL logs written to %s/\n" dir
    | None -> ());
    if check then begin
      let checks = o.Dpu_live.Serve.checks in
      Format.printf "%a" Dpu_props.Report.pp_all checks;
      if not (Dpu_props.Report.all_ok checks) then exit 1
    end

let serve_cmd =
  let nodes =
    Arg.(value & opt int 3 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"OS processes to launch.")
  in
  let load =
    Arg.(
      value & opt float 30.0
      & info [ "load" ] ~docv:"MSG/S" ~doc:"Aggregate ABcast load in messages per second.")
  in
  let duration =
    Arg.(
      value & opt float 3_000.0
      & info [ "duration" ] ~docv:"MS" ~doc:"Load generation horizon (wall-clock ms).")
  in
  let drain =
    Arg.(
      value & opt float 1_500.0
      & info [ "drain" ] ~docv:"MS" ~doc:"Settle time after the load stops.")
  in
  let switch_at =
    Arg.(
      value & opt float 1_500.0
      & info [ "switch-at" ] ~docv:"MS" ~doc:"When node 0 triggers the replacement.")
  in
  let initial =
    Arg.(
      value
      & opt string Dpu_core.Variants.ct
      & info [ "initial" ] ~docv:"PROTO" ~doc:"Initial ABcast variant.")
  in
  let switch_to =
    Arg.(
      value
      & opt (some string) (Some Dpu_core.Variants.sequencer)
      & info [ "switch-to" ] ~docv:"PROTO" ~doc:"Replacement target; omit for none.")
  in
  let msg_size =
    Arg.(
      value & opt int 1_024
      & info [ "size" ] ~docv:"BYTES" ~doc:"Modelled application payload size.")
  in
  let check =
    Arg.(
      value & opt bool true
      & info [ "check" ] ~docv:"BOOL"
          ~doc:"Verify the atomic broadcast properties on the merged trace.")
  in
  let nemesis =
    Arg.(
      value & opt_all fault_conv []
      & info [ "nemesis" ] ~docv:"SPEC"
          ~doc:
            "Schedule a network fault against the live deployment (repeatable). \
             SPEC is one of crash@T:NODE, recover@T:NODE, partition@T:0,1|2,3, \
             heal@T, loss@FROM-UNTIL:P, dup@FROM-UNTIL:P, \
             slow@FROM-UNTIL:SRC>DST:LAT_MS. Interpreted by a fault shim behind \
             the transport seam in every node process.")
  in
  let scenario_name =
    Arg.(
      value
      & opt (some string) None
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:
            "Run a named corpus scenario (overrides -n, --load, --duration, \
             --drain, --initial, --switch-to and installs its fault schedule). \
             See $(b,dpu_run corpus) for the list.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"Write per-node metrics and transport counters to FILE as JSON.")
  in
  let spans_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "spans-out" ] ~docv:"FILE"
          ~doc:"Write the merged per-message spans to FILE as Chrome trace-event JSON.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Turn per-node trace recording on and write ONE merged Chrome trace \
             to FILE: per-message spans, each process's own events (switch \
             triggers, fault injections, start/stop marks) and the nemesis \
             schedule as fault windows, all on the shared epoch's time axis.")
  in
  let logs_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "logs-out" ] ~docv:"DIR"
          ~doc:
            "Give each node process a structured JSONL log file \
             (DIR/node-<i>.jsonl, created on demand).")
  in
  let term =
    Term.(
      const serve $ nodes $ load $ duration $ drain $ switch_at $ initial $ switch_to
      $ seed_arg $ msg_size $ batch_arg $ check $ nemesis $ scenario_name
      $ metrics_out $ spans_out $ trace_out $ logs_dir)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the stack live: one OS process per node, real UDP sockets on \
          localhost, wall-clock timers, with a mid-stream protocol replacement — \
          optionally under a scripted fault schedule (--nemesis / --scenario). \
          The same code that runs under the simulator, on the live runtime \
          backend.")
    term

(* ------------------------------------------------------------------ *)
(* corpus — the adversarial replacement scenarios, sim or live        *)
(* ------------------------------------------------------------------ *)

let corpus only live seed msg_size =
  let module Corpus = Dpu_faults.Corpus in
  let module S = Dpu_workload.Scenario in
  let scenarios =
    match only with
    | None -> Corpus.all
    | Some name -> (
      match Corpus.find name with
      | Some sc -> [ sc ]
      | None ->
        Printf.eprintf "dpu_run corpus: unknown scenario %S (have: %s)\n" name
          (String.concat ", " (Corpus.names ()));
        exit 2)
  in
  let failures = ref [] in
  List.iter
    (fun (sc : Corpus.t) ->
      Printf.printf "== %s (%s) ==\n" sc.Corpus.name
        (if live then "live UDP" else "simulated");
      Printf.printf "%s\n" sc.Corpus.summary;
      Format.printf "fault schedule: %a@.%!" Dpu_faults.Schedule.pp
        sc.Corpus.schedule;
      let ok =
        if live then begin
          let params =
            {
              Dpu_live.Serve.n = sc.Corpus.n;
              load = sc.Corpus.load;
              duration_ms = sc.Corpus.duration_ms;
              drain_ms = sc.Corpus.drain_ms;
              switch_at_ms = 0.0;
              initial = sc.Corpus.initial;
              switch_to = None;
              switches = corpus_switches sc;
              nemesis = sc.Corpus.schedule;
              msg_size;
              seed;
              batching = None;
            }
          in
          match Dpu_live.Serve.run params with
          | Error msg ->
            Printf.printf "run failed: %s\n" msg;
            false
          | Ok o ->
            Format.printf "%a" Dpu_props.Report.pp_all o.Dpu_live.Serve.checks;
            Dpu_props.Report.all_ok o.Dpu_live.Serve.checks
        end
        else begin
          let r = S.run_sim ~seed sc in
          List.iter
            (fun (generation, window) ->
              match window with
              | Some (lo, hi) ->
                Printf.printf "generation %d installed: %.1f..%.1f ms\n"
                  generation lo hi
              | None -> Printf.printf "generation %d: not installed\n" generation)
            r.S.switch_windows;
          Format.printf "%a" Dpu_props.Report.pp_all r.S.reports;
          S.ok r
        end
      in
      Printf.printf "%s: %s\n\n" sc.Corpus.name (if ok then "OK" else "FAILED");
      if not ok then failures := sc.Corpus.name :: !failures)
    scenarios;
  match List.rev !failures with
  | [] -> print_endline "corpus: all scenarios OK"
  | failed ->
    Printf.printf "corpus: FAILED: %s\n" (String.concat ", " failed);
    exit 1

let corpus_cmd =
  let only =
    Arg.(
      value
      & opt (some string) None
      & info [ "only" ] ~docv:"NAME" ~doc:"Run a single scenario instead of all.")
  in
  let live =
    Arg.(
      value & flag
      & info [ "live" ]
          ~doc:
            "Run over real UDP sockets (one process per node) instead of the \
             simulator. Same scenario values, same fault shim, different clock.")
  in
  let msg_size =
    Arg.(
      value & opt int 1_024
      & info [ "size" ] ~docv:"BYTES" ~doc:"Modelled application payload size.")
  in
  Cmd.v
    (Cmd.info "corpus"
       ~doc:
         "Run the adversarial replacement scenario corpus — replacements under \
          partitions, races, coordinator crashes, rollbacks and cascades — and \
          check the full atomic broadcast battery on every merged trace. \
          Defaults to the simulator; --live replays the same schedules over \
          real UDP sockets.")
    Term.(const corpus $ only $ live $ seed_arg $ msg_size)

(* ------------------------------------------------------------------ *)
(* report — render observability artifacts as one HTML page           *)
(* ------------------------------------------------------------------ *)

let report metrics_path trace_path shard_path history_dir out title =
  let fail fmt = Printf.ksprintf (fun m -> Printf.eprintf "dpu_run report: %s\n" m; exit 2) fmt in
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
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Metrics snapshot to render latency-quantile tables from (either a \
             $(b,scenario --metrics-out) snapshot or a $(b,serve --metrics-out) \
             per-node file).")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Chrome trace to render the replacement timeline from (a $(b,serve \
             --trace-out) merged trace or a --spans-out export).")
  in
  let shard =
    Arg.(
      value
      & opt (some string) None
      & info [ "shard" ] ~docv:"FILE"
          ~doc:
            "Per-shard run JSON (a $(b,scenario --json-out) export) to render \
             the per-shard quantile table and switch-window swimlane from.")
  in
  let history =
    Arg.(
      value
      & opt (some string) None
      & info [ "history" ] ~docv:"DIR"
          ~doc:
            "Directory of BENCH_results.json files (sorted by filename = \
             chronological order) to render per-commit trend charts from.")
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
          [
            scenario_cmd;
            fig5_cmd;
            fig6_cmd;
            headline_cmd;
            compare_cmd;
            check_cmd;
            serve_cmd;
            corpus_cmd;
            report_cmd;
          ]))
