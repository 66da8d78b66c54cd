(* Tests for the Dpu_faults subsystem: schedules on a simulated cluster
   and the fault shim that interprets them, spec parsing, validation,
   nemesis determinism, the scenario corpus, and full-harness soaks
   that replace the ABcast protocol *during* each fault class with
   every §5 property checked across the switch. *)

module Sim = Dpu_engine.Sim
module Clock = Dpu_runtime.Clock
module Rng = Dpu_engine.Rng
module Latency = Dpu_net.Latency
module Datagram = Dpu_net.Datagram
module Schedule = Dpu_faults.Schedule
module Nemesis = Dpu_faults.Nemesis
module FT = Dpu_faults.Fault_transport
module RT = Dpu_runtime.Transport
module Runtime = Dpu_runtime.Runtime
module Corpus = Dpu_faults.Corpus
module E = Dpu_workload.Experiment
module MW = Dpu_core.Middleware
module Collector = Dpu_core.Collector

let check = Alcotest.check
let fail = Alcotest.fail

(* ------------------------------------------------------------------ *)
(* Schedules on a simulated cluster: [Middleware.config.faults]       *)
(* ------------------------------------------------------------------ *)

(* A cluster whose config carries [faults]: the schedule reaches the
   stacks through the fault shim Middleware wraps around the simulated
   network. Node 0 of three broadcasts at each of [times]; the run
   drains. *)
let run_cluster ~times faults =
  let config = { MW.default_config with seed = 7; msg_size = 100; faults } in
  let mw = MW.create ~config ~n:3 () in
  let clock = Dpu_kernel.System.clock (MW.system mw) in
  List.iter
    (fun t ->
      Clock.defer clock ~delay:t (fun () ->
          ignore (MW.broadcast mw ~node:0 (Printf.sprintf "at %g" t) : Dpu_kernel.Msg.t)))
    times;
  MW.run_until_quiescent ~limit:5_000.0 mw;
  mw

(* Every node ends with node 0's full delivery sequence. *)
let check_caught_up ~what ~sent mw =
  let collector = MW.collector mw in
  let ids node = List.map fst (Collector.delivers_of collector ~node) in
  check Alcotest.int (what ^ ": node 0 delivered everything") sent (List.length (ids 0));
  List.iter
    (fun node ->
      check Alcotest.bool
        (Printf.sprintf "%s: node %d has node 0's sequence" what node)
        true
        (ids node = ids 0))
    (List.init (MW.n mw) Fun.id)

let test_crash_recover_schedule () =
  let times = [ 50.0; 300.0; 900.0 ] in
  let mw = run_cluster ~times [ Schedule.crash ~at:100.0 2; Schedule.recover ~at:600.0 2 ] in
  check Alcotest.bool "the crash silenced traffic" true
    ((MW.fault_stats mw).FT.blocked_crash > 0);
  check (Alcotest.list Alcotest.int) "fail-silence, not fail-stop" [ 0; 1; 2 ]
    (Dpu_kernel.System.correct_nodes (MW.system mw));
  check_caught_up ~what:"recovered" ~sent:3 mw

let test_loss_window_schedule () =
  let times = [ 50.0; 150.0; 400.0 ] in
  let mw = run_cluster ~times [ Schedule.loss_window ~p:1.0 ~from_:100.0 ~until:200.0 ] in
  check Alcotest.bool "frames lost inside the window" true
    ((MW.fault_stats mw).FT.injected_loss > 0);
  check_caught_up ~what:"after the window" ~sent:3 mw

let test_dup_burst_schedule () =
  let times = [ 50.0; 150.0; 400.0 ] in
  let mw = run_cluster ~times [ Schedule.dup_burst ~p:1.0 ~from_:100.0 ~until:200.0 ] in
  check Alcotest.bool "frames duplicated inside the burst" true
    ((MW.fault_stats mw).FT.injected_dup > 0);
  check_caught_up ~what:"no double delivery" ~sent:3 mw

let test_degrade_link_schedule () =
  let times = [ 50.0; 150.0; 400.0 ] in
  let mw =
    run_cluster ~times
      [
        Schedule.degrade_link ~src:0 ~dst:1 ~link:(Latency.constant 40.0) ~from_:100.0
          ~until:200.0;
      ]
  in
  check Alcotest.bool "frames deferred on the slow link" true
    ((MW.fault_stats mw).FT.delayed > 0);
  check_caught_up ~what:"slow link" ~sent:3 mw

let test_partition_heal_schedule () =
  let times = [ 50.0; 300.0; 900.0 ] in
  let mw =
    run_cluster ~times
      [ Schedule.partition ~at:100.0 [ [ 0; 1 ]; [ 2 ] ]; Schedule.heal ~at:600.0 ]
  in
  check Alcotest.bool "cross-partition frames absorbed" true
    ((MW.fault_stats mw).FT.blocked_partition > 0);
  check_caught_up ~what:"healed" ~sent:3 mw;
  let clean = run_cluster ~times [] in
  check Alcotest.bool "no schedule, no ledger" true (MW.fault_stats clean = FT.no_stats)

(* ------------------------------------------------------------------ *)
(* Fault_transport: the shim behind the Transport seam                *)
(* ------------------------------------------------------------------ *)

(* The shim wrapped around the simulated backend — the sim stands in
   for "any transport"; the live variant is exercised in test_live. *)
let make_shim ?(n = 3) ?(seed = 11) schedule =
  let sim = Sim.create ~seed () in
  let net = Datagram.create sim ~n ~loss:0.0 ~link:(Latency.constant 1.0) () in
  let rt = Dpu_runtime.Sim_backend.runtime sim net in
  let shim =
    FT.create ~seed:(seed + 1) ~schedule ~clock:(Runtime.clock rt)
      (Runtime.transport rt)
  in
  (sim, shim, FT.transport shim)

let shim_inbox tr node =
  let log = ref [] in
  RT.set_handler tr ~node (fun ~src p -> log := (src, p) :: !log);
  log

let send_at sim tr t ~src ~dst tag =
  ignore
    (Sim.schedule_at sim ~time:t (fun () ->
         RT.send tr ~src ~dst ~size_bytes:10 tag))

let tags box = List.rev_map snd !box

let test_shim_crash_blocks_both_directions () =
  let sim, shim, tr =
    make_shim [ Schedule.crash ~at:10.0 1; Schedule.recover ~at:20.0 1 ]
  in
  let inbox0 = shim_inbox tr 0 and inbox1 = shim_inbox tr 1 in
  send_at sim tr 5.0 ~src:0 ~dst:1 "before";
  send_at sim tr 15.0 ~src:0 ~dst:1 "to-crashed";
  send_at sim tr 15.0 ~src:1 ~dst:0 "from-crashed";
  send_at sim tr 25.0 ~src:0 ~dst:1 "after";
  Sim.run sim;
  check (Alcotest.list Alcotest.string) "crashed node silent, then back"
    [ "before"; "after" ] (tags inbox1);
  check (Alcotest.list Alcotest.string) "nothing escapes the crashed node" []
    (tags inbox0);
  check Alcotest.int "both directions absorbed" 2 (FT.stats shim).FT.blocked_crash

let test_shim_partition_symmetry () =
  (* Nodes 2 and 3 appear in no group: they form the implicit leftover
     group, mirroring Datagram.partition. Blocking is symmetric. *)
  let sim, shim, tr =
    make_shim ~n:4
      [ Schedule.partition ~at:10.0 [ [ 0; 1 ] ]; Schedule.heal ~at:20.0 ]
  in
  let boxes = Array.init 4 (fun node -> shim_inbox tr node) in
  send_at sim tr 15.0 ~src:0 ~dst:1 "same-group";
  send_at sim tr 15.0 ~src:2 ~dst:3 "leftover-group";
  send_at sim tr 15.0 ~src:0 ~dst:2 "cross-a";
  send_at sim tr 15.0 ~src:2 ~dst:0 "cross-b";
  send_at sim tr 25.0 ~src:0 ~dst:2 "healed";
  Sim.run sim;
  check (Alcotest.list Alcotest.string) "inside a named group" [ "same-group" ]
    (tags boxes.(1));
  check (Alcotest.list Alcotest.string) "inside the implicit group"
    [ "leftover-group" ] (tags boxes.(3));
  check (Alcotest.list Alcotest.string) "cross-group only after heal"
    [ "healed" ] (tags boxes.(2));
  check (Alcotest.list Alcotest.string) "symmetric: nothing crossed back" []
    (tags boxes.(0));
  check Alcotest.int "both crossings absorbed" 2
    (FT.stats shim).FT.blocked_partition

let test_shim_loss_window_halfopen () =
  let sim, shim, tr =
    make_shim [ Schedule.loss_window ~p:1.0 ~from_:10.0 ~until:20.0 ] in
  let inbox1 = shim_inbox tr 1 in
  send_at sim tr 5.0 ~src:0 ~dst:1 "before";
  send_at sim tr 10.0 ~src:0 ~dst:1 "opens";
  send_at sim tr 15.0 ~src:0 ~dst:1 "inside";
  send_at sim tr 20.0 ~src:0 ~dst:1 "closes";
  send_at sim tr 25.0 ~src:0 ~dst:1 "after";
  Sim.run sim;
  (* [from_, until): the opening instant is inside, the closing instant
     restores the pre-window behaviour. *)
  check (Alcotest.list Alcotest.string) "half-open window"
    [ "before"; "closes"; "after" ] (tags inbox1);
  check Alcotest.int "losses charged to the shim" 2
    (FT.stats shim).FT.injected_loss;
  let c = FT.counters shim in
  check Alcotest.int "absorbed frames still count as sent" 5 c.RT.sent;
  check Alcotest.int "delivered" 3 c.RT.delivered;
  check Alcotest.int "dropped" 2 c.RT.dropped;
  check Alcotest.int "sent = delivered + dropped" c.RT.sent
    (c.RT.delivered + c.RT.dropped)

let test_shim_dup_burst () =
  let sim, shim, tr =
    make_shim [ Schedule.dup_burst ~p:1.0 ~from_:10.0 ~until:20.0 ] in
  let inbox1 = shim_inbox tr 1 in
  send_at sim tr 15.0 ~src:0 ~dst:1 "inside";
  send_at sim tr 25.0 ~src:0 ~dst:1 "outside";
  Sim.run sim;
  let copies tag = List.length (List.filter (( = ) tag) (tags inbox1)) in
  check Alcotest.int "duplicated inside" 2 (copies "inside");
  check Alcotest.int "single outside" 1 (copies "outside");
  check Alcotest.int "dup charged to the shim" 1 (FT.stats shim).FT.injected_dup

let test_shim_degrade_delay () =
  let sim, shim, tr =
    make_shim
      [
        Schedule.degrade_link ~src:0 ~dst:1 ~link:(Latency.constant 40.0)
          ~from_:10.0 ~until:20.0;
      ]
  in
  let arrivals = ref [] in
  RT.set_handler tr ~node:1 (fun ~src:_ tag ->
      arrivals := (tag, Sim.now sim) :: !arrivals);
  send_at sim tr 12.0 ~src:0 ~dst:1 "slow";
  send_at sim tr 25.0 ~src:0 ~dst:1 "fast";
  Sim.run sim;
  let time_of tag = List.assoc tag !arrivals in
  (* The degraded-link delay stacks on top of the base 1 ms link. *)
  check (Alcotest.float 1e-6) "deferred inside the window" 53.0 (time_of "slow");
  check (Alcotest.float 1e-6) "restored outside" 26.0 (time_of "fast");
  check Alcotest.int "delay charged to the shim" 1 (FT.stats shim).FT.delayed

let test_shim_rx_blocks_in_flight () =
  (* A frame sent just before the partition opens is still in flight
     when it lands: the receive-side re-check must absorb it. *)
  let sim, shim, tr =
    make_shim [ Schedule.partition ~at:10.0 [ [ 0 ]; [ 1; 2 ] ] ] in
  let inbox1 = shim_inbox tr 1 in
  send_at sim tr 9.5 ~src:0 ~dst:1 "in-flight";
  Sim.run sim;
  check (Alcotest.list Alcotest.string) "absorbed at arrival" [] (tags inbox1);
  check Alcotest.int "rx-side absorption counted" 1
    (FT.stats shim).FT.rx_blocked;
  let c = FT.counters shim in
  check Alcotest.int "delivered excludes the blocked frame" 0 c.RT.delivered;
  check Alcotest.int "dropped includes it" 1 c.RT.dropped;
  check Alcotest.int "sent = delivered + dropped" c.RT.sent
    (c.RT.delivered + c.RT.dropped)

let test_shim_replay_deterministic () =
  (* Probabilistic faults draw from the shim's private RNG: same seeds,
     same schedule, byte-identical interleaving — twice. *)
  let run_once () =
    let sim, shim, tr =
      make_shim
        [
          Schedule.loss_window ~p:0.4 ~from_:10.0 ~until:60.0;
          Schedule.dup_burst ~p:0.3 ~from_:30.0 ~until:80.0;
        ]
    in
    let log = ref [] in
    RT.set_handler tr ~node:1 (fun ~src tag ->
        log := (src, tag, Sim.now sim) :: !log);
    for i = 0 to 49 do
      send_at sim tr
        (1.0 +. (1.5 *. float_of_int i))
        ~src:0 ~dst:1 (string_of_int i)
    done;
    Sim.run sim;
    (List.rev !log, FT.stats shim)
  in
  let log1, stats1 = run_once () in
  let log2, stats2 = run_once () in
  check Alcotest.bool "same delivery interleaving" true (log1 = log2);
  check Alcotest.bool "same fault accounting" true (stats1 = stats2);
  (* The schedule actually bit — this is not vacuous. *)
  check Alcotest.bool "losses happened" true (stats1.FT.injected_loss > 0);
  check Alcotest.bool "dups happened" true (stats1.FT.injected_dup > 0)

(* ------------------------------------------------------------------ *)
(* The adversarial scenario corpus, on the simulated backend          *)
(* ------------------------------------------------------------------ *)

let test_corpus_well_formed () =
  check Alcotest.int "five scenarios" 5 (List.length Corpus.all);
  List.iter
    (fun (sc : Corpus.t) ->
      (match E.validate (E.of_corpus sc) with
      | Ok () -> ()
      | Error msg -> fail (Printf.sprintf "%s (simulated): %s" sc.Corpus.name msg));
      let live = Dpu_live.Serve.to_experiment (Dpu_live.Serve.of_corpus sc) in
      match Result.bind (E.validate live) (fun () -> Dpu_live.Serve.supported live) with
      | Ok () -> ()
      | Error msg -> fail (Printf.sprintf "%s (live): %s" sc.Corpus.name msg))
    Corpus.all;
  check Alcotest.bool "find resolves every name" true
    (List.for_all (fun name -> Corpus.find name <> None) (Corpus.names ()));
  check Alcotest.bool "unknown name is None" true (Corpus.find "nope" = None)

(* Per planned switch: (generation, completion window). *)
let switch_windows (sc : Corpus.t) (s : E.shard) =
  List.mapi
    (fun i _ -> (i + 1, Collector.switch_window s.E.collector ~generation:(i + 1)))
    sc.Corpus.switches

let expect_installed ~what windows =
  List.iter
    (fun (generation, window) ->
      check Alcotest.bool
        (Printf.sprintf "%s: generation %d installed" what generation)
        true (window <> None))
    windows

let test_corpus_scenarios_hold_properties () =
  List.iter
    (fun (sc : Corpus.t) ->
      let what = sc.Corpus.name in
      let r = E.run (E.of_corpus ~seed:1 sc) in
      let s = r.E.per_shard.(0) in
      let windows = switch_windows sc s in
      check Alcotest.bool (what ^ ": traffic flowed") true (s.E.sent > 20);
      check Alcotest.bool (what ^ ": full §5.1 battery holds") true
        (Dpu_props.Report.all_ok (E.check r));
      match what with
      | "racing-replacements" -> (
        (* Two changes race through generation 0; total order picks one
           winner and the loser is dropped as stale. *)
        match windows with
        | [ (1, Some _); (2, None) ] -> ()
        | _ -> fail "racing: expected exactly the first-ordered change to win")
      | "coordinator-crash-mid-switch" ->
        check (Alcotest.list Alcotest.int) "crashed coordinator excluded"
          [ 0; 1; 3; 4 ] s.E.correct;
        expect_installed ~what windows
      | "replacement-under-partition" ->
        check Alcotest.bool "the partition actually bit" true
          (s.E.faults.FT.blocked_partition > 0);
        expect_installed ~what windows
      | _ -> expect_installed ~what windows)
    Corpus.all

(* The silenced coordinator's own messages went into the void: the
   run is still all OK, since no property requires them. *)
let test_coordinator_crash_all_ok () =
  match Corpus.find "coordinator-crash-mid-switch" with
  | None -> fail "scenario missing"
  | Some sc ->
    let r = E.run (E.of_corpus ~seed:1 sc) in
    check Alcotest.bool "all_ok" true (E.all_ok r)

(* Canonical dump of everything a corpus run observed; two runs replay
   identically iff their signatures are byte-equal. *)
let signature (r : E.result) =
  let s = r.E.per_shard.(0) in
  let buf = Buffer.create 4_096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun (id, node, time) ->
      add "send %s node %d @%.6f\n" (Dpu_kernel.Msg.id_to_string id) node time)
    (Collector.sends s.E.collector);
  for node = 0 to s.E.nodes - 1 do
    List.iter
      (fun (id, time) ->
        add "deliver node %d %s @%.6f\n" node (Dpu_kernel.Msg.id_to_string id) time)
      (Collector.delivers_of s.E.collector ~node)
  done;
  List.iter
    (fun (node, generation, time) ->
      add "switch node %d gen %d @%.6f\n" node generation time)
    (Collector.switches s.E.collector);
  add "faults %s\n" (Format.asprintf "%a" FT.pp_stats s.E.faults);
  Buffer.contents buf

let test_corpus_replay_deterministic () =
  let sc =
    match Corpus.find "replacement-under-partition" with
    | Some sc -> sc
    | None -> fail "scenario missing"
  in
  let run seed = signature (E.run (E.of_corpus ~seed sc)) in
  let s1 = run 3 in
  let s2 = run 3 in
  check Alcotest.bool "byte-identical replay" true (String.equal s1 s2);
  let s3 = run 4 in
  check Alcotest.bool "the seed matters" true (not (String.equal s1 s3))

(* ------------------------------------------------------------------ *)
(* Specs, validation, inspection                                      *)
(* ------------------------------------------------------------------ *)

let test_spec_parsing () =
  let ok spec =
    match Schedule.event_of_spec spec with
    | Ok e -> e
    | Error msg -> fail msg
  in
  (match (ok "crash@150:2").Schedule.action with
  | Schedule.Crash 2 -> ()
  | _ -> fail "crash spec");
  (match (ok "recover@200:2").Schedule.action with
  | Schedule.Recover 2 -> ()
  | _ -> fail "recover spec");
  (match (ok "partition@100:0,1|2,3").Schedule.action with
  | Schedule.Partition [ [ 0; 1 ]; [ 2; 3 ] ] -> ()
  | _ -> fail "partition spec");
  (match (ok "heal@300").Schedule.action with
  | Schedule.Heal -> ()
  | _ -> fail "heal spec");
  (match (ok "loss@100-200:0.3").Schedule.action with
  | Schedule.Loss_window { p = 0.3; from_ = 100.0; until = 200.0 } -> ()
  | _ -> fail "loss spec");
  (match (ok "dup@100-200:0.1").Schedule.action with
  | Schedule.Dup_burst { p = 0.1; from_ = 100.0; until = 200.0 } -> ()
  | _ -> fail "dup spec");
  match (ok "slow@100-200:0>1:25").Schedule.action with
  | Schedule.Degrade_link
      { src = 0; dst = 1; window = { from_ = 100.0; until = 200.0 }; _ } -> ()
  | _ -> fail "slow spec"

let test_spec_errors () =
  List.iter
    (fun spec ->
      match Schedule.event_of_spec spec with
      | Ok _ -> fail (Printf.sprintf "spec %S should not parse" spec)
      | Error _ -> ())
    [ "crash@abc:1"; "crash@100"; "explode@5"; "loss@100:0.3"; "partition@100:"; "" ]

let test_of_specs_first_error_aborts () =
  (match Schedule.of_specs [ "crash@10:1"; "heal@20" ] with
  | Ok [ _; _ ] -> ()
  | Ok _ | Error _ -> fail "expected two events");
  match Schedule.of_specs [ "crash@10:1"; "nope" ] with
  | Error _ -> ()
  | Ok _ -> fail "expected error"

let test_validate () =
  let ok_or_fail = function Ok () -> () | Error msg -> fail msg in
  ok_or_fail
    (Schedule.validate ~n:3
       [ Schedule.crash ~at:1.0 2; Schedule.loss_window ~p:0.5 ~from_:1.0 ~until:2.0 ]);
  let expect_err sched =
    match Schedule.validate ~n:3 sched with
    | Error _ -> ()
    | Ok () -> fail "expected validation error"
  in
  expect_err [ Schedule.crash ~at:1.0 3 ];
  expect_err [ Schedule.crash ~at:(-1.0) 0 ];
  expect_err [ Schedule.loss_window ~p:1.5 ~from_:1.0 ~until:2.0 ];
  expect_err [ Schedule.loss_window ~p:0.5 ~from_:2.0 ~until:2.0 ];
  expect_err [ Schedule.partition ~at:1.0 [ [ 0; 1 ]; [ 1; 2 ] ] ];
  expect_err [ Schedule.degrade_link ~src:0 ~dst:5 ~link:(Latency.constant 1.0) ~from_:1.0 ~until:2.0 ]

let test_crashed_before () =
  let sched =
    [
      Schedule.crash ~at:10.0 1;
      Schedule.crash ~at:20.0 2;
      Schedule.recover ~at:30.0 1;
    ]
  in
  check (Alcotest.list Alcotest.int) "both down" [ 1; 2 ]
    (Schedule.crashed_before sched ~time:25.0);
  check (Alcotest.list Alcotest.int) "one recovered" [ 2 ]
    (Schedule.crashed_before sched ~time:35.0);
  check (Alcotest.list Alcotest.int) "none yet" []
    (Schedule.crashed_before sched ~time:5.0);
  (* The switch plan reads the same schedule: [switch_to] comes from the
     highest-numbered node not down at its time, then [switches] in
     their order. *)
  let seq = Dpu_core.Variants.sequencer and ct = Dpu_core.Variants.ct in
  let plan switch_at_ms =
    E.switch_plan
      {
        E.default with
        n = 3;
        faults = sched;
        switch_to = Some seq;
        switch_at_ms;
        switches = [ (50.0, 2, ct); (40.0, 0, seq) ];
      }
      ~shard:0
  in
  let switch = Alcotest.(triple (float 0.0) int string) in
  check (Alcotest.list switch) "both down: node 0 triggers"
    [ (25.0, 0, seq); (50.0, 2, ct); (40.0, 0, seq) ]
    (plan 25.0);
  check (Alcotest.list switch) "node 1 back: it triggers"
    [ (35.0, 1, seq); (50.0, 2, ct); (40.0, 0, seq) ]
    (plan 35.0);
  check (Alcotest.list switch) "none down: the last node triggers"
    [ (5.0, 2, seq); (50.0, 2, ct); (40.0, 0, seq) ]
    (plan 5.0)

let test_duration () =
  check (Alcotest.float 0.0) "empty" 0.0 (Schedule.duration []);
  let sched =
    [ Schedule.crash ~at:50.0 1; Schedule.loss_window ~p:0.5 ~from_:10.0 ~until:90.0 ]
  in
  check (Alcotest.float 0.0) "window close counts" 90.0 (Schedule.duration sched)

(* ------------------------------------------------------------------ *)
(* Nemesis                                                            *)
(* ------------------------------------------------------------------ *)

let test_nemesis_deterministic () =
  let gen seed =
    Nemesis.generate ~rng:(Rng.create ~seed) ~n:6 ~horizon_ms:5_000.0 ~faults:6
      ~recoverable:true ()
  in
  check Alcotest.bool "same seed, same schedule" true (gen 42 = gen 42);
  check Alcotest.bool "different seeds differ" true (gen 42 <> gen 43)

let test_nemesis_schedules_valid () =
  for seed = 1 to 50 do
    let n = 3 + (seed mod 5) in
    let sched =
      Nemesis.generate ~rng:(Rng.create ~seed) ~n ~horizon_ms:4_000.0 ~faults:5
        ~recoverable:(seed mod 2 = 0) ()
    in
    (match Schedule.validate ~n sched with
    | Ok () -> ()
    | Error msg -> fail (Printf.sprintf "seed %d: %s" seed msg));
    (* Never crash node 0; never more than a minority down at once;
       everything settles before 0.9 * horizon. *)
    let down_at_end = Schedule.crashed_before sched ~time:infinity in
    check Alcotest.bool
      (Printf.sprintf "seed %d: node 0 alive" seed)
      false (List.mem 0 down_at_end);
    check Alcotest.bool
      (Printf.sprintf "seed %d: minority down" seed)
      true
      (List.length down_at_end <= (n - 1) / 2);
    check Alcotest.bool
      (Printf.sprintf "seed %d: settles before horizon" seed)
      true
      (Schedule.duration sched <= 0.9 *. 4_000.0)
  done

let test_nemesis_respects_classes () =
  let sched =
    Nemesis.generate ~rng:(Rng.create ~seed:5) ~n:5 ~horizon_ms:4_000.0
      ~classes:[ Nemesis.Loss ] ~faults:4 ()
  in
  check Alcotest.int "one event per fault" 4 (List.length sched);
  List.iter
    (fun e ->
      match e.Schedule.action with
      | Schedule.Loss_window _ -> ()
      | _ -> fail "unexpected fault class")
    sched

(* ------------------------------------------------------------------ *)
(* Full-harness soaks: replacement during each fault class            *)
(* ------------------------------------------------------------------ *)

(* ABcast replacement at 2000 ms while the scheduled fault is active;
   afterwards the §5 properties must hold across the switch. *)
let soak_params ~seed faults =
  {
    E.default with
    n = 5;
    seed;
    load = 30.0;
    duration_ms = 4_000.0;
    switch_at_ms = 2_000.0;
    initial = Dpu_core.Variants.ct;
    switch_to = Some Dpu_core.Variants.sequencer;
    msg_size = 1024;
    trace_enabled = true;
    faults;
  }

let assert_props_hold ~what result =
  let reports = E.check result in
  let find name =
    match
      List.find_opt (fun r -> r.Dpu_props.Report.property = name) reports
    with
    | Some r -> r
    | None -> fail (Printf.sprintf "%s: missing report %S" what name)
  in
  (* The acceptance pair, called out explicitly... *)
  check Alcotest.bool
    (Printf.sprintf "%s: uniform agreement across the switch" what)
    true (find "uniform agreement").Dpu_props.Report.ok;
  check Alcotest.bool
    (Printf.sprintf "%s: uniform total order across the switch" what)
    true (find "uniform total order").Dpu_props.Report.ok;
  (* ...and everything else too. *)
  List.iter
    (fun r ->
      check Alcotest.bool
        (Printf.sprintf "%s: %s" what r.Dpu_props.Report.property)
        true r.Dpu_props.Report.ok)
    reports;
  (* The switch really happened. *)
  check Alcotest.bool (what ^ ": switch completed") true
    (result.E.per_shard.(0).E.switch_window <> None);
  check Alcotest.bool (what ^ ": traffic flowed") true (result.E.per_shard.(0).E.sent > 20)

let test_switch_during_crash () =
  let faults = [ Schedule.crash ~at:1_500.0 3 ] in
  let result = E.run (soak_params ~seed:101 faults) in
  check (Alcotest.list Alcotest.int) "crashed node excluded" [ 0; 1; 2; 4 ]
    result.E.per_shard.(0).E.correct;
  assert_props_hold ~what:"switch-during-crash" result

let test_switch_during_partition () =
  let faults =
    [ Schedule.partition ~at:1_500.0 [ [ 0; 1; 2; 3 ]; [ 4 ] ]; Schedule.heal ~at:2_600.0 ]
  in
  let result = E.run (soak_params ~seed:102 faults) in
  check (Alcotest.list Alcotest.int) "nobody crashed" [ 0; 1; 2; 3; 4 ]
    result.E.per_shard.(0).E.correct;
  assert_props_hold ~what:"switch-during-partition" result

let test_switch_during_loss_window () =
  let faults = [ Schedule.loss_window ~p:0.2 ~from_:1_500.0 ~until:2_600.0 ] in
  let result = E.run (soak_params ~seed:103 faults) in
  assert_props_hold ~what:"switch-during-loss" result

let test_switch_under_nemesis () =
  (* Randomised soak: a sampled schedule plus a replacement, properties
     checked across the switch. Deterministic in the seed. *)
  List.iter
    (fun seed ->
      let faults =
        Nemesis.generate ~rng:(Rng.create ~seed) ~n:5 ~horizon_ms:4_000.0 ~faults:3 ()
      in
      let result = E.run (soak_params ~seed faults) in
      assert_props_hold
        ~what:(Printf.sprintf "nemesis seed %d [%s]" seed
                 (Format.asprintf "%a" Schedule.pp faults))
        result)
    [ 201; 202; 203 ]

let test_epoch_buffer_engages () =
  (* Regression for the receive-side hole in the generation filter: the
     isolated node delivers the change message late, after the majority
     has switched and produced new-generation wire traffic. Before
     [Epoch_buffer] that traffic was acknowledged by the transport and
     dropped by every installed module's epoch filter — lost for good —
     and the late sequencer instance deadlocked on a global-sequence gap,
     delivering nothing after its switch. The buffer must engage at the
     late node, and every node must end with the same delivery count. *)
  let module System = Dpu_kernel.System in
  let faults =
    [ Schedule.partition ~at:1_500.0 [ [ 0; 1; 2; 3 ]; [ 4 ] ]; Schedule.heal ~at:2_600.0 ]
  in
  let config = { MW.default_config with seed = 102; msg_size = 1024; faults } in
  let mw = MW.create ~config ~n:5 () in
  let system = MW.system mw in
  let clock = System.clock system in
  Dpu_workload.Load_gen.start mw ~rate_per_s:30.0 ~until:4_000.0 ();
  ignore
    (Clock.defer clock ~delay:2_000.0 (fun () ->
         MW.change_protocol mw ~node:4 Dpu_core.Variants.sequencer));
  MW.run_until_quiescent ~limit:120_000.0 mw;
  let late = System.stack system 4 in
  check Alcotest.bool "late node stashed future-generation traffic" true
    (Dpu_protocols.Epoch_buffer.stashed late > 0);
  check Alcotest.bool "stash replayed after the late switch" true
    (Dpu_protocols.Epoch_buffer.replayed late > 0);
  let collector = MW.collector mw in
  let count node = List.length (Collector.delivers_of collector ~node) in
  check Alcotest.bool "traffic flowed" true (count 0 > 20);
  List.iter
    (fun node ->
      check Alcotest.int
        (Printf.sprintf "node %d delivered the full stream" node)
        (count 0) (count node))
    [ 1; 2; 3; 4 ]

(* A crash-silenced node that recovers rejoins on the simulator as it
   does live: it stays correct and ends with node 0's full sequence. *)
let test_crash_then_recover_rejoins () =
  let faults = [ Schedule.crash ~at:1_500.0 4; Schedule.recover ~at:2_600.0 4 ] in
  List.iter
    (fun seed ->
      let result = E.run (soak_params ~seed faults) in
      let s = result.E.per_shard.(0) in
      let what = Printf.sprintf "crash-then-recover seed %d" seed in
      check (Alcotest.list Alcotest.int) (what ^ ": node 4 is correct") [ 0; 1; 2; 3; 4 ]
        s.E.correct;
      let ids node = List.map fst (Collector.delivers_of s.E.collector ~node) in
      check Alcotest.bool (what ^ ": node 4 delivered node 0's sequence") true
        (ids 4 = ids 0);
      assert_props_hold ~what result)
    [ 1; 2 ]

let test_experiment_rejects_bad_schedule () =
  let params = soak_params ~seed:1 [ Schedule.crash ~at:100.0 99 ] in
  match E.run params with
  | exception Invalid_argument _ -> ()
  | _ -> fail "expected Invalid_argument"

(* ------------------------------------------------------------------ *)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "faults"
    [
      ( "schedule",
        [
          tc "crash + recover" test_crash_recover_schedule;
          tc "loss window" test_loss_window_schedule;
          tc "dup burst" test_dup_burst_schedule;
          tc "degrade link" test_degrade_link_schedule;
          tc "partition + heal" test_partition_heal_schedule;
        ] );
      ( "fault-transport",
        [
          tc "crash blocks both directions" test_shim_crash_blocks_both_directions;
          tc "partition symmetry + implicit group" test_shim_partition_symmetry;
          tc "loss window is half-open and restores" test_shim_loss_window_halfopen;
          tc "dup burst" test_shim_dup_burst;
          tc "degrade defers on the clock" test_shim_degrade_delay;
          tc "in-flight frames blocked at arrival" test_shim_rx_blocks_in_flight;
          tc "replay determinism" test_shim_replay_deterministic;
        ] );
      ( "corpus",
        [
          tc "well-formed" test_corpus_well_formed;
          slow "every scenario holds the battery" test_corpus_scenarios_hold_properties;
          slow "replay determinism" test_corpus_replay_deterministic;
          slow "coordinator crash mid-switch is all OK" test_coordinator_crash_all_ok;
        ] );
      ( "spec",
        [
          tc "parses every kind" test_spec_parsing;
          tc "rejects junk" test_spec_errors;
          tc "of_specs aborts on error" test_of_specs_first_error_aborts;
        ] );
      ( "inspection",
        [
          tc "validate" test_validate;
          tc "crashed_before" test_crashed_before;
          tc "duration" test_duration;
        ] );
      ( "nemesis",
        [
          tc "deterministic" test_nemesis_deterministic;
          tc "valid schedules" test_nemesis_schedules_valid;
          tc "respects classes" test_nemesis_respects_classes;
        ] );
      ( "soak",
        [
          slow "switch during crash" test_switch_during_crash;
          slow "switch during partition" test_switch_during_partition;
          slow "switch during loss window" test_switch_during_loss_window;
          slow "switch under nemesis" test_switch_under_nemesis;
          slow "late switch engages epoch buffer" test_epoch_buffer_engages;
          slow "crash then recover rejoins" test_crash_then_recover_rejoins;
          tc "rejects bad schedule" test_experiment_rejects_bad_schedule;
        ] );
    ]
