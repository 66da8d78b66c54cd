(* Tests for the group-communication protocols: UDP interface, reliable
   point-to-point, failure detector, reliable broadcast, Chandra-Toueg
   consensus, the three ABcast variants and group membership. *)

open Dpu_kernel
module P = Dpu_protocols
module Sim = Dpu_engine.Sim
module Clock = Dpu_runtime.Clock
module Latency = Dpu_net.Latency

let check = Alcotest.check
let fail = Alcotest.fail

type Payload.t += Blob of string

(* A system with the basic substrate registered; nothing instantiated. *)
let make_system ?(n = 3) ?(seed = 1) ?(loss = 0.0) ?(dup = 0.0) ?link ?metrics () =
  let link = match link with Some l -> l | None -> Latency.lan in
  let system = System.create ~seed ~loss ~dup ~link ?metrics ~n () in
  P.Udp.register system;
  P.Rp2p.register system;
  P.Fd.register system;
  P.Rbcast.register system;
  P.Consensus_ct.register system;
  system

let ensure_all system svc =
  System.iter_stacks system (fun stack ->
      Registry.ensure_bound (System.registry system) stack svc)

(* Listen for indications of [svc] at [node]; returns the log. *)
let listen system ~node ~svc f =
  let stack = System.stack system node in
  ignore
    (Stack.add_module stack ~name:"listener" ~provides:[] ~requires:[ svc ]
       (fun _ _ ->
         { Stack.default_handlers with
           handle_indication = (fun s p -> if Service.equal s svc then f p) }))

(* ------------------------------------------------------------------ *)
(* UDP module                                                         *)
(* ------------------------------------------------------------------ *)

let test_udp_roundtrip () =
  let system = make_system () in
  ensure_all system Service.net;
  let got = ref [] in
  listen system ~node:1 ~svc:Service.net (fun p ->
      match p with
      | P.Udp.Recv { src; payload = Blob s } -> got := (src, s) :: !got
      | _ -> ());
  Stack.call (System.stack system 0) Service.net
    (P.Udp.Send { dst = 1; size = 64; payload = Blob "hi" });
  System.run_for system 50.0;
  check Alcotest.bool "received" true (!got = [ (0, "hi") ])

let test_udp_crashed_stack_silent () =
  let system = make_system () in
  ensure_all system Service.net;
  let got = ref 0 in
  listen system ~node:1 ~svc:Service.net (fun _ -> incr got);
  Stack.crash (System.stack system 1);
  Stack.call (System.stack system 0) Service.net
    (P.Udp.Send { dst = 1; size = 64; payload = Blob "hi" });
  System.run_for system 50.0;
  check Alcotest.int "nothing" 0 !got

(* ------------------------------------------------------------------ *)
(* Seq_set                                                            *)
(* ------------------------------------------------------------------ *)

(* Random interleavings of add and mem over a few sources, with
   duplicates and out-of-order numbers, against a Hashtbl of every
   (src, seq) pair ever added. *)
let prop_seq_set_matches_hashtbl =
  QCheck.Test.make ~name:"seq_set: agrees with a hashtbl set" ~count:300
    QCheck.(list_of_size (Gen.int_range 0 300) (triple bool (int_range 0 3) (int_range 0 40)))
    (fun ops ->
      let set = P.Seq_set.create () in
      let reference : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
      let agree src seq = P.Seq_set.mem set ~src seq = Hashtbl.mem reference (src, seq) in
      List.for_all
        (fun (is_add, src, seq) ->
          if is_add then begin
            P.Seq_set.add set ~src seq;
            Hashtbl.replace reference (src, seq) ()
          end;
          agree src seq)
        ops
      && List.for_all
           (fun src -> List.for_all (fun seq -> agree src seq) (List.init 42 Fun.id))
           [ 0; 1; 2; 3; 4 ])

let test_seq_set_gap_fills () =
  let set = P.Seq_set.create () in
  List.iter (P.Seq_set.add set ~src:7) [ 0; 2; 3; 5; 3 ];
  check Alcotest.int "floor stops at the gap" 1 (P.Seq_set.floor set ~src:7);
  check Alcotest.int "held above the floor" 3 (P.Seq_set.above set ~src:7);
  check Alcotest.bool "gap not seen" false (P.Seq_set.mem set ~src:7 1);
  P.Seq_set.add set ~src:7 1;
  check Alcotest.int "floor jumps the contiguous run" 4 (P.Seq_set.floor set ~src:7);
  P.Seq_set.add set ~src:7 4;
  check Alcotest.int "floor past every number" 6 (P.Seq_set.floor set ~src:7);
  check Alcotest.int "nothing left above the floor" 0 (P.Seq_set.above set ~src:7);
  check Alcotest.bool "below the floor is seen" true (P.Seq_set.mem set ~src:7 2);
  check Alcotest.bool "other sources untouched" false (P.Seq_set.mem set ~src:8 0);
  check Alcotest.bool "negative counts as seen" true (P.Seq_set.mem set ~src:8 (-1))

(* ------------------------------------------------------------------ *)
(* RP2P                                                               *)
(* ------------------------------------------------------------------ *)

let rp2p_recv_log system node =
  let got = ref [] in
  listen system ~node ~svc:Service.rp2p (fun p ->
      match p with
      | P.Rp2p.Recv { src; payload = Blob s } -> got := (src, s) :: !got
      | _ -> ());
  got

let test_rp2p_reliable_under_loss () =
  let system = make_system ~loss:0.3 ~seed:5 () in
  ensure_all system Service.rp2p;
  let got = rp2p_recv_log system 1 in
  for i = 1 to 50 do
    Stack.call (System.stack system 0) Service.rp2p
      (P.Rp2p.Send { dst = 1; size = 64; payload = Blob (string_of_int i) })
  done;
  System.run_until_quiescent ~limit:20_000.0 system;
  check Alcotest.int "all delivered" 50 (List.length !got);
  let uniq = List.sort_uniq compare !got in
  check Alcotest.int "exactly once" 50 (List.length uniq);
  let stats = P.Rp2p.stats (System.stack system 0) in
  check Alcotest.bool "retransmissions happened" true (stats.P.Rp2p.retransmissions > 0)

(* Sends to two destinations interleave, so a sender numbering frames
   from one shared counter would give each receiver a sequence with
   gaps, and numbers colliding across destinations would be acked for
   the wrong frame. Each destination must still get all 30, once. *)
let test_rp2p_dedup_under_duplication () =
  let system = make_system ~dup:0.5 ~loss:0.1 ~seed:6 () in
  ensure_all system Service.rp2p;
  let got1 = rp2p_recv_log system 1 in
  let got2 = rp2p_recv_log system 2 in
  for i = 1 to 60 do
    Stack.call (System.stack system 0) Service.rp2p
      (P.Rp2p.Send { dst = 1 + (i mod 2); size = 64; payload = Blob (string_of_int i) })
  done;
  System.run_until_quiescent ~limit:30_000.0 system;
  let expect dst =
    List.filter (fun i -> 1 + (i mod 2) = dst) (List.init 60 succ)
    |> List.map (fun i -> (0, string_of_int i))
    |> List.sort compare
  in
  check
    Alcotest.(list (pair int string))
    "node 1 exactly once despite dups" (expect 1) (List.sort compare !got1);
  check
    Alcotest.(list (pair int string))
    "node 2 exactly once despite dups" (expect 2) (List.sort compare !got2)

let test_rp2p_gives_up_on_crashed_dst () =
  (* Every frame to a crashed peer is dropped after [max_retries]
     timeouts, and leaves no retransmission timer behind. *)
  let metrics = Dpu_obs.Metrics.create () in
  let system = make_system ~metrics () in
  ensure_all system Service.rp2p;
  System.crash_node system 1;
  let pending_events () = Option.get (Dpu_obs.Metrics.value metrics "sim_pending_events") in
  let before = pending_events () in
  let frames = 25 in
  for i = 1 to frames do
    Stack.call (System.stack system 0) Service.rp2p
      (P.Rp2p.Send { dst = 1; size = 64; payload = Blob (string_of_int i) })
  done;
  (* Each of the [max_retries + 1] timeouts waits at most [max_rto_ms]. *)
  let config = P.Rp2p.default_config in
  System.run_for system (float_of_int (config.max_retries + 2) *. config.max_rto_ms);
  let stats = P.Rp2p.stats (System.stack system 0) in
  check Alcotest.int "gave up" frames stats.P.Rp2p.gave_up;
  check (Alcotest.float 0.0) "no timer left" before (pending_events ())

let test_rp2p_silent_peer_costs_one_probe () =
  (* Frames to a crashed peer each time out at most [probe_after]
     times; then only the probe keeps a timer. *)
  let metrics = Dpu_obs.Metrics.create () in
  let system = make_system ~metrics () in
  ensure_all system Service.rp2p;
  System.crash_node system 1;
  let pending_events () = Option.get (Dpu_obs.Metrics.value metrics "sim_pending_events") in
  let before = pending_events () in
  let frames = 25 in
  for i = 1 to frames do
    Stack.call (System.stack system 0) Service.rp2p
      (P.Rp2p.Send { dst = 1; size = 64; payload = Blob (string_of_int i) })
  done;
  System.run_for system 10_000.0;
  let stats = P.Rp2p.stats (System.stack system 0) in
  let bound = (P.Rp2p.probe_after * frames) + P.Rp2p.default_config.max_retries in
  check Alcotest.bool
    (Printf.sprintf "%d retransmissions <= %d" stats.P.Rp2p.retransmissions bound)
    true
    (stats.P.Rp2p.retransmissions <= bound);
  check Alcotest.int "none gave up yet" 0 stats.P.Rp2p.gave_up;
  check Alcotest.bool "only the probe's timer left" true (pending_events () <= before +. 1.0)

let test_rp2p_parked_frames_resume_after_heal () =
  (* Frames sent into a partition are parked behind the probe. After
     the heal, the probe's ack resumes them: each is delivered exactly
     once, and on a constant-latency link in sequence order. *)
  let system = make_system ~link:(Latency.constant 2.0) () in
  ensure_all system Service.rp2p;
  let got = rp2p_recv_log system 1 in
  Dpu_net.Datagram.partition (System.net system) [ [ 0; 2 ]; [ 1 ] ];
  let frames = 30 in
  for i = 1 to frames do
    Stack.call (System.stack system 0) Service.rp2p
      (P.Rp2p.Send { dst = 1; size = 64; payload = Blob (string_of_int i) })
  done;
  System.run_for system 10_000.0;
  check Alcotest.int "nothing through the partition" 0 (List.length !got);
  Dpu_net.Datagram.heal (System.net system);
  System.run_until_quiescent ~limit:100_000.0 system;
  check
    Alcotest.(list (pair int string))
    "every frame once, in sequence order"
    (List.init frames (fun i -> (0, string_of_int (i + 1))))
    (List.rev !got);
  check Alcotest.int "none gave up" 0 (P.Rp2p.stats (System.stack system 0)).P.Rp2p.gave_up

(* Hand [node]'s stack a frame at time [at], as if the net service had
   just received it from [src]. *)
let inject system ~node ~at ~src payload =
  Clock.defer (System.clock system) ~delay:at (fun () ->
      Stack.indicate (System.stack system node) Service.net (P.Udp.Recv { src; payload }))

let rto_us stack ~dst = int_of_float (P.Rp2p.timeout_ms stack ~dst *. 1000.0)

let test_rp2p_rtt_from_echoed_earlier_attempt () =
  (* Node 1 is down, so attempt 0 (sent at [hop]) is retried at
     [hop + 10]. An ack echoing attempt 0 that arrives at [20 + hop]
     must be timed from attempt 0: a 20 ms sample, so the next frame
     waits srtt + 4 * rttvar = 60 ms (30 ms if timed from attempt 1). *)
  let system = make_system () in
  ensure_all system Service.rp2p;
  System.crash_node system 1;
  let stack = System.stack system 0 in
  let send () =
    Stack.call stack Service.rp2p (P.Rp2p.Send { dst = 1; size = 64; payload = Blob "x" })
  in
  send ();
  inject system ~node:0 ~at:20.0 ~src:1 (P.Rp2p.Wire_ack { src = 1; seq = 0; attempt = 0 });
  System.run_for system 25.0;
  check Alcotest.int "attempt 1 went out first" 1 (P.Rp2p.stats stack).P.Rp2p.retransmissions;
  send ();
  System.run_for system 1.0;
  let rto = rto_us stack ~dst:1 in
  check Alcotest.bool (Printf.sprintf "timeout from a 20 ms sample (%d us)" rto) true
    (abs (rto - 60_000) <= 1)

let test_rp2p_out_of_range_ack_echo () =
  (* A forged ack whose echoed attempt names no transmission (negative,
     beyond the tries made, max_int) releases the frame, yields no RTT
     sample and raises nothing. Nodes 1 and 2 are down: only the forged
     acks ever reach node 0. *)
  let system = make_system () in
  ensure_all system Service.rp2p;
  System.crash_node system 1;
  System.crash_node system 2;
  let stack = System.stack system 0 in
  let send dst =
    Stack.call stack Service.rp2p (P.Rp2p.Send { dst; size = 64; payload = Blob "x" })
  in
  (* Frames 0..2 to node 1, acked before their first timeout. *)
  List.iteri
    (fun seq attempt ->
      send 1;
      inject system ~node:0 ~at:5.0 ~src:1 (P.Rp2p.Wire_ack { src = 1; seq; attempt }))
    [ -1; 1; max_int ];
  (* Frame 0 to node 2 has been retried twice (attempt 2 at 40 ms, so
     its send-time column has grown to four slots) when the echo of the
     unsent attempt 3 arrives. *)
  send 2;
  inject system ~node:0 ~at:60.0 ~src:2 (P.Rp2p.Wire_ack { src = 2; seq = 0; attempt = 3 });
  System.run_until_quiescent ~limit:100_000.0 system;
  let stats = P.Rp2p.stats stack in
  check Alcotest.int "released, not given up" 0 stats.P.Rp2p.gave_up;
  check Alcotest.int "only node 2's two retries" 2 stats.P.Rp2p.retransmissions;
  send 1;
  send 2;
  System.run_for system 1.0;
  (* Without a sample: the initial 10 ms, times node 2's storm backoff
     of 4 after its two timeouts. *)
  check Alcotest.int "node 1: no sample" 10_000 (rto_us stack ~dst:1);
  check Alcotest.int "node 2: no sample" 40_000 (rto_us stack ~dst:2)

let test_rp2p_self_send () =
  let system = make_system () in
  ensure_all system Service.rp2p;
  let got = rp2p_recv_log system 0 in
  Stack.call (System.stack system 0) Service.rp2p
    (P.Rp2p.Send { dst = 0; size = 64; payload = Blob "self" });
  System.run_for system 100.0;
  check Alcotest.bool "self delivery" true (!got = [ (0, "self") ])

let test_rp2p_stats_accepted () =
  let system = make_system () in
  ensure_all system Service.rp2p;
  ignore (rp2p_recv_log system 1);
  for _ = 1 to 5 do
    Stack.call (System.stack system 0) Service.rp2p
      (P.Rp2p.Send { dst = 1; size = 64; payload = Blob "x" })
  done;
  System.run_until_quiescent ~limit:10_000.0 system;
  let s0 = P.Rp2p.stats (System.stack system 0) in
  let s1 = P.Rp2p.stats (System.stack system 1) in
  check Alcotest.int "accepted" 5 s0.P.Rp2p.accepted;
  check Alcotest.int "delivered" 5 s1.P.Rp2p.delivered

let count_retrans_after_warmup ~adaptive () =
  (* A 25 ms link with a 10 ms initial timeout: every early datagram
     retransmits. The adaptive estimator must converge and stop; the
     fixed one keeps retransmitting every message forever. *)
  let sim_link = Latency.constant 25.0 in
  let system = System.create ~seed:8 ~link:sim_link ~n:2 () in
  P.Udp.register system;
  P.Rp2p.register
    ~config:{ P.Rp2p.default_config with adaptive; max_rto_ms = 500.0 }
    system;
  ensure_all system Service.rp2p;
  ignore (rp2p_recv_log system 1);
  (* Warm-up batch. *)
  for i = 1 to 10 do
    Stack.call (System.stack system 0) Service.rp2p
      (P.Rp2p.Send { dst = 1; size = 64; payload = Blob (string_of_int i) })
  done;
  System.run_for system 5_000.0;
  let before = (P.Rp2p.stats (System.stack system 0)).P.Rp2p.retransmissions in
  (* Steady state: 30 more messages, spaced out. *)
  for i = 11 to 40 do
    ignore
      (Clock.defer (System.clock system) ~delay:(float_of_int i *. 60.0) (fun () ->
           Stack.call (System.stack system 0) Service.rp2p
             (P.Rp2p.Send { dst = 1; size = 64; payload = Blob (string_of_int i) })))
  done;
  System.run_until_quiescent ~limit:30_000.0 system;
  let after = (P.Rp2p.stats (System.stack system 0)).P.Rp2p.retransmissions in
  after - before

let test_rp2p_adaptive_rto_converges () =
  let adaptive = count_retrans_after_warmup ~adaptive:true () in
  let fixed = count_retrans_after_warmup ~adaptive:false () in
  check Alcotest.int "adaptive: no steady-state retransmissions" 0 adaptive;
  check Alcotest.bool
    (Printf.sprintf "fixed keeps retransmitting (%d)" fixed)
    true (fixed >= 30)

let test_rp2p_storm_backoff_resets_on_sample () =
  (* After a retransmission episode the timeout is inflated; a clean
     exchange brings it back (storm_backoff resets on a fresh sample).
     Observable effect: later messages on a fast link are not delayed
     by the earlier episode. *)
  let system = System.create ~seed:8 ~n:2 () in
  P.Udp.register system;
  P.Rp2p.register system;
  ensure_all system Service.rp2p;
  let got = rp2p_recv_log system 1 in
  (* Episode: partition so the first message retransmits a few times. *)
  Dpu_net.Datagram.partition (System.net system) [ [ 0 ]; [ 1 ] ];
  Stack.call (System.stack system 0) Service.rp2p
    (P.Rp2p.Send { dst = 1; size = 64; payload = Blob "stormy" });
  System.run_for system 300.0;
  Dpu_net.Datagram.heal (System.net system);
  System.run_for system 2_000.0;
  check Alcotest.int "first delivered after heal" 1 (List.length !got);
  (* Clean phase: send and measure delivery promptness. *)
  let t0 = Clock.now (System.clock system) in
  Stack.call (System.stack system 0) Service.rp2p
    (P.Rp2p.Send { dst = 1; size = 64; payload = Blob "clean" });
  System.run_for system 1_000.0;
  check Alcotest.int "second delivered" 2 (List.length !got);
  ignore t0

(* ------------------------------------------------------------------ *)
(* Failure detector                                                   *)
(* ------------------------------------------------------------------ *)

let fd_events system node =
  let log = ref [] in
  listen system ~node ~svc:Service.fd (fun p ->
      match p with
      | P.Fd.Suspect q -> log := `Suspect q :: !log
      | P.Fd.Restore q -> log := `Restore q :: !log
      | _ -> ());
  log

let test_fd_no_false_suspicion_when_alive () =
  let system = make_system () in
  ensure_all system Service.fd;
  let log = fd_events system 0 in
  System.run_for system 2_000.0;
  check Alcotest.int "quiet" 0 (List.length !log)

let test_fd_detects_crash () =
  let system = make_system () in
  ensure_all system Service.fd;
  let log = fd_events system 0 in
  System.crash_node system 2;
  System.run_for system 2_000.0;
  check Alcotest.bool "suspected 2" true (List.mem (`Suspect 2) !log);
  check Alcotest.bool "not 1" false (List.mem (`Suspect 1) !log);
  check (Alcotest.list Alcotest.int) "env view" [ 2 ]
    (P.Fd.suspects (System.stack system 0))

let test_fd_restore_after_partition_heals () =
  let system = make_system () in
  ensure_all system Service.fd;
  let log = fd_events system 0 in
  let net = System.net system in
  Dpu_net.Datagram.partition net [ [ 0 ]; [ 1; 2 ] ];
  System.run_for system 1_000.0;
  check Alcotest.bool "suspects during partition" true (List.mem (`Suspect 1) !log);
  Dpu_net.Datagram.heal net;
  System.run_for system 1_000.0;
  check Alcotest.bool "restored" true (List.mem (`Restore 1) !log);
  check (Alcotest.list Alcotest.int) "no suspects" [] (P.Fd.suspects (System.stack system 0))

let test_fd_adaptive_timeout () =
  (* After a false suspicion the per-node timeout grows, so a second
     partition of the same length does not trigger a second suspicion. *)
  let config = { P.Fd.period_ms = 20.0; timeout_ms = 100.0; timeout_increment_ms = 400.0 } in
  let system = System.create ~n:2 () in
  P.Udp.register system;
  System.iter_stacks system (fun stack ->
      Registry.ensure_bound (System.registry system) stack Service.net;
      ignore (P.Fd.install ~config ~n:2 stack));
  let log = fd_events system 0 in
  let net = System.net system in
  Dpu_net.Datagram.partition net [ [ 0 ]; [ 1 ] ];
  System.run_for system 300.0;
  Dpu_net.Datagram.heal net;
  System.run_for system 500.0;
  let suspicions = List.length (List.filter (fun e -> e = `Suspect 1) !log) in
  check Alcotest.int "first suspicion" 1 suspicions;
  (* Second, equally long partition: timeout is now 500 ms, so 300 ms of
     silence must pass unnoticed. *)
  Dpu_net.Datagram.partition net [ [ 0 ]; [ 1 ] ];
  System.run_for system 300.0;
  Dpu_net.Datagram.heal net;
  System.run_for system 500.0;
  let suspicions' = List.length (List.filter (fun e -> e = `Suspect 1) !log) in
  check Alcotest.int "no second suspicion" 1 suspicions'

(* ------------------------------------------------------------------ *)
(* Reliable broadcast                                                 *)
(* ------------------------------------------------------------------ *)

let test_rbcast_all_deliver () =
  let system = make_system ~n:4 () in
  ensure_all system P.Rbcast.service;
  let logs =
    List.init 4 (fun node ->
        let log = ref [] in
        listen system ~node ~svc:P.Rbcast.service (fun p ->
            match p with
            | P.Rbcast.Deliver { origin; payload = Blob s } -> log := (origin, s) :: !log
            | _ -> ());
        log)
  in
  Stack.call (System.stack system 2) P.Rbcast.service
    (P.Rbcast.Bcast { size = 64; payload = Blob "m" });
  System.run_until_quiescent ~limit:10_000.0 system;
  List.iter
    (fun log -> check Alcotest.bool "delivered everywhere" true (!log = [ (2, "m") ]))
    logs

let test_rbcast_dedup () =
  let system = make_system ~n:3 ~dup:0.5 ~seed:3 () in
  ensure_all system P.Rbcast.service;
  let count = ref 0 in
  listen system ~node:1 ~svc:P.Rbcast.service (fun p ->
      match p with P.Rbcast.Deliver _ -> incr count | _ -> ());
  for _ = 1 to 20 do
    Stack.call (System.stack system 0) P.Rbcast.service
      (P.Rbcast.Bcast { size = 64; payload = Blob "x" })
  done;
  System.run_until_quiescent ~limit:30_000.0 system;
  check Alcotest.int "once each" 20 !count

let test_rbcast_no_relay_still_delivers () =
  let system = System.create ~n:3 () in
  P.Udp.register system;
  P.Rp2p.register system;
  P.Rbcast.register ~relay:false system;
  ensure_all system P.Rbcast.service;
  let count = ref 0 in
  listen system ~node:2 ~svc:P.Rbcast.service (fun p ->
      match p with P.Rbcast.Deliver _ -> incr count | _ -> ());
  Stack.call (System.stack system 0) P.Rbcast.service
    (P.Rbcast.Bcast { size = 64; payload = Blob "x" });
  System.run_until_quiescent ~limit:10_000.0 system;
  check Alcotest.int "delivered without relay" 1 !count

let relay_agreement_scenario ~relay =
  (* Why forward-on-first-receipt matters (uniform agreement when the
     sender dies mid-broadcast): node 0's datagrams to node 2 are
     dropped, then node 0 crashes. Its broadcast reached only node 1
     first-hand. With relaying node 1 forwards it to node 2; without,
     node 2 never sees it. *)
  let system = System.create ~seed:5 ~n:3 () in
  P.Udp.register system;
  P.Rp2p.register
    ~config:{ P.Rp2p.default_config with max_retries = 3 }
    system;
  P.Rbcast.register ~relay system;
  ensure_all system P.Rbcast.service;
  let delivered = Array.make 3 false in
  List.iter
    (fun node ->
      listen system ~node ~svc:P.Rbcast.service (fun p ->
          match p with P.Rbcast.Deliver _ -> delivered.(node) <- true | _ -> ()))
    [ 1; 2 ];
  Dpu_net.Datagram.set_drop_filter (System.net system)
    (Some (fun ~src ~dst _ -> src = 0 && dst = 2));
  Stack.call (System.stack system 0) P.Rbcast.service
    (P.Rbcast.Bcast { size = 64; payload = Blob "m" });
  ignore
    (Clock.defer (System.clock system) ~delay:5.0 (fun () -> System.crash_node system 0));
  System.run_until_quiescent ~limit:30_000.0 system;
  (delivered.(1), delivered.(2))

let test_rbcast_relay_gives_agreement () =
  let d1, d2 = relay_agreement_scenario ~relay:true in
  check Alcotest.bool "node 1 delivered" true d1;
  check Alcotest.bool "node 2 delivered via relay" true d2

let test_rbcast_no_relay_breaks_agreement () =
  (* The negative control: without relaying, the crash + targeted loss
     leaves the correct nodes disagreeing — demonstrating that the
     relay is what buys uniform agreement. *)
  let d1, d2 = relay_agreement_scenario ~relay:false in
  check Alcotest.bool "node 1 delivered" true d1;
  check Alcotest.bool "node 2 left out" false d2

(* ------------------------------------------------------------------ *)
(* Chandra-Toueg consensus                                            *)
(* ------------------------------------------------------------------ *)

let decisions_log system =
  List.init (System.n system) (fun node ->
      let log = ref [] in
      listen system ~node ~svc:Service.consensus (fun p ->
          match p with
          | P.Consensus_iface.Decide { iid; value = Blob s } -> log := (iid, s) :: !log
          | P.Consensus_iface.Decide { iid; value = P.Consensus_iface.No_value } ->
            log := (iid, "<none>") :: !log
          | _ -> ());
      log)

let propose system ~node ~iid value =
  Stack.call (System.stack system node) Service.consensus
    (P.Consensus_iface.Propose { iid; value = Blob value; weight = String.length value })

let iid0 = { P.Consensus_iface.epoch = 0; k = 0 }

let test_consensus_basic_agreement () =
  let system = make_system ~n:3 () in
  ensure_all system Service.consensus;
  let logs = decisions_log system in
  let iid = { P.Consensus_iface.epoch = 0; k = 0 } in
  propose system ~node:0 ~iid "a";
  propose system ~node:1 ~iid "b";
  propose system ~node:2 ~iid "c";
  System.run_until_quiescent ~limit:30_000.0 system;
  let decided = List.map (fun log -> List.assoc iid !log) logs in
  (match decided with
  | v :: rest ->
    check Alcotest.bool "validity" true (List.mem v [ "a"; "b"; "c" ]);
    List.iter (fun v' -> check Alcotest.string "agreement" v v') rest
  | [] -> fail "no decisions");
  check Alcotest.bool "decided counter" true
    (P.Consensus_ct.decided_count (System.stack system 0) >= 1)

let test_consensus_single_proposer () =
  let system = make_system ~n:5 () in
  ensure_all system Service.consensus;
  let logs = decisions_log system in
  let iid = { P.Consensus_iface.epoch = 0; k = 0 } in
  propose system ~node:3 ~iid "only";
  System.run_until_quiescent ~limit:30_000.0 system;
  List.iter
    (fun log -> check Alcotest.string "all decide the only value" "only" (List.assoc iid !log))
    logs

let test_consensus_multi_instance () =
  let system = make_system ~n:3 () in
  ensure_all system Service.consensus;
  let logs = decisions_log system in
  for k = 0 to 9 do
    propose system ~node:(k mod 3) ~iid:{ P.Consensus_iface.epoch = 0; k } (string_of_int k)
  done;
  System.run_until_quiescent ~limit:20_000.0 system;
  List.iter
    (fun log ->
      for k = 0 to 9 do
        check Alcotest.string "instance decided" (string_of_int k)
          (List.assoc { P.Consensus_iface.epoch = 0; k } !log)
      done)
    logs

let test_consensus_epoch_separation () =
  let system = make_system ~n:3 () in
  ensure_all system Service.consensus;
  let logs = decisions_log system in
  propose system ~node:0 ~iid:{ P.Consensus_iface.epoch = 0; k = 0 } "old";
  propose system ~node:1 ~iid:{ P.Consensus_iface.epoch = 1; k = 0 } "new";
  System.run_until_quiescent ~limit:30_000.0 system;
  List.iter
    (fun log ->
      check Alcotest.string "epoch 0" "old" (List.assoc { P.Consensus_iface.epoch = 0; k = 0 } !log);
      check Alcotest.string "epoch 1" "new" (List.assoc { P.Consensus_iface.epoch = 1; k = 0 } !log))
    logs

let test_consensus_coordinator_crash () =
  (* Round-0 coordinator of instance 0 is node 0; crash it before it can
     coordinate. The failure detector drives rounds forward. *)
  let system = make_system ~n:5 ~seed:2 () in
  ensure_all system Service.consensus;
  let logs = decisions_log system in
  System.crash_node system 0;
  let iid = { P.Consensus_iface.epoch = 0; k = 0 } in
  propose system ~node:1 ~iid "survivor";
  System.run_until_quiescent ~limit:30_000.0 system;
  List.iteri
    (fun node log ->
      if node <> 0 then
        check Alcotest.string "decided despite coordinator crash" "survivor"
          (List.assoc iid !log))
    logs

let test_consensus_crash_seeds_agree () =
  (* Multi-seed: a random minority crash must never break agreement. *)
  for seed = 1 to 8 do
    let system = make_system ~n:5 ~seed () in
    ensure_all system Service.consensus;
    let logs = decisions_log system in
    let victim = seed mod 5 in
    let iid = { P.Consensus_iface.epoch = 0; k = 0 } in
    propose system ~node:((victim + 1) mod 5) ~iid "v";
    ignore
      (Clock.defer (System.clock system) ~delay:(float_of_int (seed * 3)) (fun () ->
           System.crash_node system victim));
    System.run_until_quiescent ~limit:30_000.0 system;
    let decided =
      List.filteri (fun node _ -> node <> victim) logs
      |> List.map (fun log -> List.assoc_opt iid !log)
    in
    List.iter
      (fun d ->
        match d with
        | Some v -> check Alcotest.string "agreement under crash" "v" v
        | None -> fail (Printf.sprintf "correct node undecided (seed %d)" seed))
      decided
  done

let test_consensus_partition_heal () =
  (* A minority partition stalls nothing (majority decides); the healed
     minority node catches up via the decide relay / late-participant
     short-circuit. *)
  let system = make_system ~n:5 ~seed:6 () in
  ensure_all system Service.consensus;
  let logs = decisions_log system in
  Dpu_net.Datagram.partition (System.net system) [ [ 0; 1; 2; 3 ]; [ 4 ] ];
  let iid = { P.Consensus_iface.epoch = 0; k = 0 } in
  propose system ~node:1 ~iid "majority";
  System.run_for system 2_000.0;
  List.iteri
    (fun node log ->
      if node <> 4 then
        check Alcotest.string "majority side decided" "majority" (List.assoc iid !log))
    logs;
  Dpu_net.Datagram.heal (System.net system);
  System.run_until_quiescent ~limit:30_000.0 system;
  check Alcotest.string "healed node caught up" "majority"
    (List.assoc iid !(List.nth logs 4))

let test_consensus_minority_side_cannot_decide () =
  (* Safety under partition: the 2-node side of a 5-node system must
     not decide anything on its own. *)
  let system = make_system ~n:5 ~seed:7 () in
  ensure_all system Service.consensus;
  let logs = decisions_log system in
  Dpu_net.Datagram.partition (System.net system) [ [ 0; 1; 2 ]; [ 3; 4 ] ];
  let iid = { P.Consensus_iface.epoch = 0; k = 0 } in
  propose system ~node:3 ~iid "minority-value";
  System.run_for system 3_000.0;
  check Alcotest.bool "node 3 undecided" true (List.assoc_opt iid !(List.nth logs 3) = None);
  check Alcotest.bool "node 4 undecided" true (List.assoc_opt iid !(List.nth logs 4) = None);
  (* After healing everyone decides the same thing. (It may decide
     "<none>": the majority participants joined via wakeups with
     No_value estimates, and an all-empty quorum legitimately decides
     empty — the consensus-based ABcast simply re-proposes in the next
     instance. What is forbidden is disagreement.) *)
  Dpu_net.Datagram.heal (System.net system);
  System.run_until_quiescent ~limit:60_000.0 system;
  let decisions = List.map (fun log -> List.assoc iid !log) logs in
  (match decisions with
  | first :: rest ->
    check Alcotest.bool "a decision was reached" true (first <> "");
    List.iter (fun d -> check Alcotest.string "healed agreement" first d) rest
  | [] -> fail "no logs")

let test_consensus_propose_after_decided_reindicates () =
  let system = make_system ~n:3 () in
  ensure_all system Service.consensus;
  let logs = decisions_log system in
  let iid = { P.Consensus_iface.epoch = 0; k = 0 } in
  propose system ~node:0 ~iid "first";
  System.run_for system 10_000.0;
  propose system ~node:0 ~iid "late";
  System.run_for system 10_000.0;
  let node0 = List.filter (fun (i, _) -> i = iid) !(List.nth logs 0) in
  check Alcotest.bool "re-indicated" true (List.length node0 >= 2);
  List.iter (fun (_, v) -> check Alcotest.string "same decision" "first" v) node0

(* Every consensus frame that reaches any node, newest first, as
   (sender, receiver, payload). *)
let consensus_frames system =
  let log = ref [] in
  for node = 0 to System.n system - 1 do
    listen system ~node ~svc:Service.net (fun p ->
        match p with
        | P.Udp.Recv { src; payload = P.Rp2p.Wire_data { payload; _ } } -> (
          match payload with
          | P.Consensus_ct.W_estimate _ | P.Consensus_ct.W_propose _ | P.Consensus_ct.W_ack _
          | P.Consensus_ct.W_nack _ | P.Consensus_ct.W_decide _ | P.Consensus_ct.W_wakeup _
          | P.Consensus_ct.W_released _ ->
            log := (src, node, payload) :: !log
          | _ -> ())
        | _ -> ())
  done;
  log

let test_consensus_decided_log () =
  let system = make_system ~n:3 ~seed:3 () in
  ensure_all system Service.consensus;
  let logs = decisions_log system in
  let frames = consensus_frames system in
  let decision node = List.assoc_opt iid0 !(List.nth logs node) in
  let stack = System.stack system in
  (* Node 2 is cut off while instance 0 is decided, and for long enough
     that every rp2p frame addressed to it (wake-ups, the decide relay)
     gives up. *)
  Dpu_net.Datagram.partition (System.net system) [ [ 0; 1 ]; [ 2 ] ];
  propose system ~node:0 ~iid:iid0 "v";
  System.run_for system 90_000.0;
  check Alcotest.(option string) "node 0 decided" (Some "v") (decision 0);
  check Alcotest.(option string) "node 1 decided" (Some "v") (decision 1);
  check Alcotest.(option string) "node 2 cut off" None (decision 2);
  List.iter
    (fun node ->
      check Alcotest.bool "rp2p gave up on node 2" true
        ((P.Rp2p.stats (stack node)).P.Rp2p.gave_up > 0))
    [ 0; 1 ];
  (* Back in, node 2 proposes: its estimate reaches a decided node, and
     the only way to the decision left is the W_decide short-circuit.
     Its wake-ups must not restart the instance at nodes 0 and 1, so
     they send nothing but that answer. *)
  Dpu_net.Datagram.heal (System.net system);
  frames := [];
  propose system ~node:2 ~iid:iid0 "late";
  System.run_for system 5_000.0;
  check Alcotest.(option string) "node 2 decides the same value" (Some "v") (decision 2);
  let answers = List.filter (fun (src, _, _) -> src <> 2) !frames in
  check Alcotest.bool "node 2 heard a W_decide" true (answers <> []);
  List.iter
    (fun (_, dst, p) ->
      match (dst, p) with
      | 2, P.Consensus_ct.W_decide { value = Blob "v"; _ } -> ()
      | _ -> fail "a decided node sent a consensus frame other than the decision")
    answers;
  (* Late traffic for the decided instance at node 1: none of it may
     restart the instance, so nothing but the W_decide answer to the
     late estimate goes out, and no W_wakeup announce is re-armed. *)
  let decided_before = P.Consensus_ct.decided_count (stack 1) in
  let late payload = Stack.indicate (stack 1) Service.rp2p (P.Rp2p.Recv { src = 2; payload }) in
  frames := [];
  late (P.Consensus_ct.W_wakeup { iid = iid0 });
  late (P.Consensus_ct.W_propose { iid = iid0; round = 4; value = Blob "stray"; weight = 5 });
  late (P.Consensus_ct.W_ack { iid = iid0; round = 1; from = 2 });
  late
    (P.Consensus_ct.W_estimate
       { iid = iid0; round = 7; from = 2; value = Blob "stray"; ts = 0; weight = 5 });
  propose system ~node:1 ~iid:iid0 "again";
  System.run_for system 2_000.0;
  (match !frames with
  | [ (1, 2, P.Consensus_ct.W_decide { value = Blob "v"; _ }) ] -> ()
  | fs ->
    fail
      (Printf.sprintf "%d consensus frames after late traffic, want one W_decide"
         (List.length fs)));
  check Alcotest.int "no new decision" decided_before (P.Consensus_ct.decided_count (stack 1));
  let node1 = List.filter (fun (i, _) -> i = iid0) !(List.nth logs 1) in
  check Alcotest.(list string) "re-proposal re-indicates the decision" [ "v"; "v" ]
    (List.map snd node1)

(* A decided value goes only once every other member has relayed its
   decision and the caller has proposed a later instance. Node 2 is cut
   off while nodes 0 and 1 decide five instances, long enough for rp2p
   to give up on the relays of the first two, so neither node may drop
   a value node 2 still needs: back in, node 2 gets those two only from
   the W_decide short-circuit, the other three from the resumed relays.
   Then nodes 0 and 1 drop all but the last value. Node 2 keeps the two
   whose relay from one member gave up: that member never relays again. *)
let test_consensus_released_values_reach_healed_member () =
  let system = make_system ~n:3 ~seed:3 () in
  ensure_all system Service.consensus;
  let logs = decisions_log system in
  let stack = System.stack system in
  let iid k = { P.Consensus_iface.epoch = 0; k } in
  let decision node k = List.assoc_opt (iid k) !(List.nth logs node) in
  let retained node = P.Consensus_ct.retained (stack node) in
  (* Propose [ks] in order at [nodes], each once the one before is
     decided, as Abcast_ct does. *)
  let propose_in_order nodes ks =
    List.iter
      (fun k ->
        List.iter
          (fun node -> propose system ~node ~iid:(iid k) (Printf.sprintf "v%d.%d" k node))
          nodes;
        System.run_for system 1_000.0)
      ks
  in
  Dpu_net.Datagram.partition (System.net system) [ [ 0; 1 ]; [ 2 ] ];
  propose_in_order [ 0; 1 ] [ 0; 1 ];
  System.run_for system 90_000.0;
  propose_in_order [ 0; 1 ] [ 2; 3; 4 ];
  List.iter
    (fun node ->
      check Alcotest.int "all five values held" 5 (retained node);
      check Alcotest.bool "rp2p gave up on node 2" true
        ((P.Rp2p.stats (stack node)).P.Rp2p.gave_up > 0))
    [ 0; 1 ];
  check Alcotest.(option string) "node 2 cut off" None (decision 2 0);
  Dpu_net.Datagram.heal (System.net system);
  propose_in_order [ 2 ] [ 0; 1; 2; 3; 4 ];
  System.run_for system 5_000.0;
  for k = 0 to 4 do
    check Alcotest.bool "decided at node 0" true (decision 0 k <> None);
    check Alcotest.(option string) "node 1 agrees" (decision 0 k) (decision 1 k);
    check Alcotest.(option string) "node 2 decides the same value" (decision 0 k) (decision 2 k)
  done;
  check Alcotest.int "node 0 holds the last value" 1 (retained 0);
  check Alcotest.int "node 1 holds the last value" 1 (retained 1);
  check Alcotest.int "node 2 holds the given-up two and the last" 3 (retained 2);
  (* A stray estimate or wake-up for an instance below every released
     one, injected past the codec (which rejects a negative k), never
     reads the released weights nor enters a round, whose coordinator
     (k + r) mod n would be negative: each decides nothing and drops
     nothing. *)
  let decided_before = P.Consensus_ct.decided_count (stack 0) in
  let stray payload =
    Stack.indicate (stack 0) Service.rp2p (P.Rp2p.Recv { src = 1; payload });
    System.run_for system 1_000.0;
    check Alcotest.int "stray frame decides nothing" decided_before
      (P.Consensus_ct.decided_count (stack 0));
    check Alcotest.int "stray frame drops nothing" 1 (retained 0);
    check Alcotest.(option string) "no decision for k = -1" None (decision 0 (-1))
  in
  stray
    (P.Consensus_ct.W_estimate
       { iid = iid (-1); round = 1; from = 1; value = Blob "stray"; ts = 0; weight = 5 });
  stray (P.Consensus_ct.W_wakeup { iid = iid (-1) });
  (* Proposing k = 4 released k = 0 at node 0: proposing it again
     breaks the caller contract. *)
  propose system ~node:0 ~iid:(iid 0) "again";
  match System.run_for system 1_000.0 with
  | () -> fail "re-proposing a released instance was accepted"
  | exception Invalid_argument msg ->
    check Alcotest.bool "the contract is named" true
      (String.starts_with ~prefix:"Consensus_ct:" msg)

(* Closing an epoch stands for every later proposal its caller will
   never make: each held value of the epoch goes once every other
   member has relayed it, the last one included, while other epochs
   keep theirs. Node 2 is cut off while nodes 0 and 1 decide one
   instance in epochs 0 and 1, so node 0's value waits for node 2's
   relay after the close. The wire is unchanged: a late estimate for
   the dropped instance is answered with a W_released, and proposing
   it again raises. *)
let test_consensus_closed_epoch_drops_last_value () =
  let system = make_system ~n:3 ~seed:3 () in
  ensure_all system Service.consensus;
  let frames = consensus_frames system in
  let stack = System.stack system in
  let retained node = P.Consensus_ct.retained (stack node) in
  let iid epoch = { P.Consensus_iface.epoch; k = 0 } in
  Dpu_net.Datagram.partition (System.net system) [ [ 0; 1 ]; [ 2 ] ];
  List.iter
    (fun epoch ->
      List.iter (fun node -> propose system ~node ~iid:(iid epoch) "v") [ 0; 1 ];
      System.run_for system 1_000.0)
    [ 0; 1 ];
  check Alcotest.int "both values held" 2 (retained 0);
  P.Consensus_iface.close (stack 0) ~epoch:0;
  check Alcotest.int "held until node 2 relays" 2 (retained 0);
  Dpu_net.Datagram.heal (System.net system);
  System.run_for system 5_000.0;
  check Alcotest.int "epoch 0's last value dropped" 1 (retained 0);
  check Alcotest.int "node 1 did not close" 2 (retained 1);
  frames := [];
  Stack.indicate (stack 0) Service.rp2p
    (P.Rp2p.Recv
       {
         src = 2;
         payload =
           P.Consensus_ct.W_estimate
             { iid = iid 0; round = 1; from = 2; value = Blob "late"; ts = 0; weight = 4 };
       });
  System.run_for system 1_000.0;
  check Alcotest.bool "a late estimate gets a W_released" true
    (List.exists (function 0, 2, P.Consensus_ct.W_released _ -> true | _ -> false) !frames);
  propose system ~node:0 ~iid:(iid 0) "again";
  match System.run_for system 1_000.0 with
  | () -> fail "re-proposing in a closed epoch was accepted"
  | exception Invalid_argument msg ->
    check Alcotest.bool "the contract is named" true
      (String.starts_with ~prefix:"Consensus_ct:" msg)

(* A W_decide names a node, not a module. Here node 2 installs a second
   Consensus_ct after its first one relayed the decisions of k = 0 and
   1, and proposes k = 0 to it, as a caller routing one epoch to two
   installs would. Nodes 0 and 1 have one install each and have dropped
   k = 0, so node 2's estimate is answered with a W_released, on which
   the second module must not decide: it stalls instead of deciding a
   value nobody proposed. Node 2 itself, with two installs, drops
   nothing from then on. *)
let test_consensus_released_answer_decides_nothing () =
  let system = make_system ~n:3 ~seed:3 () in
  ensure_all system Service.consensus;
  let frames = consensus_frames system in
  let stack = System.stack system in
  let retained node = P.Consensus_ct.retained (stack node) in
  let iid k = { P.Consensus_iface.epoch = 0; k } in
  let propose_at_all k =
    for node = 0 to 2 do
      propose system ~node ~iid:(iid k) (Printf.sprintf "v%d.%d" k node)
    done;
    System.run_for system 1_000.0
  in
  propose_at_all 0;
  propose_at_all 1;
  List.iter (fun node -> check Alcotest.int "k = 0 dropped" 1 (retained node)) [ 0; 1; 2 ];
  let second = Service.make "consensus.second" in
  Stack.bind (stack 2) second (P.Consensus_ct.install ~service:second ~n:3 (stack 2));
  let decided = ref [] in
  listen system ~node:2 ~svc:second (function
    | P.Consensus_iface.Decide { iid; value } -> decided := (iid, value) :: !decided
    | _ -> ());
  frames := [];
  Stack.call (stack 2) second
    (P.Consensus_iface.Propose { iid = iid 0; value = Blob "late"; weight = 4 });
  System.run_for system 5_000.0;
  check Alcotest.bool "node 2 was answered with a W_released" true
    (List.exists
       (function _, 2, P.Consensus_ct.W_released _ -> true | _ -> false)
       !frames);
  check Alcotest.int "the second module decides nothing" 0 (List.length !decided);
  propose_at_all 2;
  check Alcotest.int "node 0 drops k = 1" 1 (retained 0);
  check Alcotest.int "node 1 drops k = 1" 1 (retained 1);
  (* k = 1 and 2 in the first install, k = 2 in the second, which
     joined it through the wake-ups. *)
  check Alcotest.int "node 2 drops nothing" 3 (retained 2)

(* ------------------------------------------------------------------ *)
(* ABcast variants                                                    *)
(* ------------------------------------------------------------------ *)

(* Build a system with a given abcast variant bound on every stack. *)
let make_abcast_system ?(n = 3) ?(seed = 1) ?(loss = 0.0) ?batching variant =
  let system = make_system ~n ~seed ~loss () in
  P.Abcast_ct.register ?batching system;
  P.Abcast_seq.register ?batching system;
  P.Abcast_token.register system;
  System.iter_stacks system (fun stack ->
      ignore (Registry.instantiate (System.registry system) stack ~name:variant));
  system

let abcast_logs system =
  List.init (System.n system) (fun node ->
      let log = ref [] in
      listen system ~node ~svc:Service.abcast (fun p ->
          match p with
          | P.Abcast_iface.Deliver { origin = _; payload = Blob s } -> log := s :: !log
          | _ -> ());
      log)

let abcast system ~node s =
  Stack.call (System.stack system node) Service.abcast
    (P.Abcast_iface.Broadcast { size = 256; payload = Blob s })

(* A stopped provider arms nothing. Batched with a 50 ms deadline, the
   sequencer (node 0) holds one request in its batch, and every ct
   module one unordered message, when they are removed 5 ms after the
   broadcast: no order or consensus frame may follow, where the batch
   timer would have sent one at 50 ms. *)
let test_abcast_stopped_provider_is_silent () =
  let batching = { P.Batcher.max_batch = 64; max_delay_ms = 50.0 } in
  let stop_after_broadcast system ~nodes =
    abcast system ~node:1 "m";
    System.run_for system 5.0;
    List.iter
      (fun node ->
        let stack = System.stack system node in
        Option.iter (Stack.remove_module stack) (Stack.bound stack Service.abcast))
      nodes;
    System.run_for system 500.0
  in
  let seq = make_abcast_system ~batching P.Abcast_seq.protocol_name in
  let orders = ref 0 in
  for node = 0 to 2 do
    listen seq ~node ~svc:Service.net (function
      | P.Udp.Recv
          {
            payload =
              P.Rp2p.Wire_data
                { payload = P.Abcast_seq.Wire_order _ | P.Abcast_seq.Wire_order_batch _; _ };
            _;
          } ->
        incr orders
      | _ -> ())
  done;
  stop_after_broadcast seq ~nodes:[ 0 ];
  check Alcotest.int "a stopped sequencer orders nothing" 0 !orders;
  let ct = make_abcast_system ~batching P.Abcast_ct.protocol_name in
  let frames = consensus_frames ct in
  stop_after_broadcast ct ~nodes:[ 0; 1; 2 ];
  check Alcotest.int "stopped ct modules propose nothing" 0 (List.length !frames)

let run_abcast_scenario ?(n = 3) ?(seed = 1) ?(loss = 0.0) ~msgs variant =
  let system = make_abcast_system ~n ~seed ~loss variant in
  let logs = abcast_logs system in
  for i = 0 to msgs - 1 do
    let node = i mod n in
    ignore
      (Clock.defer (System.clock system) ~delay:(float_of_int i *. 3.0) (fun () ->
           abcast system ~node (Printf.sprintf "%d:%d" node i)))
  done;
  System.run_until_quiescent ~limit:30_000.0 system;
  (system, List.map (fun log -> List.rev !log) logs)

let check_abcast_properties ~msgs sequences =
  match sequences with
  | [] -> fail "no sequences"
  | first :: rest ->
    check Alcotest.int "all messages delivered" msgs (List.length first);
    check Alcotest.int "no duplicates" msgs (List.length (List.sort_uniq compare first));
    List.iter
      (fun seq -> check (Alcotest.list Alcotest.string) "identical total order" first seq)
      rest

let test_abcast_properties variant () =
  let _system, sequences = run_abcast_scenario ~msgs:30 variant in
  check_abcast_properties ~msgs:30 sequences

let test_abcast_under_loss variant () =
  let _system, sequences = run_abcast_scenario ~seed:4 ~loss:0.1 ~msgs:20 variant in
  check_abcast_properties ~msgs:20 sequences

let test_abcast_n7 variant () =
  let _system, sequences = run_abcast_scenario ~n:7 ~msgs:21 variant in
  check_abcast_properties ~msgs:21 sequences

let test_abcast_under_duplication variant () =
  (* Heavy datagram duplication: dedup layers at every level must hold. *)
  let system = System.create ~seed:21 ~dup:0.4 ~n:3 () in
  P.Udp.register system;
  P.Rp2p.register system;
  P.Fd.register system;
  P.Rbcast.register system;
  P.Consensus_ct.register system;
  P.Abcast_ct.register system;
  P.Abcast_seq.register system;
  P.Abcast_token.register system;
  System.iter_stacks system (fun stack ->
      ignore (Registry.instantiate (System.registry system) stack ~name:variant));
  let logs = abcast_logs system in
  for i = 0 to 14 do
    ignore
      (Clock.defer (System.clock system) ~delay:(float_of_int i *. 6.0) (fun () ->
           abcast system ~node:(i mod 3) (string_of_int i)))
  done;
  System.run_until_quiescent ~limit:30_000.0 system;
  check_abcast_properties ~msgs:15 (List.map (fun l -> List.rev !l) logs)

let prop_abcast_total_order variant =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: total order for random workloads" variant)
    ~count:10
    QCheck.(pair (int_range 1 25) (int_range 1 1000))
    (fun (msgs, seed) ->
      let _system, sequences = run_abcast_scenario ~seed ~msgs variant in
      match sequences with
      | first :: rest ->
        List.length first = msgs && List.for_all (fun s -> s = first) rest
      | [] -> false)

let test_abcast_ct_batching () =
  (* With batching enabled, many concurrent messages need far fewer
     consensus instances. *)
  let count_instances batching =
    let system = make_system ~n:3 () in
    P.Abcast_ct.register ?batching system;
    System.iter_stacks system (fun stack ->
        ignore
          (Registry.instantiate (System.registry system) stack ~name:P.Abcast_ct.protocol_name));
    let logs = abcast_logs system in
    for i = 0 to 19 do
      abcast system ~node:(i mod 3) (string_of_int i)
    done;
    System.run_until_quiescent ~limit:30_000.0 system;
    check Alcotest.int "all delivered" 20 (List.length !(List.nth logs 0));
    P.Consensus_ct.decided_count (System.stack system 0)
  in
  let unbatched = count_instances None in
  let batched = count_instances (Some { P.Batcher.max_batch = 8; max_delay_ms = 2.0 }) in
  check Alcotest.bool
    (Printf.sprintf "batched (%d) uses fewer instances than unbatched (%d)" batched unbatched)
    true
    (batched < unbatched)

let test_abcast_token_holder_crash () =
  (* Crash a node while traffic flows; the ring skips it after suspicion
     and the token is regenerated if lost. *)
  let system = make_abcast_system ~n:4 ~seed:9 P.Abcast_token.protocol_name in
  let logs = abcast_logs system in
  for i = 0 to 11 do
    let node = i mod 3 in
    (* only nodes 0-2 send; 3 will crash *)
    ignore
      (Clock.defer (System.clock system) ~delay:(float_of_int i *. 10.0) (fun () ->
           abcast system ~node (string_of_int i)))
  done;
  ignore
    (Clock.defer (System.clock system) ~delay:35.0 (fun () -> System.crash_node system 3));
  System.run_until_quiescent ~limit:30_000.0 system;
  let sequences = List.filteri (fun i _ -> i <> 3) logs in
  match List.map (fun l -> List.rev !l) sequences with
  | first :: rest ->
    check Alcotest.int "survivors deliver everything" 12 (List.length first);
    List.iter (fun s -> check (Alcotest.list Alcotest.string) "order" first s) rest
  | [] -> fail "no logs"

(* ------------------------------------------------------------------ *)
(* Group membership                                                   *)
(* ------------------------------------------------------------------ *)

let make_gm_system ?(n = 3) ?(seed = 1) ?gm_config () =
  let system = make_system ~n ~seed () in
  P.Abcast_ct.register system;
  Dpu_core.Repl.register system;
  P.Gm.register ?config:gm_config system;
  System.iter_stacks system (fun stack ->
      ignore
        (Registry.instantiate (System.registry system) stack ~name:P.Abcast_ct.protocol_name);
      Registry.ensure_bound (System.registry system) stack Service.gm);
  system

let view_logs system =
  List.init (System.n system) (fun node ->
      let log = ref [] in
      listen system ~node ~svc:Service.gm (fun p ->
          match p with
          | P.Gm.View v -> log := v :: !log
          | _ -> ());
      log)

let test_gm_initial_view () =
  let system = make_gm_system () in
  System.run_for system 100.0;
  match P.Gm.current_view (System.stack system 0) with
  | Some v ->
    check Alcotest.int "view 0" 0 v.P.Gm.id;
    check (Alcotest.list Alcotest.int) "all members" [ 0; 1; 2 ] v.P.Gm.members
  | None -> fail "no view"

let test_gm_view_beyond_62_members () =
  (* A view is a member list: nothing caps the ids it can hold. *)
  let system = make_gm_system ~n:64 () in
  System.run_for system 1.0;
  match P.Gm.current_view (System.stack system 0) with
  | Some v ->
    check (Alcotest.list Alcotest.int) "all 64 members" (List.init 64 Fun.id) v.P.Gm.members
  | None -> fail "no view"

let test_gm_leave_join () =
  let system = make_gm_system () in
  let logs = view_logs system in
  Stack.call (System.stack system 0) Service.gm (P.Gm.Leave 2);
  System.run_for system 10_000.0;
  Stack.call (System.stack system 1) Service.gm (P.Gm.Join 2);
  System.run_for system 10_000.0;
  List.iter
    (fun log ->
      (* Initial view publication plus the two changes. *)
      let views = List.rev_map (fun v -> v.P.Gm.members) !log in
      check
        (Alcotest.list (Alcotest.list Alcotest.int))
        "same view sequence"
        [ [ 0; 1; 2 ]; [ 0; 1 ]; [ 0; 1; 2 ] ]
        views)
    logs;
  match P.Gm.current_view (System.stack system 0) with
  | Some v -> check Alcotest.int "two changes" 2 v.P.Gm.id
  | None -> fail "no view"

let test_gm_duplicate_proposal_idempotent () =
  let system = make_gm_system () in
  Stack.call (System.stack system 0) Service.gm (P.Gm.Leave 2);
  Stack.call (System.stack system 1) Service.gm (P.Gm.Leave 2);
  System.run_until_quiescent ~limit:20_000.0 system;
  match P.Gm.current_view (System.stack system 0) with
  | Some v ->
    check Alcotest.int "applied once" 1 v.P.Gm.id;
    check (Alcotest.list Alcotest.int) "members" [ 0; 1 ] v.P.Gm.members
  | None -> fail "no view"

let test_gm_excludes_crashed_member () =
  let system =
    make_gm_system ~n:4 ~gm_config:{ P.Gm.exclusion_delay_ms = 150.0 } ()
  in
  System.crash_node system 3;
  System.run_until_quiescent ~limit:30_000.0 system;
  List.iter
    (fun node ->
      match P.Gm.current_view (System.stack system node) with
      | Some v ->
        check (Alcotest.list Alcotest.int) "crashed member excluded" [ 0; 1; 2 ]
          v.P.Gm.members
      | None -> fail "no view")
    [ 0; 1; 2 ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let variant_tests name variant =
    [
      tc (name ^ ": validity/integrity/total order") (test_abcast_properties variant);
      tc (name ^ ": under loss") (test_abcast_under_loss variant);
      tc (name ^ ": under duplication") (test_abcast_under_duplication variant);
      tc (name ^ ": n=7") (test_abcast_n7 variant);
    ]
  in
  Alcotest.run "protocols"
    [
      ( "udp",
        [ tc "roundtrip" test_udp_roundtrip; tc "crashed stack" test_udp_crashed_stack_silent ] );
      ( "rp2p",
        [
          tc "reliable under loss" test_rp2p_reliable_under_loss;
          tc "dedup" test_rp2p_dedup_under_duplication;
          tc "gives up on crashed" test_rp2p_gives_up_on_crashed_dst;
          tc "silent peer costs one probe" test_rp2p_silent_peer_costs_one_probe;
          tc "parked frames resume after heal" test_rp2p_parked_frames_resume_after_heal;
          tc "RTT from an echoed earlier attempt" test_rp2p_rtt_from_echoed_earlier_attempt;
          tc "out-of-range ack echo" test_rp2p_out_of_range_ack_echo;
          tc "self send" test_rp2p_self_send;
          tc "stats" test_rp2p_stats_accepted;
          tc "adaptive RTO converges" test_rp2p_adaptive_rto_converges;
          tc "storm backoff resets" test_rp2p_storm_backoff_resets_on_sample;
        ] );
      ( "seq_set",
        [
          tc "gap fills" test_seq_set_gap_fills;
          QCheck_alcotest.to_alcotest ~long:false prop_seq_set_matches_hashtbl;
        ] );
      ( "fd",
        [
          tc "no false suspicion" test_fd_no_false_suspicion_when_alive;
          tc "detects crash" test_fd_detects_crash;
          tc "restores" test_fd_restore_after_partition_heals;
          tc "adaptive timeout" test_fd_adaptive_timeout;
        ] );
      ( "rbcast",
        [
          tc "all deliver" test_rbcast_all_deliver;
          tc "dedup" test_rbcast_dedup;
          tc "no relay" test_rbcast_no_relay_still_delivers;
          tc "relay gives agreement on sender crash" test_rbcast_relay_gives_agreement;
          tc "no relay breaks it (negative control)" test_rbcast_no_relay_breaks_agreement;
        ] );
      ( "consensus",
        [
          tc "agreement" test_consensus_basic_agreement;
          tc "single proposer" test_consensus_single_proposer;
          tc "multi instance" test_consensus_multi_instance;
          tc "epoch separation" test_consensus_epoch_separation;
          tc "coordinator crash" test_consensus_coordinator_crash;
          tc "crash seeds agree" test_consensus_crash_seeds_agree;
          tc "re-indication" test_consensus_propose_after_decided_reindicates;
          tc "decided log answers late traffic" test_consensus_decided_log;
          tc "released values reach a healed member"
            test_consensus_released_values_reach_healed_member;
          tc "released answer decides nothing" test_consensus_released_answer_decides_nothing;
          tc "closed epoch drops its last value" test_consensus_closed_epoch_drops_last_value;
          tc "partition + heal" test_consensus_partition_heal;
          tc "minority cannot decide" test_consensus_minority_side_cannot_decide;
        ] );
      ("abcast.ct", variant_tests "ct" P.Abcast_ct.protocol_name);
      ("abcast.seq", variant_tests "seq" P.Abcast_seq.protocol_name);
      ("abcast.token", variant_tests "token" P.Abcast_token.protocol_name);
      ( "abcast.special",
        [
          tc "ct batching ablation" test_abcast_ct_batching;
          tc "token node crash" test_abcast_token_holder_crash;
          tc "stopped provider is silent" test_abcast_stopped_provider_is_silent;
        ] );
      ( "gm",
        [
          tc "initial view" test_gm_initial_view;
          tc "view of 64 members" test_gm_view_beyond_62_members;
          tc "leave/join" test_gm_leave_join;
          tc "idempotent proposals" test_gm_duplicate_proposal_idempotent;
          tc "excludes crashed" test_gm_excludes_crashed_member;
        ] );
      ( "abcast.properties",
        List.map
          (QCheck_alcotest.to_alcotest ~long:false)
          [
            prop_abcast_total_order P.Abcast_ct.protocol_name;
            prop_abcast_total_order P.Abcast_seq.protocol_name;
            prop_abcast_total_order P.Abcast_token.protocol_name;
          ] );
    ]
