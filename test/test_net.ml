(* Tests for the simulated datagram network. *)

module Sim = Dpu_engine.Sim
module Rng = Dpu_engine.Rng
module Latency = Dpu_net.Latency
module Datagram = Dpu_net.Datagram

let check = Alcotest.check
let fail = Alcotest.fail

(* ------------------------------------------------------------------ *)
(* Latency models                                                     *)
(* ------------------------------------------------------------------ *)

let test_latency_constant () =
  let rng = Rng.create ~seed:1 in
  for _ = 1 to 10 do
    check (Alcotest.float 0.0) "constant" 2.5 (Latency.sample (Latency.Constant 2.5) rng)
  done

let test_latency_floor () =
  let rng = Rng.create ~seed:1 in
  check (Alcotest.float 0.0) "floored" 0.001
    (Latency.sample (Latency.Constant 0.0) rng)

let test_latency_uniform_bounds () =
  let rng = Rng.create ~seed:2 in
  for _ = 1 to 1000 do
    let d = Latency.sample (Latency.Uniform { lo = 1.0; hi = 2.0 }) rng in
    if d < 1.0 || d >= 2.0 then fail "uniform latency out of bounds"
  done

let test_latency_lognormal_median () =
  let rng = Rng.create ~seed:3 in
  let model = Latency.Lognormal { median = 0.5; sigma = 0.3 } in
  let samples = List.init 20_000 (fun _ -> Latency.sample model rng) in
  let below = List.length (List.filter (fun d -> d < 0.5) samples) in
  let frac = float_of_int below /. 20_000.0 in
  if abs_float (frac -. 0.5) > 0.02 then
    fail (Printf.sprintf "median fraction %f" frac)

let test_latency_bandwidth_term () =
  let rng = Rng.create ~seed:4 in
  let link = { Latency.model = Latency.Constant 1.0; bandwidth_mbps = 100.0 } in
  (* 4096 bytes at 100 Mb/s = 32768 bits / 100_000 bits-per-ms ~ 0.328 ms *)
  let d = Latency.delay link rng ~size_bytes:4096 in
  check (Alcotest.float 1e-6) "propagation + transmission" (1.0 +. 0.32768) d

let test_latency_infinite_bandwidth () =
  let rng = Rng.create ~seed:5 in
  let d = Latency.delay (Latency.constant 2.0) rng ~size_bytes:1_000_000 in
  check (Alcotest.float 0.0) "no transmission term" 2.0 d

(* ------------------------------------------------------------------ *)
(* Datagram network                                                   *)
(* ------------------------------------------------------------------ *)

let make_net ?(n = 3) ?(loss = 0.0) ?(dup = 0.0) ?link () =
  let sim = Sim.create ~seed:7 () in
  let link = match link with Some l -> l | None -> Latency.constant 1.0 in
  let net = Datagram.create sim ~n ~loss ~dup ~link () in
  (sim, net)

let inbox net node =
  let log = ref [] in
  Datagram.set_handler net ~node (fun ~src payload -> log := (src, payload) :: !log);
  log

let test_delivery () =
  let sim, net = make_net () in
  let inbox1 = inbox net 1 in
  Datagram.send net ~src:0 ~dst:1 ~size_bytes:100 "hello";
  Sim.run sim;
  check Alcotest.int "one datagram" 1 (List.length !inbox1);
  check Alcotest.bool "content" true (!inbox1 = [ (0, "hello") ])

let test_self_send () =
  let sim, net = make_net () in
  let inbox0 = inbox net 0 in
  Datagram.send net ~src:0 ~dst:0 ~size_bytes:10 "loop";
  Sim.run sim;
  check Alcotest.int "delivered to self" 1 (List.length !inbox0)

let test_no_handler_blocked () =
  let sim, net = make_net () in
  Datagram.send net ~src:0 ~dst:2 ~size_bytes:10 "void";
  Sim.run sim;
  check Alcotest.int "blocked count" 1 (Datagram.counters net).Datagram.blocked

let test_loss_one () =
  let sim, net = make_net ~loss:1.0 () in
  let inbox1 = inbox net 1 in
  for _ = 1 to 20 do
    Datagram.send net ~src:0 ~dst:1 ~size_bytes:10 "x"
  done;
  Sim.run sim;
  check Alcotest.int "all lost" 0 (List.length !inbox1);
  check Alcotest.int "counted" 20 (Datagram.counters net).Datagram.lost

let test_loss_zero () =
  let sim, net = make_net ~loss:0.0 () in
  let inbox1 = inbox net 1 in
  for _ = 1 to 20 do
    Datagram.send net ~src:0 ~dst:1 ~size_bytes:10 "x"
  done;
  Sim.run sim;
  check Alcotest.int "all delivered" 20 (List.length !inbox1)

let test_self_send_never_lost () =
  let sim, net = make_net ~loss:1.0 () in
  let inbox0 = inbox net 0 in
  Datagram.send net ~src:0 ~dst:0 ~size_bytes:10 "x";
  Sim.run sim;
  check Alcotest.int "loopback reliable" 1 (List.length !inbox0)

let test_duplication () =
  let sim, net = make_net ~dup:1.0 () in
  let inbox1 = inbox net 1 in
  Datagram.send net ~src:0 ~dst:1 ~size_bytes:10 "x";
  Sim.run sim;
  check Alcotest.int "two copies" 2 (List.length !inbox1);
  check Alcotest.int "dup counter" 1 (Datagram.counters net).Datagram.duplicated

let test_dup_bytes_accounting () =
  (* [bytes] counts each datagram once at send; the duplication
     process's extra wire traffic is exactly [dup_bytes] on top. *)
  let sim, net = make_net ~dup:1.0 () in
  let inbox1 = inbox net 1 in
  let sizes = [ 10; 200; 3_000; 47 ] in
  List.iter (fun s -> Datagram.send net ~src:0 ~dst:1 ~size_bytes:s "x") sizes;
  Sim.run sim;
  let total = List.fold_left ( + ) 0 sizes in
  let c = Datagram.counters net in
  check Alcotest.int "every datagram duplicated" (List.length sizes)
    c.Datagram.duplicated;
  check Alcotest.int "dup_bytes = bytes of the extra copies" total
    c.Datagram.dup_bytes;
  check Alcotest.int "bytes counts each datagram once" total c.Datagram.bytes;
  check Alcotest.int "delivered = sent + duplicated"
    (c.Datagram.sent + c.Datagram.duplicated)
    c.Datagram.delivered;
  check Alcotest.int "receiver saw every copy"
    (c.Datagram.delivered)
    (List.length !inbox1)

let test_crash_dst () =
  let sim, net = make_net () in
  let inbox1 = inbox net 1 in
  Datagram.crash net 1;
  Datagram.send net ~src:0 ~dst:1 ~size_bytes:10 "x";
  Sim.run sim;
  check Alcotest.int "nothing" 0 (List.length !inbox1);
  check Alcotest.bool "is_crashed" true (Datagram.is_crashed net 1)

let test_crash_src () =
  let sim, net = make_net () in
  let inbox1 = inbox net 1 in
  Datagram.crash net 0;
  Datagram.send net ~src:0 ~dst:1 ~size_bytes:10 "x";
  Sim.run sim;
  check Alcotest.int "sender silenced" 0 (List.length !inbox1);
  check Alcotest.int "not even counted sent" 0 (Datagram.counters net).Datagram.sent

let test_crash_in_flight () =
  let sim, net = make_net () in
  let inbox1 = inbox net 1 in
  Datagram.send net ~src:0 ~dst:1 ~size_bytes:10 "x";
  (* Crash while the datagram is in flight (delivery at t=1). *)
  ignore (Sim.schedule sim ~delay:0.5 (fun () -> Datagram.crash net 1));
  Sim.run sim;
  check Alcotest.int "dropped at arrival" 0 (List.length !inbox1)

let test_correct_nodes () =
  let _sim, net = make_net ~n:4 () in
  Datagram.crash net 2;
  check (Alcotest.list Alcotest.int) "correct" [ 0; 1; 3 ] (Datagram.correct_nodes net)

let test_partition () =
  let sim, net = make_net ~n:4 () in
  let inbox1 = inbox net 1 in
  let inbox3 = inbox net 3 in
  Datagram.partition net [ [ 0; 1 ]; [ 2; 3 ] ];
  Datagram.send net ~src:0 ~dst:1 ~size_bytes:10 "same-side";
  Datagram.send net ~src:0 ~dst:3 ~size_bytes:10 "cross";
  Sim.run sim;
  check Alcotest.int "same side delivered" 1 (List.length !inbox1);
  check Alcotest.int "cross dropped" 0 (List.length !inbox3)

let test_heal () =
  let sim, net = make_net ~n:2 () in
  let inbox1 = inbox net 1 in
  Datagram.partition net [ [ 0 ]; [ 1 ] ];
  Datagram.send net ~src:0 ~dst:1 ~size_bytes:10 "blocked";
  Sim.run sim;
  Datagram.heal net;
  Datagram.send net ~src:0 ~dst:1 ~size_bytes:10 "after";
  Sim.run sim;
  check Alcotest.int "only post-heal" 1 (List.length !inbox1)

let test_partition_implicit_group () =
  let sim, net = make_net ~n:3 () in
  let inbox2 = inbox net 2 in
  (* Node 2 not mentioned: forms its own group. *)
  Datagram.partition net [ [ 0; 1 ] ];
  Datagram.send net ~src:0 ~dst:2 ~size_bytes:10 "x";
  Sim.run sim;
  check Alcotest.int "isolated" 0 (List.length !inbox2)

let test_drop_filter () =
  let sim, net = make_net () in
  let inbox1 = inbox net 1 in
  Datagram.set_drop_filter net (Some (fun ~src:_ ~dst:_ p -> p = "drop-me"));
  Datagram.send net ~src:0 ~dst:1 ~size_bytes:10 "drop-me";
  Datagram.send net ~src:0 ~dst:1 ~size_bytes:10 "keep-me";
  Sim.run sim;
  check Alcotest.int "one delivered" 1 (List.length !inbox1);
  Datagram.set_drop_filter net None;
  Datagram.send net ~src:0 ~dst:1 ~size_bytes:10 "drop-me";
  Sim.run sim;
  check Alcotest.int "filter removed" 2 (List.length !inbox1)

let test_filtered_counted_separately () =
  (* Regression: filter drops must not be conflated with stochastic
     loss — fault-injection drops stay distinguishable in reports. *)
  let sim, net = make_net ~loss:0.0 () in
  ignore (inbox net 1);
  Datagram.set_drop_filter net (Some (fun ~src:_ ~dst:_ p -> p = "drop-me"));
  Datagram.send net ~src:0 ~dst:1 ~size_bytes:10 "drop-me";
  Datagram.send net ~src:0 ~dst:1 ~size_bytes:10 "keep-me";
  Sim.run sim;
  let c = Datagram.counters net in
  check Alcotest.int "filtered" 1 c.Datagram.filtered;
  check Alcotest.int "not lost" 0 c.Datagram.lost;
  check Alcotest.int "delivered" 1 c.Datagram.delivered

let test_blocked_cause_counters () =
  let sim, net = make_net ~n:4 () in
  ignore (inbox net 1);
  (* no handler on node 3 *)
  Datagram.crash net 2;
  Datagram.send net ~src:0 ~dst:2 ~size_bytes:10 "to-crashed";
  Datagram.send net ~src:0 ~dst:3 ~size_bytes:10 "to-handlerless";
  Sim.run sim;
  Datagram.partition net [ [ 0 ]; [ 1 ] ];
  Datagram.send net ~src:0 ~dst:1 ~size_bytes:10 "cross-partition";
  Sim.run sim;
  let c = Datagram.counters net in
  check Alcotest.int "crash cause" 1 c.Datagram.blocked_crash;
  check Alcotest.int "partition cause" 1 c.Datagram.blocked_partition;
  check Alcotest.int "no-handler cause" 1 c.Datagram.blocked_no_handler;
  check Alcotest.int "total" 3 c.Datagram.blocked

let test_counters_bytes () =
  let sim, net = make_net () in
  ignore (inbox net 1);
  Datagram.send net ~src:0 ~dst:1 ~size_bytes:123 "x";
  Datagram.send net ~src:0 ~dst:1 ~size_bytes:77 "y";
  Sim.run sim;
  let c = Datagram.counters net in
  check Alcotest.int "bytes" 200 c.Datagram.bytes;
  check Alcotest.int "sent" 2 c.Datagram.sent;
  check Alcotest.int "delivered" 2 c.Datagram.delivered

let test_egress_serialization () =
  (* A burst of large datagrams from one node must be spread out by the
     transmission time; with a constant propagation delay the arrival
     spacing equals size/bandwidth. *)
  let sim = Sim.create ~seed:7 () in
  let link = { Latency.model = Latency.Constant 0.1; bandwidth_mbps = 100.0 } in
  let net = Datagram.create sim ~n:2 ~link () in
  let arrivals = ref [] in
  Datagram.set_handler net ~node:1 (fun ~src:_ _ -> arrivals := Sim.now sim :: !arrivals);
  for _ = 1 to 5 do
    Datagram.send net ~src:0 ~dst:1 ~size_bytes:4096 "big"
  done;
  Sim.run sim;
  let times = List.rev !arrivals in
  check Alcotest.int "all arrived" 5 (List.length times);
  let transmission = 4096.0 *. 8.0 /. (100.0 *. 1000.0) in
  let last = List.nth times 4 and first = List.hd times in
  check (Alcotest.float 1e-6) "serialised spacing" (4.0 *. transmission) (last -. first)

let test_egress_backlog_reported () =
  let sim = Sim.create ~seed:7 () in
  let link = { Latency.model = Latency.Constant 0.1; bandwidth_mbps = 100.0 } in
  let net = Datagram.create sim ~n:2 ~link () in
  Datagram.set_handler net ~node:1 (fun ~src:_ _ -> ());
  check (Alcotest.float 0.0) "idle" 0.0 (Datagram.egress_backlog_ms net ~node:0);
  for _ = 1 to 10 do
    Datagram.send net ~src:0 ~dst:1 ~size_bytes:12_500 "1ms-each"
  done;
  (* 10 x 1 ms of transmission queued. *)
  check (Alcotest.float 1e-6) "ten ms queued" 10.0 (Datagram.egress_backlog_ms net ~node:0);
  Sim.run ~until:4.0 sim;
  check (Alcotest.float 1e-6) "drains with time" 6.0 (Datagram.egress_backlog_ms net ~node:0);
  Sim.run sim;
  check (Alcotest.float 0.0) "fully drained" 0.0 (Datagram.egress_backlog_ms net ~node:0)

let test_reordering_occurs () =
  (* With high-variance latency, arrival order differs from send order
     at least once in a decent sample. *)
  let sim = Sim.create ~seed:11 () in
  let link =
    { Latency.model = Latency.Uniform { lo = 0.1; hi = 10.0 }; bandwidth_mbps = infinity }
  in
  let net = Datagram.create sim ~n:2 ~link () in
  let order = ref [] in
  Datagram.set_handler net ~node:1 (fun ~src:_ i -> order := i :: !order);
  for i = 1 to 50 do
    Datagram.send net ~src:0 ~dst:1 ~size_bytes:10 i
  done;
  Sim.run sim;
  let received = List.rev !order in
  check Alcotest.int "all arrived" 50 (List.length received);
  check Alcotest.bool "some reordering" true (received <> List.init 50 (fun i -> i + 1))

let prop_no_loss_all_delivered =
  QCheck.Test.make ~name:"lossless network delivers everything exactly once" ~count:50
    QCheck.(pair (int_range 1 40) (int_range 2 6))
    (fun (msgs, n) ->
      let sim = Sim.create ~seed:5 () in
      let net = Datagram.create sim ~n ~link:(Latency.constant 0.5) () in
      let received = ref 0 in
      for node = 0 to n - 1 do
        Datagram.set_handler net ~node (fun ~src:_ _ -> incr received)
      done;
      for i = 0 to msgs - 1 do
        Datagram.send net ~src:(i mod n) ~dst:((i + 1) mod n) ~size_bytes:10 i
      done;
      Sim.run sim;
      !received = msgs)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "net"
    [
      ( "latency",
        [
          tc "constant" test_latency_constant;
          tc "floor" test_latency_floor;
          tc "uniform bounds" test_latency_uniform_bounds;
          tc "lognormal median" test_latency_lognormal_median;
          tc "bandwidth term" test_latency_bandwidth_term;
          tc "infinite bandwidth" test_latency_infinite_bandwidth;
        ] );
      ( "datagram",
        [
          tc "delivery" test_delivery;
          tc "self send" test_self_send;
          tc "no handler -> blocked" test_no_handler_blocked;
          tc "loss=1" test_loss_one;
          tc "loss=0" test_loss_zero;
          tc "self send never lost" test_self_send_never_lost;
          tc "duplication" test_duplication;
          tc "dup bytes accounting" test_dup_bytes_accounting;
          tc "crash dst" test_crash_dst;
          tc "crash src" test_crash_src;
          tc "crash in flight" test_crash_in_flight;
          tc "correct nodes" test_correct_nodes;
          tc "partition" test_partition;
          tc "heal" test_heal;
          tc "implicit group" test_partition_implicit_group;
          tc "drop filter" test_drop_filter;
          tc "filtered counted separately" test_filtered_counted_separately;
          tc "blocked causes" test_blocked_cause_counters;
          tc "counters" test_counters_bytes;
          tc "egress serialization" test_egress_serialization;
          tc "egress backlog" test_egress_backlog_reported;
          tc "reordering" test_reordering_occurs;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest ~long:false prop_no_loss_all_delivered ] );
    ]
