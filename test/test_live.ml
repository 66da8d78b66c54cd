(* The live runtime backend: timer wheel semantics (on synthetic time —
   no wall clock involved), and the UDP transport loopback path with
   its envelope filtering. *)

open Dpu_kernel
module Clock = Dpu_runtime.Clock
module Wheel = Dpu_live.Timer_wheel

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Timer wheel                                                        *)
(* ------------------------------------------------------------------ *)

let test_wheel_fire_order () =
  let w = Wheel.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  Wheel.add w ~now:0.0 ~delay:30.0 (note "c");
  Wheel.add w ~now:0.0 ~delay:10.0 (note "a");
  Wheel.add w ~now:0.0 ~delay:20.0 (note "b");
  Wheel.advance w ~now:5.0;
  check Alcotest.(list string) "nothing due yet" [] (List.rev !log);
  Wheel.advance w ~now:15.0;
  check Alcotest.(list string) "first due" [ "a" ] (List.rev !log);
  Wheel.advance w ~now:100.0;
  check Alcotest.(list string) "deadline order" [ "a"; "b"; "c" ] (List.rev !log);
  check Alcotest.int "wheel drained" 0 (Wheel.pending w)

let test_wheel_same_deadline_fifo () =
  let w = Wheel.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Wheel.add w ~now:0.0 ~delay:10.0 (fun () -> log := i :: !log)
  done;
  Wheel.advance w ~now:50.0;
  check Alcotest.(list int) "insertion order at equal deadlines"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !log)

let test_wheel_cancellation () =
  let w = Wheel.create () in
  let fired = ref 0 in
  let tm = Wheel.schedule w ~now:0.0 ~delay:10.0 (fun () -> incr fired) in
  Wheel.add w ~now:0.0 ~delay:10.0 (fun () -> incr fired);
  Clock.cancel tm;
  Wheel.advance w ~now:50.0;
  check Alcotest.int "cancelled entry skipped" 1 !fired

let test_wheel_far_slots () =
  (* A deadline far past every other one still fires on time; the
     slot-count and granularity arguments are accepted and ignored. *)
  let w = Wheel.create ~granularity_ms:1.0 ~slots:8 () in
  let fired = ref false in
  Wheel.add w ~now:0.0 ~delay:100.0 (fun () -> fired := true);
  Wheel.advance w ~now:99.0;
  check Alcotest.bool "not yet" false !fired;
  Wheel.advance w ~now:101.0;
  check Alcotest.bool "fires after wraps" true !fired

let test_wheel_rearm_not_same_pass () =
  let w = Wheel.create () in
  let fired = ref 0 in
  let rec arm () =
    Wheel.add w ~now:10.0 ~delay:1.0 (fun () ->
        incr fired;
        arm ())
  in
  arm ();
  (* A positive-delay entry re-armed by its own callback must not fire
     again in the same pass, however far [now] advanced. *)
  Wheel.advance w ~now:1000.0;
  check Alcotest.int "one firing per pass" 1 !fired;
  Wheel.advance w ~now:2000.0;
  check Alcotest.int "next pass fires the re-arm" 2 !fired

let test_wheel_zero_delay_cascade () =
  let w = Wheel.create () in
  let log = ref [] in
  Wheel.add w ~now:0.0 ~delay:0.0 (fun () ->
      log := "outer" :: !log;
      Wheel.add w ~now:0.0 ~delay:0.0 (fun () -> log := "inner" :: !log));
  Wheel.advance w ~now:0.0;
  (* Same-instant cascades drain within one pass, like the simulator. *)
  check Alcotest.(list string) "cascade drained" [ "outer"; "inner" ] (List.rev !log);
  check Alcotest.int "nothing pending" 0 (Wheel.pending w)

let test_wheel_next_deadline () =
  let w = Wheel.create () in
  check Alcotest.(option (float 0.0)) "empty" None (Wheel.next_deadline w);
  Wheel.add w ~now:0.0 ~delay:30.0 ignore;
  Wheel.add w ~now:0.0 ~delay:10.0 ignore;
  check Alcotest.(option (float 0.001)) "earliest" (Some 10.0) (Wheel.next_deadline w);
  Clock.cancel (Wheel.schedule w ~now:0.0 ~delay:5.0 ignore);
  check
    Alcotest.(option (float 0.001))
    "cancelled entries invisible" (Some 10.0) (Wheel.next_deadline w)

let test_wheel_cancel_discounts_pending () =
  let w = Wheel.create () in
  let fired = ref 0 in
  let tms =
    List.map
      (fun delay -> Wheel.schedule w ~now:0.0 ~delay (fun () -> incr fired))
      [ 10.0; 20.0; 30.0 ]
  in
  check Alcotest.int "all counted" 3 (Wheel.pending w);
  (* The cancelled entry sits below the heap top, where no scan reaches
     it: the timer's cancel hook takes it out of the count — no phantom
     work reported while the dead entry waits for its turn. *)
  Clock.cancel (List.nth tms 1);
  check Alcotest.int "cancelled entry discounted" 2 (Wheel.pending w);
  ignore (Wheel.next_deadline w);
  Clock.cancel (List.nth tms 1);
  check Alcotest.int "discounted exactly once" 2 (Wheel.pending w);
  Wheel.advance w ~now:50.0;
  check Alcotest.int "the others fire" 2 !fired;
  check Alcotest.int "drained" 0 (Wheel.pending w);
  Clock.cancel (List.hd tms);
  check Alcotest.int "cancelling a fired timer is a no-op" 0 (Wheel.pending w)

let test_wheel_exact_deadline () =
  (* Entries fire at their own deadline, not at the end of some tick;
     next_deadline reports that same instant, so the node loop wakes
     exactly when there is work. *)
  let w = Wheel.create () in
  Wheel.advance w ~now:5.0;
  let fired = ref false in
  Wheel.add w ~now:5.2 ~delay:0.3 (fun () -> fired := true);
  check
    Alcotest.(option (float 1e-9))
    "the exact deadline" (Some 5.5) (Wheel.next_deadline w);
  Wheel.advance w ~now:5.4;
  check Alcotest.bool "not before its deadline" false !fired;
  Wheel.advance w ~now:5.5;
  check Alcotest.bool "fires at its deadline" true !fired

let test_wheel_every_keeps_phase () =
  let w = Wheel.create () in
  let fired = ref 0 in
  let tm = Wheel.every w ~now:0.0 ~period:3.0 (fun () -> incr fired) in
  Wheel.advance w ~now:3.2;
  check Alcotest.int "first period" 1 !fired;
  check
    Alcotest.(option (float 1e-9))
    "re-armed from the nominal deadline, not from 3.2" (Some 6.0)
    (Wheel.next_deadline w);
  (* A loop that wakes late catches up one period per pass: the re-arm
     at 9.0 is already due but waits for the next pass. *)
  Wheel.advance w ~now:10.0;
  check Alcotest.int "one firing per late pass" 2 !fired;
  check
    Alcotest.(option (float 1e-9))
    "the overdue period is next" (Some 9.0) (Wheel.next_deadline w);
  Wheel.advance w ~now:10.0;
  check Alcotest.int "caught up on the next pass" 3 !fired;
  Wheel.advance w ~now:10.0;
  check Alcotest.int "and no further" 3 !fired;
  check Alcotest.int "one entry pending" 1 (Wheel.pending w);
  Clock.cancel tm;
  check Alcotest.int "cancel discounts it" 0 (Wheel.pending w);
  Wheel.advance w ~now:100.0;
  check Alcotest.int "cancelled chain stays silent" 3 !fired

(* ------------------------------------------------------------------ *)
(* UDP transport loopback                                             *)
(* ------------------------------------------------------------------ *)

let with_pair f =
  let mk () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    fd
  in
  let fd0 = mk () and fd1 = mk () in
  let peers = [| Unix.getsockname fd0; Unix.getsockname fd1 |] in
  Fun.protect
    ~finally:(fun () ->
      Unix.close fd0;
      Unix.close fd1)
    (fun () -> f ~fd0 ~fd1 ~peers)

let await_readable fd =
  match Unix.select [ fd ] [] [] 5.0 with
  | [], _, _ -> Alcotest.fail "timed out waiting for a datagram"
  | _ -> ()

let msg = Dpu_core.App_msg.App (Msg.make ~origin:0 ~seq:7 ~size:32 "live")

let test_udp_loopback () =
  with_pair (fun ~fd0 ~fd1 ~peers ->
      let t0 = Dpu_live.Udp_transport.create ~me:0 ~fd:fd0 ~peers () in
      let t1 = Dpu_live.Udp_transport.create ~me:1 ~fd:fd1 ~peers () in
      let got = ref [] in
      Dpu_runtime.Transport.set_handler
        (Dpu_live.Udp_transport.transport t1)
        ~node:1
        (fun ~src p -> got := (src, Payload.encode_exn p) :: !got);
      Dpu_runtime.Transport.send
        (Dpu_live.Udp_transport.transport t0)
        ~src:0 ~dst:1 ~size_bytes:32 msg;
      await_readable fd1;
      ignore (Dpu_live.Udp_transport.drain t1 : int);
      check
        Alcotest.(list (pair int string))
        "delivered with sender identity"
        [ (0, Payload.encode_exn msg) ]
        (List.rev !got);
      let c = Dpu_live.Udp_transport.counters t1 in
      check Alcotest.int "delivered counter" 1 c.Dpu_runtime.Transport.delivered;
      check Alcotest.int "dropped counter" 0 c.Dpu_runtime.Transport.dropped)

let test_udp_foreign_frames_dropped () =
  with_pair (fun ~fd0 ~fd1 ~peers ->
      let t0 =
        Dpu_live.Udp_transport.create ~service:"dpu" ~generation:1 ~me:0 ~fd:fd0
          ~peers ()
      in
      let t1 =
        Dpu_live.Udp_transport.create ~service:"dpu" ~generation:2 ~me:1 ~fd:fd1
          ~peers ()
      in
      let got = ref 0 in
      Dpu_runtime.Transport.set_handler
        (Dpu_live.Udp_transport.transport t1)
        ~node:1
        (fun ~src:_ _ -> incr got);
      (* Wrong deployment generation: shed at the transport. *)
      Dpu_runtime.Transport.send
        (Dpu_live.Udp_transport.transport t0)
        ~src:0 ~dst:1 ~size_bytes:32 msg;
      await_readable fd1;
      ignore (Dpu_live.Udp_transport.drain t1 : int);
      (* Not even an envelope: also shed. *)
      let sent =
        Unix.sendto_substring fd1 "not a frame" 0 11 [] peers.(1)
      in
      check Alcotest.int "raw bytes sent" 11 sent;
      await_readable fd1;
      ignore (Dpu_live.Udp_transport.drain t1 : int);
      check Alcotest.int "nothing delivered" 0 !got;
      let c = Dpu_live.Udp_transport.counters t1 in
      check Alcotest.int "both dropped" 2 c.Dpu_runtime.Transport.dropped)

let test_udp_send_accounting () =
  with_pair (fun ~fd0 ~fd1:_ ~peers ->
      let t0 = Dpu_live.Udp_transport.create ~me:0 ~fd:fd0 ~peers () in
      let tr = Dpu_live.Udp_transport.transport t0 in
      (* The sealed frame exceeds the UDP payload limit: dropped before
         the syscall, and neither [sent] nor [bytes] may move. *)
      let big =
        Dpu_core.App_msg.App
          (Msg.make ~origin:0 ~seq:1 ~size:32 (String.make 70_000 'x'))
      in
      Dpu_runtime.Transport.send tr ~src:0 ~dst:1 ~size_bytes:70_000 big;
      let c = Dpu_live.Udp_transport.counters t0 in
      check Alcotest.int "oversized: dropped" 1 c.Dpu_runtime.Transport.dropped;
      check Alcotest.int "oversized: not sent" 0 c.Dpu_runtime.Transport.sent;
      check Alcotest.int "oversized: no bytes charged" 0
        c.Dpu_runtime.Transport.bytes)

let test_udp_syscall_failure_accounting () =
  (* Own sockets (not with_pair): the test closes the descriptor itself. *)
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let peers = [| Unix.getsockname fd; Unix.getsockname fd |] in
  let t0 = Dpu_live.Udp_transport.create ~me:0 ~fd ~peers () in
  Unix.close fd;
  (* sendto fails with EBADF: counted as dropped, never as sent. *)
  Dpu_runtime.Transport.send
    (Dpu_live.Udp_transport.transport t0)
    ~src:0 ~dst:1 ~size_bytes:32 msg;
  let c = Dpu_live.Udp_transport.counters t0 in
  check Alcotest.int "failed send: dropped" 1 c.Dpu_runtime.Transport.dropped;
  check Alcotest.int "failed send: not sent" 0 c.Dpu_runtime.Transport.sent;
  check Alcotest.int "failed send: no bytes charged" 0
    c.Dpu_runtime.Transport.bytes;
  (* drain on the dead descriptor must survive, count the error, and
     not recurse into a spin. *)
  ignore (Dpu_live.Udp_transport.drain t0 : int);
  check Alcotest.int "rx error counted" 1 (Dpu_live.Udp_transport.rx_errors t0);
  let c = Dpu_live.Udp_transport.counters t0 in
  check Alcotest.int "rx error surfaces as dropped input" 2
    c.Dpu_runtime.Transport.dropped

(* ------------------------------------------------------------------ *)
(* The fault shim over the live transport                             *)
(* ------------------------------------------------------------------ *)

(* A hand-cranked clock: the test sets [now]; deferred work runs
   immediately (no degraded links here, so nothing is ever deferred). *)
let manual_clock now_ref =
  {
    Clock.now = (fun () -> !now_ref);
    defer = (fun ~delay:_ f -> f ());
    schedule_impl =
      (fun ~delay:_ f ->
        f ();
        Clock.make_timer ~cancel:ignore);
    every_impl = (fun ~period:_ _ -> Clock.make_timer ~cancel:ignore);
  }

let test_live_shim_loss_window_restores () =
  with_pair (fun ~fd0 ~fd1 ~peers ->
      let t0 = Dpu_live.Udp_transport.create ~me:0 ~fd:fd0 ~peers () in
      let t1 = Dpu_live.Udp_transport.create ~me:1 ~fd:fd1 ~peers () in
      let now = ref 0.0 in
      let shim =
        Dpu_faults.Fault_transport.create ~seed:5
          ~schedule:
            [ Dpu_faults.Schedule.loss_window ~p:1.0 ~from_:10.0 ~until:20.0 ]
          ~clock:(manual_clock now)
          (Dpu_live.Udp_transport.transport t0)
      in
      let ftr = Dpu_faults.Fault_transport.transport shim in
      let got = ref 0 in
      Dpu_runtime.Transport.set_handler
        (Dpu_live.Udp_transport.transport t1)
        ~node:1
        (fun ~src:_ _ -> incr got);
      let send () = Dpu_runtime.Transport.send ftr ~src:0 ~dst:1 ~size_bytes:32 msg in
      now := 15.0;
      send ();
      (* inside the window: absorbed before any syscall *)
      now := 25.0;
      send ();
      (* after [until): the clean path is restored *)
      await_readable fd1;
      ignore (Dpu_live.Udp_transport.drain t1 : int);
      check Alcotest.int "only the post-window frame arrives" 1 !got;
      let s = Dpu_faults.Fault_transport.stats shim in
      check Alcotest.int "loss charged to the shim" 1
        s.Dpu_faults.Fault_transport.injected_loss;
      (* Folded counters keep the protocols' invariant over real UDP. *)
      let c = Dpu_faults.Fault_transport.counters shim in
      check Alcotest.int "absorbed frame still counts as sent" 2
        c.Dpu_runtime.Transport.sent;
      check Alcotest.int "and as dropped" 1 c.Dpu_runtime.Transport.dropped;
      check Alcotest.bool "bytes include the absorbed frame" true
        (c.Dpu_runtime.Transport.bytes
        > (Dpu_live.Udp_transport.counters t0).Dpu_runtime.Transport.bytes))

(* ------------------------------------------------------------------ *)
(* Egress batching                                                    *)
(* ------------------------------------------------------------------ *)

let test_udp_egress_batching () =
  with_pair (fun ~fd0 ~fd1 ~peers ->
      let batch_sizes = ref [] in
      let t0 =
        Dpu_live.Udp_transport.create ~batching:4
          ~on_batch:(fun k -> batch_sizes := k :: !batch_sizes)
          ~me:0 ~fd:fd0 ~peers ()
      in
      let t1 = Dpu_live.Udp_transport.create ~me:1 ~fd:fd1 ~peers () in
      let got = ref [] in
      Dpu_runtime.Transport.set_handler
        (Dpu_live.Udp_transport.transport t1)
        ~node:1
        (fun ~src:_ p ->
          match p with
          | Dpu_core.App_msg.App m -> got := m.Msg.id.Msg.seq :: !got
          | _ -> ());
      let send seq =
        Dpu_runtime.Transport.send
          (Dpu_live.Udp_transport.transport t0)
          ~src:0 ~dst:1 ~size_bytes:32
          (Dpu_core.App_msg.App (Msg.make ~origin:0 ~seq ~size:32 "b"))
      in
      for seq = 0 to 8 do
        send seq
      done;
      (* 9 sends at cap 4: two full frames went out, one message waits. *)
      check Alcotest.int "one message still queued" 1
        (Dpu_live.Udp_transport.pending t0);
      Dpu_live.Udp_transport.flush t0;
      check Alcotest.int "flush empties the queues" 0
        (Dpu_live.Udp_transport.pending t0);
      await_readable fd1;
      ignore (Dpu_live.Udp_transport.drain t1 : int);
      check
        Alcotest.(list int)
        "all messages delivered, in send order"
        (List.init 9 (fun i -> i))
        (List.rev !got);
      (* Counters stay message-grained; the frame grain is in batches. *)
      let c = Dpu_live.Udp_transport.counters t0 in
      check Alcotest.int "sent counts messages" 9 c.Dpu_runtime.Transport.sent;
      let b = Dpu_live.Udp_transport.batches t0 in
      check Alcotest.int "three frames" 3 b.Dpu_runtime.Transport.batches_sent;
      check Alcotest.int "nine messages in them" 9
        b.Dpu_runtime.Transport.batched_msgs;
      check Alcotest.(list int) "histogram saw 4,4,1" [ 4; 4; 1 ]
        (List.rev !batch_sizes);
      let c1 = Dpu_live.Udp_transport.counters t1 in
      check Alcotest.int "receiver delivered messages" 9
        c1.Dpu_runtime.Transport.delivered)

let test_udp_batch_respects_mtu () =
  with_pair (fun ~fd0 ~fd1 ~peers ->
      let t0 =
        Dpu_live.Udp_transport.create ~batching:8 ~me:0 ~fd:fd0 ~peers ()
      in
      let t1 = Dpu_live.Udp_transport.create ~me:1 ~fd:fd1 ~peers () in
      let got = ref 0 in
      Dpu_runtime.Transport.set_handler
        (Dpu_live.Udp_transport.transport t1)
        ~node:1
        (fun ~src:_ _ -> incr got);
      (* ~40 KB payloads: any two burst the datagram limit, so each send
         after the first must flush the previous one rather than split
         the batch mid-frame. *)
      let send seq =
        Dpu_runtime.Transport.send
          (Dpu_live.Udp_transport.transport t0)
          ~src:0 ~dst:1 ~size_bytes:40_000
          (Dpu_core.App_msg.App
             (Msg.make ~origin:0 ~seq ~size:40_000 (String.make 40_000 'x')))
      in
      send 0;
      send 1;
      send 2;
      Dpu_live.Udp_transport.flush t0;
      await_readable fd1;
      ignore (Dpu_live.Udp_transport.drain t1 : int);
      let b = Dpu_live.Udp_transport.batches t0 in
      check Alcotest.int "one frame per oversized element" 3
        b.Dpu_runtime.Transport.batches_sent;
      check Alcotest.int "all arrived" 3 !got;
      check Alcotest.int "none dropped" 0
        (Dpu_live.Udp_transport.counters t0).Dpu_runtime.Transport.dropped)

let test_udp_batching_allocates_once () =
  with_pair (fun ~fd0 ~fd1:_ ~peers ->
      let t0 =
        Dpu_live.Udp_transport.create ~batching:8 ~me:0 ~fd:fd0 ~peers ()
      in
      let after_create = Dpu_live.Udp_transport.encode_allocs t0 in
      for seq = 0 to 999 do
        Dpu_runtime.Transport.send
          (Dpu_live.Udp_transport.transport t0)
          ~src:0 ~dst:(seq mod 2) ~size_bytes:32
          (Dpu_core.App_msg.App (Msg.make ~origin:0 ~seq ~size:32 "a"))
      done;
      Dpu_live.Udp_transport.flush t0;
      (* 1000 messages, hundreds of batch frames: the whole encode path
         ran on the buffers allocated at [create]. *)
      check Alcotest.int "no encode-path allocation after create"
        after_create
        (Dpu_live.Udp_transport.encode_allocs t0);
      check Alcotest.int "everything shipped" 0 (Dpu_live.Udp_transport.pending t0))

let test_udp_batching_under_nemesis_shim () =
  with_pair (fun ~fd0 ~fd1 ~peers ->
      let t0 =
        Dpu_live.Udp_transport.create ~batching:3 ~me:0 ~fd:fd0 ~peers ()
      in
      let t1 = Dpu_live.Udp_transport.create ~me:1 ~fd:fd1 ~peers () in
      let now = ref 0.0 in
      let shim =
        Dpu_faults.Fault_transport.create ~seed:5
          ~schedule:
            [ Dpu_faults.Schedule.loss_window ~p:1.0 ~from_:10.0 ~until:20.0 ]
          ~clock:(manual_clock now)
          (Dpu_live.Udp_transport.transport t0)
      in
      let ftr = Dpu_faults.Fault_transport.transport shim in
      let delivered = ref 0 in
      Dpu_runtime.Transport.set_handler
        (Dpu_live.Udp_transport.transport t1)
        ~node:1
        (fun ~src:_ _ -> incr delivered);
      let send seq =
        Dpu_runtime.Transport.send ftr ~src:0 ~dst:1 ~size_bytes:32
          (Dpu_core.App_msg.App (Msg.make ~origin:0 ~seq ~size:32 "n"))
      in
      (* 4 clean sends, 5 absorbed by the loss window, 3 clean again. *)
      now := 0.0;
      for seq = 0 to 3 do send seq done;
      now := 15.0;
      for seq = 4 to 8 do send seq done;
      now := 25.0;
      for seq = 9 to 11 do send seq done;
      Dpu_live.Udp_transport.flush t0;
      await_readable fd1;
      ignore (Dpu_live.Udp_transport.drain t1 : int);
      check Alcotest.int "survivors delivered" 7 !delivered;
      (* The nemesis absorbs whole messages BEFORE the egress queues, so
         the folded accounting still balances at message grain. *)
      let c = Dpu_faults.Fault_transport.counters shim in
      check Alcotest.int "sent = delivered + dropped"
        c.Dpu_runtime.Transport.sent
        (!delivered + c.Dpu_runtime.Transport.dropped);
      let b = Dpu_runtime.Transport.batches ftr in
      check Alcotest.int "batches carry only the survivors" 7
        b.Dpu_runtime.Transport.batched_msgs)

let test_udp_wrong_node_refused () =
  with_pair (fun ~fd0 ~fd1:_ ~peers ->
      let t0 = Dpu_live.Udp_transport.create ~me:0 ~fd:fd0 ~peers () in
      let tr = Dpu_live.Udp_transport.transport t0 in
      (match Dpu_runtime.Transport.send tr ~src:1 ~dst:0 ~size_bytes:1 msg with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "sending as a foreign node accepted");
      match Dpu_runtime.Transport.set_handler tr ~node:1 (fun ~src:_ _ -> ()) with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "handling a foreign node accepted")

(* ------------------------------------------------------------------ *)
(* Event-loop profile counters                                        *)
(* ------------------------------------------------------------------ *)

let test_wheel_profile_counters () =
  let w = Wheel.create () in
  check Alcotest.int "fired starts at 0" 0 (Wheel.fired w);
  check Alcotest.int "cascades start at 0" 0 (Wheel.cascades w);
  Wheel.add w ~now:0.0 ~delay:10.0 ignore;
  Wheel.add w ~now:0.0 ~delay:20.0 ignore;
  Clock.cancel (Wheel.schedule w ~now:0.0 ~delay:15.0 ignore);
  Wheel.advance w ~now:50.0;
  (* Cancelled entries are skipped, not fired. *)
  check Alcotest.int "timed firings counted" 2 (Wheel.fired w);
  check Alcotest.int "no cascades yet" 0 (Wheel.cascades w);
  (* Zero-delay entries drained within a pass count as cascades. *)
  Wheel.add w ~now:50.0 ~delay:0.0 (fun () ->
      Wheel.add w ~now:50.0 ~delay:0.0 ignore);
  Wheel.advance w ~now:50.0;
  check Alcotest.int "cascade firings counted" 4 (Wheel.fired w);
  check Alcotest.int "both zero-delay entries cascaded" 2 (Wheel.cascades w)

(* ------------------------------------------------------------------ *)
(* The live clock on the wall clock                                   *)
(* ------------------------------------------------------------------ *)

(* A 3 ms ticker driven by a sleep loop for 300 ms, the way a node's
   event loop drives it: firing late must not stretch the period. The
   wheel keeps the phase and catches up one deadline per pass, so once
   the loop has also caught up, each of the 100 nominal deadlines
   [first + 3k] up to [stop] has fired exactly once, in order, and
   never before its deadline. *)
let test_live_clock_every_keeps_phase () =
  let lc = Dpu_live.Live_clock.create ~epoch:(Unix.gettimeofday ()) (Wheel.create ()) in
  let now () = Dpu_live.Live_clock.now lc in
  let fires = ref [] in
  let tm =
    Clock.every (Dpu_live.Live_clock.clock lc) ~period:3.0 (fun () ->
        fires := now () :: !fires)
  in
  (* The chain's deadlines, computed as the wheel re-arms them. *)
  let first = Option.get (Dpu_live.Live_clock.next_deadline lc) in
  let deadlines =
    let rec from d k = if k = 0 then [] else d :: from (d +. 3.0) (k - 1) in
    from first 100
  in
  let stop = List.nth deadlines 99 in
  while now () < stop do
    Dpu_live.Live_clock.advance lc;
    match Dpu_live.Live_clock.next_deadline lc with
    | Some d -> Unix.sleepf (Float.max 0.0 (Float.min d stop -. now ()) /. 1000.0)
    | None -> ()
  done;
  (* Catch up: one overdue deadline per pass, until none at or before
     [stop] is pending. *)
  let rec catch_up () =
    match Dpu_live.Live_clock.next_deadline lc with
    | Some d when d <= stop ->
      Dpu_live.Live_clock.advance lc;
      catch_up ()
    | Some _ | None -> ()
  in
  catch_up ();
  Clock.cancel tm;
  let fires = List.rev !fires in
  check Alcotest.int "every deadline up to stop fired once" 100 (List.length fires);
  List.iteri
    (fun k (t, nominal) ->
      if t < nominal then
        Alcotest.failf "firing %d at %.3f ms, before its nominal %.3f ms" (k + 1) t nominal)
    (List.combine fires deadlines);
  check Alcotest.bool "in firing order" true (fires = List.sort Float.compare fires)

(* ------------------------------------------------------------------ *)
(* Live deployments                                                   *)
(* ------------------------------------------------------------------ *)

module Serve = Dpu_live.Serve
module Json = Dpu_obs.Json
module Spans = Dpu_core.Spans

(* A short real deployment with [trace_out]: the windows recoverable
   from the merged Chrome trace must be exactly the windows the parent
   measured on its merged collector — the property `dpu_run report`
   relies on when it renders a timeline from the artifact alone. *)
let test_serve_merged_trace_matches_collector () =
  let trace_path = Filename.temp_file "dpu-live-trace" ".json" in
  let log_file = Filename.temp_file "dpu-live-log" ".jsonl" in
  let params =
    {
      Serve.default with
      load = 20.0;
      duration_ms = 2_000.0;
      drain_ms = 1_200.0;
      switch_at_ms = 800.0;
    }
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ trace_path; log_file ])
    (fun () ->
      match Serve.run ~trace_out:trace_path ~log_out:log_file params with
      | Error e -> Alcotest.fail ("live deployment failed: " ^ e)
      | Ok outcome ->
        let timeline = Spans.replacement_timeline outcome.Serve.collector in
        check Alcotest.bool "the switch completed" true (timeline <> []);
        let content = In_channel.with_open_text trace_path In_channel.input_all in
        (match Json.of_string content with
        | Error e -> Alcotest.fail ("merged trace is not JSON: " ^ e)
        | Ok j -> (
          match Dpu_obs.Trace_event.events_of_json j with
          | Error e -> Alcotest.fail ("merged trace does not parse: " ^ e)
          | Ok events ->
            check
              Alcotest.(list (pair int (pair (float 1e-6) (float 1e-6))))
              "windows in the artifact = windows the parent measured" timeline
              (Dpu_obs.Report_html.windows_of_events events);
            (* The merge carries every node's own events too. *)
            let node_instants =
              List.filter
                (function
                  | Dpu_obs.Trace_event.Instant { cat = "node"; _ } -> true
                  | _ -> false)
                events
            in
            check Alcotest.bool "per-node start/stop marks present" true
              (List.length node_instants >= 2 * params.Serve.n);
            (* Every triggering node's kernel recorded its trigger. *)
            List.iter
              (fun (_, node, target) ->
                let name = "trigger change-abcast -> " ^ target in
                check Alcotest.bool
                  (Printf.sprintf "node %d: %s" node name)
                  true
                  (List.exists
                     (function
                       | Dpu_obs.Trace_event.Instant { name = n; pid; _ } -> n = name && pid = node
                       | _ -> false)
                     events))
              (Dpu_workload.Experiment.switch_plan (Serve.to_experiment params) ~shard:0)));
        (* The merged trace feeds the §3 battery, which holds. *)
        let properties = List.map (fun (r : Dpu_props.Report.t) -> r.property) outcome.Serve.checks in
        List.iter
          (fun p ->
            check Alcotest.bool (p ^ " checked") true (List.mem p properties))
          [
            "weak stack-well-formedness";
            "weak protocol-operationability(" ^ params.Serve.initial ^ ")";
            "weak protocol-operationability(" ^ Option.get params.Serve.switch_to ^ ")";
          ];
        List.iter
          (fun (r : Dpu_props.Report.t) ->
            check Alcotest.(list string) (r.property ^ " holds") [] r.violations)
          outcome.Serve.checks;
        (* The one JSONL log, rendered from the same merged trace:
           every node's start and stop, and every planned trigger. *)
        let lines =
          In_channel.with_open_text log_file In_channel.input_lines
          |> List.map (fun l ->
                 match Json.of_string l with
                 | Ok j -> j
                 | Error e -> Alcotest.fail ("log line does not parse: " ^ e))
        in
        let str key j = Option.bind (Json.member j key) Json.to_string_opt in
        let count event ?data node =
          List.length
            (List.filter
               (fun j ->
                 str "event" j = Some event
                 && Option.bind (Json.member j "node") Json.to_int_opt = Some node
                 && (data = None || str "data" j = data))
               lines)
        in
        List.init params.Serve.n Fun.id
        |> List.iter (fun me ->
               check Alcotest.int (Printf.sprintf "node %d: one start line" me) 1
                 (count "node" ~data:"start" me);
               check Alcotest.int (Printf.sprintf "node %d: one stop line" me) 1
                 (count "node" ~data:"stop" me));
        List.iter
          (fun (_, node, target) ->
            check Alcotest.bool
              (Printf.sprintf "node %d: change-abcast -> %s logged" node target)
              true
              (count "change-abcast" ~data:target node >= 1))
          (Dpu_workload.Experiment.switch_plan (Serve.to_experiment params) ~shard:0))

(* The load generators run on the live clock and send every tick due
   before the horizon, late or not: at 600 msg/s for 1 s each of the
   three nodes sends its 200 ticks, exactly the 600 scheduled. With
   [trace_enabled] and no output, the nodes still record their kernel
   traces, so the §3 properties are checked as on the simulator. *)
let test_serve_carries_offered_load () =
  let params =
    {
      Serve.default with
      load = 600.0;
      duration_ms = 1_000.0;
      drain_ms = 300.0;
      switch_to = None;
      batching = Some 16;
    }
  in
  let experiment = { (Serve.to_experiment params) with trace_enabled = true } in
  match Serve.run_experiment experiment with
  | Error e -> Alcotest.fail ("live deployment failed: " ^ e)
  | Ok outcome ->
    let scheduled = params.Serve.load *. params.Serve.duration_ms /. 1000.0 in
    check Alcotest.int "sent every scheduled message" (int_of_float scheduled)
      (Dpu_core.Collector.send_count outcome.Serve.collector);
    let properties = List.map (fun (r : Dpu_props.Report.t) -> r.property) outcome.Serve.checks in
    List.iter
      (fun p -> check Alcotest.bool (p ^ " checked") true (List.mem p properties))
      [
        "weak stack-well-formedness";
        "weak protocol-operationability(" ^ experiment.initial ^ ")";
      ];
    check Alcotest.bool "all properties hold" true (Dpu_props.Report.all_ok outcome.Serve.checks)

(* A node that starts late keeps the plan on the shared epoch: here the
   epoch lies 200 ms before the node starts, so a switch armed from the
   node's own start would come 200 ms late, and the ticks already due
   when it starts must still be sent. *)
let test_node_switches_on_shared_epoch () =
  let at = 300.0 in
  let params =
    Serve.to_experiment
      { Serve.default with n = 1; duration_ms = 600.0; drain_ms = 200.0; switch_at_ms = at }
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      let report =
        Dpu_live.Node.run ~params ~me:0
          ~epoch:(Unix.gettimeofday () -. 0.2)
          ~generation:1 ~fd ~peers:[| Unix.getsockname fd |] ()
      in
      (* Node 0 of 1 starts at phase 0: its ticks are due at k * gap. *)
      let gap = 1000.0 /. params.load in
      let rec due_before k =
        if float_of_int k *. gap < params.duration_ms then due_before (k + 1) else k
      in
      check Alcotest.int "sent every tick due before the horizon" (due_before 0)
        (Dpu_core.Collector.send_count report.Dpu_live.Node.collector);
      match Dpu_core.Collector.switch_window report.Dpu_live.Node.collector ~generation:1 with
      | None -> Alcotest.fail "the switch never happened"
      | Some (installed, _) ->
        check Alcotest.bool
          (Printf.sprintf "installed at %.1f ms, planned at %.0f ms" installed at)
          true
          (installed >= at && installed < at +. 100.0))

(* Bad parameters come back as [Error] before any socket is bound or
   any node process started: with a minute-long [duration_ms], a run
   that got as far as forking would hold the call for that minute. *)
let test_serve_rejects_bad_params () =
  let base = { Serve.default with duration_ms = 60_000.0 } in
  let next_fd () =
    let fd = Unix.dup Unix.stdout in
    Unix.close fd;
    fd
  in
  let before = next_fd () in
  List.iter
    (fun (what, params) ->
      let t0 = Unix.gettimeofday () in
      (match Serve.run params with
      | Ok _ -> Alcotest.failf "%s: accepted" what
      | Error e ->
        check Alcotest.bool (Printf.sprintf "%s: says why (%s)" what e) true (e <> ""));
      check Alcotest.bool (what ^ ": returned at once") true
        (Unix.gettimeofday () -. t0 < 1.0))
    [
      ("no nodes", { base with n = 0 });
      ("zero load", { base with load = 0.0 });
      ("batch below one", { base with batching = Some 0 });
      ( "nemesis node out of range",
        { base with nemesis = [ Dpu_faults.Schedule.crash ~at:100.0 9 ] } );
      ( "switch node out of range",
        { base with switches = [ (100.0, 3, Dpu_core.Variants.sequencer) ] } );
      ("NaN load", { base with n = 1; load = Float.nan });
      ("infinite load", { base with n = 1; load = Float.infinity });
      ("negative message size", { base with msg_size = -5 });
      ("negative duration", { base with duration_ms = -5.0 });
      ("negative drain", { base with drain_ms = -5.0 });
      ("negative switch time", { base with switch_at_ms = -10.0 });
      ( "switch at a negative time",
        { base with switches = [ (-1.0, 1, Dpu_core.Variants.sequencer) ] } );
    ];
  check Alcotest.bool "no socket left open" true (next_fd () = before)

(* Every node raises at start-up (no such protocol): the deployment is
   an [Error] naming the first node and the exception — not a hang,
   and not an exception out of [Serve.run] — whether the nodes run in
   forked processes or, alone, in this one. *)
let test_serve_node_failure_is_error () =
  List.iter
    (fun n ->
      let params =
        {
          Serve.default with
          n;
          initial = "abcast.nope";
          duration_ms = 200.0;
          drain_ms = 100.0;
        }
      in
      match Serve.run params with
      | Ok _ -> Alcotest.failf "n=%d: a deployment of an unknown protocol succeeded" n
      | Error e ->
        let contains sub =
          let len = String.length e and k = String.length sub in
          let rec go i = i + k <= len && (String.sub e i k = sub || go (i + 1)) in
          go 0
        in
        check Alcotest.bool (Printf.sprintf "n=%d names node 0: %s" n e) true
          (String.starts_with ~prefix:"node 0: " e);
        check Alcotest.bool (Printf.sprintf "n=%d carries the exception: %s" n e) true
          (contains "abcast.nope"))
    [ 3; 1 ]

(* One node runs in the calling process rather than a forked one; it
   must still deliver everything it sent, switch, and pass the checks. *)
let test_serve_single_node () =
  let params =
    { Serve.default with n = 1; duration_ms = 600.0; drain_ms = 300.0; switch_at_ms = 300.0 }
  in
  match Serve.run params with
  | Error e -> Alcotest.fail ("single-node deployment failed: " ^ e)
  | Ok outcome ->
    check Alcotest.int "one report" 1 (List.length outcome.Serve.node_reports);
    let sent = Dpu_core.Collector.send_count outcome.Serve.collector in
    check Alcotest.bool (Printf.sprintf "sent %d" sent) true (sent > 0);
    check Alcotest.int "delivered all it sent" sent
      (List.length (Dpu_core.Collector.delivers_of outcome.Serve.collector ~node:0));
    check Alcotest.bool "the switch completed" true
      (Spans.replacement_timeline outcome.Serve.collector <> []);
    check Alcotest.bool "all properties hold" true
      (Dpu_props.Report.all_ok outcome.Serve.checks)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "live"
    [
      ( "timer-wheel",
        [
          tc "fire order" test_wheel_fire_order;
          tc "same deadline is FIFO" test_wheel_same_deadline_fifo;
          tc "cancellation" test_wheel_cancellation;
          tc "far deadlines survive wraps" test_wheel_far_slots;
          tc "re-arm waits for the next pass" test_wheel_rearm_not_same_pass;
          tc "zero-delay cascade" test_wheel_zero_delay_cascade;
          tc "next deadline" test_wheel_next_deadline;
          tc "cancel discounts pending" test_wheel_cancel_discounts_pending;
          tc "fires at the exact deadline" test_wheel_exact_deadline;
          tc "every keeps its phase" test_wheel_every_keeps_phase;
          tc "profile counters" test_wheel_profile_counters;
        ] );
      ("live-clock", [ tc "every keeps its phase" test_live_clock_every_keeps_phase ]);
      ( "udp-transport",
        [
          tc "loopback delivery" test_udp_loopback;
          tc "foreign frames dropped" test_udp_foreign_frames_dropped;
          tc "single-node ownership" test_udp_wrong_node_refused;
          tc "send counts only accepted frames" test_udp_send_accounting;
          tc "syscall failures never count as sent" test_udp_syscall_failure_accounting;
          tc "egress batching delivers in order" test_udp_egress_batching;
          tc "batches never burst the datagram limit" test_udp_batch_respects_mtu;
          tc "batching allocates only at create" test_udp_batching_allocates_once;
          tc "accounting balances under the nemesis shim"
            test_udp_batching_under_nemesis_shim;
        ] );
      ( "fault-shim",
        [ tc "loss window restores over real UDP" test_live_shim_loss_window_restores ] );
      ( "deployment",
        [
          tc "merged trace matches the collector" test_serve_merged_trace_matches_collector;
          tc "carries the offered load" test_serve_carries_offered_load;
          tc "switches on the shared epoch" test_node_switches_on_shared_epoch;
          tc "bad parameters are errors" test_serve_rejects_bad_params;
          tc "a failing node is an error" test_serve_node_failure_is_error;
          tc "one node runs in process" test_serve_single_node;
        ] );
    ]
