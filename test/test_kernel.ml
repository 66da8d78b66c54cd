(* Tests for the protocol kernel: services, payloads, messages, traces,
   stacks, the registry and the system container, and the retirement
   of a superseded ABcast generation from the stacks. *)

open Dpu_kernel
module Sim = Dpu_engine.Sim
module Clock = Dpu_runtime.Clock

let check = Alcotest.check
let fail = Alcotest.fail

(* Test payloads. *)
type Payload.t += Ping of int | Pong of int

let svc_a = Service.make "svc.a"
let svc_b = Service.make "svc.b"

let make_stack ?(hop_cost = 0.1) () =
  let sim = Sim.create ~seed:1 () in
  let trace = Trace.create () in
  let stack = Stack.create ~clock:(Dpu_runtime.Sim_backend.clock sim) ~node:0 ~hop_cost ~trace () in
  (sim, trace, stack)

(* A module that logs the calls and indications it receives. *)
let probe stack ~name ~provides ~requires =
  let calls = ref [] in
  let indications = ref [] in
  let started = ref 0 in
  let stopped = ref 0 in
  let m =
    Stack.add_module stack ~name ~provides ~requires (fun _stack _self ->
        {
          Stack.handle_call = (fun svc p -> calls := (svc, p) :: !calls);
          handle_indication = (fun svc p -> indications := (svc, p) :: !indications);
          on_start = (fun () -> incr started);
          on_stop = (fun () -> incr stopped);
        })
  in
  (m, calls, indications, started, stopped)

(* ------------------------------------------------------------------ *)
(* Service                                                            *)
(* ------------------------------------------------------------------ *)

let test_service_identity () =
  check Alcotest.bool "equal by name" true (Service.equal (Service.make "x") (Service.make "x"));
  check Alcotest.bool "distinct" false (Service.equal svc_a svc_b);
  check Alcotest.string "name" "svc.a" (Service.name svc_a);
  check Alcotest.int "compare reflexive" 0 (Service.compare svc_a svc_a)

let test_service_wellknown () =
  let names =
    List.map Service.name
      [ Service.net; Service.rp2p; Service.fd; Service.consensus; Service.abcast;
        Service.r_abcast; Service.gm ]
  in
  check
    (Alcotest.list Alcotest.string)
    "names" [ "net"; "rp2p"; "fd"; "consensus"; "abcast"; "r-abcast"; "gm" ] names

let test_service_map () =
  let m = Service.Map.(empty |> add svc_a 1 |> add svc_b 2) in
  check (Alcotest.option Alcotest.int) "lookup" (Some 2) (Service.Map.find_opt svc_b m)

(* ------------------------------------------------------------------ *)
(* Payload                                                            *)
(* ------------------------------------------------------------------ *)

(* A payload without a codec cannot be framed, and the error names
   its constructor. *)
let test_payload_no_codec_names_constructor () =
  List.iter
    (fun (p, name) ->
      match Payload.encode_exn p with
      | _ -> Alcotest.failf "%s was encoded" name
      | exception Invalid_argument msg ->
        check Alcotest.bool msg true
          (String.starts_with ~prefix:"Payload.encode_exn: no codec for " msg
          && String.ends_with ~suffix:("Test_kernel." ^ name) msg))
    [ (Ping 1, "Ping"); (Pong 2, "Pong") ]

(* ------------------------------------------------------------------ *)
(* Msg                                                                *)
(* ------------------------------------------------------------------ *)

let test_msg_ids () =
  let a = Msg.make ~origin:1 ~seq:2 "x" in
  let b = Msg.make ~origin:1 ~seq:3 "y" in
  let c = Msg.make ~origin:2 ~seq:0 "z" in
  check Alcotest.bool "lt same origin" true (Msg.compare a b < 0);
  check Alcotest.bool "origin dominates" true (Msg.compare b c < 0);
  check Alcotest.bool "id equal" true (Msg.id_equal a.id { Msg.origin = 1; seq = 2 });
  check Alcotest.string "to_string" "1.2" (Msg.id_to_string a.id);
  check Alcotest.int "default size" 4096 a.size

let test_msg_sets () =
  let a = Msg.make ~origin:0 ~seq:0 "a" in
  let a' = Msg.make ~origin:0 ~seq:0 "different body, same id" in
  let s = Msg.Set.(empty |> add a |> add a') in
  check Alcotest.int "identity by id" 1 (Msg.Set.cardinal s);
  let ids = Msg.Id_set.(empty |> add a.id |> add a'.id) in
  check Alcotest.int "id set" 1 (Msg.Id_set.cardinal ids)

(* ------------------------------------------------------------------ *)
(* Trace                                                              *)
(* ------------------------------------------------------------------ *)

let test_trace_basic () =
  let t = Trace.create () in
  Trace.record t ~time:1.0 ~node:0 (Trace.Bind ("s", "m"));
  Trace.record t ~time:2.0 ~node:1 Trace.Crash;
  check Alcotest.int "length" 2 (List.length (Trace.entries t));
  match Trace.entries t with
  | [ e1; e2 ] ->
    check (Alcotest.float 0.0) "order" 1.0 e1.Trace.time;
    check Alcotest.int "node" 1 e2.Trace.node
  | _ -> fail "expected two entries"

let test_trace_disabled () =
  let t = Trace.create ~enabled:false () in
  Trace.record t ~time:1.0 ~node:0 Trace.Crash;
  check Alcotest.int "nothing recorded" 0 (List.length (Trace.entries t))

let test_trace_filter () =
  let t = Trace.create () in
  Trace.record t ~time:1.0 ~node:0 (Trace.Bind ("s", "m"));
  Trace.record t ~time:2.0 ~node:0 (Trace.Unbind ("s", "m"));
  let binds =
    List.filter (fun e -> match e.Trace.kind with Trace.Bind _ -> true | _ -> false) (Trace.entries t)
  in
  check Alcotest.int "one bind" 1 (List.length binds)

(* ------------------------------------------------------------------ *)
(* Stack                                                              *)
(* ------------------------------------------------------------------ *)

let test_stack_add_module_starts () =
  let _sim, _trace, stack = make_stack () in
  let _m, _calls, _ind, started, stopped = probe stack ~name:"p" ~provides:[] ~requires:[] in
  check Alcotest.int "started" 1 !started;
  check Alcotest.int "not stopped" 0 !stopped;
  check Alcotest.bool "listed" true (Stack.has_module stack ~name:"p")

let test_stack_call_dispatch () =
  let sim, _trace, stack = make_stack () in
  let m, calls, _ind, _s, _st = probe stack ~name:"p" ~provides:[ svc_a ] ~requires:[] in
  Stack.bind stack svc_a m;
  Stack.call stack svc_a (Ping 1);
  check Alcotest.int "async: not yet" 0 (List.length !calls);
  Sim.run sim;
  check Alcotest.int "dispatched" 1 (List.length !calls)

let test_stack_call_hop_cost () =
  let sim, _trace, stack = make_stack ~hop_cost:0.5 () in
  let m, calls, _ind, _s, _st = probe stack ~name:"p" ~provides:[ svc_a ] ~requires:[] in
  Stack.bind stack svc_a m;
  let arrived_at = ref nan in
  ignore calls;
  (* Wrap: record time at dispatch via another probe module. *)
  Stack.call stack svc_a (Ping 1);
  ignore (Sim.schedule sim ~delay:0.49 (fun () -> ()) : Sim.handle);
  Sim.run sim;
  ignore !arrived_at;
  check (Alcotest.float 1e-9) "clock advanced by hop" 0.5 (Sim.now sim)

let test_stack_blocked_call_released_by_bind () =
  let sim, _trace, stack = make_stack () in
  let m, calls, _ind, _s, _st = probe stack ~name:"p" ~provides:[ svc_a ] ~requires:[] in
  Stack.call stack svc_a (Ping 9);
  Sim.run sim;
  check Alcotest.int "queued" 1 (Stack.blocked_calls stack svc_a);
  check Alcotest.int "no dispatch yet" 0 (List.length !calls);
  Stack.bind stack svc_a m;
  Sim.run sim;
  check Alcotest.int "released" 1 (List.length !calls);
  check Alcotest.int "queue drained" 0 (Stack.blocked_calls stack svc_a)

let test_stack_blocked_preserves_order () =
  let sim, _trace, stack = make_stack () in
  let m, calls, _ind, _s, _st = probe stack ~name:"p" ~provides:[ svc_a ] ~requires:[] in
  Stack.call stack svc_a (Ping 1);
  Stack.call stack svc_a (Ping 2);
  Stack.call stack svc_a (Ping 3);
  Sim.run sim;
  Stack.bind stack svc_a m;
  Sim.run sim;
  let order =
    List.rev_map (fun (_, p) -> match p with Ping n -> n | _ -> -1) !calls
  in
  check (Alcotest.list Alcotest.int) "fifo release" [ 1; 2; 3 ] order

let test_stack_already_bound () =
  let _sim, _trace, stack = make_stack () in
  let m1, _, _, _, _ = probe stack ~name:"p1" ~provides:[ svc_a ] ~requires:[] in
  let m2, _, _, _, _ = probe stack ~name:"p2" ~provides:[ svc_a ] ~requires:[] in
  Stack.bind stack svc_a m1;
  (try
     Stack.bind stack svc_a m2;
     fail "expected Already_bound"
   with Stack.Already_bound _ -> ());
  (* Rebinding the same module is a no-op, not an error. *)
  Stack.bind stack svc_a m1;
  Stack.unbind stack svc_a;
  Stack.bind stack svc_a m2;
  check Alcotest.string "rebound" "p2"
    (match Stack.bound stack svc_a with Some m -> Stack.module_name m | None -> "?")

let test_stack_unbind_keeps_module () =
  let sim, _trace, stack = make_stack () in
  let m, calls, _ind, _s, stopped = probe stack ~name:"p" ~provides:[ svc_a ] ~requires:[] in
  Stack.bind stack svc_a m;
  Stack.unbind stack svc_a;
  check Alcotest.bool "still in stack" true (Stack.has_module stack ~name:"p");
  check Alcotest.int "not stopped" 0 !stopped;
  Stack.call stack svc_a (Ping 1);
  Sim.run sim;
  check Alcotest.int "call blocks after unbind" 0 (List.length !calls);
  check Alcotest.int "queued" 1 (Stack.blocked_calls stack svc_a)

let test_stack_indication_routing () =
  let sim, _trace, stack = make_stack () in
  let _p, _calls, ind_req, _s, _st = probe stack ~name:"requirer" ~provides:[] ~requires:[ svc_a ] in
  let _q, _calls2, ind_other, _s2, _st2 =
    probe stack ~name:"other" ~provides:[] ~requires:[ svc_b ]
  in
  Stack.indicate stack svc_a (Pong 5);
  Sim.run sim;
  check Alcotest.int "requirer got it" 1 (List.length !ind_req);
  check Alcotest.int "other did not" 0 (List.length !ind_other)

let test_stack_indication_multiple_requirers () =
  let sim, _trace, stack = make_stack () in
  let _p1, _, i1, _, _ = probe stack ~name:"r1" ~provides:[] ~requires:[ svc_a ] in
  let _p2, _, i2, _, _ = probe stack ~name:"r2" ~provides:[] ~requires:[ svc_a ] in
  Stack.indicate stack svc_a (Pong 1);
  Sim.run sim;
  check Alcotest.int "both" 2 (List.length !i1 + List.length !i2)

let test_stack_unbound_module_can_indicate_and_receive () =
  (* Paper §2: a module can respond to a call even after being unbound;
     and requirers receive indications regardless of binding. *)
  let sim, _trace, stack = make_stack () in
  let p, _, ind, _, _ = probe stack ~name:"listener" ~provides:[ svc_b ] ~requires:[ svc_a ] in
  Stack.bind stack svc_b p;
  Stack.unbind stack svc_b;
  Stack.indicate stack svc_a (Pong 3);
  Sim.run sim;
  check Alcotest.int "unbound still receives required indications" 1 (List.length !ind)

let test_stack_remove_module () =
  let sim, _trace, stack = make_stack () in
  let m, _calls, ind, _s, stopped = probe stack ~name:"p" ~provides:[ svc_a ] ~requires:[ svc_b ] in
  Stack.bind stack svc_a m;
  Stack.remove_module stack m;
  check Alcotest.int "on_stop" 1 !stopped;
  check Alcotest.bool "gone" false (Stack.has_module stack ~name:"p");
  check Alcotest.bool "unbound" true (Stack.bound stack svc_a = None);
  Stack.indicate stack svc_b (Pong 1);
  Sim.run sim;
  check Alcotest.int "no longer receives" 0 (List.length !ind);
  (* Removing twice is harmless. *)
  Stack.remove_module stack m;
  check Alcotest.int "idempotent" 1 !stopped

let test_stack_crash_stops_dispatch () =
  let sim, _trace, stack = make_stack () in
  let m, calls, ind, _s, _st = probe stack ~name:"p" ~provides:[ svc_a ] ~requires:[ svc_a ] in
  Stack.bind stack svc_a m;
  Stack.crash stack;
  check Alcotest.bool "crashed" true (Stack.is_crashed stack);
  Stack.call stack svc_a (Ping 1);
  Stack.indicate stack svc_a (Pong 1);
  Sim.run sim;
  check Alcotest.int "no calls" 0 (List.length !calls);
  check Alcotest.int "no indications" 0 (List.length !ind)

let test_stack_crash_in_flight_dispatch () =
  let sim, _trace, stack = make_stack () in
  let m, calls, _ind, _s, _st = probe stack ~name:"p" ~provides:[ svc_a ] ~requires:[] in
  Stack.bind stack svc_a m;
  Stack.call stack svc_a (Ping 1);
  Stack.crash stack;
  Sim.run sim;
  check Alcotest.int "scheduled dispatch suppressed" 0 (List.length !calls)

let test_stack_timers () =
  let sim, _trace, stack = make_stack () in
  let fired = ref 0 in
  ignore (Stack.after stack ~delay:1.0 (fun () -> incr fired));
  let p = Stack.periodic stack ~period:1.0 (fun () -> incr fired) in
  Sim.run ~until:3.5 sim;
  check Alcotest.int "one-shot + 3 ticks" 4 !fired;
  Clock.cancel p;
  Sim.run ~until:10.0 sim;
  check Alcotest.int "cancelled" 4 !fired

let test_stack_timers_crash () =
  let sim, _trace, stack = make_stack () in
  let fired = ref 0 in
  ignore (Stack.after stack ~delay:1.0 (fun () -> incr fired));
  ignore (Stack.periodic stack ~period:1.0 (fun () -> incr fired));
  Stack.crash stack;
  Sim.run ~until:5.0 sim;
  check Alcotest.int "suppressed by crash" 0 !fired

let test_stack_state () =
  let _sim, _trace, stack = make_stack () in
  let k : int ref Stack.key = Stack.key () in
  let get stack k = !(Stack.state stack k (fun () -> ref 0)) in
  check Alcotest.int "initial" 42 !(Stack.state stack k (fun () -> ref 42));
  Stack.state stack k (fun () -> ref 0) := 7;
  check Alcotest.int "set" 7 (get stack k);
  Stack.state stack k (fun () -> ref 0) := 8;
  check Alcotest.int "overwrite" 8 (get stack k);
  let k' : int ref Stack.key = Stack.key () in
  check Alcotest.int "two keys of one type are distinct" 0 (get stack k');
  Stack.state stack k' (fun () -> ref 0) := 5;
  check Alcotest.int "the first key keeps its cell" 8 (get stack k);
  let _sim, _trace, other = make_stack () in
  check Alcotest.int "two stacks do not share a cell" 0 (get other k);
  check Alcotest.int "nor does the first see the second's" 8 (get stack k)

let test_stack_trace_records () =
  let sim, trace, stack = make_stack () in
  let m, _, _, _, _ = probe stack ~name:"p" ~provides:[ svc_a ] ~requires:[] in
  Stack.bind stack svc_a m;
  Stack.call stack svc_a (Ping 1);
  Stack.app_event stack ~tag:"hello" Fun.id "world";
  Sim.run sim;
  let kinds = List.map (fun e -> e.Trace.kind) (Trace.entries trace) in
  let has p = List.exists p kinds in
  check Alcotest.bool "add-module" true
    (has (function Trace.Add_module "p" -> true | _ -> false));
  check Alcotest.bool "bind" true (has (function Trace.Bind ("svc.a", "p") -> true | _ -> false));
  check Alcotest.bool "app" true
    (has (function Trace.App ("hello", "world") -> true | _ -> false))

let test_stack_dispatch_counts () =
  let sim, _trace, stack = make_stack () in
  let m, _, _, _, _ = probe stack ~name:"p" ~provides:[ svc_a ] ~requires:[ svc_b ] in
  Stack.bind stack svc_a m;
  check (Alcotest.pair Alcotest.int Alcotest.int) "zero" (0, 0)
    (Stack.dispatch_counts stack);
  Stack.call stack svc_a (Ping 1);
  Stack.call stack svc_a (Ping 2);
  Stack.indicate stack svc_b (Pong 1);
  Sim.run sim;
  check (Alcotest.pair Alcotest.int Alcotest.int) "counted" (2, 1)
    (Stack.dispatch_counts stack);
  (* Blocked calls do not count until executed. *)
  Stack.call stack svc_b (Ping 3);
  Sim.run sim;
  check (Alcotest.pair Alcotest.int Alcotest.int) "blocked not counted" (2, 1)
    (Stack.dispatch_counts stack)

let test_stack_modules_order () =
  let _sim, _trace, stack = make_stack () in
  let _a, _, _, _, _ = probe stack ~name:"a" ~provides:[] ~requires:[] in
  let _b, _, _, _, _ = probe stack ~name:"b" ~provides:[] ~requires:[] in
  let names = List.map Stack.module_name (Stack.modules stack) in
  check (Alcotest.list Alcotest.string) "addition order" [ "a"; "b" ] names

let test_stack_indication_snapshot () =
  (* Receivers are the requirers in addition order, snapshotted before
     the first handler runs: a module added by a handler misses the
     indication in flight, and a module removed by one is skipped. *)
  let sim, _trace, stack = make_stack () in
  let log = ref [] in
  let on_first = ref (fun () -> ()) in
  let logger name ~requires =
    Stack.add_module stack ~name ~provides:[] ~requires (fun _ _ ->
        { Stack.default_handlers with
          handle_indication =
            (fun _ _ ->
              log := name :: !log;
              let f = !on_first in
              on_first := (fun () -> ());
              f ()) })
  in
  ignore (logger "r1" ~requires:[ svc_a ]);
  ignore (logger "other" ~requires:[ svc_b ]);
  ignore (logger "r2" ~requires:[ svc_b; svc_a ]);
  let r3 = logger "r3" ~requires:[ svc_a ] in
  on_first :=
    (fun () ->
      ignore (logger "late" ~requires:[ svc_a ]);
      Stack.remove_module stack r3);
  Stack.indicate stack svc_a (Pong 1);
  Sim.run sim;
  check (Alcotest.list Alcotest.string) "snapshot in addition order" [ "r1"; "r2" ]
    (List.rev !log);
  log := [];
  Stack.indicate stack svc_a (Pong 2);
  Sim.run sim;
  check (Alcotest.list Alcotest.string) "next indication sees the change"
    [ "r1"; "r2"; "late" ] (List.rev !log)

let test_stack_removed_receiver_skipped () =
  (* Module A's handler removes module B, a later receiver of the same
     indication: B has run [on_stop] and must not handle it. *)
  let sim, _trace, stack = make_stack () in
  let b = ref None in
  ignore
    (Stack.add_module stack ~name:"a" ~provides:[] ~requires:[ svc_a ] (fun stack _ ->
         { Stack.default_handlers with
           handle_indication = (fun _ _ -> Option.iter (Stack.remove_module stack) !b) })
      : Stack.module_);
  let m, _, indications, _, stopped = probe stack ~name:"b" ~provides:[] ~requires:[ svc_a ] in
  b := Some m;
  Stack.indicate stack svc_a (Pong 1);
  Sim.run sim;
  check Alcotest.int "b stopped" 1 !stopped;
  check Alcotest.int "b saw nothing" 0 (List.length !indications);
  check Alcotest.bool "b gone" false (Stack.has_module stack ~name:"b")

(* Model-based property: for any interleaving of bind/unbind/call
   issued at time zero and then drained, dispatch conserves calls —
   executed + still-blocked = issued — and whether the tail blocks is
   decided by the binding in force at drain time (calls resolve their
   binding at execution, all binds/unbinds here are synchronous). *)
let prop_dispatch_conservation =
  QCheck.Test.make ~name:"call dispatch conserves messages" ~count:200
    QCheck.(list (int_range 0 2))
    (fun ops ->
      let sim = Sim.create ~seed:1 () in
      let trace = Trace.create ~enabled:false () in
      let stack = Stack.create ~clock:(Dpu_runtime.Sim_backend.clock sim) ~node:0 ~trace () in
      let executed = ref 0 in
      let m =
        Stack.add_module stack ~name:"sink" ~provides:[ svc_a ] ~requires:[]
          (fun _ _ ->
            { Stack.default_handlers with handle_call = (fun _ _ -> incr executed) })
      in
      let issued = ref 0 in
      let bound = ref false in
      List.iter
        (fun op ->
          match op with
          | 0 ->
            if not !bound then Stack.bind stack svc_a m;
            bound := true
          | 1 ->
            Stack.unbind stack svc_a;
            bound := false
          | _ ->
            incr issued;
            Stack.call stack svc_a Payload.Unit)
        ops;
      Sim.run sim;
      let blocked = Stack.blocked_calls stack svc_a in
      !executed + blocked = !issued
      && (if !bound then blocked = 0 else !executed = 0 || blocked >= 0))

(* ------------------------------------------------------------------ *)
(* Registry                                                           *)
(* ------------------------------------------------------------------ *)

let dummy_factory ~name ~provides ~requires stack =
  Stack.add_module stack ~name ~provides ~requires (fun _ _ -> Stack.default_handlers)

let test_registry_basic () =
  let r = Registry.create () in
  Registry.register r ~name:"x" ~provides:[ svc_a ] (dummy_factory ~name:"x" ~provides:[ svc_a ] ~requires:[]);
  check Alcotest.bool "mem" true (Registry.mem r ~name:"x");
  check Alcotest.bool "not mem" false (Registry.mem r ~name:"y");
  check (Alcotest.option Alcotest.string) "provider" (Some "x") (Registry.provider_of r svc_a);
  check (Alcotest.option Alcotest.string) "no provider" None (Registry.provider_of r svc_b)

let test_registry_replacement_and_recency () =
  let r = Registry.create () in
  Registry.register r ~name:"old" ~provides:[ svc_a ] (dummy_factory ~name:"old" ~provides:[ svc_a ] ~requires:[]);
  Registry.register r ~name:"new" ~provides:[ svc_a ] (dummy_factory ~name:"new" ~provides:[ svc_a ] ~requires:[]);
  check (Alcotest.option Alcotest.string) "most recent wins" (Some "new")
    (Registry.provider_of r svc_a);
  (* Re-registering a name replaces it without duplication. *)
  Registry.register r ~name:"old" ~provides:[ svc_a ] (dummy_factory ~name:"old" ~provides:[ svc_a ] ~requires:[]);
  check Alcotest.int "no duplicates" 2 (List.length (Registry.names r))

let test_registry_instantiate_unknown () =
  let r = Registry.create () in
  let _sim, _trace, stack = make_stack () in
  try
    ignore (Registry.instantiate r stack ~name:"ghost");
    fail "expected Unknown_protocol"
  with Registry.Unknown_protocol "ghost" -> ()

let test_registry_instantiate_chain () =
  (* top requires svc_a; mid provides svc_a and requires svc_b; leaf
     provides svc_b. Instantiating top must build all three. *)
  let r = Registry.create () in
  Registry.register r ~name:"leaf" ~provides:[ svc_b ]
    (dummy_factory ~name:"leaf" ~provides:[ svc_b ] ~requires:[]);
  Registry.register r ~name:"mid" ~provides:[ svc_a ]
    (dummy_factory ~name:"mid" ~provides:[ svc_a ] ~requires:[ svc_b ]);
  let top = Service.make "svc.top" in
  Registry.register r ~name:"top" ~provides:[ top ]
    (dummy_factory ~name:"top" ~provides:[ top ] ~requires:[ svc_a ]);
  let _sim, _trace, stack = make_stack () in
  ignore (Registry.instantiate r stack ~name:"top");
  check Alcotest.bool "top present" true (Stack.has_module stack ~name:"top");
  check Alcotest.bool "mid present" true (Stack.has_module stack ~name:"mid");
  check Alcotest.bool "leaf present" true (Stack.has_module stack ~name:"leaf");
  check Alcotest.bool "top bound" true (Stack.bound stack top <> None);
  check Alcotest.bool "mid bound" true (Stack.bound stack svc_a <> None);
  check Alcotest.bool "leaf bound" true (Stack.bound stack svc_b <> None)

let test_registry_instantiate_respects_existing_binding () =
  let r = Registry.create () in
  Registry.register r ~name:"impl" ~provides:[ svc_a ]
    (dummy_factory ~name:"impl" ~provides:[ svc_a ] ~requires:[]);
  let _sim, _trace, stack = make_stack () in
  let existing, _, _, _, _ = probe stack ~name:"existing" ~provides:[ svc_a ] ~requires:[] in
  Stack.bind stack svc_a existing;
  ignore (Registry.instantiate r stack ~name:"impl");
  check Alcotest.string "binding untouched" "existing"
    (match Stack.bound stack svc_a with Some m -> Stack.module_name m | None -> "?")

let test_registry_cycle_terminates () =
  (* a requires svc_b (provided by b); b requires svc_a (provided by a). *)
  let r = Registry.create () in
  Registry.register r ~name:"a" ~provides:[ svc_a ]
    (dummy_factory ~name:"a" ~provides:[ svc_a ] ~requires:[ svc_b ]);
  Registry.register r ~name:"b" ~provides:[ svc_b ]
    (dummy_factory ~name:"b" ~provides:[ svc_b ] ~requires:[ svc_a ]);
  let _sim, _trace, stack = make_stack () in
  ignore (Registry.instantiate r stack ~name:"a");
  check Alcotest.bool "both built" true
    (Stack.has_module stack ~name:"a" && Stack.has_module stack ~name:"b")

let test_registry_no_provider () =
  let r = Registry.create () in
  Registry.register r ~name:"needy" ~provides:[ svc_a ]
    (dummy_factory ~name:"needy" ~provides:[ svc_a ] ~requires:[ svc_b ]);
  let _sim, _trace, stack = make_stack () in
  try
    ignore (Registry.instantiate r stack ~name:"needy");
    fail "expected No_provider"
  with Registry.No_provider s -> check Alcotest.string "service" "svc.b" (Service.name s)

let test_registry_ensure_bound_noop () =
  let r = Registry.create () in
  Registry.register r ~name:"impl" ~provides:[ svc_a ]
    (dummy_factory ~name:"impl" ~provides:[ svc_a ] ~requires:[]);
  let _sim, _trace, stack = make_stack () in
  Registry.ensure_bound r stack svc_a;
  Registry.ensure_bound r stack svc_a;
  let impls =
    List.filter (fun m -> Stack.module_name m = "impl") (Stack.modules stack)
  in
  check Alcotest.int "single instance" 1 (List.length impls)

let test_registry_create_only () =
  let r = Registry.create () in
  Registry.register r ~name:"impl" ~provides:[ svc_a ]
    (dummy_factory ~name:"impl" ~provides:[ svc_a ] ~requires:[ svc_b ]);
  let _sim, _trace, stack = make_stack () in
  let m = Registry.create_only r stack ~name:"impl" in
  check Alcotest.bool "present" true (Stack.has_module stack ~name:"impl");
  check Alcotest.bool "not bound" true (Stack.bound stack svc_a = None);
  check Alcotest.bool "deps not built" true (Stack.bound stack svc_b = None);
  check Alcotest.string "returns module" "impl" (Stack.module_name m)

(* ------------------------------------------------------------------ *)
(* System                                                             *)
(* ------------------------------------------------------------------ *)

let test_system_shape () =
  let system = System.create ~n:4 () in
  check Alcotest.int "n" 4 (System.n system);
  check Alcotest.int "stacks" 4 (Array.length (System.stacks system));
  check Alcotest.int "node ids" 3 (Stack.node (System.stack system 3));
  check (Alcotest.list Alcotest.int) "correct" [ 0; 1; 2; 3 ] (System.correct_nodes system)

let test_system_crash_node () =
  let system = System.create ~n:3 () in
  System.crash_node system 1;
  check Alcotest.bool "stack crashed" true (Stack.is_crashed (System.stack system 1));
  check (Alcotest.list Alcotest.int) "correct" [ 0; 2 ] (System.correct_nodes system)

let test_system_run () =
  let system = System.create ~n:2 () in
  System.run_for system 10.0;
  check (Alcotest.float 1e-9) "clock" 10.0 (System.now system);
  System.run_until system 25.0;
  check (Alcotest.float 1e-9) "until" 25.0 (System.now system);
  System.run_until_quiescent ~limit:30.0 system;
  check (Alcotest.float 1e-9) "limit honoured" 30.0 (System.now system)

(* ------------------------------------------------------------------ *)
(* Retirement of a superseded generation                              *)
(* ------------------------------------------------------------------ *)

module MW = Dpu_core.Middleware
module P = Dpu_protocols

(* Batched abcast.seq -> abcast.ct at n = 3 under 200 msg/s, switched
   at 1 s: the sequencer generation is busy when the stacks leave it.
   Each stack must remove it, and only after every member has switched
   away from it; from then on the stack sends no first transmission of
   a generation-0 frame (calls it issued before the removal take at
   most two hops to reach the wire). The run must pass the §3 battery
   and the four ABcast properties, and deliver everything. *)
let test_retire_busy_generation () =
  let batching = Some P.Batcher.default in
  let profile =
    {
      Dpu_core.Stack_builder.default_profile with
      initial_abcast = P.Abcast_seq.protocol_name;
      batching;
    }
  in
  let config = { MW.default_config with trace_enabled = true; profile; msg_size = 512 } in
  let mw = MW.create ~config ~n:3 () in
  let system = MW.system mw in
  let last_gen0 = Array.make 3 neg_infinity in
  Dpu_net.Datagram.set_drop_filter (System.net system)
    (Some
       (fun ~src ~dst:_ p ->
         (match p with
         | P.Rp2p.Wire_data { attempt = 0; payload; _ } -> (
           match P.Abcast_iface.wire_epoch (P.Rp2p.Recv { src; payload }) with
           | Some 0 -> last_gen0.(src) <- System.now system
           | _ -> ())
         | _ -> ());
         false));
  Dpu_workload.Load_gen.start mw ~rate_per_s:200.0 ~size:512 ~until:4_000.0 ();
  Clock.defer (System.clock system) ~delay:1_000.0 (fun () ->
      MW.change_protocol mw ~node:0 Dpu_core.Variants.ct);
  MW.run_for mw 8_000.0;
  let trace = System.trace system in
  let times f =
    List.filter_map (fun (e : Trace.entry) -> if f e.kind then Some (e.node, e.time) else None)
      (Trace.entries trace)
  in
  let removals =
    times (function
      | Trace.Remove_module m -> String.equal m P.Abcast_seq.protocol_name
      | _ -> false)
  in
  let last_switch =
    List.fold_left
      (fun acc (_, t) -> Float.max acc t)
      neg_infinity
      (times (function Trace.App (tag, _) -> String.equal tag "repl.switch" | _ -> false))
  in
  for node = 0 to 2 do
    match List.assoc_opt node removals with
    | None -> fail (Printf.sprintf "node %d kept the superseded generation" node)
    | Some t ->
      check Alcotest.bool
        (Printf.sprintf "node %d retired it (%.2f ms) after every switch (%.2f ms)" node t
           last_switch)
        true (t > last_switch);
      check Alcotest.bool
        (Printf.sprintf "node %d sent generation 0 last at %.2f ms, removed at %.2f ms" node
           last_gen0.(node) t)
        true
        (last_gen0.(node) <= t +. (2.0 *. config.hop_cost))
  done;
  let collector = MW.collector mw in
  check Alcotest.int "everything delivered everywhere" 0
    (List.length (Dpu_core.Collector.undelivered_ids collector ~expected_copies:3));
  List.iter
    (fun (r : Dpu_props.Report.t) ->
      check Alcotest.bool (Format.asprintf "%a" Dpu_props.Report.pp r) true r.ok)
    (Dpu_props.Stack_props.check_generic trace
       ~protocols:
         [ P.Abcast_seq.protocol_name; Dpu_core.Variants.ct; Dpu_core.Repl.protocol_name ]
       ~nodes:[ 0; 1; 2 ]
    @ Dpu_props.Abcast_props.check_all collector ~correct:[ 0; 1; 2 ])

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "kernel"
    [
      ( "service",
        [
          tc "identity" test_service_identity;
          tc "well-known" test_service_wellknown;
          tc "map" test_service_map;
        ] );
      ( "payload",
        [
          tc "no codec names the constructor" test_payload_no_codec_names_constructor;
        ] );
      ("msg", [ tc "ids" test_msg_ids; tc "sets" test_msg_sets ]);
      ( "trace",
        [
          tc "basic" test_trace_basic;
          tc "disabled" test_trace_disabled;
          tc "filter" test_trace_filter;
        ] );
      ( "stack",
        [
          tc "add module starts" test_stack_add_module_starts;
          tc "call dispatch" test_stack_call_dispatch;
          tc "hop cost" test_stack_call_hop_cost;
          tc "blocked call released" test_stack_blocked_call_released_by_bind;
          tc "blocked order" test_stack_blocked_preserves_order;
          tc "already bound" test_stack_already_bound;
          tc "unbind keeps module" test_stack_unbind_keeps_module;
          tc "indication routing" test_stack_indication_routing;
          tc "indication fan-out" test_stack_indication_multiple_requirers;
          tc "indication snapshot" test_stack_indication_snapshot;
          tc "removed receiver skipped" test_stack_removed_receiver_skipped;
          tc "unbound module interaction" test_stack_unbound_module_can_indicate_and_receive;
          tc "remove module" test_stack_remove_module;
          tc "crash stops dispatch" test_stack_crash_stops_dispatch;
          tc "crash in flight" test_stack_crash_in_flight_dispatch;
          tc "timers" test_stack_timers;
          tc "timers vs crash" test_stack_timers_crash;
          tc "state" test_stack_state;
          tc "trace records" test_stack_trace_records;
          tc "modules order" test_stack_modules_order;
          tc "dispatch counts" test_stack_dispatch_counts;
        ] );
      ( "registry",
        [
          tc "basic" test_registry_basic;
          tc "recency" test_registry_replacement_and_recency;
          tc "unknown" test_registry_instantiate_unknown;
          tc "dependency chain" test_registry_instantiate_chain;
          tc "existing binding" test_registry_instantiate_respects_existing_binding;
          tc "cycle terminates" test_registry_cycle_terminates;
          tc "no provider" test_registry_no_provider;
          tc "ensure_bound idempotent" test_registry_ensure_bound_noop;
          tc "create_only" test_registry_create_only;
        ] );
      ( "system",
        [
          tc "shape" test_system_shape;
          tc "crash node" test_system_crash_node;
          tc "run" test_system_run;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest ~long:false prop_dispatch_conservation ] );
      ( "retire",
        [ tc "busy generation leaves once all left" test_retire_busy_generation ]
      );
    ]
