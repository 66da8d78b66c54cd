(* Tests for the consensus-update extension (paper §7 / TR [16]):
   the Paxos implementation of the consensus service, and the
   consensus replacement layer that switches between Chandra-Toueg and
   Paxos on the fly. *)

open Dpu_kernel
module P = Dpu_protocols
module CI = Dpu_protocols.Consensus_iface
module Core = Dpu_core
module MW = Dpu_core.Middleware
module SB = Dpu_core.Stack_builder
module RC = Dpu_core.Repl_consensus
module Sim = Dpu_engine.Sim
module Clock = Dpu_runtime.Clock

let check = Alcotest.check
let fail = Alcotest.fail

type Payload.t += Blob of string

(* ------------------------------------------------------------------ *)
(* Paxos as a consensus service implementation                        *)
(* ------------------------------------------------------------------ *)

let make_paxos_system ?(n = 3) ?(seed = 1) ?(loss = 0.0) () =
  let system = System.create ~seed ~loss ~n () in
  P.Udp.register system;
  P.Rp2p.register system;
  P.Fd.register system;
  P.Consensus_paxos.register system;
  System.iter_stacks system (fun stack ->
      Registry.ensure_bound (System.registry system) stack Service.consensus);
  system

let decision_logs system =
  List.init (System.n system) (fun node ->
      let log = ref [] in
      let stack = System.stack system node in
      ignore
        (Stack.add_module stack ~name:"spy" ~provides:[] ~requires:[ Service.consensus ]
           (fun _ _ ->
             {
               Stack.default_handlers with
               handle_indication =
                 (fun svc p ->
                   if Service.equal svc Service.consensus then
                     match p with
                     | CI.Decide { iid; value = Blob s } -> log := (iid, s) :: !log
                     | CI.Decide { iid; value = CI.No_value } -> log := (iid, "<none>") :: !log
                     | _ -> ());
             }));
      log)

let propose system ~node ~iid value =
  Stack.call (System.stack system node) Service.consensus
    (CI.Propose { iid; value = Blob value; weight = String.length value })

let test_paxos_agreement () =
  let system = make_paxos_system ~n:3 () in
  let logs = decision_logs system in
  let iid = { CI.epoch = 0; k = 0 } in
  propose system ~node:0 ~iid "a";
  propose system ~node:1 ~iid "b";
  propose system ~node:2 ~iid "c";
  System.run_until_quiescent ~limit:20_000.0 system;
  let decided = List.map (fun log -> List.assoc iid !log) logs in
  match decided with
  | v :: rest ->
    check Alcotest.bool "validity" true (List.mem v [ "a"; "b"; "c" ]);
    List.iter (fun v' -> check Alcotest.string "agreement" v v') rest
  | [] -> fail "no decisions"

let test_paxos_single_proposer () =
  let system = make_paxos_system ~n:5 () in
  let logs = decision_logs system in
  let iid = { CI.epoch = 0; k = 0 } in
  propose system ~node:3 ~iid "only";
  System.run_until_quiescent ~limit:20_000.0 system;
  List.iter
    (fun log -> check Alcotest.string "all decide the only value" "only" (List.assoc iid !log))
    logs

let test_paxos_multi_instance () =
  let system = make_paxos_system ~n:3 () in
  let logs = decision_logs system in
  for k = 0 to 9 do
    propose system ~node:(k mod 3) ~iid:{ CI.epoch = 0; k } (string_of_int k)
  done;
  System.run_until_quiescent ~limit:30_000.0 system;
  List.iter
    (fun log ->
      for k = 0 to 9 do
        check Alcotest.string "instance decided" (string_of_int k)
          (List.assoc { CI.epoch = 0; k } !log)
      done)
    logs

let test_paxos_epoch_separation () =
  let system = make_paxos_system ~n:3 () in
  let logs = decision_logs system in
  propose system ~node:0 ~iid:{ CI.epoch = 0; k = 0 } "old";
  propose system ~node:1 ~iid:{ CI.epoch = 1; k = 0 } "new";
  System.run_until_quiescent ~limit:20_000.0 system;
  List.iter
    (fun log ->
      check Alcotest.string "epoch 0" "old" (List.assoc { CI.epoch = 0; k = 0 } !log);
      check Alcotest.string "epoch 1" "new" (List.assoc { CI.epoch = 1; k = 0 } !log))
    logs

let test_paxos_leader_crash () =
  (* Node 0 is the initial Omega leader; crash it before proposing. *)
  let system = make_paxos_system ~n:5 ~seed:3 () in
  let logs = decision_logs system in
  System.crash_node system 0;
  let iid = { CI.epoch = 0; k = 0 } in
  propose system ~node:2 ~iid "survivor";
  System.run_until_quiescent ~limit:60_000.0 system;
  List.iteri
    (fun node log ->
      if node <> 0 then
        check Alcotest.string "decided despite leader crash" "survivor" (List.assoc iid !log))
    logs

let test_paxos_crash_seeds_agree () =
  for seed = 1 to 6 do
    let system = make_paxos_system ~n:5 ~seed () in
    let logs = decision_logs system in
    let victim = seed mod 5 in
    let iid = { CI.epoch = 0; k = 0 } in
    propose system ~node:((victim + 1) mod 5) ~iid "v";
    ignore
      (Clock.defer (System.clock system) ~delay:(float_of_int (seed * 2)) (fun () ->
           System.crash_node system victim));
    System.run_until_quiescent ~limit:60_000.0 system;
    List.iteri
      (fun node log ->
        if node <> victim then
          match List.assoc_opt iid !log with
          | Some v -> check Alcotest.string "agreement under crash" "v" v
          | None -> fail (Printf.sprintf "node %d undecided (seed %d)" node seed))
      logs
  done

let test_paxos_under_loss () =
  let system = make_paxos_system ~n:3 ~seed:4 ~loss:0.2 () in
  let logs = decision_logs system in
  for k = 0 to 4 do
    propose system ~node:(k mod 3) ~iid:{ CI.epoch = 0; k } (string_of_int k)
  done;
  System.run_until_quiescent ~limit:60_000.0 system;
  List.iter
    (fun log ->
      for k = 0 to 4 do
        check Alcotest.string "decided under loss" (string_of_int k)
          (List.assoc { CI.epoch = 0; k } !log)
      done)
    logs

(* ABcast running over Paxos instead of CT: the service spec suffices. *)
let test_abcast_over_paxos () =
  let system = System.create ~seed:1 ~n:5 () in
  P.Udp.register system;
  P.Rp2p.register system;
  P.Fd.register system;
  P.Rbcast.register system;
  P.Consensus_paxos.register system;
  P.Abcast_ct.register system;
  System.iter_stacks system (fun stack ->
      ignore
        (Registry.instantiate (System.registry system) stack ~name:P.Abcast_ct.protocol_name));
  let logs =
    List.init 5 (fun node ->
        let log = ref [] in
        ignore
          (Stack.add_module (System.stack system node) ~name:"l" ~provides:[]
             ~requires:[ Service.abcast ]
             (fun _ _ ->
               {
                 Stack.default_handlers with
                 handle_indication =
                   (fun _ p ->
                     match p with
                     | P.Abcast_iface.Deliver { payload = Blob s; _ } -> log := s :: !log
                     | _ -> ());
               }));
        log)
  in
  for i = 0 to 19 do
    let node = i mod 5 in
    ignore
      (Clock.defer (System.clock system) ~delay:(float_of_int i *. 8.0) (fun () ->
           Stack.call (System.stack system node) Service.abcast
             (P.Abcast_iface.Broadcast { size = 256; payload = Blob (string_of_int i) })))
  done;
  System.run_until_quiescent ~limit:60_000.0 system;
  match List.map (fun l -> List.rev !l) logs with
  | first :: rest ->
    check Alcotest.int "all delivered" 20 (List.length first);
    List.iter (fun s -> check (Alcotest.list Alcotest.string) "order" first s) rest
  | [] -> fail "no logs"

(* ------------------------------------------------------------------ *)
(* The consensus replacement layer                                    *)
(* ------------------------------------------------------------------ *)

let mw_with_consensus_layer ?(n = 5) ?(seed = 1) ?(loss = 0.0)
    ?(initial = P.Consensus_ct.protocol_name) () =
  let profile = { SB.default_profile with consensus_layer = Some initial } in
  let config = { MW.default_config with seed; loss; profile } in
  MW.create ~config ~n ()

let delivery_logs mw =
  let n = MW.n mw in
  let logs = Array.make n [] in
  for node = 0 to n - 1 do
    MW.subscribe mw ~node (fun m -> logs.(node) <- Msg.id_to_string m.Msg.id :: logs.(node))
  done;
  logs

let assert_consistent ?(skip = []) ~expect_count logs =
  let seqs = Array.to_list (Array.map List.rev logs) in
  let live = List.filteri (fun i _ -> not (List.mem i skip)) seqs in
  match live with
  | [] -> fail "no live sequences"
  | first :: rest ->
    check Alcotest.int "delivery count" expect_count (List.length first);
    check Alcotest.int "no duplicates" expect_count
      (List.length (List.sort_uniq compare first));
    List.iter (fun s -> check (Alcotest.list Alcotest.string) "total order" first s) rest

let drive ?(msgs = 24) ?(gap = 10.0) ?switch_at ?target mw =
  let logs = delivery_logs mw in
  let clock = System.clock (MW.system mw) in
  let n = MW.n mw in
  for i = 0 to msgs - 1 do
    ignore
      (Clock.defer clock ~delay:(float_of_int i *. gap) (fun () ->
           ignore (MW.broadcast mw ~node:(i mod n) (string_of_int i))))
  done;
  (match (switch_at, target) with
  | Some t, Some prot ->
    ignore (Clock.defer clock ~delay:t (fun () -> MW.change_consensus mw ~node:1 prot))
  | _, _ -> ());
  MW.run_until_quiescent ~limit:60_000.0 mw;
  logs

let test_layer_plain_traffic () =
  let mw = mw_with_consensus_layer () in
  let logs = drive mw in
  assert_consistent ~expect_count:24 logs;
  check Alcotest.int "no switch" 0 (RC.generation (System.stack (MW.system mw) 0))

let test_layer_stack_shape () =
  let mw = mw_with_consensus_layer () in
  let stack = System.stack (MW.system mw) 0 in
  check Alcotest.bool "layer present" true (Stack.has_module stack ~name:"repl.consensus");
  check Alcotest.bool "impl present" true (Stack.has_module stack ~name:"consensus.ct");
  (match Stack.bound stack Service.consensus with
  | Some m -> check Alcotest.string "layer bound" "repl.consensus" (Stack.module_name m)
  | None -> fail "consensus unbound");
  check Alcotest.bool "slot 0 bound" true
    (Stack.bound stack (Service.make "consensus-impl.0") <> None)

let test_layer_switch_ct_to_paxos () =
  let mw = mw_with_consensus_layer () in
  let logs =
    drive ~switch_at:100.0 ~target:P.Consensus_paxos.protocol_name mw
  in
  assert_consistent ~expect_count:24 logs;
  for node = 0 to 4 do
    let stack = System.stack (MW.system mw) node in
    check Alcotest.int "generation 1" 1 (RC.generation stack);
    check Alcotest.bool "old impl decided some" true (P.Consensus_ct.decided_count stack > 0);
    check Alcotest.bool "new impl decided some" true
      (P.Consensus_paxos.decided_count stack > 0)
  done

let test_layer_switch_paxos_to_ct () =
  let mw = mw_with_consensus_layer ~initial:P.Consensus_paxos.protocol_name () in
  let logs = drive ~switch_at:100.0 ~target:P.Consensus_ct.protocol_name mw in
  assert_consistent ~expect_count:24 logs;
  let stack = System.stack (MW.system mw) 2 in
  check Alcotest.int "generation 1" 1 (RC.generation stack);
  check Alcotest.bool "ct decided some" true (P.Consensus_ct.decided_count stack > 0)

let test_layer_double_switch () =
  let mw = mw_with_consensus_layer () in
  let logs = delivery_logs mw in
  let clock = System.clock (MW.system mw) in
  for i = 0 to 35 do
    ignore
      (Clock.defer clock ~delay:(float_of_int i *. 10.0) (fun () ->
           ignore (MW.broadcast mw ~node:(i mod 5) (string_of_int i))))
  done;
  ignore
    (Clock.defer clock ~delay:80.0 (fun () ->
         MW.change_consensus mw ~node:0 P.Consensus_paxos.protocol_name));
  ignore
    (Clock.defer clock ~delay:220.0 (fun () ->
         MW.change_consensus mw ~node:3 P.Consensus_ct.protocol_name));
  MW.run_until_quiescent ~limit:60_000.0 mw;
  assert_consistent ~expect_count:36 logs;
  check Alcotest.int "generation 2" 2 (RC.generation (System.stack (MW.system mw) 4))

(* Lossy links reorder the decisions a stack learns, so a tagged
   decision can reach it before earlier instances are decided. The two
   heavier-loss inputs break total order if the switch is applied
   without waiting for the decided prefix to cover it. *)
let test_layer_switch_with_loss () =
  List.iter
    (fun (seed, loss) ->
      let mw = mw_with_consensus_layer ~seed ~loss () in
      let logs =
        drive ~msgs:20 ~gap:12.0 ~switch_at:110.0 ~target:P.Consensus_paxos.protocol_name mw
      in
      assert_consistent ~expect_count:20 logs;
      check Alcotest.int "switched" 1 (RC.generation (System.stack (MW.system mw) 0)))
    [ (7, 0.1); (12, 0.2); (10, 0.3) ]

(* A switch to a second Chandra-Toueg install while node 4 is cut off,
   on lossy links, so node 4 switches late: every stack then holds two
   Consensus_ct modules, both of which answer every instance, and a
   late module proposes instances the others decided long before. *)
let test_layer_late_switch_to_second_ct () =
  List.iter
    (fun (seed, loss) ->
      let mw = mw_with_consensus_layer ~seed ~loss () in
      let net = System.net (MW.system mw) in
      let clock = System.clock (MW.system mw) in
      ignore
        (Clock.defer clock ~delay:50.0 (fun () ->
             Dpu_net.Datagram.partition net [ [ 0; 1; 2; 3 ]; [ 4 ] ]));
      ignore (Clock.defer clock ~delay:600.0 (fun () -> Dpu_net.Datagram.heal net));
      let logs =
        drive ~msgs:30 ~gap:10.0 ~switch_at:100.0 ~target:P.Consensus_ct.protocol_name mw
      in
      assert_consistent ~expect_count:30 logs;
      check Alcotest.int "node 4 switched" 1 (RC.generation (System.stack (MW.system mw) 4)))
    [ (1, 0.1); (2, 0.2); (3, 0.1) ]

let test_layer_switch_with_minority_crash () =
  let mw = mw_with_consensus_layer ~seed:9 () in
  let logs = delivery_logs mw in
  let clock = System.clock (MW.system mw) in
  (* Only survivors broadcast. *)
  for i = 0 to 19 do
    ignore
      (Clock.defer clock ~delay:(float_of_int i *. 12.0) (fun () ->
           ignore (MW.broadcast mw ~node:(i mod 4) (string_of_int i))))
  done;
  ignore (Clock.defer clock ~delay:50.0 (fun () -> MW.crash mw 4));
  ignore
    (Clock.defer clock ~delay:120.0 (fun () ->
         MW.change_consensus mw ~node:0 P.Consensus_paxos.protocol_name));
  MW.run_until_quiescent ~limit:90_000.0 mw;
  assert_consistent ~skip:[ 4 ] ~expect_count:20 logs;
  List.iter
    (fun node ->
      check Alcotest.int "survivors switched" 1
        (RC.generation (System.stack (MW.system mw) node)))
    [ 0; 1; 2; 3 ]

let test_layer_abcast_properties_across_switch () =
  List.iter
    (fun seed ->
      let mw = mw_with_consensus_layer ~seed () in
      ignore
        (drive ~msgs:20 ~gap:8.0 ~switch_at:(60.0 +. float_of_int (seed * 13))
           ~target:P.Consensus_paxos.protocol_name mw);
      let reports =
        Dpu_props.Abcast_props.check_all (MW.collector mw) ~correct:[ 0; 1; 2; 3; 4 ]
      in
      List.iter
        (fun r ->
          check Alcotest.bool
            (Printf.sprintf "seed %d: %s" seed r.Dpu_props.Report.property)
            true r.Dpu_props.Report.ok)
        reports)
    [ 1; 2; 3 ]

let test_layer_request_from_silent_node () =
  (* The requesting node never broadcasts data; the gossiped request
     must still thread the switch through other nodes' proposals. *)
  let mw = mw_with_consensus_layer () in
  let logs = delivery_logs mw in
  let clock = System.clock (MW.system mw) in
  for i = 0 to 15 do
    (* node 4 stays silent *)
    ignore
      (Clock.defer clock ~delay:(float_of_int i *. 10.0) (fun () ->
           ignore (MW.broadcast mw ~node:(i mod 4) (string_of_int i))))
  done;
  ignore
    (Clock.defer clock ~delay:60.0 (fun () ->
         MW.change_consensus mw ~node:4 P.Consensus_paxos.protocol_name));
  MW.run_until_quiescent ~limit:60_000.0 mw;
  assert_consistent ~expect_count:16 logs;
  check Alcotest.int "switched" 1 (RC.generation (System.stack (MW.system mw) 4))

let test_layer_no_layer_raises () =
  let mw = MW.create ~n:3 () in
  try
    MW.change_consensus mw ~node:0 P.Consensus_paxos.protocol_name;
    fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_layer_combined_with_abcast_switch () =
  (* A consensus switch followed, later, by an ABcast protocol switch
     (sequential, not simultaneous — the documented scope): both apply,
     order holds. The new ABcast stream starts back on the initial
     consensus implementation (documented). *)
  let mw = mw_with_consensus_layer () in
  let logs = delivery_logs mw in
  let clock = System.clock (MW.system mw) in
  for i = 0 to 29 do
    ignore
      (Clock.defer clock ~delay:(float_of_int i *. 15.0) (fun () ->
           ignore (MW.broadcast mw ~node:(i mod 5) (string_of_int i))))
  done;
  ignore
    (Clock.defer clock ~delay:80.0 (fun () ->
         MW.change_consensus mw ~node:1 P.Consensus_paxos.protocol_name));
  ignore
    (Clock.defer clock ~delay:250.0 (fun () ->
         MW.change_protocol mw ~node:2 Core.Variants.ct));
  MW.run_until_quiescent ~limit:90_000.0 mw;
  assert_consistent ~expect_count:30 logs;
  check Alcotest.int "abcast switched" 1
    (Core.Repl.generation (System.stack (MW.system mw) 0))

let prop_consensus_switch_any_time =
  QCheck.Test.make ~name:"consensus switch at a random moment preserves total order"
    ~count:8
    QCheck.(pair (int_range 0 200) (int_range 1 500))
    (fun (switch_at, seed) ->
      let mw = mw_with_consensus_layer ~seed () in
      let logs = delivery_logs mw in
      let clock = System.clock (MW.system mw) in
      for i = 0 to 14 do
        ignore
          (Clock.defer clock ~delay:(float_of_int i *. 11.0) (fun () ->
               ignore (MW.broadcast mw ~node:(i mod 5) (string_of_int i))))
      done;
      ignore
        (Clock.defer clock ~delay:(float_of_int switch_at) (fun () ->
             MW.change_consensus mw ~node:(seed mod 5) P.Consensus_paxos.protocol_name));
      MW.run_until_quiescent ~limit:90_000.0 mw;
      match Array.to_list (Array.map List.rev logs) with
      | first :: rest -> List.length first = 15 && List.for_all (fun s -> s = first) rest
      | [] -> false)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "consensus-dpu"
    [
      ( "paxos",
        [
          tc "agreement" test_paxos_agreement;
          tc "single proposer" test_paxos_single_proposer;
          tc "multi instance" test_paxos_multi_instance;
          tc "epoch separation" test_paxos_epoch_separation;
          tc "leader crash" test_paxos_leader_crash;
          tc "crash seeds agree" test_paxos_crash_seeds_agree;
          tc "under loss" test_paxos_under_loss;
          tc "abcast over paxos" test_abcast_over_paxos;
        ] );
      ( "repl-consensus",
        [
          tc "plain traffic" test_layer_plain_traffic;
          tc "stack shape" test_layer_stack_shape;
          tc "switch ct->paxos" test_layer_switch_ct_to_paxos;
          tc "switch paxos->ct" test_layer_switch_paxos_to_ct;
          tc "double switch" test_layer_double_switch;
          tc "switch with loss" test_layer_switch_with_loss;
          tc "late switch to a second ct" test_layer_late_switch_to_second_ct;
          tc "switch with minority crash" test_layer_switch_with_minority_crash;
          tc "abcast properties across switch" test_layer_abcast_properties_across_switch;
          tc "request from silent node" test_layer_request_from_silent_node;
          tc "without layer raises" test_layer_no_layer_raises;
          tc "combined with abcast switch" test_layer_combined_with_abcast_switch;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest ~long:false prop_consensus_switch_any_time ] );
    ]
