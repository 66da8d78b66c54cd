(* Tests for the property checkers themselves: each checker must accept
   clean runs and reject crafted violations. *)

open Dpu_kernel
module Props = Dpu_props
module Collector = Dpu_core.Collector

let check = Alcotest.check

let id o s = { Msg.origin = o; seq = s }

(* A clean 2-node run: both messages delivered everywhere in the same
   order. *)
let clean_collector () =
  let c = Collector.create () in
  Collector.record_send c ~node:0 ~id:(id 0 0) ~time:0.0;
  Collector.record_send c ~node:1 ~id:(id 1 0) ~time:1.0;
  List.iter
    (fun node ->
      Collector.record_deliver c ~node ~id:(id 0 0) ~time:5.0;
      Collector.record_deliver c ~node ~id:(id 1 0) ~time:6.0)
    [ 0; 1 ];
  c

let assert_ok r = check Alcotest.bool r.Props.Report.property true r.Props.Report.ok

let assert_fail r =
  check Alcotest.bool (r.Props.Report.property ^ " must fail") false r.Props.Report.ok

(* ------------------------------------------------------------------ *)
(* ABcast property checkers                                           *)
(* ------------------------------------------------------------------ *)

let test_clean_run_passes () =
  let c = clean_collector () in
  List.iter assert_ok (Props.Abcast_props.check_all c ~correct:[ 0; 1 ])

let test_validity_violation () =
  let c = Collector.create () in
  (* Node 0 is correct, sends, but never delivers its own message. *)
  Collector.record_send c ~node:0 ~id:(id 0 0) ~time:0.0;
  Collector.record_deliver c ~node:1 ~id:(id 0 0) ~time:1.0;
  assert_fail (Props.Abcast_props.validity c ~correct:[ 0; 1 ]);
  (* If node 0 crashed (not in correct), no obligation. *)
  assert_ok (Props.Abcast_props.validity c ~correct:[ 1 ])

let test_agreement_violation () =
  let c = Collector.create () in
  Collector.record_send c ~node:0 ~id:(id 0 0) ~time:0.0;
  Collector.record_deliver c ~node:0 ~id:(id 0 0) ~time:1.0;
  (* Node 1 (correct) never delivers. *)
  assert_fail (Props.Abcast_props.uniform_agreement c ~correct:[ 0; 1 ]);
  assert_ok (Props.Abcast_props.uniform_agreement c ~correct:[ 0 ])

let test_agreement_uniformity_includes_crashed_deliveries () =
  (* Uniform agreement: even if the only deliverer crashed afterwards,
     correct nodes must deliver too. *)
  let c = Collector.create () in
  Collector.record_send c ~node:2 ~id:(id 2 0) ~time:0.0;
  Collector.record_deliver c ~node:2 ~id:(id 2 0) ~time:1.0;
  (* node 2 crashed later; 0 and 1 are correct but did not deliver *)
  assert_fail (Props.Abcast_props.uniform_agreement c ~correct:[ 0; 1 ])

let test_integrity_duplicate () =
  let c = clean_collector () in
  Collector.record_deliver c ~node:1 ~id:(id 0 0) ~time:9.0;
  assert_fail (Props.Abcast_props.uniform_integrity c)

let test_integrity_never_sent () =
  let c = clean_collector () in
  Collector.record_deliver c ~node:0 ~id:(id 9 9) ~time:9.0;
  assert_fail (Props.Abcast_props.uniform_integrity c)

let test_total_order_swap () =
  let c = Collector.create () in
  Collector.record_send c ~node:0 ~id:(id 0 0) ~time:0.0;
  Collector.record_send c ~node:1 ~id:(id 1 0) ~time:0.0;
  Collector.record_deliver c ~node:0 ~id:(id 0 0) ~time:1.0;
  Collector.record_deliver c ~node:0 ~id:(id 1 0) ~time:2.0;
  Collector.record_deliver c ~node:1 ~id:(id 1 0) ~time:1.0;
  Collector.record_deliver c ~node:1 ~id:(id 0 0) ~time:2.0;
  assert_fail (Props.Abcast_props.uniform_total_order c)

let test_total_order_gap () =
  (* Node 1 skips a message node 0 ordered earlier, then continues:
     uniform total order forbids delivering something ordered later
     while missing an earlier one. *)
  let c = Collector.create () in
  Collector.record_send c ~node:0 ~id:(id 0 0) ~time:0.0;
  Collector.record_send c ~node:0 ~id:(id 0 1) ~time:0.0;
  Collector.record_deliver c ~node:0 ~id:(id 0 0) ~time:1.0;
  Collector.record_deliver c ~node:0 ~id:(id 0 1) ~time:2.0;
  Collector.record_deliver c ~node:1 ~id:(id 0 1) ~time:2.0;
  assert_fail (Props.Abcast_props.uniform_total_order c)

let test_total_order_prefix_ok () =
  (* A crashed node delivering a strict prefix is fine. *)
  let c = Collector.create () in
  Collector.record_send c ~node:0 ~id:(id 0 0) ~time:0.0;
  Collector.record_send c ~node:0 ~id:(id 0 1) ~time:0.0;
  Collector.record_deliver c ~node:0 ~id:(id 0 0) ~time:1.0;
  Collector.record_deliver c ~node:0 ~id:(id 0 1) ~time:2.0;
  Collector.record_deliver c ~node:1 ~id:(id 0 0) ~time:1.0;
  assert_ok (Props.Abcast_props.uniform_total_order c)

(* ------------------------------------------------------------------ *)
(* Generic (§3) property checkers                                     *)
(* ------------------------------------------------------------------ *)

let trace_of entries =
  let t = Trace.create () in
  List.iter (fun (time, node, kind) -> Trace.record t ~time ~node kind) entries;
  t

let test_weak_wf_pass () =
  let t =
    trace_of
      [
        (0.0, 0, Trace.Call_blocked "abcast");
        (1.0, 0, Trace.Bind ("abcast", "impl"));
        (1.0, 0, Trace.Call_unblocked "abcast");
        (1.1, 0, Trace.Call "abcast");
      ]
  in
  assert_ok (Props.Stack_props.weak_stack_well_formedness t)

let test_weak_wf_violation () =
  let t = trace_of [ (0.0, 0, Trace.Call_blocked "abcast") ] in
  assert_fail (Props.Stack_props.weak_stack_well_formedness t)

let test_weak_wf_crashed_node_exempt () =
  let t =
    trace_of [ (0.0, 0, Trace.Call_blocked "abcast"); (1.0, 0, Trace.Crash) ]
  in
  assert_ok (Props.Stack_props.weak_stack_well_formedness t)

let test_strong_wf () =
  let clean = trace_of [ (0.0, 0, Trace.Call "abcast") ] in
  assert_ok (Props.Stack_props.strong_stack_well_formedness clean);
  let blocked =
    trace_of
      [
        (0.0, 0, Trace.Call_blocked "abcast");
        (1.0, 0, Trace.Bind ("abcast", "impl"));
        (1.0, 0, Trace.Call_unblocked "abcast");
      ]
  in
  (* Weak holds but strong does not: the call did block. *)
  assert_ok (Props.Stack_props.weak_stack_well_formedness blocked);
  assert_fail (Props.Stack_props.strong_stack_well_formedness blocked)

let test_weak_operationability_pass () =
  let t =
    trace_of
      [
        (0.0, 0, Trace.Add_module "abcast.seq");
        (0.0, 1, Trace.Add_module "abcast.seq");
        (1.0, 0, Trace.Bind ("abcast", "abcast.seq"));
      ]
  in
  assert_ok
    (Props.Stack_props.weak_protocol_operationability t ~protocol:"abcast.seq"
       ~nodes:[ 0; 1 ])

let test_weak_operationability_violation () =
  let t =
    trace_of
      [
        (0.0, 0, Trace.Add_module "abcast.seq");
        (1.0, 0, Trace.Bind ("abcast", "abcast.seq"));
      ]
  in
  assert_fail
    (Props.Stack_props.weak_protocol_operationability t ~protocol:"abcast.seq"
       ~nodes:[ 0; 1 ])

let test_weak_operationability_crashed_exempt () =
  let t =
    trace_of
      [
        (0.0, 0, Trace.Add_module "abcast.seq");
        (0.5, 1, Trace.Crash);
        (1.0, 0, Trace.Bind ("abcast", "abcast.seq"));
      ]
  in
  assert_ok
    (Props.Stack_props.weak_protocol_operationability t ~protocol:"abcast.seq"
       ~nodes:[ 0; 1 ])

let test_weak_operationability_vacuous () =
  (* Never bound anywhere: no obligation. *)
  let t = trace_of [ (0.0, 0, Trace.Add_module "abcast.seq") ] in
  assert_ok
    (Props.Stack_props.weak_protocol_operationability t ~protocol:"abcast.seq"
       ~nodes:[ 0; 1 ])

let test_strong_operationability () =
  let late =
    trace_of
      [
        (0.0, 0, Trace.Add_module "p");
        (1.0, 0, Trace.Bind ("s", "p"));
        (2.0, 1, Trace.Add_module "p");  (* present only after the bind *)
      ]
  in
  assert_fail
    (Props.Stack_props.strong_protocol_operationability late ~protocol:"p"
       ~nodes:[ 0; 1 ]);
  let timely =
    trace_of
      [
        (0.0, 0, Trace.Add_module "p");
        (0.0, 1, Trace.Add_module "p");
        (1.0, 0, Trace.Bind ("s", "p"));
      ]
  in
  assert_ok
    (Props.Stack_props.strong_protocol_operationability timely ~protocol:"p"
       ~nodes:[ 0; 1 ])

let test_check_generic_bundle () =
  let t =
    trace_of
      [
        (0.0, 0, Trace.Add_module "p");
        (0.0, 1, Trace.Add_module "p");
        (1.0, 0, Trace.Bind ("s", "p"));
      ]
  in
  let reports = Props.Stack_props.check_generic t ~protocols:[ "p" ] ~nodes:[ 0; 1 ] in
  check Alcotest.int "wf + one per protocol" 2 (List.length reports);
  check Alcotest.bool "all ok" true (Props.Report.all_ok reports)

(* ------------------------------------------------------------------ *)
(* Adversarial traces: weak vs strong on the same history             *)
(* ------------------------------------------------------------------ *)

(* Two calls block; only one is ever released. Weak must fail naming
   the node still blocked, strong must fail regardless. *)
let test_wf_one_blocked_forever () =
  let t =
    trace_of
      [
        (0.0, 0, Trace.Call_blocked "abcast");
        (0.0, 1, Trace.Call_blocked "abcast");
        (1.0, 0, Trace.Bind ("abcast", "impl"));
        (1.0, 0, Trace.Call_unblocked "abcast");
      ]
  in
  let weak = Props.Stack_props.weak_stack_well_formedness t in
  assert_fail weak;
  check Alcotest.bool "violation names node 1" true
    (List.exists
       (fun v ->
         let has sub =
           let ls = String.length sub and lv = String.length v in
           let rec go i = i + ls <= lv && (String.sub v i ls = sub || go (i + 1)) in
           go 0
         in
         has "node 1" && not (has "node 0"))
       weak.Props.Report.violations);
  assert_fail (Props.Stack_props.strong_stack_well_formedness t)

(* Every blocked call is eventually released: weak holds on a history
   strong rejects — the §3 weak/strong gap on one trace. *)
let test_wf_weak_strong_gap () =
  let t =
    trace_of
      [
        (0.0, 0, Trace.Call_blocked "abcast");
        (0.5, 1, Trace.Call_blocked "abcast");
        (1.0, 0, Trace.Bind ("abcast", "impl"));
        (1.0, 0, Trace.Call_unblocked "abcast");
        (1.5, 1, Trace.Bind ("abcast", "impl"));
        (1.5, 1, Trace.Call_unblocked "abcast");
      ]
  in
  assert_ok (Props.Stack_props.weak_stack_well_formedness t);
  assert_fail (Props.Stack_props.strong_stack_well_formedness t)

(* A bind that arrives only after the caller crashed: the crashed
   node's blocked call is exempt, a live node's is not. *)
let test_wf_bind_after_crash () =
  let exempt =
    trace_of
      [
        (0.0, 1, Trace.Call_blocked "abcast");
        (0.5, 1, Trace.Crash);
        (1.0, 0, Trace.Bind ("abcast", "impl"));
      ]
  in
  assert_ok (Props.Stack_props.weak_stack_well_formedness exempt);
  let live =
    trace_of
      [
        (0.0, 1, Trace.Call_blocked "abcast");
        (0.5, 0, Trace.Crash);
        (1.0, 0, Trace.Bind ("abcast", "impl"));
      ]
  in
  (* Same shape, but the crash hits the other node: node 1 still owes. *)
  assert_fail (Props.Stack_props.weak_stack_well_formedness live)

(* Operationability violated on exactly one non-crashed node: 0 and 2
   run the protocol, 1 never does. Crashing 1 discharges it. *)
let test_op_single_node_gap () =
  let entries crash1 =
    [
      (0.0, 0, Trace.Add_module "p");
      (0.0, 2, Trace.Add_module "p");
      (1.0, 0, Trace.Bind ("s", "p"));
    ]
    @ if crash1 then [ (0.5, 1, Trace.Crash) ] else []
  in
  let gap = trace_of (entries false) in
  let weak =
    Props.Stack_props.weak_protocol_operationability gap ~protocol:"p"
      ~nodes:[ 0; 1; 2 ]
  in
  assert_fail weak;
  check Alcotest.int "exactly one violation" 1
    (List.length weak.Props.Report.violations);
  assert_ok
    (Props.Stack_props.weak_protocol_operationability
       (trace_of (entries true))
       ~protocol:"p" ~nodes:[ 0; 1; 2 ])

(* Strong operationability: a module added exactly at bind time (same
   timestamp) satisfies the property; added any later it does not. *)
let test_strong_op_bind_time_boundary () =
  let at_bind =
    trace_of
      [
        (0.0, 0, Trace.Add_module "p");
        (1.0, 1, Trace.Add_module "p");
        (1.0, 0, Trace.Bind ("s", "p"));
      ]
  in
  assert_ok
    (Props.Stack_props.strong_protocol_operationability at_bind ~protocol:"p"
       ~nodes:[ 0; 1 ]);
  let after_bind =
    trace_of
      [
        (0.0, 0, Trace.Add_module "p");
        (1.0, 0, Trace.Bind ("s", "p"));
        (1.1, 1, Trace.Add_module "p");
      ]
  in
  assert_fail
    (Props.Stack_props.strong_protocol_operationability after_bind ~protocol:"p"
       ~nodes:[ 0; 1 ])

(* ------------------------------------------------------------------ *)
(* Report                                                             *)
(* ------------------------------------------------------------------ *)

let test_report_caps_violations () =
  let r =
    Props.Report.make ~property:"x" ~max_violations:3 ~checked:100
      (List.init 10 string_of_int)
  in
  check Alcotest.bool "not ok" false r.Props.Report.ok;
  check Alcotest.int "3 + summary line" 4 (List.length r.Props.Report.violations);
  check Alcotest.bool "summary mentions remainder" true
    (List.exists
       (fun s -> s = "... and 7 more")
       r.Props.Report.violations)

let test_report_pp () =
  let ok = Props.Report.make ~property:"clean" ~checked:5 [] in
  let s = Format.asprintf "%a" Props.Report.pp ok in
  check Alcotest.bool "ok rendering" true (String.length s > 0 && String.sub s 0 4 = "[ok]");
  let bad = Props.Report.make ~property:"dirty" ~checked:5 [ "v" ] in
  let s' = Format.asprintf "%a" Props.Report.pp bad in
  check Alcotest.bool "fail rendering" true (String.sub s' 0 6 = "[FAIL]")

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "props"
    [
      ( "abcast",
        [
          tc "clean passes" test_clean_run_passes;
          tc "validity violation" test_validity_violation;
          tc "agreement violation" test_agreement_violation;
          tc "agreement uniformity" test_agreement_uniformity_includes_crashed_deliveries;
          tc "integrity duplicate" test_integrity_duplicate;
          tc "integrity unsent" test_integrity_never_sent;
          tc "total order swap" test_total_order_swap;
          tc "total order gap" test_total_order_gap;
          tc "total order prefix ok" test_total_order_prefix_ok;
        ] );
      ( "generic",
        [
          tc "weak wf pass" test_weak_wf_pass;
          tc "weak wf violation" test_weak_wf_violation;
          tc "weak wf crash exempt" test_weak_wf_crashed_node_exempt;
          tc "strong wf" test_strong_wf;
          tc "weak op pass" test_weak_operationability_pass;
          tc "weak op violation" test_weak_operationability_violation;
          tc "weak op crash exempt" test_weak_operationability_crashed_exempt;
          tc "weak op vacuous" test_weak_operationability_vacuous;
          tc "strong op" test_strong_operationability;
          tc "bundle" test_check_generic_bundle;
        ] );
      ( "adversarial",
        [
          tc "one blocked forever" test_wf_one_blocked_forever;
          tc "weak/strong gap" test_wf_weak_strong_gap;
          tc "bind after crash" test_wf_bind_after_crash;
          tc "single-node op gap" test_op_single_node_gap;
          tc "strong op bind-time boundary" test_strong_op_bind_time_boundary;
        ] );
      ( "report",
        [ tc "caps violations" test_report_caps_violations; tc "pp" test_report_pp ] );
    ]
