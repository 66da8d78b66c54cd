(* Tests for the executable baselines: Maestro-style whole-stack switch
   and Graceful-Adaptation-style AAC/CA barrier adaptation. *)

open Dpu_kernel
module Core = Dpu_core
module MW = Dpu_core.Middleware
module SB = Dpu_core.Stack_builder
module B = Dpu_baselines
module Sim = Dpu_engine.Sim
module Clock = Dpu_runtime.Clock

let check = Alcotest.check
let fail = Alcotest.fail

let mw_with ?(n = 4) ?(seed = 1) ?(initial = Core.Variants.ct) ?(trace = false) ~layer () =
  let profile = { SB.default_profile with initial_abcast = initial; layer = Some layer } in
  let config = { MW.default_config with seed; profile; trace_enabled = trace } in
  MW.create ~config
    ~register_extra:(fun system ->
      B.Maestro.register system;
      B.Graceful.register system)
    ~n ()

let delivery_logs mw =
  let n = MW.n mw in
  let logs = Array.make n [] in
  for node = 0 to n - 1 do
    MW.subscribe mw ~node (fun m -> logs.(node) <- Msg.id_to_string m.Msg.id :: logs.(node))
  done;
  logs

let assert_consistent ~expect_count logs =
  match Array.to_list (Array.map List.rev logs) with
  | [] -> fail "no logs"
  | first :: rest ->
    check Alcotest.int "count" expect_count (List.length first);
    check Alcotest.int "unique" expect_count (List.length (List.sort_uniq compare first));
    List.iter (fun s -> check (Alcotest.list Alcotest.string) "order" first s) rest

let drive_switch ?(msgs = 24) ?(switch_at = 80.0) ~to_p mw =
  let logs = delivery_logs mw in
  let clock = System.clock (MW.system mw) in
  let n = MW.n mw in
  for i = 0 to msgs - 1 do
    ignore
      (Clock.defer clock ~delay:(float_of_int i *. 12.0) (fun () ->
           ignore (MW.broadcast mw ~node:(i mod n) (string_of_int i))))
  done;
  ignore
    (Clock.defer clock ~delay:switch_at (fun () -> MW.change_protocol mw ~node:0 to_p));
  MW.run_until_quiescent ~limit:60_000.0 mw;
  logs

(* ------------------------------------------------------------------ *)
(* Maestro                                                            *)
(* ------------------------------------------------------------------ *)

let test_maestro_normal_traffic () =
  let mw = mw_with ~layer:B.Maestro.protocol_name () in
  let logs = delivery_logs mw in
  for i = 0 to 9 do
    ignore (MW.broadcast mw ~node:(i mod 4) (string_of_int i))
  done;
  MW.run_until_quiescent ~limit:30_000.0 mw;
  assert_consistent ~expect_count:10 logs

let test_maestro_switch_correct () =
  let mw = mw_with ~layer:B.Maestro.protocol_name () in
  let logs = drive_switch ~to_p:Core.Variants.sequencer mw in
  assert_consistent ~expect_count:24 logs

let test_maestro_blocks_application () =
  let mw = mw_with ~layer:B.Maestro.protocol_name () in
  ignore (drive_switch ~to_p:Core.Variants.sequencer mw);
  let blocked = B.Maestro.blocked_ms (System.stack (MW.system mw) 0) in
  (* drain (150 ms) + startup (20 ms) at least *)
  check Alcotest.bool
    (Printf.sprintf "blocked %.1f ms >= 150" blocked)
    true (blocked >= 150.0)

let test_maestro_tears_down_whole_stack () =
  let mw = mw_with ~layer:B.Maestro.protocol_name () in
  ignore (drive_switch ~to_p:Core.Variants.sequencer mw);
  let names =
    List.map Stack.module_name (Stack.modules (System.stack (MW.system mw) 1))
  in
  (* The old consensus and old ct-abcast are gone (whole-stack rebuild);
     the sequencer needs neither, so none were recreated. *)
  check Alcotest.bool "consensus gone" false (List.mem "consensus.ct" names);
  check Alcotest.bool "old abcast gone" false (List.mem "abcast.ct" names);
  check Alcotest.bool "new abcast present" true (List.mem "abcast.seq" names);
  check Alcotest.bool "fresh rp2p present" true (List.mem "rp2p" names)

let test_maestro_reissues_inflight () =
  let mw = mw_with ~seed:5 ~layer:B.Maestro.protocol_name () in
  (* Broadcast right at the switch trigger: these are in flight when the
     switch message is ordered, get discarded by the cut, and must be
     re-broadcast through the new stack. *)
  let logs = delivery_logs mw in
  let clock = System.clock (MW.system mw) in
  ignore (Clock.defer clock ~delay:10.0 (fun () ->
      MW.change_protocol mw ~node:0 Core.Variants.sequencer));
  for i = 0 to 7 do
    ignore
      (Clock.defer clock ~delay:(12.0 +. float_of_int i) (fun () ->
           ignore (MW.broadcast mw ~node:(i mod 4) (string_of_int i))))
  done;
  MW.run_until_quiescent ~limit:60_000.0 mw;
  assert_consistent ~expect_count:8 logs;
  let total_reissued =
    Array.fold_left
      (fun acc stack -> acc + B.Maestro.reissued stack)
      0
      (System.stacks (MW.system mw))
  in
  check Alcotest.bool "some messages were reissued" true (total_reissued > 0)

let test_maestro_generation_tagging () =
  (* Two successive switches: both must apply, in order. *)
  let mw = mw_with ~layer:B.Maestro.protocol_name () in
  ignore (delivery_logs mw);
  let clock = System.clock (MW.system mw) in
  ignore (Clock.defer clock ~delay:10.0 (fun () ->
      MW.change_protocol mw ~node:0 Core.Variants.sequencer));
  ignore (Clock.defer clock ~delay:800.0 (fun () ->
      MW.change_protocol mw ~node:1 Core.Variants.ct));
  MW.run_until_quiescent ~limit:60_000.0 mw;
  match Stack.bound (System.stack (MW.system mw) 2) Service.abcast with
  | Some m -> check Alcotest.string "final protocol" "abcast.ct" (Stack.module_name m)
  | None -> fail "abcast unbound"

(* ------------------------------------------------------------------ *)
(* Graceful Adaptation                                                *)
(* ------------------------------------------------------------------ *)

let test_graceful_normal_traffic () =
  let mw = mw_with ~layer:B.Graceful.protocol_name () in
  let logs = delivery_logs mw in
  for i = 0 to 9 do
    ignore (MW.broadcast mw ~node:(i mod 4) (string_of_int i))
  done;
  MW.run_until_quiescent ~limit:30_000.0 mw;
  assert_consistent ~expect_count:10 logs

let test_graceful_switch_correct () =
  let mw = mw_with ~layer:B.Graceful.protocol_name () in
  let logs = drive_switch ~to_p:Core.Variants.sequencer mw in
  assert_consistent ~expect_count:24 logs;
  match Stack.bound (System.stack (MW.system mw) 3) Service.abcast with
  | Some m -> check Alcotest.string "activated" "abcast.seq" (Stack.module_name m)
  | None -> fail "abcast unbound"

let test_graceful_never_blocks () =
  let mw = mw_with ~layer:B.Graceful.protocol_name () in
  ignore (drive_switch ~to_p:Core.Variants.sequencer mw);
  Array.iter
    (fun stack ->
      check (Alcotest.float 0.0) "no app blocking" 0.0 (B.Maestro.blocked_ms stack))
    (System.stacks (MW.system mw))

let test_graceful_switch_duration_recorded () =
  let mw = mw_with ~layer:B.Graceful.protocol_name () in
  ignore (drive_switch ~to_p:Core.Variants.sequencer mw);
  let d = B.Graceful.switch_duration_ms (System.stack (MW.system mw) 0) in
  check Alcotest.bool (Printf.sprintf "initiator duration %.2f > 0" d) true (d > 0.0)

let test_graceful_refuses_new_dependencies () =
  (* Sequencer stack has no consensus; adapting to the CT variant would
     need new providers, which Graceful AACs may not create (§4.2). *)
  let mw = mw_with ~initial:Core.Variants.sequencer ~layer:B.Graceful.protocol_name () in
  let logs = delivery_logs mw in
  let clock = System.clock (MW.system mw) in
  for i = 0 to 9 do
    ignore
      (Clock.defer clock ~delay:(float_of_int i *. 10.0) (fun () ->
           ignore (MW.broadcast mw ~node:(i mod 4) (string_of_int i))))
  done;
  ignore (Clock.defer clock ~delay:35.0 (fun () ->
      MW.change_protocol mw ~node:0 Core.Variants.ct));
  MW.run_until_quiescent ~limit:30_000.0 mw;
  (* Adaptation refused; traffic unharmed on the old protocol. *)
  assert_consistent ~expect_count:10 logs;
  let refusals =
    Array.fold_left
      (fun acc stack -> acc + B.Graceful.refused stack)
      0
      (System.stacks (MW.system mw))
  in
  check Alcotest.bool "someone refused" true (refusals > 0);
  match Stack.bound (System.stack (MW.system mw) 0) Service.abcast with
  | Some m -> check Alcotest.string "still sequencer" "abcast.seq" (Stack.module_name m)
  | None -> fail "abcast unbound"

let test_graceful_same_deps_accepted () =
  (* ct -> token adds fd+rp2p requirements, both already present in a ct
     stack, so the adaptation must be accepted. *)
  let mw = mw_with ~layer:B.Graceful.protocol_name () in
  let logs = drive_switch ~to_p:Core.Variants.token mw in
  assert_consistent ~expect_count:24 logs;
  match Stack.bound (System.stack (MW.system mw) 2) Service.abcast with
  | Some m -> check Alcotest.string "token active" "abcast.token" (Stack.module_name m)
  | None -> fail "abcast unbound"

(* ------------------------------------------------------------------ *)
(* Cross-approach comparison                                          *)
(* ------------------------------------------------------------------ *)

let test_comparison_blocking () =
  (* The paper's qualitative §5.3 claim, executed: only Maestro blocks
     the application. *)
  let blocked_of layer =
    let mw = mw_with ~layer () in
    ignore (drive_switch ~to_p:Core.Variants.sequencer mw);
    Array.fold_left
      (fun acc stack -> Float.max acc (B.Maestro.blocked_ms stack))
      0.0
      (System.stacks (MW.system mw))
  in
  let repl = blocked_of Core.Repl.protocol_name in
  let graceful = blocked_of B.Graceful.protocol_name in
  let maestro = blocked_of B.Maestro.protocol_name in
  check (Alcotest.float 0.0) "repl never blocks" 0.0 repl;
  check (Alcotest.float 0.0) "graceful never blocks" 0.0 graceful;
  check Alcotest.bool "maestro blocks" true (maestro > 100.0)

let test_comparison_switch_footprint () =
  (* Repl replaces one module, and at most retires the superseded one
     per stack; Maestro rebuilds the whole stack. Count module churn
     via the kernel trace. *)
  let removals_of layer =
    let mw = mw_with ~trace:true ~layer () in
    ignore (drive_switch ~to_p:Core.Variants.sequencer mw);
    let trace = System.trace (MW.system mw) in
    List.filter_map
      (fun e -> match e.Trace.kind with Trace.Remove_module m -> Some m | _ -> None)
      (Trace.entries trace)
  in
  let repl = removals_of Core.Repl.protocol_name in
  let maestro = List.length (removals_of B.Maestro.protocol_name) in
  check Alcotest.bool "repl removes at most the old abcast per stack" true
    (List.length repl <= 4 && List.for_all (String.equal Core.Variants.ct) repl);
  check Alcotest.bool
    (Printf.sprintf "maestro removes many modules (%d)" maestro)
    true
    (maestro >= 4 * 5)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "baselines"
    [
      ( "maestro",
        [
          tc "normal traffic" test_maestro_normal_traffic;
          tc "switch correct" test_maestro_switch_correct;
          tc "blocks application" test_maestro_blocks_application;
          tc "whole-stack teardown" test_maestro_tears_down_whole_stack;
          tc "reissues in-flight" test_maestro_reissues_inflight;
          tc "generation tagging" test_maestro_generation_tagging;
        ] );
      ( "graceful",
        [
          tc "normal traffic" test_graceful_normal_traffic;
          tc "switch correct" test_graceful_switch_correct;
          tc "never blocks" test_graceful_never_blocks;
          tc "switch duration" test_graceful_switch_duration_recorded;
          tc "refuses new dependencies" test_graceful_refuses_new_dependencies;
          tc "same deps accepted" test_graceful_same_deps_accepted;
        ] );
      ( "comparison",
        [
          tc "blocking" test_comparison_blocking;
          tc "switch footprint" test_comparison_switch_footprint;
        ] );
    ]
