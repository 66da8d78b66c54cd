(* Tests for the static analysis pass: the composition verifier
   (Dpu_analysis.Composition) against registries and plans crafted to
   violate each property, its agreement with the dynamic machinery
   (Registry.instantiate, Stack_props over a real trace), and the
   determinism lint (Dpu_analysis.Lint). *)

open Dpu_kernel
module C = Dpu_analysis.Composition
module B = Dpu_analysis.Behaviour
module L = Dpu_analysis.Lint
module SB = Dpu_core.Stack_builder
module RC = Dpu_core.Repl_consensus
module MW = Dpu_core.Middleware
module Variants = Dpu_core.Variants
module Batcher = Dpu_protocols.Batcher
module Schedule = Dpu_faults.Schedule
module E = Dpu_workload.Experiment
module Report = Dpu_props.Report

let check = Alcotest.check

let has_sub ~sub s =
  let ls = String.length sub and lv = String.length s in
  let rec go i = i + ls <= lv && (String.sub s i ls = sub || go (i + 1)) in
  go 0

let report_named reports property =
  match List.find_opt (fun (r : Report.t) -> r.property = property) reports with
  | Some r -> r
  | None -> Alcotest.failf "no report named %S" property

let assert_all_ok reports =
  if not (Report.all_ok reports) then
    Alcotest.failf "expected all ok:@.%a" (Format.pp_print_list Report.pp) reports

let some_violation_mentions reports property sub =
  let r = report_named reports property in
  check Alcotest.bool (property ^ " fails") false r.Report.ok;
  check Alcotest.bool
    (Printf.sprintf "a %s violation mentions %S" property sub)
    true
    (List.exists (has_sub ~sub) r.Report.violations)

(* A populated registry exactly as [dpu_run] sees it. *)
let registry_for ?(n = 3) profile =
  let system = System.create ~n () in
  let register_extra system =
    Dpu_baselines.Maestro.register system;
    Dpu_baselines.Graceful.register system
  in
  SB.register_protocols ~register_extra ~profile system;
  System.registry system

let verify ?updates ?consensus_updates profile =
  C.verify_profile
    ~registry:(registry_for profile)
    ?updates ?consensus_updates profile

(* ------------------------------------------------------------------ *)
(* Shipped configurations verify                                      *)
(* ------------------------------------------------------------------ *)

let test_default_profile_ok () =
  assert_all_ok (verify ~updates:[ Dpu_core.Variants.ct ] SB.default_profile)

let test_all_approach_layers_ok () =
  List.iter
    (fun layer ->
      assert_all_ok
        (verify ~updates:[ Dpu_core.Variants.sequencer ]
           { SB.default_profile with layer = Some layer }))
    [
      Dpu_core.Repl.protocol_name;
      Dpu_baselines.Maestro.protocol_name;
      Dpu_baselines.Graceful.protocol_name;
    ];
  assert_all_ok (verify { SB.default_profile with layer = None })

let test_consensus_layer_ok () =
  let profile =
    {
      SB.default_profile with
      consensus_layer = Some Dpu_protocols.Consensus_ct.protocol_name;
    }
  in
  assert_all_ok
    (verify
       ~consensus_updates:[ Dpu_protocols.Consensus_paxos.protocol_name ]
       profile)

let test_gm_profile_ok () =
  assert_all_ok (verify { SB.default_profile with with_gm = true })

let test_every_initial_variant_ok () =
  List.iter
    (fun initial ->
      assert_all_ok
        (verify ~updates:[ Dpu_core.Variants.ct ]
           { SB.default_profile with initial_abcast = initial }))
    Dpu_core.Variants.all

(* ------------------------------------------------------------------ *)
(* Well-formedness violations                                         *)
(* ------------------------------------------------------------------ *)

let dummy_factory ~name ~provides ~requires stack =
  Stack.add_module stack ~name ~provides ~requires (fun _ _ ->
      Stack.default_handlers)

let empty_plan =
  {
    C.prebound = [];
    roots = [];
    passive = [];
    named = [];
    updates = [];
    consensus_updates = [];
    layer = None;
  }

let test_missing_provider_named () =
  let reg = Registry.create () in
  let sx = Service.make "svc.x" in
  Registry.register reg ~name:"a" ~provides:[ Service.make "svc.a" ]
    ~requires:[ sx ]
    (dummy_factory ~name:"a" ~provides:[ Service.make "svc.a" ] ~requires:[ sx ]);
  let reports =
    C.verify ~registry:reg { empty_plan with roots = [ C.By_name "a" ] }
  in
  some_violation_mentions reports "static strong stack-well-formedness" "svc.x";
  some_violation_mentions reports "static strong stack-well-formedness" "a"

let test_unknown_root_named () =
  let reports =
    C.verify ~registry:(Registry.create ())
      { empty_plan with roots = [ C.By_name "ghost" ] }
  in
  some_violation_mentions reports "static strong stack-well-formedness" "ghost"

(* An honest declared cycle builds dynamically (binding-before-recursion)
   but the conservative static check must still flag it. *)
let test_declared_cycle_flagged () =
  let reg = Registry.create () in
  let sa = Service.make "svc.a" and sb = Service.make "svc.b" in
  Registry.register reg ~name:"cyc.a" ~provides:[ sa ] ~requires:[ sb ]
    (dummy_factory ~name:"cyc.a" ~provides:[ sa ] ~requires:[ sb ]);
  Registry.register reg ~name:"cyc.b" ~provides:[ sb ] ~requires:[ sa ]
    (dummy_factory ~name:"cyc.b" ~provides:[ sb ] ~requires:[ sa ]);
  let reports =
    C.verify ~registry:reg { empty_plan with roots = [ C.By_name "cyc.a" ] }
  in
  (* The dynamic build terminates... *)
  let sim = Dpu_engine.Sim.create () in
  let stack = Stack.create ~clock:(Dpu_runtime.Sim_backend.clock sim) ~node:0 ~trace:(Trace.create ()) () in
  ignore (Registry.instantiate reg stack ~name:"cyc.a" : Stack.module_);
  check Alcotest.bool "dynamic build succeeds" true (Stack.has_module stack ~name:"cyc.b");
  (* ...yet the static verdict is a cycle, in canonical form, with the
     closing edge spelled out (satellite: "a -> b" hid that b loops
     back to a). *)
  some_violation_mentions reports "acyclic provider chains"
    (Registry.cycle_string (Registry.canonical_cycle [ "cyc.a"; "cyc.b" ]))

(* A longer cycle: the full canonical rotation plus the closing edge
   must appear verbatim in both the static finding and the exception
   printer. *)
let test_cycle_closing_edge () =
  let reg = Registry.create () in
  let svc name = Service.make ("svc." ^ name) in
  let ring = [ ("tri.a", "tri.b"); ("tri.b", "tri.c"); ("tri.c", "tri.a") ] in
  List.iter
    (fun (name, needs) ->
      Registry.register reg ~name
        ~provides:[ svc name ] ~requires:[ svc needs ]
        (dummy_factory ~name ~provides:[ svc name ] ~requires:[ svc needs ]))
    ring;
  let reports =
    C.verify ~registry:reg { empty_plan with roots = [ C.By_name "tri.b" ] }
  in
  let rendered = Registry.cycle_string [ "tri.a"; "tri.b"; "tri.c" ] in
  check Alcotest.string "closing edge rendered"
    "tri.a -> tri.b -> tri.c -> tri.a" rendered;
  some_violation_mentions reports "acyclic provider chains" rendered;
  (* The dynamic exception prints the same form. *)
  check Alcotest.bool "exception printer shows the closing edge" true
    (has_sub ~sub:rendered
       (Printexc.to_string (Registry.Cyclic_requires [ "tri.a"; "tri.b"; "tri.c" ])));
  check Alcotest.string "empty cycle renders" "<empty cycle>"
    (Registry.cycle_string [])

let test_duplicate_binding () =
  let reg = Registry.create () in
  let s = Service.make "svc.shared" in
  List.iter
    (fun name ->
      Registry.register reg ~name ~provides:[ s ]
        (dummy_factory ~name ~provides:[ s ] ~requires:[]))
    [ "dup.a"; "dup.b" ];
  let reports =
    C.verify ~registry:reg
      { empty_plan with roots = [ C.By_name "dup.a"; C.By_name "dup.b" ] }
  in
  some_violation_mentions reports "unique service binding" "svc.shared";
  some_violation_mentions reports "unique service binding" "dup.b"

(* ------------------------------------------------------------------ *)
(* Update-plan safety                                                 *)
(* ------------------------------------------------------------------ *)

let test_update_ok_ct_to_seq () =
  assert_all_ok (verify ~updates:[ Dpu_core.Variants.sequencer ] SB.default_profile)

let test_update_to_unregistered () =
  let reports = verify ~updates:[ "abcast.nope" ] SB.default_profile in
  some_violation_mentions reports "update-plan safety" "abcast.nope"

let test_update_drops_service () =
  (* Swapping the ABcast variant for a consensus implementation drops
     the abcast service its callers rely on. *)
  let profile = { SB.default_profile with initial_abcast = Dpu_core.Variants.sequencer } in
  let reports =
    verify ~updates:[ Dpu_protocols.Consensus_ct.protocol_name ] profile
  in
  some_violation_mentions reports "update-plan safety" "drops service abcast"

let test_update_without_layer () =
  let profile = { SB.default_profile with layer = None } in
  let reports = verify ~updates:[ Dpu_core.Variants.ct ] profile in
  some_violation_mentions reports "update-plan safety" "no replacement layer"

let test_update_post_swap_unresolvable () =
  let profile = SB.default_profile in
  let system = System.create ~n:3 () in
  SB.register_protocols ~profile system;
  let reg = System.registry system in
  let ghost = Service.make "svc.ghost" in
  Registry.register reg ~name:"abcast.fake"
    ~provides:[ Service.abcast ] ~requires:[ ghost ]
    (dummy_factory ~name:"abcast.fake" ~provides:[ Service.abcast ] ~requires:[ ghost ]);
  let reports = C.verify_profile ~registry:reg ~updates:[ "abcast.fake" ] profile in
  some_violation_mentions reports "update-plan safety" "svc.ghost"

let test_update_direct_caller_bypass () =
  let profile = SB.default_profile in
  let system = System.create ~n:3 () in
  SB.register_protocols ~profile system;
  let reg = System.registry system in
  (* A planned module that calls [abcast] directly, bypassing the
     replacement layer: its calls cannot be intercepted by the swap. *)
  Registry.register reg ~name:"app.direct" ~provides:[]
    ~requires:[ Service.abcast ]
    (dummy_factory ~name:"app.direct" ~provides:[] ~requires:[ Service.abcast ]);
  let plan = C.plan_of_profile ~updates:[ Dpu_core.Variants.sequencer ] profile in
  let plan = { plan with C.roots = plan.C.roots @ [ C.By_name "app.direct" ] } in
  let reports = C.verify ~registry:reg plan in
  some_violation_mentions reports "update-plan safety" "app.direct"

let test_consensus_update_missing_impl () =
  let profile =
    {
      SB.default_profile with
      consensus_layer = Some Dpu_protocols.Consensus_ct.protocol_name;
    }
  in
  let reports = verify ~consensus_updates:[ "consensus.nope" ] profile in
  some_violation_mentions reports "update-plan safety" "consensus.nope"

(* ------------------------------------------------------------------ *)
(* Behavioural update safety (tentpole)                                *)
(* ------------------------------------------------------------------ *)

let behaviour_report reports = report_named reports "behavioural update safety"

let spec_of_exn reg name =
  match Registry.spec_of reg ~name with
  | Some spec -> spec
  | None -> Alcotest.failf "%s has no declared spec" name

(* The 1-unfolding of the sequencer spec surfaces every in-flight
   shape class: an undelivered payload, an open ordering round, and —
   when batching is on — a partially-flushed batch. *)
let test_unfold1_shapes () =
  let reg = registry_for SB.default_profile in
  let shapes = B.unfold1 (spec_of_exn reg Variants.sequencer) in
  check Alcotest.bool "some in-flight shapes" true (shapes <> []);
  List.iter
    (fun (s : B.shape) ->
      check Alcotest.bool "every shape has pending work" true
        (s.B.sh_pending <> []);
      check Alcotest.bool "every shape has a provenance trace" true
        (s.B.sh_trace <> []))
    shapes;
  let has_pending p =
    List.exists (fun (s : B.shape) -> List.mem p (List.map B.pending_name s.B.sh_pending)) shapes
  in
  check Alcotest.bool "undelivered payload shape" true
    (has_pending (B.pending_name B.P_deliver));
  check Alcotest.bool "open ordering round shape" true
    (List.exists
       (fun (s : B.shape) ->
         List.exists
           (function B.P_wire k -> k.Spec.k_name = "seq.order" | _ -> false)
           s.B.sh_pending)
       shapes);
  (* Batched registration adds the partially-flushed-batch shape and
     the epoch-flush obligation. *)
  let batched_profile =
    {
      SB.default_profile with
      batching = Some { Batcher.max_batch = 16; max_delay_ms = 2.0 };
    }
  in
  let bspec = spec_of_exn (registry_for batched_profile) Variants.sequencer in
  check Alcotest.bool "batched spec takes the epoch-flush obligation" true
    (Spec.obliges bspec Spec.Epoch_flush);
  check Alcotest.bool "batched unfolding parks a batch" true
    (List.exists
       (fun (s : B.shape) ->
         List.exists
           (function B.P_batch _ -> true | _ -> false)
           s.B.sh_pending)
       (B.unfold1 bspec))

(* Direct ♢-combination: the shipped layer + epoch buffer discharge
   every obligation of every variant pair; removing the buffer leaves
   the successor's early traffic stranded on a sequence gap. *)
let test_check_pair_buffer_discharges () =
  let reg = registry_for SB.default_profile in
  let layer =
    (Dpu_core.Repl.protocol_name, spec_of_exn reg Dpu_core.Repl.protocol_name)
  in
  let buffer = ("epoch-buffer", Dpu_protocols.Epoch_buffer.spec) in
  List.iter
    (fun (old_name, new_name) ->
      let checked, hazards =
        B.check_pair ~old_name ~old_spec:(spec_of_exn reg old_name) ~new_name
          ~new_spec:(spec_of_exn reg new_name) ~layer ~passives:[ buffer ]
      in
      check Alcotest.bool (old_name ^ "->" ^ new_name ^ " examined") true
        (checked > 0);
      check Alcotest.int (old_name ^ "->" ^ new_name ^ " no hazards") 0
        (List.length hazards))
    [ (Variants.ct, Variants.sequencer); (Variants.sequencer, Variants.token) ];
  let _, hazards =
    B.check_pair ~old_name:Variants.sequencer
      ~old_spec:(spec_of_exn reg Variants.sequencer) ~new_name:Variants.token
      ~new_spec:(spec_of_exn reg Variants.token) ~layer ~passives:[]
  in
  check Alcotest.bool "no buffer strands early successor traffic" true
    (List.exists
       (fun (h : B.hazard) ->
         h.B.h_fate = `Stranded && h.B.h_obligation = Spec.Gap_free_gseq)
       hazards);
  match hazards with
  | h :: _ ->
    let msg =
      B.hazard_message ~old_name:Variants.sequencer ~new_name:Variants.token h
    in
    check Alcotest.bool "message carries a counterexample" true
      (has_sub ~sub:"counterexample:" msg)
  | [] -> Alcotest.fail "expected at least one hazard"

(* Every shipped variant pair is behaviourally safe under the shipped
   stack (layer + epoch buffer), in both directions. *)
let test_behaviour_matrix_all_safe () =
  List.iter
    (fun initial ->
      List.iter
        (fun target ->
          let reports =
            verify ~updates:[ target ]
              { SB.default_profile with initial_abcast = initial }
          in
          let r = behaviour_report reports in
          check Alcotest.bool
            (Printf.sprintf "%s -> %s safe" initial target)
            true r.Report.ok;
          check Alcotest.bool
            (Printf.sprintf "%s -> %s examined obligations" initial target)
            true (r.Report.checked > 0))
        Variants.all)
    Variants.all

let test_behaviour_no_buffer_rejected () =
  let reports =
    verify ~updates:[ Variants.sequencer ]
      { SB.default_profile with epoch_buffer = false }
  in
  some_violation_mentions reports "behavioural update safety" "gap-free-gseq";
  some_violation_mentions reports "behavioural update safety" "counterexample:"

(* A swap target registered without a spec — or with an opaque one —
   cannot be proven safe; the checker must say so rather than pass
   silently. *)
let test_behaviour_missing_spec_flagged () =
  let profile = SB.default_profile in
  let reg = registry_for profile in
  Registry.register reg ~name:"abcast.nospec" ~provides:[ Service.abcast ]
    (dummy_factory ~name:"abcast.nospec" ~provides:[ Service.abcast ]
       ~requires:[]);
  let reports =
    C.verify_profile ~registry:reg ~updates:[ "abcast.nospec" ] profile
  in
  some_violation_mentions reports "behavioural update safety"
    "declares no behavioural spec"

let test_behaviour_opaque_spec_flagged () =
  let profile = SB.default_profile in
  let reg = registry_for profile in
  Registry.register reg ~name:"abcast.blackbox" ~provides:[ Service.abcast ]
    ~spec:(Spec.opaque ~service:(Service.name Service.abcast) "legacy black box")
    (dummy_factory ~name:"abcast.blackbox" ~provides:[ Service.abcast ]
       ~requires:[]);
  let reports =
    C.verify_profile ~registry:reg ~updates:[ "abcast.blackbox" ] profile
  in
  some_violation_mentions reports "behavioural update safety" "opaque";
  some_violation_mentions reports "behavioural update safety" "legacy black box"

(* ------------------------------------------------------------------ *)
(* Static verdict vs dynamic behaviour                                *)
(* ------------------------------------------------------------------ *)

(* A "liar" registration declares provides it never binds: the dynamic
   resolver re-enters the protocol and must raise the same canonical
   cycle the static pass reports. *)
let test_liar_cycle_static_eq_dynamic () =
  let reg = Registry.create () in
  let sa = Service.make "svc.a" and sb = Service.make "svc.b" in
  (* Factories add modules providing nothing, so nothing ever binds and
     resolution recurses. *)
  Registry.register reg ~name:"liar.a" ~provides:[ sa ] ~requires:[ sb ]
    (dummy_factory ~name:"liar.a" ~provides:[] ~requires:[ sb ]);
  Registry.register reg ~name:"liar.b" ~provides:[ sb ] ~requires:[ sa ]
    (dummy_factory ~name:"liar.b" ~provides:[] ~requires:[ sa ]);
  let dynamic_cycle =
    let sim = Dpu_engine.Sim.create () in
    let stack = Stack.create ~clock:(Dpu_runtime.Sim_backend.clock sim) ~node:0 ~trace:(Trace.create ()) () in
    match Registry.instantiate reg stack ~name:"liar.a" with
    | exception Registry.Cyclic_requires cycle -> cycle
    | _ -> Alcotest.fail "expected Cyclic_requires"
  in
  check
    Alcotest.(list string)
    "dynamic cycle canonical" (Registry.canonical_cycle [ "liar.a"; "liar.b" ])
    dynamic_cycle;
  let reports =
    C.verify ~registry:reg { empty_plan with roots = [ C.By_name "liar.a" ] }
  in
  some_violation_mentions reports "acyclic provider chains"
    (Registry.cycle_string dynamic_cycle)

let test_missing_provider_static_eq_dynamic () =
  let reg = Registry.create () in
  let sx = Service.make "svc.x" in
  Registry.register reg ~name:"needy" ~provides:[ Service.make "svc.n" ]
    ~requires:[ sx ]
    (dummy_factory ~name:"needy" ~provides:[ Service.make "svc.n" ] ~requires:[ sx ]);
  let reports =
    C.verify ~registry:reg { empty_plan with roots = [ C.By_name "needy" ] }
  in
  some_violation_mentions reports "static strong stack-well-formedness" "svc.x";
  let sim = Dpu_engine.Sim.create () in
  let stack = Stack.create ~clock:(Dpu_runtime.Sim_backend.clock sim) ~node:0 ~trace:(Trace.create ()) () in
  match Registry.instantiate reg stack ~name:"needy" with
  | exception Registry.No_provider svc ->
    check Alcotest.string "same service" "svc.x" (Service.name svc)
  | _ -> Alcotest.fail "expected No_provider"

(* Static OK must coincide with a dynamically well-formed build: build
   the verified profile for real and replay the trace checkers. *)
let test_static_ok_matches_dynamic_trace () =
  let profile = SB.default_profile in
  assert_all_ok (verify ~updates:[ Dpu_core.Variants.ct ] profile);
  let system = System.create ~n:3 ~trace_enabled:true () in
  SB.build ~profile system;
  (* Bounded: the stack keeps periodic timers (fd heartbeats) alive. *)
  System.run_until system 200.0;
  let trace = System.trace system in
  let wf = Dpu_props.Stack_props.weak_stack_well_formedness trace in
  check Alcotest.bool "dynamic weak WF" true wf.Report.ok

(* --- behavioural verdicts vs the fault harness --------------------- *)

(* The schedule the epoch-buffer regression (test_faults) established
   as the discriminating one: a minority node is isolated across the
   switch trigger, so the majority switches and produces new-generation
   wire traffic while the isolated node is still on the old one. *)
let discriminating_faults =
  [
    Schedule.partition ~at:1_500.0 [ [ 0; 1; 2; 3 ]; [ 4 ] ];
    Schedule.heal ~at:2_600.0;
  ]

let agreement_params ~initial ~target ~epoch_buffer =
  {
    E.default with
    n = 5;
    seed = 102;
    load = 30.0;
    duration_ms = 4_000.0;
    switch_at_ms = 2_000.0;
    initial;
    switch_to = Some target;
    msg_size = 1024;
    trace_enabled = true;
    faults = discriminating_faults;
    epoch_buffer;
  }

(* Pairs the static checker accepts must survive the property battery
   across a mid-stream swap under the discriminating schedule. *)
let test_safe_pairs_static_eq_dynamic () =
  List.iter
    (fun (initial, target) ->
      let profile = { SB.default_profile with initial_abcast = initial } in
      assert_all_ok (verify ~updates:[ target ] profile);
      let result = E.run (agreement_params ~initial ~target ~epoch_buffer:true) in
      List.iter
        (fun (r : Report.t) ->
          check Alcotest.bool
            (Printf.sprintf "%s->%s dynamic: %s" initial target r.Report.property)
            true r.Report.ok)
        (E.check result);
      check Alcotest.bool
        (Printf.sprintf "%s->%s switch completed" initial target)
        true (result.E.per_shard.(0).E.switch_window <> None))
    [ (Variants.ct, Variants.sequencer); (Variants.sequencer, Variants.token) ]

(* The pair the static checker rejects (no future-epoch buffer) must
   come with a concrete violating schedule — and the schedule really
   violates: replayed without the buffer, the isolated node strands
   the stream its peers delivered. [E.run] refuses unsafe plans
   (satellite: preflight), so the cluster is assembled directly. *)
let test_unsafe_pair_static_eq_dynamic () =
  let profile = { SB.default_profile with epoch_buffer = false } in
  let reports = verify ~updates:[ Variants.sequencer ] profile in
  some_violation_mentions reports "behavioural update safety" "gap-free-gseq";
  let config =
    { MW.default_config with seed = 102; msg_size = 1024; profile; faults = discriminating_faults }
  in
  let mw = MW.create ~config ~n:5 () in
  let system = MW.system mw in
  let clock = System.clock system in
  Dpu_workload.Load_gen.start mw ~rate_per_s:30.0 ~until:4_000.0 ();
  ignore
    (Dpu_runtime.Clock.defer clock ~delay:2_000.0 (fun () ->
         MW.change_protocol mw ~node:4 Variants.sequencer));
  MW.run_for mw 10_000.0;
  let late = System.stack system 4 in
  check Alcotest.int "nothing stashes future-generation traffic" 0
    (Dpu_protocols.Epoch_buffer.stashed late);
  let collector = MW.collector mw in
  let count node = List.length (Dpu_core.Collector.delivers_of collector ~node) in
  check Alcotest.bool "traffic flowed at the majority" true (count 0 > 20);
  check Alcotest.bool
    "the isolated node stranded part of the stream (the counterexample)"
    true
    (count 4 < count 0)

(* ------------------------------------------------------------------ *)
(* Registry introspection (satellites 1-2)                            *)
(* ------------------------------------------------------------------ *)

let test_registry_introspection () =
  let reg = registry_for SB.default_profile in
  (match Registry.requires_of reg ~name:Dpu_core.Variants.ct with
  | Some requires ->
    check Alcotest.bool "abcast.ct requires consensus" true
      (List.exists (Service.equal Service.consensus) requires)
  | None -> Alcotest.fail "abcast.ct not registered");
  (match Registry.provides_of reg ~name:Dpu_core.Variants.ct with
  | Some provides ->
    check Alcotest.bool "abcast.ct provides abcast" true
      (List.exists (Service.equal Service.abcast) provides)
  | None -> Alcotest.fail "abcast.ct not registered");
  check Alcotest.bool "unknown name" true
    (Registry.provides_of reg ~name:"ghost" = None
    && Registry.requires_of reg ~name:"ghost" = None)

let test_canonical_cycle () =
  check
    Alcotest.(list string)
    "rotated to smallest first" [ "a"; "c"; "b" ]
    (Registry.canonical_cycle [ "b"; "a"; "c" ]);
  check Alcotest.(list string) "empty" [] (Registry.canonical_cycle [])

(* ------------------------------------------------------------------ *)
(* Experiment preflight                                               *)
(* ------------------------------------------------------------------ *)

let test_preflight_accepts_default () =
  assert_all_ok (E.preflight E.default)

let test_preflight_rejects_bad_swap () =
  let params =
    {
      E.default with
      initial = Dpu_core.Variants.sequencer;
      switch_to = Some Dpu_protocols.Consensus_ct.protocol_name;
    }
  in
  check Alcotest.bool "preflight fails" false
    (Report.all_ok (E.preflight params));
  match E.run { params with duration_ms = 50.0 } with
  | exception E.Preflight_failure reports ->
    check Alcotest.bool "carries failing reports" false (Report.all_ok reports)
  | _ -> Alcotest.fail "expected Preflight_failure"

(* Satellite: a behaviourally rejected plan never reaches the
   simulation — [E.run] raises [Preflight_failure] before any event,
   so no message is ever sent under the unsafe configuration. *)
let test_preflight_rejects_unsafe_behaviour () =
  let params = { E.default with epoch_buffer = false } in
  let reports = E.preflight params in
  check Alcotest.bool "preflight fails" false (Report.all_ok reports);
  some_violation_mentions reports "behavioural update safety" "counterexample:";
  (* Precision: with no planned switch the same profile is merely
     fragile, not unsafe — preflight accepts it. *)
  assert_all_ok (E.preflight { params with switch_to = None });
  match E.run { params with duration_ms = 50.0 } with
  | exception E.Preflight_failure reports ->
    let r = behaviour_report reports in
    check Alcotest.bool "behavioural report is the failing one" false
      r.Report.ok;
    check Alcotest.bool "raised before any message was sent" true
      (r.Report.checked > 0)
  | result ->
    Alcotest.failf "expected Preflight_failure, ran and sent %d"
      result.E.per_shard.(0).E.sent

(* ------------------------------------------------------------------ *)
(* JSON export                                                        *)
(* ------------------------------------------------------------------ *)

let test_to_json_round_trip () =
  let reports = verify ~updates:[ Dpu_core.Variants.ct ] SB.default_profile in
  let json = C.to_json reports in
  let module J = Dpu_obs.Json in
  match J.of_string (J.to_string json) with
  | Error e -> Alcotest.failf "emitted JSON does not parse: %s" e
  | Ok parsed ->
    check Alcotest.(option string) "schema" (Some "dpu.analysis/2")
      (Option.bind (J.member parsed "schema") J.to_string_opt);
    check Alcotest.(option int) "schema version" (Some 2)
      (Option.bind (J.member parsed "schema_version") J.to_int_opt);
    (match J.member parsed "ok" with
    | Some (J.Bool true) -> ()
    | _ -> Alcotest.fail "top-level ok must be true");
    (match Option.bind (J.member parsed "reports") J.to_list_opt with
    | Some l -> check Alcotest.int "five properties" 5 (List.length l)
    | None -> Alcotest.fail "reports array missing");
    (* The verdicts parse back losslessly. *)
    (match C.of_json parsed with
    | Error e -> Alcotest.failf "of_json rejected own output: %s" e
    | Ok back ->
      check Alcotest.int "same report count" (List.length reports)
        (List.length back);
      List.iter2
        (fun (a : Report.t) (b : Report.t) ->
          check Alcotest.string "property" a.Report.property b.Report.property;
          check Alcotest.bool "ok" a.Report.ok b.Report.ok;
          check Alcotest.int "checked" a.Report.checked b.Report.checked;
          check
            Alcotest.(list string)
            "violations" a.Report.violations b.Report.violations)
        reports back)

(* Satellite: verdict files written by the PR4-era tool (schema
   [dpu.analysis/1]: no [schema_version], four properties) must still
   parse. The blob is a frozen fixture, not regenerated output. *)
let v1_fixture_blob =
  {|{"schema": "dpu.analysis/1", "ok": false, "reports": [
     {"property": "static strong stack-well-formedness", "ok": true,
      "checked": 18, "violations": []},
     {"property": "acyclic provider chains", "ok": true,
      "checked": 12, "violations": []},
     {"property": "unique service binding", "ok": true,
      "checked": 9, "violations": []},
     {"property": "update-plan safety", "ok": false, "checked": 4,
      "violations": ["changeABcast target abcast.nope is not registered"]}]}|}

let test_of_json_v1_fixture () =
  let module J = Dpu_obs.Json in
  match J.of_string v1_fixture_blob with
  | Error e -> Alcotest.failf "fixture does not parse as JSON: %s" e
  | Ok json -> (
    match C.of_json json with
    | Error e -> Alcotest.failf "v1 fixture rejected: %s" e
    | Ok reports ->
      check Alcotest.int "four properties (no behavioural report in v1)" 4
        (List.length reports);
      check Alcotest.bool "overall verdict preserved" false
        (Report.all_ok reports);
      let r = report_named reports "update-plan safety" in
      check Alcotest.bool "failing report reconstructed" false r.Report.ok;
      check
        Alcotest.(list string)
        "violation text preserved"
        [ "changeABcast target abcast.nope is not registered" ]
        r.Report.violations;
      check Alcotest.int "checked preserved" 4 r.Report.checked)

let test_of_json_rejects_unknown_schema () =
  let module J = Dpu_obs.Json in
  let blob = {|{"schema": "dpu.analysis/9", "ok": true, "reports": []}|} in
  (match J.of_string blob with
  | Ok json -> (
    match C.of_json json with
    | Error e ->
      check Alcotest.bool "error names the schema" true
        (has_sub ~sub:"dpu.analysis/9" e)
    | Ok _ -> Alcotest.fail "unknown schema must be rejected")
  | Error e -> Alcotest.failf "blob does not parse: %s" e);
  match J.of_string {|{"ok": true, "reports": []}|} with
  | Ok json -> (
    match C.of_json json with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "missing schema must be rejected")
  | Error e -> Alcotest.failf "blob does not parse: %s" e

(* ------------------------------------------------------------------ *)
(* Determinism lint                                                   *)
(* ------------------------------------------------------------------ *)

(* Build hazard lines by concatenation so this test file never trips
   the lint itself. *)
let hazard rule =
  match rule with
  | "hashtbl-iter" -> "  Hashtbl." ^ "iter (fun k v -> send k v) tbl"
  | "poly-compare" -> "  List.sort " ^ "compare xs"
  | "random" -> "  let x = Rand" ^ "om.int 6 in"
  | "wall-clock" -> "  let t = Unix.get" ^ "timeofday () in"
  | "marshal" -> "  Mar" ^ "shal.to_string v []"
  | "unix-io" -> "  let fd = Unix." ^ "socket PF_INET SOCK_DGRAM 0 in"
  | "unsafe-bytes" -> "  let s = Bytes.un" ^ "safe_to_string buf in"
  | "spec-opaque" -> "  let s = Spec." ^ "opaque ~service reason in"
  | r -> Alcotest.failf "unknown rule %s" r

let scan_lines ?(file = "lib/fake/test_input.ml") lines =
  L.scan_source ~file (String.concat "\n" lines)

let test_each_rule_fires () =
  List.iter
    (fun (r : L.rule) ->
      let findings = scan_lines [ hazard r.L.r_id ] in
      check Alcotest.bool (r.L.r_id ^ " fires") true
        (List.exists (fun f -> f.L.f_rule = r.L.r_id) findings))
    L.rules

let test_clean_code_no_findings () =
  check Alcotest.int "clean snippet" 0
    (List.length
       (scan_lines
          [
            "let xs = List.sort Int.compare xs";
            "let h = String.hash s";
            "let t = Sim.now sim";
          ]))

let test_suppression_needs_reason () =
  let allow = "(* dpu-lint: " ^ "allow hashtbl-iter — folded then sorted *)" in
  let allow_no_reason = "(* dpu-lint: " ^ "allow hashtbl-iter *)" in
  check Alcotest.int "reasoned suppression silences" 0
    (List.length (scan_lines [ hazard "hashtbl-iter" ^ " " ^ allow ]));
  check Alcotest.int "bare suppression does not" 1
    (List.length (scan_lines [ hazard "hashtbl-iter" ^ " " ^ allow_no_reason ]))

let test_suppression_previous_line () =
  let allow = "(* dpu-lint: " ^ "allow wall-clock — telemetry only *)" in
  check Alcotest.int "previous-line suppression" 0
    (List.length (scan_lines [ allow; hazard "wall-clock" ]));
  check Alcotest.int "two lines above is too far" 1
    (List.length (scan_lines [ allow; ""; hazard "wall-clock" ]))

let test_suppression_wrong_rule () =
  let allow = "(* dpu-lint: " ^ "allow random — not the right rule *)" in
  check Alcotest.int "wrong rule id does not silence" 1
    (List.length (scan_lines [ allow; hazard "wall-clock" ]))

let test_comments_and_strings_ignored () =
  check Alcotest.int "commented-out hazard" 0
    (List.length (scan_lines [ "(* " ^ hazard "hashtbl-iter" ^ " *)" ]));
  check Alcotest.int "hazard inside a string literal" 0
    (List.length (scan_lines [ "let doc = \"" ^ String.trim (hazard "marshal") ^ "\"" ]));
  check Alcotest.int "nested comment" 0
    (List.length (scan_lines [ "(* outer (* " ^ hazard "random" ^ " *) still out *)" ]))

let test_word_boundary () =
  check Alcotest.int "longer identifier does not match" 0
    (List.length (scan_lines [ "  List.sort " ^ "compare_cycles cycles" ]))

let test_file_exemptions () =
  check Alcotest.int "rng.ml may use Random" 0
    (List.length (scan_lines ~file:"lib/engine/rng.ml" [ hazard "random" ]));
  check Alcotest.int "sweep.ml may use Marshal" 0
    (List.length (scan_lines ~file:"lib/runtime/sweep.ml" [ hazard "marshal" ]));
  check Alcotest.int "elsewhere Random is flagged" 1
    (List.length (scan_lines ~file:"lib/engine/sim.ml" [ hazard "random" ]))

(* The live backend is directory-exempt from wall-clock and unix-io —
   and from nothing else, nowhere else. *)
let test_dir_exemptions () =
  let live = "lib/live/udp_transport.ml" in
  check Alcotest.int "lib/live may read the wall clock" 0
    (List.length (scan_lines ~file:live [ hazard "wall-clock" ]));
  check Alcotest.int "lib/live may open sockets" 0
    (List.length (scan_lines ~file:live [ hazard "unix-io" ]));
  check Alcotest.int "lib/live is not exempt from other rules" 1
    (List.length (scan_lines ~file:live [ hazard "random" ]));
  (* The exemption is scoped to the directory: the same hazards in the
     engine or a protocol module still fire. *)
  check Alcotest.int "engine wall-clock still flagged" 1
    (List.length (scan_lines ~file:"lib/engine/sim.ml" [ hazard "wall-clock" ]));
  check Alcotest.int "engine socket IO still flagged" 1
    (List.length (scan_lines ~file:"lib/engine/sim.ml" [ hazard "unix-io" ]));
  check Alcotest.int "protocols wall-clock still flagged" 1
    (List.length (scan_lines ~file:"lib/protocols/rp2p.ml" [ hazard "wall-clock" ]));
  check Alcotest.int "protocols socket IO still flagged" 1
    (List.length (scan_lines ~file:"lib/protocols/rp2p.ml" [ hazard "unix-io" ]));
  (* A path that merely mentions live outside lib/ gets no pass. *)
  check Alcotest.int "name alone is not enough" 1
    (List.length (scan_lines ~file:"lib/enginelive/x.ml" [ hazard "unix-io" ]))

(* The zero-copy wire path gets no blanket pass: every unchecked byte
   access — even in Wire itself — needs a reasoned per-line allow. *)
let test_unsafe_bytes_has_no_exemptions () =
  List.iter
    (fun file ->
      check Alcotest.int (file ^ " flagged") 1
        (List.length (scan_lines ~file [ hazard "unsafe-bytes" ])))
    [ "lib/kernel/wire.ml"; "lib/live/udp_transport.ml"; "lib/kernel/payload.ml" ];
  let allow = "(* dpu-lint: " ^ "allow unsafe-bytes — read-only view *)" in
  check Alcotest.int "reasoned allow silences" 0
    (List.length
       (scan_lines ~file:"lib/kernel/wire.ml" [ allow; hazard "unsafe-bytes" ]));
  (* All the unchecked accessors fire, not just the one in the tree. *)
  List.iter
    (fun frag ->
      check Alcotest.int (frag ^ " variant fires") 1
        (List.length (scan_lines [ "  ignore (Bytes.un" ^ "safe_" ^ frag ^ " b)" ])))
    [ "get"; "set"; "of_string" ]

(* The structural pass: a [Registry.register] call that passes no
   [~spec] anywhere in the call site (satellite: no silent opacity).
   Lines are built by concatenation like the substring hazards. *)
let register_line =
  "  Registry.regi" ^ "ster reg ~name:\"x\" ~provides:[ svc ]"

let spec_line = "    ~sp" ^ "ec:(Spec.make ~service:\"svc.x\" ())"

let registry_spec_findings lines =
  List.filter
    (fun f -> f.L.f_rule = "registry-" ^ "spec")
    (scan_lines lines)

let test_registry_spec_fires () =
  match registry_spec_findings [ register_line; "    factory" ] with
  | [ f ] ->
    check Alcotest.int "flagged at the call line" 1 f.L.f_line;
    check Alcotest.bool "message mentions the fix" true
      (has_sub ~sub:"~sp" f.L.f_message || has_sub ~sub:"spec" f.L.f_message)
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

let test_registry_spec_satisfied_nearby () =
  check Alcotest.int "spec on the same line" 0
    (List.length (registry_spec_findings [ register_line ^ " " ^ String.trim spec_line ]));
  check Alcotest.int "spec a few lines below" 0
    (List.length
       (registry_spec_findings [ register_line; "    ~requires:[]"; spec_line ]));
  (* The window is bounded: a ~spec that belongs to some later
     expression does not excuse the call. *)
  let far_spec = List.init 13 (fun _ -> "    (* gap *)") @ [ spec_line ] in
  check Alcotest.int "spec beyond the window does not count" 1
    (List.length (registry_spec_findings (register_line :: far_spec)))

let test_registry_spec_suppressible () =
  let allow =
    "(* dpu-lint: " ^ "allow registry-spec — wrapper registers on behalf *)"
  in
  let bare = "(* dpu-lint: " ^ "allow registry-spec *)" in
  check Alcotest.int "reasoned allow silences" 0
    (List.length (registry_spec_findings [ allow; register_line ]));
  check Alcotest.int "bare allow does not" 1
    (List.length (registry_spec_findings [ bare; register_line ]))

let test_line_numbers_and_text () =
  let findings = scan_lines [ "let a = 1"; hazard "poly-compare" ] in
  match findings with
  | [ f ] ->
    check Alcotest.int "line number" 2 f.L.f_line;
    check Alcotest.bool "text excerpt trimmed" true
      (has_sub ~sub:"List.sort" f.L.f_text && not (String.length f.L.f_text = 0))
  | _ -> Alcotest.failf "expected exactly one finding, got %d" (List.length findings)

(* The tree itself must stay lint-clean (satellite: self-clean). Dune
   copies the sources into the build dir, so ../lib is scannable from
   the test's cwd. *)
let test_tree_is_clean () =
  if Sys.file_exists "../lib" && Sys.is_directory "../lib" then begin
    let findings = L.scan_paths [ "../lib" ] in
    if findings <> [] then
      Alcotest.failf "lint findings in lib:@.%s"
        (String.concat "\n"
           (List.map (fun f -> Format.asprintf "%a" L.pp_finding f) findings))
  end

let test_lint_json () =
  let findings = scan_lines [ hazard "random" ] in
  let module J = Dpu_obs.Json in
  match J.of_string (J.to_string (L.to_json findings)) with
  | Error e -> Alcotest.failf "lint JSON does not parse: %s" e
  | Ok parsed ->
    (match J.member parsed "ok" with
    | Some (J.Bool false) -> ()
    | _ -> Alcotest.fail "ok must be false with findings");
    check Alcotest.(option int) "count" (Some 1)
      (Option.bind (J.member parsed "count") J.to_int_opt)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "analysis"
    [
      ( "composition-ok",
        [
          tc "default profile" test_default_profile_ok;
          tc "all approaches" test_all_approach_layers_ok;
          tc "consensus layer" test_consensus_layer_ok;
          tc "gm profile" test_gm_profile_ok;
          tc "every initial variant" test_every_initial_variant_ok;
        ] );
      ( "composition-violations",
        [
          tc "missing provider named" test_missing_provider_named;
          tc "unknown root named" test_unknown_root_named;
          tc "declared cycle flagged" test_declared_cycle_flagged;
          tc "cycle closing edge" test_cycle_closing_edge;
          tc "duplicate binding" test_duplicate_binding;
        ] );
      ( "update-safety",
        [
          tc "ct->seq ok" test_update_ok_ct_to_seq;
          tc "unregistered target" test_update_to_unregistered;
          tc "drops service" test_update_drops_service;
          tc "no layer" test_update_without_layer;
          tc "post-swap unresolvable" test_update_post_swap_unresolvable;
          tc "direct-caller bypass" test_update_direct_caller_bypass;
          tc "consensus impl missing" test_consensus_update_missing_impl;
        ] );
      ( "behaviour",
        [
          tc "unfold1 shapes" test_unfold1_shapes;
          tc "check_pair discharge" test_check_pair_buffer_discharges;
          tc "variant matrix safe" test_behaviour_matrix_all_safe;
          tc "no buffer rejected" test_behaviour_no_buffer_rejected;
          tc "missing spec flagged" test_behaviour_missing_spec_flagged;
          tc "opaque spec flagged" test_behaviour_opaque_spec_flagged;
        ] );
      ( "static-vs-dynamic",
        [
          tc "liar cycle" test_liar_cycle_static_eq_dynamic;
          tc "missing provider" test_missing_provider_static_eq_dynamic;
          tc "clean build trace" test_static_ok_matches_dynamic_trace;
          slow "safe pairs survive the swap" test_safe_pairs_static_eq_dynamic;
          slow "unsafe pair has a violating schedule"
            test_unsafe_pair_static_eq_dynamic;
        ] );
      ( "registry",
        [
          tc "introspection" test_registry_introspection;
          tc "canonical cycle" test_canonical_cycle;
        ] );
      ( "preflight",
        [
          tc "accepts default" test_preflight_accepts_default;
          tc "rejects bad swap" test_preflight_rejects_bad_swap;
          tc "rejects unsafe behaviour" test_preflight_rejects_unsafe_behaviour;
        ] );
      ( "json",
        [
          tc "round trip" test_to_json_round_trip;
          tc "v1 fixture parses" test_of_json_v1_fixture;
          tc "unknown schema rejected" test_of_json_rejects_unknown_schema;
        ] );
      ( "lint",
        [
          tc "each rule fires" test_each_rule_fires;
          tc "clean code" test_clean_code_no_findings;
          tc "suppression needs reason" test_suppression_needs_reason;
          tc "previous-line suppression" test_suppression_previous_line;
          tc "wrong rule id" test_suppression_wrong_rule;
          tc "comments and strings" test_comments_and_strings_ignored;
          tc "word boundary" test_word_boundary;
          tc "file exemptions" test_file_exemptions;
          tc "directory exemptions" test_dir_exemptions;
          tc "unsafe-bytes has no exemptions" test_unsafe_bytes_has_no_exemptions;
          tc "registry-spec fires" test_registry_spec_fires;
          tc "registry-spec satisfied nearby" test_registry_spec_satisfied_nearby;
          tc "registry-spec suppressible" test_registry_spec_suppressible;
          tc "line numbers" test_line_numbers_and_text;
          tc "tree is clean" test_tree_is_clean;
          tc "lint json" test_lint_json;
        ] );
    ]
