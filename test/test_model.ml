(* Tests for the bounded model checker of Algorithm 1: the faithful
   algorithm verifies exhaustively, each mutated variant (one line of
   the algorithm deleted) yields a counterexample naming the property
   the paper proves with that line. *)

module M = Dpu_model.Algo1
module E = Dpu_model.Explore
module C = Dpu_model.Consswap

let check = Alcotest.check
let fail = Alcotest.fail

let expect_verified ?(bounds = M.default_bounds) ?mutation label =
  match M.check ?mutation ~bounds () with
  | E.Verified { states; quiescent } ->
    check Alcotest.bool (label ^ ": explored something") true (states > 100);
    check Alcotest.bool (label ^ ": reached quiescent states") true (quiescent > 0)
  | E.Violation _ as r -> fail (Format.asprintf "%s: %a" label M.pp_result r)
  | E.Bound_exceeded _ -> fail (label ^ ": bound exceeded")

let expect_violation ?(bounds = M.default_bounds) ~mutation ~property label =
  match M.check ~mutation ~bounds () with
  | E.Violation { property = p; trace; _ } ->
    check Alcotest.bool
      (Printf.sprintf "%s: property %S mentions %S" label p property)
      true
      (let contains hay needle =
         let nl = String.length needle and hl = String.length hay in
         let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
         go 0
       in
       contains p property);
    check Alcotest.bool (label ^ ": counterexample is non-trivial") true
      (List.length trace >= 4);
    (* Every counterexample must involve an actual protocol change:
       without one, Algorithm 1 degenerates to plain ABcast, which all
       mutations leave untouched. *)
    check Alcotest.bool (label ^ ": counterexample includes a change") true
      (List.exists (function M.Change _ -> true | _ -> false) trace)
  | E.Verified _ -> fail (label ^ ": expected a violation")
  | E.Bound_exceeded _ -> fail (label ^ ": bound exceeded")

let test_faithful_default () = expect_verified "default bounds"

let test_faithful_three_nodes () =
  expect_verified ~bounds:{ M.default_bounds with nodes = 3; sends = 1 } "three nodes"

(* The checker's headline finding: Algorithm 1 *as printed* breaks
   uniform agreement when two changeABcast requests overlap (the second
   change message travels through the old generation's stream). The
   symmetric generation check on line 10 repairs it. *)
let test_paper_overlapping_changes_flaw () =
  expect_violation
    ~bounds:{ M.default_bounds with sends = 1; changes = 2 }
    ~mutation:M.Faithful ~property:"agreement" "overlapping changes (as printed)"

let test_fixed_line10_repairs_it () =
  expect_verified
    ~bounds:{ M.default_bounds with sends = 1; changes = 2 }
    ~mutation:M.Fixed_line10 "overlapping changes (fixed)";
  (* The fix is also conservative: it changes nothing at one change. *)
  expect_verified ~mutation:M.Fixed_line10 "fixed at one change"

let test_faithful_with_crash () =
  expect_verified ~bounds:{ M.default_bounds with crashes = 1 } "one crash"

let test_faithful_three_sends () =
  (* sends is the expensive dimension (hundreds of thousands of states
     at 3); keep the suite fast by trading a send for a crash. *)
  expect_verified
    ~bounds:{ M.default_bounds with sends = 3; changes = 0 }
    "three sends, no change"

let test_no_sn_check_breaks_integrity () =
  expect_violation ~mutation:M.No_sn_check ~property:"integrity" "line 18"

let test_no_reissue_breaks_validity () =
  expect_violation ~mutation:M.No_reissue ~property:"validity" "lines 15-16"

let test_no_removal_breaks_integrity () =
  expect_violation ~mutation:M.No_undelivered_removal ~property:"integrity" "lines 19-20"

(* A stack that stops consuming a generation's stream once it and
   every other live stack have left it is owed nothing more from it:
   every property holds, with a crash and with overlapping changes too.
   Retiring before the stack itself has left the generation strands it
   there. *)
let test_retiring_verifies () =
  expect_verified ~mutation:M.Retiring "retiring";
  expect_verified ~mutation:M.Retiring ~bounds:{ M.default_bounds with crashes = 1 }
    "retiring with a crash";
  expect_verified ~mutation:M.Retiring
    ~bounds:{ M.default_bounds with sends = 1; changes = 2 }
    "retiring with overlapping changes"

let test_early_retire_refuted () =
  expect_violation ~mutation:M.Early_retire ~property:"validity" "early retire"

let test_mutations_harmless_without_change () =
  (* With a change budget of zero, Algorithm 1 is plain ABcast and all
     three mutations are dead code: everything verifies. *)
  let bounds = { M.default_bounds with changes = 0 } in
  List.iter
    (fun mutation ->
      expect_verified ~bounds ~mutation (M.mutation_name mutation ^ " without change"))
    [ M.No_sn_check; M.No_reissue; M.No_undelivered_removal ]

let test_bound_exceeded_reported () =
  match M.check ~bounds:{ M.default_bounds with max_states = 50 } () with
  | E.Bound_exceeded { states } -> check Alcotest.bool "cut off" true (states >= 50)
  | E.Verified _ | E.Violation _ -> fail "expected bound exceeded"

let test_counterexample_renders () =
  match M.check ~mutation:M.No_sn_check () with
  | E.Violation _ as r ->
    let s = Format.asprintf "%a" M.pp_result r in
    check Alcotest.bool "mentions changeABcast" true
      (let contains hay needle =
         let nl = String.length needle and hl = String.length hay in
         let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
         go 0
       in
       contains s "changeABcast" && contains s "Adelivers")
  | E.Verified _ | E.Bound_exceeded _ -> fail "expected violation"

(* ------------------------------------------------------------------ *)
(* The consensus replacement layer's switch threading                 *)
(* ------------------------------------------------------------------ *)

let cs_verified ?(bounds = C.default_bounds) ?variant label =
  match C.check ?variant ~bounds () with
  | E.Verified { states; quiescent } ->
    check Alcotest.bool (label ^ ": explored") true (states > 50);
    check Alcotest.bool (label ^ ": quiescent reached") true (quiescent > 0)
  | E.Violation _ as r -> fail (Format.asprintf "%s: %a" label C.pp_result r)
  | E.Bound_exceeded _ -> fail (label ^ ": bound exceeded")

let test_consswap_sound () =
  cs_verified "default";
  cs_verified ~bounds:{ C.default_bounds with instances = 3 } "three instances";
  cs_verified ~bounds:{ C.default_bounds with nodes = 3 } "three nodes"

let test_consswap_prefix_defer_essential () =
  match C.check ~variant:C.No_prefix_defer () with
  | E.Violation { property; trace; _ } ->
    check Alcotest.bool "disagreement found" true
      (String.length property > 0 && String.sub property 0 8 = "decision");
    check Alcotest.bool "non-trivial trace" true (List.length trace >= 8)
  | E.Verified _ -> fail "expected the defer rule to be essential"
  | E.Bound_exceeded _ -> fail "bound exceeded"

let test_consswap_defense_in_depth () =
  (* Under the sequential-client contract these two guards are
     redundant — the model proves the contract already excludes the
     scenarios they'd catch. They remain in the implementation as
     defense-in-depth against non-conforming clients. *)
  cs_verified ~variant:C.No_stale_discard "stale-discard redundant";
  cs_verified ~variant:C.No_reissue "re-issue redundant"

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "model"
    [
      ( "faithful (exhaustive)",
        [
          tc "default bounds" test_faithful_default;
          tc "three nodes" test_faithful_three_nodes;
          tc "with a crash" test_faithful_with_crash;
          tc "three sends" test_faithful_three_sends;
        ] );
      ( "the finding: overlapping changes",
        [
          tc "paper variant violates agreement" test_paper_overlapping_changes_flaw;
          tc "line-10 check repairs it" test_fixed_line10_repairs_it;
        ] );
      ( "mutations (counterexamples)",
        [
          tc "no line 18 -> integrity" test_no_sn_check_breaks_integrity;
          tc "no lines 15-16 -> validity" test_no_reissue_breaks_validity;
          tc "no lines 19-20 -> integrity" test_no_removal_breaks_integrity;
          tc "harmless without a change" test_mutations_harmless_without_change;
        ] );
      ( "retirement",
        [
          tc "retiring a left generation verifies" test_retiring_verifies;
          tc "retiring too early -> validity" test_early_retire_refuted;
        ] );
      ( "consensus replacement layer",
        [
          tc "sound design verifies" test_consswap_sound;
          tc "prefix-defer is essential" test_consswap_prefix_defer_essential;
          tc "other guards are defense-in-depth" test_consswap_defense_in_depth;
        ] );
      ( "machinery",
        [
          tc "bound exceeded" test_bound_exceeded_reported;
          tc "counterexample rendering" test_counterexample_renders;
        ] );
    ]
