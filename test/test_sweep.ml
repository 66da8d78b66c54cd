(* Tests for the multi-process sweep runner: canonical-order merging,
   bit-identical results regardless of worker count, and worker-crash
   surfacing. *)

module Sweep = Dpu_runtime.Sweep
module F = Dpu_workload.Figures
module Json = Dpu_obs.Json

let check = Alcotest.check
let fail = Alcotest.fail

(* ------------------------------------------------------------------ *)
(* Core runner                                                        *)
(* ------------------------------------------------------------------ *)

let results ~jobs ~cells f = (Sweep.run ~jobs ~cells f).Sweep.results

let test_map_order () =
  let expected = Array.init 17 (fun i -> i * i) in
  check (Alcotest.array Alcotest.int) "sequential" expected
    (results ~jobs:1 ~cells:17 (fun i -> i * i));
  check (Alcotest.array Alcotest.int) "forked" expected
    (results ~jobs:4 ~cells:17 (fun i -> i * i))

let test_jobs_clamped () =
  (* More workers than cells must not fork idle workers or lose cells. *)
  let o = Sweep.run ~jobs:16 ~cells:3 Fun.id in
  check (Alcotest.array Alcotest.int) "results" [| 0; 1; 2 |] o.Sweep.results;
  check Alcotest.bool "jobs clamped" true (o.Sweep.stats.Sweep.jobs <= 3)

let test_default_jobs_env () =
  (* The DPU_JOBS env default feeds the same clamp as an explicit -j:
     asking for 32 workers over 2 cells must still fork at most 2. *)
  let restore = Sys.getenv_opt "DPU_JOBS" in
  Unix.putenv "DPU_JOBS" "32";
  let parsed = Sweep.default_jobs () in
  let o = Sweep.run ~jobs:parsed ~cells:2 (fun i -> i * 10) in
  Unix.putenv "DPU_JOBS" (Option.value restore ~default:"");
  check Alcotest.int "env parsed" 32 parsed;
  check (Alcotest.array Alcotest.int) "results" [| 0; 10 |] o.Sweep.results;
  check Alcotest.bool "env-sized pool clamped to cells" true
    (o.Sweep.stats.Sweep.jobs <= 2);
  Unix.putenv "DPU_JOBS" "not-a-number";
  check Alcotest.int "garbage falls back to 1" 1 (Sweep.default_jobs ());
  Unix.putenv "DPU_JOBS" (Option.value restore ~default:"")

let test_empty_and_single () =
  check Alcotest.int "zero cells" 0 (Array.length (results ~jobs:4 ~cells:0 Fun.id));
  check (Alcotest.array Alcotest.int) "one cell" [| 42 |]
    (results ~jobs:4 ~cells:1 (fun _ -> 42))

let test_large_results_cross_pipe () =
  (* Each cell returns ~80 KB — more than a pipe buffer — so workers
     must block mid-stream and resume as the parent drains. *)
  let arrays = results ~jobs:3 ~cells:6 (fun i -> Array.make 10_000 (float_of_int i)) in
  check Alcotest.int "all cells" 6 (Array.length arrays);
  Array.iteri
    (fun i arr ->
      check Alcotest.int "payload size" 10_000 (Array.length arr);
      check (Alcotest.float 0.0) "payload content" (float_of_int i) arr.(0))
    arrays

let test_worker_killed_surfaces_error () =
  match
    results ~jobs:2 ~cells:4 (fun i ->
        if i = 1 then Unix.kill (Unix.getpid ()) Sys.sigkill;
        i)
  with
  | _ -> fail "expected Worker_failed"
  | exception Sweep.Worker_failed { worker; reason } ->
    check Alcotest.int "worker index" 1 worker;
    check Alcotest.bool (Printf.sprintf "reason mentions the signal: %s" reason) true
      (String.length reason > 0)

let test_worker_exception_surfaces_error () =
  match results ~jobs:2 ~cells:4 (fun i -> if i = 2 then failwith "boom"; i) with
  | _ -> fail "expected Worker_failed"
  | exception Sweep.Worker_failed { worker = _; reason } ->
    let contains_boom =
      let n = String.length reason in
      let rec go i = i + 4 <= n && (String.sub reason i 4 = "boom" || go (i + 1)) in
      go 0
    in
    check Alcotest.bool (Printf.sprintf "reason carries the exception: %s" reason)
      true contains_boom

let test_stats_accounting () =
  let o = Sweep.run ~jobs:2 ~cells:4 Fun.id in
  let st = o.Sweep.stats in
  check Alcotest.int "cells" 4 st.Sweep.cells;
  check Alcotest.int "jobs" 2 st.Sweep.jobs;
  check Alcotest.bool "wall measured" true (st.Sweep.wall_s >= 0.0);
  check Alcotest.bool "cell wall measured" true (st.Sweep.cells_wall_s >= 0.0)

(* ------------------------------------------------------------------ *)
(* Determinism: -j1 vs -j4 figures                                    *)
(* ------------------------------------------------------------------ *)

(* The bench's fig6 JSON section, reproduced here so the test pins the
   actual artifact bytes, not just the floats. *)
let fig6_section_json points =
  Json.Obj
    [
      ("seed", Json.Int 1);
      ( "points",
        Json.List
          (List.map
             (fun (p : F.fig6_point) ->
               Json.Obj
                 [
                   ("n", Json.Int p.F.n);
                   ("load_msg_per_s", Json.Float p.F.load);
                   ("no_layer_ms", Json.Float p.F.no_layer_ms);
                   ("with_layer_ms", Json.Float p.F.with_layer_ms);
                   ("during_ms", Json.Float p.F.during_ms);
                   ("work", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) p.F.work));
                 ])
             points) );
    ]

let test_fig6_bit_identical_across_jobs () =
  let ns = [ 3 ] and loads = [ 10.0; 20.0 ] in
  let p1, _ = F.figure6 ~ns ~loads ~seed:1 ~jobs:1 () in
  let p4, _ = F.figure6 ~ns ~loads ~seed:1 ~jobs:4 () in
  check Alcotest.int "same cell count" (List.length p1) (List.length p4);
  List.iter2
    (fun (a : F.fig6_point) (b : F.fig6_point) ->
      check Alcotest.int "n" a.F.n b.F.n;
      check (Alcotest.float 0.0) "load" a.F.load b.F.load;
      (* Exact float equality: the per-cell latency stats must be the
         same bits, not merely close. *)
      check (Alcotest.float 0.0) "no_layer_ms" a.F.no_layer_ms b.F.no_layer_ms;
      check (Alcotest.float 0.0) "with_layer_ms" a.F.with_layer_ms b.F.with_layer_ms;
      check (Alcotest.float 0.0) "during_ms" a.F.during_ms b.F.during_ms)
    p1 p4;
  check Alcotest.string "bench JSON section byte-identical"
    (Json.to_string (fig6_section_json p1))
    (Json.to_string (fig6_section_json p4));
  check Alcotest.string "rendered figure byte-identical" (F.render_figure6 p1)
    (F.render_figure6 p4)

let test_headline_bit_identical_across_jobs () =
  let seeds = [ 1; 2; 3 ] in
  let h1, _ = F.headline ~n:3 ~load:20.0 ~seeds ~jobs:1 () in
  let h3, _ = F.headline ~n:3 ~load:20.0 ~seeds ~jobs:3 () in
  check (Alcotest.float 0.0) "overhead" h1.F.layer_overhead_pct h3.F.layer_overhead_pct;
  check (Alcotest.float 0.0) "spike" h1.F.spike_pct h3.F.spike_pct;
  check (Alcotest.float 0.0) "duration" h1.F.spike_duration_ms h3.F.spike_duration_ms;
  check (Alcotest.float 0.0) "blocked" h1.F.app_blocked_ms h3.F.app_blocked_ms;
  check Alcotest.string "rendered headline byte-identical" (F.render_headline h1)
    (F.render_headline h3)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "sweep"
    [
      ( "runner",
        [
          tc "map order" test_map_order;
          tc "jobs clamped" test_jobs_clamped;
          tc "DPU_JOBS env clamped" test_default_jobs_env;
          tc "empty and single" test_empty_and_single;
          tc "large results cross pipe" test_large_results_cross_pipe;
          tc "worker killed" test_worker_killed_surfaces_error;
          tc "worker exception" test_worker_exception_surfaces_error;
          tc "stats accounting" test_stats_accounting;
        ] );
      ( "determinism",
        [
          tc "fig6 bit-identical across jobs" test_fig6_bit_identical_across_jobs;
          tc "headline bit-identical across jobs" test_headline_bit_identical_across_jobs;
        ] );
    ]
