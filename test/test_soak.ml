(* Chaos soak tests: long randomised runs combining load, message loss,
   duplication, a partition window, a minority crash and one or two
   dynamic protocol updates — with every correctness checker applied at
   the end. Each scenario is deterministic in its seed; a failure
   reproduces exactly. *)

open Dpu_kernel
module MW = Dpu_core.Middleware
module SB = Dpu_core.Stack_builder
module Rng = Dpu_engine.Rng
module Sim = Dpu_engine.Sim
module Clock = Dpu_runtime.Clock

let check = Alcotest.check

type plan = {
  seed : int;
  n : int;
  loss : float;
  dup : float;
  duration_ms : float;
  rate : float;
  switches : (float * string) list;  (* abcast switches *)
  consensus_swap : float option;
  partition : (float * float) option;  (* [start, heal) isolating node n-1 *)
  crash : (float * int) option;
}

let random_plan seed =
  let rng = Rng.create ~seed:(seed * 7919) in
  let n = 4 + Rng.int rng 3 in
  let duration_ms = 4_000.0 in
  let variants = Dpu_core.Variants.all in
  let pick_variant () = List.nth variants (Rng.int rng 3) in
  let switches =
    let first = (800.0 +. Rng.float rng *. 1_500.0, pick_variant ()) in
    if Rng.bool rng ~p:0.5 then
      [ first; (2_600.0 +. Rng.float rng *. 800.0, pick_variant ()) ]
    else [ first ]
  in
  let partition =
    if Rng.bool rng ~p:0.5 then begin
      let start = 500.0 +. Rng.float rng *. 1_000.0 in
      Some (start, start +. 400.0 +. Rng.float rng *. 400.0)
    end
    else None
  in
  let crash =
    if Rng.bool rng ~p:0.6 then
      (* Crash a node that is not node 0 (keeps the token/sequencer
         bootstrap simple) and not the partitioned node. *)
      Some (1_500.0 +. Rng.float rng *. 1_500.0, 1 + Rng.int rng (n - 2))
    else None
  in
  {
    seed;
    n;
    loss = Rng.float rng *. 0.08;
    dup = Rng.float rng *. 0.04;
    duration_ms;
    rate = 15.0 +. Rng.float rng *. 25.0;
    switches;
    consensus_swap = (if Rng.bool rng ~p:0.4 then Some (1_200.0 +. Rng.float rng *. 800.0) else None);
    partition;
    crash;
  }

let run_plan plan =
  let profile =
    {
      SB.default_profile with
      consensus_layer =
        (if plan.consensus_swap <> None then Some Dpu_protocols.Consensus_ct.protocol_name
         else None);
    }
  in
  let config = { MW.default_config with profile; msg_size = 1024; trace_enabled = true } in
  (* Middleware.config has no duplication field: the network built
     here carries the plan's loss and duplication. *)
  let mw =
    MW.of_system ~config
      (System.create ~seed:plan.seed ~loss:plan.loss ~dup:plan.dup ~n:plan.n ())
  in
  let clock = System.clock (MW.system mw) in
  let net = System.net (MW.system mw) in
  Dpu_workload.Load_gen.start mw ~rate_per_s:plan.rate ~until:plan.duration_ms ();
  List.iter
    (fun (t, variant) ->
      ignore
        (Clock.defer clock ~delay:t (fun () -> MW.change_protocol mw ~node:0 variant)))
    plan.switches;
  (match plan.consensus_swap with
  | Some t ->
    ignore
      (Clock.defer clock ~delay:t (fun () ->
           MW.change_consensus mw ~node:1 Dpu_protocols.Consensus_paxos.protocol_name))
  | None -> ());
  (match plan.partition with
  | Some (start, heal) ->
    let isolated = plan.n - 1 in
    ignore
      (Clock.defer clock ~delay:start (fun () ->
           Dpu_net.Datagram.partition net
             [ List.init (plan.n - 1) (fun i -> i); [ isolated ] ]));
    ignore (Clock.defer clock ~delay:heal (fun () -> Dpu_net.Datagram.heal net))
  | None -> ());
  (match plan.crash with
  | Some (t, node) ->
    ignore (Clock.defer clock ~delay:t (fun () -> MW.crash mw node))
  | None -> ());
  MW.run_until_quiescent ~limit:(plan.duration_ms +. 120_000.0) mw;
  mw

let describe plan =
  Printf.sprintf
    "seed=%d n=%d loss=%.2f dup=%.2f rate=%.0f switches=[%s] consensus=%s partition=%s crash=%s"
    plan.seed plan.n plan.loss plan.dup plan.rate
    (String.concat ";"
       (List.map (fun (t, v) -> Printf.sprintf "%.0f->%s" t v) plan.switches))
    (match plan.consensus_swap with Some t -> Printf.sprintf "%.0f" t | None -> "no")
    (match plan.partition with
    | Some (a, b) -> Printf.sprintf "%.0f-%.0f" a b
    | None -> "no")
    (match plan.crash with Some (t, node) -> Printf.sprintf "%.0f:%d" t node | None -> "no")

let soak seed () =
  let plan = random_plan seed in
  let mw = run_plan plan in
  let correct = System.correct_nodes (MW.system mw) in
  let reports =
    Dpu_props.Abcast_props.check_all (MW.collector mw) ~correct
    @ Dpu_props.Stack_props.check_generic
        (System.trace (MW.system mw))
        ~protocols:("repl.abcast" :: Dpu_core.Variants.all)
        ~nodes:(List.init (MW.n mw) (fun i -> i))
  in
  List.iter
    (fun r ->
      check Alcotest.bool
        (Printf.sprintf "%s | %s" (describe plan) r.Dpu_props.Report.property)
        true r.Dpu_props.Report.ok)
    reports;
  (* Sanity: traffic actually flowed. *)
  check Alcotest.bool "messages were sent" true
    (Dpu_core.Collector.send_count (MW.collector mw) > 20)

let () =
  let tc seed = Alcotest.test_case (Printf.sprintf "chaos seed %d" seed) `Slow (soak seed) in
  Alcotest.run "soak" [ ("chaos", List.map tc [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ]) ]
