(* Adversarial run: message loss, a partition and a crash around a
   dynamic protocol update, declared as a Dpu_faults schedule.

   Run with:  dune exec examples/failure_injection.exe

   A 5-node cluster runs under load on a lossy LAN (2% datagram loss).
   The fault schedule partitions one node away, a protocol replacement
   triggers while the partition is up, the partition heals, a loss
   window spikes drop rates, and finally one node crashes for good.
   At the end every atomic broadcast property and the paper's generic
   DPU properties (§3) are checked mechanically over the full trace. *)

module MW = Dpu_core.Middleware
module Clock = Dpu_runtime.Clock
module Datagram = Dpu_net.Datagram
module Schedule = Dpu_faults.Schedule

let () =
  (* The whole adverse scenario, declaratively: the cluster's fault
     shim interprets it from virtual time 0. *)
  let schedule =
    [
      Schedule.partition ~at:1_500.0 [ [ 0; 1; 2; 3 ]; [ 4 ] ];
      Schedule.heal ~at:3_000.0;
      Schedule.loss_window ~p:0.25 ~from_:3_200.0 ~until:3_800.0;
      Schedule.crash ~at:4_500.0 2;
    ]
  in
  (match Schedule.validate ~n:5 schedule with
  | Ok () -> ()
  | Error msg -> failwith msg);
  Format.printf "schedule: %a@." Schedule.pp schedule;
  let config =
    { MW.default_config with loss = 0.02; seed = 42; faults = schedule; trace_enabled = true }
  in
  let mw = MW.create ~config ~n:5 () in
  let clock = Dpu_kernel.System.clock (MW.system mw) in
  let net = Dpu_kernel.System.net (MW.system mw) in

  Dpu_workload.Load_gen.start mw ~rate_per_s:30.0 ~until:6_000.0 ();

  (* The replacement fires while the partition is up: node 4 must catch
     up and switch after the heal. *)
  ignore
    (Clock.defer clock ~delay:2_000.0 (fun () ->
         print_endline "[ 2000.0 ms] replacing the ABcast protocol during the partition";
         MW.change_protocol mw ~node:0 Dpu_core.Variants.ct));

  MW.run_until_quiescent ~limit:120_000.0 mw;

  (* The crashed node is silenced, not stopped: the schedule says who
     ends the run down. *)
  let down = Schedule.crashed_before schedule ~time:infinity in
  let correct =
    List.filter (fun node -> not (List.mem node down))
      (Dpu_kernel.System.correct_nodes (MW.system mw))
  in
  Printf.printf "\ncorrect nodes at the end: {%s}\n"
    (String.concat ", " (List.map string_of_int correct));
  List.iter
    (fun node ->
      Printf.printf "node %d generation: %d\n" node
        (Dpu_core.Repl.generation (Dpu_kernel.System.stack (MW.system mw) node)))
    correct;
  let c = Datagram.counters net in
  Printf.printf "net: %d sent, %d delivered, %d lost\n" c.Datagram.sent
    c.Datagram.delivered c.Datagram.lost;
  Format.printf "faults: %a@." Dpu_faults.Fault_transport.pp_stats (MW.fault_stats mw);

  let abcast_reports = Dpu_props.Abcast_props.check_all (MW.collector mw) ~correct in
  let generic_reports =
    Dpu_props.Stack_props.check_generic
      (Dpu_kernel.System.trace (MW.system mw))
      ~protocols:[ "abcast.ct"; "repl.abcast" ]
      ~nodes:correct
  in
  Format.printf "%a" Dpu_props.Report.pp_all (abcast_reports @ generic_reports);
  if Dpu_props.Report.all_ok (abcast_reports @ generic_reports) then
    print_endline "all properties held despite loss, partition and crash"
  else begin
    print_endline "PROPERTY VIOLATION";
    exit 1
  end
