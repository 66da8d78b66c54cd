(* The multi-group fabric: N independent ABcast groups over ONE
   simulator — per-group registries, per-group generations, concurrent
   non-serialising replacements, and the sharded app tier on top. *)

module Sim = Dpu_engine.Sim
module Rng = Dpu_engine.Rng
module Fabric = Dpu_core.Fabric
module MW = Dpu_core.Middleware
module Variants = Dpu_core.Variants
module Collector = Dpu_core.Collector
module Kv = Dpu_apps.Replicated_kv
module Sharded_kv = Dpu_apps.Sharded_kv
module Hash_ring = Dpu_apps.Hash_ring

let check = Alcotest.check

let test_create_sizes () =
  let fabric = Fabric.create ~shards:4 ~n:7 () in
  check Alcotest.int "shards" 4 (Fabric.shards fabric);
  check Alcotest.int "total nodes" 7 (Fabric.total_nodes fabric);
  let sizes = List.init 4 (fun g -> Fabric.group_size fabric g) in
  check (Alcotest.list Alcotest.int) "round-robin sizes" [ 2; 2; 2; 1 ] sizes;
  let firsts = List.init 4 (fun g -> Fabric.first_node fabric g) in
  check (Alcotest.list Alcotest.int) "global first nodes" [ 0; 2; 4; 6 ] firsts

let test_groups_deliver_independently () =
  let fabric = Fabric.create ~shards:3 ~n:6 () in
  let got = Array.make 3 [] in
  Fabric.iter_groups fabric (fun g mw ->
      MW.subscribe mw ~node:0 (fun m -> got.(g) <- m.Dpu_kernel.Msg.body :: got.(g)));
  Fabric.iter_groups fabric (fun g mw ->
      ignore (MW.broadcast mw ~node:1 (Printf.sprintf "from-shard-%d" g) : Dpu_kernel.Msg.t));
  Fabric.run_until_quiescent ~limit:10_000.0 fabric;
  for g = 0 to 2 do
    check (Alcotest.list Alcotest.string)
      (Printf.sprintf "shard %d sees only its own message" g)
      [ Printf.sprintf "from-shard-%d" g ]
      got.(g)
  done

let test_per_group_generations () =
  (* A switch on shard 1 bumps shard 1's generation only. *)
  let fabric = Fabric.create ~shards:3 ~n:9 () in
  Fabric.iter_groups fabric (fun _ mw ->
      for node = 0 to MW.n mw - 1 do
        ignore (MW.broadcast mw ~node "warm" : Dpu_kernel.Msg.t)
      done);
  Fabric.run_for fabric 50.0;
  Fabric.change_protocol fabric ~shard:1 Variants.sequencer;
  Fabric.run_until_quiescent ~limit:30_000.0 fabric;
  check Alcotest.int "shard 0 stays at gen 0" 0 (Fabric.generation fabric ~shard:0);
  check Alcotest.int "shard 1 completed gen 1" 1 (Fabric.generation fabric ~shard:1);
  check Alcotest.int "shard 2 stays at gen 0" 0 (Fabric.generation fabric ~shard:2);
  check Alcotest.bool "shard 1 window recorded" true
    (Option.is_some (Fabric.switch_window fabric ~shard:1 ~generation:1));
  check Alcotest.bool "shard 0 has no window" true
    (Option.is_none (Fabric.switch_window fabric ~shard:0 ~generation:1))

let test_concurrent_switches_overlap () =
  (* Trigger the replacement on every shard at the same instant under
     load: Algorithm 1 must run concurrently — the windows overlap —
     and every shard's property battery must hold. *)
  let shards = 4 in
  let fabric = Fabric.create ~shards ~n:12 () in
  Fabric.iter_groups fabric (fun _ mw ->
      for node = 0 to MW.n mw - 1 do
        for _ = 1 to 3 do
          ignore (MW.broadcast mw ~node "load" : Dpu_kernel.Msg.t)
        done
      done);
  Fabric.run_for fabric 5.0;
  Fabric.iter_groups fabric (fun g _ ->
      Fabric.change_protocol fabric ~shard:g Variants.sequencer);
  Fabric.iter_groups fabric (fun _ mw ->
      for node = 0 to MW.n mw - 1 do
        ignore (MW.broadcast mw ~node "during" : Dpu_kernel.Msg.t)
      done);
  Fabric.run_until_quiescent ~limit:60_000.0 fabric;
  Fabric.iter_groups fabric (fun g _ ->
      check Alcotest.int
        (Printf.sprintf "shard %d switched" g)
        1
        (Fabric.generation fabric ~shard:g));
  let overlap = Fabric.max_concurrent_switches fabric ~generation:1 in
  check Alcotest.bool
    (Printf.sprintf "switch windows overlap (max in flight = %d)" overlap)
    true (overlap > 1);
  Fabric.iter_groups fabric (fun g mw ->
      let correct = List.init (MW.n mw) Fun.id in
      let reports = Dpu_props.Abcast_props.check_all (MW.collector mw) ~correct in
      check Alcotest.bool
        (Printf.sprintf "shard %d properties" g)
        true
        (Dpu_props.Report.all_ok reports))

let test_shard_stream_independent_of_shard_count () =
  (* Shard 1's whole virtual-time behaviour (delivery latencies) is the
     same whether the fabric has 2 or 4 shards: keyed randomness plus
     per-group ready queues isolate it from fabric size. *)
  let run ~shards =
    let fabric = Fabric.create ~shards ~n:(3 * shards) () in
    let mw = Fabric.group fabric 1 in
    let deliveries = ref [] in
    MW.subscribe mw ~node:0 (fun m ->
        deliveries := (m.Dpu_kernel.Msg.body, Fabric.now fabric) :: !deliveries);
    for node = 0 to MW.n mw - 1 do
      for i = 1 to 5 do
        ignore (MW.broadcast mw ~node (Printf.sprintf "m-%d-%d" node i) : Dpu_kernel.Msg.t)
      done
    done;
    Fabric.run_until_quiescent ~limit:10_000.0 fabric;
    List.rev !deliveries
  in
  let two = run ~shards:2 and four = run ~shards:4 in
  check Alcotest.int "same delivery count" (List.length two) (List.length four);
  List.iter2
    (fun (b2, t2) (b4, t4) ->
      check Alcotest.string "same order" b2 b4;
      check (Alcotest.float 1e-9) "same virtual times" t2 t4)
    two four

let test_single_shard_fabric_behaves () =
  (* One shard is today's system: same stack, same properties, all
     messages delivered everywhere. *)
  let fabric = Fabric.create ~shards:1 ~n:5 () in
  let mw = Fabric.group fabric 0 in
  let seen = ref 0 in
  MW.subscribe mw ~node:4 (fun _ -> incr seen);
  for node = 0 to 4 do
    ignore (MW.broadcast mw ~node "x" : Dpu_kernel.Msg.t)
  done;
  Fabric.change_protocol fabric ~shard:0 Variants.sequencer;
  for node = 0 to 4 do
    ignore (MW.broadcast mw ~node "y" : Dpu_kernel.Msg.t)
  done;
  Fabric.run_until_quiescent ~limit:30_000.0 fabric;
  check Alcotest.int "all delivered at node 4" 10 !seen;
  check Alcotest.int "gen" 1 (Fabric.generation fabric ~shard:0);
  let reports =
    Dpu_props.Abcast_props.check_all (MW.collector mw) ~correct:[ 0; 1; 2; 3; 4 ]
  in
  check Alcotest.bool "properties" true (Dpu_props.Report.all_ok reports)

(* ------------------------------------------------------------------ *)
(* Sharded app tier                                                   *)
(* ------------------------------------------------------------------ *)

let test_sharded_kv_routing_and_convergence () =
  let fabric = Fabric.create ~shards:4 ~n:8 () in
  let kv = Sharded_kv.create fabric in
  let keys = List.init 40 (Printf.sprintf "key-%d") in
  List.iteri (fun i k -> Sharded_kv.put kv k (string_of_int i)) keys;
  List.iter (fun k -> Sharded_kv.incr kv (k ^ ":hits")) keys;
  Fabric.run_until_quiescent ~limit:30_000.0 fabric;
  check Alcotest.bool "every shard converged" true (Sharded_kv.converged kv);
  List.iteri
    (fun i k ->
      check (Alcotest.option Alcotest.string) k (Some (string_of_int i))
        (Sharded_kv.get kv k);
      check Alcotest.int (k ^ ":hits") 1 (Sharded_kv.get_int kv (k ^ ":hits")))
    keys;
  (* Routing is the ring's: reads and writes agreed on the shard. *)
  List.iter
    (fun k ->
      let g = Sharded_kv.shard_of kv k in
      check Alcotest.bool (k ^ " lives on its shard") true
        (Option.is_some (Kv.get (Sharded_kv.replica kv ~shard:g ~node:0) k)))
    keys

let test_sharded_kv_survives_rolling_replacement () =
  let fabric = Fabric.create ~shards:3 ~n:9 () in
  let kv = Sharded_kv.create fabric in
  let keys = List.init 30 (Printf.sprintf "k%d") in
  List.iter (fun k -> Sharded_kv.put kv k "before") keys;
  (* Drain: total order does not promise real-time order across
     senders, so an "after" put racing a still-unordered "before" put
     could legitimately be ordered first. *)
  Fabric.run_until_quiescent ~limit:30_000.0 fabric;
  Fabric.iter_groups fabric (fun g _ ->
      Fabric.change_protocol fabric ~shard:g Variants.sequencer);
  List.iter (fun k -> Sharded_kv.put kv k "after") keys;
  Fabric.run_until_quiescent ~limit:60_000.0 fabric;
  check Alcotest.bool "converged across the swap" true (Sharded_kv.converged kv);
  List.iter
    (fun k ->
      check (Alcotest.option Alcotest.string) k (Some "after") (Sharded_kv.get kv k))
    keys

let test_attach_late_races_change_protocol () =
  (* The PR-10 satellite: a state transfer pinned across a concurrent
     switch window on the same group. Node 2 of shard 1 attaches late
     while shard 1 is mid-replacement; the sync request and snapshot
     ride the ordered channel across the generation boundary, so the
     joiner converges on the same digest — and the other shards never
     notice. *)
  let fabric = Fabric.create ~shards:2 ~n:6 () in
  let mw = Fabric.group fabric 1 in
  let kv01 = [| Kv.attach mw ~node:0; Kv.attach mw ~node:1 |] in
  let other = Kv.attach (Fabric.group fabric 0) ~node:0 in
  for i = 1 to 10 do
    Kv.put kv01.(i mod 2) (Printf.sprintf "pre-%d" i) "v"
  done;
  Kv.put other "other-shard" "steady";
  Fabric.run_for fabric 30.0;
  (* Trigger the switch, then attach the latecomer inside the window. *)
  Fabric.change_protocol fabric ~shard:1 Variants.sequencer;
  let late = Kv.attach_late mw ~node:2 ~from:0 in
  for i = 1 to 10 do
    Kv.put kv01.(i mod 2) (Printf.sprintf "mid-%d" i) "v"
  done;
  Fabric.run_until_quiescent ~limit:60_000.0 fabric;
  check Alcotest.bool "late replica synced" true (Kv.synced late);
  check Alcotest.int "switch completed" 1 (Fabric.generation fabric ~shard:1);
  check Alcotest.string "digest matches node 0" (Kv.digest kv01.(0)) (Kv.digest late);
  check Alcotest.string "digest matches node 1" (Kv.digest kv01.(1)) (Kv.digest late);
  check Alcotest.int "caught the whole history" 20 (Kv.applied late);
  check (Alcotest.option Alcotest.string) "other shard untouched" (Some "steady")
    (Kv.get other "other-shard");
  check Alcotest.int "other shard gen 0" 0 (Fabric.generation fabric ~shard:0)

(* ------------------------------------------------------------------ *)
(* Hash ring                                                          *)
(* ------------------------------------------------------------------ *)

let test_ring_deterministic_and_total () =
  let ring = Hash_ring.create ~shards:8 () in
  let again = Hash_ring.create ~shards:8 () in
  for i = 0 to 199 do
    let k = Printf.sprintf "key-%d" i in
    let s = Hash_ring.shard_of ring k in
    check Alcotest.bool "in range" true (s >= 0 && s < 8);
    check Alcotest.int "deterministic" s (Hash_ring.shard_of again k)
  done

let test_ring_spread () =
  let ring = Hash_ring.create ~shards:4 ~vnodes:128 () in
  let keys = List.init 4000 (Printf.sprintf "user:%d") in
  let counts = Hash_ring.spread ring ~keys in
  Array.iteri
    (fun s c ->
      check Alcotest.bool
        (Printf.sprintf "shard %d holds a sane share (%d)" s c)
        true
        (c > 400 && c < 2200))
    counts

let test_ring_stability_under_growth () =
  (* Growing 4 -> 5 shards must move roughly 1/5 of the keys and leave
     the rest exactly where they were. *)
  let before = Hash_ring.create ~shards:4 () in
  let after = Hash_ring.create ~shards:5 () in
  let keys = List.init 2000 (Printf.sprintf "item-%d") in
  let moved =
    List.fold_left
      (fun acc k ->
        let b = Hash_ring.shard_of before k and a = Hash_ring.shard_of after k in
        if a = b then acc
        else begin
          check Alcotest.int (k ^ " only moves to the new shard") 4 a;
          acc + 1
        end)
      0 keys
  in
  check Alcotest.bool
    (Printf.sprintf "moved fraction sane (%d/2000)" moved)
    true
    (moved > 200 && moved < 700)

let () =
  Alcotest.run "fabric"
    [
      ( "fabric",
        [
          Alcotest.test_case "sizes and node mapping" `Quick test_create_sizes;
          Alcotest.test_case "groups deliver independently" `Quick
            test_groups_deliver_independently;
          Alcotest.test_case "per-group generations" `Quick test_per_group_generations;
          Alcotest.test_case "concurrent switches overlap" `Quick
            test_concurrent_switches_overlap;
          Alcotest.test_case "shard stream independent of shard count" `Quick
            test_shard_stream_independent_of_shard_count;
          Alcotest.test_case "single-shard fabric behaves" `Quick
            test_single_shard_fabric_behaves;
        ] );
      ( "sharded-apps",
        [
          Alcotest.test_case "kv routing and convergence" `Quick
            test_sharded_kv_routing_and_convergence;
          Alcotest.test_case "kv survives rolling replacement" `Quick
            test_sharded_kv_survives_rolling_replacement;
          Alcotest.test_case "attach_late races change_protocol" `Quick
            test_attach_late_races_change_protocol;
        ] );
      ( "hash-ring",
        [
          Alcotest.test_case "deterministic and total" `Quick
            test_ring_deterministic_and_total;
          Alcotest.test_case "spread" `Quick test_ring_spread;
          Alcotest.test_case "stability under growth" `Quick
            test_ring_stability_under_growth;
        ] );
    ]
