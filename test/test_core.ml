(* Tests for the paper's contribution: the replacement module
   (Algorithm 1), the variant catalogue, the collector, the monitor,
   the stack builder and the middleware API. *)

open Dpu_kernel
module Core = Dpu_core
module P = Dpu_protocols
module MW = Dpu_core.Middleware
module SB = Dpu_core.Stack_builder
module Sim = Dpu_engine.Sim
module Clock = Dpu_runtime.Clock

let check = Alcotest.check
let fail = Alcotest.fail

let default_mw ?(config = MW.default_config) ?(n = 3) () = MW.create ~config ~n ()

(* For the cases that read the kernel trace, which is off by default. *)
let traced = { MW.default_config with trace_enabled = true }

let mw_with ?(n = 3) ?(seed = 1) ?(loss = 0.0) ?(initial = Core.Variants.ct)
    ?(layer = Some Core.Repl.protocol_name) ?(with_gm = false) () =
  let profile = { SB.default_profile with initial_abcast = initial; layer; with_gm } in
  let config = { MW.default_config with seed; loss; profile } in
  MW.create ~config ~n ()

(* Per-node delivery logs of application messages, as id strings. *)
let delivery_logs mw =
  let n = MW.n mw in
  let logs = Array.make n [] in
  for node = 0 to n - 1 do
    MW.subscribe mw ~node (fun m -> logs.(node) <- Msg.id_to_string m.Msg.id :: logs.(node))
  done;
  logs

let sequences logs = Array.to_list (Array.map List.rev logs)

let assert_consistent ?(skip = []) ~expect_count logs =
  let seqs = sequences logs in
  let live = List.filteri (fun i _ -> not (List.mem i skip)) seqs in
  match live with
  | [] -> fail "no live sequences"
  | first :: rest ->
    check Alcotest.int "delivery count" expect_count (List.length first);
    check Alcotest.int "no duplicates" expect_count
      (List.length (List.sort_uniq compare first));
    List.iter
      (fun seq -> check (Alcotest.list Alcotest.string) "total order" first seq)
      rest

(* ------------------------------------------------------------------ *)
(* Variants                                                           *)
(* ------------------------------------------------------------------ *)

let test_variants_catalogue () =
  check (Alcotest.list Alcotest.string) "names"
    [ "abcast.ct"; "abcast.seq"; "abcast.token" ]
    Core.Variants.all

let test_variants_registered () =
  let system = System.create ~n:2 () in
  Core.Variants.register_all system;
  let r = System.registry system in
  List.iter
    (fun name -> check Alcotest.bool name true (Registry.mem r ~name))
    (Core.Variants.all @ [ "udp"; "rp2p"; "fd"; "rbcast"; "consensus.ct" ])

(* ------------------------------------------------------------------ *)
(* Collector                                                          *)
(* ------------------------------------------------------------------ *)

let test_collector_latency_math () =
  let c = Core.Collector.create () in
  let id = { Msg.origin = 0; seq = 0 } in
  Core.Collector.record_send c ~node:0 ~id ~time:10.0;
  Core.Collector.record_deliver c ~node:0 ~id ~time:14.0;
  Core.Collector.record_deliver c ~node:1 ~id ~time:18.0;
  (match Core.Collector.latency_of c id with
  | Some l -> check (Alcotest.float 1e-9) "mean of per-stack latencies" 6.0 l
  | None -> fail "no latency");
  check Alcotest.int "send count" 1 (Core.Collector.send_count c);
  check (Alcotest.option (Alcotest.float 0.0)) "send time" (Some 10.0)
    (Core.Collector.send_time c id)

let test_collector_undelivered () =
  let c = Core.Collector.create () in
  let id0 = { Msg.origin = 0; seq = 0 } in
  let id1 = { Msg.origin = 0; seq = 1 } in
  Core.Collector.record_send c ~node:0 ~id:id0 ~time:0.0;
  Core.Collector.record_send c ~node:0 ~id:id1 ~time:1.0;
  Core.Collector.record_deliver c ~node:0 ~id:id0 ~time:2.0;
  Core.Collector.record_deliver c ~node:1 ~id:id0 ~time:2.0;
  Core.Collector.record_deliver c ~node:0 ~id:id1 ~time:3.0;
  let missing = Core.Collector.undelivered_ids c ~expected_copies:2 in
  check Alcotest.int "one incomplete" 1 (List.length missing);
  check Alcotest.bool "it is id1" true (Msg.id_equal (List.hd missing) id1)

let test_collector_switch_window () =
  let c = Core.Collector.create () in
  Core.Collector.record_switch c ~node:0 ~generation:1 ~time:100.0;
  Core.Collector.record_switch c ~node:1 ~generation:1 ~time:130.0;
  Core.Collector.record_switch c ~node:2 ~generation:1 ~time:110.0;
  (match Core.Collector.switch_window c ~generation:1 with
  | Some (lo, hi) ->
    check (Alcotest.float 0.0) "lo" 100.0 lo;
    check (Alcotest.float 0.0) "hi" 130.0 hi
  | None -> fail "no window");
  check Alcotest.bool "absent generation" true
    (Core.Collector.switch_window c ~generation:2 = None)

let test_collector_deliver_order () =
  let c = Core.Collector.create () in
  let id i = { Msg.origin = 0; seq = i } in
  Core.Collector.record_deliver c ~node:0 ~id:(id 1) ~time:1.0;
  Core.Collector.record_deliver c ~node:0 ~id:(id 2) ~time:2.0;
  let seq = List.map fst (Core.Collector.delivers_of c ~node:0) in
  check Alcotest.bool "in order" true (seq = [ id 1; id 2 ])

(* The Collector as it was first written, one list and one hashtable
   per kind of event, kept as the reference model its readers must
   agree with. *)
module Collector_model = struct
  type t = {
    mutable rev_sends : (Msg.id * int * float) list;
    send_times : (Msg.id, float) Hashtbl.t;
    delivers : (int, (Msg.id * float) list ref) Hashtbl.t;
    deliveries_by_id : (Msg.id, (int * float) list) Hashtbl.t;
    mutable rev_switches : (int * int * float) list;
  }

  let create () =
    {
      rev_sends = [];
      send_times = Hashtbl.create 16;
      delivers = Hashtbl.create 16;
      deliveries_by_id = Hashtbl.create 16;
      rev_switches = [];
    }

  let record_send t ~node ~id ~time =
    t.rev_sends <- (id, node, time) :: t.rev_sends;
    if not (Hashtbl.mem t.send_times id) then Hashtbl.replace t.send_times id time

  let record_deliver t ~node ~id ~time =
    let l =
      match Hashtbl.find_opt t.delivers node with
      | Some l -> l
      | None ->
        let l = ref [] in
        Hashtbl.replace t.delivers node l;
        l
    in
    l := (id, time) :: !l;
    let existing = Option.value ~default:[] (Hashtbl.find_opt t.deliveries_by_id id) in
    Hashtbl.replace t.deliveries_by_id id ((node, time) :: existing)

  let record_switch t ~node ~generation ~time =
    t.rev_switches <- (node, generation, time) :: t.rev_switches

  let sends t = List.rev t.rev_sends
  let send_count t = List.length t.rev_sends
  let send_time t id = Hashtbl.find_opt t.send_times id

  let delivers_of t ~node =
    match Hashtbl.find_opt t.delivers node with Some l -> List.rev !l | None -> []

  let delivered_nodes t =
    (* dpu-lint: allow hashtbl-iter — folded nodes are sorted before use *)
    Hashtbl.fold (fun node _ acc -> node :: acc) t.delivers [] |> List.sort Int.compare

  let deliver_times t id =
    match Hashtbl.find_opt t.deliveries_by_id id with Some l -> List.rev l | None -> []

  let latency_of t id =
    match (send_time t id, deliver_times t id) with
    | Some t0, (_ :: _ as ds) ->
      let sum = List.fold_left (fun acc (_, time) -> acc +. (time -. t0)) 0.0 ds in
      Some (sum /. float_of_int (List.length ds))
    | _, _ -> None

  let latency_series t =
    let s = Dpu_engine.Series.create () in
    List.iter
      (fun (id, _, t0) ->
        Option.iter (fun l -> Dpu_engine.Series.add s ~time:t0 ~value:l) (latency_of t id))
      (sends t);
    s

  let undelivered_ids t ~expected_copies =
    List.filter_map
      (fun (id, _, _) ->
        if List.length (deliver_times t id) < expected_copies then Some id else None)
      (sends t)

  let switches t = List.rev t.rev_switches

  let switch_window t ~generation =
    match List.filter_map (fun (_, g, time) -> if g = generation then Some time else None) (switches t) with
    | [] -> None
    | first :: rest -> Some (List.fold_left min first rest, List.fold_left max first rest)
end

type collector_op =
  | Send of int * int * float  (** node, id, time *)
  | Deliver of int * int * float
  | Switch of int * int * float  (** node, generation, time *)
  | Read

(* A fresh record for every use, so the Collector must match ids by
   value. Ids 8 and 9 are delivered but never sent; ids 10 to 12 sit at
   the packing bounds; ids 13 and 14 lie outside them and are only
   looked up. *)
let op_id k =
  let top = Msg.origin_limit - 1 and last = Msg.seq_limit - 1 in
  match k with
  | 10 -> { Msg.origin = top; seq = last }
  | 11 -> { Msg.origin = 0; seq = last }
  | 12 -> { Msg.origin = top; seq = 0 }
  | 13 -> { Msg.origin = Msg.origin_limit; seq = 0 }
  | 14 -> { Msg.origin = 0; seq = -1 }
  | k -> { Msg.origin = k mod 3; seq = k / 3 }

let top_node = Msg.origin_limit - 1

let op_node = function Send (n, _, _) | Deliver (n, _, _) | Switch (n, _, _) -> Some n | Read -> None

let apply_collector c = function
  | Send (node, k, time) -> Core.Collector.record_send c ~node ~id:(op_id k) ~time
  | Deliver (node, k, time) -> Core.Collector.record_deliver c ~node ~id:(op_id k) ~time
  | Switch (node, generation, time) -> Core.Collector.record_switch c ~node ~generation ~time
  | Read -> ()

let apply_model m = function
  | Send (node, k, time) -> Collector_model.record_send m ~node ~id:(op_id k) ~time
  | Deliver (node, k, time) -> Collector_model.record_deliver m ~node ~id:(op_id k) ~time
  | Switch (node, generation, time) -> Collector_model.record_switch m ~node ~generation ~time
  | Read -> ()

let apply_op (c, m) op =
  apply_collector c op;
  apply_model m op

(* Every reader of [c] equals the model's; latencies bit for bit. *)
let collector_agrees (c, m) =
  let module C = Core.Collector in
  let module M = Collector_model in
  let same what a b = if a <> b then QCheck.Test.fail_reportf "%s differs from the model" what in
  let bits = Option.map Int64.bits_of_float in
  same "sends" (C.sends c) (M.sends m);
  same "send_count" (C.send_count c) (M.send_count m);
  same "delivered_nodes" (C.delivered_nodes c) (M.delivered_nodes m);
  same "switches" (C.switches c) (M.switches m);
  List.iter
    (fun node ->
      same (Printf.sprintf "delivers_of %d" node) (C.delivers_of c ~node) (M.delivers_of m ~node))
    [ -1; 0; 1; 2; 3; 4; 5; top_node; top_node + 1 ];
  for k = 0 to 14 do
    let id = op_id k in
    same "send_time" (C.send_time c id) (M.send_time m id);
    same "deliver_times" (C.deliver_times c id) (M.deliver_times m id);
    same "latency_of" (bits (C.latency_of c id)) (bits (M.latency_of m id))
  done;
  let points series =
    List.map
      (fun (p : Dpu_engine.Series.point) -> (Int64.bits_of_float p.time, Int64.bits_of_float p.value))
      (Dpu_engine.Series.points series)
  in
  same "latency_series" (points (C.latency_series c)) (points (M.latency_series m));
  for expected_copies = 0 to 5 do
    same "undelivered_ids" (C.undelivered_ids c ~expected_copies) (M.undelivered_ids m ~expected_copies)
  done;
  for generation = 0 to 4 do
    same "switch_window" (C.switch_window c ~generation) (M.switch_window m ~generation)
  done;
  true

let nodes_of ops = List.sort_uniq Int.compare (List.filter_map op_node ops)

let of_node node ops = List.filter (fun op -> op_node op = Some node) ops

(* One Collector per node in [ops], in node order, each with the node's
   own rows, as a live node ships it. *)
let per_node ops =
  List.map
    (fun node ->
      let c = Core.Collector.create () in
      List.iter (apply_collector c) (of_node node ops);
      c)
    (nodes_of ops)

(* The live parent's merge before nodes shipped their Collector: each
   node's sends, deliveries and switches as lists, sends sorted stably
   by time across nodes, the rest appended in node order. *)
let merge_reference ops =
  let m = Collector_model.create () in
  List.concat_map
    (fun node ->
      List.filter_map
        (function Send (_, k, time) -> Some (op_id k, node, time) | _ -> None)
        (of_node node ops))
    (nodes_of ops)
  |> List.sort (fun (_, _, a) (_, _, b) -> Float.compare a b)
  |> List.iter (fun (id, node, time) -> Collector_model.record_send m ~node ~id ~time);
  List.iter
    (fun node ->
      let ops = of_node node ops in
      List.iter (function Deliver _ as op -> apply_model m op | _ -> ()) ops;
      List.iter (function Switch _ as op -> apply_model m op | _ -> ()) ops)
    (nodes_of ops);
  m

(* Runs [ops] on a fresh Collector and model, comparing them at every
   [Read] and at the end; then a Marshal round-trip of the Collector,
   as a live node's report crosses the sweep pipe, and the merge of
   per-node Collectors against the reference merge. *)
let run_collector_ops ops =
  let pair = (Core.Collector.create (), Collector_model.create ()) in
  List.for_all
    (fun op ->
      apply_op pair op;
      op <> Read || collector_agrees pair)
    ops
  && collector_agrees pair
  && collector_agrees
       ((Marshal.from_string (Marshal.to_string (fst pair) []) 0 : Core.Collector.t), snd pair)
  && collector_agrees (Core.Collector.merge (per_node ops), merge_reference ops)

let print_collector_op = function
  | Send (n, k, t) -> Printf.sprintf "send %d %d %h" n k t
  | Deliver (n, k, t) -> Printf.sprintf "deliver %d %d %h" n k t
  | Switch (n, g, t) -> Printf.sprintf "switch %d %d %h" n g t
  | Read -> "read"

let prop_collector_matches_model =
  let open QCheck.Gen in
  (* Coarse times make ties, which the merge must keep in node order. *)
  let time =
    frequency
      [
        (3, map (fun k -> float_of_int k /. 7.0) (int_range 0 7000));
        (1, map float_of_int (int_range 0 5));
      ]
  in
  let node hi = frequency [ (8, int_range 0 hi); (1, return top_node) ] in
  let id hi = frequency [ (6, int_range 0 hi); (1, int_range 10 12) ] in
  let op =
    frequency
      [
        (4, map3 (fun n k t -> Send (n, k, t)) (node 3) (id 7) time);
        (6, map3 (fun n k t -> Deliver (n, k, t)) (node 4) (id 9) time);
        (1, map3 (fun n g t -> Switch (n, g, t)) (node 3) (int_range 1 3) time);
        (2, return Read);
      ]
  in
  QCheck.Test.make ~name:"collector agrees with its reference model" ~count:300
    (QCheck.make ~print:(QCheck.Print.list print_collector_op) (list_size (int_range 0 60) op))
    run_collector_ops

let test_collector_model_edge_cases () =
  let cases =
    [
      ("empty", []);
      ("re-sent id", [ Send (0, 1, 1.0); Deliver (0, 1, 2.0); Send (1, 1, 3.0); Deliver (1, 1, 5.0) ]);
      ("duplicate delivery", [ Send (0, 2, 1.0); Deliver (2, 2, 2.0); Deliver (2, 2, 4.0) ]);
      ("never sent", [ Deliver (1, 9, 1.0); Send (0, 0, 2.0); Deliver (1, 8, 3.0) ]);
      ("nodes out of order", [ Send (0, 0, 0.5); Deliver (3, 0, 1.0); Deliver (0, 0, 1.5); Deliver (2, 0, 2.0) ]);
      ( "read, append, read",
        [
          Send (0, 0, 0.0); Deliver (1, 0, 0.3); Read; Send (1, 3, 0.7); Deliver (0, 3, 0.9); Deliver (1, 0, 1.1);
          Read; Switch (2, 1, 1.3); Deliver (0, 0, 1.7);
        ] );
    ]
  in
  List.iter (fun (name, ops) -> check Alcotest.bool name true (run_collector_ops ops)) cases

(* Rows are two words (a packed int key and an unboxed float), and no
   id record is kept; a column wastes at most one chunk (1024 rows). A
   Collector that keeps ids, boxes times or keeps an index during the
   run fails this. *)
let test_collector_size_gate () =
  let n = 10_000 in
  let c = Core.Collector.create () in
  let ids = Array.init n (fun i -> { Msg.origin = i mod 3; seq = i }) in
  Array.iteri
    (fun i id -> Core.Collector.record_send c ~node:(i mod 3) ~id ~time:(float_of_int i))
    ids;
  for node = 0 to 2 do
    Array.iteri
      (fun i id -> Core.Collector.record_deliver c ~node ~id ~time:(float_of_int i +. 0.5))
      ids
  done;
  let rows = 4 * n and columns = 4 in
  let bound = (2 * rows) + (columns * 1024) + 256 in
  let words = Obj.reachable_words (Obj.repr c) in
  check Alcotest.bool (Printf.sprintf "%d words <= %d" words bound) true (words <= bound)

(* ------------------------------------------------------------------ *)
(* Middleware basics                                                  *)
(* ------------------------------------------------------------------ *)

let test_middleware_broadcast_deliver () =
  let mw = default_mw () in
  let logs = delivery_logs mw in
  let m = MW.broadcast mw ~node:1 "hello" in
  check Alcotest.int "origin" 1 m.Msg.id.Msg.origin;
  MW.run_for mw 2_000.0;
  assert_consistent ~expect_count:1 logs

let test_middleware_ids_unique () =
  let mw = default_mw () in
  let a = MW.broadcast mw ~node:0 "a" in
  let b = MW.broadcast mw ~node:0 "b" in
  check Alcotest.bool "distinct" false (Msg.id_equal a.Msg.id b.Msg.id)

let test_middleware_msg_size () =
  let mw = default_mw () in
  let m = MW.broadcast mw ~node:0 ~size:128 "small" in
  check Alcotest.int "explicit size" 128 m.Msg.size;
  let m' = MW.broadcast mw ~node:0 "default" in
  check Alcotest.int "default size" 4096 m'.Msg.size

let test_middleware_no_layer_change_raises () =
  let mw = mw_with ~layer:None () in
  try
    MW.change_protocol mw ~node:0 Core.Variants.sequencer;
    fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_middleware_no_layer_still_broadcasts () =
  let mw = mw_with ~layer:None () in
  let logs = delivery_logs mw in
  for i = 0 to 5 do
    ignore (MW.broadcast mw ~node:(i mod 3) "x")
  done;
  MW.run_for mw 3_000.0;
  assert_consistent ~expect_count:6 logs

let test_middleware_crash () =
  let mw = default_mw () in
  MW.crash mw 2;
  check (Alcotest.list Alcotest.int) "correct nodes" [ 0; 1 ]
    (System.correct_nodes (MW.system mw))

let test_middleware_latency_series () =
  let mw = default_mw () in
  ignore (delivery_logs mw);
  ignore (MW.broadcast mw ~node:0 "x");
  MW.run_for mw 2_000.0;
  check Alcotest.int "one point" 1 (Dpu_engine.Series.length (MW.latency_series mw))

(* ------------------------------------------------------------------ *)
(* Stack builder                                                      *)
(* ------------------------------------------------------------------ *)

let module_names mw node =
  List.map Stack.module_name (Stack.modules (System.stack (MW.system mw) node))

let test_builder_layered_stack_shape () =
  let mw = default_mw () in
  let names = module_names mw 0 in
  List.iter
    (fun expected ->
      check Alcotest.bool (expected ^ " present") true (List.mem expected names))
    [ "udp"; "rp2p"; "fd"; "rbcast"; "consensus.ct"; "abcast.ct"; "repl.abcast"; "monitor" ];
  let stack = System.stack (MW.system mw) 0 in
  check Alcotest.bool "abcast bound" true (Stack.bound stack Service.abcast <> None);
  check Alcotest.bool "r-abcast bound" true (Stack.bound stack Service.r_abcast <> None)

let test_builder_no_layer_stack_shape () =
  let mw = mw_with ~layer:None () in
  let names = module_names mw 0 in
  check Alcotest.bool "no repl module" false (List.mem "repl.abcast" names);
  check Alcotest.bool "abcast present" true (List.mem "abcast.ct" names)

let test_builder_initial_variant_respected () =
  let mw = mw_with ~initial:Core.Variants.sequencer () in
  let stack = System.stack (MW.system mw) 0 in
  (match Stack.bound stack Service.abcast with
  | Some m -> check Alcotest.string "sequencer bound" "abcast.seq" (Stack.module_name m)
  | None -> fail "abcast unbound");
  (* The sequencer variant needs no consensus: the builder must not have
     created one. *)
  check Alcotest.bool "no consensus module" false
    (List.mem "consensus.ct" (module_names mw 0))

let test_builder_gm () =
  let mw = mw_with ~with_gm:true () in
  let stack = System.stack (MW.system mw) 0 in
  check Alcotest.bool "gm bound" true (Stack.bound stack Service.gm <> None)

(* ------------------------------------------------------------------ *)
(* Repl: Algorithm 1                                                  *)
(* ------------------------------------------------------------------ *)

let test_repl_initial_generation () =
  let mw = default_mw ~config:{ MW.default_config with metrics_enabled = true } () in
  let stack = System.stack (MW.system mw) 0 in
  check Alcotest.int "gen 0" 0 (Core.Repl.generation stack);
  check (Alcotest.option (Alcotest.float 0.0)) "no undelivered" (Some 0.0)
    (Dpu_obs.Metrics.value (MW.metrics mw) ~labels:(Stack.labels stack) "repl_undelivered")

let test_repl_switch_updates_generation () =
  let mw = default_mw () in
  ignore (delivery_logs mw);
  let changes = ref [] in
  MW.on_protocol_change mw ~node:0 (fun ~generation ~protocol ->
      changes := (generation, protocol) :: !changes);
  MW.change_protocol mw ~node:1 Core.Variants.sequencer;
  MW.run_for mw 3_000.0;
  check Alcotest.int "generation" 1 (Core.Repl.generation (System.stack (MW.system mw) 0));
  check Alcotest.bool "notified" true (List.mem (1, "abcast.seq") !changes);
  (* Every stack must now have the sequencer bound. *)
  for node = 0 to 2 do
    match Stack.bound (System.stack (MW.system mw) node) Service.abcast with
    | Some m -> check Alcotest.string "new protocol bound" "abcast.seq" (Stack.module_name m)
    | None -> fail "abcast unbound after switch"
  done

let test_repl_old_module_stays_in_stack () =
  (* §2: unbinding does not remove the module. *)
  let mw = default_mw () in
  ignore (delivery_logs mw);
  MW.change_protocol mw ~node:0 Core.Variants.sequencer;
  MW.run_for mw 3_000.0;
  let names = module_names mw 1 in
  check Alcotest.bool "old ct module still present" true (List.mem "abcast.ct" names);
  check Alcotest.bool "new seq module present" true (List.mem "abcast.seq" names)

let test_repl_switch_under_load () =
  let mw = mw_with ~seed:3 () in
  let logs = delivery_logs mw in
  let clock = System.clock (MW.system mw) in
  for i = 0 to 29 do
    ignore
      (Clock.defer clock ~delay:(float_of_int i *. 5.0) (fun () ->
           ignore (MW.broadcast mw ~node:(i mod 3) (string_of_int i))))
  done;
  ignore
    (Clock.defer clock ~delay:75.0 (fun () ->
         MW.change_protocol mw ~node:0 Core.Variants.sequencer));
  MW.run_until_quiescent ~limit:30_000.0 mw;
  assert_consistent ~expect_count:30 logs;
  check Alcotest.int "all switched" 1
    (Core.Repl.generation (System.stack (MW.system mw) 2))

let test_repl_switch_matrix () =
  (* Every ordered pair of distinct variants, under load. *)
  List.iter
    (fun from_p ->
      List.iter
        (fun to_p ->
          if from_p <> to_p then begin
            let mw = mw_with ~seed:7 ~initial:from_p () in
            let logs = delivery_logs mw in
            let clock = System.clock (MW.system mw) in
            for i = 0 to 17 do
              ignore
                (Clock.defer clock ~delay:(float_of_int i *. 8.0) (fun () ->
                     ignore (MW.broadcast mw ~node:(i mod 3) (string_of_int i))))
            done;
            ignore
              (Clock.defer clock ~delay:70.0 (fun () ->
                   MW.change_protocol mw ~node:1 to_p));
            MW.run_until_quiescent ~limit:30_000.0 mw;
            assert_consistent ~expect_count:18 logs
          end)
        Core.Variants.all)
    Core.Variants.all

let test_repl_double_switch () =
  let mw = default_mw () in
  let logs = delivery_logs mw in
  let clock = System.clock (MW.system mw) in
  for i = 0 to 19 do
    ignore
      (Clock.defer clock ~delay:(float_of_int i *. 10.0) (fun () ->
           ignore (MW.broadcast mw ~node:(i mod 3) (string_of_int i))))
  done;
  ignore
    (Clock.defer clock ~delay:50.0 (fun () ->
         MW.change_protocol mw ~node:0 Core.Variants.sequencer));
  ignore
    (Clock.defer clock ~delay:120.0 (fun () ->
         MW.change_protocol mw ~node:2 Core.Variants.token));
  MW.run_until_quiescent ~limit:30_000.0 mw;
  assert_consistent ~expect_count:20 logs;
  check Alcotest.int "two generations" 2
    (Core.Repl.generation (System.stack (MW.system mw) 1))

let test_repl_concurrent_switch_requests () =
  (* Two nodes request a change at the same instant. Both change
     messages carry generation 0 and are ordered in the generation-0
     stream; the first to be delivered switches every stack, the second
     is stale and discarded everywhere (the line-10 generation check —
     see Dpu_model.Algo1 for why applying it would break agreement).
     The requester of the dropped change would simply re-issue it. *)
  let mw = default_mw () in
  let logs = delivery_logs mw in
  let clock = System.clock (MW.system mw) in
  for i = 0 to 11 do
    ignore
      (Clock.defer clock ~delay:(float_of_int i *. 10.0) (fun () ->
           ignore (MW.broadcast mw ~node:(i mod 3) (string_of_int i))))
  done;
  ignore
    (Clock.defer clock ~delay:55.0 (fun () ->
         MW.change_protocol mw ~node:0 Core.Variants.sequencer;
         MW.change_protocol mw ~node:1 Core.Variants.token));
  MW.run_until_quiescent ~limit:30_000.0 mw;
  assert_consistent ~expect_count:12 logs;
  let gens =
    List.init 3 (fun node -> Core.Repl.generation (System.stack (MW.system mw) node))
  in
  check (Alcotest.list Alcotest.int) "one switch applied, one dropped" [ 1; 1; 1 ] gens;
  (* And the same final protocol everywhere. *)
  let bound =
    List.init 3 (fun node ->
        match Stack.bound (System.stack (MW.system mw) node) Service.abcast with
        | Some m -> Stack.module_name m
        | None -> "?")
  in
  match bound with
  | b0 :: rest -> List.iter (fun b -> check Alcotest.string "same protocol" b0 b) rest
  | [] -> fail "no stacks"

let test_repl_overlapping_change_dropped () =
  (* Regression for the model checker's finding at the simulation
     level: a second change issued while the first is still in flight
     (both tagged generation 0) must be discarded, not applied. *)
  let mw = default_mw ~config:traced () in
  let logs = delivery_logs mw in
  let clock = System.clock (MW.system mw) in
  for i = 0 to 11 do
    ignore
      (Clock.defer clock ~delay:(float_of_int i *. 6.0) (fun () ->
           ignore (MW.broadcast mw ~node:(i mod 3) (string_of_int i))))
  done;
  ignore
    (Clock.defer clock ~delay:30.0 (fun () ->
         MW.change_protocol mw ~node:0 Core.Variants.sequencer));
  (* 2 ms later: nobody has switched yet, so this request is also
     tagged generation 0 and will be ordered behind the first. *)
  ignore
    (Clock.defer clock ~delay:32.0 (fun () ->
         MW.change_protocol mw ~node:1 Core.Variants.token));
  MW.run_until_quiescent ~limit:30_000.0 mw;
  assert_consistent ~expect_count:12 logs;
  List.iter
    (fun node ->
      let stack = System.stack (MW.system mw) node in
      check Alcotest.int "exactly one switch" 1 (Core.Repl.generation stack);
      (* The stale change left a trace. *)
      ignore stack)
    [ 0; 1; 2 ];
  let stale =
    List.filter
      (fun e ->
        match e.Trace.kind with
        | Trace.App ("repl.stale-change", _) -> true
        | _ -> false)
      (Trace.entries (System.trace (MW.system mw)))
  in
  check Alcotest.int "stale change discarded at every stack" 3 (List.length stale)

let test_repl_switch_with_loss () =
  let mw = mw_with ~seed:11 ~loss:0.15 () in
  let logs = delivery_logs mw in
  let clock = System.clock (MW.system mw) in
  for i = 0 to 19 do
    ignore
      (Clock.defer clock ~delay:(float_of_int i *. 10.0) (fun () ->
           ignore (MW.broadcast mw ~node:(i mod 3) (string_of_int i))))
  done;
  ignore
    (Clock.defer clock ~delay:95.0 (fun () ->
         MW.change_protocol mw ~node:2 Core.Variants.ct));
  MW.run_until_quiescent ~limit:60_000.0 mw;
  assert_consistent ~expect_count:20 logs

let test_repl_switch_with_minority_crash () =
  let mw = mw_with ~n:5 ~seed:13 () in
  let logs = delivery_logs mw in
  let clock = System.clock (MW.system mw) in
  (* Only survivors broadcast, so every message must reach all correct
     stacks. *)
  for i = 0 to 19 do
    ignore
      (Clock.defer clock ~delay:(float_of_int i *. 10.0) (fun () ->
           ignore (MW.broadcast mw ~node:(i mod 4) (string_of_int i))))
  done;
  ignore (Clock.defer clock ~delay:60.0 (fun () -> MW.crash mw 4));
  ignore
    (Clock.defer clock ~delay:100.0 (fun () ->
         MW.change_protocol mw ~node:0 Core.Variants.ct));
  MW.run_until_quiescent ~limit:60_000.0 mw;
  assert_consistent ~skip:[ 4 ] ~expect_count:20 logs;
  List.iter
    (fun node ->
      check Alcotest.int "survivors switched" 1
        (Core.Repl.generation (System.stack (MW.system mw) node)))
    [ 0; 1; 2; 3 ]

let test_repl_seq_to_ct_builds_substrate () =
  (* Algorithm 1 lines 22-28: the new protocol requires services
     (consensus, rbcast) that are not in the stack; create_module must
     build and bind providers recursively. *)
  let mw = mw_with ~initial:Core.Variants.sequencer () in
  ignore (delivery_logs mw);
  check Alcotest.bool "no consensus initially" false
    (List.mem "consensus.ct" (module_names mw 0));
  MW.change_protocol mw ~node:0 Core.Variants.ct;
  MW.run_for mw 3_000.0;
  List.iter
    (fun node ->
      let names = module_names mw node in
      check Alcotest.bool "consensus built" true (List.mem "consensus.ct" names);
      check Alcotest.bool "rbcast built" true (List.mem "rbcast" names);
      let stack = System.stack (MW.system mw) node in
      check Alcotest.bool "consensus bound" true
        (Stack.bound stack Service.consensus <> None))
    [ 0; 1; 2 ]

let test_repl_self_replacement () =
  (* The paper's §6 experiment: replace CT by CT, exercising all steps. *)
  let mw = default_mw () in
  let logs = delivery_logs mw in
  let clock = System.clock (MW.system mw) in
  for i = 0 to 9 do
    ignore
      (Clock.defer clock ~delay:(float_of_int i *. 10.0) (fun () ->
           ignore (MW.broadcast mw ~node:(i mod 3) (string_of_int i))))
  done;
  ignore
    (Clock.defer clock ~delay:45.0 (fun () -> MW.change_protocol mw ~node:0 Core.Variants.ct));
  MW.run_until_quiescent ~limit:30_000.0 mw;
  assert_consistent ~expect_count:10 logs;
  (* Every node sent in the new generation, so each stack retired the
     old ct instance: one instance is left, bound. *)
  let ct_instances =
    List.filter (fun name -> name = "abcast.ct") (module_names mw 1)
  in
  check Alcotest.int "old instance retired" 1 (List.length ct_instances);
  check Alcotest.bool "new instance bound" true
    (Stack.bound (System.stack (MW.system mw) 1) Service.abcast <> None)

let test_repl_undelivered_reissued () =
  (* Cut the network right after a broadcast so it is in flight at
     switch time, then heal: the message must still be delivered
     (through the new protocol, by the line 15-16 reissue). *)
  let mw = mw_with ~seed:17 () in
  let logs = delivery_logs mw in
  let net = System.net (MW.system mw) in
  let clock = System.clock (MW.system mw) in
  ignore (MW.broadcast mw ~node:0 "pre");
  MW.run_for mw 1_000.0;
  (* Block node 0's traffic, broadcast from it, and switch from node 1.
     Node 0's message cannot be ordered by the old protocol at the
     switch point; when the partition heals, node 0 reissues it through
     the new one. *)
  Dpu_net.Datagram.partition net [ [ 0 ]; [ 1; 2 ] ];
  ignore (MW.broadcast mw ~node:0 "inflight");
  ignore
    (Clock.defer clock ~delay:200.0 (fun () ->
         MW.change_protocol mw ~node:1 Core.Variants.ct));
  MW.run_for mw 3_000.0;
  Dpu_net.Datagram.heal net;
  MW.run_until_quiescent ~limit:90_000.0 mw;
  assert_consistent ~expect_count:2 logs

let test_repl_weak_wf_and_operationability () =
  let mw = default_mw ~config:traced () in
  ignore (delivery_logs mw);
  let clock = System.clock (MW.system mw) in
  for i = 0 to 9 do
    ignore
      (Clock.defer clock ~delay:(float_of_int i *. 10.0) (fun () ->
           ignore (MW.broadcast mw ~node:(i mod 3) (string_of_int i))))
  done;
  ignore
    (Clock.defer clock ~delay:50.0 (fun () ->
         MW.change_protocol mw ~node:0 Core.Variants.sequencer));
  MW.run_until_quiescent ~limit:30_000.0 mw;
  let trace = System.trace (MW.system mw) in
  let reports =
    Dpu_props.Stack_props.check_generic trace
      ~protocols:[ "abcast.ct"; "abcast.seq"; "repl.abcast" ]
      ~nodes:[ 0; 1; 2 ]
  in
  List.iter
    (fun r ->
      check Alcotest.bool
        (Format.asprintf "%a" Dpu_props.Report.pp r)
        true r.Dpu_props.Report.ok)
    reports

let test_repl_abcast_properties_across_switch () =
  (* The mechanised version of §5.2.2: the four ABcast properties hold
     across a replacement, several seeds. *)
  List.iter
    (fun seed ->
      let mw = mw_with ~seed () in
      ignore (delivery_logs mw);
      let clock = System.clock (MW.system mw) in
      for i = 0 to 19 do
        ignore
          (Clock.defer clock ~delay:(float_of_int i *. 7.0) (fun () ->
               ignore (MW.broadcast mw ~node:(i mod 3) (string_of_int i))))
      done;
      ignore
        (Clock.defer clock ~delay:66.0 (fun () ->
             MW.change_protocol mw ~node:(seed mod 3) Core.Variants.token));
      MW.run_until_quiescent ~limit:60_000.0 mw;
      let reports =
        Dpu_props.Abcast_props.check_all (MW.collector mw) ~correct:[ 0; 1; 2 ]
      in
      List.iter
        (fun r ->
          check Alcotest.bool
            (Printf.sprintf "seed %d: %s" seed r.Dpu_props.Report.property)
            true r.Dpu_props.Report.ok)
        reports)
    [ 1; 2; 3; 4; 5 ]

let prop_repl_switch_any_time =
  QCheck.Test.make ~name:"switch at a random moment preserves total order" ~count:12
    QCheck.(pair (int_range 0 150) (int_range 1 500))
    (fun (switch_at, seed) ->
      let mw = mw_with ~seed () in
      let logs = delivery_logs mw in
      let clock = System.clock (MW.system mw) in
      for i = 0 to 14 do
        ignore
          (Clock.defer clock ~delay:(float_of_int i *. 9.0) (fun () ->
               ignore (MW.broadcast mw ~node:(i mod 3) (string_of_int i))))
      done;
      ignore
        (Clock.defer clock ~delay:(float_of_int switch_at) (fun () ->
             MW.change_protocol mw ~node:(seed mod 3) Core.Variants.sequencer));
      MW.run_until_quiescent ~limit:60_000.0 mw;
      match sequences logs with
      | first :: rest ->
        List.length first = 15 && List.for_all (fun s -> s = first) rest
      | [] -> false)

(* ------------------------------------------------------------------ *)
(* Monitor + GM through the layer                                     *)
(* ------------------------------------------------------------------ *)

let test_monitor_records_switches () =
  let mw = default_mw () in
  ignore (delivery_logs mw);
  MW.change_protocol mw ~node:0 Core.Variants.sequencer;
  MW.run_for mw 3_000.0;
  match MW.switch_window mw ~generation:1 with
  | Some (lo, hi) -> check Alcotest.bool "ordered window" true (lo <= hi)
  | None -> fail "no switch recorded"

let test_gm_keeps_working_across_switch () =
  (* GM depends on the replaced service; the paper requires it to keep
     providing service, unaware of the replacement. *)
  let mw = mw_with ~with_gm:true () in
  ignore (delivery_logs mw);
  let views = ref [] in
  MW.on_view mw ~node:2 (fun v -> views := v.P.Gm.members :: !views);
  MW.run_for mw 500.0;
  MW.leave mw ~node:0 1;
  MW.run_for mw 2_000.0;
  MW.change_protocol mw ~node:0 Core.Variants.sequencer;
  MW.run_for mw 2_000.0;
  MW.join mw ~node:2 1;
  MW.run_until_quiescent ~limit:30_000.0 mw;
  let seq = List.rev !views in
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "views across switch"
    [ [ 0; 1; 2 ]; [ 0; 2 ]; [ 0; 1; 2 ] ]
    seq

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "core"
    [
      ( "variants",
        [ tc "catalogue" test_variants_catalogue; tc "registered" test_variants_registered ] );
      ( "collector",
        [
          tc "latency math" test_collector_latency_math;
          tc "undelivered" test_collector_undelivered;
          tc "switch window" test_collector_switch_window;
          tc "deliver order" test_collector_deliver_order;
          tc "model edge cases" test_collector_model_edge_cases;
          tc "size gate" test_collector_size_gate;
          QCheck_alcotest.to_alcotest ~long:false prop_collector_matches_model;
        ] );
      ( "middleware",
        [
          tc "broadcast/deliver" test_middleware_broadcast_deliver;
          tc "unique ids" test_middleware_ids_unique;
          tc "msg size" test_middleware_msg_size;
          tc "no layer: change raises" test_middleware_no_layer_change_raises;
          tc "no layer: broadcasts" test_middleware_no_layer_still_broadcasts;
          tc "crash" test_middleware_crash;
          tc "latency series" test_middleware_latency_series;
        ] );
      ( "builder",
        [
          tc "layered shape" test_builder_layered_stack_shape;
          tc "no-layer shape" test_builder_no_layer_stack_shape;
          tc "initial variant" test_builder_initial_variant_respected;
          tc "gm" test_builder_gm;
        ] );
      ( "repl",
        [
          tc "initial generation" test_repl_initial_generation;
          tc "switch updates generation" test_repl_switch_updates_generation;
          tc "old module stays" test_repl_old_module_stays_in_stack;
          tc "switch under load" test_repl_switch_under_load;
          tc "switch matrix (all pairs)" test_repl_switch_matrix;
          tc "double switch" test_repl_double_switch;
          tc "concurrent requests" test_repl_concurrent_switch_requests;
          tc "overlapping change dropped" test_repl_overlapping_change_dropped;
          tc "switch with loss" test_repl_switch_with_loss;
          tc "switch with minority crash" test_repl_switch_with_minority_crash;
          tc "seq->ct builds substrate" test_repl_seq_to_ct_builds_substrate;
          tc "self replacement (paper §6)" test_repl_self_replacement;
          tc "undelivered reissued" test_repl_undelivered_reissued;
          tc "weak WF + operationability" test_repl_weak_wf_and_operationability;
          tc "abcast properties across switch" test_repl_abcast_properties_across_switch;
        ] );
      ( "monitor+gm",
        [
          tc "switch window recorded" test_monitor_records_switches;
          tc "gm across switch" test_gm_keeps_working_across_switch;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest ~long:false prop_repl_switch_any_time ] );
    ]
