module Sim = Dpu_engine.Sim
module Rng = Dpu_engine.Rng
module Datagram = Dpu_net.Datagram

type t = {
  sim : Sim.t;
  config : Middleware.config;
  metrics : Dpu_obs.Metrics.t;
  groups : Middleware.t array;
  first_node : int array; (* global id of each group's node 0 *)
  gens : int array; (* last completed generation per group *)
}

let shard_sizes ~shards ~n =
  let base = n / shards and extra = n mod shards in
  Array.init shards (fun g -> base + if g < extra then 1 else 0)

let create ?(config = Middleware.default_config) ?register_extra ~shards ~n () =
  if shards < 1 then invalid_arg "Fabric.create: shards must be >= 1";
  if n < shards then invalid_arg "Fabric.create: need at least one node per shard";
  if config.Middleware.faults <> [] && shards > 1 then
    invalid_arg "Fabric.create: a fault schedule needs shards = 1";
  let sim = Sim.create ~seed:config.Middleware.seed () in
  let metrics =
    if config.Middleware.metrics_enabled then Dpu_obs.Metrics.create ()
    else Dpu_obs.Metrics.noop
  in
  Sim.register_metrics sim metrics;
  let sizes = shard_sizes ~shards ~n in
  let first_node = Array.make shards 0 in
  let acc = ref 0 in
  Array.iteri
    (fun g ng ->
      first_node.(g) <- !acc;
      acc := !acc + ng)
    sizes;
  let groups =
    Array.init shards (fun g ->
        let ng = sizes.(g) in
        (* Every random draw of group g comes from the keyed substream
           for g: the parent is not advanced, so a shard keeps its
           exact randomness no matter how many shards exist. *)
        let g_rng = Rng.split_key (Sim.rng sim) ~key:g in
        let net =
          Datagram.create sim ~n:ng ~rng:(Rng.split g_rng) ~loss:config.Middleware.loss ()
        in
        let group = Sim.new_group sim in
        let runtime = Dpu_runtime.Sim_backend.runtime ~group ~rng:g_rng sim net in
        Middleware.of_sim ~group_id:g ~config ?register_extra ~metrics ~runtime ~sim ~net ())
  in
  let gens = Array.make shards 0 in
  Array.iteri
    (fun g mw ->
      (* Generations are per group: track each group's completed
         switches from its node 0. *)
      Middleware.on_protocol_change mw ~node:0 (fun ~generation ~protocol:_ ->
          if generation > gens.(g) then gens.(g) <- generation))
    groups;
  { sim; config; metrics; groups; first_node; gens }

let shards t = Array.length t.groups

let total_nodes t = Array.fold_left (fun acc mw -> acc + Middleware.n mw) 0 t.groups

let config t = t.config

let sim t = t.sim

let metrics t = t.metrics

let group t g =
  if g < 0 || g >= Array.length t.groups then
    invalid_arg (Printf.sprintf "Fabric.group: shard %d out of range" g);
  t.groups.(g)

let group_size t g = Middleware.n (group t g)

let first_node t g =
  ignore (group t g : Middleware.t);
  t.first_node.(g)

let iter_groups t f = Array.iteri f t.groups

let generation t ~shard =
  ignore (group t shard : Middleware.t);
  t.gens.(shard)

let now t = Sim.now t.sim

let run_for t d = Sim.run_for t.sim d

let run_until_quiescent ?limit t =
  match limit with None -> Sim.run t.sim | Some l -> Sim.run ~until:l t.sim

let change_protocol t ~shard ?(node = 0) protocol =
  Middleware.change_protocol (group t shard) ~node protocol

let switch_window t ~shard ~generation =
  Middleware.switch_window (group t shard) ~generation

(* Max number of half-open intervals covering one instant: classic
   sweep over sorted endpoints, ends before starts at ties. *)
let max_overlap windows =
  let events =
    List.concat_map (fun (lo, hi) -> [ (lo, 1); (hi, -1) ]) windows
    |> List.sort (fun (a, da) (b, db) ->
           match Float.compare a b with 0 -> Int.compare da db | c -> c)
  in
  let _, best =
    List.fold_left
      (fun (cur, best) (_, d) ->
        let cur = cur + d in
        (cur, max best cur))
      (0, 0) events
  in
  best

let max_concurrent_switches t ~generation =
  let windows = ref [] in
  Array.iteri
    (fun g _ ->
      match switch_window t ~shard:g ~generation with
      | Some w -> windows := w :: !windows
      | None -> ())
    t.groups;
  max_overlap !windows
