module P = Dpu_protocols

let ct = P.Abcast_ct.protocol_name

let seq = P.Abcast_seq.protocol_name

let token = P.Abcast_token.protocol_name

type switch = float * int * string

type t = {
  name : string;
  summary : string;
  n : int;
  load : float;
  duration_ms : float;
  drain_ms : float;
  initial : string;
  switches : switch list;
  schedule : Schedule.t;
}

let sw ~at ~node target = (at, node, target)

(* Every scenario fits one shape: open-loop load for [duration_ms],
   one or more changeABcast calls mid-stream, a fault schedule from the
   DSL, and the full Abcast_props battery over the merged logs at the
   end. Durations are short enough that a live (wall-clock) run of the
   whole corpus stays in CI budget. *)
let all =
  [
    {
      name = "replacement-under-partition";
      summary =
        "ABcast CT->sequencer swap while a minority node is partitioned away; \
         the partition heals before the run ends and the late node must catch \
         up through the epoch buffer";
      n = 5;
      load = 30.0;
      duration_ms = 4_000.0;
      drain_ms = 2_000.0;
      initial = ct;
      switches = [ sw ~at:2_000.0 ~node:0 seq ];
      schedule =
        [
          Schedule.partition ~at:1_500.0 [ [ 0; 1; 2; 3 ]; [ 4 ] ];
          Schedule.heal ~at:2_600.0;
        ];
    };
    {
      name = "racing-replacements";
      summary =
        "two nodes request different replacements 0.5 ms apart under a \
         duplication burst; the totally-ordered change stream must apply \
         exactly one and drop the loser as stale";
      n = 5;
      load = 30.0;
      duration_ms = 4_000.0;
      drain_ms = 2_000.0;
      initial = ct;
      (* Both requests are issued while the group is still at generation
         0 — they genuinely race through the change stream, and the one
         ordered second must be dropped as stale. *)
      switches = [ sw ~at:2_000.0 ~node:0 seq; sw ~at:2_000.5 ~node:1 token ];
      schedule = [ Schedule.dup_burst ~p:0.15 ~from_:1_800.0 ~until:2_800.0 ];
    };
    {
      name = "coordinator-crash-mid-switch";
      summary =
        "the node that triggers the replacement is crash-silenced 250 ms after \
         issuing changeABcast; the survivors must still complete Algorithm 1 \
         and keep the properties without it";
      n = 5;
      load = 30.0;
      duration_ms = 4_000.0;
      drain_ms = 2_000.0;
      initial = ct;
      switches = [ sw ~at:2_000.0 ~node:2 seq ];
      schedule = [ Schedule.crash ~at:2_250.0 2 ];
    };
    {
      name = "rollback-previous-generation";
      summary =
        "CT->sequencer, then back to CT one second later through a loss window \
         — the rollback is just another replacement, one generation up";
      n = 3;
      load = 30.0;
      duration_ms = 4_000.0;
      drain_ms = 2_000.0;
      initial = ct;
      switches = [ sw ~at:1_500.0 ~node:0 seq; sw ~at:2_500.0 ~node:0 ct ];
      schedule = [ Schedule.loss_window ~p:0.1 ~from_:2_000.0 ~until:3_000.0 ];
    };
    {
      name = "cascading-heterogeneous-switch";
      summary =
        "CT -> sequencer -> token ring -> CT, each leg triggered by a \
         different node while one link is degraded; three generations of \
         heterogeneous protocols share one totally-ordered stream";
      n = 5;
      load = 30.0;
      duration_ms = 4_400.0;
      drain_ms = 2_000.0;
      initial = ct;
      switches =
        [
          sw ~at:1_200.0 ~node:0 seq;
          sw ~at:2_200.0 ~node:1 token;
          sw ~at:3_200.0 ~node:2 ct;
        ];
      schedule =
        [
          Schedule.degrade_link ~src:0 ~dst:1
            ~link:(Dpu_net.Latency.constant 5.0)
            ~from_:1_500.0 ~until:3_500.0;
        ];
    };
  ]

let names () = List.map (fun s -> s.name) all

let find name = List.find_opt (fun s -> s.name = name) all
