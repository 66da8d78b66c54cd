(** The adversarial replacement scenario corpus.

    Each scenario pairs a protocol-replacement plan with a fault
    schedule the paper never imagined, and is meant to run {e twice}:
    once in the simulator and once over real UDP sockets — from the
    same values, through the same {!Fault_transport} shim — with the
    full atomic-broadcast property battery checked on the merged logs
    both times. The simulated runner is [Dpu_workload.Experiment.of_corpus];
    the live one is [Dpu_live.Serve.of_corpus]. [dpu_run run --scenario
    NAME|all] runs them on the simulator, and adding [--live] runs them
    over UDP. *)

type switch = float * int * string
(** One planned changeABcast call, [(at_ms, node, target)]: at [at_ms]
    node [node] requests a replacement to protocol [target]. Every
    runner's extra-switch list has this type. *)

type t = {
  name : string;
  summary : string;
  n : int;
  load : float;  (** aggregate messages per second *)
  duration_ms : float;
  drain_ms : float;  (** settle time after the load stops (live runs) *)
  initial : string;  (** initial ABcast variant *)
  switches : switch list;
  schedule : Schedule.t;
}

val all : t list
(** replacement-under-partition, racing-replacements,
    coordinator-crash-mid-switch, rollback-previous-generation,
    cascading-heterogeneous-switch. *)

val names : unit -> string list

val find : string -> t option
