(** System-wide instrumentation: who broadcast what when, and who
    delivered what when.

    The paper's §6 metric is the *average latency* of ABcast: for a
    message [m], [t_i(m)] is the time between ABcasting [m] and
    delivering it on stack [i]; the latency of [m] is the mean of
    [t_i(m)] over all stacks that delivered it. {!latency_series}
    returns one point per message, keyed by its send time — exactly the
    scatter plotted in Fig. 5.

    Recording is two array stores: a row is one int key packing origin,
    seq and node, and the time as an unboxed float. No row keeps the
    caller's [Msg.id] record, so a finished message's id is garbage.
    Readers build their indexes on first use, and the ids they return
    as one shared record per distinct message; both are kept until the
    next record, so read once the run is over. *)

open Dpu_kernel

type t

val create : unit -> t

val record_send : t -> node:int -> id:Msg.id -> time:float -> unit
(** Raises [Invalid_argument] unless [node] and the id are in the range
    {!Msg.read_id} accepts: origin and node in [\[0, 2^15)], seq in
    [\[0, 2^32)]. *)

val record_deliver : t -> node:int -> id:Msg.id -> time:float -> unit
(** Raises [Invalid_argument] as {!record_send}. *)

val record_switch : t -> node:int -> generation:int -> time:float -> unit
(** A stack completed a protocol switch (installed generation [g]). *)

val merge : t list -> t
(** One record of several, e.g. one per live node in node order: sends
    stably sorted by time (equal times keep list order), deliveries and
    switches appended in list order. *)

val sends : t -> (Msg.id * int * float) list
(** (id, sender, send time), in send order. *)

val send_count : t -> int

val send_time : t -> Msg.id -> float option

val delivers_of : t -> node:int -> (Msg.id * float) list
(** Delivery sequence of a node, in delivery order. *)

val delivered_nodes : t -> int list
(** Nodes that delivered at least one message. *)

val deliver_times : t -> Msg.id -> (int * float) list
(** All (node, time) deliveries of one message. *)

val latency_of : t -> Msg.id -> float option
(** Mean over stacks of [t_i(m)]; [None] if never delivered. *)

val latency_series : t -> Dpu_engine.Series.t
(** One (send-time, average-latency) point per delivered message. *)

val undelivered_ids : t -> expected_copies:int -> Msg.id list
(** Messages delivered by fewer than [expected_copies] nodes. *)

val switch_window : t -> generation:int -> (float * float) option
(** (first, last) time a stack installed [generation] — the
    paper's replacement window: starts when any process triggers it,
    finishes when all machines have replaced the module. *)

val switches : t -> (int * int * float) list
(** (node, generation, time) in order of occurrence. *)
