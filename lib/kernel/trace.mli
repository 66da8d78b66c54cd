(** Kernel event trace.

    Every structural event (module added/removed, bind/unbind, blocked
    and released call, crash, application milestone) is recorded here,
    timestamped on the stack's clock: virtual ms on the simulator, ms
    since the deployment epoch on a live node. Per-message hops are not
    recorded, so the trace grows with switches and blocked calls, not
    with traffic, and needs no bound. Kinds carry names only (services,
    modules, tags); strings are rendered by the sinks. The checkers in
    [Dpu_props] consume these traces to verify the paper's §3
    properties — stack-well-formedness and protocol-operationability —
    mechanically rather than on paper, and [Dpu_core.Spans] renders the
    same entries as Chrome trace events and JSONL log lines. A live
    node ships its {!entries} in its report and the parent merges them
    into one trace, so both backends feed one event record to the same
    sinks. *)

type kind =
  | Add_module of string  (** module name *)
  | Remove_module of string
  | Bind of string * string  (** service, module *)
  | Unbind of string * string  (** service, module *)
  | Call_blocked of string  (** a call found no bound module and was queued *)
  | Call_unblocked of string  (** a queued call was released by a bind *)
  | Crash
  | App of string * string  (** application-level tag, data *)

type entry = { time : float; node : int; kind : kind }

type t

val create : ?enabled:bool -> unit -> t
(** A disabled trace records nothing. *)

val enabled : t -> bool

val record : t -> time:float -> node:int -> kind -> unit

val entries : t -> entry list
(** Every entry, in recording order. *)
