(** Kernel event trace.

    Every structural event (module added/removed, bind/unbind, call,
    blocked call, indication, crash) is recorded here, timestamped on
    the stack's clock: virtual ms on the simulator, ms since the
    deployment epoch on a live node. Kinds carry names only (services,
    modules, tags); strings are rendered by the sinks. The checkers in
    [Dpu_props] consume these traces to verify the paper's §3
    properties — stack-well-formedness and protocol-operationability —
    mechanically rather than on paper, and [Dpu_core.Spans] renders the
    same entries as Chrome trace events. A live node ships its
    {!entries} in its report and the parent merges them into one
    trace, so both backends feed one event record to the same sinks. *)

type kind =
  | Add_module of string  (** module name *)
  | Remove_module of string
  | Bind of string * string  (** service, module *)
  | Unbind of string * string  (** service, module *)
  | Call of string  (** service *)
  | Call_blocked of string  (** a call found no bound module and was queued *)
  | Call_unblocked of string  (** a queued call was released by a bind *)
  | Indication of string  (** service *)
  | Crash
  | App of string * string  (** application-level tag, data *)

type entry = { time : float; node : int; kind : kind }

type t

val create : ?enabled:bool -> ?capacity:int -> unit -> t
(** [capacity] bounds memory (default 2_000_000 entries). Once
    reached, the trace behaves as a ring buffer: each new entry evicts
    the oldest, [truncated] becomes [true], and the most recent
    [capacity] entries are retained — long soaks keep the tail, where
    the interesting events are. *)

val enabled : t -> bool

val set_enabled : t -> bool -> unit

val record : t -> time:float -> node:int -> kind -> unit

val entries : t -> entry list
(** Retained entries in recording order (oldest retained first). *)

val length : t -> int
(** Number of retained entries (at most [capacity]). *)

val truncated : t -> bool
(** Whether any entry has been evicted. *)

val dropped : t -> int
(** Number of evicted (oldest) entries. *)

val filter : t -> (entry -> bool) -> entry list
