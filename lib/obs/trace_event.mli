(** Chrome trace-event JSON (the format Perfetto and chrome://tracing
    load).

    Timestamps are microseconds; the constructors below take virtual
    milliseconds and convert. [pid] and [tid] map to the two grouping
    levels of the trace viewer — here pid = node (plus the synthetic
    "timeline" and "nemesis" processes) and tid = a per-node lane. *)

type args = (string * Json.t) list

type t =
  | Complete of {
      name : string;
      cat : string;
      pid : int;
      tid : int;
      ts_us : float;
      dur_us : float;
      args : args;
    }  (** a span: ph "X" *)
  | Instant of { name : string; cat : string; pid : int; tid : int; ts_us : float; args : args }
      (** a point event: ph "i" *)
  | Process_name of { pid : int; name : string }  (** metadata: ph "M" *)
  | Thread_name of { pid : int; tid : int; name : string }

val complete :
  name:string ->
  cat:string ->
  pid:int ->
  tid:int ->
  ts_ms:float ->
  dur_ms:float ->
  ?args:args ->
  unit ->
  t
(** A span; negative durations are clamped to 0. *)

val instant : name:string -> cat:string -> pid:int -> tid:int -> ts_ms:float -> ?args:args -> unit -> t

val process_name : pid:int -> string -> t

val thread_name : pid:int -> tid:int -> string -> t

val to_json : t list -> Json.t
(** The standard envelope:
    [{"traceEvents": [...], "displayTimeUnit": "ms"}]. *)

val event_json : t -> Json.t
(** One event as its trace-format JSON object. *)

val of_json : Json.t -> (t, string) result
(** Parse one event back; inverse of {!event_json} for the four phases
    this module emits ("X", "i", and the two "M" metadata kinds). *)

val events_of_json : Json.t -> (t list, string) result
(** Parse either the {!to_json} envelope or a bare event list. Used to
    re-read exported artifacts ([dpu_run report --trace], tests). *)
