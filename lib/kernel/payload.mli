(** Open payload type for service calls, indications and datagrams.

    Each protocol extends [t] with its own constructors, so modules
    sharing a service (e.g. everything multiplexed over [net]) simply
    pattern-match on their own constructors and ignore the rest. This
    mirrors the untyped event model of SAMOA/Appia protocol kernels
    while staying allocation-cheap.

    Protocols may register a {e wire codec} for their constructors. Codecs are only exercised by
    backends that serialise messages (the live UDP transport); the
    simulated backend passes payload values by reference and never
    touches them, so registering a codec has zero effect on simulated
    runs. *)

type t = ..

type t += Unit  (** a payload carrying no information *)

(** {1 Wire codecs} *)

exception Decode_error of string
(** Raised by {!decode} / {!Envelope.open_} on any malformed input:
    unknown tag, truncated body, trailing garbage, bad magic. *)

val register_codec :
  tag:string ->
  encode:(t -> (Wire.W.t -> unit) option) ->
  decode:(Wire.R.t -> t) ->
  unit
(** Register a binary codec for some constructors. [tag] (1..255
    bytes) names the frame on the wire and must be globally unique —
    duplicate registration raises [Invalid_argument]. [encode] returns
    [Some write] when the payload belongs to this codec; [write] emits
    the body. [decode] parses the body and must consume it entirely
    ({!decode} rejects frames with leftover bytes).

    To nest a payload inside another (batches, wrappers), encode it
    with [Wire.W.str (Payload.encode_exn inner)] and decode with
    [Payload.decode (Wire.R.str r)]. *)

val encode : t -> string option
(** Frame the payload with the first codec (most recent first) that
    claims it: [u8 tag-length][tag][body]. [None] if no codec
    matches. *)

val encode_into : Wire.W.t -> t -> bool
(** Like {!encode} but appends the frame to an existing writer —
    the zero-allocation path for transports that reuse a scratch
    buffer. Returns [false] (writing nothing) if no codec matches. *)

val encode_exn : t -> string
(** Like {!encode} but raises [Invalid_argument] when no codec is
    registered for the payload. *)

val decode : string -> t
(** Inverse of {!encode}; raises {!Decode_error} on unknown tags,
    truncated frames or trailing bytes. *)

val decode_slice : ?off:int -> ?len:int -> Bytes.t -> t
(** {!decode} over a byte-slice without copying it out first (see
    {!Wire.R.of_bytes} for the aliasing rule: don't overwrite [buf]
    until decoding finishes). *)

val has_codec : t -> bool

val registered_tags : unit -> string list
(** All registered codec tags, sorted — for diagnostics and tests. *)

(** Versioned datagram envelope used by wire transports. A sealed
    envelope carries enough routing metadata ([src] node, [service]
    name, protocol [generation]) for a receiving node to dispatch the
    payload without out-of-band context. *)
module Envelope : sig
  type info = { src : int; service : string; generation : int }

  val version : int
  (** Version 1: a single payload per datagram. *)

  val batch_version : int
  (** Version 2: a batch frame — same header, then
      [count] [u32 len][tag body] elements. Additive: version-1-only
      readers reject it as an unsupported version; {!open_slice}
      accepts both. *)

  val header_overhead : service:string -> int
  (** Exact byte size of the envelope header (magic through
      generation) — lets transports budget batch frames against the
      datagram MTU without encoding first. *)

  val seal : src:int -> service:string -> generation:int -> t -> string
  (** Raises [Invalid_argument] if the payload has no codec. *)

  val seal_encoded : src:int -> service:string -> generation:int -> string -> string
  (** Like {!seal} on a body already produced by {!encode} — lets hot
      paths that must first probe for a codec reuse the encoded bytes
      instead of encoding twice. *)

  val seal_into :
    Wire.W.t -> src:int -> service:string -> generation:int -> Wire.W.t -> unit
  (** Append a version-1 frame to the first writer, taking the
      already-encoded payload frame from the second — the scratch-buffer
      send path: no intermediate strings. *)

  val seal_batch_into :
    Wire.W.t ->
    src:int ->
    service:string ->
    generation:int ->
    count:int ->
    Wire.W.t ->
    unit
  (** Append a version-2 batch frame: header, [count], then the second
      writer's contents, which must hold exactly [count] elements each
      written with [Wire.W.str_writer]. Raises [Invalid_argument] when
      [count <= 0] — an empty batch is never put on the wire. *)

  val seal_batch : src:int -> service:string -> generation:int -> t list -> string
  (** Allocating convenience over {!seal_batch_into} (tests, tools).
      Raises [Invalid_argument] on an empty list or a payload with no
      codec. *)

  val open_ : string -> info * t
  (** Raises {!Decode_error} on bad magic, unsupported version, or any
      framing error — including a multi-payload batch frame, which
      cannot be flattened to a single payload. *)

  val open_slice : ?off:int -> ?len:int -> Bytes.t -> info * t list
  (** Decode a version-1 (singleton list) or version-2 (one payload per
      batch element, in order) envelope in place over a byte-slice.
      Strict like {!open_}: any framing error, including a partially
      valid batch, rejects the whole datagram — a batch is accepted or
      dropped atomically. *)
end
