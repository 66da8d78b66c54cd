(** The node-local step of the consensus replacement layer (the
    paper's §7 extension) for one stream of consensus instances.

    This is the one copy of the layer's rules. [Dpu_core.Repl_consensus]
    runs it once per stream against the kernel, and [Consswap]
    enumerates every interleaving of it across stacks. The step is pure
    and polymorphic in the proposed value ['v], the decided value ['d]
    and the protocol name ['p]. *)

module Int_map : Map.S with type key = int

type ('v, 'd, 'p) t = {
  gen : int;  (** generation of the stream's current implementation *)
  prefix : int;  (** first instance without an accepted decision *)
  decided : 'd Int_map.t;  (** accepted decision of each instance *)
  switch_at : (int * 'p) option;
      (** a switch to ['p] decided at instance [k_s], waiting for the
          decided prefix to cover [k_s] *)
  pending : 'v Int_map.t;  (** this stack's undecided proposals *)
}

type 'd proposal =
  | Repeat of 'd
      (** the instance is already decided: repeat the decision to the
          client (a [Decide] can still be in flight when the client
          proposes again) *)
  | Propose_under of int  (** propose to the implementation of this generation *)

type ('v, 'p) action =
  | Stale  (** a decision of a superseded generation was discarded *)
  | Decided  (** the decision is accepted: indicate it to the client *)
  | Switch of { generation : int; protocol : 'p }
      (** the stream now runs [protocol] as [generation] *)
  | Reissue of { k : int; value : 'v }
      (** propose this undecided instance again, under the new generation *)

val initial : ('v, 'd, 'p) t
(** Generation 0, nothing decided or proposed. *)

val propose : ('v, 'd, 'p) t -> k:int -> 'v -> ('v, 'd, 'p) t * 'd proposal
(** The client proposes [v] for instance [k]. *)

val decide :
  ('v, 'd, 'p) t ->
  gen:int ->
  k:int ->
  'd ->
  switch:'p option ->
  ('v, 'd, 'p) t * ('v, 'p) action list
(** The implementation of generation [gen] decided [d] for instance
    [k], tagged with a change request to [switch] if any. A decision of
    another generation yields [[Stale]] (the analogue of Algorithm 1's
    line 18); a repeated decision yields [[]]. An accepted one yields
    [Decided], followed by the {!switch} actions once the decided prefix
    covers a tagged instance [k_s]: every stack then switches at the
    same point of the stream, whatever order it learned decisions in. *)

val switch : ('v, 'd, 'p) t -> ('v, 'd, 'p) t * ('v, 'p) action list
(** Apply the scheduled switch now: bump the generation and re-issue
    the undecided proposals beyond [k_s] ([Switch] then one [Reissue]
    per instance, in instance order). No actions when none is
    scheduled. {!decide} calls it when the prefix is covered. *)
