(** The node-local step of Algorithm 1: the replacement module's
    [seqNumber], its [undelivered] set, and what it does on a
    broadcast, a change request and an [Adeliver].

    This is the one copy of the algorithm. [Dpu_core.Repl] runs it
    against the kernel (it interprets the returned actions as binds,
    module creation and ABcast calls), and [Algo1] enumerates every
    interleaving of it across stacks. The step is pure and polymorphic
    in the message id, the payload and the protocol name, so the model
    instantiates it with integers and units.

    The line numbers refer to Algorithm 1 of the paper. *)

type ('id, 'v) t = {
  sn : int;  (** [seqNumber] (line 4) *)
  undelivered : ('id * 'v) list;
      (** line 2, in insertion order. A stack only holds its own
          messages, and it numbers them in ascending order, so this is
          also id order: the order of the lines 15–16 re-issue. *)
}

(** What the replacement module ABcasts through the current protocol. *)
type ('id, 'v, 'p) entry =
  | Data of { sn : int; id : 'id; v : 'v }  (** [ABcast(nil, sn, m)] *)
  | New of { sn : int; protocol : 'p }  (** [ABcast(newABcast, sn, prot)] *)

type ('id, 'v, 'p) action =
  | R_deliver of { id : 'id; v : 'v }  (** [rAdeliver(m)] (line 21) *)
  | Switch of { generation : int; protocol : 'p }
      (** unbind the old protocol, create [protocol] as generation
          [generation] and bind it (lines 11–14) *)
  | Reissue of ('id, 'v, 'p) entry
      (** ABcast this entry through the new protocol (lines 15–16) *)
  | Stale_change of { sn : int; protocol : 'p }
      (** a change request tagged with a superseded [seqNumber] [sn]
          was discarded *)

val initial : ('id, 'v) t
(** [seqNumber = 0], nothing undelivered (lines 1–4). *)

val broadcast : ('id, 'v) t -> id:'id -> 'v -> ('id, 'v) t * ('id, 'v, 'p) entry
(** [rABcast(m)]: add [m] to [undelivered] and return the entry to
    ABcast (lines 7–9). *)

val change : ('id, 'v) t -> 'p -> ('id, 'v, 'p) entry
(** [changeABcast(prot)]: the entry to ABcast (lines 5–6). *)

val deliver :
  equal:('id -> 'id -> bool) ->
  ('id, 'v) t ->
  ('id, 'v, 'p) entry ->
  ('id, 'v) t * ('id, 'v, 'p) action list
(** [Adeliver] of an entry (lines 10–21):
    - a [Data] entry of another generation is discarded (line 18);
      otherwise it leaves [undelivered] (lines 19–20) and yields
      [[R_deliver]];
    - a [New] entry of the current generation increments [seqNumber]
      and yields [Switch] followed by one [Reissue] per undelivered
      message. A [New] of another generation yields [[Stale_change]]:
      the line-10 check, which the printed algorithm lacks (see
      {!Algo1} for why it is needed). *)
