(** The consensus *service* interface.

    Two implementations provide it — {!Consensus_ct} (Chandra–Toueg ◇S,
    rotating coordinator) and {!Consensus_paxos} (Paxos, Ω leader) —
    and the consensus replacement layer ([Dpu_core.Repl_consensus], the
    paper's §7 future work / TR [16]) switches between them on the fly.
    Exactly as with atomic broadcast, callers and the replacement
    machinery depend only on this specification.

    Properties every provider must satisfy, per instance:
    - {e Validity}: a decided value was proposed (or is {!No_value},
      possible only when some participant entered with no value);
    - {e Uniform agreement}: no two processes decide differently;
    - {e Uniform integrity}: at most one decision per process;
    - {e Termination}: with a majority of correct processes and
      eventually accurate failure detection, every correct process
      decides. *)

open Dpu_kernel

type iid = { epoch : int; k : int }
(** Instance identifier: [(epoch, k)]. Epochs keep independent streams
    of instances (e.g. different ABcast protocol generations) disjoint
    on the wire. *)

val iid_compare : iid -> iid -> int

val pp_iid : iid -> string

val write_iid : Wire.W.t -> iid -> unit

val read_iid : Wire.R.t -> iid
(** Wire helpers shared by the consensus providers' codecs. [read_iid]
    raises {!Wire.Error} on a negative instance number [k]. *)

type Payload.t +=
  | Propose of { iid : iid; value : Payload.t; weight : int }
      (** call: propose [value] for [iid]. [weight] breaks initial
          (timestamp-0) ties — bigger wins — letting callers prefer,
          e.g., non-empty batches; it never affects safety. It also
          doubles as the value's byte size for the network model.

          Proposing an instance that is already decided repeats its
          [Decide] indication. Proposing [{e; k'}] releases the
          caller's interest in every [{e; k}] with [k < k']: a provider
          may then drop those values, and proposing one of them again
          raises [Invalid_argument]. {!close} releases every instance
          of an epoch. *)
  | Decide of { iid : iid; value : Payload.t }  (** indication *)
  | No_value
      (** estimate of a process that participates before having
          anything to propose; deciding it means "empty decision" *)

(** {1 Closing an epoch} *)

val close : Stack.t -> epoch:int -> unit
(** [stack]'s caller will never propose in [epoch] again: its ABcast
    generation has left the stack. Each provider may then drop a value
    of the epoch once no other member can still ask for it; proposing a
    dropped instance still raises [Invalid_argument]. A direct call to
    the providers' hooks, with no dispatch hop. *)

val on_close : Stack.t -> (int -> unit) -> unit -> unit
(** [on_close stack f] runs [f epoch] at each [close stack ~epoch], in
    registration order, until the returned function is called (a
    provider calls it when it leaves the stack). *)
