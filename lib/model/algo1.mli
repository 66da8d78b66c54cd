(** Exhaustive bounded model checking of Algorithm 1.

    The trace checkers in [Dpu_props] verify the runs we happened to
    simulate; this module verifies {e every} run within small bounds.
    It abstracts the system at exactly the level of the paper's §5
    proofs:

    - each protocol generation provides atomic broadcast, modelled as a
      shared growing sequence (the agreed order) fed nondeterministically
      from a pending set;
    - each stack consumes every generation's sequence at its own pace
      (old modules keep delivering after being unbound, §2), and every
      node-local transition is the shipped step {!Repl_step}, the one
      [Dpu_core.Repl] runs: [seqNumber], the [undelivered] set, the
      generation check of line 18, the re-issue of lines 15–16;
    - clients broadcast, any stack may request a change, stacks may
      fail-stop;
    - under {!Retiring}, a stack may stop consuming generation [g]'s
      sequence (the [Retire] action) once its own [seqNumber] and every
      other live stack's are past [g]. A quiescent state then counts
      that sequence as consumed, so a retired stack that was still owed
      a delivery from [g] fails validity or agreement.

    The checker enumerates all interleavings of these actions up to the
    given budgets, checking uniform integrity and total order in every
    reachable state and validity + uniform agreement in every quiescent
    state — the mechanised counterpart of §5.2.2, exhaustive instead of
    per-run.

    {b Mutations.} To show each line of the algorithm is load-bearing,
    the model can be run with a line deleted, by rewriting the step's
    input or output around the shipped step (which itself has no
    mutation switch); the checker then returns a minimal
    counterexample trace:
    - [No_sn_check] (drop line 18) — stale-generation deliveries reach
      the application: duplicates / order violations;
    - [No_reissue] (drop lines 15–16) — messages caught by the switch
      are lost: validity fails;
    - [No_undelivered_removal] (drop lines 19–20) — delivered messages
      are re-issued anyway: duplicates.

    {b A finding.} At [changes = 2] the checker produces a
    counterexample against Algorithm 1 {e as printed}: two overlapping
    [changeABcast] requests both enter the generation-0 stream (both
    requesters still had [seqNumber = 0]); a stack that processes the
    two change messages back-to-back skips generation 1 entirely and
    discards (line 18) a message that a slower stack delivered during
    its generation-1 window — uniform agreement fails. The paper's
    §5.2.2 agreement proof silently assumes a change of protocol [sn]
    is ABcast through protocol [sn]; overlapping requests violate that
    assumption. {!Fixed_line10} (discard stale change messages, the
    same filter line 18 applies to data) restores every property at
    the same bounds. It is the shipped step unwrapped: every other
    variant undoes the step's line-10 check by rewriting a change's tag
    to the node's current [seqNumber]. *)

type mutation =
  | Faithful  (** Algorithm 1 exactly as printed *)
  | Fixed_line10
      (** apply a [newABcast] delivery only when its generation tag
          matches [seqNumber] (the symmetric check to line 18) — the
          repair for the overlapping-changes flaw below *)
  | No_sn_check
  | No_reissue
  | No_undelivered_removal
  | Retiring
      (** the shipped step plus the [Retire] action: a stack stops
          consuming generation [g]'s stream once its own [seqNumber]
          and every other live stack's are past [g], as [Dpu_core.Repl]
          removes a superseded module *)
  | Early_retire
      (** [Retiring] without the stack's own condition: it may retire
          the generation it is still in, and never switches *)

val mutation_name : mutation -> string

type bounds = {
  nodes : int;  (** number of stacks (2–3 keeps exploration fast) *)
  sends : int;  (** total client broadcasts *)
  changes : int;  (** total protocol-change requests *)
  crashes : int;  (** fail-stops allowed *)
  max_states : int;  (** exploration cut-off (safety net) *)
}

val default_bounds : bounds
(** 2 nodes, 2 sends, 1 change, 0 crashes, 2M states. *)

type action =
  | Send of { node : int; msg : int }
  | Change of { node : int }
  | Order of { generation : int; what : string }
  | Deliver of { node : int; generation : int; what : string }
  | Retire of { node : int; generation : int }
  | Crash of { node : int }

val pp_action : Format.formatter -> action -> unit

type result = action Explore.result

val check : ?mutation:mutation -> ?bounds:bounds -> unit -> result

val pp_result : Format.formatter -> result -> unit
