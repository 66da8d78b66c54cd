(** The exhaustive explorer both model checkers share: a depth-first
    search with memoisation over every reachable state of a finite
    transition system. *)

type 'a result =
  | Verified of { states : int; quiescent : int }
      (** all reachable states satisfy the properties *)
  | Violation of { property : string; trace : 'a list; states : int }
      (** a counterexample: the labelled steps leading to it *)
  | Bound_exceeded of { states : int }

val pp_result :
  (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a result -> unit
(** Renders a result, one numbered trace step per line. *)

val run :
  max_states:int ->
  key:('s -> 'k) ->
  successors:('s -> ('a * 's) list) ->
  safety:('s -> string option) ->
  quiescent:('s -> ('a * 's) list -> bool) ->
  liveness:('s -> string option) ->
  's ->
  'a result
(** [run … initial] visits every state reachable from [initial] once,
    identifying states by [key] (structural equality). [safety] is
    checked in every state; [liveness] only in states that [quiescent]
    (given the state and its successors) declares final. The first
    property violated stops the search with the labels leading to it;
    more than [max_states] states yield [Bound_exceeded]. *)

val set_nth : 'a list -> int -> 'a -> 'a list
(** [set_nth l i v] is [l] with its [i]-th element replaced by [v]. *)
