type bounds = { nodes : int; instances : int; changes : int; max_states : int }

let default_bounds = { nodes = 2; instances = 2; changes = 1; max_states = 4_000_000 }

type variant =
  | Sound
  | No_prefix_defer
  | No_stale_discard
  | No_reissue

let variant_name = function
  | Sound -> "sound (as shipped)"
  | No_prefix_defer -> "switch applied without waiting for the decided prefix"
  | No_stale_discard -> "stale-generation decisions accepted"
  | No_reissue -> "no re-issue of undecided proposals after a switch"

module Step = Consensus_step
module Int_map = Step.Int_map

(* A proposal's value is its proposer; the protocol name is a unit. *)
type node = {
  step : (int, int, unit) Step.t;
  has_request : bool;
  learned : (int * int) list;  (* (k, gen) decisions already processed *)
}

type state = {
  proposals : (int * int * int * bool) list;  (* k, gen, proposer, tagged *)
  decisions : (int * int * int * bool) list;  (* k, gen, value, tagged *)
  nodes : node list;
  changes_left : int;
}

type result = string Explore.result

let pp_result = Explore.pp_result Format.pp_print_string

let set_nth = Explore.set_nth

(* dpu-lint: allow poly-compare — model states are finite int tuples; the polymorphic order is total and stable on them *)
let sorted l = List.sort_uniq compare l

(* A node learns a decision: the shipped step, with the variant's rule
   deleted around it. Returns the updated node, whether it accepted the
   decision, and its re-issued proposals. *)
let learn variant node ~gen ~k ~value ~tagged =
  let gen = if variant = No_stale_discard then node.step.gen else gen in
  let switch = if tagged then Some () else None in
  let step, actions = Step.decide node.step ~gen ~k value ~switch in
  let accepted = List.mem Step.Decided actions in
  let step, actions =
    if variant = No_prefix_defer && accepted then
      let step, switch = Step.switch step in
      (step, actions @ switch)
    else (step, actions)
  in
  let switched = List.exists (function Step.Switch _ -> true | _ -> false) actions in
  let reissues =
    List.filter_map
      (function
        | Step.Reissue { k; value } when variant <> No_reissue -> Some (k, step.gen, value, false)
        | _ -> None)
      actions
  in
  ({ node with step; has_request = node.has_request && not switched }, accepted, reissues)

let successors variant bounds st =
  let acc = ref [] in
  let add label st' = acc := (label, st') :: !acc in
  (* Client proposes its next undecided instance (sequential contract:
     only after accepting everything before it, and not if someone
     else's proposal already settled it). *)
  List.iteri
    (fun i node ->
      let k = node.step.prefix in
      if k < bounds.instances && not (Int_map.mem k node.step.pending) then begin
        let tagged = node.has_request in
        (* [k] is the prefix, so undecided: the step proposes it under
           the current generation. *)
        let gen = node.step.gen in
        let step, _ = Step.propose node.step ~k i in
        add
          (Printf.sprintf "node %d proposes instance %d under gen %d%s" i k gen
             (if tagged then " [change tag]" else ""))
          {
            st with
            nodes = set_nth st.nodes i { node with step };
            proposals = sorted ((k, gen, i, tagged) :: st.proposals);
          }
      end)
    st.nodes;
  (* A change request (gossip collapsed: all layers learn it at once —
     the interesting interleavings are in decisions and learning). *)
  if st.changes_left > 0 then
    add "change requested (gossiped to every stack)"
      {
        st with
        changes_left = st.changes_left - 1;
        nodes = List.map (fun node -> { node with has_request = true }) st.nodes;
      };
  (* An implementation decides an instance: one decision per (k, gen),
     choosing any proposal made under that generation. *)
  List.iter
    (fun (k, g, proposer, tagged) ->
      if not (List.exists (fun (k', g', _, _) -> k' = k && g' = g) st.decisions) then
        add
          (Printf.sprintf "gen-%d implementation decides instance %d := node %d's proposal%s"
             g k proposer
             (if tagged then " [change tag]" else ""))
          { st with decisions = sorted ((k, g, proposer, tagged) :: st.decisions) })
    st.proposals;
  (* A node learns a decision (needs the generation's module: g <= gen). *)
  List.iteri
    (fun i node ->
      List.iter
        (fun (k, g, v, tagged) ->
          if g <= node.step.gen && not (List.mem (k, g) node.learned) then begin
            let node = { node with learned = sorted ((k, g) :: node.learned) } in
            let node', accept, reissues = learn variant node ~gen:g ~k ~value:v ~tagged in
            add
              (Printf.sprintf "node %d learns gen-%d decision of instance %d%s" i g k
                 (if accept then "" else " (discarded)"))
              {
                st with
                nodes = set_nth st.nodes i node';
                proposals = sorted (reissues @ st.proposals);
              }
          end)
        st.decisions)
    st.nodes;
  !acc

let safety st =
  (* Decision agreement: no two nodes accept different values for the
     same instance. *)
  let disagreement =
    List.exists
      (fun (node_a : node) ->
        List.exists
          (fun (node_b : node) ->
            Int_map.exists
              (fun k v ->
                match Int_map.find_opt k node_b.step.decided with
                | Some v' -> v <> v'
                | None -> false)
              node_a.step.decided)
          st.nodes)
      st.nodes
  in
  if disagreement then Some "decision agreement (two stacks accepted different values)"
  else None

let liveness bounds st =
  let complete = List.for_all (fun node -> node.step.prefix = bounds.instances) st.nodes in
  if not complete then Some "completeness (a stack is stuck before the end of the stream)"
  else begin
    let gens = List.map (fun node -> node.step.gen) st.nodes in
    match gens with
    | g :: rest when List.for_all (fun g' -> g' = g) rest -> None
    | _ -> Some "switch agreement (stacks ended in different generations)"
  end

(* Memoise on a canonical view: equal maps can differ in shape. *)
let key st =
  ( st.proposals,
    st.decisions,
    List.map
      (fun { step; has_request; learned } ->
        ( step.gen,
          step.prefix,
          Int_map.bindings step.decided,
          step.switch_at,
          Int_map.bindings step.pending,
          has_request,
          learned ))
      st.nodes,
    st.changes_left )

let check ?(variant = Sound) ?(bounds = default_bounds) () =
  let initial =
    {
      proposals = [];
      decisions = [];
      nodes =
        List.init bounds.nodes (fun _ ->
            { step = Step.initial; has_request = false; learned = [] });
      changes_left = bounds.changes;
    }
  in
  Explore.run ~max_states:bounds.max_states ~key ~successors:(successors variant bounds)
    ~safety
    ~quiescent:(fun _ succs -> succs = [])
    ~liveness:(liveness bounds) initial
