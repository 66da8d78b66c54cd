type mutation =
  | Faithful
  | Fixed_line10
  | No_sn_check
  | No_reissue
  | No_undelivered_removal
  | Retiring
  | Early_retire

let mutation_name = function
  | Faithful -> "faithful (as printed in the paper)"
  | Fixed_line10 -> "fixed: line 10 checks sn = seqNumber"
  | No_sn_check -> "line 18 deleted (no generation check)"
  | No_reissue -> "lines 15-16 deleted (no re-issue)"
  | No_undelivered_removal -> "lines 19-20 deleted (no undelivered removal)"
  | Retiring -> "retire once every live stack has left a generation"
  | Early_retire -> "retire before the stack itself has left it"

(* The variants that run the shipped step, line-10 check included. *)
let shipped = function
  | Fixed_line10 | Retiring | Early_retire -> true
  | Faithful | No_sn_check | No_reissue | No_undelivered_removal -> false

let retiring = function
  | Retiring | Early_retire -> true
  | Faithful | Fixed_line10 | No_sn_check | No_reissue | No_undelivered_removal -> false

type bounds = {
  nodes : int;
  sends : int;
  changes : int;
  crashes : int;
  max_states : int;
}

let default_bounds = { nodes = 2; sends = 2; changes = 1; crashes = 0; max_states = 2_000_000 }

(* An entry of a generation's agreed sequence. Message ids are ints;
   the payload and the [prot] argument are irrelevant to the ordering
   argument (self-replacement), so they are units. *)
type entry = (int, unit, unit) Repl_step.entry

type node_state = {
  step : (int, unit) Repl_step.t;
  cursors : int list;  (* per generation: how much of its sequence we consumed *)
  retired : int list;  (* generations whose stream it stopped consuming, ascending *)
  out : int list;  (* rAdelivered ids, in delivery order *)
  crashed : bool;
}

type state = {
  streams : entry list list;  (* per generation: agreed order (forward) *)
  pending : entry list list;  (* per generation: broadcast, not yet ordered *)
  nodes : node_state list;
  senders : (int * int) list;  (* msg id -> sending node *)
  sends_left : int;
  changes_left : int;
  crashes_left : int;
  next_id : int;
}

type action =
  | Send of { node : int; msg : int }
  | Change of { node : int }
  | Order of { generation : int; what : string }
  | Deliver of { node : int; generation : int; what : string }
  | Retire of { node : int; generation : int }
  | Crash of { node : int }

let entry_to_string : entry -> string = function
  | Data { sn; id; v = () } -> Printf.sprintf "(nil, sn=%d, m%d)" sn id
  | New { sn; protocol = () } -> Printf.sprintf "(newABcast, sn=%d)" sn

let pp_action ppf = function
  | Send { node; msg } -> Format.fprintf ppf "node %d rABcasts m%d" node msg
  | Change { node } -> Format.fprintf ppf "node %d calls changeABcast" node
  | Order { generation; what } ->
    Format.fprintf ppf "generation-%d protocol orders %s" generation what
  | Deliver { node; generation; what } ->
    Format.fprintf ppf "node %d Adelivers %s from generation %d" node what generation
  | Retire { node; generation } -> Format.fprintf ppf "node %d retires generation %d" node generation
  | Crash { node } -> Format.fprintf ppf "node %d crashes" node

type result = action Explore.result

let pp_result = Explore.pp_result pp_action

(* ------------------------------------------------------------------ *)
(* Transition function                                                *)
(* ------------------------------------------------------------------ *)

let set_nth = Explore.set_nth

let nth = List.nth

(* One entry at one node: the shipped step (Algorithm 1 lines 10-21),
   with the mutation's line deleted around it. *)
let deliver_entry mutation node (entry : entry) =
  let sn = node.step.sn in
  let entry : entry =
    match entry with
    (* Line 10 as printed applies every change, whatever its tag. *)
    | New { sn = _; protocol } when not (shipped mutation) -> New { sn; protocol }
    | Data { sn = _; id; v } when mutation = No_sn_check -> Data { sn; id; v }
    | Data _ | New _ -> entry
  in
  let step, actions = Repl_step.deliver ~equal:Int.equal node.step entry in
  let step =
    if mutation = No_undelivered_removal then { step with undelivered = node.step.undelivered }
    else step
  in
  List.fold_left
    (fun (node, reissue) -> function
      | Repl_step.R_deliver { id; v = () } -> ({ node with out = node.out @ [ id ] }, reissue)
      | Reissue e when mutation <> No_reissue -> (node, reissue @ [ e ])
      | Reissue _ | Switch _ | Stale_change _ -> (node, reissue))
    ({ node with step }, []) actions

(* A stack's [sn] counts the changes it applied, each from its own
   change request, so every generation it reaches has a stream. *)
let successors mutation st =
  let acc = ref [] in
  let add action st' = acc := (action, st') :: !acc in
  (* Entries ABcast through generation [gen]'s protocol. *)
  let abcast gen = function
    | [] -> st.pending
    | entries -> set_nth st.pending gen (entries @ nth st.pending gen)
  in
  (* Client sends. *)
  if st.sends_left > 0 then
    List.iteri
      (fun i node ->
        if not node.crashed then begin
          let m = st.next_id in
          let step, entry = Repl_step.broadcast node.step ~id:m () in
          add
            (Send { node = i; msg = m })
            {
              st with
              nodes = set_nth st.nodes i { node with step };
              pending = abcast node.step.sn [ entry ];
              senders = (m, i) :: st.senders;
              sends_left = st.sends_left - 1;
              next_id = st.next_id + 1;
            }
        end)
      st.nodes;
  (* Change requests: ABcast(newABcast, sn) through the current protocol. *)
  if st.changes_left > 0 then
    List.iteri
      (fun i node ->
        if not node.crashed then
          add
            (Change { node = i })
            {
              st with
              pending = abcast node.step.sn [ Repl_step.change node.step () ];
              changes_left = st.changes_left - 1;
            })
      st.nodes;
  (* The generation's ABcast orders one pending entry (any of them). *)
  List.iteri
    (fun g pend ->
      List.iter
        (fun entry ->
          let pend' = List.filter (fun e -> e <> entry) pend in
          add
            (Order { generation = g; what = entry_to_string entry })
            {
              st with
              pending = set_nth st.pending g pend';
              streams = set_nth st.streams g (nth st.streams g @ [ entry ]);
            })
        (* dpu-lint: allow poly-compare — pending entries are int/unit records; the polymorphic order is total and stable on them *)
        (List.sort_uniq compare pend))
    st.pending;
  (* Deliveries: each node consumes each generation's sequence in
     order. A node can only deliver from generation [g] once its
     replacement module has created that generation's module, i.e. when
     [sn >= g] (line 13); older generations keep delivering (unbinding
     does not remove the module, §2) until the stack retires them. *)
  List.iteri
    (fun i node ->
      if not node.crashed then
        List.iteri
          (fun g cursor ->
            let stream = nth st.streams g in
            if g <= node.step.sn && cursor < List.length stream && not (List.mem g node.retired)
            then begin
              let entry = nth stream cursor in
              let node', reissue = deliver_entry mutation node entry in
              let node' = { node' with cursors = set_nth node.cursors g (cursor + 1) } in
              add
                (Deliver { node = i; generation = g; what = entry_to_string entry })
                { st with nodes = set_nth st.nodes i node'; pending = abcast node'.step.sn reissue }
            end)
          node.cursors)
    st.nodes;
  (* Retirement: a stack stops consuming generation [g]'s stream once
     it and every other live stack have left [g] ([seqNumber] > g);
     [Early_retire] drops the stack's own condition. *)
  if retiring mutation then
    List.iteri
      (fun i node ->
        if not node.crashed then
          List.iteri
            (fun g _ ->
              let others_left =
                List.for_all
                  (fun (j, other) -> j = i || other.crashed || other.step.sn > g)
                  (List.mapi (fun j other -> (j, other)) st.nodes)
              in
              if (not (List.mem g node.retired))
                 && (mutation = Early_retire || node.step.sn > g)
                 && others_left
              then
                add
                  (Retire { node = i; generation = g })
                  {
                    st with
                    nodes =
                      set_nth st.nodes i
                        { node with retired = List.sort Int.compare (g :: node.retired) };
                  })
            node.cursors)
      st.nodes;
  (* Crashes. *)
  if st.crashes_left > 0 then begin
    let live = List.length (List.filter (fun node -> not node.crashed) st.nodes) in
    if live > 1 then
      List.iteri
        (fun i node ->
          if not node.crashed then
            add
              (Crash { node = i })
              {
                st with
                nodes = set_nth st.nodes i { node with crashed = true };
                crashes_left = st.crashes_left - 1;
              })
        st.nodes
  end;
  !acc

(* ------------------------------------------------------------------ *)
(* Properties                                                         *)
(* ------------------------------------------------------------------ *)

let rec has_dup = function
  | [] -> false
  | x :: rest -> List.mem x rest || has_dup rest

(* Pairwise order consistency over common messages. *)
let order_consistent out_a out_b =
  let common_a = List.filter (fun m -> List.mem m out_b) out_a in
  let common_b = List.filter (fun m -> List.mem m out_a) out_b in
  common_a = common_b

(* Checked in every reachable state. *)
let safety st =
  let outs = List.map (fun node -> node.out) st.nodes in
  if List.exists has_dup outs then Some "uniform integrity (duplicate delivery)"
  else begin
    let rec pairwise = function
      | a :: rest ->
        if List.for_all (order_consistent a) rest then pairwise rest
        else Some "uniform total order (two stacks disagree)"
      | [] -> None
    in
    pairwise outs
  end

let quiescent st =
  st.sends_left = 0 && st.changes_left = 0
  && List.for_all (fun p -> p = []) st.pending
  && List.for_all
       (fun node ->
         node.crashed
         || List.for_all2
              (fun (g, cursor) stream -> cursor = List.length stream || List.mem g node.retired)
              (List.mapi (fun g cursor -> (g, cursor)) node.cursors)
              st.streams)
       st.nodes

(* Checked in quiescent states only ("eventually" has run out of
   events). *)
let liveness st =
  let live = List.filter (fun node -> not node.crashed) st.nodes in
  (* Validity: a message sent by a live node is delivered by it. *)
  let validity_violation =
    List.exists
      (fun (m, sender) ->
        match List.nth_opt st.nodes sender with
        | Some node -> (not node.crashed) && not (List.mem m node.out)
        | None -> false)
      st.senders
  in
  if validity_violation then Some "validity (live sender never delivered its message)"
  else begin
    (* Uniform agreement: anything delivered anywhere is delivered at
       every live node. *)
    let all_delivered =
      (* dpu-lint: allow poly-compare — deliveries are ints; the polymorphic order is total and stable on them *)
      List.concat_map (fun node -> node.out) st.nodes |> List.sort_uniq compare
    in
    let agreement_violation =
      List.exists
        (fun m -> List.exists (fun node -> not (List.mem m node.out)) live)
        all_delivered
    in
    if agreement_violation then Some "uniform agreement (live stack missing a delivery)"
    else None
  end

let check ?(mutation = Faithful) ?(bounds = default_bounds) () =
  let n_gens = bounds.changes + 1 in
  let initial =
    {
      streams = List.init n_gens (fun _ -> []);
      pending = List.init n_gens (fun _ -> []);
      nodes =
        List.init bounds.nodes (fun _ ->
            {
              step = Repl_step.initial;
              cursors = List.init n_gens (fun _ -> 0);
              retired = [];
              out = [];
              crashed = false;
            });
      senders = [];
      sends_left = bounds.sends;
      changes_left = bounds.changes;
      crashes_left = bounds.crashes;
      next_id = 0;
    }
  in
  Explore.run ~max_states:bounds.max_states ~key:Fun.id
    ~successors:(successors mutation) ~safety
    ~quiescent:(fun st _ -> quiescent st)
    ~liveness initial
