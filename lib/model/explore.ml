type 'a result =
  | Verified of { states : int; quiescent : int }
  | Violation of { property : string; trace : 'a list; states : int }
  | Bound_exceeded of { states : int }

let pp_result pp_step ppf = function
  | Verified { states; quiescent } ->
    Format.fprintf ppf "verified: %d states explored (%d quiescent), all properties hold"
      states quiescent
  | Violation { property; trace; states } ->
    Format.fprintf ppf "VIOLATION of %s after %d states:@\n" property states;
    List.iteri (fun i a -> Format.fprintf ppf "  %2d. %a@\n" (i + 1) pp_step a) trace
  | Bound_exceeded { states } ->
    Format.fprintf ppf "exploration bound exceeded at %d states" states

let run (type a) ~max_states ~key ~successors ~safety ~quiescent ~liveness initial =
  let exception Found of string * a list in
  let visited = Hashtbl.create 65_536 in
  let states = ref 0 in
  let quiescent_count = ref 0 in
  let exceeded = ref false in
  let rec dfs st path =
    let k = key st in
    if !exceeded || Hashtbl.mem visited k then ()
    else begin
      Hashtbl.replace visited k ();
      incr states;
      if !states > max_states then exceeded := true
      else begin
        (match safety st with
        | Some prop -> raise (Found (prop, List.rev path))
        | None -> ());
        let succs = successors st in
        if quiescent st succs then begin
          incr quiescent_count;
          match liveness st with
          | Some prop -> raise (Found (prop, List.rev path))
          | None -> ()
        end;
        List.iter (fun (label, st') -> dfs st' (label :: path)) succs
      end
    end
  in
  try
    dfs initial [];
    if !exceeded then Bound_exceeded { states = !states }
    else Verified { states = !states; quiescent = !quiescent_count }
  with Found (property, trace) -> Violation { property; trace; states = !states }

let rec set_nth l i v =
  match (l, i) with
  | _ :: rest, 0 -> v :: rest
  | x :: rest, i -> x :: set_nth rest (i - 1) v
  | [], _ -> invalid_arg "set_nth"
