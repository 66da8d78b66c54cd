open Dpu_kernel

let weak_stack_well_formedness trace =
  (* Count blocked vs released per (node, service): weak WF holds iff
     every queued call was eventually released by a bind. *)
  let pending : (int * string, int) Hashtbl.t = Hashtbl.create 16 in
  let checked = ref 0 in
  List.iter
    (fun (e : Trace.entry) ->
      match e.kind with
      | Trace.Call_blocked svc ->
        incr checked;
        let k = (e.node, svc) in
        Hashtbl.replace pending k (1 + Option.value ~default:0 (Hashtbl.find_opt pending k))
      | Trace.Call_unblocked svc ->
        let k = (e.node, svc) in
        Hashtbl.replace pending k (Option.value ~default:0 (Hashtbl.find_opt pending k) - 1)
      | Trace.Add_module _ | Trace.Remove_module _ | Trace.Bind _ | Trace.Unbind _
      | Trace.Crash | Trace.App _ ->
        ())
    (Trace.entries trace);
  let crashed =
    List.filter_map
      (fun (e : Trace.entry) -> match e.kind with Trace.Crash -> Some e.node | _ -> None)
      (Trace.entries trace)
  in
  let violations =
    (* dpu-lint: allow hashtbl-iter — folded violations are sorted below *)
    Hashtbl.fold
      (fun (node, svc) count acc ->
        if count > 0 && not (List.mem node crashed) then
          Printf.sprintf "%d call(s) to %s still blocked at node %d" count svc node :: acc
        else acc)
      pending []
    |> List.sort String.compare
  in
  Report.make ~property:"weak stack-well-formedness" ~checked:!checked violations

let strong_stack_well_formedness trace =
  let entries = Trace.entries trace in
  let violations =
    List.filter_map
      (fun (e : Trace.entry) ->
        match e.kind with
        | Trace.Call_blocked svc ->
          Some (Printf.sprintf "call to %s blocked at node %d (t=%.3f)" svc e.node e.time)
        | Trace.Add_module _ | Trace.Remove_module _ | Trace.Bind _ | Trace.Unbind _
        | Trace.Call_unblocked _ | Trace.Crash | Trace.App _ ->
          None)
      entries
  in
  let nodes = List.sort_uniq Int.compare (List.map (fun (e : Trace.entry) -> e.node) entries) in
  Report.make ~property:"strong stack-well-formedness" ~checked:(List.length nodes) violations

let crashes trace =
  List.filter_map
    (fun (e : Trace.entry) -> match e.kind with Trace.Crash -> Some e.node | _ -> None)
    (Trace.entries trace)

(* All (node, time) at which a module of [protocol] was bound, and the
   per-node times at which a module of [protocol] was present. *)
let binds_and_adds trace ~protocol =
  let binds = ref [] in
  let adds : (int, float list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (e : Trace.entry) ->
      match e.kind with
      | Trace.Bind (_, m) when String.equal m protocol ->
        binds := (e.node, e.time) :: !binds
      | Trace.Add_module m when String.equal m protocol -> (
        match Hashtbl.find_opt adds e.node with
        | Some l -> l := e.time :: !l
        | None -> Hashtbl.replace adds e.node (ref [ e.time ]))
      | Trace.Add_module _ | Trace.Remove_module _ | Trace.Bind _ | Trace.Unbind _
      | Trace.Call_blocked _ | Trace.Call_unblocked _ | Trace.Crash | Trace.App _ ->
        ())
    (Trace.entries trace);
  (List.rev !binds, adds)

let weak_protocol_operationability trace ~protocol ~nodes =
  let binds, adds = binds_and_adds trace ~protocol in
  let crashed = crashes trace in
  let checked = ref 0 in
  let violations =
    if binds = [] then []
    else
      List.filter_map
        (fun node ->
          if List.mem node crashed then None
          else begin
            incr checked;
            if Hashtbl.mem adds node then None
            else
              Some
                (Printf.sprintf
                   "%s was bound in some stack but never present in stack %d" protocol
                   node)
          end)
        nodes
  in
  Report.make
    ~property:(Printf.sprintf "weak protocol-operationability(%s)" protocol)
    ~checked:!checked violations

let strong_protocol_operationability trace ~protocol ~nodes =
  let binds, adds = binds_and_adds trace ~protocol in
  let crashed = crashes trace in
  let checked = ref 0 in
  let violations =
    List.concat_map
      (fun (bind_node, bind_time) ->
        List.filter_map
          (fun node ->
            if node = bind_node || List.mem node crashed then None
            else begin
              incr checked;
              let present_at_bind_time =
                match Hashtbl.find_opt adds node with
                | None -> false
                | Some times -> List.exists (fun t -> t <= bind_time) !times
              in
              if present_at_bind_time then None
              else
                Some
                  (Printf.sprintf
                     "%s bound at node %d (t=%.3f) but not yet present at node %d"
                     protocol bind_node bind_time node)
            end)
          nodes)
      binds
  in
  Report.make
    ~property:(Printf.sprintf "strong protocol-operationability(%s)" protocol)
    ~checked:!checked violations

let protocols ~initial targets =
  initial :: List.sort_uniq String.compare (List.filter (fun p -> p <> initial) targets)

let check_generic trace ~protocols ~nodes =
  weak_stack_well_formedness trace
  :: List.map (fun protocol -> weak_protocol_operationability trace ~protocol ~nodes) protocols
