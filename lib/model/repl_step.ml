type ('id, 'v) t = { sn : int; undelivered : ('id * 'v) list }

type ('id, 'v, 'p) entry =
  | Data of { sn : int; id : 'id; v : 'v }
  | New of { sn : int; protocol : 'p }

type ('id, 'v, 'p) action =
  | R_deliver of { id : 'id; v : 'v }
  | Switch of { generation : int; protocol : 'p }
  | Reissue of ('id, 'v, 'p) entry
  | Stale_change of { sn : int; protocol : 'p }

let initial = { sn = 0; undelivered = [] }

(* Lines 7-9. *)
let broadcast t ~id v =
  ({ t with undelivered = t.undelivered @ [ (id, v) ] }, Data { sn = t.sn; id; v })

(* Lines 5-6. *)
let change t protocol = New { sn = t.sn; protocol }

(* [l] without [id]'s entry: [l] itself when [id] is not in it. *)
let rec remove equal id l =
  match l with
  | [] -> l
  | (id', _) :: rest when equal id id' -> rest
  | x :: rest ->
    let rest' = remove equal id rest in
    if rest' == rest then l else x :: rest'

let deliver ~equal t = function
  (* Line 18: a data entry of another generation is discarded. *)
  | Data { sn; _ } when sn <> t.sn -> (t, []) (* mutation anchor: line 18 *)
  | Data { id; v; _ } ->
    (* Lines 19-21. A re-issued message can be ordered in the old and
       the new generation's stream; only the copy matching [seqNumber]
       gets here, and only its sender holds it in [undelivered]. *)
    ({ t with undelivered = remove equal id t.undelivered }, [ R_deliver { id; v } ])
  | New { sn; protocol } ->
    (* Line 10, with the generation check the printed algorithm lacks:
       a change is applied only if it was ABcast through the current
       protocol, the same filter line 18 applies to data. *)
    if sn <> t.sn then (t, [ Stale_change { sn; protocol } ])
    else begin
      (* Lines 11-16. *)
      let sn = t.sn + 1 in
      ( { t with sn },
        Switch { generation = sn; protocol }
        :: List.map (fun (id, v) -> Reissue (Data { sn; id; v })) t.undelivered )
    end
