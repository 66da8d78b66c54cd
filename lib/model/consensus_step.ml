module Int_map = Map.Make (Int)

type ('v, 'd, 'p) t = {
  gen : int;
  prefix : int;
  decided : 'd Int_map.t;
  switch_at : (int * 'p) option;
  pending : 'v Int_map.t;
}

type 'd proposal = Repeat of 'd | Propose_under of int

type ('v, 'p) action =
  | Stale
  | Decided
  | Switch of { generation : int; protocol : 'p }
  | Reissue of { k : int; value : 'v }

let initial =
  { gen = 0; prefix = 0; decided = Int_map.empty; switch_at = None; pending = Int_map.empty }

let propose t ~k v =
  match Int_map.find_opt k t.decided with
  | Some d -> (t, Repeat d)
  | None -> ({ t with pending = Int_map.add k v t.pending }, Propose_under t.gen)

let switch t =
  match t.switch_at with
  | None -> (t, [])
  | Some (k_s, protocol) ->
    let generation = t.gen + 1 in
    (* Re-issue our undecided proposals beyond the switch point (a
       sequential client has none, but a racing proposal is repaired
       here): the analogue of Algorithm 1's lines 15-16. *)
    let reissues =
      Int_map.to_seq_from (k_s + 1) t.pending
      |> Seq.map (fun (k, value) -> Reissue { k; value })
      |> List.of_seq
    in
    ({ t with gen = generation; switch_at = None }, Switch { generation; protocol } :: reissues)

let rec advance decided p = if Int_map.mem p decided then advance decided (p + 1) else p

let decide t ~gen ~k d ~switch:tag =
  if gen <> t.gen then (t, [ Stale ])
  else if Int_map.mem k t.decided then (t, [])
  else begin
    let decided = Int_map.add k d t.decided in
    let switch_at = match (t.switch_at, tag) with None, Some p -> Some (k, p) | s, _ -> s in
    let pending = Int_map.remove k t.pending in
    let t = { t with decided; prefix = advance decided t.prefix; switch_at; pending } in
    (* The switch waits until this stack has accepted a decision for
       every instance up to [k_s]: they keep coming from the old
       implementation, which stays in the stack. *)
    match t.switch_at with
    | Some (k_s, _) when t.prefix <= k_s -> (t, [ Decided ]) (* mutation anchor: prefix defer *)
    | None -> (t, [ Decided ])
    | Some _ ->
      let t, actions = switch t in
      (t, Decided :: actions)
  end
