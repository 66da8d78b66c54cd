module Int_set = Set.Make (Int)

type window = { mutable floor : int; mutable above : Int_set.t }

type t = (int, window) Hashtbl.t

let create () : t = Hashtbl.create 8

let mem t ~src seq =
  match Hashtbl.find_opt t src with
  | None -> seq < 0
  | Some w -> seq < w.floor || Int_set.mem seq w.above

let add t ~src seq =
  let w =
    match Hashtbl.find_opt t src with
    | Some w -> w
    | None ->
      let w = { floor = 0; above = Int_set.empty } in
      Hashtbl.replace t src w;
      w
  in
  if seq = w.floor then begin
    w.floor <- seq + 1;
    while (not (Int_set.is_empty w.above)) && Int_set.min_elt w.above = w.floor do
      w.above <- Int_set.remove w.floor w.above;
      w.floor <- w.floor + 1
    done
  end
  else if seq > w.floor then w.above <- Int_set.add seq w.above

let floor t ~src = match Hashtbl.find_opt t src with None -> 0 | Some w -> w.floor

let above t ~src =
  match Hashtbl.find_opt t src with None -> 0 | Some w -> Int_set.cardinal w.above
