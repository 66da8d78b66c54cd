type id = { origin : int; seq : int }

type t = { id : id; size : int; body : string }

let id_compare a b =
  let c = compare a.origin b.origin in
  if c <> 0 then c else compare a.seq b.seq

let id_equal a b = id_compare a b = 0

let id_to_string { origin; seq } = Printf.sprintf "%d.%d" origin seq

let compare a b = id_compare a.id b.id

let equal a b = compare a b = 0

let pp ppf t = Format.fprintf ppf "msg(%s,%dB)" (id_to_string t.id) t.size

let make ~origin ~seq ?(size = 4096) body = { id = { origin; seq }; size; body }

let write_id w { origin; seq } =
  Wire.W.int w origin;
  Wire.W.int w seq

let origin_limit = 1 lsl 15

let seq_limit = 1 lsl 32

let read_id r =
  let origin = Wire.R.int r in
  let seq = Wire.R.int r in
  if origin < 0 || origin >= origin_limit || seq < 0 || seq >= seq_limit then
    raise (Wire.Error (Printf.sprintf "message id %d.%d out of range" origin seq));
  { origin; seq }

let write w { id; size; body } =
  write_id w id;
  Wire.W.int w size;
  Wire.W.str w body

let read r =
  let id = read_id r in
  let size = Wire.R.int r in
  let body = Wire.R.str r in
  { id; size; body }

module Id_ord = struct
  type t = id

  let compare = id_compare
end

module Id_map = Map.Make (Id_ord)
module Id_set = Set.Make (Id_ord)

module Self_ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Self_ord)
