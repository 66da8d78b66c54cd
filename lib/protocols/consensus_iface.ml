open Dpu_kernel

type iid = { epoch : int; k : int }

let iid_compare a b =
  let c = compare a.epoch b.epoch in
  if c <> 0 then c else compare a.k b.k

let pp_iid { epoch; k } = Printf.sprintf "%d:%d" epoch k

let write_iid w { epoch; k } =
  Wire.W.int w epoch;
  Wire.W.int w k

let read_iid r =
  let epoch = Wire.R.int r in
  let k = Wire.R.int r in
  if k < 0 then raise (Wire.Error (Printf.sprintf "instance %d:%d out of range" epoch k));
  { epoch; k }

type Payload.t +=
  | Propose of { iid : iid; value : Payload.t; weight : int }
  | Decide of { iid : iid; value : Payload.t }
  | No_value

let () =
  Payload.register_printer (function
    | Propose { iid; _ } -> Some (Printf.sprintf "consensus.propose %s" (pp_iid iid))
    | Decide { iid; _ } -> Some (Printf.sprintf "consensus.decide %s" (pp_iid iid))
    | No_value -> Some "consensus.no-value"
    | _ -> None)

let () =
  Payload.register_codec ~tag:"consensus"
    ~encode:(function
      | Propose { iid; value; weight } ->
        Some
          (fun w ->
            Wire.W.u8 w 0;
            write_iid w iid;
            Wire.W.str w (Payload.encode_exn value);
            Wire.W.int w weight)
      | Decide { iid; value } ->
        Some
          (fun w ->
            Wire.W.u8 w 1;
            write_iid w iid;
            Wire.W.str w (Payload.encode_exn value))
      | No_value -> Some (fun w -> Wire.W.u8 w 2)
      | _ -> None)
    ~decode:(fun r ->
      match Wire.R.u8 r with
      | 0 ->
        let iid = read_iid r in
        let value = Payload.decode (Wire.R.str r) in
        let weight = Wire.R.int r in
        Propose { iid; value; weight }
      | 1 ->
        let iid = read_iid r in
        let value = Payload.decode (Wire.R.str r) in
        Decide { iid; value }
      | 2 -> No_value
      | c -> raise (Wire.Error (Printf.sprintf "consensus: bad case %d" c)))
