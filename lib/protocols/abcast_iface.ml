open Dpu_kernel

type Payload.t +=
  | Broadcast of { size : int; payload : Payload.t }
  | Deliver of { origin : int; payload : Payload.t }

let () =
  Payload.register_codec ~tag:"abcast"
    ~encode:(function
      | Broadcast { size; payload } ->
        Some
          (fun w ->
            Wire.W.u8 w 0;
            Wire.W.int w size;
            Wire.W.str w (Payload.encode_exn payload))
      | Deliver { origin; payload } ->
        Some
          (fun w ->
            Wire.W.u8 w 1;
            Wire.W.int w origin;
            Wire.W.str w (Payload.encode_exn payload))
      | _ -> None)
    ~decode:(fun r ->
      match Wire.R.u8 r with
      | 0 ->
        let size = Wire.R.int r in
        let payload = Payload.decode (Wire.R.str r) in
        Broadcast { size; payload }
      | 1 ->
        let origin = Wire.R.int r in
        let payload = Payload.decode (Wire.R.str r) in
        Deliver { origin; payload }
      | c -> raise (Wire.Error (Printf.sprintf "abcast: bad case %d" c)))

let k_epoch : int ref Stack.key = Stack.key ()

let epoch stack = Stack.state stack k_epoch (fun () -> ref 0)

let current_epoch stack = !(epoch stack)

(* Wire-epoch extractors: each ABcast implementation registers a
   function that recognises its own wire payloads (wrapped in the
   transport indication that carries them) and returns the generation
   tag. [Epoch_buffer] uses this to spot traffic addressed to a
   generation this stack has not yet reached. *)

let epoch_extractors : (Payload.t -> int option) list ref = ref []

let register_wire_epoch f = epoch_extractors := f :: !epoch_extractors

let wire_epoch payload =
  List.find_map (fun f -> f payload) !epoch_extractors
