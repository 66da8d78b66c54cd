open Dpu_kernel

type Payload.t += App of Msg.t

let () =
  Payload.register_codec ~tag:"app"
    ~encode:(function
      | App m -> Some (fun w -> Msg.write w m)
      | _ -> None)
    ~decode:(fun r -> App (Msg.read r))
