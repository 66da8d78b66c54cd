open Dpu_kernel

let protocol_name = "abcast.epoch-buffer"

let k_stashed = "epoch-buffer.stashed"
let k_replayed = "epoch-buffer.replayed"

let stashed stack = Stack.get_env stack k_stashed ~default:0
let replayed stack = Stack.get_env stack k_replayed ~default:0

let bump stack key = Stack.set_env stack key (Stack.get_env stack key ~default:0 + 1)

let requires = [ Service.rp2p; Rbcast.service; Service.consensus; Service.r_abcast ]

let spec =
  Spec.make ~service:(Service.name Service.abcast) ~roles:[ "listener" ]
      (* stash wire traffic tagged with a future generation, replay it
         when the stack reaches that generation *)
    ~capabilities:[ Spec.Buffer_future_epoch ] ()

let install stack =
  Stack.add_module stack ~name:protocol_name ~provides:[] ~requires
    (fun stack _self ->
      let module M = Dpu_obs.Metrics in
      let labels = Stack.labels stack in
      let m_stashed = M.counter (Stack.metrics stack) ~labels "epoch_buffer_stashed_total" in
      let m_replayed =
        M.counter (Stack.metrics stack) ~labels "epoch_buffer_replayed_total"
      in
      (* epoch -> stashed (service, payload) in arrival order (reversed) *)
      let stash : (int, (Service.t * Payload.t) list) Hashtbl.t = Hashtbl.create 4 in
      let replay_up_to generation =
        let ready =
          (* dpu-lint: allow hashtbl-iter — folded epochs are sorted below *)
          Hashtbl.fold
            (fun e msgs acc -> if e <= generation then (e, msgs) :: acc else acc)
            stash []
          |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
        in
        List.iter
          (fun (e, msgs) ->
            Hashtbl.remove stash e;
            List.iter
              (fun (svc, payload) ->
                bump stack k_replayed;
                M.incr m_replayed;
                Stack.indicate stack svc payload)
              (List.rev msgs))
          ready
      in
      {
        Stack.default_handlers with
        handle_indication =
          (fun svc p ->
            match p with
            | Repl_iface.Protocol_changed { generation; protocol = _ }
              when Service.equal svc Service.r_abcast ->
              replay_up_to generation
            | _ -> (
              match Abcast_iface.wire_epoch p with
              | Some e when e > Abcast_iface.current_epoch stack ->
                bump stack k_stashed;
                M.incr m_stashed;
                let prev = Option.value ~default:[] (Hashtbl.find_opt stash e) in
                Hashtbl.replace stash e ((svc, p) :: prev)
              | Some _ | None -> ()));
      })
