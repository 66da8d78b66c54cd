open Dpu_kernel

let protocol_name = "abcast.epoch-buffer"

type counts = { mutable stashed : int; mutable replayed : int }

let k_counts : counts Stack.key = Stack.key ()

let counts stack = Stack.state stack k_counts (fun () -> { stashed = 0; replayed = 0 })

let stashed stack = (counts stack).stashed
let replayed stack = (counts stack).replayed

let requires = [ Service.rp2p; Rbcast.service; Service.consensus; Service.r_abcast ]

let spec =
  Spec.make ~service:(Service.name Service.abcast) ~roles:[ "listener" ]
      (* stash wire traffic tagged with a future generation, replay it
         when the stack reaches that generation *)
    ~capabilities:[ Spec.Buffer_future_epoch ] ()

let install stack =
  Stack.add_module stack ~name:protocol_name ~provides:[] ~requires
    (fun stack _self ->
      let counts = counts stack in
      (* The one count of each: the registry samples the cell. *)
      let register =
        Dpu_obs.Metrics.register_int (Stack.metrics stack) ~labels:(Stack.labels stack)
      in
      register "epoch_buffer_stashed_total" (fun () -> counts.stashed);
      register "epoch_buffer_replayed_total" (fun () -> counts.replayed);
      let epoch = Abcast_iface.epoch stack in
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
                counts.replayed <- counts.replayed + 1;
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
              | Some e when e > !epoch ->
                counts.stashed <- counts.stashed + 1;
                let prev = Option.value ~default:[] (Hashtbl.find_opt stash e) in
                Hashtbl.replace stash e ((svc, p) :: prev)
              | Some _ | None -> ()));
      })
