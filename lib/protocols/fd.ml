open Dpu_kernel

type Payload.t +=
  | Suspect of int
  | Restore of int

type Payload.t += Wire_heartbeat of { src : int }

let () =
  Payload.register_codec ~tag:"fd"
    ~encode:(function
      | Suspect n ->
        Some
          (fun w ->
            Wire.W.u8 w 0;
            Wire.W.int w n)
      | Restore n ->
        Some
          (fun w ->
            Wire.W.u8 w 1;
            Wire.W.int w n)
      | Wire_heartbeat { src } ->
        Some
          (fun w ->
            Wire.W.u8 w 2;
            Wire.W.int w src)
      | _ -> None)
    ~decode:(fun r ->
      match Wire.R.u8 r with
      | 0 -> Suspect (Wire.R.int r)
      | 1 -> Restore (Wire.R.int r)
      | 2 -> Wire_heartbeat { src = Wire.R.int r }
      | c -> raise (Wire.Error (Printf.sprintf "fd: bad case %d" c)))

type config = {
  period_ms : float;
  timeout_ms : float;
  timeout_increment_ms : float;
}

let default_config = { period_ms = 20.0; timeout_ms = 100.0; timeout_increment_ms = 50.0 }

let protocol_name = "fd"

let heartbeat_size = 32

(* The current install's suspicion array, so tests can observe it
   without plumbing handles. *)
let k_suspected : bool array ref Stack.key = Stack.key ()

let suspicion stack = Stack.state stack k_suspected (fun () -> ref [||])

let suspects stack =
  let suspected = !(suspicion stack) in
  List.filter (fun i -> suspected.(i)) (List.init (Array.length suspected) Fun.id)

let install ?(config = default_config) ~n stack =
  let me = Stack.node stack in
  Stack.add_module stack ~name:protocol_name ~provides:[ Service.fd ]
    ~requires:[ Service.net ]
    (fun stack _self ->
      let last_seen = Array.make n 0.0 in
      let timeout = Array.make n config.timeout_ms in
      let suspected = Array.make n false in
      suspicion stack := suspected;
      let now () = Stack.now stack in
      let beat () =
        for dst = 0 to n - 1 do
          if dst <> me then
            Stack.call stack Service.net
              (Udp.Send { dst; size = heartbeat_size; payload = Wire_heartbeat { src = me } })
        done
      in
      let check () =
        let t = now () in
        for peer = 0 to n - 1 do
          if peer <> me && (not suspected.(peer)) && t -. last_seen.(peer) > timeout.(peer)
          then begin
            suspected.(peer) <- true;
            Stack.indicate stack Service.fd (Suspect peer)
          end
        done
      in
      let on_heartbeat src =
        last_seen.(src) <- now ();
        if suspected.(src) then begin
          (* False suspicion: restore and be more patient next time. *)
          suspected.(src) <- false;
          timeout.(src) <- timeout.(src) +. config.timeout_increment_ms;
          Stack.indicate stack Service.fd (Restore src)
        end
      in
      let timers = ref [] in
      {
        Stack.default_handlers with
        on_start =
          (fun () ->
            let t0 = now () in
            Array.fill last_seen 0 n t0;
            beat ();
            timers :=
              [
                Stack.periodic stack ~period:config.period_ms beat;
                Stack.periodic stack ~period:(config.period_ms /. 2.0) check;
              ]);
        on_stop = (fun () -> List.iter Dpu_runtime.Clock.cancel !timers);
        handle_indication =
          (fun svc p ->
            match p with
            | Udp.Recv { src = _; payload = Wire_heartbeat { src } }
              when Service.equal svc Service.net ->
              on_heartbeat src
            | _ -> ());
      })

let spec =
  Spec.make ~service:(Service.name Service.fd) ~roles:[ "monitor" ]
    ~kinds:[ Spec.kind ~role:"monitor" "fd.heartbeat" ]
    ~transitions:
      [
        Spec.t "idle" (Spec.Emit "fd.heartbeat") "beating";
        Spec.t "beating" (Spec.Recv "fd.heartbeat") "idle";
      ]
    ()
(* pure control traffic: losing a heartbeat costs a suspicion, never a payload *)

let register ?config system =
  let n = System.n system in
  Registry.register (System.registry system) ~name:protocol_name
    ~provides:[ Service.fd ] ~requires:[ Service.net ] ~spec
    (fun stack -> install ?config ~n stack)
