open Dpu_kernel

type order = { gseq : int; origin : int; size : int; payload : Payload.t }

type Payload.t +=
  | Wire_order of { epoch : int; order : order }
  | Wire_token of { epoch : int; era : int; next_gseq : int }
      (* [era] counts token regenerations: a regenerated token carries a
         higher era, and stale-era tokens (the delayed original) are
         dropped on receipt, so regeneration cannot leave two tokens
         circulating *)
  | Wire_repair_req of { epoch : int; gseq : int; from : int }
  | Wire_repair of { epoch : int; order : order }
  | Wire_hello of { epoch : int; from : int }
      (* module instances of one epoch discover each other; the token is
         only passed to peers known to be up, so a module created
         mid-run by a dynamic replacement never swallows the token *)

let () =
  let write_order w { gseq; origin; size; payload } =
    Wire.W.int w gseq;
    Wire.W.int w origin;
    Wire.W.int w size;
    Wire.W.str w (Payload.encode_exn payload)
  in
  let read_order r =
    let gseq = Wire.R.int r in
    let origin = Wire.R.int r in
    let size = Wire.R.int r in
    let payload = Payload.decode (Wire.R.str r) in
    { gseq; origin; size; payload }
  in
  Payload.register_codec ~tag:"token-abcast"
    ~encode:(function
      | Wire_order { epoch; order } ->
        Some
          (fun w ->
            Wire.W.u8 w 0;
            Wire.W.int w epoch;
            write_order w order)
      | Wire_token { epoch; era; next_gseq } ->
        Some
          (fun w ->
            Wire.W.u8 w 1;
            Wire.W.int w epoch;
            Wire.W.int w era;
            Wire.W.int w next_gseq)
      | Wire_repair_req { epoch; gseq; from } ->
        Some
          (fun w ->
            Wire.W.u8 w 2;
            Wire.W.int w epoch;
            Wire.W.int w gseq;
            Wire.W.int w from)
      | Wire_repair { epoch; order } ->
        Some
          (fun w ->
            Wire.W.u8 w 3;
            Wire.W.int w epoch;
            write_order w order)
      | Wire_hello { epoch; from } ->
        Some
          (fun w ->
            Wire.W.u8 w 4;
            Wire.W.int w epoch;
            Wire.W.int w from)
      | _ -> None)
    ~decode:(fun r ->
      match Wire.R.u8 r with
      | 0 ->
        let epoch = Wire.R.int r in
        let order = read_order r in
        Wire_order { epoch; order }
      | 1 ->
        let epoch = Wire.R.int r in
        let era = Wire.R.int r in
        let next_gseq = Wire.R.int r in
        Wire_token { epoch; era; next_gseq }
      | 2 ->
        let epoch = Wire.R.int r in
        let gseq = Wire.R.int r in
        let from = Wire.R.int r in
        Wire_repair_req { epoch; gseq; from }
      | 3 ->
        let epoch = Wire.R.int r in
        let order = read_order r in
        Wire_repair { epoch; order }
      | 4 ->
        let epoch = Wire.R.int r in
        let from = Wire.R.int r in
        Wire_hello { epoch; from }
      | c -> raise (Wire.Error (Printf.sprintf "token-abcast: bad case %d" c)))

let () =
  Abcast_iface.register_wire_epoch (function
    | Rp2p.Recv
        {
          payload =
            ( Wire_order { epoch; _ }
            | Wire_token { epoch; _ }
            | Wire_repair_req { epoch; _ }
            | Wire_repair { epoch; _ }
            | Wire_hello { epoch; _ } );
          _;
        } ->
      Some epoch
    | _ -> None)

type config = { regen_timeout_ms : float; repair_timeout_ms : float }

let default_config = { regen_timeout_ms = 500.0; repair_timeout_ms = 50.0 }

let protocol_name = "abcast.token"

let header_size = 48
let token_size = 48

let install ?(config = default_config) ~n stack =
  let me = Stack.node stack in
  let epoch = Abcast_iface.current_epoch stack in
  Stack.add_module stack ~name:protocol_name ~provides:[ Service.abcast ]
    ~requires:[ Service.rp2p; Service.fd ]
    (fun stack _self ->
      let suspected = Array.make n false in
      let ready = Array.make n false in
      ready.(me) <- true;
      let pending : (int * Payload.t) Queue.t = Queue.create () in
      (* All orders ever seen, for delivery and gap repair. *)
      let orders : (int, order) Hashtbl.t = Hashtbl.create 256 in
      let next_expected = ref 0 in
      let max_gseq_seen = ref (-1) in
      let holding = ref false in
      let held_next = ref 0 in  (* next gseq while self-holding *)
      let era = ref 0 in  (* regeneration era of the token we hold/pass *)
      let max_era_seen = ref 0 in
      let last_activity = ref (Stack.now stack) in
      let repair_asked : (int, unit) Hashtbl.t = Hashtbl.create 16 in
      let timers = ref [] in
      let now () = Stack.now stack in
      let send ~dst ~size payload =
        Stack.call stack Service.rp2p (Rp2p.Send { dst; size; payload })
      in
      let send_all ~size payload =
        for dst = 0 to n - 1 do
          if dst <> me then send ~dst ~size payload
        done
      in
      let next_holder () =
        (* First ready, unsuspected node after me on the ring; fall back
           to self when no peer is known to be up yet. *)
        let rec probe i =
          if i >= n then me
          else
            let cand = (me + i) mod n in
            if suspected.(cand) || not ready.(cand) then probe (i + 1) else cand
        in
        probe 1
      in
      let deliver_ready () =
        let continue = ref true in
        while !continue do
          match Hashtbl.find_opt orders !next_expected with
          | None -> continue := false
          | Some o ->
            incr next_expected;
            Stack.indicate stack Service.abcast
              (Abcast_iface.Deliver { origin = o.origin; payload = o.payload })
        done
      in
      let record_order o =
        if not (Hashtbl.mem orders o.gseq) then begin
          Hashtbl.replace orders o.gseq o;
          if o.gseq > !max_gseq_seen then max_gseq_seen := o.gseq;
          deliver_ready ()
        end
      in
      let rec hold_token next_gseq =
        last_activity := now ();
        let gseq = ref next_gseq in
        while not (Queue.is_empty pending) do
          let size, payload = Queue.pop pending in
          let o = { gseq = !gseq; origin = me; size; payload } in
          incr gseq;
          record_order o;
          send_all ~size:(size + header_size) (Wire_order { epoch; order = o })
        done;
        let dst = next_holder () in
        if dst = me then begin
          (* Alone (or every peer suspected/not yet up): keep the token
             and retry later; a hello releases it immediately. *)
          holding := true;
          held_next := !gseq;
          ignore
            (Stack.after stack ~delay:config.repair_timeout_ms (fun () ->
                 if !holding then begin
                   holding := false;
                   hold_token !held_next
                 end)
              : Dpu_runtime.Clock.timer)
        end
        else begin
          holding := false;
          send ~dst ~size:token_size (Wire_token { epoch; era = !era; next_gseq = !gseq })
        end
      in
      let on_token token_era next_gseq =
        last_activity := now ();
        if token_era > !max_era_seen then max_era_seen := token_era;
        (* A token from a superseded era is the delayed original of a
           regeneration: drop it. *)
        if token_era >= !max_era_seen then begin
          era := token_era;
          hold_token next_gseq
        end
      in
      let check_token_loss () =
        if
          now () -. !last_activity > config.regen_timeout_ms
          && (not !holding)
          (* lowest-id unsuspected node regenerates *)
          &&
          let rec lowest i = if suspected.(i) then lowest (i + 1) else i in
          lowest 0 = me
        then begin
          last_activity := now ();
          max_era_seen := !max_era_seen + 1;
          era := !max_era_seen;
          Stack.app_event stack ~tag:"token.regen"
            (fun () -> Printf.sprintf "e%d era=%d next=%d" epoch !era (!max_gseq_seen + 1)) ();
          hold_token (!max_gseq_seen + 1)
        end
      in
      let check_gaps () =
        (* Ask peers for any gseq between next_expected and the max we
           have seen that is still missing. *)
        if !max_gseq_seen >= !next_expected then
          for g = !next_expected to !max_gseq_seen do
            if (not (Hashtbl.mem orders g)) && not (Hashtbl.mem repair_asked g) then begin
              Hashtbl.replace repair_asked g ();
              send_all ~size:header_size (Wire_repair_req { epoch; gseq = g; from = me })
            end
          done
      in
      let on_hello from =
        if not ready.(from) then begin
          ready.(from) <- true;
          (* Mutual discovery: the peer may have started before us and
             missed our hello. *)
          send ~dst:from ~size:token_size (Wire_hello { epoch; from = me });
          if !holding then begin
            holding := false;
            hold_token !held_next
          end
        end
      in
      {
        on_start =
          (fun () ->
            send_all ~size:token_size (Wire_hello { epoch; from = me });
            if me = 0 then
              (* Initial token: injected at node 0 shortly after start. *)
              ignore
                (Stack.after stack ~delay:0.1 (fun () -> hold_token 0)
                  : Dpu_runtime.Clock.timer);
            timers :=
              [
                Stack.periodic stack ~period:config.regen_timeout_ms check_token_loss;
                Stack.periodic stack ~period:config.repair_timeout_ms check_gaps;
              ]);
        on_stop = (fun () -> List.iter Dpu_runtime.Clock.cancel !timers);
        handle_call =
          (fun _svc p ->
            match p with
            | Abcast_iface.Broadcast { size; payload } -> Queue.add (size, payload) pending
            | _ -> ());
        handle_indication =
          (fun svc p ->
            if Service.equal svc Service.rp2p then
              match p with
              | Rp2p.Recv { src = _; payload = Wire_order { epoch = e; order } }
                when e = epoch ->
                last_activity := now ();
                record_order order
              | Rp2p.Recv { src = _; payload = Wire_token { epoch = e; era; next_gseq } }
                when e = epoch ->
                on_token era next_gseq
              | Rp2p.Recv { src = _; payload = Wire_repair_req { epoch = e; gseq; from } }
                when e = epoch -> (
                match Hashtbl.find_opt orders gseq with
                | Some o ->
                  send ~dst:from ~size:(o.size + header_size) (Wire_repair { epoch; order = o })
                | None -> ())
              | Rp2p.Recv { src = _; payload = Wire_repair { epoch = e; order } }
                when e = epoch ->
                record_order order
              | Rp2p.Recv { src = _; payload = Wire_hello { epoch = e; from } }
                when e = epoch ->
                on_hello from
              | _ -> ()
            else if Service.equal svc Service.fd then
              match p with
              | Fd.Suspect q -> if q < n then suspected.(q) <- true
              | Fd.Restore q -> if q < n then suspected.(q) <- false
              | _ -> ());
      })

let spec =
  Spec.make ~service:(Service.name Service.abcast)
    ~roles:[ "holder"; "member" ]
    ~kinds:
      [
        Spec.kind ~role:"holder" "token.token";
        Spec.kind ~payload:true ~role:"holder" "token.order";
        Spec.kind ~payload:true ~role:"member" "token.repair";
      ]
    ~transitions:
      [
        Spec.t "idle" (Spec.Emit "token.token") "passing";
        Spec.t "passing" (Spec.Recv "token.token") "idle";
        Spec.t "idle" Spec.Accept "queued";
        Spec.t "queued" (Spec.Emit "token.order") "ordered";
        Spec.t "ordered" (Spec.Recv "token.order") "ready";
        Spec.t "ready" Spec.Deliver "idle";
      ]
    ~obligations:
      [ Spec.Total_order; Spec.Exactly_once; Spec.Validity; Spec.Gap_free_gseq ]
    ~capabilities:[ Spec.Epoch_tagged_wire ] ()

let register ?config system =
  let n = System.n system in
  Registry.register (System.registry system) ~name:protocol_name
    ~provides:[ Service.abcast ]
    ~requires:[ Service.rp2p; Service.fd ] ~spec
    (fun stack -> install ?config ~n stack)
