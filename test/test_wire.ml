(* Wire-format coverage: every shipped payload has a printer (no
   "<payload>" fallback anywhere) and a codec that round-trips;
   truncated, trailing-garbage and foreign frames are rejected. *)

open Dpu_kernel
module P = Dpu_protocols
module Ci = P.Consensus_iface

let check = Alcotest.check

let iid = { Ci.epoch = 1; k = 4 }

let mid = { Msg.origin = 1; seq = 42 }

let msg = Msg.make ~origin:1 ~seq:42 ~size:64 "hello"

let app = Dpu_core.App_msg.App msg

let item = { P.Abcast_ct.id = mid; size = 64; payload = app }

let order = { P.Abcast_token.gseq = 9; origin = 2; size = 64; payload = app }

(* One sample per constructor of every shipped payload type. *)
let samples : (string * Payload.t) list =
  [
    ("unit", Payload.Unit);
    ("app", app);
    ("udp.send", P.Udp.Send { dst = 2; size = 77; payload = app });
    ("udp.recv", P.Udp.Recv { src = 1; payload = Payload.Unit });
    ("rbcast.bcast", P.Rbcast.Bcast { size = 77; payload = app });
    ("rbcast.deliver", P.Rbcast.Deliver { origin = 3; payload = app });
    ("rbcast.wire", P.Rbcast.Wire { origin = 3; seq = 7; size = 77; payload = app });
    ("rp2p.send", P.Rp2p.Send { dst = 0; size = 12; payload = app });
    ("rp2p.recv", P.Rp2p.Recv { src = 5; payload = app });
    ( "rp2p.data",
      P.Rp2p.Wire_data { src = 5; seq = 8; attempt = 2; size = 12; payload = app } );
    ("rp2p.ack", P.Rp2p.Wire_ack { src = 5; seq = 8; attempt = 2 });
    ("fd.suspect", P.Fd.Suspect 3);
    ("fd.restore", P.Fd.Restore 1);
    ("fd.heartbeat", P.Fd.Wire_heartbeat { src = 2 });
    ("consensus.propose", Ci.Propose { iid; value = app; weight = 2 });
    ("consensus.decide", Ci.Decide { iid; value = app });
    ("consensus.no-value", Ci.No_value);
    ( "ct.estimate",
      P.Consensus_ct.W_estimate
        { iid; round = 3; from = 1; value = app; ts = 2; weight = 1 } );
    ("ct.propose", P.Consensus_ct.W_propose { iid; round = 3; value = app; weight = 1 });
    ("ct.ack", P.Consensus_ct.W_ack { iid; round = 3; from = 1 });
    ("ct.nack", P.Consensus_ct.W_nack { iid; round = 3; from = 1 });
    ("ct.decide", P.Consensus_ct.W_decide { iid; value = app });
    ("ct.wakeup", P.Consensus_ct.W_wakeup { iid });
    ("ct.released", P.Consensus_ct.W_released { iid });
    ("paxos.wakeup", P.Consensus_paxos.P_wakeup { iid });
    ("paxos.offer", P.Consensus_paxos.P_offer { iid; value = app; weight = 1; from = 0 });
    ("paxos.prepare", P.Consensus_paxos.P_prepare { iid; ballot = 12; from = 0 });
    ( "paxos.promise-none",
      P.Consensus_paxos.P_promise { iid; ballot = 12; accepted = None; from = 0 } );
    ( "paxos.promise-some",
      P.Consensus_paxos.P_promise
        { iid; ballot = 12; accepted = Some (9, app, 2); from = 0 } );
    ( "paxos.accept",
      P.Consensus_paxos.P_accept { iid; ballot = 12; value = app; weight = 2; from = 0 } );
    ("paxos.accepted", P.Consensus_paxos.P_accepted { iid; ballot = 12; from = 3 });
    ("paxos.decide", P.Consensus_paxos.P_decide { iid; value = app; weight = 2 });
    ("abcast.broadcast", P.Abcast_iface.Broadcast { size = 77; payload = app });
    ("abcast.deliver", P.Abcast_iface.Deliver { origin = 3; payload = app });
    ("ct-abcast.batch", P.Abcast_ct.Batch [ item; item ]);
    ("ct-abcast.batch-empty", P.Abcast_ct.Batch []);
    ("ct-abcast.disseminate", P.Abcast_ct.Disseminate { epoch = 2; item });
    ( "seq-abcast.req",
      P.Abcast_seq.Wire_req { epoch = 2; id = mid; size = 77; payload = app } );
    ( "seq-abcast.order",
      P.Abcast_seq.Wire_order
        { epoch = 2; gseq = 4; origin = 1; size = 77; payload = app } );
    ( "seq-abcast.order-batch",
      P.Abcast_seq.Wire_order_batch
        { epoch = 2; first_gseq = 4; orders = [ (1, 77, app); (0, 12, app) ] } );
    ("token.order", P.Abcast_token.Wire_order { epoch = 2; order });
    ("token.token", P.Abcast_token.Wire_token { epoch = 2; era = 1; next_gseq = 10 });
    ("token.repair-req", P.Abcast_token.Wire_repair_req { epoch = 2; gseq = 4; from = 1 });
    ("token.repair", P.Abcast_token.Wire_repair { epoch = 2; order });
    ("token.hello", P.Abcast_token.Wire_hello { epoch = 2; from = 1 });
    ("gm.join", P.Gm.Join 2);
    ("gm.leave", P.Gm.Leave 0);
    ("gm.view", P.Gm.View { P.Gm.id = 3; members = [ 0; 1; 2 ] });
    ("gm.change-join", P.Gm.Gm_change { op = P.Gm.Op_join; target = 2 });
    ("gm.change-leave", P.Gm.Gm_change { op = P.Gm.Op_leave; target = 2 });
    ("gm.change-exclude", P.Gm.Gm_change { op = P.Gm.Op_exclude; target = 2 });
    ("r-abcast.broadcast", P.Repl_iface.R_broadcast { size = 77; payload = app });
    ("r-abcast.deliver", P.Repl_iface.R_deliver { origin = 3; payload = app });
    ("r-abcast.change", P.Repl_iface.Change_abcast "abcast.seq");
    ( "r-abcast.changed",
      P.Repl_iface.Protocol_changed { generation = 1; protocol = "abcast.seq" } );
    ("repl.data", Dpu_core.Repl.A_data { sn = 7; id = mid; size = 77; payload = app });
    ("repl.new", Dpu_core.Repl.A_new { sn = 7; protocol = "abcast.token" });
    ("repl-consensus.change", Dpu_core.Repl_consensus.Change_consensus "consensus.paxos");
    ( "repl-consensus.changed",
      Dpu_core.Repl_consensus.Consensus_changed
        { generation = 1; protocol = "consensus.paxos" } );
    ( "repl-consensus.wrapped-none",
      Dpu_core.Repl_consensus.Wrapped { value = app; switch = None } );
    ( "repl-consensus.wrapped-some",
      Dpu_core.Repl_consensus.Wrapped { value = app; switch = Some "consensus.paxos" } );
    ( "repl-consensus.request",
      Dpu_core.Repl_consensus.Wire_request { protocol = "consensus.paxos" } );
    ( "maestro.data",
      Dpu_baselines.Maestro.M_data { gen = 1; id = mid; size = 77; payload = app } );
    ("maestro.switch", Dpu_baselines.Maestro.M_switch { gen = 1; protocol = "abcast.seq" });
    ( "graceful.data",
      Dpu_baselines.Graceful.G_data { gen = 1; id = mid; size = 77; payload = app } );
    ("graceful.point", Dpu_baselines.Graceful.G_point { gen = 1; protocol = "abcast.seq" });
    ( "graceful.prepare",
      Dpu_baselines.Graceful.C_prepare { gen = 1; protocol = "abcast.seq"; initiator = 0 }
    );
    ("graceful.prepared", Dpu_baselines.Graceful.C_prepared { gen = 1; from = 2; ok = true });
    ("graceful.activated", Dpu_baselines.Graceful.C_activated { gen = 1; from = 2 });
  ]

(* ------------------------------------------------------------------ *)
(* Round-trips                                                        *)
(* ------------------------------------------------------------------ *)

let frame_tag frame =
  let taglen = Char.code frame.[0] in
  String.sub frame 1 taglen

let test_roundtrip_every_sample () =
  List.iter
    (fun (label, p) ->
      match Payload.encode p with
      | None -> Alcotest.failf "%s: no codec" label
      | Some frame ->
        let q = Payload.decode frame in
        check Alcotest.string (label ^ " re-encodes identically") frame
          (Payload.encode_exn q))
    samples

let test_every_registered_codec_exercised () =
  let covered =
    List.sort_uniq String.compare
      (List.map (fun (_, p) -> frame_tag (Payload.encode_exn p)) samples)
  in
  check
    Alcotest.(list string)
    "samples cover every registered tag" (Payload.registered_tags ()) covered

(* ------------------------------------------------------------------ *)
(* Rejection: truncation, trailing garbage, unknown frames            *)
(* ------------------------------------------------------------------ *)

let expect_reject label s =
  match Payload.decode s with
  | exception Payload.Decode_error _ -> ()
  | _ -> Alcotest.failf "%s: bogus frame decoded" label

let test_truncated_frames_rejected () =
  List.iter
    (fun (label, p) ->
      let frame = Payload.encode_exn p in
      for cut = 0 to String.length frame - 1 do
        expect_reject
          (Printf.sprintf "%s cut to %d bytes" label cut)
          (String.sub frame 0 cut)
      done)
    samples

let test_garbage_frames_rejected () =
  List.iter
    (fun (label, p) ->
      expect_reject (label ^ " + trailing byte") (Payload.encode_exn p ^ "\x00"))
    samples;
  expect_reject "empty" "";
  expect_reject "unknown tag" "\x03zzz";
  expect_reject "taglen beyond end" "\xff\xff\xff";
  expect_reject "all zeros" (String.make 16 '\x00')

(* Ids outside the range the run record packs, and negative instance
   numbers, are rejected at the wire: a hostile frame never makes
   [Collector.record_*] raise or a consensus round have a negative
   coordinator. The encoders write any value; the decoders refuse. *)
let test_out_of_range_ids_rejected () =
  let id_reader origin seq =
    let w = Wire.W.create () in
    Wire.W.int w origin;
    Wire.W.int w seq;
    Wire.R.of_string (Wire.W.contents w)
  in
  let top = Msg.origin_limit - 1 and last = Msg.seq_limit - 1 in
  List.iter
    (fun (origin, seq) ->
      check Alcotest.bool
        (Printf.sprintf "id %d.%d read back" origin seq)
        true
        (Msg.id_equal { Msg.origin; seq } (Msg.read_id (id_reader origin seq))))
    [ (0, 0); (top, last) ];
  List.iter
    (fun (origin, seq) ->
      match Msg.read_id (id_reader origin seq) with
      | exception Wire.Error _ -> ()
      | _ -> Alcotest.failf "id %d.%d accepted" origin seq)
    [ (-1, 0); (Msg.origin_limit, 0); (0, -1); (0, Msg.seq_limit); (min_int, max_int) ];
  let disseminate id = P.Abcast_ct.Disseminate { epoch = 0; item = { item with id } } in
  let edge = Payload.encode_exn (disseminate { Msg.origin = top; seq = last }) in
  check Alcotest.string "ct-abcast id at the bounds round-trips" edge
    (Payload.encode_exn (Payload.decode edge));
  expect_reject "ct-abcast disseminate, origin 2^15"
    (Payload.encode_exn (disseminate { Msg.origin = Msg.origin_limit; seq = 0 }));
  expect_reject "ct-abcast batch, seq -1"
    (Payload.encode_exn
       (P.Abcast_ct.Batch [ item; { item with id = { Msg.origin = 0; seq = -1 } } ]));
  expect_reject "ct.wakeup, k = -1"
    (Payload.encode_exn (P.Consensus_ct.W_wakeup { iid = { Ci.epoch = 0; k = -1 } }))

(* ------------------------------------------------------------------ *)
(* Envelope                                                           *)
(* ------------------------------------------------------------------ *)

let test_envelope_roundtrip () =
  List.iter
    (fun (label, p) ->
      let sealed = Payload.Envelope.seal ~src:2 ~service:"dpu" ~generation:7 p in
      let info, q = Payload.Envelope.open_ sealed in
      check Alcotest.int (label ^ " src") 2 info.Payload.Envelope.src;
      check Alcotest.string (label ^ " service") "dpu" info.Payload.Envelope.service;
      check Alcotest.int (label ^ " generation") 7 info.Payload.Envelope.generation;
      check Alcotest.string (label ^ " payload survives")
        (Payload.encode_exn p) (Payload.encode_exn q))
    samples

let expect_reject_envelope label s =
  match Payload.Envelope.open_ s with
  | exception Payload.Decode_error _ -> ()
  | _ -> Alcotest.failf "%s: bogus envelope opened" label

let test_envelope_rejection () =
  let sealed = Payload.Envelope.seal ~src:2 ~service:"dpu" ~generation:7 app in
  for cut = 0 to String.length sealed - 1 do
    expect_reject_envelope
      (Printf.sprintf "cut to %d bytes" cut)
      (String.sub sealed 0 cut)
  done;
  expect_reject_envelope "trailing garbage" (sealed ^ "\x00");
  let corrupt i c = String.mapi (fun j x -> if i = j then c else x) sealed in
  expect_reject_envelope "bad magic" (corrupt 0 'X');
  expect_reject_envelope "bad version" (corrupt 4 '\xfe')

(* ------------------------------------------------------------------ *)
(* Batch envelopes (version 2)                                        *)
(* ------------------------------------------------------------------ *)

let open_string s = Payload.Envelope.open_slice (Bytes.of_string s)

let test_batch_roundtrip_every_codec () =
  (* Every registered payload, in ONE batch frame: order and bytes of
     each element must survive untouched. *)
  let payloads = List.map snd samples in
  let sealed = Payload.Envelope.seal_batch ~src:2 ~service:"dpu" ~generation:7 payloads in
  let info, out = open_string sealed in
  check Alcotest.int "src" 2 info.Payload.Envelope.src;
  check Alcotest.string "service" "dpu" info.Payload.Envelope.service;
  check Alcotest.int "generation" 7 info.Payload.Envelope.generation;
  check Alcotest.int "count" (List.length payloads) (List.length out);
  List.iter2
    (fun (label, p) q ->
      check Alcotest.string (label ^ " survives the batch")
        (Payload.encode_exn p) (Payload.encode_exn q))
    samples out

let expect_reject_batch label s =
  match open_string s with
  | exception Payload.Decode_error _ -> ()
  | _ -> Alcotest.failf "%s: bogus batch opened" label

let test_batch_truncation_rejected () =
  (* Atomicity: a datagram cut ANYWHERE — even on an element boundary,
     where a prefix of the batch would parse — is rejected whole. *)
  let sealed =
    Payload.Envelope.seal_batch ~src:0 ~service:"dpu" ~generation:1
      [ app; Payload.Unit; app ]
  in
  for cut = 0 to String.length sealed - 1 do
    expect_reject_batch
      (Printf.sprintf "cut to %d bytes" cut)
      (String.sub sealed 0 cut)
  done;
  expect_reject_batch "trailing garbage" (sealed ^ "\x00")

let test_batch_garbage_rejected () =
  let sealed =
    Payload.Envelope.seal_batch ~src:0 ~service:"dpu" ~generation:1 [ app; app ]
  in
  let corrupt i c = String.mapi (fun j x -> if i = j then c else x) sealed in
  expect_reject_batch "bad magic" (corrupt 0 'X');
  expect_reject_batch "bad version" (corrupt 4 '\xfe');
  (* The count is the first field after the header: zero it out. *)
  let hdr = Payload.Envelope.header_overhead ~service:"dpu" in
  let zero_count =
    String.mapi (fun j x -> if j >= hdr && j < hdr + 8 then '\x00' else x) sealed
  in
  expect_reject_batch "zero count" zero_count;
  expect_reject_batch "all zeros" (String.make 32 '\x00');
  (match Payload.Envelope.seal_batch ~src:0 ~service:"dpu" ~generation:1 [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty batch sealed")

let test_single_message_batch_vs_legacy () =
  (* A batch of one and a legacy version-1 frame both decode to the
     same payload through [open_slice]; and version-1 frames produced
     by the unbatched path keep working unchanged. *)
  List.iter
    (fun (label, p) ->
      let legacy = Payload.Envelope.seal ~src:1 ~service:"dpu" ~generation:3 p in
      let batch1 = Payload.Envelope.seal_batch ~src:1 ~service:"dpu" ~generation:3 [ p ] in
      let info_l, out_l = open_string legacy in
      let info_b, out_b = open_string batch1 in
      check Alcotest.int (label ^ " same src") info_l.Payload.Envelope.src
        info_b.Payload.Envelope.src;
      check Alcotest.int (label ^ " one payload each") 1 (List.length out_l);
      check Alcotest.int (label ^ " one payload in batch") 1 (List.length out_b);
      check Alcotest.string (label ^ " same payload")
        (Payload.encode_exn (List.hd out_l))
        (Payload.encode_exn (List.hd out_b));
      (* The single-payload opener accepts a batch of one... *)
      let _, q = Payload.Envelope.open_ batch1 in
      check Alcotest.string (label ^ " open_ accepts singleton batch")
        (Payload.encode_exn p) (Payload.encode_exn q))
    samples;
  (* ...but never a real batch: flattening would silently drop messages. *)
  let multi = Payload.Envelope.seal_batch ~src:1 ~service:"dpu" ~generation:3 [ app; app ] in
  match Payload.Envelope.open_ multi with
  | exception Payload.Decode_error _ -> ()
  | _ -> Alcotest.fail "open_ flattened a multi-payload batch"

let test_decode_slice_offsets () =
  (* The zero-copy reader honours [off]/[len] and rejects frames that
     spill past the slice. *)
  let frame = Payload.encode_exn app in
  let buf = Bytes.of_string ("garbage" ^ frame ^ "garbage") in
  let q = Payload.decode_slice buf ~off:7 ~len:(String.length frame) in
  check Alcotest.string "decodes at offset" (Payload.encode_exn app)
    (Payload.encode_exn q);
  (match Payload.decode_slice buf ~off:7 ~len:(String.length frame - 1) with
  | exception Payload.Decode_error _ -> ()
  | _ -> Alcotest.fail "short slice decoded");
  match Payload.decode_slice buf ~off:7 ~len:(String.length frame + 1) with
  | exception Payload.Decode_error _ -> ()
  | _ -> Alcotest.fail "slice with trailing garbage decoded"

(* ------------------------------------------------------------------ *)
(* Codec registry hygiene                                             *)
(* ------------------------------------------------------------------ *)

let test_registry_hygiene () =
  (match
     Payload.register_codec ~tag:"unit"
       ~encode:(fun _ -> None)
       ~decode:(fun _ -> Payload.Unit)
   with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "duplicate tag accepted");
  (match
     Payload.register_codec ~tag:""
       ~encode:(fun _ -> None)
       ~decode:(fun _ -> Payload.Unit)
   with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "empty tag accepted");
  check Alcotest.bool "has_codec Unit" true (Payload.has_codec Payload.Unit)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "wire"
    [
      ( "codecs",
        [
          tc "every sample round-trips" test_roundtrip_every_sample;
          tc "every registered codec exercised" test_every_registered_codec_exercised;
          tc "registry hygiene" test_registry_hygiene;
        ] );
      ( "rejection",
        [
          tc "truncated frames" test_truncated_frames_rejected;
          tc "garbage frames" test_garbage_frames_rejected;
          tc "out-of-range ids" test_out_of_range_ids_rejected;
        ] );
      ( "envelope",
        [
          tc "round-trip" test_envelope_roundtrip;
          tc "rejection" test_envelope_rejection;
        ] );
      ( "batch",
        [
          tc "every codec round-trips inside one batch" test_batch_roundtrip_every_codec;
          tc "truncation rejected at every cut" test_batch_truncation_rejected;
          tc "garbage rejected" test_batch_garbage_rejected;
          tc "batch of one == legacy frame" test_single_message_batch_vs_legacy;
          tc "decode_slice honours offsets" test_decode_slice_offsets;
        ] );
    ]
