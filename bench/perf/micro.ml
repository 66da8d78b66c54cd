(* Microbenchmarks of single primitives, timed from outside through
   their public functions. Each reports the median of several timed
   batches, so one descheduling does not move the result. *)

module MW = Dpu_core.Middleware
module Sim = Dpu_engine.Sim
module Stack = Dpu_kernel.Stack
module Payload = Dpu_kernel.Payload
module Wire = Dpu_kernel.Wire

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let time f =
  let t = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t

let ns_per_op ~ops f = median (List.init 9 (fun _ -> time f *. 1e9 /. float_of_int ops))

let ops = 4096

(* Sim.schedule + run, in a fresh simulator per batch. *)
let engine_ns_per_event () =
  ns_per_op ~ops (fun () ->
      let sim = Sim.create () in
      for i = 1 to ops do
        ignore (Sim.schedule sim ~delay:(float_of_int (i land 63)) (fun () -> ()) : Sim.handle)
      done;
      Sim.run sim)

(* Stack.call into a bound no-op module; each call is one hop. *)
let kernel_ns_per_hop () =
  ns_per_op ~ops (fun () ->
      let sim = Sim.create () in
      let trace = Dpu_kernel.Trace.create ~enabled:false () in
      let stack = Stack.create ~clock:(Dpu_runtime.Sim_backend.clock sim) ~node:0 ~trace () in
      let svc = Dpu_kernel.Service.make "perf.sink" in
      let sink =
        Stack.add_module stack ~name:"sink" ~provides:[ svc ] ~requires:[] (fun _ _ ->
            Stack.default_handlers)
      in
      Stack.bind stack svc sink;
      for _ = 1 to ops do
        Stack.call stack svc Payload.Unit
      done;
      Sim.run sim)

(* The live send and receive path of one replacement-layer data frame:
   encode into a scratch writer, seal the envelope, blit, open in
   place. Returns (ns, minor words) per frame. *)
let codec_per_frame () =
  let m = Dpu_kernel.Msg.make ~origin:1 ~seq:7 ~size:1024 "live" in
  let payload =
    Dpu_core.Repl.A_data
      { sn = 1; id = m.Dpu_kernel.Msg.id; size = 1024; payload = Dpu_core.App_msg.App m }
  in
  let elem = Wire.W.create () and frame = Wire.W.create () and buf = Bytes.create 65_536 in
  let one () =
    Wire.W.reset elem;
    if not (Payload.encode_into elem payload) then failwith "codec: payload has no codec";
    Wire.W.reset frame;
    Payload.Envelope.seal_into frame ~src:1 ~service:"dpu" ~generation:7 elem;
    let len = Wire.W.blit_to_bytes frame buf in
    ignore (Payload.Envelope.open_slice buf ~len : Payload.Envelope.info * Payload.t list)
  in
  let batch () =
    for _ = 1 to ops do
      one ()
    done
  in
  let ns = ns_per_op ~ops batch in
  let w0 = Gc.minor_words () in
  batch ();
  (ns, (Gc.minor_words () -. w0) /. float_of_int ops)

(* One CT->CT swap on an idle n=7 cluster (the paper-n7 stack), minus
   the same idle interval without a swap. *)
let switch_cpu_us () =
  let config = { MW.default_config with hop_cost = 0.5 } in
  let mw = MW.create ~config ~n:7 () in
  MW.run_for mw 1_000.0;
  let idle = ref [] and swap = ref [] in
  for k = 1 to 15 do
    idle := time (fun () -> MW.run_for mw 500.0) :: !idle;
    swap :=
      time (fun () ->
          MW.change_protocol mw ~node:(k mod 7) Dpu_core.Variants.ct;
          MW.run_for mw 500.0)
      :: !swap
  done;
  1e6 *. (median !swap -. median !idle)

(* Every microbenchmark, each inside a span of [r]. *)
let all (r : Workloads.recorder) =
  let codec_ns, codec_words = Workloads.span r "micro codec" codec_per_frame in
  [
    ("engine.ns_per_event", Workloads.span r "micro engine" engine_ns_per_event);
    ("kernel.ns_per_hop", Workloads.span r "micro kernel" kernel_ns_per_hop);
    ("kernel.codec_ns_per_frame", codec_ns);
    ("kernel.codec_words_per_frame", codec_words);
    ("core.switch_cpu_us", Workloads.span r "micro switch" switch_cpu_us);
  ]
