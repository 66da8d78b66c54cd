(* End-to-end and per-layer performance benchmark.

   Untraced runs give the end-to-end metrics; [--trace 1] runs give
   the per-layer ones. Every repetition runs in its own forked child,
   one at a time, and the last line of standard output is one JSON
   object: {"correct", "attempted", "failed", "metrics"}. *)

module W = Workloads
module Json = Dpu_obs.Json
module TE = Dpu_obs.Trace_event

type better = Lower | Higher

(* How a metric's measurements become its reported value. CPU time is
   the minimum over repetitions: on a shared machine contention only
   ever adds to it, for stretches of several seconds at a time. *)
type stat = Median | Minimum

type metric = { name : string; unit : string; better : better; stat : stat }

let m ?(stat = Median) name unit better = { name; unit; better; stat }

(* CPU time is not among them: on a shared machine it drifts by a
   third over minutes, more than any bound can hold. *)
let end_to_end =
  [
    m "setup_s" "s" Lower;
    m "lat_p75_ms" "ms" Lower;
    m "msgs_per_s" "1/s" Higher;
    m "peak_heap_mb" "MB" Lower;
  ]

let per_layer =
  [
    m ~stat:Minimum "e2e.cpu_us_per_msg" "us" Lower;
    m "e2e.lat_p50_ms" "ms" Lower;
    m "e2e.lat_mean_ms" "ms" Lower;
    m "e2e.lat_p99_ms" "ms" Lower;
    m "e2e.lat_samples" "count" Higher;
    m "engine.events_per_msg" "count" Lower;
    m "engine.ns_per_event" "ns" Lower;
    m "net.frames_per_msg" "count" Lower;
    m "net.kb_per_msg" "KB" Lower;
    m "net.drop_frac" "ratio" Lower;
    m "net.egress_backlog_p99_ms" "ms" Lower;
    m "kernel.hops_per_msg" "count" Lower;
    m "kernel.ns_per_hop" "ns" Lower;
    m "kernel.trace_share" "ratio" Lower;
    m "kernel.codec_ns_per_frame" "ns" Lower;
    m "kernel.codec_words_per_frame" "words" Lower;
    m "protocols.msgs_per_decision" "count" Higher;
    m "protocols.rp2p_retrans_per_msg" "count" Lower;
    m "core.intercepts_per_msg" "count" Lower;
    m "core.switches" "count" Higher;
    m "core.switch_window_p50_ms" "ms" Lower;
    m "core.switch_lat_p50_ms" "ms" Lower;
    m "core.switch_lat_p95_ms" "ms" Lower;
    m "core.reissued_per_switch" "count" Lower;
    m "core.epoch_stashed_per_switch" "count" Lower;
    m "core.max_concurrent_switches" "count" Higher;
    m "core.switch_cpu_us" "us" Lower;
    m "core.setup_ms_per_node" "ms" Lower;
    m "analysis.preflight_ms" "ms" Lower;
    m "alloc.minor_words_per_msg" "words" Lower;
    m "alloc.major_per_kmsg" "count" Lower;
    m "live.frames_per_msg" "count" Lower;
    m "live.wheel_fired_per_msg" "count" Lower;
    m "live.busy_frac" "ratio" Lower;
    m "live.gen_lag_frac" "ratio" Lower;
    m "obs.trace_overhead_frac" "ratio" Lower;
  ]

let median = Micro.median

let fmin = List.fold_left Float.min infinity

let fmax = List.fold_left Float.max neg_infinity

let metric_of name = List.find (fun mt -> mt.name = name) (end_to_end @ per_layer)

let reported name vs = match (metric_of name).stat with Median -> median vs | Minimum -> fmin vs

(* ------------------------------------------------------------------ *)
(* Run isolation: one forked child per repetition                      *)
(* ------------------------------------------------------------------ *)

(* Run [f] in a forked child and bring its (closure-free) result back
   over a pipe, as [Dpu_workload.Sweep] does: each repetition gets a
   fresh heap and GC state, and a crash cannot take the benchmark down. *)
let isolated (f : unit -> 'a) : ('a, string) result =
  flush stdout;
  flush stderr;
  let rfd, wfd = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close rfd;
    (* A repetition takes seconds; one that hangs is killed, not waited on. *)
    ignore (Unix.alarm 60 : int);
    let oc = Unix.out_channel_of_descr wfd in
    let r = try Ok (f ()) with e -> Error (Printexc.to_string e) in
    (try
       Marshal.to_channel oc (r : ('a, string) result) [];
       close_out oc
     with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close wfd;
    let ic = Unix.in_channel_of_descr rfd in
    let r =
      try (Marshal.from_channel ic : ('a, string) result)
      with End_of_file | Failure _ -> Error "repetition died without a result"
    in
    close_in_noerr ic;
    (match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED 0 -> r
    | _ -> Error "repetition process failed")

(* ------------------------------------------------------------------ *)
(* Running one workload                                                *)
(* ------------------------------------------------------------------ *)

type budget = Reps of int | Seconds of float

type result = {
  workload : string;
  reps : int;
  attempted : int;
  failed : int;
  problems : string list;  (** violations, errors, nondeterminism *)
  values : (string * float list) list;  (** every metric, one value per measurement *)
  spans : (string * float * float * string) list;  (** name, start, duration, lane *)
}

let setup_probes = 9

(* Repetition [k] of a simulated workload runs sub-seed [k mod subseeds]
   of the workload seed: the deterministic metrics are the median over
   the distinct sub-seeds (more messages than one repetition holds),
   and every later repetition of a sub-seed must reproduce them. *)
let default_subseeds = 4

let mode_name = function
  | W.Plain -> "plain"
  | W.Instrumented -> "instrumented"
  | W.Kernel_trace_on -> "kernel-trace-on"

(* One workload's repetitions so far. *)
type state = {
  w : W.t;
  seed : int;
  scale : float;
  traced : bool;
  subseeds : int;
  t0 : float;  (** the workload's time budget runs from here *)
  mutable samples : (W.mode * bool * int * W.sample) list;  (** mode, set-up only, sub-seed *)
  mutable errors : string list;
  mutable spans : (string * float * float * string) list;
  mutable cycles : int;
  mutable last : float;  (** wall time of the latest cycle *)
}

(* Spans of every workload share one time axis. *)
let origin = Unix.gettimeofday ()

let rep st ~mode ~setup_only ~sub lane =
  let start = Unix.gettimeofday () -. origin in
  let seed = (st.seed * st.subseeds) + sub in
  match isolated (fun () -> st.w.run ~scale:st.scale ~seed ~mode ~setup_only) with
  | Ok s ->
    st.spans <- List.map (fun (n, a, d) -> (n, start +. a, d, lane)) s.W.spans @ st.spans;
    st.samples <- (mode, setup_only, sub, s) :: st.samples
  | Error e -> st.errors <- e :: st.errors

let start (w : W.t) ~seed ~scale ~traced ~subseeds =
  let st =
    { w; seed; scale; traced; subseeds; t0 = Unix.gettimeofday (); samples = []; errors = [];
      spans = []; cycles = 0; last = 0.0 }
  in
  for k = 1 to setup_probes do
    rep st ~mode:W.Plain ~setup_only:true ~sub:0 (Printf.sprintf "setup %d" k)
  done;
  st

let modes st =
  W.Plain
  :: (if st.traced then W.Instrumented :: (if st.w.simulated then [ W.Kernel_trace_on ] else []) else [])

(* One repetition in every mode the run measures. *)
let cycle st =
  let c0 = Unix.gettimeofday () in
  let sub = st.cycles mod st.subseeds in
  st.cycles <- st.cycles + 1;
  List.iter
    (fun mode -> rep st ~mode ~setup_only:false ~sub (Printf.sprintf "rep %d %s" st.cycles (mode_name mode)))
    (modes st);
  st.last <- Unix.gettimeofday () -. c0

(* Untraced simulated runs cover every sub-seed and repeat one; the
   live workload's latency needs a few repetitions to settle. *)
let within st seconds =
  let min_cycles = if st.traced then 1 else if st.w.simulated then st.subseeds + 1 else 3 in
  st.cycles < min_cycles || Unix.gettimeofday () -. st.t0 +. st.last <= seconds

let finish st =
  let micro =
    if st.traced && st.errors = [] then begin
      let start = Unix.gettimeofday () -. origin in
      match
        isolated (fun () ->
            let r = { W.origin = Unix.gettimeofday (); spans = [] } in
            let values = Micro.all r in
            (values, r.W.spans))
      with
      | Ok (values, s) ->
        st.spans <- List.map (fun (n, a, d) -> (n, start +. a, d, "micro")) s @ st.spans;
        values
      | Error e ->
        st.errors <- e :: st.errors;
        []
    end
    else []
  in
  let samples = List.rev st.samples in
  let runs ?sub mode =
    List.filter_map
      (fun (m, probe, k, s) ->
        if m = mode && (not probe) && Option.fold ~none:true ~some:(( = ) k) sub then Some s else None)
      samples
  in
  (* Repetitions of one sub-seed must agree on every deterministic value. *)
  List.iter
    (fun mode ->
      for sub = 0 to st.subseeds - 1 do
        match runs ~sub mode with
        | first :: rest when List.exists (fun (s : W.sample) -> s.exact <> first.W.exact) rest ->
          st.errors <-
            Printf.sprintf "%s repetitions of seed %d disagree" (mode_name mode) ((st.seed * st.subseeds) + sub)
            :: st.errors
        | _ -> ()
      done)
    [ W.Plain; W.Instrumented ];
  let measured = List.concat_map (fun mode -> runs mode) (modes st) in
  (* Deterministic values once per sub-seed; readings from every run. *)
  let values_in mode name =
    match
      List.concat_map
        (fun sub ->
          match runs ~sub mode with
          | s :: _ -> Option.to_list (List.assoc_opt name s.W.exact)
          | [] -> [])
        (List.init st.subseeds Fun.id)
    with
    | [] -> List.filter_map (fun (s : W.sample) -> List.assoc_opt name s.timed) (runs mode)
    | exact -> exact
  in
  let setup_values name =
    List.filter_map
      (fun (m, _, _, (s : W.sample)) -> if m = W.Plain then List.assoc_opt name s.timed else None)
      samples
  in
  let cpu mode = fmin (values_in mode "cpu_s") in
  let value name =
    match name with
    | "setup_s" | "analysis.preflight_ms" | "core.setup_ms_per_node" -> (
      match setup_values name with [] -> [ 0.0 ] | vs -> vs)
    | "kernel.trace_share" ->
      if st.w.simulated && st.traced then [ 1.0 -. (cpu W.Plain /. cpu W.Kernel_trace_on) ] else [ 0.0 ]
    | "obs.trace_overhead_frac" ->
      if st.traced then [ (cpu W.Instrumented /. cpu W.Plain) -. 1.0 ] else [ 0.0 ]
    | _ -> (
      match List.assoc_opt name micro with
      | Some v -> [ v ]
      | None -> (
        match values_in W.Plain name with
        | [] -> ( match values_in W.Instrumented name with [] -> [ 0.0 ] | vs -> vs)
        | vs -> vs))
  in
  {
    workload = st.w.name;
    reps = st.cycles;
    attempted = List.fold_left (fun acc (s : W.sample) -> acc + s.attempted) 0 measured;
    failed = List.fold_left (fun acc (s : W.sample) -> acc + s.failed) 0 measured + List.length st.errors;
    problems = List.rev st.errors @ List.concat_map (fun (s : W.sample) -> s.violations) measured;
    values = List.map (fun (mt : metric) -> (mt.name, value mt.name)) (if st.traced then per_layer else end_to_end);
    spans = List.rev st.spans;
  }

(* Run the workloads. With a repetition count their repetitions
   interleave (1..5, 1..5, ...), so slow stretches of a shared machine
   fall on every workload alike; with a time budget each workload gets
   its own stretch. *)
let run_all workloads ~seed ~scale ~budget ~traced ~subseeds =
  let start w = start w ~seed ~scale ~traced ~subseeds in
  let states =
    match budget with
    | Reps n ->
      let states = List.map start workloads in
      for _ = 1 to n do
        List.iter (fun st -> if st.errors = [] then cycle st) states
      done;
      states
    | Seconds s ->
      List.map
        (fun w ->
          let st = start w in
          while st.errors = [] && within st s do
            cycle st
          done;
          st)
        workloads
  in
  List.map finish states

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let print_result ~seed r =
  Printf.printf "%s  seed %d  %d rep(s)  %d msgs  %d failed\n" r.workload seed r.reps r.attempted r.failed;
  List.iter
    (fun (name, vs) ->
      let mt = metric_of name in
      Printf.printf "  %-32s %14.6g %-6s (min %.6g, max %.6g, n=%d)\n" name (reported name vs) mt.unit (fmin vs)
        (fmax vs) (List.length vs))
    r.values;
  List.iter (fun p -> Printf.printf "  PROBLEM: %s\n" p) r.problems

let result_json ~seed ~traced results =
  Json.Obj
    [
      ("schema", Json.Str "dpu.perf/1");
      ("seed", Json.Int seed);
      ("traced", Json.Bool traced);
      ( "workloads",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("name", Json.Str r.workload);
                   ("reps", Json.Int r.reps);
                   ("attempted", Json.Int r.attempted);
                   ("failed", Json.Int r.failed);
                   ("problems", Json.List (List.map (fun p -> Json.Str p) r.problems));
                   ( "metrics",
                     Json.List
                       (List.map
                          (fun (name, vs) ->
                            Json.Obj
                              [
                                ("name", Json.Str name);
                                ("unit", Json.Str (metric_of name).unit);
                                ("value", Json.Float (reported name vs));
                                ("min", Json.Float (fmin vs));
                                ("max", Json.Float (fmax vs));
                                ("values", Json.List (List.map (fun v -> Json.Float v) vs));
                              ])
                          r.values) );
                 ])
             results) );
    ]

(* The Perfetto-loadable trace of the benchmark's own spans: one
   process per workload, one lane per repetition. *)
let trace_json results =
  let events =
    List.concat
      (List.mapi
         (fun i (r : result) ->
           let pid = i + 1 in
           let lanes =
             List.mapi (fun k l -> (l, k + 1)) (List.sort_uniq compare (List.map (fun (_, _, _, l) -> l) r.spans))
           in
           let tid lane = List.assoc lane lanes in
           TE.process_name ~pid r.workload
           :: List.map (fun (lane, tid) -> TE.thread_name ~pid ~tid lane) lanes
           @ List.map
               (fun (name, start, dur, lane) ->
                 TE.complete ~name ~cat:"bench" ~pid ~tid:(tid lane) ~ts_ms:(1000.0 *. start)
                   ~dur_ms:(1000.0 *. dur) ())
               r.spans)
         results)
  in
  TE.to_json events

(* The contract line: the last line of standard output. *)
let summary_line results =
  let single = match results with [ _ ] -> true | _ -> false in
  let metrics =
    List.concat_map
      (fun r ->
        List.map
          (fun (name, vs) ->
            ( (if single then name else r.workload ^ "/" ^ name),
              Json.Obj [ ("value", Json.Float (reported name vs)); ("unit", Json.Str (metric_of name).unit) ] ))
          r.values)
      results
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (List.for_all (fun r -> r.problems = [] && r.failed = 0) results));
         ("attempted", Json.Int (List.fold_left (fun acc r -> acc + r.attempted) 0 results));
         ("failed", Json.Int (List.fold_left (fun acc r -> acc + r.failed) 0 results));
         ("metrics", Json.Obj metrics);
       ])

let finite r = List.for_all (fun (_, vs) -> vs <> [] && List.for_all Float.is_finite vs) r.values

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json and --compare                                        *)
(* ------------------------------------------------------------------ *)

let read_json path =
  match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let field j name =
  match Json.member j name with Some v -> v | None -> failwith ("missing field " ^ name)

let list j name = Option.value ~default:[] (Json.to_list_opt (field j name))

let str j name = Option.value ~default:"" (Json.to_string_opt (field j name))

let num j name =
  match Json.to_float_opt (field j name) with Some v -> v | None -> failwith ("not a number: " ^ name)

(* The declared metrics of BENCHMARK.json must be exactly this program's. *)
let check_declared bench =
  let declared key ours =
    let names = List.map (fun j -> (str j "name", str j "unit")) (list bench key) in
    let expected = List.map (fun mt -> (mt.name, mt.unit)) ours in
    if List.sort compare names <> List.sort compare expected then
      failwith (Printf.sprintf "BENCHMARK.json %s does not match the metrics this benchmark reports" key)
  in
  declared "end_to_end" end_to_end;
  declared "per_layer" per_layer

let compare_files a b =
  let bench = read_json "BENCHMARK.json" in
  let bounds = List.map (fun j -> (str j "name", num j "bound")) (list bench "end_to_end") in
  let workloads j = List.map (fun w -> (str w "name", w)) (list (read_json j) "workloads") in
  let wa = workloads a and wb = workloads b in
  let regressed = ref 0 in
  Printf.printf "%-12s %-16s %14s %14s %9s %7s  %s\n" "workload" "metric" "A" "B" "delta" "bound" "verdict";
  List.iter
    (fun (wname, ja) ->
      match List.assoc_opt wname wb with
      | None -> ()
      | Some jb ->
        let stats j name =
          match List.find_opt (fun mj -> str mj "name" = name) (list j "metrics") with
          | Some mj -> Some (num mj "value", List.filter_map Json.to_float_opt (list mj "values"))
          | None -> None
        in
        List.iter
          (fun (name, bound) ->
            match (stats ja name, stats jb name) with
            | Some (ma, va), Some (mb, vb) ->
              let sign = if (metric_of name).better = Lower then 1.0 else -1.0 in
              (* Positive [worse] is a change in the bad direction. *)
              let worse = sign *. (mb -. ma) /. Float.abs ma in
              let spread vs med = (fmax vs -. fmin vs) /. Float.abs med in
              let all_better = List.for_all (fun x -> List.for_all (fun y -> sign *. (x -. y) < 0.0) va) vb in
              let verdict =
                if Float.max (spread va ma) (spread vb mb) > bound && not all_better then "unresolved"
                else if worse > bound then (incr regressed; "regressed")
                else "within-bound"
              in
              Printf.printf "%-12s %-16s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n" wname name ma mb
                (100.0 *. sign *. worse) (100.0 *. bound) verdict
            | _ -> ())
          bounds)
    wa;
  if !regressed > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* A twentieth of every horizon: each workload end to end, traced and
   untraced, checked for completeness, correctness and determinism. *)
let smoke ~seed =
  if Sys.file_exists "BENCHMARK.json" then check_declared (read_json "BENCHMARK.json");
  let ok = ref true in
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun traced ->
          let budget = Reps (if w.simulated && not traced then 2 else 1) in
          let r = List.hd (run_all [ w ] ~seed ~scale:0.05 ~budget ~traced ~subseeds:1) in
          let good = r.problems = [] && r.failed = 0 && r.attempted > 0 && finite r in
          Printf.printf "smoke %-12s %-8s %s\n%!" w.name (if traced then "traced" else "untraced")
            (if good then "ok" else "FAILED");
          if not good then begin
            print_result ~seed r;
            ok := false
          end)
        [ false; true ])
    W.all;
  if not !ok then exit 1

let main ~workloads ~seed ~reps ~seconds ~traced ~trace_out ~out ~compare ~files ~smoke_mode =
  match (compare, files, smoke_mode) with
  | true, [ a; b ], _ -> compare_files a b
  | true, _, _ -> failwith "--compare takes exactly two result files"
  | false, _ :: _, _ -> failwith "result files are only read by --compare"
  | false, [], true -> smoke ~seed
  | false, [], false ->
    let workloads =
      match workloads with
      | [] -> W.all
      | names ->
        List.map
          (fun n ->
            match W.find n with
            | Some w -> w
            | None -> failwith (Printf.sprintf "unknown workload %S" n))
          names
    in
    let budget =
      match (reps, seconds) with
      | Some _, Some _ -> failwith "give --reps or --seconds, not both"
      | Some n, None -> Reps (max 1 n)
      | None, Some s -> Seconds s
      | None, None -> Reps (default_subseeds + 1)
    in
    let results = run_all workloads ~seed ~scale:1.0 ~budget ~traced ~subseeds:default_subseeds in
    List.iter (print_result ~seed) results;
    Option.iter (fun path -> Json.to_file path (result_json ~seed ~traced results)) out;
    Option.iter (fun path -> Json.to_file path (trace_json results)) trace_out;
    let complete = List.for_all finite results in
    if not complete then prerr_endline "dpu_perf: a metric has no finite value";
    print_endline (summary_line results);
    if not (complete && List.for_all (fun r -> r.problems = [] && r.failed = 0) results) then exit 1

let () =
  let open Cmdliner in
  let workloads =
    Arg.(value & opt_all string [] & info [ "workload" ] ~docv:"NAME"
           ~doc:(Printf.sprintf "Run this workload (repeatable; default all): %s."
                   (String.concat ", " (List.map (fun (w : W.t) -> w.name) W.all))))
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Workload seed.") in
  let reps =
    Arg.(value & opt (some int) None
         & info [ "reps" ] ~doc:"Repetitions per workload (default: one per sub-seed, plus one).")
  in
  let seconds =
    Arg.(value & opt (some float) None
         & info [ "seconds" ] ~doc:"Repeat each workload for about this many seconds instead of a fixed count.")
  in
  let traced =
    Arg.(value & opt (enum [ ("0", false); ("1", true) ]) false
         & info [ "trace" ] ~docv:"0|1"
             ~doc:"1: report the per-layer metrics (instrumented repetitions and microbenchmarks).")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE" ~doc:"Write the benchmark's spans as a Perfetto-loadable trace.")
  in
  let out = Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc:"Write every measured value as JSON.") in
  let compare =
    Arg.(value & flag & info [ "compare" ] ~doc:"Compare two $(b,--out) files against the bounds in BENCHMARK.json.")
  in
  let files = Arg.(value & pos_all string [] & info [] ~docv:"FILE") in
  let smoke_mode = Arg.(value & flag & info [ "smoke" ] ~doc:"Run every workload at a twentieth of its size and check it.") in
  let run workloads seed reps seconds traced trace_out out compare files smoke_mode =
    try main ~workloads ~seed ~reps ~seconds ~traced ~trace_out ~out ~compare ~files ~smoke_mode
    with Failure msg ->
      prerr_endline ("dpu_perf: " ^ msg);
      exit 2
  in
  let term =
    Term.(const run $ workloads $ seed $ reps $ seconds $ traced $ trace_out $ out $ compare $ files $ smoke_mode)
  in
  exit (Cmd.eval (Cmd.v (Cmd.info "dpu_perf" ~doc:"End-to-end and per-layer performance benchmark") term))
