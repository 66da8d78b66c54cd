exception Worker_failed of { worker : int; reason : string }

type stats = {
  jobs : int;
  cells : int;
  wall_s : float;
  cells_wall_s : float;
  speedup : float;
}

type 'r outcome = { results : 'r array; stats : stats }

(* Worker -> parent messages. One [Cell] per finished cell (with its
   wall-clock), then [Done]. A worker that catches an exception reports
   [Failed] instead of [Done]. All three are closure-free, so plain
   [Marshal] works. *)
type 'r msg =
  | Cell of int * float * 'r
  | Done
  | Failed of string

let default_jobs () =
  match Sys.getenv_opt "DPU_JOBS" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with Failure _ -> 1)
  | None -> 1

let finish ~jobs ~cells ~t0 ~cells_wall results =
  (* dpu-lint: allow wall-clock — host-side telemetry only; never feeds simulation state *)
  let wall_s = Unix.gettimeofday () -. t0 in
  {
    results;
    stats =
      {
        jobs;
        cells;
        wall_s;
        cells_wall_s = cells_wall;
        speedup = (if wall_s > 0.0 then cells_wall /. wall_s else 1.0);
      };
  }

let run_sequential ~cells f =
  (* dpu-lint: allow wall-clock — host-side telemetry only; never feeds simulation state *)
  let t0 = Unix.gettimeofday () in
  let cells_wall = ref 0.0 in
  let cell i =
    (* dpu-lint: allow wall-clock — host-side telemetry only; never feeds simulation state *)
    let c0 = Unix.gettimeofday () in
    let r = f i in
    (* dpu-lint: allow wall-clock — host-side telemetry only; never feeds simulation state *)
    cells_wall := !cells_wall +. (Unix.gettimeofday () -. c0);
    r
  in
  let results =
    if cells = 0 then [||]
    else begin
      (* Explicit loop: cell order is part of the determinism contract
         and [Array.init]'s evaluation order is unspecified. *)
      let arr = Array.make cells (cell 0) in
      for i = 1 to cells - 1 do
        arr.(i) <- cell i
      done;
      arr
    end
  in
  finish ~jobs:1 ~cells ~t0 ~cells_wall:!cells_wall results

(* ------------------------------------------------------------------ *)
(* Forked workers                                                     *)
(* ------------------------------------------------------------------ *)

let worker_body ~jobs ~cells ~index wfd f =
  (* In the child. Never return into the caller: always [Unix._exit]
     (no [at_exit], no double-flushing of inherited buffers). *)
  let oc = Unix.out_channel_of_descr wfd in
  (try
     let i = ref index in
     while !i < cells do
       (* dpu-lint: allow wall-clock — host-side telemetry only; never feeds simulation state *)
       let c0 = Unix.gettimeofday () in
       let r = f !i in
       (* dpu-lint: allow wall-clock — host-side telemetry only; never feeds simulation state *)
       let wall = Unix.gettimeofday () -. c0 in
       Marshal.to_channel oc (Cell (!i, wall, r)) [];
       flush oc;
       i := !i + jobs
     done;
     Marshal.to_channel oc Done [];
     flush oc
   with e -> (
     try
       Marshal.to_channel oc (Failed (Printexc.to_string e)) [];
       flush oc
     with _ -> ()));
  (try close_out oc with _ -> ());
  Unix._exit 0

let describe_status = function
  | Unix.WEXITED c -> Printf.sprintf "exited with code %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s

let run_forked ~jobs ~cells f =
  (* dpu-lint: allow wall-clock — host-side telemetry only; never feeds simulation state *)
  let t0 = Unix.gettimeofday () in
  (* Anything buffered before the fork would be replayed by every
     worker that happens to flush; start the children clean. *)
  flush stdout;
  flush stderr;
  let workers =
    Array.init jobs (fun w ->
        let rfd, wfd = Unix.pipe () in
        match Unix.fork () with
        | 0 ->
          Unix.close rfd;
          worker_body ~jobs ~cells ~index:w wfd f
        | pid ->
          (* Closing our copy of the write end right away means a dead
             worker yields EOF instead of a hang, and later forks do
             not inherit it. *)
          Unix.close wfd;
          (pid, rfd))
  in
  let reaped = Array.make jobs false in
  let reap w =
    if not reaped.(w) then begin
      reaped.(w) <- true;
      let pid, _ = workers.(w) in
      try snd (Unix.waitpid [] pid) with Unix.Unix_error _ -> Unix.WEXITED 0
    end
    else Unix.WEXITED 0
  in
  let kill_all () =
    Array.iteri
      (fun w (pid, _) ->
        if not reaped.(w) then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (reap w : Unix.process_status)
        end)
      workers
  in
  let results : 'r option array = Array.make cells None in
  let cells_wall = ref 0.0 in
  (try
     (* Drain workers in index order. Each worker computes
        independently, so a full pipe only ever waits on this loop —
        which always reaches it — never on another worker: sequential
        draining cannot deadlock. *)
     Array.iteri
       (fun w (_pid, rfd) ->
         let ic = Unix.in_channel_of_descr rfd in
         let fail reason =
           raise (Worker_failed { worker = w; reason })
         in
         let rec drain () =
           match (Marshal.from_channel ic : 'r msg) with
           | Cell (i, wall, r) ->
             results.(i) <- Some r;
             cells_wall := !cells_wall +. wall;
             drain ()
           | Done -> ()
           | Failed msg -> fail ("worker raised: " ^ msg)
           | exception End_of_file ->
             fail ("result stream cut short (" ^ describe_status (reap w) ^ ")")
           | exception Failure msg -> fail ("corrupt result stream: " ^ msg)
         in
         drain ();
         close_in_noerr ic;
         match reap w with
         | Unix.WEXITED 0 -> ()
         | status -> fail (describe_status status))
       workers
   with e ->
     kill_all ();
     raise e);
  let results =
    Array.mapi
      (fun i r ->
        match r with
        | Some r -> r
        | None ->
          raise
            (Worker_failed
               {
                 worker = i mod jobs;
                 reason = Printf.sprintf "cell %d missing from result stream" i;
               }))
      results
  in
  finish ~jobs ~cells ~t0 ~cells_wall:!cells_wall results

let run ?jobs ~cells f =
  if cells < 0 then invalid_arg "Sweep.run: negative cell count";
  let jobs = max 1 (min (Option.value jobs ~default:(default_jobs ())) (max cells 1)) in
  if jobs <= 1 then run_sequential ~cells f else run_forked ~jobs ~cells f
