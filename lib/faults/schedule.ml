module Latency = Dpu_net.Latency

type window = { from_ : float; until : float }

type action =
  | Crash of int
  | Recover of int
  | Partition of int list list
  | Heal
  | Loss_window of { p : float; from_ : float; until : float }
  | Dup_burst of { p : float; from_ : float; until : float }
  | Degrade_link of { src : int; dst : int; link : Latency.link; window : window }

type event = { at : float; action : action }

type t = event list

let crash ~at node = { at; action = Crash node }

let recover ~at node = { at; action = Recover node }

let partition ~at groups = { at; action = Partition groups }

let heal ~at = { at; action = Heal }

let loss_window ~p ~from_ ~until = { at = from_; action = Loss_window { p; from_; until } }

let dup_burst ~p ~from_ ~until = { at = from_; action = Dup_burst { p; from_; until } }

let degrade_link ~src ~dst ~link ~from_ ~until =
  { at = from_; action = Degrade_link { src; dst; link; window = { from_; until } } }

let sorted t = List.stable_sort (fun a b -> Float.compare a.at b.at) t

let event_end e =
  match e.action with
  | Crash _ | Recover _ | Partition _ | Heal -> e.at
  | Loss_window { until; _ } | Dup_burst { until; _ } -> until
  | Degrade_link { window; _ } -> window.until

let duration t = List.fold_left (fun acc e -> Float.max acc (event_end e)) 0.0 t

let crashed_before t ~time =
  let relevant =
    List.filter
      (fun e ->
        e.at <= time
        && match e.action with Crash _ | Recover _ -> true | _ -> false)
      (sorted t)
  in
  let down = Hashtbl.create 4 in
  List.iter
    (fun e ->
      match e.action with
      | Crash node -> Hashtbl.replace down node true
      | Recover node -> Hashtbl.replace down node false
      | _ -> ())
    relevant;
  (* dpu-lint: allow hashtbl-iter — folded nodes are sorted before use *)
  Hashtbl.fold (fun node is_down acc -> if is_down then node :: acc else acc) down []
  |> List.sort Int.compare

let validate ~n t =
  let ok = Result.ok () in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let node_ok node = node >= 0 && node < n in
  let prob_ok p = p >= 0.0 && p <= 1.0 in
  let check_event e =
    if e.at < 0.0 then err "event at negative time %g" e.at
    else
      match e.action with
      | Crash node | Recover node ->
        if node_ok node then ok else err "node %d out of range [0, %d)" node n
      | Partition groups ->
        let members = List.concat groups in
        if List.exists (fun m -> not (node_ok m)) members then
          err "partition mentions a node out of range [0, %d)" n
        else if
          List.length members <> List.length (List.sort_uniq Int.compare members)
        then err "partition lists a node twice"
        else ok
      | Heal -> ok
      | Loss_window { p; from_; until } | Dup_burst { p; from_; until } ->
        if not (prob_ok p) then err "probability %g outside [0, 1]" p
        else if not (until > from_) then err "empty window %g-%g" from_ until
        else ok
      | Degrade_link { src; dst; window; _ } ->
        if not (node_ok src && node_ok dst) then
          err "link %d->%d out of range [0, %d)" src dst n
        else if not (window.until > window.from_) then
          err "empty window %g-%g" window.from_ window.until
        else ok
  in
  List.fold_left
    (fun acc e -> match acc with Error _ -> acc | Ok () -> check_event e)
    ok t

let pp_groups ppf groups =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "|")
    (fun ppf members ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
        Format.pp_print_int ppf members)
    ppf groups

let pp_action ppf = function
  | Crash node -> Format.fprintf ppf "crash node %d" node
  | Recover node -> Format.fprintf ppf "recover node %d" node
  | Partition groups -> Format.fprintf ppf "partition %a" pp_groups groups
  | Heal -> Format.pp_print_string ppf "heal"
  | Loss_window { p; from_; until } ->
    Format.fprintf ppf "loss p=%g over %g-%g" p from_ until
  | Dup_burst { p; from_; until } ->
    Format.fprintf ppf "dup p=%g over %g-%g" p from_ until
  | Degrade_link { src; dst; window; _ } ->
    Format.fprintf ppf "degrade link %d->%d over %g-%g" src dst window.from_
      window.until

let pp_event ppf e = Format.fprintf ppf "@%g %a" e.at pp_action e.action

let pp ppf t =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
    pp_event ppf (sorted t)

(* ------------------------------------------------------------------ *)
(* Spec strings                                                       *)
(* ------------------------------------------------------------------ *)

let split_once c s =
  match String.index_opt s c with
  | None -> None
  | Some i ->
    Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let float_arg s = float_of_string_opt s

let int_arg s = int_of_string_opt s

let window_arg s =
  (* FROM-UNTIL; both are non-negative, so '-' only appears as the
     separator. *)
  match split_once '-' s with
  | None -> None
  | Some (a, b) -> (
    match (float_arg a, float_arg b) with
    | Some from_, Some until -> Some (from_, until)
    | _ -> None)

let event_of_spec spec =
  let err () = Error (Printf.sprintf "cannot parse fault spec %S" spec) in
  match split_once '@' spec with
  | None -> err ()
  | Some (kind, rest) -> (
    match kind with
    | "crash" | "recover" -> (
      match split_once ':' rest with
      | Some (t, node) -> (
        match (float_arg t, int_arg node) with
        | Some at, Some node ->
          Ok (if kind = "crash" then crash ~at node else recover ~at node)
        | _ -> err ())
      | None -> err ())
    | "heal" -> (
      match float_arg rest with Some at -> Ok (heal ~at) | None -> err ())
    | "partition" -> (
      match split_once ':' rest with
      | Some (t, groups_s) -> (
        match float_arg t with
        | None -> err ()
        | Some at -> (
          let parse_group g =
            let members = String.split_on_char ',' g in
            let parsed = List.filter_map int_arg members in
            if List.length parsed = List.length members && parsed <> [] then
              Some parsed
            else None
          in
          let groups =
            List.map parse_group (String.split_on_char '|' groups_s)
          in
          if List.exists Option.is_none groups then err ()
          else Ok (partition ~at (List.filter_map Fun.id groups))))
      | None -> err ())
    | "loss" | "dup" -> (
      match split_once ':' rest with
      | Some (w, p) -> (
        match (window_arg w, float_arg p) with
        | Some (from_, until), Some p ->
          Ok
            (if kind = "loss" then loss_window ~p ~from_ ~until
             else dup_burst ~p ~from_ ~until)
        | _ -> err ())
      | None -> err ())
    | "slow" -> (
      (* slow@FROM-UNTIL:SRC>DST:LAT_MS *)
      match split_once ':' rest with
      | Some (w, rest) -> (
        match (window_arg w, split_once ':' rest) with
        | Some (from_, until), Some (pair, lat) -> (
          match (split_once '>' pair, float_arg lat) with
          | Some (src, dst), Some lat_ms -> (
            match (int_arg src, int_arg dst) with
            | Some src, Some dst ->
              Ok
                (degrade_link ~src ~dst ~link:(Latency.constant lat_ms) ~from_
                   ~until)
            | _ -> err ())
          | _ -> err ())
        | _ -> err ())
      | None -> err ())
    | _ -> err ())

let of_specs specs =
  List.fold_left
    (fun acc spec ->
      match acc with
      | Error _ -> acc
      | Ok events -> (
        match event_of_spec spec with
        | Ok e -> Ok (e :: events)
        | Error _ as e -> e))
    (Ok []) specs
  |> Result.map List.rev
