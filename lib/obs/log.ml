type level = Info | Warn

let level_name = function Info -> "info" | Warn -> "warn"

let level_of_string s =
  match String.lowercase_ascii s with
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | _ -> None

type t = {
  clock : unit -> float;
  emit : (string -> unit) option; (* [None]: the frozen noop logger *)
}

let noop = { clock = (fun () -> 0.0); emit = None }

let create ~clock ~emit () = { clock; emit = Some emit }

let enabled t = Option.is_some t.emit

(* One JSON object per line, fields in a fixed order (t, level, msg,
   then caller fields in the order given): on the simulator clock the
   emitted bytes are a pure function of the run, so two identical runs
   produce identical JSONL files. *)
let line t lvl ~fields msg =
  Json.to_string
    (Json.Obj
       (("t", Json.Float (t.clock ()))
       :: ("level", Json.Str (level_name lvl))
       :: ("msg", Json.Str msg)
       :: fields))

let log t lvl ?(fields = []) msg =
  match t.emit with Some emit -> emit (line t lvl ~fields msg) | None -> ()

let info t ?fields msg = log t Info ?fields msg

let warn t ?fields msg = log t Warn ?fields msg

let to_buffer ~clock buf =
  create ~clock
    ~emit:(fun l ->
      Buffer.add_string buf l;
      Buffer.add_char buf '\n')
    ()

let to_file ~clock path =
  let oc = open_out path in
  let t =
    create ~clock
      ~emit:(fun l ->
        output_string oc l;
        output_char oc '\n')
      ()
  in
  (t, fun () -> close_out oc)

(* ------------------------------------------------------------------ *)
(* Parsing — CI and tests validate emitted JSONL files.               *)
(* ------------------------------------------------------------------ *)

type entry = { e_time : float; e_level : level; e_msg : string; e_fields : Json.t }

let entry_of_line s =
  match Json.of_string s with
  | Stdlib.Error e -> Stdlib.Error e
  | Ok j -> (
    let time = Option.bind (Json.member j "t") Json.to_float_opt in
    let lvl =
      Option.bind (Option.bind (Json.member j "level") Json.to_string_opt)
        level_of_string
    in
    let msg = Option.bind (Json.member j "msg") Json.to_string_opt in
    match (time, lvl, msg) with
    | Some e_time, Some e_level, Some e_msg ->
      Ok { e_time; e_level; e_msg; e_fields = j }
    | _ -> Stdlib.Error "log entry: missing t/level/msg")

let entries_of_string s =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | l :: rest ->
      if String.trim l = "" then go acc rest
      else (
        match entry_of_line l with
        | Ok e -> go (e :: acc) rest
        | Stdlib.Error e -> Stdlib.Error e)
  in
  go [] (String.split_on_char '\n' s)
