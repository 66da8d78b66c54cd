type kind =
  | Add_module of string
  | Remove_module of string
  | Bind of string * string
  | Unbind of string * string
  | Call_blocked of string
  | Call_unblocked of string
  | Crash
  | App of string * string

type entry = { time : float; node : int; kind : kind }

(* Newest first; [entries] reverses. The trace grows with switches and
   blocked calls, not with messages, so it needs no bound. *)
type t = { enabled : bool; mutable rev : entry list }

let create ?(enabled = true) () = { enabled; rev = [] }

let enabled t = t.enabled

let record t ~time ~node kind = if t.enabled then t.rev <- { time; node; kind } :: t.rev

let entries t = List.rev t.rev
