type kind =
  | Add_module of string
  | Remove_module of string
  | Bind of string * string
  | Unbind of string * string
  | Call of string
  | Call_blocked of string
  | Call_unblocked of string
  | Indication of string
  | Crash
  | App of string * string

type entry = { time : float; node : int; kind : kind }

(* Bounded ring buffer over [buf]: the [n] retained entries start at
   index [start] (oldest) and wrap modulo the array length. The array
   grows geometrically up to [capacity]; once full, recording
   overwrites the oldest entry, so a long soak keeps the most recent —
   i.e. the interesting — tail of the trace. *)
type t = {
  mutable enabled : bool;
  capacity : int;
  mutable buf : entry array;
  mutable start : int;
  mutable n : int;
  mutable dropped : int;
}

let create ?(enabled = true) ?(capacity = 2_000_000) () =
  assert (capacity > 0);
  { enabled; capacity; buf = [||]; start = 0; n = 0; dropped = 0 }

let enabled t = t.enabled

let set_enabled t b = t.enabled <- b

let record t ~time ~node kind =
  if t.enabled then begin
    let cap = Array.length t.buf in
    if t.n = cap && cap < t.capacity then begin
      let cap' = Stdlib.min t.capacity (Stdlib.max 64 (cap * 2)) in
      let dummy = { time; node; kind } in
      let buf' = Array.make cap' dummy in
      for i = 0 to t.n - 1 do
        buf'.(i) <- t.buf.((t.start + i) mod cap)
      done;
      t.buf <- buf';
      t.start <- 0
    end;
    let cap = Array.length t.buf in
    if t.n < cap then begin
      t.buf.((t.start + t.n) mod cap) <- { time; node; kind };
      t.n <- t.n + 1
    end
    else begin
      t.buf.(t.start) <- { time; node; kind };
      t.start <- (t.start + 1) mod cap;
      t.dropped <- t.dropped + 1
    end
  end

let entries t =
  let cap = Array.length t.buf in
  List.init t.n (fun i -> t.buf.((t.start + i) mod cap))

let length t = t.n

let truncated t = t.dropped > 0

let dropped t = t.dropped

let filter t p = List.filter p (entries t)
