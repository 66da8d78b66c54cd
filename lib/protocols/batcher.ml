open Dpu_kernel

type config = { max_batch : int; max_delay_ms : float }

let default = { max_batch = 16; max_delay_ms = 2.0 }

let validate cfg =
  if cfg.max_batch < 1 then invalid_arg "Batcher: max_batch < 1";
  if cfg.max_delay_ms < 0.0 then invalid_arg "Batcher: negative max_delay_ms"

module Trigger = struct
  type t = {
    stack : Stack.t;
    config : config;
    fire : unit -> unit;
    mutable timer : Dpu_runtime.Clock.timer option;
  }

  let create stack config ~fire =
    validate config;
    { stack; config; fire; timer = None }

  let cancel t =
    match t.timer with
    | None -> ()
    | Some tm ->
      Dpu_runtime.Clock.cancel tm;
      t.timer <- None

  let force t =
    cancel t;
    t.fire ()

  let notify t ~pending =
    if pending >= t.config.max_batch then force t
    else if pending <= 0 then cancel t
    else
      match t.timer with
      | Some _ -> ()
      | None ->
        t.timer <-
          Some
            (Stack.after t.stack ~delay:t.config.max_delay_ms (fun () ->
                 t.timer <- None;
                 t.fire ()))
end

type 'a t = {
  trigger : Trigger.t;
  mutable pending : 'a list; (* newest first *)
  mutable count : int;
}

let create stack config ~flush =
  let rec t =
    lazy
      {
        trigger =
          Trigger.create stack config ~fire:(fun () ->
              let self = Lazy.force t in
              if self.count > 0 then begin
                let batch = List.rev self.pending in
                self.pending <- [];
                self.count <- 0;
                flush batch
              end);
        pending = [];
        count = 0;
      }
  in
  Lazy.force t

let add t x =
  t.pending <- x :: t.pending;
  t.count <- t.count + 1;
  Trigger.notify t.trigger ~pending:t.count

let flush t = Trigger.force t.trigger

let cancel t = Trigger.cancel t.trigger
