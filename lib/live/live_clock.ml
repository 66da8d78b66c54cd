module Clock = Dpu_runtime.Clock

type t = { epoch : float; wheel : Timer_wheel.t }

let create ~epoch wheel = { epoch; wheel }

let now t = (Unix.gettimeofday () -. t.epoch) *. 1000.0

let wheel t = t.wheel

let clock t =
  {
    Clock.now = (fun () -> now t);
    defer = (fun ~delay fn -> Timer_wheel.add t.wheel ~now:(now t) ~delay fn);
    schedule_impl = (fun ~delay fn -> Timer_wheel.schedule t.wheel ~now:(now t) ~delay fn);
    every_impl = (fun ~period fn -> Timer_wheel.every t.wheel ~now:(now t) ~period fn);
  }

let advance t = Timer_wheel.advance t.wheel ~now:(now t)

let next_deadline t = Timer_wheel.next_deadline t.wheel
