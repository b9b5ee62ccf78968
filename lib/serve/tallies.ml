module Metrics = Adc_obs.Metrics
module Tally = Adc_numerics.Tally

type row = { counter : Metrics.counter; tally : Tally.t; mutable seen : int }
type t = { lock : Mutex.t; rows : row list }

let attach m =
  let rows =
    if not (Metrics.enabled m) then []
    else
      List.map
        (fun (name, tally) -> { counter = Metrics.counter m name; tally; seen = Tally.get tally })
        (Tally.all ())
  in
  { lock = Mutex.create (); rows }

let fold t =
  Mutex.protect t.lock @@ fun () ->
  List.iter
    (fun r ->
      let v = Tally.get r.tally in
      Metrics.add r.counter (v - r.seen);
      r.seen <- v)
    t.rows
