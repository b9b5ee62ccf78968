(* Runs tasks on a two-worker pool, shuts it down (its worker domains
   park in the reserve) and returns: the process must exit 0 anyway. *)

module Pool = Adc_exec.Pool

let () =
  let sum = Atomic.make 0 in
  Pool.with_pool ~size:2 (fun pool ->
      for i = 1 to 8 do
        Pool.async pool (fun () -> ignore (Atomic.fetch_and_add sum i))
      done);
  if Atomic.get sum <> 36 then exit 1
