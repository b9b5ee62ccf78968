(* Order statistics shared by the workloads and by [compare]. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* nearest-rank percentile, [p] in [0, 1]; 0 for an empty sample *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* The median of the samples, each a (value, steal rate) pair, taken over
   the half of them during which the hypervisor stole the least CPU time
   from this virtual machine (ties all count, so with no steal every
   sample does). On a virtual machine whose host is shared, steal comes
   in bursts of seconds that can slow a sample by a third; a burst over
   less than half of a run's samples leaves this median alone. *)
let quiet_median samples =
  let steals = sorted (List.map snd samples) in
  if steals = [||] then 0.0
  else
    let cut = steals.((Array.length steals - 1) / 2) in
    median (List.filter_map (fun (v, s) -> if s <= cut then Some v else None) samples)

(* quartiles exactly as Python's [statistics.quantiles(xs, n=4)] (the
   default "exclusive" method), so [compare] and the acceptance check
   agree on what a spread is *)
let quartiles xs =
  let a = sorted xs in
  let m = Array.length a in
  if m = 0 then (0.0, 0.0)
  else if m = 1 then (a.(0), a.(0))
  else
    let q i =
      let j = Stdlib.max 1 (Stdlib.min (m - 1) (i * (m + 1) / 4)) in
      let delta = (i * (m + 1)) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 3)
