(* Reference implementations the optimized transfer-function analysis
   must match bit for bit: the Aberth iteration over boxed [Complex.t]
   values, and pole/zero extraction that roots the reduced numerator and
   denominator separately after cancellation ([reduce], then [poles],
   then [zeros]). Shared by the numerics and sfg suites. *)

module Poly = Adc_numerics.Poly
module Rootfind = Adc_numerics.Rootfind
module Ratfun = Adc_sfg.Ratfun
module Analysis = Adc_sfg.Analysis

let eval_complex p z =
  let acc = ref Complex.zero in
  for i = Array.length p - 1 downto 0 do
    acc := Complex.add (Complex.mul !acc z) { Complex.re = p.(i); im = 0.0 }
  done;
  !acc

let roots ?(max_iter = 200) ?(tol = 1e-12) poly =
  let p = Poly.coeffs poly in
  let n = Poly.degree poly in
  if n < 1 then invalid_arg "Oracle.roots: degree < 1";
  let a0 = Float.abs p.(0) and an = Float.abs p.(n) in
  let r =
    if a0 > 0.0 && an > 0.0 then (a0 /. an) ** (1.0 /. float_of_int n)
    else 1.0
  in
  let r = if r > 0.0 && Float.is_finite r then r else 1.0 in
  let q = Array.init (n + 1) (fun k -> p.(k) *. (r ** float_of_int k)) in
  let lead = q.(n) in
  let q = Array.map (fun c -> c /. lead) q in
  let qp = Poly.coeffs (Poly.derivative (Poly.of_coeffs q)) in
  let zs =
    Array.init n (fun k ->
        let theta = (2.0 *. Float.pi *. float_of_int k /. float_of_int n) +. 0.4 in
        { Complex.re = 0.9 *. cos theta; im = 0.9 *. sin theta })
  in
  let converged = ref false in
  let iter = ref 0 in
  while (not !converged) && !iter < max_iter do
    incr iter;
    let max_step = ref 0.0 in
    for i = 0 to n - 1 do
      let zi = zs.(i) in
      let pv = eval_complex q zi in
      let pdv = eval_complex qp zi in
      if Complex.norm pv > 0.0 then begin
        let newton =
          if Complex.norm pdv < 1e-300 then { Complex.re = 1e-3; im = 1e-3 }
          else Complex.div pv pdv
        in
        let repulse = ref Complex.zero in
        for j = 0 to n - 1 do
          if j <> i then begin
            let d = Complex.sub zi zs.(j) in
            if Complex.norm d > 1e-300 then
              repulse := Complex.add !repulse (Complex.div Complex.one d)
          end
        done;
        let denom = Complex.sub Complex.one (Complex.mul newton !repulse) in
        let step =
          if Complex.norm denom < 1e-300 then newton else Complex.div newton denom
        in
        zs.(i) <- Complex.sub zi step;
        max_step := Float.max !max_step (Complex.norm step)
      end
    done;
    if !max_step < tol then converged := true
  done;
  Array.map
    (fun z ->
      let z = { Complex.re = z.Complex.re *. r; im = z.Complex.im *. r } in
      if Float.abs z.Complex.im < 1e-9 *. (1.0 +. Float.abs z.Complex.re) then
        { z with Complex.im = 0.0 }
      else z)
    zs

let reduce ?(tol = 1e-6) (a : Ratfun.t) =
  let open Ratfun in
  if Poly.is_zero a.num || Poly.degree a.num < 1 || Poly.degree a.den < 1 then a
  else begin
    let nz = roots a.num and dp = roots a.den in
    let num_lead = (Poly.coeffs a.num).(Poly.degree a.num) in
    let den_lead = (Poly.coeffs a.den).(Poly.degree a.den) in
    let matched = ref [] in
    let remaining_d = ref (Array.to_list dp) in
    let keep_n =
      Array.to_list nz
      |> List.filter (fun (z : Complex.t) ->
             let scale = 1.0 +. Complex.norm z in
             match
               List.partition
                 (fun (p : Complex.t) -> Complex.norm (Complex.sub z p) < tol *. scale)
                 !remaining_d
             with
             | [], _ -> true
             | _ :: close_rest, far ->
               remaining_d := close_rest @ far;
               matched := z :: !matched;
               false)
    in
    if !matched = [] then a
    else
      make
        (Poly.scale num_lead (Poly.from_roots (Array.of_list keep_n)))
        (Poly.scale den_lead (Poly.from_roots (Array.of_list !remaining_d)))
  end

let poles (a : Ratfun.t) = if Poly.degree a.den < 1 then [||] else roots a.den
let zeros (a : Ratfun.t) = if Poly.degree a.num < 1 then [||] else roots a.num

let sort_by_magnitude arr =
  let a = Array.copy arr in
  Array.sort (fun (x : Complex.t) (y : Complex.t) -> compare (Complex.norm x) (Complex.norm y)) a;
  a

let find_crossing h ~level ~f_lo ~f_hi =
  let n = 400 in
  let lf0 = log10 f_lo and lf1 = log10 f_hi in
  let grid =
    Array.init n (fun i ->
        10.0 ** (lf0 +. ((lf1 -. lf0) *. float_of_int i /. float_of_int (n - 1))))
  in
  let f_of x = Analysis.magnitude_at h x -. level in
  match Rootfind.find_sign_change f_of grid with
  | None -> None
  | Some (a, b) -> Some (Rootfind.brent f_of a b)

let freq_window poles zeros =
  let mags =
    Array.to_list (Array.map Complex.norm poles) @ Array.to_list (Array.map Complex.norm zeros)
    |> List.filter (fun m -> m > 0.0 && Float.is_finite m)
  in
  match mags with
  | [] -> (1.0, 1e12)
  | ms ->
    let lo = List.fold_left Float.min infinity ms /. (2.0 *. Float.pi) in
    let hi = List.fold_left Float.max 0.0 ms /. (2.0 *. Float.pi) in
    (Float.max 1e-3 (lo /. 1e3), hi *. 1e3)

let characterize h : Analysis.spec =
  let h = reduce h in
  let poles = sort_by_magnitude (poles h) in
  let zeros = sort_by_magnitude (zeros h) in
  let dc_signed = Ratfun.dc_gain h in
  let dc = Float.abs dc_signed in
  let f_lo, f_hi = freq_window poles zeros in
  let unity = if dc > 1.0 then find_crossing h ~level:1.0 ~f_lo ~f_hi else None in
  let pm =
    match unity with
    | None -> None
    | Some fu ->
      let ph_dc = Complex.arg (Ratfun.eval_jw h (f_lo /. 10.0)) in
      let steps = 200 in
      let prev = ref ph_dc in
      let unwrapped = ref ph_dc in
      for i = 1 to steps do
        let f =
          (f_lo /. 10.0) *. ((fu /. (f_lo /. 10.0)) ** (float_of_int i /. float_of_int steps))
        in
        let p = Complex.arg (Ratfun.eval_jw h f) in
        let rec adjust p =
          if p -. !prev > Float.pi then adjust (p -. (2.0 *. Float.pi))
          else if p -. !prev < -.Float.pi then adjust (p +. (2.0 *. Float.pi))
          else p
        in
        let p = adjust p in
        prev := p;
        unwrapped := p
      done;
      Some (180.0 +. ((!unwrapped -. ph_dc) *. 180.0 /. Float.pi))
  in
  let bw = if dc > 0.0 then find_crossing h ~level:(dc /. sqrt 2.0) ~f_lo ~f_hi else None in
  {
    Analysis.dc_gain = dc;
    dc_gain_signed = dc_signed;
    poles;
    zeros;
    unity_gain_hz = unity;
    phase_margin_deg = pm;
    bandwidth_3db_hz = bw;
    gbw_hz = Option.map (fun f -> dc *. f) bw;
  }

(* bit equality, NaN payloads and signed zeros included *)
let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_complex (a : Complex.t) (b : Complex.t) =
  same_float a.Complex.re b.Complex.re && same_float a.Complex.im b.Complex.im

let same_roots a b = Array.length a = Array.length b && Array.for_all2 same_complex a b

let same_option a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> same_float x y
  | _ -> false

let same_spec (a : Analysis.spec) (b : Analysis.spec) =
  same_float a.dc_gain b.dc_gain
  && same_float a.dc_gain_signed b.dc_gain_signed
  && same_roots a.poles b.poles
  && same_roots a.zeros b.zeros
  && same_option a.unity_gain_hz b.unity_gain_hz
  && same_option a.phase_margin_deg b.phase_margin_deg
  && same_option a.bandwidth_3db_hz b.bandwidth_3db_hz
  && same_option a.gbw_hz b.gbw_hz
