module Poly = Adc_numerics.Poly
module Rootfind = Adc_numerics.Rootfind

type spec = {
  dc_gain : float;
  dc_gain_signed : float;
  poles : Complex.t array;
  zeros : Complex.t array;
  unity_gain_hz : float option;
  phase_margin_deg : float option;
  bandwidth_3db_hz : float option;
  gbw_hz : float option;
}

let magnitude_at h f = Complex.norm (Ratfun.eval_jw h f)
let phase_deg_at h f = Complex.arg (Ratfun.eval_jw h f) *. 180.0 /. Float.pi

let sort_by_magnitude arr =
  let a = Array.copy arr in
  Array.sort (fun (x : Complex.t) (y : Complex.t) -> compare (Complex.norm x) (Complex.norm y)) a;
  a

(* log-spaced search for |H| crossing [level]; hz bounds derived from the
   pole/zero magnitudes so the search window always brackets the action *)
let find_crossing h ~level ~f_lo ~f_hi =
  let n = 400 in
  let lf0 = log10 f_lo and lf1 = log10 f_hi in
  let grid = Array.init n (fun i -> 10.0 ** (lf0 +. ((lf1 -. lf0) *. float_of_int i /. float_of_int (n - 1)))) in
  let f_of x = magnitude_at h x -. level in
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

let characterize h =
  let h, poles, zeros = Ratfun.factor h in
  let poles = sort_by_magnitude poles in
  let zeros = sort_by_magnitude zeros in
  let dc_signed = Ratfun.dc_gain h in
  let dc = Float.abs dc_signed in
  let f_lo, f_hi = freq_window poles zeros in
  let unity = if dc > 1.0 then find_crossing h ~level:1.0 ~f_lo ~f_hi else None in
  let pm =
    match unity with
    | None -> None
    | Some fu ->
      (* phase margin relative to the inversion-free loop convention:
         PM = 180 + phase(H(j wu)) with phase unwrapped from DC *)
      let ph_dc = Complex.arg (Ratfun.eval_jw h (f_lo /. 10.0)) in
      (* unwrap by stepping in log frequency *)
      let steps = 200 in
      let prev = ref ph_dc in
      let unwrapped = ref ph_dc in
      for i = 1 to steps do
        let f = (f_lo /. 10.0) *. ((fu /. (f_lo /. 10.0)) ** (float_of_int i /. float_of_int steps)) in
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
      (* measure phase relative to the DC phase (handles inverting gains) *)
      let excess = (!unwrapped -. ph_dc) *. 180.0 /. Float.pi in
      Some (180.0 +. excess)
  in
  let bw = if dc > 0.0 then find_crossing h ~level:(dc /. sqrt 2.0) ~f_lo ~f_hi else None in
  let gbw = match bw with Some f -> Some (dc *. f) | None -> None in
  {
    dc_gain = dc;
    dc_gain_signed = dc_signed;
    poles;
    zeros;
    unity_gain_hz = unity;
    phase_margin_deg = pm;
    bandwidth_3db_hz = bw;
    gbw_hz = gbw;
  }

let is_stable spec =
  Array.for_all (fun (p : Complex.t) -> p.re < 0.0) spec.poles

(* Residue of H(s)/s at pole p_k: N(p_k) / (p_k * D'(p_k)). *)
let step_terms h =
  let h, poles, _ = Ratfun.factor h in
  let d' = Poly.derivative h.Ratfun.den in
  let final = Ratfun.dc_gain h in
  let residues =
    Array.map
      (fun p ->
        let n_p = Poly.eval_complex h.Ratfun.num p in
        let denom = Complex.mul p (Poly.eval_complex d' p) in
        if Complex.norm denom < 1e-300 then (p, Complex.zero)
        else (p, Complex.div n_p denom))
      poles
  in
  (final, residues)

let step_response h ~t =
  let final, residues = step_terms h in
  let acc = ref final in
  Array.iter
    (fun ((p : Complex.t), (r : Complex.t)) ->
      let e = Complex.exp { Complex.re = p.re *. t; im = p.im *. t } in
      acc := !acc +. (Complex.mul r e).Complex.re)
    residues;
  !acc

let linear_settling_time h ~tol =
  let final, residues = step_terms h in
  if Array.exists (fun ((p : Complex.t), _) -> p.re >= 0.0) residues then None
  else if Array.length residues = 0 then Some 0.0
  else begin
    let slowest =
      Array.fold_left (fun acc ((p : Complex.t), _) -> Float.min acc (Float.abs p.re)) infinity residues
    in
    let t_max = 60.0 /. slowest in
    let n = 3000 in
    let band = tol *. Float.max (Float.abs final) 1e-30 in
    let y t =
      let acc = ref final in
      Array.iter
        (fun ((p : Complex.t), (r : Complex.t)) ->
          let e = Complex.exp { Complex.re = p.re *. t; im = p.im *. t } in
          acc := !acc +. (Complex.mul r e).Complex.re)
        residues;
      !acc
    in
    (* scan from the end for the last sample outside the band *)
    let rec find_last i =
      if i < 0 then Some 0.0
      else begin
        let t = t_max *. float_of_int i /. float_of_int n in
        if Float.abs (y t -. final) > band then
          if i = n then None else Some (t_max *. float_of_int (i + 1) /. float_of_int n)
        else find_last (i - 1)
      end
    in
    find_last n
  end
