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

(* H(j 2 pi f) into [out.(0)], [out.(1)]: operation for operation
   [Ratfun.eval_jw] over the coefficient arrays [num] and [den]: Horner
   on each, then the stdlib [Complex.div] (Smith's method) written out *)
let eval_jw_into out ~num ~den f =
  let w = 2.0 *. Float.pi *. f in
  Poly.horner_into out num 0.0 w;
  let xre = out.(0) and xim = out.(1) in
  Poly.horner_into out den 0.0 w;
  let yre = out.(0) and yim = out.(1) in
  if Float.abs yre >= Float.abs yim then begin
    let r = yim /. yre in
    let d = yre +. (r *. yim) in
    out.(0) <- (xre +. (r *. xim)) /. d;
    out.(1) <- (xim -. (r *. xre)) /. d
  end
  else begin
    let r = yre /. yim in
    let d = yim +. (r *. yre) in
    out.(0) <- ((r *. xre) +. xim) /. d;
    out.(1) <- ((r *. xim) -. xre) /. d
  end

(* Log-spaced search for |H| crossing each of [levels]; hz bounds derived
   from the pole/zero magnitudes so the search window always brackets the
   action. One scan serves every level: |H| is computed once per grid
   point, and each level keeps the first sign change of |H| - level, the
   one [Rootfind.find_sign_change] would find on its own. The 400 grid
   points are computed as the scan reaches them (an array of them would
   be allocated straight into the major heap), and the scan stops once
   every level has its bracket. [Rootfind.brent] then refines each. *)
let find_crossings out ~num ~den ~f_lo ~f_hi levels =
  let n = 400 and k = Array.length levels in
  let lf0 = log10 f_lo and lf1 = log10 f_hi in
  let grid i = 10.0 ** (lf0 +. ((lf1 -. lf0) *. float_of_int i /. float_of_int (n - 1))) in
  let mag x =
    eval_jw_into out ~num ~den x;
    Float.hypot out.(0) out.(1)
  in
  (* per level: |H| - level at the previous grid point, and the index
     [i] of the first bracket [grid (i - 1), grid i] (0 until found) *)
  let m0 = mag (grid 0) in
  let prev_f = Array.map (fun level -> m0 -. level) levels in
  let bracket = Array.make k 0 in
  let rec scan i open_levels =
    if i < n && open_levels > 0 then begin
      let m = mag (grid i) in
      let closed = ref 0 in
      for j = 0 to k - 1 do
        if bracket.(j) = 0 then begin
          let fx = m -. levels.(j) in
          if prev_f.(j) *. fx <= 0.0 && (prev_f.(j) <> 0.0 || fx <> 0.0) then begin
            bracket.(j) <- i;
            incr closed
          end
          else prev_f.(j) <- fx
        end
      done;
      scan (i + 1) (open_levels - !closed)
    end
  in
  scan 1 k;
  Array.mapi
    (fun j i ->
      if i = 0 then None
      else Some (Rootfind.brent (fun x -> mag x -. levels.(j)) (grid (i - 1)) (grid i)))
    bracket

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
  let num = Poly.coeffs h.Ratfun.num and den = Poly.coeffs h.Ratfun.den in
  let out = Array.make 2 0.0 in
  let phase_at f =
    eval_jw_into out ~num ~den f;
    Float.atan2 out.(1) out.(0)
  in
  (* the unity crossing exists only above unity DC gain, the -3 dB one
     above zero gain *)
  let unity, bw =
    if dc > 1.0 then
      let c = find_crossings out ~num ~den ~f_lo ~f_hi [| 1.0; dc /. sqrt 2.0 |] in
      (c.(0), c.(1))
    else if dc > 0.0 then
      (None, (find_crossings out ~num ~den ~f_lo ~f_hi [| dc /. sqrt 2.0 |]).(0))
    else (None, None)
  in
  let pm =
    match unity with
    | None -> None
    | Some fu ->
      (* phase margin relative to the inversion-free loop convention:
         PM = 180 + phase(H(j wu)) with phase unwrapped from DC *)
      let ph_dc = phase_at (f_lo /. 10.0) in
      (* unwrap by stepping in log frequency *)
      let steps = 200 in
      let prev = ref ph_dc in
      let unwrapped = ref ph_dc in
      for i = 1 to steps do
        let f = (f_lo /. 10.0) *. ((fu /. (f_lo /. 10.0)) ** (float_of_int i /. float_of_int steps)) in
        let p = phase_at f in
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
