type t = float array
(* invariant: empty (zero polynomial) or last element non-zero *)

let trim c =
  let n = ref (Array.length c) in
  while !n > 0 && c.(!n - 1) = 0.0 do
    decr n
  done;
  Array.sub c 0 !n

let of_coeffs c = trim c
let coeffs p = Array.copy p
let degree p = Array.length p - 1
let zero = [||]
let one = [| 1.0 |]
let constant v = if v = 0.0 then zero else [| v |]

let monomial c k =
  if c = 0.0 then zero
  else Array.init (k + 1) (fun i -> if i = k then c else 0.0)

let is_zero p = Array.length p = 0

let equal ?(tol = 1e-12) a b =
  let n = Stdlib.max (Array.length a) (Array.length b) in
  let coef p i = if i < Array.length p then p.(i) else 0.0 in
  let rec go i =
    if i >= n then true
    else if Float.abs (coef a i -. coef b i) > tol then false
    else go (i + 1)
  in
  go 0

let add a b =
  let n = Stdlib.max (Array.length a) (Array.length b) in
  let coef p i = if i < Array.length p then p.(i) else 0.0 in
  trim (Array.init n (fun i -> coef a i +. coef b i))

let scale s a = if s = 0.0 then zero else trim (Array.map (fun x -> s *. x) a)
let sub a b = add a (scale (-1.0) b)

let mul a b =
  if is_zero a || is_zero b then zero
  else begin
    let r = Array.make (Array.length a + Array.length b - 1) 0.0 in
    Array.iteri
      (fun i ai ->
        if ai <> 0.0 then
          Array.iteri (fun j bj -> r.(i + j) <- r.(i + j) +. (ai *. bj)) b)
      a;
    trim r
  end

let pow p k =
  assert (k >= 0);
  let rec go acc base k =
    if k = 0 then acc
    else if k land 1 = 1 then go (mul acc base) (mul base base) (k lsr 1)
    else go acc (mul base base) (k lsr 1)
  in
  go one p k

let derivative p =
  if Array.length p <= 1 then zero
  else trim (Array.init (Array.length p - 1) (fun i -> float_of_int (i + 1) *. p.(i + 1)))

let eval p x =
  let acc = ref 0.0 in
  for i = Array.length p - 1 downto 0 do
    acc := (!acc *. x) +. p.(i)
  done;
  !acc

let eval_complex p z =
  let acc = ref Complex.zero in
  for i = Array.length p - 1 downto 0 do
    acc := Complex.add (Complex.mul !acc z) { Complex.re = p.(i); im = 0.0 }
  done;
  !acc

let is_finite p = Array.for_all Float.is_finite p

(* process-wide root-finding counts for live metrics: each {!roots}
   call adds once on return, never per iteration *)
let roots_calls = Tally.make "solver.poly_roots_total"
let aberth_iterations = Tally.make "solver.aberth_iterations_total"
let aberth_max_iter_hits = Tally.make "solver.aberth_max_iter_total"
let aberth_floor_stops = Tally.make "solver.aberth_floor_stops_total"

(* [x / y] by Smith's method, operation for operation the stdlib
   [Complex.div] (both branches), written to [out.(0)] (re) and
   [out.(1)] (im). Inlined, so its float arguments stay unboxed. *)
let[@inline] div_into out xre xim yre yim =
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

(* [c(z)] by Horner, operation for operation [eval_complex] (including
   the [+. 0.0] that the stdlib [Complex.add] of a real coefficient
   applies to the imaginary part), written to [out.(0)], [out.(1)]. *)
let[@inline] horner_into out c zre zim =
  let re = ref 0.0 and im = ref 0.0 in
  for k = Array.length c - 1 downto 0 do
    let are = !re and aim = !im in
    re := ((are *. zre) -. (aim *. zim)) +. c.(k);
    im := ((are *. zim) +. (aim *. zre)) +. 0.0
  done;
  out.(0) <- !re;
  out.(1) <- !im

(* [Float.hypot x y] is never below the larger of [|x|] and [|y|] (up to
   its last-bit error), so once that magnitude clears [t] with room to
   spare, [hypot x y > t] is decided without calling it. A NaN component
   is left to hypot itself (which answers NaN, or infinity beside an
   infinite component). The two comparisons below therefore answer
   exactly what the same comparison on [Float.hypot x y] answers. *)
let[@inline] surely_above x y t =
  let s = (t *. 1.000001) +. 1e-300 in
  let ax = Float.abs x and ay = Float.abs y in
  (ax > s && ay = ay) || (ay > s && ax = ax)

let[@inline] hypot_gt x y t = surely_above x y t || Float.hypot x y > t
let[@inline] hypot_lt x y t = (not (surely_above x y t)) && Float.hypot x y < t

(* Aberth-Ehrlich: all roots simultaneously.

   Transfer-function polynomials have coefficients spanning many decades
   (powers of time constants), so we first scale the variable x = s*r with
   r chosen from the coefficient magnitudes to bring the roots near the
   unit circle, which keeps the iteration well conditioned.

   The iteration runs over unboxed float arrays: each complex operation
   is the stdlib [Complex] one written out in its exact operation order
   (Smith's division; [Complex.norm] is [Float.hypot], only ever
   compared), and roots are updated in place in index order
   (Gauss-Seidel), so the result is bit for bit the boxed [Complex.t]
   formulation while the loop allocates nothing. The sweep's largest
   step matters only through [max_step < tol], that is [0 < tol] and
   every step below [tol], and through the floor test below.

   Rounding floor: a degree-11 denominator's steps stop shrinking near
   1e-10 (scaled) and never meet [tol] = 1e-12. So, when [0 < tol], the
   first sweep whose every step is below [floor_step] starts a count of
   [floor_sweeps] more sweeps, after which the iteration stops
   (docs/SOLVER.md, "noise floor"). *)
let floor_step = 1e-8
let floor_sweeps = 3

let roots ?(max_iter = 200) ?(tol = 1e-12) p =
  let n = degree p in
  if n < 1 then invalid_arg "Poly.roots: degree < 1";
  if not (is_finite p) then invalid_arg "Poly.roots: non-finite coefficient";
  (* variable scaling: r ~ geometric estimate of root magnitude *)
  let a0 = Float.abs p.(0) and an = Float.abs p.(n) in
  let r =
    if a0 > 0.0 && an > 0.0 then (a0 /. an) ** (1.0 /. float_of_int n)
    else 1.0
  in
  let r = if r > 0.0 && Float.is_finite r then r else 1.0 in
  let q = Array.init (n + 1) (fun k -> p.(k) *. (r ** float_of_int k)) in
  (* normalize to monic *)
  let lead = q.(n) in
  let q = Array.map (fun c -> c /. lead) q in
  let qp = derivative q in
  (* initial guesses on a circle with irrational angle step *)
  let zr = Array.make n 0.0 and zi = Array.make n 0.0 in
  for k = 0 to n - 1 do
    let theta = (2.0 *. Float.pi *. float_of_int k /. float_of_int n) +. 0.4 in
    zr.(k) <- 0.9 *. cos theta;
    zi.(k) <- 0.9 *. sin theta
  done;
  let out = Array.make 2 0.0 in
  let converged = ref false in
  (* sweeps left once the floor is reached: -1 before that, 0 stops *)
  let floor_left = ref (-1) in
  let iter = ref 0 in
  while (not !converged) && !floor_left <> 0 && !iter < max_iter do
    incr iter;
    let all_small = ref true and all_floor = ref true in
    for i = 0 to n - 1 do
      let zre = zr.(i) and zim = zi.(i) in
      horner_into out q zre zim;
      let pre = out.(0) and pim = out.(1) in
      horner_into out qp zre zim;
      let dre = out.(0) and dim = out.(1) in
      if hypot_gt pre pim 0.0 then begin
        (* newton = p(z) / p'(z) *)
        if hypot_lt dre dim 1e-300 then begin
          out.(0) <- 1e-3;
          out.(1) <- 1e-3
        end
        else div_into out pre pim dre dim;
        let nre = out.(0) and nim = out.(1) in
        (* repulse = sum_{j <> i} 1 / (z_i - z_j) *)
        let rre = ref 0.0 and rim = ref 0.0 in
        for j = 0 to n - 1 do
          if j <> i then begin
            let ddre = zre -. zr.(j) and ddim = zim -. zi.(j) in
            if hypot_gt ddre ddim 1e-300 then begin
              div_into out 1.0 0.0 ddre ddim;
              rre := !rre +. out.(0);
              rim := !rim +. out.(1)
            end
          end
        done;
        (* denom = 1 - newton * repulse *)
        let mre = (nre *. !rre) -. (nim *. !rim)
        and mim = (nre *. !rim) +. (nim *. !rre) in
        let ere = 1.0 -. mre and eim = 0.0 -. mim in
        if hypot_lt ere eim 1e-300 then begin
          out.(0) <- nre;
          out.(1) <- nim
        end
        else div_into out nre nim ere eim;
        let sre = out.(0) and sim = out.(1) in
        zr.(i) <- zre -. sre;
        zi.(i) <- zim -. sim;
        all_small := !all_small && hypot_lt sre sim tol;
        all_floor := !all_floor && hypot_lt sre sim floor_step
      end
    done;
    if 0.0 < tol then begin
      if !all_small then converged := true
      else if !floor_left > 0 then decr floor_left
      else if !all_floor then floor_left := floor_sweeps
    end
  done;
  Tally.incr roots_calls;
  Tally.add aberth_iterations !iter;
  if !floor_left = 0 then Tally.incr aberth_floor_stops
  else if not !converged then Tally.incr aberth_max_iter_hits;
  (* unscale and clean imaginary residue of real roots *)
  Array.init n (fun k ->
      let re = zr.(k) *. r and im = zi.(k) *. r in
      if Float.abs im < 1e-9 *. (1.0 +. Float.abs re) then { Complex.re; im = 0.0 }
      else { Complex.re; im })

let from_roots rs =
  let p =
    Array.fold_left
      (fun acc (root : Complex.t) ->
        (* multiply acc (complex) by (x - root) *)
        let n = Array.length acc in
        let next = Array.make (n + 1) Complex.zero in
        Array.iteri
          (fun i c ->
            next.(i + 1) <- Complex.add next.(i + 1) c;
            next.(i) <- Complex.sub next.(i) (Complex.mul c root))
          acc;
        next)
      [| Complex.one |] rs
  in
  of_coeffs (Array.map (fun (z : Complex.t) -> z.Complex.re) p)

let pp ppf p =
  if is_zero p then Format.pp_print_string ppf "0"
  else begin
    let first = ref true in
    Array.iteri
      (fun i c ->
        if c <> 0.0 then begin
          if not !first then Format.pp_print_string ppf " + ";
          first := false;
          if i = 0 then Format.fprintf ppf "%g" c
          else if i = 1 then Format.fprintf ppf "%g*x" c
          else Format.fprintf ppf "%g*x^%d" c i
        end)
      p
  end
