module Poly = Adc_numerics.Poly

type t = { num : Poly.t; den : Poly.t }

exception Zero_denominator

let make num den =
  if Poly.is_zero den then raise Zero_denominator;
  let lead = (Poly.coeffs den).(Poly.degree den) in
  { num = Poly.scale (1.0 /. lead) num; den = Poly.scale (1.0 /. lead) den }

let of_const c = make (Poly.constant c) Poly.one
let s = make (Poly.monomial 1.0 1) Poly.one
let zero = of_const 0.0
let one = of_const 1.0

let add a b =
  make
    (Poly.add (Poly.mul a.num b.den) (Poly.mul b.num a.den))
    (Poly.mul a.den b.den)

let neg a = { a with num = Poly.scale (-1.0) a.num }
let sub a b = add a (neg b)
let mul a b = make (Poly.mul a.num b.num) (Poly.mul a.den b.den)

let div a b =
  if Poly.is_zero b.num then raise Zero_denominator;
  make (Poly.mul a.num b.den) (Poly.mul a.den b.num)

let scale k a = { a with num = Poly.scale k a.num }

let eval a z =
  Complex.div (Poly.eval_complex a.num z) (Poly.eval_complex a.den z)

let eval_jw a f = eval a { Complex.re = 0.0; im = 2.0 *. Float.pi *. f }

let rec of_expr (e : Expr.t) ~env =
  match e with
  | Expr.Const c -> of_const c
  | Expr.Var "s" -> s
  | Expr.Var n -> of_const (env n)
  | Expr.Add ts ->
    List.fold_left (fun acc t -> add acc (of_expr t ~env)) zero ts
  | Expr.Mul ts ->
    List.fold_left (fun acc t -> mul acc (of_expr t ~env)) one ts
  | Expr.Neg a -> neg (of_expr a ~env)
  | Expr.Div (a, b) -> div (of_expr a ~env) (of_expr b ~env)
  | Expr.Pow (a, k) ->
    let base = of_expr a ~env in
    let rec go acc i = if i = 0 then acc else go (mul acc base) (i - 1) in
    if k >= 0 then go one k else div one (go one (-k))

let roots_of p = if Poly.degree p < 1 then [||] else Poly.roots p

(* Cancellation works on root sets: any numerator root matched (within a
   relative tolerance scaled to the root magnitude) by a denominator root
   is removed from both. The scalar gain is preserved by rebuilding monic
   polynomials and reapplying the leading-coefficient ratio. When nothing
   cancels, the roots already computed are the answer; when something
   does, the rebuilt polynomials are rooted afresh (their roots are close
   to, but not bit-equal with, the surviving ones). *)
let factor ?(tol = 1e-6) a =
  if Poly.is_zero a.num || Poly.degree a.num < 1 || Poly.degree a.den < 1 then
    (a, roots_of a.den, roots_of a.num)
  else begin
    let nz = Poly.roots a.num and dp = Poly.roots a.den in
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
               (* drop one matching denominator root *)
               remaining_d := close_rest @ far;
               matched := z :: !matched;
               false)
    in
    if !matched = [] then (a, dp, nz)
    else begin
      let num' = Poly.scale num_lead (Poly.from_roots (Array.of_list keep_n)) in
      let den' = Poly.scale den_lead (Poly.from_roots (Array.of_list !remaining_d)) in
      let h = make num' den' in
      (h, roots_of h.den, roots_of h.num)
    end
  end

let reduce ?tol a =
  let h, _, _ = factor ?tol a in
  h

let poles a = roots_of a.den
let zeros a = roots_of a.num

let is_finite a = Poly.is_finite a.num && Poly.is_finite a.den

let dc_gain a =
  let d = Poly.eval a.den 0.0 in
  if d = 0.0 then infinity else Poly.eval a.num 0.0 /. d

let pp ppf a =
  Format.fprintf ppf "(%a) / (%a)" Poly.pp a.num Poly.pp a.den
