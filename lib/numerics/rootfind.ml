exception No_bracket

let bisect ?(tol = 1e-12) ?(max_iter = 200) f a b =
  let fa = f a and fb = f b in
  if fa = 0.0 then a
  else if fb = 0.0 then b
  else begin
    if fa *. fb > 0.0 then raise No_bracket;
    let rec go a fa b i =
      let m = 0.5 *. (a +. b) in
      if i >= max_iter || Float.abs (b -. a) <= tol *. (1.0 +. Float.abs m) then m
      else
        let fm = f m in
        if fm = 0.0 then m
        else if fa *. fm < 0.0 then go a fa m (i + 1)
        else go m fm b (i + 1)
    in
    go a fa b 0
  end

let brent ?(tol = 1e-13) ?(max_iter = 100) f a b =
  let fa = f a and fb = f b in
  if fa = 0.0 then a
  else if fb = 0.0 then b
  else begin
    if fa *. fb > 0.0 then raise No_bracket;
    (* classic Brent bookkeeping: b is the best iterate, a the previous,
       c the last point keeping the bracket *)
    let a = ref a and b = ref b and fa = ref fa and fb = ref fb in
    if Float.abs !fa < Float.abs !fb then begin
      let t = !a in a := !b; b := t;
      let t = !fa in fa := !fb; fb := t
    end;
    let c = ref !a and fc = ref !fa in
    let d = ref (!b -. !a) and e = ref (!b -. !a) in
    let result = ref None in
    let i = ref 0 in
    while !result = None && !i < max_iter do
      incr i;
      if !fb *. !fc > 0.0 then begin
        c := !a; fc := !fa; d := !b -. !a; e := !d
      end;
      if Float.abs !fc < Float.abs !fb then begin
        a := !b; b := !c; c := !a;
        fa := !fb; fb := !fc; fc := !fa
      end;
      let tol1 = (2.0 *. epsilon_float *. Float.abs !b) +. (0.5 *. tol) in
      let xm = 0.5 *. (!c -. !b) in
      if Float.abs xm <= tol1 || !fb = 0.0 then result := Some !b
      else begin
        if Float.abs !e >= tol1 && Float.abs !fa > Float.abs !fb then begin
          let s = !fb /. !fa in
          let p, q =
            if !a = !c then
              (* secant *)
              (2.0 *. xm *. s, 1.0 -. s)
            else begin
              (* inverse quadratic *)
              let qq = !fa /. !fc and r = !fb /. !fc in
              ( s *. ((2.0 *. xm *. qq *. (qq -. r)) -. ((!b -. !a) *. (r -. 1.0))),
                (qq -. 1.0) *. (r -. 1.0) *. (s -. 1.0) )
            end
          in
          let p, q = if p > 0.0 then (p, -.q) else (-.p, q) in
          let min1 = (3.0 *. xm *. q) -. Float.abs (tol1 *. q) in
          let min2 = Float.abs (!e *. q) in
          if 2.0 *. p < Float.min min1 min2 then begin
            e := !d;
            d := p /. q
          end
          else begin
            d := xm;
            e := !d
          end
        end
        else begin
          d := xm;
          e := !d
        end;
        a := !b;
        fa := !fb;
        if Float.abs !d > tol1 then b := !b +. !d
        else b := !b +. (if xm >= 0.0 then tol1 else -.tol1);
        fb := f !b
      end
    done;
    match !result with Some r -> r | None -> !b
  end

let newton ?(tol = 1e-12) ?(max_iter = 50) ~f ~df x0 =
  let rec go x i =
    if i >= max_iter then None
    else
      let fx = f x in
      if Float.abs fx <= tol then Some x
      else
        let d = df x in
        if Float.abs d < 1e-300 then None
        else begin
          let step = fx /. d in
          (* damp huge steps *)
          let limit = 1e6 *. (1.0 +. Float.abs x) in
          let step = if Float.abs step > limit then Float.copy_sign limit step else step in
          go (x -. step) (i + 1)
        end
  in
  go x0 0

(* Invariant: a < c < d < b with c = b - phi(b-a) and d = a + phi(b-a).
   Each step discards the sub-interval that cannot contain the minimum and
   reuses one interior evaluation. *)
let golden_min ?(tol = 1e-10) f a b =
  let phi = (sqrt 5.0 -. 1.0) /. 2.0 in
  let rec go a b c fc d fd i =
    if i > 200 || Float.abs (b -. a) <= tol *. (1.0 +. Float.abs a +. Float.abs b) then
      0.5 *. (a +. b)
    else if fc < fd then begin
      (* minimum in [a, d]: d becomes the new right edge *)
      let b = d in
      let d = c and fd = fc in
      let c = b -. (phi *. (b -. a)) in
      go a b c (f c) d fd (i + 1)
    end
    else begin
      (* minimum in [c, b]: c becomes the new left edge *)
      let a = c in
      let c = d and fc = fd in
      let d = a +. (phi *. (b -. a)) in
      go a b c fc d (f d) (i + 1)
    end
  in
  let c = b -. (phi *. (b -. a)) in
  let d = a +. (phi *. (b -. a)) in
  go a b c (f c) d (f d) 0

let find_sign_change f xs =
  let n = Array.length xs in
  let rec go i prev_x prev_f =
    if i >= n then None
    else
      let x = xs.(i) in
      let fx = f x in
      if prev_f *. fx <= 0.0 && (prev_f <> 0.0 || fx <> 0.0) then Some (prev_x, x)
      else go (i + 1) x fx
  in
  if n < 2 then None else go 1 xs.(0) (f xs.(0))

(* A sample [(p, f)] of a non-increasing [f] bounds [f mid] from one
   side: [p >= mid] gives [f mid >= f p], [p <= mid] gives [f mid <= f p].
   The known samples decide [mid] only when exactly one outcome follows
   from them; a set that implies two outcomes contradicts monotonicity
   and decides nothing. *)
let decide_known ~tol known mid =
  let exists pred = List.exists (fun (p, f) -> pred p f) known in
  let right = exists (fun p f -> p >= mid && f >= tol)
  and left = exists (fun p f -> p <= mid && f <= -.tol)
  and stop =
    exists (fun p f -> p <= mid && f < tol) && exists (fun p f -> p >= mid && f > -.tol)
  in
  match (right, left, stop) with
  | true, false, false -> `Right
  | false, true, false -> `Left
  | false, false, true -> `Stop
  | _ -> `Probe

(* A real sample is not kept: every later midpoint lies on the side it
   was decided toward, where that sample bounds nothing. *)
let monotone_bisect ~tol ~known ~probe lo hi =
  let rec go lo hi i =
    let mid = 0.5 *. (lo +. hi) in
    if i >= 60 then Ok mid
    else
      match decide_known ~tol known mid with
      | `Stop -> Ok mid
      | `Right -> go mid hi (i + 1)
      | `Left -> go lo mid (i + 1)
      | `Probe -> (
        match probe mid with
        | None -> Error mid
        | Some f ->
          if Float.abs f < tol then Ok mid
          else if f > 0.0 then go mid hi (i + 1)
          else go lo mid (i + 1))
  in
  go lo hi 0
