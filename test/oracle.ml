(* Reference implementations the optimized transfer-function analysis
   must match bit for bit: the Aberth iteration over boxed [Complex.t]
   values, and pole/zero extraction that roots the reduced numerator and
   denominator separately after cancellation ([reduce], then [poles],
   then [zeros]). Shared by the numerics, sfg and synth suites.

   [~floor_stop:false] turns off the rounding-floor stop, so the
   iteration runs until [tol] or [max_iter] as it did before the stop
   existed: the reference the floor stop's tolerance is measured
   against. *)

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

let roots ?(max_iter = 200) ?(tol = 1e-12) ?(floor_stop = true) poly =
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
  let floor_left = ref (-1) in
  let iter = ref 0 in
  while (not !converged) && !floor_left <> 0 && !iter < max_iter do
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
    else if floor_stop && 0.0 < tol then begin
      (* three more sweeps after the first one under 1e-8, then stop *)
      if !floor_left > 0 then decr floor_left
      else if !max_step < 1e-8 then floor_left := 3
    end
  done;
  Array.map
    (fun z ->
      let z = { Complex.re = z.Complex.re *. r; im = z.Complex.im *. r } in
      if Float.abs z.Complex.im < 1e-9 *. (1.0 +. Float.abs z.Complex.re) then
        { z with Complex.im = 0.0 }
      else z)
    zs

let reduce ?(tol = 1e-6) ?floor_stop (a : Ratfun.t) =
  let open Ratfun in
  if Poly.is_zero a.num || Poly.degree a.num < 1 || Poly.degree a.den < 1 then a
  else begin
    let nz = roots ?floor_stop a.num and dp = roots ?floor_stop a.den in
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

let poles ?floor_stop (a : Ratfun.t) =
  if Poly.degree a.den < 1 then [||] else roots ?floor_stop a.den

let zeros ?floor_stop (a : Ratfun.t) =
  if Poly.degree a.num < 1 then [||] else roots ?floor_stop a.num

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

let characterize ?floor_stop h : Analysis.spec =
  let h = reduce ?floor_stop h in
  let poles = sort_by_magnitude (poles ?floor_stop h) in
  let zeros = sort_by_magnitude (zeros ?floor_stop h) in
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

(* ------------------------------------------------------------------ *)
(* The DPI transfer function as it was computed before programs were
   compiled per topology: symbolic stamps named by string, an
   environment table, [eval_complex] over every Y cell at each sample
   point and a boxed complex LU determinant. [Dpi] must match it bit for
   bit. *)

module Expr = Adc_sfg.Expr
module Netlist = Adc_circuit.Netlist
module Smallsig = Adc_circuit.Smallsig

let rec eval_complex (e : Expr.t) env =
  match e with
  | Expr.Const c -> { Complex.re = c; im = 0.0 }
  | Expr.Var n -> env n
  | Expr.Add ts ->
    List.fold_left (fun acc t -> Complex.add acc (eval_complex t env)) Complex.zero ts
  | Expr.Mul ts ->
    List.fold_left (fun acc t -> Complex.mul acc (eval_complex t env)) Complex.one ts
  | Expr.Neg a -> Complex.neg (eval_complex a env)
  | Expr.Div (a, b) ->
    let d = eval_complex b env in
    if Complex.norm d = 0.0 then raise Division_by_zero
    else Complex.div (eval_complex a env) d
  | Expr.Pow (a, k) ->
    let base = eval_complex a env in
    let rec go acc i = if i = 0 then acc else go (Complex.mul acc base) (i - 1) in
    if k >= 0 then go Complex.one k else Complex.div Complex.one (go Complex.one (-k))

(* determinant of the row-major [n*n] matrix [m] by LU with partial
   pivoting over boxed [Complex.t]; zero for a singular matrix *)
let det n (m : Complex.t array) =
  let a = Array.copy m in
  let idx i j = (i * n) + j in
  let sign = ref 1.0 in
  let result = ref Complex.one in
  (try
     for k = 0 to n - 1 do
       let pmax = ref (Complex.norm a.(idx k k)) in
       let prow = ref k in
       for i = k + 1 to n - 1 do
         let v = Complex.norm a.(idx i k) in
         if v > !pmax then begin
           pmax := v;
           prow := i
         end
       done;
       if !pmax = 0.0 then begin
         result := Complex.zero;
         raise Exit
       end;
       if !prow <> k then begin
         sign := -. !sign;
         for j = k to n - 1 do
           let tmp = a.(idx k j) in
           a.(idx k j) <- a.(idx !prow j);
           a.(idx !prow j) <- tmp
         done
       end;
       let pivot = a.(idx k k) in
       result := Complex.mul !result pivot;
       for i = k + 1 to n - 1 do
         let f = Complex.div a.(idx i k) pivot in
         if f <> Complex.zero then
           for j = k + 1 to n - 1 do
             a.(idx i j) <- Complex.sub a.(idx i j) (Complex.mul f a.(idx k j))
           done
       done
     done
   with Exit -> ());
  { Complex.re = !result.Complex.re *. !sign; im = !result.Complex.im *. !sign }

type dpi = {
  numeric_tf : Netlist.node -> Ratfun.t;
  numeric_tf_current :
    src_pos:Netlist.node -> src_neg:Netlist.node -> out:Netlist.node -> Ratfun.t;
}

exception Unsupported of string

let dpi nl (ss : Smallsig.t) =
  let n = Netlist.node_count nl in
  let cells = Array.make (n * n) [] in
  let ystamp i j e = if i <> 0 && j <> 0 then cells.((i * n) + j) <- e :: cells.((i * n) + j) in
  let stamp_admittance a b y =
    ystamp a a y;
    ystamp b b y;
    ystamp a b (Expr.neg y);
    ystamp b a (Expr.neg y)
  in
  let stamp_gm ~d ~s ~cp ~cn g =
    ystamp d cp g;
    ystamp d cn (Expr.neg g);
    ystamp s cp (Expr.neg g);
    ystamp s cn g
  in
  let env_tbl : (string, float) Hashtbl.t = Hashtbl.create 32 in
  let define name value = Hashtbl.replace env_tbl name value in
  let mos_tbl = Hashtbl.create 8 in
  List.iter (fun (op : Smallsig.mos_op) -> Hashtbl.replace mos_tbl op.name op) ss.mos;
  let ac_ground = Hashtbl.create 4 in
  let inputs = ref [] in
  List.iter
    (fun d ->
      match d with
      | Netlist.Vsource { np; ac_mag; _ } ->
        if ac_mag > 0.0 then inputs := `V np :: !inputs else Hashtbl.replace ac_ground np ()
      | Netlist.Isource { i_name; ac_mag; _ } ->
        if ac_mag > 0.0 then inputs := `I i_name :: !inputs
      | _ -> ())
    (Netlist.devices nl);
  let input =
    match !inputs with
    | [ `V node ] -> `Voltage node
    | [ `I name ] -> `Current name
    | _ -> raise (Unsupported "not exactly one AC source")
  in
  let input_vnode = match input with `Voltage v -> Some v | `Current _ -> None in
  List.iter
    (fun d ->
      match d with
      | Netlist.Resistor { r_name; np; nn; ohms } ->
        define ("g_" ^ r_name) (1.0 /. ohms);
        stamp_admittance np nn (Expr.var ("g_" ^ r_name))
      | Netlist.Switch { s_name; np; nn; r_on; r_off; closed_at } ->
        define ("gsw_" ^ s_name) (1.0 /. if closed_at 0.0 then r_on else r_off);
        stamp_admittance np nn (Expr.var ("gsw_" ^ s_name))
      | Netlist.Capacitor { c_name; np; nn; farads } ->
        define ("c_" ^ c_name) farads;
        stamp_admittance np nn Expr.(s * var ("c_" ^ c_name))
      | Netlist.Mos { m_name; d = dd; g; s = sn; b; _ } ->
        let op : Smallsig.mos_op = Hashtbl.find mos_tbl m_name in
        let v suffix value =
          let name = suffix ^ "_" ^ m_name in
          define name value;
          Expr.var name
        in
        stamp_gm ~d:dd ~s:sn ~cp:g ~cn:sn (v "gm" op.gm);
        stamp_admittance dd sn (v "gds" op.gds);
        stamp_gm ~d:dd ~s:sn ~cp:b ~cn:sn (v "gmb" op.gmb);
        let cap suffix value a bnode =
          if value > 0.0 then stamp_admittance a bnode Expr.(s * v suffix value)
        in
        cap "cgs" op.caps.cgs g sn;
        cap "cgd" op.caps.cgd g dd;
        cap "cgb" op.caps.cgb g b;
        cap "cdb" op.caps.cdb dd b;
        cap "csb" op.caps.csb sn b
      | _ -> ())
    (Netlist.devices nl);
  let ysum = Array.map Expr.sum cells in
  let yget i j = ysum.((i * n) + j) in
  let unknowns =
    Array.of_list
      (List.filter
         (fun node -> (not (Hashtbl.mem ac_ground node)) && Some node <> input_vnode)
         (List.init (n - 1) (fun i -> i + 1)))
  in
  let nu = Array.length unknowns in
  let index_of_unknown = Hashtbl.create 8 in
  Array.iteri (fun k node -> Hashtbl.replace index_of_unknown node k) unknowns;
  let jvec = Array.make nu Expr.zero in
  (match input with
  | `Voltage u -> Array.iteri (fun k node -> jvec.(k) <- Expr.neg (yget node u)) unknowns
  | `Current src_name ->
    List.iter
      (fun d ->
        match d with
        | Netlist.Isource { i_name; np; nn; ac_mag; _ } when String.equal i_name src_name ->
          let add node v =
            match Hashtbl.find_opt index_of_unknown node with
            | Some k -> jvec.(k) <- Expr.(jvec.(k) + const v)
            | None -> ()
          in
          add nn ac_mag;
          add np (-.ac_mag)
        | _ -> ())
      (Netlist.devices nl));
  let env name = Hashtbl.find env_tbl name in
  let ycell i j = yget unknowns.(i) unknowns.(j) in
  let omega0 =
    let acc = ref 0.0 and cnt = ref 0 in
    for i = 0 to nu - 1 do
      let cell = ycell i i in
      let env_c s name =
        if String.equal name "s" then s else { Complex.re = env name; im = 0.0 }
      in
      let g0 = Complex.norm (eval_complex cell (env_c Complex.zero)) in
      let g1 = eval_complex cell (env_c Complex.one) in
      let c = Complex.norm (Complex.sub g1 (eval_complex cell (env_c Complex.zero))) in
      if g0 > 0.0 && c > 0.0 then begin
        acc := !acc +. log (g0 /. c);
        incr cnt
      end
    done;
    if !cnt = 0 then 1e9 else exp (!acc /. float_of_int !cnt)
  in
  let numeric_tf_with ~jcolumn out_node =
    let k_out =
      match Hashtbl.find_opt index_of_unknown out_node with
      | Some k -> k
      | None -> raise (Unsupported "requested output node is not an SFG unknown")
    in
    let n_pts = nu + 1 in
    let det_samples replace_col =
      Array.init n_pts (fun j ->
          let theta = 2.0 *. Float.pi *. float_of_int j /. float_of_int n_pts in
          let s = { Complex.re = omega0 *. cos theta; im = omega0 *. sin theta } in
          let env_c name =
            if String.equal name "s" then s else { Complex.re = env name; im = 0.0 }
          in
          let mat =
            Array.init (nu * nu) (fun c ->
                let a = c / nu and b = c mod nu in
                eval_complex (if replace_col && b = k_out then jcolumn.(a) else ycell a b) env_c)
          in
          det nu mat)
    in
    let coeffs_of samples =
      let nf = float_of_int n_pts in
      let raw =
        Array.init n_pts (fun k ->
            let acc = ref Complex.zero in
            Array.iteri
              (fun j v ->
                let theta = -2.0 *. Float.pi *. float_of_int (j * k) /. nf in
                let w = { Complex.re = cos theta; im = sin theta } in
                acc := Complex.add !acc (Complex.mul v w))
              samples;
            { Complex.re = !acc.Complex.re /. nf; im = !acc.Complex.im /. nf })
      in
      let max_mag = Array.fold_left (fun a z -> Float.max a (Complex.norm z)) 0.0 raw in
      Array.map
        (fun (z : Complex.t) -> if Complex.norm z < 1e-9 *. max_mag then 0.0 else z.Complex.re)
        raw
    in
    let num_scaled = coeffs_of (det_samples true) in
    let den_scaled = coeffs_of (det_samples false) in
    let unscale c = Array.mapi (fun k v -> v /. (omega0 ** float_of_int k)) c in
    let num = Poly.of_coeffs (unscale num_scaled) in
    let den = Poly.of_coeffs (unscale den_scaled) in
    if Poly.is_zero den then raise (Unsupported "singular nodal system")
    else Ratfun.make num den
  in
  let numeric_tf_current ~src_pos ~src_neg ~out =
    let jcolumn = Array.make nu Expr.zero in
    (match Hashtbl.find_opt index_of_unknown src_pos with
    | Some k -> jcolumn.(k) <- Expr.one
    | None -> ());
    (match Hashtbl.find_opt index_of_unknown src_neg with
    | Some k -> jcolumn.(k) <- Expr.(jcolumn.(k) - one)
    | None -> ());
    numeric_tf_with ~jcolumn out
  in
  { numeric_tf = numeric_tf_with ~jcolumn:jvec; numeric_tf_current }

let same_poly a b =
  let a = Poly.coeffs a and b = Poly.coeffs b in
  Array.length a = Array.length b && Array.for_all2 same_float a b

let same_ratfun (a : Ratfun.t) (b : Ratfun.t) = same_poly a.num b.num && same_poly a.den b.den
