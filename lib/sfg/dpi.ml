module Netlist = Adc_circuit.Netlist
module Smallsig = Adc_circuit.Smallsig
module Stimulus = Adc_circuit.Stimulus

type input =
  | Auto
  | Current_source of string
  | Voltage_node of Netlist.node

type result = {
  graph : Sgraph.t;
  input_vertex : Sgraph.node_id;
  env : string -> float;
  vertex_of_node : Netlist.node -> Sgraph.node_id option;
  numeric_tf : Netlist.node -> Ratfun.t;
  numeric_tf_current :
    src_pos:Netlist.node -> src_neg:Netlist.node -> out:Netlist.node -> Ratfun.t;
}

exception Unsupported of string

(* symbolic admittance matrix built as lists of Expr terms *)
type ymat = {
  n : int;
  cells : Expr.t list array; (* (i*n + j) -> terms of Y_ij *)
}

let ymat_create n = { n; cells = Array.make (n * n) [] }

let ystamp m i j e =
  if i <> 0 && j <> 0 then m.cells.((i * m.n) + j) <- e :: m.cells.((i * m.n) + j)

let stamp_admittance m a b y =
  ystamp m a a y;
  ystamp m b b y;
  ystamp m a b (Expr.neg y);
  ystamp m b a (Expr.neg y)

(* transconductance: current into [d] (and out of [s]) controlled by
   v(cp) - v(cn) *)
let stamp_gm m ~d ~s ~cp ~cn g =
  ystamp m d cp g;
  ystamp m d cn (Expr.neg g);
  ystamp m s cp (Expr.neg g);
  ystamp m s cn g

let build ?(input = Auto) ?(switch_time = 0.0) nl (ss : Smallsig.t) =
  let n = Netlist.node_count nl in
  let m = ymat_create n in
  let env_tbl : (string, float) Hashtbl.t = Hashtbl.create 32 in
  let define name value = Hashtbl.replace env_tbl name value in
  let mos_tbl = Hashtbl.create 8 in
  List.iter (fun (op : Smallsig.mos_op) -> Hashtbl.replace mos_tbl op.name op) ss.mos;
  (* classification of special nodes *)
  let ac_ground = Hashtbl.create 4 in
  let input_candidates = ref [] in
  List.iter
    (fun d ->
      match d with
      | Netlist.Vsource { v_name; np; nn; ac_mag; _ } ->
        if nn <> Netlist.ground then
          raise (Unsupported (Printf.sprintf "Vsource %s not referenced to ground" v_name));
        if ac_mag > 0.0 then input_candidates := `V np :: !input_candidates
        else Hashtbl.replace ac_ground np ()
      | Netlist.Isource { i_name; ac_mag; _ } ->
        if ac_mag > 0.0 then input_candidates := `I i_name :: !input_candidates
      | Netlist.Vcvs { e_name; _ } ->
        raise (Unsupported (Printf.sprintf "VCVS %s not supported by DPI" e_name))
      | Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Mos _ | Netlist.Switch _ -> ())
    (Netlist.devices nl);
  (* resolve [Auto] once, into a variant that cannot carry it: every
     later match on the input is then exhaustive by construction instead
     of asserting the Auto case away *)
  let input =
    match input with
    | Auto -> begin
      match !input_candidates with
      | [ `V node ] -> `Voltage node
      | [ `I name ] -> `Current name
      | [] -> raise (Unsupported "no AC source found for DPI input")
      | _ -> raise (Unsupported "multiple AC sources; specify the DPI input explicitly")
    end
    | Voltage_node v -> `Voltage v
    | Current_source name -> `Current name
  in
  (* a voltage-driven input node is excluded from the unknowns *)
  let input_vnode = match input with `Voltage v -> Some v | `Current _ -> None in
  (* symbolic stamps *)
  List.iter
    (fun d ->
      match d with
      | Netlist.Resistor { r_name; np; nn; ohms } ->
        let v = Expr.var ("g_" ^ r_name) in
        define ("g_" ^ r_name) (1.0 /. ohms);
        stamp_admittance m np nn v
      | Netlist.Switch { s_name; np; nn; r_on; r_off; closed_at } ->
        let v = Expr.var ("gsw_" ^ s_name) in
        define ("gsw_" ^ s_name) (1.0 /. (if closed_at switch_time then r_on else r_off));
        stamp_admittance m np nn v
      | Netlist.Capacitor { c_name; np; nn; farads } ->
        let v = Expr.var ("c_" ^ c_name) in
        define ("c_" ^ c_name) farads;
        stamp_admittance m np nn Expr.(s * v)
      | Netlist.Mos { m_name; d = dd; g; s = sn; b; _ } ->
        let op =
          match Hashtbl.find_opt mos_tbl m_name with
          | Some op -> op
          | None -> raise (Unsupported ("no small-signal data for MOS " ^ m_name))
        in
        let v suffix value =
          let name = suffix ^ "_" ^ m_name in
          define name value;
          Expr.var name
        in
        stamp_gm m ~d:dd ~s:sn ~cp:g ~cn:sn (v "gm" op.gm);
        stamp_admittance m dd sn (v "gds" op.gds);
        stamp_gm m ~d:dd ~s:sn ~cp:b ~cn:sn (v "gmb" op.gmb);
        let cap suffix value a bnode =
          if value > 0.0 then stamp_admittance m a bnode Expr.(s * v suffix value)
        in
        cap "cgs" op.caps.cgs g sn;
        cap "cgd" op.caps.cgd g dd;
        cap "cgb" op.caps.cgb g b;
        cap "cdb" op.caps.cdb dd b;
        cap "csb" op.caps.csb sn b
      | Netlist.Vsource _ | Netlist.Isource _ -> ()
      | Netlist.Vcvs { e_name; _ } ->
        (* the classification pass above already rejects VCVS devices;
           reaching one here means the netlist mutated between passes *)
        raise (Unsupported (Printf.sprintf "VCVS %s not supported by DPI" e_name)))
    (Netlist.devices nl);
  (* every Y cell simplified once, after the last stamp: the edges, the
     J column and each of the nu + 1 determinant samples read these *)
  let ysum = Array.map Expr.sum m.cells in
  let yget i j = ysum.((i * n) + j) in
  (* unknown nodes *)
  let is_unknown node =
    node <> Netlist.ground
    && (not (Hashtbl.mem ac_ground node))
    && Some node <> input_vnode
  in
  let graph = Sgraph.create () in
  let input_vertex = Sgraph.add_node graph "in" in
  let vertex = Array.make n None in
  for node = 1 to n - 1 do
    if is_unknown node then
      vertex.(node) <- Some (Sgraph.add_node graph ("V_" ^ Netlist.node_name nl node))
  done;
  (* DPI edges: V_i = (1/Y_ii) (J_i - sum_j Y_ij V_j) *)
  for i = 1 to n - 1 do
    match vertex.(i) with
    | None -> ()
    | Some vi ->
      let yii = yget i i in
      if yii = Expr.zero then
        raise (Unsupported (Printf.sprintf "node %s has no driving-point admittance" (Netlist.node_name nl i)));
      for j = 1 to n - 1 do
        if j <> i then begin
          let yij = yget i j in
          if yij <> Expr.zero then begin
            let gain = Expr.(neg (Div (yij, yii))) in
            match vertex.(j) with
            | Some vj -> Sgraph.add_edge graph vj vi gain
            | None ->
              if Some j = input_vnode then Sgraph.add_edge graph input_vertex vi gain
            (* AC-ground nodes contribute nothing *)
          end
        end
      done;
      (* current-source input *)
      (match input with
      | `Current src_name ->
        List.iter
          (fun d ->
            match d with
            | Netlist.Isource { i_name; np; nn; ac_mag; _ }
              when String.equal i_name src_name ->
              (* unit input current flows np -> nn through the source *)
              if nn = i then
                Sgraph.add_edge graph input_vertex vi
                  Expr.(Div (const ac_mag, yii));
              if np = i then
                Sgraph.add_edge graph input_vertex vi
                  Expr.(Div (const (-.ac_mag), yii))
            | Netlist.Isource _ | Netlist.Resistor _ | Netlist.Capacitor _
            | Netlist.Vsource _ | Netlist.Vcvs _ | Netlist.Mos _ | Netlist.Switch _ -> ())
          (Netlist.devices nl)
      | `Voltage _ -> ())
  done;
  let env name =
    match Hashtbl.find_opt env_tbl name with
    | Some v -> v
    | None -> raise Not_found
  in
  (* ---------------------------------------------------------------
     Numeric transfer function by polynomial Cramer's rule.

     Mason's symbolic ratio is exact but un-cancelled: on an amplifier
     graph its instantiated numerator/denominator degree explodes (and
     overflows) even though the true system order is at most the number
     of unknown nodes. We therefore compute the numeric TF directly from
     the nodal system Y(s) V = J: both det Y and the Cramer numerator are
     polynomials of degree <= n, recovered exactly by sampling the
     determinant at n+1 points on a frequency-scaled circle (complex LU
     at each point) and an inverse DFT. *)
  let unknowns =
    Array.of_list
      (List.filter_map
         (fun node -> if vertex.(node) <> None then Some node else None)
         (List.init (n - 1) (fun i -> i + 1)))
  in
  let nu = Array.length unknowns in
  let index_of_unknown = Hashtbl.create 8 in
  Array.iteri (fun k node -> Hashtbl.replace index_of_unknown node k) unknowns;
  (* symbolic J column *)
  let jvec = Array.make nu Expr.zero in
  (match input with
  | `Voltage u ->
    Array.iteri
      (fun k node -> jvec.(k) <- Expr.neg (yget node u))
      unknowns
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
        | Netlist.Isource _ | Netlist.Resistor _ | Netlist.Capacitor _
        | Netlist.Vsource _ | Netlist.Vcvs _ | Netlist.Mos _ | Netlist.Switch _ -> ())
      (Netlist.devices nl));
  let ycell i j = yget unknowns.(i) unknowns.(j) in
  (* frequency scale: geometric mean of the diagonal g/c corner rates *)
  let omega0 =
    let acc = ref 0.0 and cnt = ref 0 in
    for i = 0 to nu - 1 do
      let cell = ycell i i in
      let env_c s name =
        if String.equal name "s" then s else { Complex.re = env name; im = 0.0 }
      in
      let g0 = Complex.norm (Expr.eval_complex cell (env_c Complex.zero)) in
      let g1 = Expr.eval_complex cell (env_c Complex.one) in
      let c = Complex.norm (Complex.sub g1 (Expr.eval_complex cell (env_c Complex.zero))) in
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
          let mat = Adc_numerics.Cxm.create nu in
          for a = 0 to nu - 1 do
            for b = 0 to nu - 1 do
              let cell = if replace_col && b = k_out then jcolumn.(a) else ycell a b in
              Adc_numerics.Cxm.set mat a b (Expr.eval_complex cell env_c)
            done
          done;
          Adc_numerics.Cxm.det mat)
    in
    (* inverse DFT to coefficients in the scaled variable s' = s/omega0 *)
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
    let num = Adc_numerics.Poly.of_coeffs (unscale num_scaled) in
    let den = Adc_numerics.Poly.of_coeffs (unscale den_scaled) in
    if Adc_numerics.Poly.is_zero den then raise (Unsupported "singular nodal system")
    else Ratfun.make num den
  in
  let numeric_tf out_node = numeric_tf_with ~jcolumn:jvec out_node in
  let numeric_tf_current ~src_pos ~src_neg ~out =
    (* unit current injected into [src_pos] and drawn from [src_neg]
       (either may be ground / AC-ground, contributing nothing) *)
    let jcolumn = Array.make nu Expr.zero in
    (match Hashtbl.find_opt index_of_unknown src_pos with
    | Some k -> jcolumn.(k) <- Expr.one
    | None -> ());
    (match Hashtbl.find_opt index_of_unknown src_neg with
    | Some k -> jcolumn.(k) <- Expr.(jcolumn.(k) - one)
    | None -> ());
    numeric_tf_with ~jcolumn out
  in
  {
    graph;
    input_vertex;
    env;
    vertex_of_node = (fun node -> if node >= 0 && node < n then vertex.(node) else None);
    numeric_tf;
    numeric_tf_current;
  }

let transfer_to r node =
  match r.vertex_of_node node with
  | None -> raise (Unsupported "requested output node is not an SFG unknown")
  | Some dst -> Mason.transfer r.graph ~src:r.input_vertex ~dst

let numeric_transfer_to r node = r.numeric_tf node
