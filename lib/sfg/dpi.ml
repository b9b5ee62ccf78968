module Netlist = Adc_circuit.Netlist
module Smallsig = Adc_circuit.Smallsig
module Poly = Adc_numerics.Poly
module Tally = Adc_numerics.Tally

exception Unsupported of string

(* ------------------------------------------------------------------ *)
(* The topology key                                                    *)
(* ------------------------------------------------------------------ *)

(* Everything the DPI structure depends on and no value: the node count,
   device kinds, names and nodes, the MOS capacitances that are stamped (a cap is
   stamped only when its value is > 0; bit k of [caps] stands for
   cgs, cgd, cgb, cdb, csb in that order, and -1 for a device the
   small-signal data does not cover), each V source's AC role and each
   I source's AC magnitude. *)
type dev =
  | Res of { name : string; np : int; nn : int }
  | Cap of { name : string; np : int; nn : int }
  | Sw of { name : string; np : int; nn : int }
  | Mos of { name : string; d : int; g : int; s : int; b : int; caps : int }
  | Vsrc of { name : string; np : int; ac_input : bool }
  | Isrc of { name : string; np : int; nn : int; ac_mag : float }

type key = { nodes : int; devs : dev array }

(* ------------------------------------------------------------------ *)
(* Compiled programs                                                   *)
(* ------------------------------------------------------------------ *)

(* One step of a stack program over complex values held as (re, im)
   pairs of a float array. *)
type op =
  | Const of float  (* push (c, 0) *)
  | Var of int  (* push (slot value, 0) *)
  | S  (* push the sample point *)
  | Add  (* pop b, a; push a + b *)
  | Mul  (* pop b, a; push a * b *)
  | Neg  (* negate the top *)

(* [e] as a stack program doing the float operations of the boxed
   complex evaluation in the same order: a sum folds its terms into 0
   and a product its factors into 1, left to right, with the stdlib
   [Complex] arithmetic; a variable is (value, 0) and [s] the sample
   point. Y cells and J entries are sums of signed products of [s],
   variables and constants, so division and powers never occur. *)
let compile_expr slot_of e =
  let ops = ref [] in
  let depth = ref 0 and max_depth = ref 0 in
  let push op =
    ops := op :: !ops;
    incr depth;
    max_depth := max !max_depth !depth
  in
  let pop op =
    ops := op :: !ops;
    decr depth
  in
  let rec go = function
    | Expr.Const c -> push (Const c)
    | Expr.Var "s" -> push S
    | Expr.Var name -> push (Var (slot_of name))
    | Expr.Add ts ->
      push (Const 0.0);
      List.iter (fun t -> go t; pop Add) ts
    | Expr.Mul ts ->
      push (Const 1.0);
      List.iter (fun t -> go t; pop Mul) ts
    | Expr.Neg a ->
      go a;
      ops := Neg :: !ops
    | Expr.Div _ | Expr.Pow _ -> invalid_arg "Dpi: an admittance is a sum of products"
  in
  go e;
  (Array.of_list (List.rev !ops), !max_depth)

(* Run [code] on the stack [st] with [s] the point [(pt.(0), pt.(1))];
   the value is left in [st.(0)], [st.(1)]. Allocates nothing. *)
let run code vals st pt =
  let sp = ref 0 in
  for pc = 0 to Array.length code - 1 do
    let t = !sp in
    match code.(pc) with
    | Const c ->
      st.(t) <- c;
      st.(t + 1) <- 0.0;
      sp := t + 2
    | Var slot ->
      st.(t) <- vals.(slot);
      st.(t + 1) <- 0.0;
      sp := t + 2
    | S ->
      st.(t) <- pt.(0);
      st.(t + 1) <- pt.(1);
      sp := t + 2
    | Add ->
      st.(t - 4) <- st.(t - 4) +. st.(t - 2);
      st.(t - 3) <- st.(t - 3) +. st.(t - 1);
      sp := t - 2
    | Mul ->
      let are = st.(t - 4) and aim = st.(t - 3) and bre = st.(t - 2) and bim = st.(t - 1) in
      st.(t - 4) <- (are *. bre) -. (aim *. bim);
      st.(t - 3) <- (are *. bim) +. (aim *. bre);
      sp := t - 2
    | Neg ->
      st.(t - 2) <- -.st.(t - 2);
      st.(t - 1) <- -.st.(t - 1)
  done

type program = {
  nu : int;  (* SFG unknowns *)
  unknown_of_node : int array;  (* node -> unknown index, or -1 *)
  cells : op array array;  (* Y restricted to the unknowns, row-major *)
  jcol : op array array;  (* J column of the signal input *)
  depth : int;  (* deepest stack any program above needs *)
  cos_pt : float array;  (* sample angles 2 pi j / (nu + 1) *)
  sin_pt : float array;
  tw_re : float array;  (* inverse-DFT twiddles, (j * (nu + 1)) + k *)
  tw_im : float array;
  graph : Sgraph.t;  (* never mutated after compilation *)
  input_vertex : Sgraph.node_id;
  vertex : Sgraph.node_id option array;
}

(* symbolic admittance matrix built as lists of Expr terms *)
type ymat = {
  size : int;
  terms : Expr.t list array; (* (i*size + j) -> terms of Y_ij *)
}

let ystamp m i j e =
  if i <> 0 && j <> 0 then
    m.terms.((i * m.size) + j) <- e :: m.terms.((i * m.size) + j)

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

let cap_suffixes = [| "cgs"; "cgd"; "cgb"; "cdb"; "csb" |]

(* The structure half of the analysis, once per topology: symbolic
   stamps (variables named [g_<res>], [gm_<mos>], ... and bound to value
   slots in the order [build] fills them), every Y cell simplified once,
   the DPI signal-flow graph, and a stack program per Y cell and J entry.
   Node names, read from [nl], only label graph vertices and errors.
   Raises [Unsupported] on a structure the DPI form cannot take. *)
let compile nl key =
  let n = key.nodes in
  let m = { size = n; terms = Array.make (n * n) [] } in
  let ac_ground = Array.make n false in
  let inputs = ref [] in
  Array.iter
    (function
      | Vsrc { np; ac_input; _ } ->
        if ac_input then inputs := `V np :: !inputs else ac_ground.(np) <- true
      | Isrc { name; ac_mag; _ } -> if ac_mag > 0.0 then inputs := `I name :: !inputs
      | Res _ | Cap _ | Sw _ | Mos _ -> ())
    key.devs;
  let input =
    match !inputs with
    | [ `V node ] -> `Voltage node
    | [ `I name ] -> `Current name
    | [] -> raise (Unsupported "no AC source found for DPI input")
    | _ -> raise (Unsupported "multiple AC sources for the DPI input")
  in
  let input_vnode = match input with `Voltage v -> Some v | `Current _ -> None in
  (* device names are unique in a netlist, so every variable is defined
     once, in the order [build] writes the values *)
  let slots = Hashtbl.create 32 in
  let define name =
    Hashtbl.add slots name (Hashtbl.length slots);
    Expr.var name
  in
  Array.iter
    (function
      | Res { name; np; nn } -> stamp_admittance m np nn (define ("g_" ^ name))
      | Sw { name; np; nn } -> stamp_admittance m np nn (define ("gsw_" ^ name))
      | Cap { name; np; nn } -> stamp_admittance m np nn Expr.(s * define ("c_" ^ name))
      | Mos { name; d; g; s = sn; b; caps } ->
        if caps < 0 then raise (Unsupported ("no small-signal data for MOS " ^ name));
        let v suffix = define (suffix ^ "_" ^ name) in
        stamp_gm m ~d ~s:sn ~cp:g ~cn:sn (v "gm");
        stamp_admittance m d sn (v "gds");
        stamp_gm m ~d ~s:sn ~cp:b ~cn:sn (v "gmb");
        Array.iteri
          (fun k (a, bnode) ->
            if caps land (1 lsl k) <> 0 then
              stamp_admittance m a bnode Expr.(s * v cap_suffixes.(k)))
          [| (g, sn); (g, d); (g, b); (d, b); (sn, b) |]
      | Vsrc _ | Isrc _ -> ())
    key.devs;
  (* every Y cell simplified once, after the last stamp *)
  let ysum = Array.map Expr.sum m.terms in
  let yget i j = ysum.((i * n) + j) in
  let is_unknown node =
    node <> Netlist.ground && (not ac_ground.(node)) && Some node <> input_vnode
  in
  let graph = Sgraph.create () in
  let input_vertex = Sgraph.add_node graph "in" in
  let vertex = Array.make n None in
  for node = 1 to n - 1 do
    if is_unknown node then
      vertex.(node) <- Some (Sgraph.add_node graph ("V_" ^ Netlist.node_name nl node))
  done;
  let current_input f =
    match input with
    | `Current src ->
      Array.iter
        (function
          | Isrc { name; np; nn; ac_mag } when String.equal name src -> f ~np ~nn ac_mag
          | Isrc _ | Res _ | Cap _ | Sw _ | Mos _ | Vsrc _ -> ())
        key.devs
    | `Voltage _ -> ()
  in
  (* DPI edges: V_i = (1/Y_ii) (J_i - sum_j Y_ij V_j) *)
  for i = 1 to n - 1 do
    match vertex.(i) with
    | None -> ()
    | Some vi ->
      let yii = yget i i in
      if yii = Expr.zero then
        raise
          (Unsupported
             (Printf.sprintf "node %s has no driving-point admittance" (Netlist.node_name nl i)));
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
      (* unit input current flows np -> nn through the source *)
      current_input (fun ~np ~nn ac_mag ->
          if nn = i then Sgraph.add_edge graph input_vertex vi Expr.(Div (const ac_mag, yii));
          if np = i then Sgraph.add_edge graph input_vertex vi Expr.(Div (const (-.ac_mag), yii)))
  done;
  let unknowns =
    Array.of_list (List.filter (fun node -> vertex.(node) <> None) (List.init (n - 1) succ))
  in
  let nu = Array.length unknowns in
  let unknown_of_node = Array.make n (-1) in
  Array.iteri (fun k node -> unknown_of_node.(node) <- k) unknowns;
  (* symbolic J column *)
  let jvec = Array.make nu Expr.zero in
  (match input with
  | `Voltage u -> Array.iteri (fun k node -> jvec.(k) <- Expr.neg (yget node u)) unknowns
  | `Current _ ->
    current_input (fun ~np ~nn ac_mag ->
        let add node v =
          let k = unknown_of_node.(node) in
          if k >= 0 then jvec.(k) <- Expr.(jvec.(k) + const v)
        in
        add nn ac_mag;
        add np (-.ac_mag)));
  let slot_of name = Hashtbl.find slots name in
  (* at least one slot, for the constants [numeric_tf_current] injects *)
  let depth = ref 1 in
  let compile e =
    let code, d = compile_expr slot_of e in
    depth := max !depth d;
    code
  in
  let cells =
    Array.init (nu * nu) (fun c -> compile (yget unknowns.(c / nu) unknowns.(c mod nu)))
  in
  let jcol = Array.map compile jvec in
  let n_pts = nu + 1 in
  let angle j = 2.0 *. Float.pi *. float_of_int j /. float_of_int n_pts in
  let nf = float_of_int n_pts in
  let twiddle jk = -2.0 *. Float.pi *. float_of_int jk /. nf in
  {
    nu;
    unknown_of_node;
    cells;
    jcol;
    depth = !depth;
    cos_pt = Array.init n_pts (fun j -> cos (angle j));
    sin_pt = Array.init n_pts (fun j -> sin (angle j));
    tw_re = Array.init (n_pts * n_pts) (fun c -> cos (twiddle (c / n_pts * (c mod n_pts))));
    tw_im = Array.init (n_pts * n_pts) (fun c -> sin (twiddle (c / n_pts * (c mod n_pts))));
    graph;
    input_vertex;
    vertex;
  }

(* ------------------------------------------------------------------ *)
(* The program cache                                                   *)
(* ------------------------------------------------------------------ *)

module Programs = Hashtbl.Make (struct
  type t = key

  (* [compare], not [=]: a NaN AC magnitude still finds its program *)
  let equal a b = compare a b = 0
  let hash = Hashtbl.hash_param 64 256
end)

(* Programs keyed by topology, shared read-only by every domain: a
   sizing search evaluates thousands of candidates over a handful of
   topologies. The mutex guards only the table; compilation runs
   outside it, and when two domains compile the same key the first to
   publish wins (the two programs are equal). A structure error raises
   before anything is published. *)
let cache : program Programs.t = Programs.create 16
let cache_mutex = Mutex.create ()
let compiled_programs = Tally.make "solver.dpi_programs_total"
let max_cached_programs = 64

let program nl key =
  match Mutex.protect cache_mutex (fun () -> Programs.find_opt cache key) with
  | Some p -> p
  | None ->
    let p = compile nl key in
    Mutex.protect cache_mutex (fun () ->
        match Programs.find_opt cache key with
        | Some first -> first
        | None ->
          if Programs.length cache >= max_cached_programs then Programs.reset cache;
          Programs.replace cache key p;
          Tally.incr compiled_programs;
          p)

(* ------------------------------------------------------------------ *)
(* Per candidate                                                       *)
(* ------------------------------------------------------------------ *)

type result = { prog : program; vals : float array }

(* The key, and the value of every variable written to its slot (the
   order in which [compile] defines the variables): one pass over the
   devices. *)
let build nl (ss : Smallsig.t) =
  let devices = Netlist.device_array nl in
  (* at most 8 values per device (a MOS: gm, gds, gmb and five caps) *)
  let vals = Array.make (8 * Array.length devices) 0.0 in
  let pos = ref 0 in
  let put v =
    vals.(!pos) <- v;
    incr pos
  in
  let dev = function
    | Netlist.Resistor { r_name; np; nn; ohms } ->
      put (1.0 /. ohms);
      Res { name = r_name; np; nn }
    | Netlist.Switch { s_name; np; nn; r_on; r_off; closed_at } ->
      (* the switch state at t = 0 *)
      put (1.0 /. if closed_at 0.0 then r_on else r_off);
      Sw { name = s_name; np; nn }
    | Netlist.Capacitor { c_name; np; nn; farads } ->
      put farads;
      Cap { name = c_name; np; nn }
    | Netlist.Mos { m_name; d; g; s; b; _ } ->
      let caps =
        match List.find_opt (fun (op : Smallsig.mos_op) -> String.equal op.name m_name) ss.mos with
        | None -> -1
        | Some op ->
          put op.gm;
          put op.gds;
          put op.gmb;
          let c = op.caps and mask = ref 0 in
          let cap k v =
            if v > 0.0 then begin
              put v;
              mask := !mask lor (1 lsl k)
            end
          in
          cap 0 c.cgs;
          cap 1 c.cgd;
          cap 2 c.cgb;
          cap 3 c.cdb;
          cap 4 c.csb;
          !mask
      in
      Mos { name = m_name; d; g; s; b; caps }
    | Netlist.Vsource { v_name; np; nn; ac_mag; _ } ->
      if nn <> Netlist.ground then
        raise (Unsupported (Printf.sprintf "Vsource %s not referenced to ground" v_name));
      Vsrc { name = v_name; np; ac_input = ac_mag > 0.0 }
    | Netlist.Isource { i_name; np; nn; ac_mag; _ } -> Isrc { name = i_name; np; nn; ac_mag }
    | Netlist.Vcvs { e_name; _ } ->
      raise (Unsupported (Printf.sprintf "VCVS %s not supported by DPI" e_name))
  in
  let devs = Array.map dev devices in
  { prog = program nl { nodes = Netlist.node_count nl; devs }; vals }

let unknown prog node =
  if node >= 0 && node < Array.length prog.unknown_of_node then prog.unknown_of_node.(node)
  else -1

(* Determinant of the [n*n] complex matrix [(re, im)] (row-major,
   destroyed) into [out.(0)], [out.(1)]: LU with partial pivoting,
   operation for operation the boxed [Complex.t] elimination (pivot by
   [Complex.norm] = [Float.hypot], the stdlib [Complex.div] (Smith's
   method) written out for the multiplier, rows with a zero multiplier
   skipped, zero on a zero pivot column). Allocates nothing. *)
let det_into out n re im =
  let sign = ref 1.0 and dre = ref 1.0 and dim = ref 0.0 in
  let k = ref 0 in
  while !k < n do
    let kc = !k in
    let pmax = ref (Float.hypot re.((kc * n) + kc) im.((kc * n) + kc)) and prow = ref kc in
    for i = kc + 1 to n - 1 do
      let v = Float.hypot re.((i * n) + kc) im.((i * n) + kc) in
      if v > !pmax then begin
        pmax := v;
        prow := i
      end
    done;
    if !pmax = 0.0 then begin
      dre := 0.0;
      dim := 0.0;
      k := n
    end
    else begin
      if !prow <> kc then begin
        sign := -. !sign;
        for j = kc to n - 1 do
          let a = (kc * n) + j and b = (!prow * n) + j in
          let tre = re.(a) and tim = im.(a) in
          re.(a) <- re.(b);
          im.(a) <- im.(b);
          re.(b) <- tre;
          im.(b) <- tim
        done
      end;
      let pre = re.((kc * n) + kc) and pim = im.((kc * n) + kc) in
      let rre = !dre and rim = !dim in
      dre := (rre *. pre) -. (rim *. pim);
      dim := (rre *. pim) +. (rim *. pre);
      for i = kc + 1 to n - 1 do
        let xre = re.((i * n) + kc) and xim = im.((i * n) + kc) in
        let fre, fim =
          if Float.abs pre >= Float.abs pim then begin
            let r = pim /. pre in
            let d = pre +. (r *. pim) in
            ((xre +. (r *. xim)) /. d, (xim -. (r *. xre)) /. d)
          end
          else begin
            let r = pre /. pim in
            let d = pim +. (r *. pre) in
            (((r *. xre) +. xim) /. d, ((r *. xim) -. xre) /. d)
          end
        in
        if fre <> 0.0 || fim <> 0.0 then
          for j = kc + 1 to n - 1 do
            let a = (kc * n) + j and b = (i * n) + j in
            let are = re.(a) and aim = im.(a) in
            re.(b) <- re.(b) -. ((fre *. are) -. (fim *. aim));
            im.(b) <- im.(b) -. ((fre *. aim) +. (fim *. are))
          done
      done;
      incr k
    end
  done;
  out.(0) <- !dre *. !sign;
  out.(1) <- !dim *. !sign

(* ---------------------------------------------------------------
   Numeric transfer function by polynomial Cramer's rule.

   Mason's symbolic ratio is exact but un-cancelled: on an amplifier
   graph its instantiated numerator/denominator degree explodes (and
   overflows) even though the true system order is at most the number
   of unknown nodes. We therefore compute the numeric TF directly from
   the nodal system Y(s) V = J: both det Y and the Cramer numerator are
   polynomials of degree <= nu, recovered exactly by sampling the
   determinants at nu + 1 points on a frequency-scaled circle and an
   inverse DFT. Y is evaluated once per point and shared by both
   determinants. *)
let numeric_tf_with r ~jcolumn out_node =
  let p = r.prog and vals = r.vals in
  let k_out = unknown p out_node in
  if k_out < 0 then raise (Unsupported "requested output node is not an SFG unknown");
  let nu = p.nu in
  let st = Array.make (2 * p.depth) 0.0 in
  let zero = [| 0.0; 0.0 |] and one = [| 1.0; 0.0 |] and pt = [| 0.0; 0.0 |] in
  (* frequency scale: geometric mean of the diagonal g/c corner rates *)
  let omega0 =
    let acc = ref 0.0 and cnt = ref 0 in
    for i = 0 to nu - 1 do
      let cell = p.cells.((i * nu) + i) in
      run cell vals st zero;
      let g0 = Float.hypot st.(0) st.(1) in
      run cell vals st one;
      let g1re = st.(0) and g1im = st.(1) in
      run cell vals st zero;
      let c = Float.hypot (g1re -. st.(0)) (g1im -. st.(1)) in
      if g0 > 0.0 && c > 0.0 then begin
        acc := !acc +. log (g0 /. c);
        incr cnt
      end
    done;
    if !cnt = 0 then 1e9 else exp (!acc /. float_of_int !cnt)
  in
  let n_pts = nu + 1 in
  let nn = nu * nu in
  let y_re = Array.make nn 0.0 and y_im = Array.make nn 0.0 in
  let w_re = Array.make nn 0.0 and w_im = Array.make nn 0.0 in
  let num_re = Array.make n_pts 0.0 and num_im = Array.make n_pts 0.0 in
  let den_re = Array.make n_pts 0.0 and den_im = Array.make n_pts 0.0 in
  let out = Array.make 2 0.0 in
  for j = 0 to n_pts - 1 do
    pt.(0) <- omega0 *. p.cos_pt.(j);
    pt.(1) <- omega0 *. p.sin_pt.(j);
    for c = 0 to nn - 1 do
      run p.cells.(c) vals st pt;
      y_re.(c) <- st.(0);
      y_im.(c) <- st.(1)
    done;
    Array.blit y_re 0 w_re 0 nn;
    Array.blit y_im 0 w_im 0 nn;
    det_into out nu w_re w_im;
    den_re.(j) <- out.(0);
    den_im.(j) <- out.(1);
    Array.blit y_re 0 w_re 0 nn;
    Array.blit y_im 0 w_im 0 nn;
    for a = 0 to nu - 1 do
      run jcolumn.(a) vals st pt;
      w_re.((a * nu) + k_out) <- st.(0);
      w_im.((a * nu) + k_out) <- st.(1)
    done;
    det_into out nu w_re w_im;
    num_re.(j) <- out.(0);
    num_im.(j) <- out.(1)
  done;
  (* inverse DFT to coefficients in the scaled variable s' = s/omega0,
     then unscaled *)
  let coeffs_of s_re s_im =
    let nf = float_of_int n_pts in
    let raw_re = Array.make n_pts 0.0 and raw_im = Array.make n_pts 0.0 in
    for k = 0 to n_pts - 1 do
      let are = ref 0.0 and aim = ref 0.0 in
      for j = 0 to n_pts - 1 do
        let wre = p.tw_re.((j * n_pts) + k) and wim = p.tw_im.((j * n_pts) + k) in
        let vre = s_re.(j) and vim = s_im.(j) in
        are := !are +. ((vre *. wre) -. (vim *. wim));
        aim := !aim +. ((vre *. wim) +. (vim *. wre))
      done;
      raw_re.(k) <- !are /. nf;
      raw_im.(k) <- !aim /. nf
    done;
    let max_mag = ref 0.0 in
    for k = 0 to n_pts - 1 do
      max_mag := Float.max !max_mag (Float.hypot raw_re.(k) raw_im.(k))
    done;
    Array.init n_pts (fun k ->
        let v = if Float.hypot raw_re.(k) raw_im.(k) < 1e-9 *. !max_mag then 0.0 else raw_re.(k) in
        v /. (omega0 ** float_of_int k))
  in
  let num = Poly.of_coeffs (coeffs_of num_re num_im) in
  let den = Poly.of_coeffs (coeffs_of den_re den_im) in
  if Poly.is_zero den then raise (Unsupported "singular nodal system") else Ratfun.make num den

let numeric_tf r out_node = numeric_tf_with r ~jcolumn:r.prog.jcol out_node

let numeric_tf_current r ~src_pos ~src_neg ~out =
  (* unit current injected into [src_pos] and drawn from [src_neg]
     (either may be ground / AC-ground, contributing nothing): a J column
     of constants, each the sum the symbolic column folds to *)
  let p = r.prog in
  let j = Array.make p.nu 0.0 in
  let kp = unknown p src_pos and kn = unknown p src_neg in
  if kp >= 0 then j.(kp) <- 1.0;
  if kn >= 0 then j.(kn) <- j.(kn) -. 1.0;
  numeric_tf_with r ~jcolumn:(Array.map (fun c -> [| Const c |]) j) out

let numeric_transfer_to = numeric_tf

let transfer_to r node =
  let p = r.prog in
  match if node >= 0 && node < Array.length p.vertex then p.vertex.(node) else None with
  | None -> raise (Unsupported "requested output node is not an SFG unknown")
  | Some dst -> Mason.transfer p.graph ~src:p.input_vertex ~dst
