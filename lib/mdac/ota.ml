module Process = Adc_circuit.Process
module Netlist = Adc_circuit.Netlist
module Stimulus = Adc_circuit.Stimulus
module Dc = Adc_circuit.Dc
module Mna = Adc_circuit.Mna
module Smallsig = Adc_circuit.Smallsig
module Mosfet = Adc_circuit.Mosfet
module Transient = Adc_circuit.Transient
module Dpi = Adc_sfg.Dpi
module Ratfun = Adc_sfg.Ratfun
module Analysis = Adc_sfg.Analysis
module Rootfind = Adc_numerics.Rootfind
module Tally = Adc_numerics.Tally

type topology = Miller_simple | Miller_cascode

type sizing = {
  topology : topology;
  w_pair : float;
  l_pair : float;
  w_mirror : float;
  l_mirror : float;
  w_tail : float;
  l_tail : float;
  w_cs : float;
  l_cs : float;
  w_sink : float;
  l_sink : float;
  i_bias : float;
  c_comp : float;
  r_zero : float;
  v_casc : float;   (** NMOS cascode gate bias (cascode topology only) *)
  v_cascp : float;  (** PMOS cascode gate bias (cascode topology only) *)
}

let default_sizing =
  {
    topology = Miller_simple;
    w_pair = 40e-6;
    l_pair = 0.5e-6;
    w_mirror = 20e-6;
    l_mirror = 1e-6;
    w_tail = 30e-6;
    l_tail = 1e-6;
    w_cs = 120e-6;
    l_cs = 0.5e-6;
    w_sink = 40e-6;
    l_sink = 1e-6;
    i_bias = 100e-6;
    c_comp = 1e-12;
    r_zero = 2000.0;
    v_casc = 1.6;
    v_cascp = 2.0;
  }

type ports = {
  nl : Netlist.t;
  vdd : Netlist.node;
  inv : Netlist.node;
  noninv : Netlist.node;
  out : Netlist.node;
  supply_name : string;
}

(* Core amplifier, shared by the open-loop and the switched-cap benches.
   The caller wires the inputs.

   Miller_simple: NMOS pair + PMOS mirror first stage.
   Miller_cascode: telescopic first stage — NMOS cascodes on the pair and
   a cascode PMOS mirror — for the 90+ dB gains the high-accuracy MDAC
   stages demand; the cascode gate bias is an ideal source (the bias
   generator is abstracted, as is usual in cell-level synthesis). *)
let build_core (proc : Process.t) z nl =
  let node = Netlist.node nl in
  let vdd = node "vdd" in
  let inv = node "inv" and noninv = node "noninv" in
  let tail = node "tail" and d1 = node "d1" and o1 = node "o1" in
  let out = node "out" and vbn = node "vbn" and zx = node "zx" in
  let gnd = Netlist.ground in
  Netlist.vsource nl "vdd_src" vdd gnd (Stimulus.Dc proc.Process.vdd);
  (match z.topology with
  | Miller_simple ->
    (* first stage: NMOS pair, PMOS mirror; [inv] input on the diode side *)
    Netlist.mosfet nl "m1" ~d:d1 ~g:inv ~s:tail ~b:gnd Process.Nmos ~w:z.w_pair
      ~l:z.l_pair ();
    Netlist.mosfet nl "m2" ~d:o1 ~g:noninv ~s:tail ~b:gnd Process.Nmos ~w:z.w_pair
      ~l:z.l_pair ();
    Netlist.mosfet nl "m3" ~d:d1 ~g:d1 ~s:vdd ~b:vdd Process.Pmos ~w:z.w_mirror
      ~l:z.l_mirror ();
    Netlist.mosfet nl "m4" ~d:o1 ~g:d1 ~s:vdd ~b:vdd Process.Pmos ~w:z.w_mirror
      ~l:z.l_mirror ()
  | Miller_cascode ->
    let x1 = node "x1" and x2 = node "x2" in
    let z1 = node "z1" and z2 = node "z2" in
    let vcn = node "vcasn" in
    Netlist.vsource nl "vcasn_src" vcn gnd (Stimulus.Dc z.v_casc);
    Netlist.mosfet nl "m1" ~d:x1 ~g:inv ~s:tail ~b:gnd Process.Nmos ~w:z.w_pair
      ~l:z.l_pair ();
    Netlist.mosfet nl "m2" ~d:x2 ~g:noninv ~s:tail ~b:gnd Process.Nmos ~w:z.w_pair
      ~l:z.l_pair ();
    (* NMOS cascodes on the pair *)
    Netlist.mosfet nl "mc1" ~d:d1 ~g:vcn ~s:x1 ~b:gnd Process.Nmos ~w:z.w_pair
      ~l:z.l_pair ();
    Netlist.mosfet nl "mc2" ~d:o1 ~g:vcn ~s:x2 ~b:gnd Process.Nmos ~w:z.w_pair
      ~l:z.l_pair ();
    (* wide-swing cascode PMOS mirror: M3/M4 gates close the loop at d1,
       MC3/MC4 ride on a fixed cascode bias so M3/M4 keep ~vov of vds *)
    let vcp = node "vcascp" in
    Netlist.vsource nl "vcascp_src" vcp gnd (Stimulus.Dc z.v_cascp);
    Netlist.mosfet nl "m3" ~d:z1 ~g:d1 ~s:vdd ~b:vdd Process.Pmos ~w:z.w_mirror
      ~l:z.l_mirror ();
    Netlist.mosfet nl "mc3" ~d:d1 ~g:vcp ~s:z1 ~b:vdd Process.Pmos ~w:z.w_mirror
      ~l:z.l_mirror ();
    Netlist.mosfet nl "m4" ~d:z2 ~g:d1 ~s:vdd ~b:vdd Process.Pmos ~w:z.w_mirror
      ~l:z.l_mirror ();
    Netlist.mosfet nl "mc4" ~d:o1 ~g:vcp ~s:z2 ~b:vdd Process.Pmos ~w:z.w_mirror
      ~l:z.l_mirror ());
  Netlist.mosfet nl "m5" ~d:tail ~g:vbn ~s:gnd ~b:gnd Process.Nmos ~w:z.w_tail
    ~l:z.l_tail ();
  (match z.topology with
  | Miller_simple ->
    (* second stage: PMOS common source + NMOS sink *)
    Netlist.mosfet nl "m6" ~d:out ~g:o1 ~s:vdd ~b:vdd Process.Pmos ~w:z.w_cs
      ~l:z.l_cs ();
    Netlist.mosfet nl "m7" ~d:out ~g:vbn ~s:gnd ~b:gnd Process.Nmos ~w:z.w_sink
      ~l:z.l_sink ()
  | Miller_cascode ->
    (* high-speed variant: NMOS common source (3x the PMOS mobility keeps
       the second-stage gate capacitance off the Miller node) with a PMOS
       current-source load; vbp is mirrored from the same bias branch *)
    let vbp = node "vbp" in
    Netlist.mosfet nl "m6" ~d:out ~g:o1 ~s:gnd ~b:gnd Process.Nmos ~w:z.w_cs
      ~l:z.l_cs ();
    Netlist.mosfet nl "m7" ~d:out ~g:vbp ~s:vdd ~b:vdd Process.Pmos ~w:z.w_sink
      ~l:z.l_sink ();
    (* reference diode sized like the tail so i7 = i_bias * w_sink/w_tail *)
    Netlist.mosfet nl "m9" ~d:vbp ~g:vbp ~s:vdd ~b:vdd Process.Pmos ~w:z.w_tail
      ~l:z.l_sink ();
    Netlist.mosfet nl "m10" ~d:vbp ~g:vbn ~s:gnd ~b:gnd Process.Nmos ~w:z.w_tail
      ~l:z.l_tail ());
  (* bias branch: mirror reference *)
  Netlist.mosfet nl "m8" ~d:vbn ~g:vbn ~s:gnd ~b:gnd Process.Nmos ~w:z.w_tail
    ~l:z.l_tail ();
  Netlist.isource nl "ibias" vdd vbn (Stimulus.Dc z.i_bias);
  (* Miller compensation with nulling resistor *)
  Netlist.resistor nl "rz" o1 zx z.r_zero;
  Netlist.capacitor nl "cc" zx out z.c_comp;
  { nl; vdd; inv; noninv; out; supply_name = "vdd_src" }

(* low enough that the telescopic stack (tail + pair + NMOS cascode)
   fits under the first-stage output sitting at one NMOS vgs *)
let add_core = build_core

let default_vcm (proc : Process.t) = 0.36 *. proc.Process.vdd

let build ?(load_cap = 1e-12) ?vcm ?(drive_noninv = true) ?inv_dc proc z =
  let vcm = match vcm with Some v -> v | None -> default_vcm proc in
  let inv_dc = match inv_dc with Some v -> v | None -> vcm in
  let nl = Netlist.create proc in
  let p = build_core proc z nl in
  let ac_p, ac_n = if drive_noninv then (1.0, 0.0) else (0.0, 1.0) in
  Netlist.vsource nl ~ac_mag:ac_p "vip" p.noninv Netlist.ground (Stimulus.Dc vcm);
  Netlist.vsource nl ~ac_mag:ac_n "vin" p.inv Netlist.ground (Stimulus.Dc inv_dc);
  Netlist.capacitor nl "cl" p.out Netlist.ground load_cap;
  p

(* process-wide servo counts for live metrics: each {!solve_biased}
   call adds once on return *)
let servo_calls = Tally.make "solver.servo_calls_total"
let servo_probes = Tally.make "solver.servo_probes_total"
let servo_fallbacks = Tally.make "solver.servo_fallbacks_total"

(* The servo's closed-loop guide: the open-loop bench with [vin] replaced
   by a unity-gain VCVS [ein] that holds [inv] at vcm + (v_out - vdd/2).
   The output falls as [inv] rises, so the loop is negative feedback and
   its operating point sits where the open-loop output crosses
   mid-supply, to within the input-referred error of the loop. *)
let build_locator ~load_cap ~vcm proc z =
  let nl = Netlist.create proc in
  let p = build_core proc z nl in
  let gnd = Netlist.ground in
  let vmid = Netlist.node nl "vmid" in
  Netlist.vsource nl "vip" p.noninv gnd (Stimulus.Dc vcm);
  Netlist.vsource nl "vmid_src" vmid gnd (Stimulus.Dc (0.5 *. proc.Process.vdd));
  Netlist.vcvs nl "ein" ~p:p.inv ~n:p.noninv ~cp:p.out ~cn:vmid ~gain:1.0;
  Netlist.capacitor nl "cl" p.out gnd load_cap;
  p

(* The locator's solution [xl] carried onto the sweep bench's unknowns by
   node and branch name, [ein] standing where [vin] is; what the sweep
   bench has and the locator lacks starts at zero. *)
let carry_over ~locator xl (sweep : ports) =
  let nl = sweep.nl and ll = locator.nl in
  let nv = Netlist.node_count nl - 1 and nvl = Netlist.node_count ll - 1 in
  let x = Array.make (Netlist.unknown_count nl) 0.0 in
  for n = 1 to nv do
    match Netlist.find_node ll (Netlist.node_name nl n) with
    | Some m -> x.(n - 1) <- xl.(Netlist.node_index m - 1)
    | None -> ()
  done;
  List.iter
    (function
      | Netlist.Vsource { v_name = name; _ } | Netlist.Vcvs { e_name = name; _ } -> (
        let lname = if name = "vin" then "ein" else name in
        match (Netlist.branch_index nl name, Netlist.branch_index ll lname) with
        | Some b, Some bl -> x.(nv + b) <- xl.(nvl + bl)
        | _ -> ())
      | _ -> ())
    (Netlist.devices nl);
  x

let servo_tol = 0.01

(* Bracket walk: the first step, the growth bounds of later steps, and
   the step budget of one side. A cascode cell's +-tol band is ~1e-7 V
   wide, so the first step lands near its edge; after it the secant
   sizes the steps, and the growth bounds keep a flat rail (no slope)
   from stalling the walk or a noisy slope from throwing it across the
   window. *)
let first_step = 1e-7
let min_growth = 2.0
let max_growth = 100.0
let walk_budget = 20

(* Open-loop amplifiers rail their output at any practical input offset;
   measurement benches null the offset with a DC servo: the bisection of
   the inverting-input DC level for the point where the output sits
   within [servo_tol] of mid-supply (the output is non-increasing in the
   inverting input). Most of the bisection's probes would land on a rail,
   where each costs a full Newton solve for one sign, so the servo first
   locates the transition and then replays the bisection over what it
   learned there:

   - Locator: the closed-loop bench, solved cold once, puts the crossing
     near [x_c = v(inv)]. [x_c] only places probes.
   - Bracket: probe [x_c], then walk outward until one probe has
     [f = v_out - vdd/2 >= tol] and one [f <= -tol].
   - Replay: the plain bisection from [(lo, hi)], which decides each
     midpoint from the bracket's samples where monotonicity settles it
     and probes it for real otherwise ([Rootfind.monotone_bisect]).

   If the locator fails, [x_c] falls outside [(lo, hi)], a bracket probe
   or a replay probe fails, or the walk runs out of steps, the guide is
   dropped: the servo probes [lo] and [hi] and replays with no known
   samples, which is the plain bisection probe for probe (a failed probe
   there ends the search at its midpoint, as it always did).

   Probes form a DC sweep and are solved like one: a single bench and
   sparse context, retargeted in place through [Netlist.set_wave], each
   Newton started from the previous probe's solution (the first guided
   probe from the locator's, carried over by name; the fallback's first
   from zero). A warm probe that fails is retried cold on a fresh bench.
   The returned point is always solved cold on a fresh bench, so its
   operating point never depends on the probes' starting points. See
   docs/SOLVER.md. *)
let solve_biased ?(load_cap = 1e-12) proc z =
  let vcm_v = default_vcm proc in
  let target = 0.5 *. proc.Process.vdd in
  (* A cold solve is a function of its point alone, so a point whose
     cold solve failed once in this call is not solved again: a probe
     that failed warm and cold is often the bisection's last midpoint,
     hence the returned point, and a failed replay probe is often met
     again by the fallback. *)
  let cold_failed = ref [] in
  let solve_cold inv_dc =
    if List.mem inv_dc !cold_failed then None
    else
      let p = build ~load_cap ~vcm:vcm_v ~inv_dc proc z in
      match Dc.solve p.nl with
      | Ok op -> Some (p, op)
      | Error _ ->
        cold_failed := inv_dc :: !cold_failed;
        None
  in
  let sweep = build ~load_cap ~vcm:vcm_v proc z in
  let ctx = Mna.context sweep.nl in
  let x_prev = ref None and probes = ref 0 in
  (* [f] at [inv_dc]: the output's distance from mid-supply *)
  let probe inv_dc =
    incr probes;
    Netlist.set_wave sweep.nl "vin" (Stimulus.Dc inv_dc);
    let solved =
      match Dc.solve ~ctx ?x0:!x_prev sweep.nl with
      | Ok op -> Some (sweep, op)
      | Error _ -> solve_cold inv_dc
    in
    Option.map
      (fun (p, op) ->
        x_prev := Some op.Dc.x;
        Dc.node_voltage op p.out -. target)
      solved
  in
  let lo = Float.max 0.2 (vcm_v -. 0.3) and hi = Float.min proc.Process.vdd (vcm_v +. 0.3) in
  (* Walk from [(x0, f0)] in direction [d] (+1 right, -1 left) until [f]
     clears [-d * tol]. Steps grow geometrically; the secant from
     [(x0, f0)] to the last probe sizes the next one, aimed at
     [-2 d tol], within [min_growth, max_growth] times the last. The
     samples are consed onto [known]. *)
  let walk ~known x0 f0 d h =
    let aim = -2.0 *. d *. servo_tol in
    let rec go known h n =
      if n = 0 then None
      else
        let x = Float.min hi (Float.max lo (x0 +. (d *. h))) in
        match probe x with
        | None -> None
        | Some f ->
          let known = (x, f) :: known in
          if d *. f <= -.servo_tol then Some (known, x, f)
          else if x = lo || x = hi then None
          else
            let s = (f -. f0) /. (x -. x0) in
            let h_aim = if s < 0.0 then d *. (aim -. f0) /. s else Float.infinity in
            go known (Float.min (max_growth *. h) (Float.max (min_growth *. h) h_aim)) (n - 1)
    in
    go known h walk_budget
  in
  (* the known samples of a bracket around the crossing, or [None] *)
  let bracket x_c =
    match probe x_c with
    | None -> None
    | Some f_c -> (
      let known = [ (x_c, f_c) ] in
      (* first toward the crossing, then, unless [x_c] itself clears the
         near side, the other way with the first side's secant slope *)
      let d = if f_c >= 0.0 then 1.0 else -1.0 in
      match walk ~known x_c f_c d first_step with
      | None -> None
      | Some (known, _, _) when d *. f_c >= servo_tol -> Some known
      | Some (known, x1, f1) ->
        let s = (f1 -. f_c) /. (x1 -. x_c) in
        let h = -.d *. ((2.0 *. d *. servo_tol) -. f_c) /. s in
        let h = if h > 0.0 && h < Float.infinity then h else first_step in
        Option.map (fun (known, _, _) -> known) (walk ~known x_c f_c (-.d) h))
  in
  let guided =
    let locator = build_locator ~load_cap ~vcm:vcm_v proc z in
    match Dc.solve locator.nl with
    | Error _ -> None
    | Ok op ->
      let x_c = Dc.node_voltage op locator.inv in
      if not (x_c > lo && x_c < hi) then None
      else begin
        x_prev := Some (carry_over ~locator op.Dc.x sweep);
        bracket x_c
      end
  in
  let replay known =
    Rootfind.monotone_bisect ~tol:servo_tol ~known ~probe lo hi
  in
  let fallback () =
    Tally.incr servo_fallbacks;
    x_prev := None;
    match (probe lo, probe hi) with
    | None, _ | _, None -> `Failed
    | Some f_lo, Some f_hi ->
      if f_lo *. f_hi > 0.0 then `Railed
      else `Centered (match replay [] with Ok mid | Error mid -> mid)
  in
  let outcome =
    match guided with
    | None -> fallback ()
    | Some known -> (
      match replay known with
      | Ok v_star -> `Centered v_star
      | Error _ -> fallback ())
  in
  Tally.incr servo_calls;
  Tally.add servo_probes !probes;
  match outcome with
  | `Failed -> Error "OTA DC failed during bias servo"
  | `Railed -> (
    (* cannot center the output: return the plain solution; callers see
       the railed metrics and grade the point as infeasible *)
    match solve_cold vcm_v with
    | Some (p, op) -> Ok (p, op, vcm_v)
    | None -> Error "OTA DC failed")
  | `Centered v_star -> (
    match solve_cold v_star with
    | Some (p, op) -> Ok (p, op, v_star)
    | None -> Error "OTA DC failed at servo point")

let biased_operating_point ?load_cap proc z =
  match solve_biased ?load_cap proc z with
  | Error e -> Error e
  | Ok (p, op, _) -> Ok (p, op)

type performance = {
  power : float;
  i_supply : float;
  dc_gain : float;
  gbw_hz : float option;
  phase_margin_deg : float option;
  pole1_hz : float option;
  swing_low : float;
  swing_high : float;
  slew_rate : float;
  all_saturated : bool;
  input_cap : float;
  tf : Ratfun.t;
}

let evaluate ?(load_cap = 1e-12) (proc : Process.t) z =
  match solve_biased ~load_cap proc z with
  | Error e -> Error e
  | Ok (p, op, _inv_dc) -> begin
    let ss = Smallsig.extract p.nl op in
    match Dpi.numeric_transfer_to (Dpi.build p.nl ss) p.out with
    | exception Dpi.Unsupported msg -> Error ("DPI failed: " ^ msg)
    | h ->
      match Analysis.characterize h with
      | exception Invalid_argument msg -> Error ("transfer-function analysis failed: " ^ msg)
      | spec ->
        let i_supply = Smallsig.total_supply_current p.nl op ~supply:p.supply_name in
        let m m_name = Smallsig.find_mos ss m_name in
        let m5 = m "m5" and m6 = m "m6" and m7 = m "m7" in
        (* swing: output may move until M6 or M7 leaves saturation *)
        let swing_high = proc.Process.vdd -. m6.vdsat in
        let swing_low = m7.vdsat in
        (* slew: falling edge limited by the sink current through CL+Cc;
           the internal node is limited by the tail current through Cc *)
        let i_tail = Float.abs m5.ids and i_sink = Float.abs m7.ids in
        let slew_rate =
          Float.min (i_tail /. z.c_comp) (i_sink /. (load_cap +. z.c_comp))
        in
        let all_saturated = Smallsig.saturation_ok ss ~except:[] in
        let pole1 =
          if Array.length spec.Analysis.poles > 0 then
            Some (Complex.norm spec.Analysis.poles.(0) /. (2.0 *. Float.pi))
          else None
        in
        let input_cap = (m "m2").caps.Mosfet.cgs in
        Ok
          {
            power = i_supply *. proc.Process.vdd;
            i_supply;
            dc_gain = spec.Analysis.dc_gain;
            gbw_hz = spec.Analysis.unity_gain_hz;
            phase_margin_deg = spec.Analysis.phase_margin_deg;
            pole1_hz = pole1;
            swing_low;
            swing_high;
            slew_rate;
            all_saturated;
            input_cap;
            tf = h;
          }
  end

let symbolic_transfer ?(load_cap = 1e-12) proc z =
  match solve_biased ~load_cap proc z with
  | Error e -> Error e
  | Ok (p, op, _inv_dc) -> begin
    let ss = Smallsig.extract p.nl op in
    match Dpi.build p.nl ss with
    | exception Dpi.Unsupported msg -> Error ("DPI failed: " ^ msg)
    | dpi -> Ok (Dpi.transfer_to dpi p.out)
  end

type settling_result = {
  settle_time : float option;
  final_value : float;
  ideal_value : float;
  static_error : float;
}

(* Switched-capacitor inverting amplifier in its amplification phase:
   the sampling capacitor's bottom plate is stepped by [v_step]; charge
   conservation at the virtual ground drives the output to
   -gain * v_step (relative to its bias point). *)
let settling_bench (proc : Process.t) z ~gain ~c_feedback ~c_load ~v_step
    ~t_window ~tol =
  let vcm = default_vcm proc in
  (* find the virtual-ground level that centers the output (the sampling
     phase of a real MDAC establishes it through the reset switches) *)
  match solve_biased proc z with
  | Error e -> Error e
  | Ok (_, _, v_star) ->
  let nl = Netlist.create proc in
  let p = build_core proc z nl in
  let gnd = Netlist.ground in
  let step_node = Netlist.node nl "vstep" in
  let vg_ref = Netlist.node nl "vg_ref" in
  Netlist.vsource nl "vip" p.noninv gnd (Stimulus.Dc vcm);
  (* reset switch: pins the virtual ground during t < 0.5 ns, then opens;
     the input step arrives at 1 ns *)
  Netlist.vsource nl "vg_src" vg_ref gnd (Stimulus.Dc v_star);
  Netlist.switch nl "sw_reset" p.inv vg_ref ~r_on:50.0 ~r_off:1e13
    ~closed_at:(fun t -> t < 0.5e-9);
  Netlist.vsource nl "vstep_src" step_node gnd
    (Stimulus.Pwl [| (0.0, vcm); (1.0e-9, vcm); (1.01e-9, vcm +. v_step) |]);
  let c_sample = gain *. c_feedback in
  Netlist.capacitor nl "cs" step_node p.inv c_sample;
  Netlist.capacitor nl "cf" p.inv p.out c_feedback;
  Netlist.capacitor nl "cl" p.out gnd c_load;
  match Dc.solve nl with
  | Error e -> Error ("settling bench DC failed: " ^ e)
  | Ok op -> begin
    let v0_out = Dc.node_voltage op p.out in
    let ideal_value = v0_out -. (gain *. v_step) in
    let t_step = 1.01e-9 in
    let t_stop = t_step +. t_window in
    let dt = t_window /. 800.0 in
    match Transient.run ~x0:op.Dc.x nl ~t_stop ~dt with
    | Error e -> Error ("settling bench transient failed: " ^ e)
    | Ok w ->
      let final_value = Transient.final_voltage nl w p.out in
      let band = tol *. Float.abs (gain *. v_step) in
      let settle_time =
        match Transient.settling_time nl w p.out ~target:final_value ~tol:band with
        | Some t -> Some (Float.max 0.0 (t -. t_step))
        | None -> None
      in
      let static_error =
        Float.abs (final_value -. ideal_value) /. Float.abs (gain *. v_step)
      in
      Ok { settle_time; final_value; ideal_value; static_error }
  end
