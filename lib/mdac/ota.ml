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

(* Open-loop amplifiers rail their output at any practical input offset;
   measurement benches null the offset with a DC servo. We bisect the
   inverting-input DC level until the output sits at its mid-swing bias
   point (the output is monotone decreasing in the inverting input).

   The search probes ([lo], [hi], each bisection [mid]) form a DC sweep
   and are solved like one: a single bench and sparse context, built on
   the first probe, retargeted in place through [Netlist.set_wave], each
   Newton started from the previous probe's solution (the first from
   zero). A warm probe that fails is retried cold on a fresh bench.
   Warm and cold probes agree far below the 10 mV stop tolerance, so
   wherever every cold probe converges the search takes the all-cold
   path; where a cold probe would exhaust its continuation strategies,
   the warm one may still converge and the search goes on. The returned
   point is always solved cold on a fresh bench, so its operating point
   never depends on the probes' starting points. See docs/SOLVER.md. *)
let solve_biased ?(load_cap = 1e-12) ?vcm ?(backend = `Sparse) proc z =
  let vcm_v = match vcm with Some v -> v | None -> default_vcm proc in
  let target = 0.5 *. proc.Process.vdd in
  let solve_cold inv_dc =
    let p = build ~load_cap ~vcm:vcm_v ~inv_dc proc z in
    match Dc.solve ~backend p.nl with
    | Ok op -> Some (p, op)
    | Error _ -> None
  in
  let sweep =
    lazy
      (let p = build ~load_cap ~vcm:vcm_v proc z in
       (p, match backend with `Sparse -> Some (Mna.context p.nl) | `Dense -> None))
  in
  let x_prev = ref None in
  let probe inv_dc =
    let p, ctx = Lazy.force sweep in
    Netlist.set_wave p.nl "vin" (Stimulus.Dc inv_dc);
    let solved =
      match Dc.solve ~backend ?ctx ?x0:!x_prev p.nl with
      | Ok op -> Some (p, op)
      | Error _ -> solve_cold inv_dc
    in
    Option.map
      (fun (p, op) ->
        x_prev := Some op.Dc.x;
        Dc.node_voltage op p.out)
      solved
  in
  let lo = Float.max 0.2 (vcm_v -. 0.3) and hi = Float.min proc.Process.vdd (vcm_v +. 0.3) in
  match (probe lo, probe hi) with
  | None, _ | _, None -> Error "OTA DC failed during bias servo"
  | Some v_lo, Some v_hi ->
    if (v_lo -. target) *. (v_hi -. target) > 0.0 then begin
      (* cannot center the output: return the plain solution; callers see
         the railed metrics and grade the point as infeasible *)
      match solve_cold vcm_v with
      | Some (p, op) -> Ok (p, op, vcm_v)
      | None -> Error "OTA DC failed"
    end
    else begin
      let rec bisect lo hi i =
        let mid = 0.5 *. (lo +. hi) in
        if i >= 60 then mid
        else
          match probe mid with
          | None -> mid
          | Some v ->
            if Float.abs (v -. target) < 0.01 then mid
            else if (v -. target) > 0.0 then bisect mid hi (i + 1)
            else bisect lo mid (i + 1)
      in
      let v_star = bisect lo hi 0 in
      match solve_cold v_star with
      | Some (p, op) -> Ok (p, op, v_star)
      | None -> Error "OTA DC failed at servo point"
    end

let biased_operating_point ?load_cap ?vcm ?backend proc z =
  match solve_biased ?load_cap ?vcm ?backend proc z with
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

let evaluate ?(load_cap = 1e-12) ?vcm ?backend (proc : Process.t) z =
  match solve_biased ~load_cap ?vcm ?backend proc z with
  | Error e -> Error e
  | Ok (p, op, _inv_dc) -> begin
    let ss = Smallsig.extract p.nl op in
    match Dpi.build p.nl ss with
    | exception Dpi.Unsupported msg -> Error ("DPI failed: " ^ msg)
    | dpi ->
      let h = Dpi.numeric_transfer_to dpi p.out in
      match Analysis.characterize h with
      | exception Invalid_argument msg -> Error ("transfer-function analysis failed: " ^ msg)
      | spec ->
        let i_supply = Smallsig.total_supply_current p.nl op ~supply:p.supply_name in
        let m m_name = Smallsig.find_mos ss m_name in
        let m5 = m "m5" and m6 = m "m6" and m7 = m "m7" in
        let v_out = Dc.node_voltage op p.out in
        (* swing: output may move until M6 or M7 leaves saturation *)
        ignore v_out;
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

let symbolic_transfer ?(load_cap = 1e-12) ?vcm proc z =
  match solve_biased ~load_cap ?vcm proc z with
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
let settling_bench ?vcm ?backend ?control (proc : Process.t) z ~gain
    ~c_feedback ~c_load ~v_step ~t_window ~tol =
  let vcm = match vcm with Some v -> v | None -> default_vcm proc in
  (* find the virtual-ground level that centers the output (the sampling
     phase of a real MDAC establishes it through the reset switches) *)
  match solve_biased ~vcm ?backend proc z with
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
  match Dc.solve ?backend nl with
  | Error e -> Error ("settling bench DC failed: " ^ e)
  | Ok op -> begin
    let v0_out = Dc.node_voltage op p.out in
    let ideal_value = v0_out -. (gain *. v_step) in
    let t_step = 1.01e-9 in
    let t_stop = t_step +. t_window in
    let dt = t_window /. 800.0 in
    match Transient.run ~x0:op.Dc.x ?backend ?control nl ~t_stop ~dt with
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
