(* Tests for the SPICE-class circuit substrate: device model, DC, AC,
   transient. Analytic references are hand-derivable small circuits. *)

module Rng = Adc_numerics.Rng
module Cxm = Adc_numerics.Cxm
module Process = Adc_circuit.Process
module Mosfet = Adc_circuit.Mosfet
module Netlist = Adc_circuit.Netlist
module Stimulus = Adc_circuit.Stimulus
module Dc = Adc_circuit.Dc
module Mna = Adc_circuit.Mna
module Sparse = Adc_numerics.Sparse
module Tally = Adc_numerics.Tally
module Vec = Adc_numerics.Vec
module Smallsig = Adc_circuit.Smallsig
module Ac = Adc_circuit.Ac
module Transient = Adc_circuit.Transient

let proc = Process.c025

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1.0 +. Float.abs expected) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let solve_dc nl =
  match Dc.solve nl with
  | Ok r -> r
  | Error e -> Alcotest.failf "DC failed: %s" e

(* ------------------------------------------------------------------ *)
(* MOSFET device model *)

let nmos = proc.Process.nmos

let test_mos_cutoff () =
  let e = Mosfet.eval nmos Process.Nmos ~w:10e-6 ~l:1e-6 ~vgs:0.3 ~vds:1.0 ~vbs:0.0 in
  Alcotest.(check bool) "cutoff region" true (e.region = Mosfet.Cutoff);
  check_close "zero current" 0.0 e.ids

let test_mos_saturation_value () =
  let w = 10e-6 and l = 1e-6 in
  let vgs = 1.0 and vds = 2.0 in
  let e = Mosfet.eval nmos Process.Nmos ~w ~l ~vgs ~vds ~vbs:0.0 in
  Alcotest.(check bool) "saturation" true (e.region = Mosfet.Saturation);
  let vov = vgs -. nmos.Process.vt0 in
  let lam = Process.lambda_of nmos ~l in
  let expected = 0.5 *. nmos.Process.kp *. (w /. l) *. vov *. vov *. (1.0 +. (lam *. vds)) in
  check_close ~eps:1e-12 "square law" expected e.ids

let test_mos_triode_region () =
  let e = Mosfet.eval nmos Process.Nmos ~w:10e-6 ~l:1e-6 ~vgs:2.0 ~vds:0.1 ~vbs:0.0 in
  Alcotest.(check bool) "triode" true (e.region = Mosfet.Triode)

let test_mos_region_boundary_continuity () =
  let vgs = 1.5 in
  let vov = vgs -. nmos.Process.vt0 in
  let just_below = Mosfet.eval nmos Process.Nmos ~w:10e-6 ~l:1e-6 ~vgs ~vds:(vov -. 1e-9) ~vbs:0.0 in
  let just_above = Mosfet.eval nmos Process.Nmos ~w:10e-6 ~l:1e-6 ~vgs ~vds:(vov +. 1e-9) ~vbs:0.0 in
  check_close ~eps:1e-6 "current continuous across vdsat" just_below.ids just_above.ids

let test_mos_reverse_vds () =
  let fwd = Mosfet.eval nmos Process.Nmos ~w:10e-6 ~l:1e-6 ~vgs:1.5 ~vds:0.5 ~vbs:0.0 in
  let rev = Mosfet.eval nmos Process.Nmos ~w:10e-6 ~l:1e-6 ~vgs:1.5 ~vds:(-0.5) ~vbs:0.0 in
  Alcotest.(check bool) "forward positive" true (fwd.ids > 0.0);
  Alcotest.(check bool) "reverse negative" true (rev.ids < 0.0)

let test_pmos_sign () =
  let e =
    Mosfet.eval proc.Process.pmos Process.Pmos ~w:10e-6 ~l:1e-6 ~vgs:(-1.2) ~vds:(-1.5) ~vbs:0.0
  in
  Alcotest.(check bool) "pmos conducts negative ids" true (e.ids < 0.0);
  Alcotest.(check bool) "pmos saturation" true (e.region = Mosfet.Saturation)

let test_mos_body_effect_raises_vt () =
  let vt0 = Mosfet.threshold nmos Process.Nmos ~vbs:0.0 in
  let vt_body = Mosfet.threshold nmos Process.Nmos ~vbs:(-1.0) in
  Alcotest.(check bool) "reverse body bias raises vt" true (vt_body > vt0)

let test_mos_caps_positive () =
  let c = Mosfet.capacitances nmos ~w:10e-6 ~l:1e-6 Mosfet.Saturation in
  Alcotest.(check bool) "cgs > cgd in saturation" true (c.cgs > c.cgd);
  Alcotest.(check bool) "all caps non-negative" true
    (c.cgs >= 0.0 && c.cgd >= 0.0 && c.cgb >= 0.0 && c.cdb >= 0.0 && c.csb >= 0.0)

(* Finite-difference validation of the analytic derivatives: this is the
   property that keeps the Newton Jacobian honest. *)
let prop_mos_derivatives_match_fd =
  QCheck2.Test.make ~name:"mos gm/gds/gmb match finite differences" ~count:200
    QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let polarity = if Rng.uniform rng < 0.5 then Process.Nmos else Process.Pmos in
      let params = Process.mos proc polarity in
      let sgn = match polarity with Process.Nmos -> 1.0 | Process.Pmos -> -1.0 in
      let w = Rng.uniform_in rng 1e-6 50e-6 and l = Rng.uniform_in rng 0.25e-6 2e-6 in
      let vgs = sgn *. Rng.uniform_in rng 0.0 2.5 in
      let vds = sgn *. Rng.uniform_in rng 0.05 3.0 in
      let vbs = -.sgn *. Rng.uniform_in rng 0.0 1.0 in
      let h = 1e-7 in
      let ids ~vgs ~vds ~vbs = (Mosfet.eval params polarity ~w ~l ~vgs ~vds ~vbs).ids in
      let e = Mosfet.eval params polarity ~w ~l ~vgs ~vds ~vbs in
      let fd_gm = (ids ~vgs:(vgs +. h) ~vds ~vbs -. ids ~vgs:(vgs -. h) ~vds ~vbs) /. (2.0 *. h) in
      let fd_gds = (ids ~vgs ~vds:(vds +. h) ~vbs -. ids ~vgs ~vds:(vds -. h) ~vbs) /. (2.0 *. h) in
      let fd_gmb = (ids ~vgs ~vds ~vbs:(vbs +. h) -. ids ~vgs ~vds ~vbs:(vbs -. h)) /. (2.0 *. h) in
      let near a b = Float.abs (a -. b) <= 1e-4 *. (1e-6 +. Float.max (Float.abs a) (Float.abs b)) in
      near e.gm fd_gm && near e.gds fd_gds && near e.gmb fd_gmb)

(* ------------------------------------------------------------------ *)
(* DC *)

let test_dc_divider () =
  let nl = Netlist.create proc in
  let vin = Netlist.node nl "in" and mid = Netlist.node nl "mid" in
  Netlist.vsource nl "vs" vin Netlist.ground (Stimulus.Dc 3.3);
  Netlist.resistor nl "r1" vin mid 1000.0;
  Netlist.resistor nl "r2" mid Netlist.ground 2000.0;
  let r = solve_dc nl in
  check_close ~eps:1e-9 "divider voltage" 2.2 (Dc.node_voltage r mid);
  check_close ~eps:1e-9 "source current" (-.(3.3 /. 3000.0)) (Dc.branch_current nl r "vs")

let test_dc_current_source () =
  let nl = Netlist.create proc in
  let a = Netlist.node nl "a" in
  Netlist.isource nl "i1" Netlist.ground a (Stimulus.Dc 1e-3);
  Netlist.resistor nl "r" a Netlist.ground 2200.0;
  let r = solve_dc nl in
  check_close ~eps:1e-6 "i*r" 2.2 (Dc.node_voltage r a)

let test_dc_vcvs () =
  let nl = Netlist.create proc in
  let vin = Netlist.node nl "in" and out = Netlist.node nl "out" in
  Netlist.vsource nl "vs" vin Netlist.ground (Stimulus.Dc 0.5);
  Netlist.vcvs nl "e1" ~p:out ~n:Netlist.ground ~cp:vin ~cn:Netlist.ground ~gain:10.0;
  Netlist.resistor nl "rl" out Netlist.ground 1000.0;
  let r = solve_dc nl in
  check_close ~eps:1e-9 "vcvs output" 5.0 (Dc.node_voltage r out)

let test_dc_nmos_diode () =
  (* diode-connected NMOS with a resistor from VDD: i = f(v) self-consistent *)
  let nl = Netlist.create proc in
  let vdd = Netlist.node nl "vdd" and d = Netlist.node nl "d" in
  Netlist.vsource nl "vdd_src" vdd Netlist.ground (Stimulus.Dc 3.3);
  Netlist.resistor nl "r" vdd d 10000.0;
  Netlist.mosfet nl "m1" ~d ~g:d ~s:Netlist.ground ~b:Netlist.ground Process.Nmos
    ~w:10e-6 ~l:1e-6 ();
  let r = solve_dc nl in
  let v = Dc.node_voltage r d in
  Alcotest.(check bool) "above threshold" true (v > 0.55);
  Alcotest.(check bool) "below supply" true (v < 3.3);
  (* KCL at node d: resistor current equals device current *)
  let i_r = (3.3 -. v) /. 10000.0 in
  let e = Mosfet.eval nmos Process.Nmos ~w:10e-6 ~l:1e-6 ~vgs:v ~vds:v ~vbs:0.0 in
  check_close ~eps:1e-6 "KCL at drain" i_r e.ids;
  Alcotest.(check bool) "small residual" true (r.residual < 1e-8)

let test_dc_common_source_bias () =
  let nl = Netlist.create proc in
  let vdd = Netlist.node nl "vdd" and out = Netlist.node nl "out" and g = Netlist.node nl "g" in
  Netlist.vsource nl "vdd_src" vdd Netlist.ground (Stimulus.Dc 3.3);
  Netlist.vsource nl "vg" g Netlist.ground (Stimulus.Dc 1.0);
  Netlist.resistor nl "rd" vdd out 5000.0;
  Netlist.mosfet nl "m1" ~d:out ~g ~s:Netlist.ground ~b:Netlist.ground Process.Nmos
    ~w:10e-6 ~l:1e-6 ();
  let r = solve_dc nl in
  let vout = Dc.node_voltage r out in
  (* device in saturation, drop consistent with square law *)
  let ss = Smallsig.extract nl r in
  let m = Smallsig.find_mos ss "m1" in
  Alcotest.(check bool) "in saturation" true (m.region = Mosfet.Saturation);
  check_close ~eps:1e-6 "vds consistency" vout m.vds;
  check_close ~eps:1e-4 "resistor current = ids" ((3.3 -. vout) /. 5000.0) m.ids

(* misuse of the optional arguments is refused at entry, before any
   assembly: a ctx recorded for another netlist (even a structurally
   equal one) and a start vector of the wrong length *)
let test_dc_argument_guards () =
  let divider () =
    let nl = Netlist.create proc in
    let vin = Netlist.node nl "in" and mid = Netlist.node nl "mid" in
    Netlist.vsource nl "vs" vin Netlist.ground (Stimulus.Dc 3.3);
    Netlist.resistor nl "r1" vin mid 1000.0;
    Netlist.resistor nl "r2" mid Netlist.ground 2000.0;
    nl
  in
  let nl = divider () in
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "foreign ctx rejected" true
    (raises (fun () -> Dc.solve ~ctx:(Mna.context (divider ())) nl));
  Alcotest.(check bool) "short x0 rejected" true
    (raises (fun () -> Dc.solve ~x0:[| 0.0 |] nl));
  Alcotest.(check bool) "own ctx and full-length x0 accepted" false
    (raises (fun () ->
         Dc.solve ~ctx:(Mna.context nl) ~x0:(Array.make (Netlist.unknown_count nl) 0.0) nl))

let test_dc_rejects_floating_node () =
  let nl = Netlist.create proc in
  let a = Netlist.node nl "a" and b = Netlist.node nl "b" in
  Netlist.vsource nl "v" a Netlist.ground (Stimulus.Dc 1.0);
  Netlist.resistor nl "r" a Netlist.ground 100.0;
  (* node b touched by exactly one capacitor terminal: invalid *)
  Netlist.capacitor nl "c" b b 1e-12;
  (match Netlist.validate nl with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected validation error");
  Alcotest.(check bool) "solve raises" true
    (try
       ignore (Dc.solve nl);
       false
     with Invalid_argument _ -> true)

(* The validation verdict is kept per netlist, so a netlist that grows
   after its first solve must be judged again: a dangling node added
   later is refused with the same message, a valid extension is solved
   with its new device, and a context built before the extension
   refuses to assemble the grown netlist. *)
let test_dc_revalidates_extended_netlist () =
  let nl = Netlist.create proc in
  let vin = Netlist.node nl "in" and mid = Netlist.node nl "mid" in
  Netlist.vsource nl "vs" vin Netlist.ground (Stimulus.Dc 3.0);
  Netlist.resistor nl "r1" vin mid 1000.0;
  Netlist.resistor nl "r2" mid Netlist.ground 2000.0;
  let ctx = Mna.context nl in
  check_close "divider" 2.0 (Dc.node_voltage (solve_dc nl) mid);
  Netlist.resistor nl "r3" mid Netlist.ground 2000.0;
  check_close "extended divider" 1.5 (Dc.node_voltage (solve_dc nl) mid);
  Alcotest.(check bool) "a stale ctx refuses the grown netlist" true
    (try
       ignore (Dc.solve ~ctx nl);
       false
     with Invalid_argument _ -> true);
  let dangling = Netlist.node nl "dangling" in
  Netlist.resistor nl "r4" mid dangling 1000.0;
  match Dc.solve nl with
  | _ -> Alcotest.fail "a dangling node was accepted"
  | exception Invalid_argument msg ->
    Alcotest.(check string) "message"
      "Dc.solve: bad netlist: node \"dangling\" has fewer than two connections" msg

let prop_dc_resistor_ladder_kcl =
  QCheck2.Test.make ~name:"dc resistor ladder satisfies KCL and bounds" ~count:60
    QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int_below rng 8 in
      let nl = Netlist.create proc in
      let nodes = Array.init n (fun i -> Netlist.node nl (Printf.sprintf "n%d" i)) in
      Netlist.vsource nl "vs" nodes.(0) Netlist.ground (Stimulus.Dc 1.0);
      for i = 0 to n - 2 do
        Netlist.resistor nl (Printf.sprintf "rs%d" i) nodes.(i) nodes.(i + 1)
          (Rng.uniform_in rng 100.0 10000.0)
      done;
      for i = 1 to n - 1 do
        Netlist.resistor nl (Printf.sprintf "rg%d" i) nodes.(i) Netlist.ground
          (Rng.uniform_in rng 100.0 10000.0)
      done;
      match Dc.solve nl with
      | Error _ -> false
      | Ok r ->
        r.residual < 1e-9
        && Array.for_all
             (fun nd ->
               let v = Dc.node_voltage r nd in
               v >= -1e-9 && v <= 1.0 +. 1e-9)
             nodes)

(* ------------------------------------------------------------------ *)
(* AC *)

let test_ac_rc_lowpass () =
  let r = 1000.0 and c = 1e-9 in
  let fc = 1.0 /. (2.0 *. Float.pi *. r *. c) in
  let nl = Netlist.create proc in
  let vin = Netlist.node nl "in" and out = Netlist.node nl "out" in
  Netlist.vsource nl ~ac_mag:1.0 "vs" vin Netlist.ground (Stimulus.Dc 0.0);
  Netlist.resistor nl "r" vin out r;
  Netlist.capacitor nl "c" out Netlist.ground c;
  let dc = solve_dc nl in
  let ss = Smallsig.extract nl dc in
  let freqs = [| fc /. 100.0; fc; fc *. 100.0 |] in
  let pts = Ac.run nl ss ~freqs in
  let tf = Ac.transfer pts out in
  check_close ~eps:1e-3 "passband gain" 1.0 (Complex.norm (snd tf.(0)));
  check_close ~eps:1e-3 "-3dB point" (1.0 /. sqrt 2.0) (Complex.norm (snd tf.(1)));
  check_close ~eps:2e-2 "stopband slope" 0.01 (Complex.norm (snd tf.(2)));
  check_close ~eps:1e-2 "-45 degrees at fc" (-45.0) (Cxm.phase_deg (snd tf.(1)))

let test_ac_common_source_gain () =
  let nl = Netlist.create proc in
  let vdd = Netlist.node nl "vdd" and out = Netlist.node nl "out" and g = Netlist.node nl "g" in
  Netlist.vsource nl "vdd_src" vdd Netlist.ground (Stimulus.Dc 3.3);
  Netlist.vsource nl ~ac_mag:1.0 "vg" g Netlist.ground (Stimulus.Dc 1.0);
  Netlist.resistor nl "rd" vdd out 5000.0;
  Netlist.mosfet nl "m1" ~d:out ~g ~s:Netlist.ground ~b:Netlist.ground Process.Nmos
    ~w:10e-6 ~l:1e-6 ();
  let dc = solve_dc nl in
  let ss = Smallsig.extract nl dc in
  let m = Smallsig.find_mos ss "m1" in
  let expected_gain = m.gm *. (1.0 /. ((1.0 /. 5000.0) +. m.gds)) in
  let pts = Ac.run nl ss ~freqs:[| 1e3 |] in
  let h = Ac.voltage pts.(0) out in
  check_close ~eps:1e-3 "low-frequency gain magnitude" expected_gain (Complex.norm h);
  (* inverting stage: phase near 180 *)
  check_close ~eps:1e-2 "inverting phase" 180.0 (Float.abs (Cxm.phase_deg h))

let test_ac_unity_gain_and_pm () =
  (* synthetic single-pole response: H(f) = 1000 / (1 + j f/1kHz),
     unity crossing at ~1 MHz with ~90 degrees of phase margin *)
  let freqs = Ac.logspace ~f_start:10.0 ~f_stop:1e8 ~points_per_decade:40 in
  let tf =
    Array.map
      (fun f ->
        let ratio = { Complex.re = 0.0; im = f /. 1e3 } in
        (f, Complex.div { Complex.re = 1000.0; im = 0.0 } (Complex.add Complex.one ratio)))
      freqs
  in
  (match Ac.unity_gain_freq tf with
  | Some fu -> check_close ~eps:5e-3 "unity gain frequency" 1e6 fu
  | None -> Alcotest.fail "expected unity crossing");
  match Ac.phase_margin_deg tf with
  | Some pm -> check_close ~eps:2e-2 "single-pole pm ~ 90" 90.0 pm
  | None -> Alcotest.fail "expected phase margin"

(* ------------------------------------------------------------------ *)
(* Transient *)

let test_transient_rc_step () =
  let r = 1000.0 and c = 1e-9 in
  let tau = r *. c in
  let nl = Netlist.create proc in
  let vin = Netlist.node nl "in" and out = Netlist.node nl "out" in
  Netlist.vsource nl "vs" vin Netlist.ground (Stimulus.step ~from:0.0 ~to_:1.0 ());
  Netlist.resistor nl "r" vin out r;
  Netlist.capacitor nl "c" out Netlist.ground c;
  match Transient.run nl ~t_stop:(5.0 *. tau) ~dt:(tau /. 100.0) with
  | Error e -> Alcotest.failf "transient failed: %s" e
  | Ok w ->
    let wf = Adc_numerics.Interp.of_samples (Transient.node_waveform nl w out) in
    check_close ~eps:2e-3 "1 tau" (1.0 -. exp (-1.0)) (Adc_numerics.Interp.eval wf tau);
    check_close ~eps:2e-3 "3 tau" (1.0 -. exp (-3.0)) (Adc_numerics.Interp.eval wf (3.0 *. tau));
    check_close ~eps:2e-3 "final" (1.0 -. exp (-5.0)) (Transient.final_voltage nl w out)

let test_transient_settling_time () =
  let r = 1000.0 and c = 1e-9 in
  let tau = r *. c in
  let nl = Netlist.create proc in
  let vin = Netlist.node nl "in" and out = Netlist.node nl "out" in
  Netlist.vsource nl "vs" vin Netlist.ground (Stimulus.step ~from:0.0 ~to_:1.0 ());
  Netlist.resistor nl "r" vin out r;
  Netlist.capacitor nl "c" out Netlist.ground c;
  match Transient.run nl ~t_stop:(12.0 *. tau) ~dt:(tau /. 50.0) with
  | Error e -> Alcotest.failf "transient failed: %s" e
  | Ok w -> begin
    match Transient.settling_time nl w out ~target:1.0 ~tol:0.01 with
    | None -> Alcotest.fail "expected settling"
    | Some t ->
      (* exp(-t/tau) = 0.01 -> t = 4.6 tau *)
      check_close ~eps:0.05 "settling to 1%" (4.6 *. tau) t
  end

let test_transient_switch_divider () =
  (* switch closes at 0.5 us shorting the lower resistor *)
  let nl = Netlist.create proc in
  let vin = Netlist.node nl "in" and out = Netlist.node nl "out" in
  Netlist.vsource nl "vs" vin Netlist.ground (Stimulus.Dc 2.0);
  Netlist.resistor nl "r1" vin out 1000.0;
  Netlist.resistor nl "r2" out Netlist.ground 1000.0;
  Netlist.switch nl "sw" out Netlist.ground ~r_on:1.0 ~r_off:1e12
    ~closed_at:(fun t -> t >= 0.5e-6);
  match Transient.run nl ~t_stop:1e-6 ~dt:1e-8 with
  | Error e -> Alcotest.failf "transient failed: %s" e
  | Ok w ->
    let wf = Adc_numerics.Interp.of_samples (Transient.node_waveform nl w out) in
    check_close ~eps:1e-3 "before close" 1.0 (Adc_numerics.Interp.eval wf 0.4e-6);
    check_close ~eps:1e-2 "after close" 0.002 (Adc_numerics.Interp.eval wf 0.9e-6)

let test_transient_sine_follows_source () =
  let nl = Netlist.create proc in
  let vin = Netlist.node nl "in" in
  Netlist.vsource nl "vs" vin Netlist.ground
    (Stimulus.Sine { offset = 0.0; amplitude = 1.0; freq = 1e6; phase = 0.0 });
  Netlist.resistor nl "r" vin Netlist.ground 1000.0;
  match Transient.run nl ~t_stop:1e-6 ~dt:1e-9 with
  | Error e -> Alcotest.failf "transient failed: %s" e
  | Ok w ->
    let wf = Adc_numerics.Interp.of_samples (Transient.node_waveform nl w vin) in
    check_close ~eps:1e-3 "quarter period" 1.0 (Adc_numerics.Interp.eval wf 0.25e-6);
    check_close ~eps:5e-3 "three quarter period" (-1.0) (Adc_numerics.Interp.eval wf 0.75e-6)

(* ------------------------------------------------------------------ *)
(* Stimulus waveforms *)

let test_stimulus_dc_and_sine () =
  check_close "dc" 1.5 (Stimulus.value (Stimulus.Dc 1.5) 123.0);
  let s = Stimulus.Sine { offset = 1.0; amplitude = 0.5; freq = 1e6; phase = 0.0 } in
  check_close "sine at zero" 1.0 (Stimulus.value s 0.0);
  check_close ~eps:1e-9 "sine at quarter period" 1.5 (Stimulus.value s 0.25e-6)

let test_stimulus_pulse () =
  let p =
    Stimulus.Pulse
      { v_low = 0.0; v_high = 1.0; t_delay = 1e-9; t_rise = 1e-9; t_fall = 1e-9;
        t_width = 5e-9; period = 20e-9 }
  in
  check_close "before delay" 0.0 (Stimulus.value p 0.5e-9);
  check_close "mid rise" 0.5 (Stimulus.value p 1.5e-9);
  check_close "plateau" 1.0 (Stimulus.value p 4e-9);
  check_close "after fall" 0.0 (Stimulus.value p 10e-9);
  check_close "periodic repeat" 1.0 (Stimulus.value p 24e-9)

let test_stimulus_pwl () =
  let w = Stimulus.Pwl [| (0.0, 0.0); (1.0, 2.0); (3.0, 2.0) |] in
  check_close "interpolated" 1.0 (Stimulus.value w 0.5);
  check_close "hold" 2.0 (Stimulus.value w 2.0);
  check_close "clamp right" 2.0 (Stimulus.value w 10.0);
  check_close "clamp left" 0.0 (Stimulus.value w (-1.0))

(* ------------------------------------------------------------------ *)
(* Switched-capacitor charge conservation *)

let test_switched_cap_charge_redistribution () =
  (* C1 charged to 2 V, then a switch connects it to an uncharged C2 of
     equal value: both settle to 1 V (charge conservation) *)
  let nl = Netlist.create proc in
  let a = Netlist.node nl "a" and b = Netlist.node nl "b" and src = Netlist.node nl "src" in
  Netlist.vsource nl "vs" src Netlist.ground (Stimulus.Dc 2.0);
  (* charging switch: closed before t=0, opens at 1 ns *)
  Netlist.switch nl "sw_chg" src a ~r_on:10.0 ~r_off:1e13 ~closed_at:(fun t -> t < 1e-9);
  Netlist.capacitor nl "c1" a Netlist.ground 1e-12;
  Netlist.switch nl "sw_share" a b ~r_on:10.0 ~r_off:1e13 ~closed_at:(fun t -> t > 2e-9);
  Netlist.capacitor nl "c2" b Netlist.ground 1e-12;
  (* bleed keeps c2 discharged at the operating point (the off-switch is a
     huge but finite resistor, so b would otherwise float up to 2 V at DC);
     its 0.5 us time constant is invisible over the 20 ns experiment *)
  Netlist.resistor nl "bleed" b Netlist.ground 1e6;
  match Transient.run nl ~t_stop:20e-9 ~dt:20e-12 with
  | Error e -> Alcotest.failf "transient failed: %s" e
  | Ok w ->
    check_close ~eps:1e-2 "half the charge on c1" 1.0 (Transient.final_voltage nl w a);
    check_close ~eps:1e-2 "half the charge on c2" 1.0 (Transient.final_voltage nl w b)

let test_ac_switch_states () =
  (* a divider through a switch: open -> no division, closed -> half *)
  let build closed =
    let nl = Netlist.create proc in
    let vin = Netlist.node nl "in" and out = Netlist.node nl "out" in
    Netlist.vsource nl ~ac_mag:1.0 "vs" vin Netlist.ground (Stimulus.Dc 0.0);
    Netlist.resistor nl "r1" vin out 1000.0;
    Netlist.switch nl "sw" out Netlist.ground ~r_on:1000.0 ~r_off:1e12
      ~closed_at:(fun _ -> closed);
    let dc = solve_dc nl in
    let ss = Smallsig.extract nl dc in
    let pts = Ac.run nl ss ~freqs:[| 1e3 |] in
    Complex.norm (Ac.voltage pts.(0) out)
  in
  check_close ~eps:1e-3 "switch open" 1.0 (build false);
  check_close ~eps:1e-3 "switch closed halves" 0.5 (build true)

(* ------------------------------------------------------------------ *)
(* Solver backends: the sparse default against the dense oracle, the
   symbolic-factorization cache, and the LTE step controller *)

(* Fresh builders for every netlist exercised elsewhere in this file, so
   the backend-equivalence sweep covers the same topologies. *)
let equivalence_netlists () =
  let divider () =
    let nl = Netlist.create proc in
    let vin = Netlist.node nl "in" and mid = Netlist.node nl "mid" in
    Netlist.vsource nl "vs" vin Netlist.ground (Stimulus.Dc 3.3);
    Netlist.resistor nl "r1" vin mid 1000.0;
    Netlist.resistor nl "r2" mid Netlist.ground 2000.0;
    nl
  in
  let current_source () =
    let nl = Netlist.create proc in
    let a = Netlist.node nl "a" in
    Netlist.isource nl "i1" Netlist.ground a (Stimulus.Dc 1e-3);
    Netlist.resistor nl "r" a Netlist.ground 2200.0;
    nl
  in
  let vcvs () =
    let nl = Netlist.create proc in
    let vin = Netlist.node nl "in" and out = Netlist.node nl "out" in
    Netlist.vsource nl "vs" vin Netlist.ground (Stimulus.Dc 0.5);
    Netlist.vcvs nl "e1" ~p:out ~n:Netlist.ground ~cp:vin ~cn:Netlist.ground ~gain:10.0;
    Netlist.resistor nl "rl" out Netlist.ground 1000.0;
    nl
  in
  let nmos_diode () =
    let nl = Netlist.create proc in
    let vdd = Netlist.node nl "vdd" and d = Netlist.node nl "d" in
    Netlist.vsource nl "vdd_src" vdd Netlist.ground (Stimulus.Dc 3.3);
    Netlist.resistor nl "r" vdd d 10000.0;
    Netlist.mosfet nl "m1" ~d ~g:d ~s:Netlist.ground ~b:Netlist.ground Process.Nmos
      ~w:10e-6 ~l:1e-6 ();
    nl
  in
  let common_source () =
    let nl = Netlist.create proc in
    let vdd = Netlist.node nl "vdd" and out = Netlist.node nl "out" and g = Netlist.node nl "g" in
    Netlist.vsource nl "vdd_src" vdd Netlist.ground (Stimulus.Dc 3.3);
    Netlist.vsource nl "vg" g Netlist.ground (Stimulus.Dc 1.0);
    Netlist.resistor nl "rd" vdd out 5000.0;
    Netlist.mosfet nl "m1" ~d:out ~g ~s:Netlist.ground ~b:Netlist.ground Process.Nmos
      ~w:10e-6 ~l:1e-6 ();
    nl
  in
  let rc_lowpass () =
    let nl = Netlist.create proc in
    let vin = Netlist.node nl "in" and out = Netlist.node nl "out" in
    Netlist.vsource nl ~ac_mag:1.0 "vs" vin Netlist.ground (Stimulus.Dc 0.0);
    Netlist.resistor nl "r" vin out 1000.0;
    Netlist.capacitor nl "c" out Netlist.ground 1e-9;
    nl
  in
  let switch_divider () =
    let nl = Netlist.create proc in
    let vin = Netlist.node nl "in" and out = Netlist.node nl "out" in
    Netlist.vsource nl "vs" vin Netlist.ground (Stimulus.Dc 2.0);
    Netlist.resistor nl "r1" vin out 1000.0;
    Netlist.resistor nl "r2" out Netlist.ground 1000.0;
    Netlist.switch nl "sw" out Netlist.ground ~r_on:1.0 ~r_off:1e12
      ~closed_at:(fun t -> t >= 0.5e-6);
    nl
  in
  let switched_cap () =
    let nl = Netlist.create proc in
    let a = Netlist.node nl "a" and b = Netlist.node nl "b" and src = Netlist.node nl "src" in
    Netlist.vsource nl "vs" src Netlist.ground (Stimulus.Dc 2.0);
    Netlist.switch nl "sw_chg" src a ~r_on:10.0 ~r_off:1e13 ~closed_at:(fun t -> t < 1e-9);
    Netlist.capacitor nl "c1" a Netlist.ground 1e-12;
    Netlist.switch nl "sw_share" a b ~r_on:10.0 ~r_off:1e13 ~closed_at:(fun t -> t > 2e-9);
    Netlist.capacitor nl "c2" b Netlist.ground 1e-12;
    Netlist.resistor nl "bleed" b Netlist.ground 1e6;
    nl
  in
  [
    ("divider", divider);
    ("current source", current_source);
    ("vcvs", vcvs);
    ("nmos diode", nmos_diode);
    ("common source", common_source);
    ("rc lowpass", rc_lowpass);
    ("switch divider", switch_divider);
    ("switched cap", switched_cap);
  ]

let solve_dc_backend name backend nl =
  match Fixtures.on_solver backend (fun () -> Dc.solve nl) with
  | Ok r -> r
  | Error e ->
    Alcotest.failf "%s: DC failed on %s backend: %s" name (Fixtures.solver_name backend) e

let test_dc_backends_agree () =
  List.iter
    (fun (name, build) ->
      let d = solve_dc_backend name `Dense (build ()) in
      let s = solve_dc_backend name `Sparse (build ()) in
      let diff = Vec.max_abs_diff d.Dc.x s.Dc.x in
      if diff > 1e-9 then
        Alcotest.failf "%s: dense and sparse operating points differ by %g" name diff)
    (equivalence_netlists ())

(* A long RC ladder: the largest system the solver tests run, where
   dense LU is O(n^3) per Newton iteration and the ladder factors in O(n). *)
let rc_ladder sections () =
  let nl = Netlist.create proc in
  let nodes =
    Array.init (sections + 1) (fun i -> Netlist.node nl (Printf.sprintf "n%d" i))
  in
  Netlist.vsource nl "vs" nodes.(0) Netlist.ground (Stimulus.step ~from:0.0 ~to_:1.0 ());
  for i = 0 to sections - 1 do
    Netlist.resistor nl (Printf.sprintf "r%d" i) nodes.(i) nodes.(i + 1) 1000.0;
    Netlist.capacitor nl (Printf.sprintf "c%d" i) nodes.(i + 1) Netlist.ground 1e-12
  done;
  nl

let test_transient_backends_agree () =
  (* identical fixed-step trajectories: both backends solve the same
     Newton systems, so the whole waveform must agree to solver noise.
     The sparse runs replay the shared symbolic factorization (no
     analysis beyond the one a new topology publishes); the dense oracle
     does no sparse work. *)
  let builders = equivalence_netlists () in
  let cases =
    [
      ("rc lowpass", List.assoc "rc lowpass" builders, 5e-6, 5e-8);
      ("switch divider", List.assoc "switch divider" builders, 1e-6, 1e-8);
      ("switched cap", List.assoc "switched cap" builders, 20e-9, 20e-12);
      ("rc ladder 160", rc_ladder 160, 400e-9, 1e-9);
    ]
  in
  List.iter
    (fun (name, build, t_stop, dt) ->
      let run backend =
        let sparse = Sparse.totals () and published = Mna.shared_analyses () in
        let accepted = Tally.get Transient.accepted_total in
        match
          Fixtures.on_solver backend (fun () ->
              Transient.run ~control:Transient.Fixed (build ()) ~t_stop ~dt)
        with
        | Ok w ->
          ( w,
            Fixtures.sparse_since sparse,
            Mna.shared_analyses () - published,
            Tally.get Transient.accepted_total - accepted )
        | Error e -> Alcotest.failf "%s: transient failed: %s" name e
      in
      let wd, dense, _, _ = run `Dense in
      let ws, s, published, accepted = run `Sparse in
      Array.iteri
        (fun i t ->
          let diff = Vec.max_abs_diff wd.Transient.data.(i) ws.Transient.data.(i) in
          if diff > 1e-9 then
            Alcotest.failf "%s: backends differ by %g at t=%g" name diff t)
        wd.Transient.times;
      Alcotest.(check int) (name ^ ": sparse analyses") 0
        (s.Sparse.total_analyses - published);
      Alcotest.(check bool)
        (Printf.sprintf "%s: sparse refactorizations (%d) cover the steps" name
           s.Sparse.total_refactorizations)
        true
        (s.Sparse.total_refactorizations >= accepted);
      Alcotest.(check bool) (name ^ ": dense does no sparse work") true
        (dense.Sparse.total_analyses = 0
        && dense.Sparse.total_refactorizations = 0
        && dense.Sparse.total_solves = 0))
    cases

(* Regression for the Newton convergence criterion: acceptance is judged
   on the residual assembled at the *returned* point, so re-evaluating it
   freshly must reproduce a converged norm (the stale pre-update check
   could report convergence one update early). *)
let test_newton_residual_is_fresh () =
  List.iter
    (fun backend ->
      List.iter
        (fun (name, build) ->
          let nl = build () in
          let r = solve_dc_backend name backend nl in
          let f = Array.make (Netlist.unknown_count nl) 0.0 in
          let ctx = Fixtures.on_solver backend (fun () -> Mna.context nl) in
          Mna.residual_into ctx ~x:r.Dc.x ~time:0.0 ~source_scale:1.0 ~gmin:1e-12
            ~cap_policy:Mna.Cap_open f;
          let n = Vec.norm_inf f in
          if n > 1e-8 then
            Alcotest.failf "%s: residual at the returned point is %g" name n;
          if r.Dc.residual > 1e-8 then
            Alcotest.failf "%s: reported residual is %g" name r.Dc.residual)
        (equivalence_netlists ()))
    [ `Sparse; `Dense ]

(* Random-netlist pattern/factorization round trip: sparse matches the
   dense oracle, a same-topology candidate reuses the published symbolic
   factorization, and replaying the factorization is deterministic. *)
let prop_random_netlist_backends_agree =
  QCheck2.Test.make ~name:"random netlist: sparse = dense, symbolic shared, replay stable"
    ~count:60
    QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 3 + Rng.int_below rng 6 in
      (* topology decided once; element values vary per candidate *)
      let skip = Array.init (max 0 (n - 2)) (fun _ -> Rng.uniform rng < 0.4) in
      let cap = Array.init (n - 1) (fun _ -> Rng.uniform rng < 0.3) in
      let build vseed =
        let vr = Rng.create vseed in
        let nl = Netlist.create proc in
        let nodes = Array.init n (fun i -> Netlist.node nl (Printf.sprintf "n%d" i)) in
        Netlist.vsource nl "vs" nodes.(0) Netlist.ground
          (Stimulus.Dc (Rng.uniform_in vr 0.5 3.0));
        for i = 0 to n - 2 do
          Netlist.resistor nl (Printf.sprintf "rs%d" i) nodes.(i) nodes.(i + 1)
            (Rng.uniform_in vr 100.0 10000.0);
          Netlist.resistor nl (Printf.sprintf "rg%d" i) nodes.(i + 1) Netlist.ground
            (Rng.uniform_in vr 100.0 10000.0);
          if cap.(i) then
            Netlist.capacitor nl (Printf.sprintf "cg%d" i) nodes.(i + 1) Netlist.ground
              (Rng.uniform_in vr 1e-13 1e-11)
        done;
        for i = 0 to n - 3 do
          if skip.(i) then
            Netlist.resistor nl (Printf.sprintf "rx%d" i) nodes.(i) nodes.(i + 2)
              (Rng.uniform_in vr 100.0 10000.0)
        done;
        nl
      in
      let solve backend nl =
        match Fixtures.on_solver backend (fun () -> Dc.solve nl) with
        | Ok r -> r.Dc.x
        | Error e -> Alcotest.failf "random netlist DC failed: %s" e
      in
      let nl1 = build (seed + 1) in
      let agree = Vec.max_abs_diff (solve `Dense nl1) (solve `Sparse nl1) <= 1e-9 in
      let published = Tally.get Mna.cache_analyses in
      (* same topology, different values: must reuse the cached symbolic *)
      let x2 = solve `Sparse (build (seed + 2)) in
      let shared = Tally.get Mna.cache_analyses = published in
      (* replaying the recorded factorization is bit-deterministic *)
      let x2' = solve `Sparse (build (seed + 2)) in
      agree && shared && Vec.max_abs_diff x2 x2' = 0.0)

(* The stamping oracle: on random netlists of every device kind (MOS of
   both polarities driven into reverse, cutoff, triode and saturation by
   random unknowns; VCVS, switches, time-varying sources, capacitors), a
   production context's compiled loop must reproduce the reference
   traversal's matrix and residual bit for bit, under both capacitor
   policies, and so must [residual_into]. *)
let random_stamp_netlist rng =
  let n = 2 + Rng.int_below rng 6 in
  let nl = Netlist.create proc in
  let nodes =
    Array.init (n + 1) (fun i ->
        if i = 0 then Netlist.ground else Netlist.node nl (Printf.sprintf "n%d" i))
  in
  let pick () = nodes.(Rng.int_below rng (n + 1)) in
  let value lo hi = Rng.uniform_in rng lo hi in
  let wave () =
    if Rng.uniform rng < 0.7 then Stimulus.Dc (value (-2.0) 3.0)
    else
      Stimulus.Sine
        { offset = value 0.0 1.0; amplitude = value 0.1 1.0; freq = value 1e5 1e7; phase = 0.0 }
  in
  for k = 0 to 2 + Rng.int_below rng 12 do
    let name prefix = Printf.sprintf "%s%d" prefix k in
    match Rng.int_below rng 7 with
    | 0 -> Netlist.resistor nl (name "r") (pick ()) (pick ()) (value 10.0 1e5)
    | 1 -> Netlist.capacitor nl (name "c") (pick ()) (pick ()) (value 1e-14 1e-11)
    | 2 -> Netlist.vsource nl (name "v") (pick ()) (pick ()) (wave ())
    | 3 -> Netlist.isource nl (name "i") (pick ()) (pick ()) (wave ())
    | 4 ->
      Netlist.vcvs nl (name "e") ~p:(pick ()) ~n:(pick ()) ~cp:(pick ()) ~cn:(pick ())
        ~gain:(value (-10.0) 10.0)
    | 5 ->
      let t_on = value 0.0 1e-6 in
      Netlist.switch nl (name "s") (pick ()) (pick ()) ~r_on:(value 1.0 100.0)
        ~r_off:(value 1e6 1e9) ~closed_at:(fun t -> t >= t_on)
    | _ ->
      let polarity = if Rng.uniform rng < 0.5 then Process.Nmos else Process.Pmos in
      Netlist.mosfet nl (name "m") ~d:(pick ()) ~g:(pick ()) ~s:(pick ()) ~b:(pick ())
        polarity ~w:(value 1e-6 50e-6) ~l:(value 0.25e-6 2e-6) ~mult:(value 1.0 4.0) ()
  done;
  nl

let prop_compiled_stamps_match_reference =
  QCheck2.Test.make ~name:"random netlist: compiled stamps = reference, bit for bit"
    ~count:300
    QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let nl = random_stamp_netlist rng in
      let x = Array.init (Netlist.unknown_count nl) (fun _ -> Rng.uniform_in rng (-3.3) 3.3) in
      let time = Rng.uniform_in rng 0.0 1e-6 and source_scale = Rng.uniform_in rng 0.1 1.0 in
      let gmin = [| 0.0; 1e-12; 1e-3 |].(Rng.int_below rng 3) in
      let farads =
        List.filter_map
          (function Netlist.Capacitor { farads; _ } -> Some farads | _ -> None)
          (Netlist.devices nl)
      in
      let companion =
        Mna.Cap_companion
          {
            geq = Array.of_list (List.map (fun f -> f *. 1e9) farads);
            ieq = Array.init (List.length farads) (fun k -> float_of_int k *. 1e-6);
          }
      in
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      let same_vec a b = Array.for_all2 same a b in
      (* the second context of a topology comes from the cache *)
      ignore (Mna.context nl);
      let ctx = Mna.context nl in
      List.for_all
        (fun cap_policy ->
          let jac_ref, res_ref = Mna.Oracle.assemble nl ~x ~time ~source_scale ~gmin ~cap_policy in
          Mna.assemble_into ctx ~x ~time ~source_scale ~gmin ~cap_policy;
          let jac = Mna.Oracle.jacobian ctx in
          let res = Array.make (Array.length x) nan in
          Mna.residual_into ctx ~x ~time ~source_scale ~gmin ~cap_policy res;
          let n = Array.length x in
          let jac_same = ref true in
          for r = 0 to n - 1 do
            for c = 0 to n - 1 do
              if not (same (Adc_numerics.Mat.get jac_ref r c) (Adc_numerics.Mat.get jac r c)) then
                jac_same := false
            done
          done;
          !jac_same && same_vec res_ref (Mna.ctx_residual ctx) && same_vec res_ref res)
        [ Mna.Cap_open; companion ])

(* The allocation contract of the production path, on a netlist with
   every device kind a DC solve stamps under [Cap_open]. *)
let allocation_netlist () =
  let nl = Netlist.create proc in
  let vdd = Netlist.node nl "vdd" and inp = Netlist.node nl "in" in
  let out = Netlist.node nl "out" and pb = Netlist.node nl "pb" in
  let gnd = Netlist.ground in
  Netlist.vsource nl "vdd" vdd gnd (Stimulus.Dc 3.3);
  Netlist.vsource nl "vin" inp gnd (Stimulus.Dc 1.2);
  Netlist.vcvs nl "ebias" ~p:pb ~n:gnd ~cp:vdd ~cn:gnd ~gain:0.7;
  Netlist.mosfet nl "mn" ~d:out ~g:inp ~s:gnd ~b:gnd Process.Nmos ~w:10e-6 ~l:1e-6 ();
  Netlist.mosfet nl "mp" ~d:out ~g:pb ~s:vdd ~b:vdd Process.Pmos ~w:20e-6 ~l:1e-6 ();
  Netlist.isource nl "ib" vdd out (Stimulus.Dc 1e-6);
  Netlist.resistor nl "rl" out gnd 1e6;
  Netlist.capacitor nl "cl" out gnd 1e-12;
  nl

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_compiled_stamps_allocation_free () =
  let nl = allocation_netlist () in
  let ctx = Mna.context nl in
  let n = Netlist.unknown_count nl in
  let x = Array.init n (fun i -> 0.4 *. float_of_int (i + 1)) in
  let res = Array.make n 0.0 in
  let assemble () =
    Mna.assemble_into ctx ~x ~time:0.0 ~source_scale:1.0 ~gmin:1e-12 ~cap_policy:Mna.Cap_open
  in
  let residual () =
    Mna.residual_into ctx ~x ~time:0.0 ~source_scale:1.0 ~gmin:1e-12 ~cap_policy:Mna.Cap_open
      res
  in
  assemble ();
  residual ();
  Alcotest.(check (float 0.0)) "assemble_into" 0.0 (minor_words assemble);
  Alcotest.(check (float 0.0)) "residual_into" 0.0 (minor_words residual)

(* A step limit far below the distance to the solution keeps Newton from
   converging, so both runs stop at [max_iter]. *)
let test_newton_allocation_independent_of_iterations () =
  let nl = allocation_netlist () in
  let ctx = Mna.context nl in
  let x0 = Array.make (Netlist.unknown_count nl) 0.0 in
  let run max_iter () =
    match
      Dc.newton ~max_iter ~vstep_limit:1e-3 ~ctx ~x0 ~time:0.0 ~source_scale:1.0 ~gmin:1e-12
        ~cap_policy:Mna.Cap_open nl
    with
    | Ok _ -> Alcotest.failf "converged within %d iterations" max_iter
    | Error _ -> ()
  in
  run 1 ();
  let w5 = minor_words (run 5) and w60 = minor_words (run 60) in
  Alcotest.(check (float 0.0)) "minor words independent of max_iter" w5 w60

let test_lte_matches_fixed_rc () =
  (* linear RC charging: the adaptive controller must reproduce the
     analytic answer at the fixed test's tolerance while taking far
     fewer steps than the fixed grid *)
  let r = 1000.0 and c = 1e-9 in
  let tau = r *. c in
  let build () =
    let nl = Netlist.create proc in
    let vin = Netlist.node nl "in" and out = Netlist.node nl "out" in
    Netlist.vsource nl "vs" vin Netlist.ground (Stimulus.step ~from:0.0 ~to_:1.0 ());
    Netlist.resistor nl "r" vin out r;
    Netlist.capacitor nl "c" out Netlist.ground c;
    (nl, out)
  in
  let t_stop = 5.0 *. tau and dt = tau /. 100.0 in
  (* the waveform, the run's accepted steps and its sparse work beside
     the symbolic a new topology publishes *)
  let run control =
    let nl, out = build () in
    let sparse = Sparse.totals () and published = Mna.shared_analyses () in
    let accepted = Tally.get Transient.accepted_total in
    match Transient.run ~control nl ~t_stop ~dt with
    | Error e -> Alcotest.failf "transient failed: %s" e
    | Ok w ->
      ( Transient.node_waveform nl w out,
        Tally.get Transient.accepted_total - accepted,
        Fixtures.sparse_since sparse,
        Mna.shared_analyses () - published )
  in
  let fixed_wf, fixed_steps, _, _ = run Transient.Fixed in
  let ada_wf, ada_steps, s, published = run (Transient.Lte Transient.default_lte) in
  let ada = Adc_numerics.Interp.of_samples ada_wf in
  check_close ~eps:2e-3 "adaptive 1 tau" (1.0 -. exp (-1.0)) (Adc_numerics.Interp.eval ada tau);
  check_close ~eps:2e-3 "adaptive 3 tau" (1.0 -. exp (-3.0))
    (Adc_numerics.Interp.eval ada (3.0 *. tau));
  Array.iteri
    (fun i (t, v_fixed) ->
      let _, v_ada = ada_wf.(i) in
      if Float.abs (v_fixed -. v_ada) > 2e-3 then
        Alcotest.failf "t=%g: fixed %g vs adaptive %g" t v_fixed v_ada)
    fixed_wf;
  Alcotest.(check bool) "adaptive takes fewer steps" true (ada_steps < fixed_steps / 4);
  Alcotest.(check bool) "refactorizations dominate analyses" true
    (s.Sparse.total_refactorizations > 0 && s.Sparse.total_analyses - published = 0)

(* The oracle hook is scoped: contexts built inside it are dense (a
   solve on one refactorizes nothing), and the production solver is
   back once the thunk returns or raises. *)
let test_oracle_hook_is_scoped () =
  let nl = List.assoc "divider" (equivalence_netlists ()) () in
  let refactorizations () =
    let before = Sparse.totals () in
    let ctx = Mna.context nl in
    ignore (Dc.solve ~ctx nl);
    (Fixtures.sparse_since before).Sparse.total_refactorizations
  in
  Alcotest.(check int) "dense inside" 0 (Mna.Oracle.with_dense refactorizations);
  Alcotest.(check int) "dense when nested" 0
    (Mna.Oracle.with_dense (fun () ->
         ignore (Mna.Oracle.with_dense refactorizations);
         refactorizations ()));
  Alcotest.check_raises "the thunk's exception escapes" Exit (fun () ->
      Mna.Oracle.with_dense (fun () -> raise Exit));
  Alcotest.(check bool) "sparse after a raise" true (refactorizations () > 0)

(* NaN passes a [<= 0.0] guard and infinities collapse the output grid
   to one point, whose t = 0 state would then read as settled. *)
let test_transient_rejects_non_finite_times () =
  let nl = List.assoc "rc lowpass" (equivalence_netlists ()) () in
  List.iter
    (fun (what, t_stop, dt) ->
      match Transient.run nl ~t_stop ~dt with
      | _ -> Alcotest.failf "%s accepted" what
      | exception Invalid_argument msg ->
        Alcotest.(check string) what "Transient.run: bad time parameters" msg)
    [
      ("dt = nan", 1e-6, nan);
      ("t_stop = nan", nan, 1e-8);
      ("t_stop = infinity", infinity, 1e-8);
      ("dt = infinity", 1e-6, infinity);
    ]

(* A [Fixed] run integrates exactly on its grid: it counts one run, one
   accepted step per grid interval and no rejected step. *)
let test_transient_fixed_tallies () =
  let builders = equivalence_netlists () in
  List.iter
    (fun (name, t_stop, dt) ->
      let nl = List.assoc name builders () in
      let tallies = Transient.[ runs; accepted_total; rejected_total ] in
      let before = List.map Tally.get tallies in
      match Transient.run ~control:Transient.Fixed nl ~t_stop ~dt with
      | Error e -> Alcotest.failf "%s: transient failed: %s" name e
      | Ok w ->
        let intervals = Array.length w.Transient.times - 1 in
        Alcotest.(check (list int)) (name ^ ": runs, accepted, rejected")
          [ 1; intervals; 0 ]
          (List.map2 (fun t b -> Tally.get t - b) tallies before))
    [ ("rc lowpass", 5e-6, 5e-8); ("switched cap", 20e-9, 20e-12) ]

(* ------------------------------------------------------------------ *)
(* Netlist bookkeeping *)

let test_netlist_interning () =
  let nl = Netlist.create proc in
  let a1 = Netlist.node nl "a" in
  let a2 = Netlist.node nl "a" in
  Alcotest.(check int) "same node" (Netlist.node_index a1) (Netlist.node_index a2);
  Alcotest.(check int) "ground is 0" 0 (Netlist.node_index Netlist.ground);
  Alcotest.(check string) "name round trip" "a" (Netlist.node_name nl a1)

let test_netlist_duplicate_device () =
  let nl = Netlist.create proc in
  let a = Netlist.node nl "a" in
  Netlist.resistor nl "r1" a Netlist.ground 10.0;
  Alcotest.(check bool) "duplicate rejected" true
    (try
       Netlist.resistor nl "r1" a Netlist.ground 10.0;
       false
     with Invalid_argument _ -> true)

let test_netlist_counts () =
  let nl = Netlist.create proc in
  let a = Netlist.node nl "a" and b = Netlist.node nl "b" in
  Netlist.vsource nl "v1" a Netlist.ground (Stimulus.Dc 1.0);
  Netlist.resistor nl "r1" a b 10.0;
  Netlist.resistor nl "r2" b Netlist.ground 10.0;
  Alcotest.(check int) "node count incl ground" 3 (Netlist.node_count nl);
  Alcotest.(check int) "one branch" 1 (Netlist.branch_count nl);
  Alcotest.(check int) "unknowns" 3 (Netlist.unknown_count nl)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "circuit"
    [
      ( "mosfet",
        [
          quick "cutoff" test_mos_cutoff;
          quick "saturation value" test_mos_saturation_value;
          quick "triode region" test_mos_triode_region;
          quick "region boundary continuity" test_mos_region_boundary_continuity;
          quick "reverse vds" test_mos_reverse_vds;
          quick "pmos sign" test_pmos_sign;
          quick "body effect" test_mos_body_effect_raises_vt;
          quick "capacitances" test_mos_caps_positive;
          QCheck_alcotest.to_alcotest prop_mos_derivatives_match_fd;
        ] );
      ( "dc",
        [
          quick "divider" test_dc_divider;
          quick "current source" test_dc_current_source;
          quick "vcvs" test_dc_vcvs;
          quick "nmos diode" test_dc_nmos_diode;
          quick "common source bias" test_dc_common_source_bias;
          quick "floating node rejected" test_dc_rejects_floating_node;
          quick "argument guards" test_dc_argument_guards;
          quick "extended netlist revalidated" test_dc_revalidates_extended_netlist;
          QCheck_alcotest.to_alcotest prop_dc_resistor_ladder_kcl;
        ] );
      ( "ac",
        [
          quick "rc lowpass" test_ac_rc_lowpass;
          quick "common source gain" test_ac_common_source_gain;
          quick "unity gain and pm" test_ac_unity_gain_and_pm;
        ] );
      ( "transient",
        [
          quick "rc step" test_transient_rc_step;
          quick "settling time" test_transient_settling_time;
          quick "switch divider" test_transient_switch_divider;
          quick "sine source" test_transient_sine_follows_source;
          quick "rejects non-finite times" test_transient_rejects_non_finite_times;
          quick "fixed run tallies its grid" test_transient_fixed_tallies;
        ] );
      ( "stimulus",
        [
          quick "dc and sine" test_stimulus_dc_and_sine;
          quick "pulse" test_stimulus_pulse;
          quick "pwl" test_stimulus_pwl;
        ] );
      ( "switched-cap",
        [
          quick "charge redistribution" test_switched_cap_charge_redistribution;
          quick "ac switch states" test_ac_switch_states;
        ] );
      ( "solver",
        [
          quick "dc backends agree" test_dc_backends_agree;
          quick "transient backends agree" test_transient_backends_agree;
          quick "newton residual is fresh" test_newton_residual_is_fresh;
          QCheck_alcotest.to_alcotest prop_random_netlist_backends_agree;
          QCheck_alcotest.to_alcotest prop_compiled_stamps_match_reference;
          quick "compiled stamps allocate nothing" test_compiled_stamps_allocation_free;
          quick "newton words independent of iterations"
            test_newton_allocation_independent_of_iterations;
          quick "lte matches fixed rc" test_lte_matches_fixed_rc;
          quick "oracle hook is scoped" test_oracle_hook_is_scoped;
        ] );
      ( "netlist",
        [
          quick "interning" test_netlist_interning;
          quick "duplicate device" test_netlist_duplicate_device;
          quick "counts" test_netlist_counts;
        ] );
    ]
