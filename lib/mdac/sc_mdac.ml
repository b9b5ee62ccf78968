module Process = Adc_circuit.Process
module Netlist = Adc_circuit.Netlist
module Stimulus = Adc_circuit.Stimulus
module Dc = Adc_circuit.Dc
module Transient = Adc_circuit.Transient

type result = {
  measured : float;
  ideal : float;
  error_rel : float;
  settled : bool;
}

(* Cs = Cf, F *)
let c_unit = 0.5e-12

(* Flip-around 1.5-bit stage. Charge conservation at the summing node:
   (Cs + Cf)(v_in - vg) sampled, then Cs to the DAC level and Cf to the
   output give v_out = 2 v_in - v_dac for Cs = Cf, independent of the
   virtual-ground level vg. *)
let build_bench (proc : Process.t) sizing ~v_in ~code ~vref_pp ~fs =
  if code < 0 || code > 2 then invalid_arg "Sc_mdac.residue_bench: code out of range";
  if fs <= 0.0 then invalid_arg "Sc_mdac.residue_bench: fs <= 0";
  let vcm = Ota.default_vcm proc in
  let half = vref_pp /. 2.0 in
  let v_in_abs = vcm +. v_in in
  let v_dac_abs = vcm +. (float_of_int (code - 1) *. half) in
  (* virtual-ground level: where the servo'd amplifier holds its input *)
  match Ota.biased_operating_point proc sizing with
  | Error e -> Error e
  | Ok (ports0, op0) ->
    let v_star = Dc.node_voltage op0 ports0.Ota.inv in
    let t_half = 0.5 /. fs in
    let phase1 t = t < t_half in
    let phase2 t = t >= t_half in
    let nl = Netlist.create proc in
    let p = Ota.add_core proc sizing nl in
    let gnd = Netlist.ground in
    let node = Netlist.node nl in
    let vin_n = node "vin_n" and vdac_n = node "vdac_n" in
    let bot = node "bot" and fb = node "fb" and vgr = node "vgr" in
    let rst = node "rst" in
    Netlist.vsource nl "vip" p.Ota.noninv gnd (Stimulus.Dc vcm);
    Netlist.vsource nl "vin_src" vin_n gnd (Stimulus.Dc v_in_abs);
    Netlist.vsource nl "vdac_src" vdac_n gnd (Stimulus.Dc v_dac_abs);
    Netlist.vsource nl "vg_src" vgr gnd (Stimulus.Dc v_star);
    Netlist.vsource nl "vrst_src" rst gnd (Stimulus.Dc (0.5 *. proc.Process.vdd));
    let sw name a b phase = Netlist.switch nl name a b ~r_on:150.0 ~r_off:1e13 ~closed_at:phase in
    (* sampling network *)
    sw "sw_in_s" vin_n bot phase1;
    sw "sw_dac" vdac_n bot phase2;
    Netlist.capacitor nl "cs" bot p.Ota.inv c_unit;
    sw "sw_in_f" vin_n fb phase1;
    sw "sw_fb" fb p.Ota.out phase2;
    Netlist.capacitor nl "cf" fb p.Ota.inv c_unit;
    (* reset: pin the summing node and the output during sampling *)
    sw "sw_rst" p.Ota.inv vgr phase1;
    sw "sw_orst" p.Ota.out rst phase1;
    Netlist.capacitor nl "cl" p.Ota.out gnd 0.5e-12;
    Ok (nl, p, t_half, vcm, half)

let bench_netlist proc sizing ~v_in ~code ~vref_pp ~fs =
  Result.map
    (fun (nl, _, _, _, _) -> nl)
    (build_bench proc sizing ~v_in ~code ~vref_pp ~fs)

let residue_bench (proc : Process.t) sizing ~v_in ~code ~vref_pp ~fs =
  match build_bench proc sizing ~v_in ~code ~vref_pp ~fs with
  | Error e -> Error e
  | Ok (nl, p, t_half, vcm, half) ->
    let v_in_abs = vcm +. v_in in
    (match Dc.solve nl with
    | Error e -> Error ("SC bench DC failed: " ^ e)
    | Ok op -> begin
      let t_stop = 2.0 *. t_half in
      let dt = t_stop /. 1600.0 in
      match Transient.run ~x0:op.Dc.x nl ~t_stop ~dt with
      | Error e -> Error ("SC bench transient failed: " ^ e)
      | Ok w ->
        let wf = Transient.node_waveform nl w p.Ota.out in
        let n = Array.length wf in
        let measured = snd wf.(n - 1) in
        (* compare the last two 5% windows of the amplification phase *)
        let at frac =
          let t = t_half +. (frac *. t_half) in
          let rec find i =
            if i >= n then snd wf.(n - 1)
            else if fst wf.(i) >= t then snd wf.(i)
            else find (i + 1)
          in
          find 0
        in
        let settled = Float.abs (at 0.9 -. measured) < 0.001 *. half in
        let ideal =
          Mdac_stage.residue_ideal ~m:2 ~vref_pp ~vcm ~code v_in_abs
        in
        Ok
          {
            measured;
            ideal;
            error_rel = Float.abs (measured -. ideal) /. half;
            settled;
          }
    end)
