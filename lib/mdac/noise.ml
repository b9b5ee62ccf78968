module Netlist = Adc_circuit.Netlist
module Smallsig = Adc_circuit.Smallsig
module Process = Adc_circuit.Process
module Dpi = Adc_sfg.Dpi
module Ratfun = Adc_sfg.Ratfun

type contribution = {
  source : string;
  psd_a2 : float;
  v_out_rms : float;
}

type report = {
  v_out_rms : float;
  v_in_rms : float;
  midband_gain : float;
  contributions : contribution list;
  f_lo : float;
  f_hi : float;
}

(* integrate |H(j 2 pi f)|^2 * psd over a log-spaced grid (trapezoid) *)
let integrate_psd tf ~psd ~freqs =
  let value f =
    let h = Complex.norm (Ratfun.eval_jw tf f) in
    psd *. h *. h
  in
  let acc = ref 0.0 in
  for i = 1 to Array.length freqs - 1 do
    let f0 = freqs.(i - 1) and f1 = freqs.(i) in
    acc := !acc +. (0.5 *. (value f0 +. value f1) *. (f1 -. f0))
  done;
  sqrt !acc

exception Non_finite of string

let analyze ?(gamma = 2.0 /. 3.0) ?(f_lo = 1e3) ?(f_hi = 1e11)
    ?(points_per_decade = 10) nl (ss : Smallsig.t) ~out =
  (* a transfer function with a non-finite coefficient integrates to NaN
     without complaint; refuse it, naming the source it belongs to *)
  let finite source tf = if Ratfun.is_finite tf then tf else raise (Non_finite source) in
  let analysis () =
    let dpi = Dpi.build nl ss in
    let freqs = Adc_circuit.Ac.logspace ~f_start:f_lo ~f_stop:f_hi ~points_per_decade in
    let kt = Process.kt (Netlist.process nl) in
    let mos_tbl = Hashtbl.create 8 in
    List.iter (fun (m : Smallsig.mos_op) -> Hashtbl.replace mos_tbl m.Smallsig.name m) ss.Smallsig.mos;
    let contribution source ~psd ~src_pos ~src_neg =
      let tf = finite source (Dpi.numeric_tf_current dpi ~src_pos ~src_neg ~out) in
      { source; psd_a2 = psd; v_out_rms = integrate_psd tf ~psd ~freqs }
    in
    let contributions =
      List.filter_map
        (fun d ->
          match d with
          | Netlist.Mos { m_name; d = dd; s; _ } -> begin
            match Hashtbl.find_opt mos_tbl m_name with
            | None -> None
            | Some op ->
              let psd = 4.0 *. kt *. gamma *. Float.abs op.Smallsig.gm in
              if psd <= 0.0 then None
              else Some (contribution m_name ~psd ~src_pos:dd ~src_neg:s)
          end
          | Netlist.Resistor { r_name; np; nn; ohms } ->
            Some (contribution r_name ~psd:(4.0 *. kt /. ohms) ~src_pos:np ~src_neg:nn)
          | Netlist.Capacitor _ | Netlist.Vsource _ | Netlist.Isource _
          | Netlist.Vcvs _ | Netlist.Switch _ -> None)
        (Netlist.devices nl)
    in
    let v_out_rms =
      sqrt
        (List.fold_left
           (fun a (c : contribution) -> a +. (c.v_out_rms *. c.v_out_rms))
           0.0 contributions)
    in
    let signal_tf = finite "the signal input" (Dpi.numeric_tf dpi out) in
    let midband_gain = Float.abs (Ratfun.dc_gain signal_tf) in
    let v_in_rms = if midband_gain > 0.0 then v_out_rms /. midband_gain else infinity in
    {
      v_out_rms;
      v_in_rms;
      midband_gain;
      contributions =
        List.sort
          (fun (a : contribution) (b : contribution) -> compare b.v_out_rms a.v_out_rms)
          contributions;
      f_lo;
      f_hi;
    }
  in
  match analysis () with
  | exception Dpi.Unsupported msg -> Error ("noise analysis: " ^ msg)
  | exception Non_finite source ->
    Error ("noise analysis: non-finite transfer function from " ^ source)
  | report -> Ok report
