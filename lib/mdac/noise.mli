(** Device-level noise analysis of an amplifier netlist.

    Each MOSFET contributes thermal drain-current noise
    [4 k T gamma gm] (gamma = 2/3 in saturation) and each resistor
    [4 k T / R]; every source is an independent current injection whose
    transfer impedance to the output comes from the DPI nodal analysis.
    The integrated output noise, referred to the input through the
    signal transfer function, closes the loop on the kT/C budgeting the
    system-level model performs analytically. *)

type contribution = {
  source : string;        (** device name *)
  psd_a2 : float;         (** injected current PSD at the source, A^2/Hz *)
  v_out_rms : float;      (** integrated contribution at the output, V *)
}

type report = {
  v_out_rms : float;          (** total integrated output noise, V *)
  v_in_rms : float;           (** input-referred via the midband signal gain *)
  midband_gain : float;
  contributions : contribution list;  (** sorted, largest first *)
  f_lo : float;
  f_hi : float;
}

val analyze :
  ?gamma:float ->
  ?f_lo:float ->
  ?f_hi:float ->
  ?points_per_decade:int ->
  Adc_circuit.Netlist.t ->
  Adc_circuit.Smallsig.t ->
  out:Adc_circuit.Netlist.node ->
  (report, string) result
(** Integrate every device's noise over [f_lo, f_hi] (defaults 1 kHz to
    100 GHz, 10 points/decade, log-trapezoid). The netlist must contain
    exactly one AC source (the signal reference for input referral).
    [Error] when the DPI analysis cannot take the circuit or the output
    node, or when a transfer function has a non-finite coefficient. *)
