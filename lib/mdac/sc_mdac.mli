(** Switched-capacitor MDAC transient bench (1.5-bit flip-around stage).

    The full signal path the paper's block synthesis ultimately verifies
    by simulation: sampling phase (both capacitors track the input, the
    summing node is reset), amplification phase (the feedback capacitor
    flips around the OTA, the sampling capacitor's bottom plate switches
    to the sub-DAC reference selected by the comparator code), simulated
    through both clock phases with real switches. The measured residue is
    compared against the ideal transfer
    [v_out - vcm = 2 (v_in - vcm) - (d - 1) * vref_pp / 2]. *)

type result = {
  measured : float;     (** settled output at the end of the phase, V *)
  ideal : float;        (** ideal residue from {!Mdac_stage.residue_ideal} *)
  error_rel : float;    (** |measured - ideal| / (vref_pp/2) *)
  settled : bool;       (** output inside 0.1% of its final value in time *)
}

val bench_netlist :
  Adc_circuit.Process.t ->
  Ota.sizing ->
  v_in:float ->
  code:int ->
  vref_pp:float ->
  fs:float ->
  (Adc_circuit.Netlist.t, string) Stdlib.result
(** The bench circuit {!residue_bench} simulates — OTA core, sampling
    network, phase switches, sources biased at the servo'd operating
    point — without running it. This is the netlist the SPICE emitter
    exports ([adcopt netlist emit]); [Error] only when the bias servo's
    DC solve fails. *)

val residue_bench :
  Adc_circuit.Process.t ->
  Ota.sizing ->
  v_in:float ->          (* input voltage relative to vcm, V *)
  code:int ->            (* sub-ADC decision, 0..2 *)
  vref_pp:float ->
  fs:float ->
  (result, string) Stdlib.result
(** Simulate one conversion: sampling during the first half period,
    amplification during the second, with 0.5 pF sampling and feedback
    capacitors. *)
