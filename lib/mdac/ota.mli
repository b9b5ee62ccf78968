(** Parameterized operational transconductance amplifier.

    The cell the block-level synthesis sizes: a classic two-stage Miller
    OTA (NMOS differential pair, PMOS mirror load, PMOS common-source
    second stage, Miller compensation with nulling resistor, ideal-current
    bias through a mirror). The generator emits a {!Adc_circuit.Netlist}
    from a sizing vector; evaluation runs the paper's hybrid flow: DC
    simulation for small-signal extraction, DPI/SFG + Mason for the
    transfer function, and closed-form expressions for slew and swing. *)

type topology =
  | Miller_simple   (** NMOS pair + simple PMOS mirror first stage (~65-75 dB) *)
  | Miller_cascode  (** telescopic-cascode first stage for 90+ dB gains *)

type sizing = {
  topology : topology;
  w_pair : float;    (** input-pair width, m *)
  l_pair : float;
  w_mirror : float;  (** first-stage PMOS mirror width *)
  l_mirror : float;
  w_tail : float;    (** tail current source width *)
  l_tail : float;
  w_cs : float;      (** second-stage PMOS common-source width *)
  l_cs : float;
  w_sink : float;    (** second-stage NMOS sink width *)
  l_sink : float;
  i_bias : float;    (** reference bias current, A *)
  c_comp : float;    (** Miller compensation capacitor, F *)
  r_zero : float;    (** nulling resistor in series with [c_comp], ohm *)
  v_casc : float;    (** NMOS cascode gate bias, V (cascode topology only) *)
  v_cascp : float;   (** PMOS cascode gate bias, V (cascode topology only) *)
}

val default_sizing : sizing
(** A conservative hand-designed starting point (used as the optimizer
    seed and in tests). *)

type ports = {
  nl : Adc_circuit.Netlist.t;
  vdd : Adc_circuit.Netlist.node;
  inv : Adc_circuit.Netlist.node;     (** inverting input *)
  noninv : Adc_circuit.Netlist.node;  (** non-inverting input *)
  out : Adc_circuit.Netlist.node;
  supply_name : string;               (** name of the vdd source (power) *)
}

val add_core :
  Adc_circuit.Process.t -> sizing -> Adc_circuit.Netlist.t -> ports
(** Instantiate the bare amplifier into an existing netlist (supply, bias
    and compensation included; inputs and load left to the caller) — the
    building block of the switched-capacitor benches. *)

val default_vcm : Adc_circuit.Process.t -> float
(** The input common-mode level the benches bias the amplifier at. *)

val build :
  ?load_cap:float ->
  ?vcm:float ->
  ?drive_noninv:bool ->
  ?inv_dc:float ->
  Adc_circuit.Process.t ->
  sizing ->
  ports
(** Open-loop test bench: both inputs at [vcm] (default mid-supply bias),
    [load_cap] at the output (default 1 pF), AC drive on the
    non-inverting input (or the inverting one when [drive_noninv] is
    false). [inv_dc] overrides the inverting-input DC level (used by the
    internal offset-nulling servo). *)

val biased_operating_point :
  ?load_cap:float -> Adc_circuit.Process.t -> sizing ->
  (ports * Adc_circuit.Dc.result, string) result
(** The open-loop bench solved at the offset-nulled bias point (the
    servo the evaluator uses internally); for external analyses such as
    device noise that need a valid high-gain operating point. *)

(** Process-wide {!Adc_numerics.Tally}s, added once per bias-servo run
    on any domain (behind {!biased_operating_point}, {!evaluate},
    {!symbolic_transfer} and {!settling_bench}): the runs, the DC probes
    of the servo's sweep bench (the locator solve and the returned point
    excluded), and the runs that dropped the closed-loop guide and
    bisected from the window's edges. *)

val servo_calls : Adc_numerics.Tally.t
val servo_probes : Adc_numerics.Tally.t
val servo_fallbacks : Adc_numerics.Tally.t

type performance = {
  power : float;            (** static supply power, W *)
  i_supply : float;
  dc_gain : float;
  gbw_hz : float option;    (** unity-gain frequency of the open loop *)
  phase_margin_deg : float option;
  pole1_hz : float option;
  swing_low : float;        (** lowest output level keeping all devices saturated *)
  swing_high : float;
  slew_rate : float;        (** V/s, worst-case edge into [c_comp]+load *)
  all_saturated : bool;
  input_cap : float;        (** cgs of one input device, F *)
  tf : Adc_sfg.Ratfun.t;    (** numeric open-loop transfer function *)
}

val evaluate :
  ?load_cap:float ->
  Adc_circuit.Process.t ->
  sizing ->
  (performance, string) result
(** The hybrid evaluation (DC sim -> small-signal -> DPI/SFG -> metrics).
    [Error] only for hard failures (DC non-convergence, a circuit the
    DPI analysis cannot take, a non-finite transfer function); infeasible but
    simulable points return their true metrics for the optimizer to
    grade. *)

val symbolic_transfer :
  ?load_cap:float -> Adc_circuit.Process.t -> sizing ->
  (Adc_sfg.Expr.t, string) result
(** The designer-facing symbolic open-loop transfer function produced by
    the DPI/SFG + Mason step. *)

type settling_result = {
  settle_time : float option;  (** to the requested tolerance, s *)
  final_value : float;
  ideal_value : float;
  static_error : float;        (** |final - ideal| / step magnitude *)
}

val settling_bench :
  Adc_circuit.Process.t ->
  sizing ->
  gain:float ->
  c_feedback:float ->
  c_load:float ->
  v_step:float ->
  t_window:float ->
  tol:float ->
  (settling_result, string) result
(** Large-swing simulation-based check: the OTA in a capacitive
    inverting-amplifier configuration, stepped by [v_step] at the
    sampling network, transient-simulated over [t_window]. This is the
    "trustworthy large-dynamic-swing evaluation" leg of the paper's
    hybrid flow. *)
