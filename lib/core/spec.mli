(** ADC system specification and translation to MDAC jobs.

    One [t] value describes the converter to optimize (the paper's case:
    10-13 bits, 40 MSPS, 0.25 um 3.3 V). Every experiment reads its
    modeling constants from the single [calibration] record so that all
    figures are generated under identical assumptions. *)

type calibration = {
  noise_fraction : float;   (** thermal/quantization noise power ratio *)
  t_margin : float;         (** usable fraction of the half period *)
  slew_fraction : float;    (** slewing share of the settling window *)
  sr_step_fraction : float; (** worst slewed step / full scale *)
  p_stage_fixed : float;    (** per-stage clocking/switch/bias overhead, W *)
  wiring_cap : float;       (** fixed interstage wiring capacitance, F *)
  c_in_ratio : float;       (** OTA input cap as a fraction of the array *)
  backend_bits : float;     (** kept as float for clarity; always 7.0 *)
  comparator : Adc_mdac.Comparator.model;
  power_model : Adc_mdac.Mdac_stage.power_model;
}

val default_calibration : calibration

type t = {
  k : int;            (** target resolution, bits *)
  fs : float;         (** sampling rate, Hz *)
  vref_pp : float;    (** full-scale range, V *)
  process : Adc_circuit.Process.t;
  calibration : calibration;
}

val make :
  ?calibration:calibration ->
  ?vref_pp:float ->
  ?process:Adc_circuit.Process.t ->
  k:int ->
  fs:float ->
  unit ->
  t
(** 0.25 um process ({!Adc_circuit.Process.c025}), 2 Vpp (differential)
    full scale by default. [process] is the pluggable card: every
    derived requirement, sizing and {!stage_fingerprint} (hence
    [Job_key]) observes it, so runs under different cards never share
    cached synthesis outcomes. Raises [Invalid_argument] when [k] is
    outside 8-16 or [fs] is not positive and finite. *)

val paper_case : k:int -> t
(** The paper's operating point: [k]-bit, 40 MSPS. *)

type job = { m : int; input_bits : int }
(** Identity of a distinct MDAC synthesis task: stage resolution and the
    resolution remaining at its input. Two stages with equal jobs share
    one synthesis (the paper's "11 MDACs for 7 configurations" effect;
    our sharing rule yields 12 — see DESIGN.md). *)

val make_job : m:int -> input_bits:int -> job
(** A job named from outside (a request's [m] and [bits]). Raises
    [Invalid_argument] when [m < 2] or [input_bits < 1], the inputs the
    capacitor sizing behind {!stage_requirements} cannot translate. *)

val compare_job : job -> job -> int
val job_to_string : job -> string

val jobs_of_config : t -> Config.t -> job list
(** Per-stage jobs of one candidate (leading stages only). *)

val distinct_jobs : t -> Config.t list -> job list
(** De-duplicated jobs over a candidate set, sorted hardest-first
    (descending input bits, then descending m). *)

val stage_spec : t -> job -> Adc_mdac.Mdac_stage.spec
(** The block-level spec translation for one job. *)

val load_cap_of_bits : t -> int -> float
(** Input capacitance a block presents when it must preserve the given
    resolution (next-stage sampling array + wiring). *)

val stage_requirements : t -> job -> Adc_mdac.Mdac_stage.requirements
(** Full translation: spec plus the output-load model (the following
    stage samples at [input_bits - (m-1)] resolution). *)

val stage_fingerprint : t -> job -> string
(** Canonical text rendering of {e everything a synthesis of [job] can
    observe} under this spec: the derived {!stage_requirements} (block
    spec, capacitor sizing, loop and load constraints — every float at
    full [%.17g] precision) plus a digest of the process corner. Two
    [(spec, job)] pairs with equal fingerprints hand the synthesizer
    bit-identical inputs, so their outcomes are interchangeable even
    when the enclosing runs differ (different [k], different candidate
    sets). This is the physics half of [Optimize]'s [Job_key]. *)

val stage_fixed_power : t -> float
(** Per-stage fixed overhead (clock drivers, switches, local bias). *)

val comparator_power : t -> m:int -> float
(** Sub-ADC power of an m-bit stage under this spec's calibration. *)

val backend_bits : t -> int
