(** Frequency- and time-domain characterization of a numeric transfer
    function: the circuit characteristics the paper's flow reads off the
    DPI/SFG result (poles/zeros, gain, phase margin) plus linear settling
    used for design-space reduction. *)

type spec = {
  dc_gain : float;          (** |H(0)| (signed value in [dc_gain_signed]) *)
  dc_gain_signed : float;
  poles : Complex.t array;  (** sorted by ascending magnitude *)
  zeros : Complex.t array;
  unity_gain_hz : float option;
  phase_margin_deg : float option;
  bandwidth_3db_hz : float option;
  gbw_hz : float option;    (** |H(0)| * f_3db, the single-pole estimate *)
}

val characterize : Ratfun.t -> spec
(** Full report; performs numeric pole/zero extraction (with pole/zero
    cancellation, one root pass per polynomial through
    {!Ratfun.factor}) and frequency-domain searches. Raises
    [Invalid_argument] when [h] has a non-finite coefficient. *)

val magnitude_at : Ratfun.t -> float -> float
(** |H| at a frequency in Hz. *)

val phase_deg_at : Ratfun.t -> float -> float

val is_stable : spec -> bool
(** All poles strictly in the left half plane. *)

val step_response : Ratfun.t -> t:float -> float
(** Unit-step time response by partial fractions over (numerically)
    distinct poles: [y(t) = H(0) + sum_k res_k e^(p_k t)]. *)

val linear_settling_time : Ratfun.t -> tol:float -> float option
(** First time after which the unit-step response stays within
    [tol * |final|] of its final value; [None] if the system is unstable
    or does not settle within the search horizon. *)
