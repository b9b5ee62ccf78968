(** Transient analysis.

    Implicit integration with a Newton solve at every step: backward
    Euler to start the capacitor-current history (and to restart it after
    discontinuities), trapezoidal afterwards — the standard SPICE pairing
    of an A-stable start-up with second-order accuracy.

    Step control is adaptive by default ([Lte]): the trapezoidal local
    truncation error [h^3 x'''/12] is estimated from divided differences
    over the last accepted points; steps whose weighted error ratio
    exceeds 1 are rejected and halved, smooth stretches grow the step up
    to [dt_max_factor] times the caller's [dt]. Source-waveform
    breakpoints and switch flips (located by bisection on the switch
    state) always receive an exact time point, with the integrator
    restarted just after. Results are reported by dense-output
    interpolation on the caller-visible fixed grid [0, dt, 2 dt, ...], so
    {!node_waveform}/{!settling_time} are control-independent. [Fixed]
    reproduces the historical one-Newton-per-grid-point behavior.

    Device capacitances of MOSFETs are not included automatically; the
    switched-capacitor test benches model them with explicit capacitors,
    which keeps the transient behaviour interpretable (see DESIGN.md). *)

type waveforms = {
  times : float array;  (** the caller-visible grid [i * dt] *)
  data : float array array;  (** [data.(step).(unknown)] *)
}

type lte = {
  reltol : float;  (** relative error weight per unknown *)
  abstol : float;  (** absolute error floor, V (or A for branches) *)
  max_growth : float;  (** cap on step growth per accepted step *)
  dt_max_factor : float;  (** max internal step as a multiple of [dt] *)
  dt_min_factor : float;  (** min internal step as a multiple of [dt] *)
}
(** Tuning for the adaptive controller. *)

type control =
  | Fixed  (** integrate exactly on the [dt] grid (historical behavior) *)
  | Lte of lte  (** adaptive stepping under local-truncation-error control *)

val default_lte : lte
(** [reltol 1e-5], [abstol 1e-9], growth cap 2.5, internal steps between
    [1e-6 * dt] and [16 * dt]. *)

val run :
  ?x0:float array ->
  ?max_newton:int ->
  ?control:control ->
  Netlist.t ->
  t_stop:float ->
  dt:float ->
  (waveforms, string) result
(** Simulate from t = 0 to [t_stop] (rounded up to a whole number of
    [dt] grid intervals). When [x0] is omitted the initial state is the
    DC operating point at t = 0 (switches in their t = 0 state).
    [control] defaults to [Lte default_lte]. Raises [Invalid_argument]
    unless [dt] and [t_stop] are finite and positive. *)

(** Process-wide {!Adc_numerics.Tally}s, added once per run on any
    domain that got past its initial DC point, aborted or not: the runs,
    the Newton iterations of their step solves, and their accepted and
    rejected steps (LTE rejections and Newton failures retried). A
    [Fixed] run that succeeds accepts one step per grid interval and
    rejects none. One run's counts are the deltas around it. *)

val runs : Adc_numerics.Tally.t
val newton_total : Adc_numerics.Tally.t
val accepted_total : Adc_numerics.Tally.t
val rejected_total : Adc_numerics.Tally.t

val node_waveform : Netlist.t -> waveforms -> Netlist.node -> (float * float) array
(** Time series of one node voltage on the fixed grid. *)

val final_voltage : Netlist.t -> waveforms -> Netlist.node -> float
(** The node voltage at the last grid point. *)

val settling_time :
  Netlist.t -> waveforms -> Netlist.node -> target:float -> tol:float -> float option
(** Last instant at which the node leaves the [target +- tol] band; [None]
    if it never enters or never leaves it (never settles -> [None] when
    the final value is still outside the band). *)
