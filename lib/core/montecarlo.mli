(** Monte-Carlo yield of a converter configuration.

    Random comparator offsets (the quantity the 1-bit redundancy must
    absorb) and capacitor-mismatch-induced interstage-gain errors are
    drawn per trial; a trial passes when the behavioral converter keeps
    its ENOB within a margin of the target resolution. Sweeping the
    offset sigma maps the redundancy budget edge experimentally. *)

type trial_config = {
  offset_sigma : float;      (** comparator offset sigma, V *)
  gain_sigma : float;        (** relative interstage-gain-error sigma *)
  enob_margin : float;       (** pass threshold: ENOB >= k - margin *)
  n_fft : int;
}

val default_trials : Spec.t -> Config.t -> trial_config
(** Offsets at a quarter of the redundancy budget of the configuration's
    {e front} stage (whose comparators face the tightest thresholds),
    gain errors from the process capacitor matching, 0.5-bit ENOB
    margin. Raises [Invalid_argument] on an empty configuration. *)

type report = {
  n_trials : int;
  n_pass : int;
  yield : float;
  enob_mean : float;
  enob_min : float;
  enob_p05 : float;          (** 5th-percentile ENOB *)
}

val run :
  ?trials:int ->
  ?config:trial_config ->
  ?obs:Adc_obs.t ->
  seed:int ->
  Spec.t ->
  Config.t ->
  report
(** Trial [i] draws from a private stream seeded by [Rng.mix seed i], so
    a report is a pure function of [(trials, config, seed, spec,
    stage_config)] — bit-identical across repeated runs, evaluation
    orders and compiler versions. With a live [obs] trace sink each call
    emits one [montecarlo.run] span carrying the trial count and the
    yield summary, plus one [montecarlo.trial] child span per trial
    (attrs [trial], [enob]) — the per-trial decomposition consumed by
    [adcopt trace summary] and the [--progress] reporter. *)

val offset_sweep :
  ?trials:int ->
  ?obs:Adc_obs.t ->
  seed:int ->
  Spec.t ->
  Config.t ->
  sigmas:float list ->
  (float * report) list
(** Yield as a function of comparator-offset sigma: the redundancy
    budget shows up as the knee of this curve. *)

type offset_plan = {
  stage_config : Config.t;
  budget : float;          (** the front stage's comparator-offset budget, V *)
  sigmas : float list;     (** 1/8, 1/4, 1/2, 1 and 1.5 times [budget] *)
}

val offset_plan : Spec.t -> string option -> (offset_plan, string) result
(** The [montecarlo] verb's sweep, shared by [adcopt montecarlo] and the
    daemon: the configuration parsed from the given text, or the
    equation-mode optimum ({!Optimize.run}) when there is none, and the
    offset-sigma ladder around its front stage's redundancy budget.
    [Error] carries the parser's message for a text that is not a
    configuration. *)
