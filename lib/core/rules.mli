(** Derivation of the Fig. 3 decision chart.

    The paper condenses its sweep into designer rules ("4-bit first stage
    above 11 bits, 2-bit last stage always, ..."). This module re-derives
    the same kind of chart from our own sweep results so the chart is a
    product of the data, not a transcription. *)

type optimum_row = {
  k : int;
  config : Config.t;        (** optimal leading stages *)
  p_total : float;
  runner_up : Config.t option;
  margin : float;           (** (runner-up - best)/best, relative *)
}

type chart = {
  rows : optimum_row list;
  first_stage_rule : (int * int) list;  (** (k, optimal m1) *)
  last_stage_always_two : bool;
  monotone_non_increasing : bool;
      (** all optima satisfy the pairwise [m_i >= m_(i+1)] property
          ({!Config.is_non_increasing}) — the Fig. 3 claim itself,
          independent of the m-bounds; [false] on an empty chart *)
  all_valid : bool;
      (** all optima additionally pass {!Config.is_valid} (m-bounds
          included) — a separate sanity assertion, deliberately not
          conflated with [monotone_non_increasing]; [false] on an empty
          chart *)
  summary : string list;                (** rendered rule lines *)
}

val derive : optimum_row list -> chart
(** Condense optimum rows into the decision chart. Total on every
    input: [derive []] (a sweep cancelled before any resolution
    completed) returns an empty chart whose rule booleans are [false]
    and whose summary carries an explicit empty-chart note; rows with
    empty configurations contribute no first/last-stage observations
    rather than raising. *)

val of_runs : Optimize.run list -> chart
(** The chart of the given runs, one row per run in list order. Runs a
    deadline truncated ({!Optimize.run.truncated}) hold best-so-far
    guesses rather than optima, so they are left out. *)

val sweep :
  ?mode:Optimize.mode -> ?seed:int -> ?attempts:int ->
  ?budget:Adc_synth.Synthesizer.budget ->
  ?jobs:int -> ?obs:Adc_obs.t -> ?cancel:Adc_exec.Cancel.t ->
  ?shared:Optimize.shared ->
  k_values:int list -> (k:int -> Spec.t) -> chart
(** [of_runs] over one {!Optimize.run_batch} of the resolutions' specs
    (default mode [`Equation]; the other parameters keep
    {!Optimize.run_batch}'s defaults and meaning). Each row is therefore
    the optimum a solo {!Optimize.run} at the same parameters finds,
    and MDAC jobs shared between resolutions are synthesized once.
    After [cancel] trips, the chart holds the resolutions that completed
    untruncated — callers should check the token and flag the chart as
    partial (the CLI's [--timeout] prints the note and exits 2).
    [shared] runs the batch on a long-lived {!Optimize.shared} runtime
    (the serve daemon's), so a repeated sweep replays from the cache.
    An empty [k_values] gives [derive []]. *)

val render : chart -> string
(** Multi-line text block (the repo's Fig. 3). *)
