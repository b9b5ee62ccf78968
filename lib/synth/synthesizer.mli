(** Cell-level OTA synthesis: the NeoCircuit-substitute flow.

    Implements the paper's block-level synthesis loop for one MDAC's
    amplifier:

    + an equation-based first-cut sizing derived from the block
      requirements seeds the search and *reduces the design space* to a
      band around the analytic solution (the role the paper assigns to
      the DPI/SFG analysis);
    + a simulated-annealing global search drives the hybrid evaluator —
      DC simulation for small-signal extraction, DPI/SFG + Mason for the
      transfer function, closed forms for slew and swing;
    + Hooke-Jeeves pattern search refines the best point;
    + optionally, a transient switched-capacitor settling simulation
      verifies the winner (the "trustworthy large-swing" leg).

    Retargeting a previously synthesized cell to new specifications
    warm-starts from the old sizing with a shrunken space and a smaller
    budget — the effect the paper reports as "2-3 weeks for the first
    synthesis, 1 day for subsequent blocks". *)

type evaluator_kind =
  | Equation_only     (** closed forms only; no simulation (baseline) *)
  | Hybrid            (** DC sim + DPI/SFG transfer function (default) *)
  | Hybrid_verified   (** hybrid plus final transient settling check *)

type budget = {
  sa_iterations : int;
  pattern_evals : int;
  space_factor : float;  (** fraction of each variable's range retained
                             around the seed point *)
}

val cold_budget : budget
val warm_budget : budget

type solution = {
  sizing : Adc_mdac.Ota.sizing;
  performance : Adc_mdac.Ota.performance option; (** None for Equation_only *)
  power : float;
  feasible : bool;
  violation : float;
  evaluations : int;
  settling : Adc_mdac.Ota.settling_result option;
  metrics : (string * float) list;
}

val constraints_of : Adc_mdac.Mdac_stage.requirements -> Constraint_set.t

val initial_sizing :
  Adc_circuit.Process.t -> Adc_mdac.Mdac_stage.requirements -> Adc_mdac.Ota.sizing
(** Equation-based first cut meeting the requirements on paper. *)

val design_space :
  Adc_circuit.Process.t -> Adc_mdac.Ota.sizing -> factor:float -> Space.t * float array
(** The reduced design space around a seed sizing, and the seed's
    normalized coordinates. *)

val evaluate_sizing :
  kind:evaluator_kind ->
  Adc_circuit.Process.t ->
  Adc_mdac.Mdac_stage.requirements ->
  Adc_mdac.Ota.sizing ->
  (string * float) list * Adc_mdac.Ota.performance option
(** Metrics list: "power", "a0", "gbw", "pm", "sr", "swing", "saturated".
    Empty list when the point is unsimulatable. *)

val synthesize :
  ?kind:evaluator_kind ->
  ?engine:[ `Sa | `De ] ->
  ?budget:budget ->
  ?seed:int ->
  ?warm_start:Adc_mdac.Ota.sizing ->
  ?obs:Adc_obs.t ->
  ?span_parent:Adc_obs.Span.t ->
  Adc_circuit.Process.t ->
  Adc_mdac.Mdac_stage.requirements ->
  (solution, string) result
(** [engine] selects the global-search kernel: simulated annealing
    (default) or differential evolution; the Hooke-Jeeves refinement is
    common to both. [budget.sa_iterations] converts to DE generations at
    20 evaluations each.

    When [obs] carries a live trace sink, the whole search emits one
    [synth.search] span (child of [span_parent]) with the budget, the
    evaluator-call count, warm/cold, and the outcome as attributes.
    Tracing reads only the monotonic clock — it never touches the
    search's RNG stream, so traced and untraced runs are bit-identical. *)
