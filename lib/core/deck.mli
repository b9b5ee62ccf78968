(** SPICE-deck export of a synthesized MDAC cell.

    The shared implementation of [adcopt netlist emit] and the serve
    daemon's [netlist-emit] verb: run the [synth] verb's best-of-N
    search ({!Optimize.synth_restarts}, over the one
    {!Optimize.best_of_n}, so the winner is the [synth] winner), then
    render the winning sizing's switched-capacitor bench — OTA core,
    sampling network, phase switches and sources at the servo'd
    operating point — through {!Adc_spice.emit}. *)

type export = {
  deck : string;      (** canonical SPICE text — an {!Adc_spice.emit}
                          fixpoint by construction *)
  evaluations : int;  (** evaluator calls summed over all restarts *)
  truncated : bool;   (** a cancel tripped before every restart ran;
                          truncated exports are served, never stored *)
}

val export :
  ?budget:Adc_synth.Synthesizer.budget ->
  ?obs:Adc_obs.t ->
  ?cancel:Adc_exec.Cancel.t ->
  pool:Adc_exec.Pool.t ->
  m:int ->
  bits:int ->
  seed:int ->
  attempts:int ->
  Spec.t ->
  (export, string) result
(** The bench is instantiated at the neutral operating point (zero
    differential input, middle comparator code, the spec's [vref_pp]
    and [fs]), so the deck is a pure function of the request. [Error]
    covers both every-restart-failed and an unsimulatable winning
    sizing; cancellation before any restart completes reports as an
    error rather than an empty deck. *)
