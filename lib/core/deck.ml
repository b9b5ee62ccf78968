(* Synthesize one MDAC cell and render its switched-capacitor bench as
   a canonical SPICE deck.

   This is the one implementation behind [adcopt netlist emit] and the
   serve daemon's [netlist-emit] verb: both run the [synth] verb's
   best-of-N search ([Optimize.synth_restarts] over the one
   [Optimize.best_of_n], so the winning sizing is the [synth] winner),
   then export the winner's bench netlist through {!Adc_spice.emit}. The bench is
   instantiated at the neutral operating point — zero differential
   input, middle comparator code — so the deck is a pure function of
   (spec, m, bits, seed, attempts, budget) and two exports of the same
   request are byte-identical. *)

module Synthesizer = Adc_synth.Synthesizer
module Sc_mdac = Adc_mdac.Sc_mdac

type export = {
  deck : string;          (* the canonical SPICE text, [Adc_spice.emit] *)
  evaluations : int;      (* summed evaluator calls over all restarts *)
  truncated : bool;       (* a cancel tripped before every restart ran *)
}

let export ?budget ?obs ?cancel ~pool ~m ~bits ~seed ~attempts spec =
  let requirements = Spec.stage_requirements spec { Spec.m; input_bits = bits } in
  let r =
    Optimize.synth_restarts ~pool ?budget ?obs ?cancel ~seed ~attempts
      spec.Spec.process requirements
  in
  match r.Optimize.best with
  | None ->
    Error
      (if r.Optimize.truncated then
         "netlist export cancelled before any restart finished"
       else "synthesis failed on every restart")
  | Some sol -> (
    match
      Sc_mdac.bench_netlist spec.Spec.process sol.Synthesizer.sizing ~v_in:0.0
        ~code:1 ~vref_pp:spec.Spec.vref_pp ~fs:spec.Spec.fs
    with
    | Error e -> Error ("bench netlist: " ^ e)
    | Ok nl ->
      Ok
        { deck = Adc_spice.emit nl;
          evaluations = r.Optimize.evaluations;
          truncated = r.Optimize.truncated })
