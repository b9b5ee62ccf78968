(* Figure-regeneration harness.

   Every table and figure of the paper's evaluation is regenerated here:

     dune exec bench/main.exe              -- everything (hybrid figures ~minutes)
     dune exec bench/main.exe -- fast      -- equation-mode figures only (seconds)
     dune exec bench/main.exe -- fig1      -- stage power, 13-bit (Fig. 1)
     dune exec bench/main.exe -- fig2      -- totals for 10..13 bits (Fig. 2)
     dune exec bench/main.exe -- fig3      -- optimum-candidate rules (Fig. 3)
     dune exec bench/main.exe -- retarget  -- cold-vs-warm synthesis (setup-time table)
     dune exec bench/main.exe -- ablation  -- hybrid vs equation-only evaluation
     dune exec bench/main.exe -- extensions -- corners, noise, area, yield, cell front

   [-j N] (before or after the target) sets the domain count of the
   hybrid runs. Performance is measured by the benchmark in
   bench/adcbench, not here. *)

module Spec = Adc_pipeline.Spec
module Config = Adc_pipeline.Config
module Optimize = Adc_pipeline.Optimize
module Rules = Adc_pipeline.Rules
module Report = Adc_pipeline.Report
module Behavioral = Adc_pipeline.Behavioral
module Metrics = Adc_pipeline.Metrics
module Synthesizer = Adc_synth.Synthesizer
module Gp_model = Adc_baseline.Gp_model
module Classic = Adc_baseline.Classic
module Units = Adc_numerics.Units
module Obs = Adc_obs
module Json = Adc_json.Json

let line = String.make 72 '-'
let header title = Printf.printf "%s\n%s\n%s\n" line title line

(* ------------------------------------------------------------------ *)
(* run summary: every optimizer run is recorded and dumped to
   BENCH_SUMMARY.json on exit, so speedups across -j values are
   comparable from the artifacts alone *)

let jobs_requested = ref (Adc_exec.Pool.recommended_size ())
let run_records : Json.t list ref = ref []

(* every span drained from the hybrid runs' memory sinks, in finish
   order — exported as a Chrome/Perfetto trace next to the JSON summary
   so a bench run leaves a browsable profile behind *)
let trace_events : Obs.Sink.event list ref = ref []

(* per-job timing rows, rendered from the "optimize.job" spans of the
   run's trace (a memory sink, drained run by run) *)
let attr name (e : Obs.Sink.event) = List.assoc_opt name e.Obs.Sink.attrs

let job_row (e : Obs.Sink.event) =
  let job = match attr "job" e with Some (Obs.Sink.String s) -> s | _ -> "?" in
  let evals = match attr "evaluations" e with Some (Obs.Sink.Int n) -> n | _ -> 0 in
  let warm = match attr "warm" e with Some (Obs.Sink.Bool b) -> b | _ -> false in
  Json.Obj
    [ ("job", Json.String job);
      ("ms", Json.Float (Obs.Clock.ns_to_ms e.Obs.Sink.dur_ns));
      ("evaluations", Json.Int evals);
      ("warm", Json.Bool warm) ]

let record_run ?(job_spans = []) label (r : Optimize.run) =
  let mode =
    match r.Optimize.mode with
    | `Equation -> "equation"
    | `Hybrid -> "hybrid"
    | `Hybrid_verified -> "hybrid_verified"
  in
  let jobs_field =
    match job_spans with
    | [] -> []
    | spans -> [ ("jobs", Json.List (List.map job_row spans)) ]
  in
  let record =
    Json.Obj
      ([ ("label", Json.String label);
         ("k", Json.Int r.Optimize.spec.Spec.k);
         ("mode", Json.String mode);
         ("domains", Json.Int r.Optimize.domains);
         ("wall_s", Json.Float r.Optimize.wall_time_s);
         ("evaluator_calls", Json.Int r.Optimize.synthesis_evaluations);
         ("distinct_jobs", Json.Int (List.length r.Optimize.distinct_jobs));
         ("cold_jobs", Json.Int r.Optimize.cold_jobs);
         ("warm_jobs", Json.Int r.Optimize.warm_jobs);
         ("optimum", Json.String (Config.to_string (Optimize.optimum_config r)));
         ("p_total_w", Json.Float r.Optimize.optimum.Optimize.p_total) ]
      @ jobs_field)
  in
  run_records := record :: !run_records

(* one record per line, so the array stays readable and diffable *)
let write_summary () =
  match List.rev !run_records with
  | [] -> ()
  | records ->
    let oc = open_out "BENCH_SUMMARY.json" in
    output_string oc "[\n";
    output_string oc (String.concat ",\n" (List.map Json.to_string records));
    output_string oc "\n]\n";
    close_out oc;
    Printf.printf "[run summary written to BENCH_SUMMARY.json]\n%!"

let write_trace () =
  match !trace_events with
  | [] -> ()
  | events ->
    let oc = open_out "BENCH_TRACE.chrome.json" in
    output_string oc (Adc_report.Trace_export.chrome events);
    close_out oc;
    Printf.printf
      "[chrome trace written to BENCH_TRACE.chrome.json - load in Perfetto]\n%!"

(* ------------------------------------------------------------------ *)
(* shared hybrid sweep (used by fig1/fig2/fig3 in hybrid mode) *)

let hybrid_runs : (int, Optimize.run) Hashtbl.t = Hashtbl.create 4

let hybrid_run k =
  match Hashtbl.find_opt hybrid_runs k with
  | Some r -> r
  | None ->
    (* a memory sink per run gives structured per-job spans for the
       summary without a JSON re-parse *)
    let obs = Obs.in_memory () in
    let r =
      Optimize.run ~mode:`Hybrid ~seed:11 ~attempts:3 ~jobs:!jobs_requested ~obs
        (Spec.paper_case ~k)
    in
    let events = Obs.Sink.drain obs.Obs.sink in
    trace_events := !trace_events @ events;
    let job_spans =
      List.filter (fun (e : Obs.Sink.event) -> e.Obs.Sink.name = "optimize.job") events
    in
    Printf.printf
      "[hybrid %d-bit: %d distinct MDACs, %d evaluations, %.0f s on %d domain(s)]\n%!"
      k
      (List.length r.Optimize.distinct_jobs)
      r.Optimize.synthesis_evaluations r.Optimize.wall_time_s r.Optimize.domains;
    record_run ~job_spans (Printf.sprintf "hybrid-%dbit" k) r;
    Hashtbl.replace hybrid_runs k r;
    r

let equation_run k =
  let r = Optimize.run ~mode:`Equation (Spec.paper_case ~k) in
  record_run (Printf.sprintf "equation-%dbit" k) r;
  r

(* ------------------------------------------------------------------ *)
(* figures *)

let fig1 ~hybrid () =
  header "Fig. 1 - stage power for the 13-bit ADC configurations";
  let run_eq = equation_run 13 in
  print_string (Report.job_table run_eq);
  Printf.printf "\n[equation evaluation]\n";
  print_string (Report.fig1_table run_eq);
  if hybrid then begin
    let run_h = hybrid_run 13 in
    Printf.printf "\n[synthesis-backed evaluation]\n";
    print_string (Report.fig1_table run_h)
  end;
  print_newline ()

let fig2 ~hybrid () =
  header "Fig. 2 - total power of the leading stages, 10..13 bits";
  let ks = [ 10; 11; 12; 13 ] in
  Printf.printf "[equation evaluation]\n";
  let runs_eq = List.map equation_run ks in
  print_string (Report.fig2_table runs_eq);
  Printf.printf
    "paper optima: 3-2 (10b), 4-2 (11b), 4-2-2 (12b), 4-3-2 (13b); 2-bit last stage\n";
  if hybrid then begin
    Printf.printf "\n[synthesis-backed evaluation]\n";
    let runs_h = List.map hybrid_run ks in
    print_string (Report.fig2_table runs_h)
  end;
  print_newline ()

let fig3 ~hybrid () =
  header "Fig. 3 - optimum candidate enumeration rules";
  let ks = [ 10; 11; 12; 13 ] in
  Printf.printf "[equation evaluation]\n";
  let chart = Rules.sweep ~mode:`Equation ~k_values:ks (fun ~k -> Spec.paper_case ~k) in
  print_string (Rules.render chart);
  List.iter
    (fun k ->
      Printf.printf "  %d-bit: %.0f%% saved vs the classical 2-2-2... rule\n" k
        (100.0 *. Classic.savings_vs_optimal (Spec.paper_case ~k)))
    ks;
  if hybrid then begin
    Printf.printf "\n[synthesis-backed winners]\n";
    List.iter
      (fun k ->
        let r = hybrid_run k in
        Printf.printf "  %2d-bit: %-12s %s\n" k
          (Config.to_string (Optimize.optimum_config r))
          (Units.format_power r.Optimize.optimum.Optimize.p_total))
      ks
  end;
  print_newline ()

let retarget () =
  header "Setup-time table - cold synthesis vs specification retargeting";
  let spec = Spec.paper_case ~k:13 in
  let synth ?warm_start job ~seed =
    let req = Spec.stage_requirements spec job in
    let t0 = Unix.gettimeofday () in
    match Synthesizer.synthesize ~seed ?warm_start spec.Spec.process req with
    | Error e -> failwith e
    | Ok sol -> (sol, Unix.gettimeofday () -. t0)
  in
  let first = { Spec.m = 3; input_bits = 11 } in
  let cold, t_cold = synth first ~seed:21 in
  Printf.printf "%-22s %6d evaluations  %5.1f s   %s\n"
    ("first block " ^ Spec.job_to_string first)
    cold.Synthesizer.evaluations t_cold
    (Units.format_power cold.Synthesizer.power);
  let jobs = [ { Spec.m = 3; input_bits = 10 }; { Spec.m = 3; input_bits = 12 } ] in
  let warm_evals = ref 0 and cold_evals = ref 0 in
  List.iter
    (fun job ->
      let warm, t_warm = synth ~warm_start:cold.Synthesizer.sizing job ~seed:22 in
      let fresh, t_fresh = synth job ~seed:23 in
      warm_evals := !warm_evals + warm.Synthesizer.evaluations;
      cold_evals := !cold_evals + fresh.Synthesizer.evaluations;
      Printf.printf "%-22s %6d evaluations  %5.1f s   (cold: %d evaluations, %.1f s)\n"
        ("retarget " ^ Spec.job_to_string job)
        warm.Synthesizer.evaluations t_warm fresh.Synthesizer.evaluations t_fresh)
    jobs;
  Printf.printf
    "retargeting takes %.1fx less optimizer effort - the paper's\n\
     \"2-3 weeks first, 1 day for subsequent blocks\" observation.\n\n"
    (float_of_int !cold_evals /. float_of_int (Stdlib.max 1 !warm_evals))

let ablation () =
  header "Ablation - equation-only sizing audited by simulation (hybrid rationale)";
  let spec = Spec.paper_case ~k:13 in
  List.iter
    (fun (m, bits) ->
      let job = { Spec.m; input_bits = bits } in
      let req = Spec.stage_requirements spec job in
      match Gp_model.design spec.Spec.process req with
      | Error e -> Printf.printf "  %s: %s\n" (Spec.job_to_string job) e
      | Ok r ->
        Printf.printf
          "  %-8s predicted %-9s simulated %-9s  specs in sim: %s (violation %.2f)\n"
          (Spec.job_to_string job)
          (Units.format_power r.Gp_model.predicted_power)
          (Units.format_power r.Gp_model.simulated_power)
          (if r.Gp_model.sim_meets_specs then "MET" else "MISSED")
          r.Gp_model.sim_violation;
        List.iter
          (fun (name, p, s) ->
            if Float.abs (p -. s) > 0.25 *. Float.max (Float.abs p) (Float.abs s) then
              Printf.printf "      %-6s equations say %.3g, simulation says %.3g\n" name p s)
          (Gp_model.accuracy_gap r))
    [ (4, 13); (3, 11); (2, 9) ];
  Printf.printf
    "the equation-only design books optimistic circuits; the hybrid loop\n\
     (DC sim + DPI/SFG evaluation inside the optimizer) closes the gap.\n\n"

let extensions () =
  header "Extensions - corners, device noise, area, yield, Pareto front";
  let spec = Spec.paper_case ~k:13 in
  (* 1. corner sign-off of a representative synthesized cell *)
  let job = { Spec.m = 3; input_bits = 10 } in
  let req = Spec.stage_requirements spec job in
  (match Synthesizer.synthesize ~seed:17 spec.Spec.process req with
  | Error e -> Printf.printf "  corner cell synthesis failed: %s\n" e
  | Ok sol ->
    Printf.printf "[corner sign-off of the synthesized %s cell]\n" (Spec.job_to_string job);
    let results = Adc_synth.Corner_check.check spec.Spec.process req sol.Synthesizer.sizing in
    print_string (Adc_synth.Corner_check.render results));
  Printf.printf
    "  (fixed ideal cascode/bias voltages do not track the corner skews -\n\
    \   a production cell needs a tracking bias generator; the nominal\n\
    \   corner meets every spec)\n";
  (* 2. device noise of the front-stage amplifier vs the kT/C budget *)
  let z = Adc_mdac.Ota.default_sizing in
  (match Adc_mdac.Ota.biased_operating_point spec.Spec.process z with
  | Error e -> Printf.printf "  noise bench DC failed: %s\n" e
  | Ok (p, dc) ->
    let ss = Adc_circuit.Smallsig.extract p.Adc_mdac.Ota.nl dc in
    match Adc_mdac.Noise.analyze p.Adc_mdac.Ota.nl ss ~out:p.Adc_mdac.Ota.out with
    | Error e -> Printf.printf "  noise analysis failed: %s\n" e
    | Ok r ->
      Printf.printf
        "\n[device noise of the reference OTA]\n\
        \          output-integrated %.1f uV rms, input-referred %.2f uV rms (gain %.0f)\n"
        (r.Adc_mdac.Noise.v_out_rms *. 1e6)
        (r.Adc_mdac.Noise.v_in_rms *. 1e6)
        r.Adc_mdac.Noise.midband_gain;
      (match r.Adc_mdac.Noise.contributions with
      | top :: _ ->
        Printf.printf "  dominant contributor: %s (%.1f uV at the output)\n"
          top.Adc_mdac.Noise.source (top.Adc_mdac.Noise.v_out_rms *. 1e6)
      | [] -> ()));
  (* 3. area ranking and the m_i >= m_(i+1) argument *)
  let ranked = Adc_pipeline.Area_model.rank spec
      (Config.enumerate_leading ~k:13 ~backend_bits:7) in
  Printf.printf "\n[area of the 13-bit candidates]\n";
  List.iter
    (fun (a : Adc_pipeline.Area_model.config_area) ->
      Printf.printf "  %-14s %.3f mm^2\n"
        (Config.to_string a.Adc_pipeline.Area_model.config)
        (a.Adc_pipeline.Area_model.total *. 1e6))
    ranked;
  let (fwd, a_fwd), (rev, a_rev) =
    Adc_pipeline.Area_model.monotonicity_argument spec ~k:13 in
  Printf.printf
    "  the paper's area argument for m_i >= m_i+1: %s uses %.3f mm^2,\n\
    \      its reversed order %s would use %.3f mm^2\n"
    (Config.to_string fwd) (a_fwd *. 1e6) (Config.to_string rev) (a_rev *. 1e6);
  (* 4. Monte-Carlo yield vs comparator offsets *)
  let spec10 = Spec.paper_case ~k:10 in
  let budget = Adc_mdac.Comparator.offset_budget ~vref_pp:spec10.Spec.vref_pp ~m:3 in
  let sweep =
    Adc_pipeline.Montecarlo.offset_sweep ~trials:40 ~seed:9 spec10
      (Config.of_string "3-2")
      ~sigmas:[ budget /. 8.0; budget /. 2.0; budget; budget *. 1.5 ]
  in
  Printf.printf "\n[Monte-Carlo yield of the 10-bit optimum vs comparator offsets]\n";
  List.iter
    (fun (sigma, (r : Adc_pipeline.Montecarlo.report)) ->
      Printf.printf "  sigma %5.1f mV: yield %5.1f%%  (mean ENOB %.2f, p05 %.2f)\n"
        (sigma *. 1e3) (100.0 *. r.Adc_pipeline.Montecarlo.yield)
        r.Adc_pipeline.Montecarlo.enob_mean r.Adc_pipeline.Montecarlo.enob_p05)
    sweep;
  Printf.printf "  (the knee sits at the redundancy budget of %.0f mV)\n" (budget *. 1e3);
  (* 5. power/bandwidth Pareto front for one cell *)
  let req_p = Spec.stage_requirements spec { Spec.m = 2; input_bits = 9 } in
  let points =
    Adc_synth.Pareto.sweep
      ~budget:{ Synthesizer.sa_iterations = 120; pattern_evals = 120; space_factor = 1.0 }
      ~seed:31 spec.Spec.process req_p
      ~gbw_multipliers:[ 0.5; 0.75; 1.0; 1.5; 2.0; 3.0 ]
  in
  Printf.printf "\n[power/bandwidth Pareto front of the m2@9b cell]\n";
  print_string (Adc_synth.Pareto.render (Adc_synth.Pareto.front points));
  print_newline ()

let behavioral_check () =
  header "Behavioral verification of the 13-bit optimum (extension)";
  let spec = Spec.paper_case ~k:13 in
  let adc = Behavioral.ideal spec (Config.of_string "4-3-2") in
  let s = Metrics.static_linearity ~oversample:8 adc in
  let d = Metrics.dynamic_performance ~n_fft:4096 adc ~fs:spec.Spec.fs ~f_in:4.1e6 in
  Printf.printf
    "  4-3-2 + ideal backend: ENOB %.2f bits, SNDR %.1f dB, DNL %.3f, INL %.3f LSB\n\n"
    d.Metrics.enob d.Metrics.sndr_db s.Metrics.dnl_max s.Metrics.inl_max

(* ------------------------------------------------------------------ *)
(* entry point *)

let targets =
  [ ("fig1", fig1 ~hybrid:true);
    ("fig2", fig2 ~hybrid:true);
    ("fig3", fig3 ~hybrid:true);
    ("retarget", retarget);
    ("ablation", ablation);
    ("extensions", extensions);
    ("fast",
     fun () ->
       fig1 ~hybrid:false ();
       fig2 ~hybrid:false ();
       fig3 ~hybrid:false ();
       behavioral_check ());
    ("all",
     fun () ->
       fig1 ~hybrid:true ();
       fig2 ~hybrid:true ();
       fig3 ~hybrid:true ();
       retarget ();
       ablation ();
       extensions ();
       behavioral_check ()) ]

let usage_error fmt =
  Printf.kfprintf
    (fun oc ->
      Printf.fprintf oc "\nusage: main.exe [%s] [-j N]\n"
        (String.concat "|" (List.map fst targets));
      exit 1)
    stderr fmt

let () =
  (* argv: [target] [-j N | --jobs N], in any order; the last target wins *)
  let argv = Sys.argv in
  let rec parse target i =
    if i >= Array.length argv then target
    else
      match argv.(i) with
      | "-j" | "--jobs" -> (
        match if i + 1 < Array.length argv then int_of_string_opt argv.(i + 1) else None with
        | Some j ->
          jobs_requested := Stdlib.max 1 j;
          parse target (i + 2)
        | None -> usage_error "%s needs an integer domain count" argv.(i))
      | arg when List.mem_assoc arg targets -> parse arg (i + 1)
      | arg -> usage_error "unknown target %S" arg
  in
  let run = List.assoc (parse "all" 1) targets in
  at_exit write_summary;
  at_exit write_trace;
  run ()
