(* Benchmark and figure-regeneration harness.

   Every table and figure of the paper's evaluation is regenerated here:

     dune exec bench/main.exe              -- everything (hybrid figures ~minutes)
     dune exec bench/main.exe -- fast      -- equation-mode figures only (seconds)
     dune exec bench/main.exe -- fig1      -- stage power, 13-bit (Fig. 1)
     dune exec bench/main.exe -- fig2      -- totals for 10..13 bits (Fig. 2)
     dune exec bench/main.exe -- fig3      -- optimum-candidate rules (Fig. 3)
     dune exec bench/main.exe -- retarget  -- cold-vs-warm synthesis (setup-time table)
     dune exec bench/main.exe -- ablation  -- hybrid vs equation-only evaluation
     dune exec bench/main.exe -- overhead  -- tracing cost on/memory/file
     dune exec bench/main.exe -- micro     -- Bechamel micro-benchmarks
     dune exec bench/main.exe -- serve     -- server-mode load (BENCH_SERVE.json)
     dune exec bench/main.exe -- cluster   -- sharded fleet vs solo (BENCH_CLUSTER.json)
     dune exec bench/main.exe -- pareto    -- (k, fs) grid FoM front (BENCH_PARETO.json)
     dune exec bench/main.exe -- sim       -- simulation-mode solver bench (BENCH_SIM.json)
     dune exec bench/main.exe -- netlist   -- SPICE parse/emit + process swap (BENCH_NETLIST.json)

   The Bechamel group holds one Test.make per table/figure pipeline (on
   their fast equation form so the measurements complete in seconds) plus
   the unit operations that dominate the hybrid flow. *)

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
module Netlist = Adc_circuit.Netlist
module Stimulus = Adc_circuit.Stimulus
module Transient = Adc_circuit.Transient
module Mna = Adc_circuit.Mna
module Sparse = Adc_numerics.Sparse
module Ota = Adc_mdac.Ota
module Mdac_stage = Adc_mdac.Mdac_stage
module Obs = Adc_obs
module Json = Adc_json.Json
module Server = Adc_serve.Server
module Client = Adc_serve.Client
module Codec = Adc_serve.Codec
module Front = Adc_pipeline.Front
module Router = Adc_cluster.Router

let line = String.make 72 '-'
let header title = Printf.printf "%s\n%s\n%s\n" line title line

(* ------------------------------------------------------------------ *)
(* run summary: every optimizer run is recorded and dumped to
   BENCH_SUMMARY.json on exit, so speedups across -j values are
   comparable from the artifacts alone *)

let jobs_requested = ref (Adc_exec.Pool.recommended_size ())
let run_records : string list ref = ref []

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
  Printf.sprintf "{\"job\": %S, \"ms\": %.3f, \"evaluations\": %d, \"warm\": %b}"
    job (Obs.Clock.ns_to_ms e.Obs.Sink.dur_ns) evals warm

let record_run ?(job_spans = []) label (r : Optimize.run) =
  let mode =
    match r.Optimize.mode with
    | `Equation -> "equation"
    | `Hybrid -> "hybrid"
    | `Hybrid_verified -> "hybrid_verified"
  in
  let jobs_field =
    match job_spans with
    | [] -> ""
    | spans ->
      Printf.sprintf ", \"jobs\": [%s]" (String.concat ", " (List.map job_row spans))
  in
  let json =
    Printf.sprintf
      "  {\"label\": %S, \"k\": %d, \"mode\": %S, \"domains\": %d, \
       \"wall_s\": %.3f, \"evaluator_calls\": %d, \"distinct_jobs\": %d, \
       \"cold_jobs\": %d, \"warm_jobs\": %d, \"optimum\": %S, \
       \"p_total_w\": %.6g%s}"
      label r.Optimize.spec.Spec.k mode r.Optimize.domains
      r.Optimize.wall_time_s r.Optimize.synthesis_evaluations
      (List.length r.Optimize.distinct_jobs)
      r.Optimize.cold_jobs r.Optimize.warm_jobs
      (Config.to_string (Optimize.optimum_config r))
      r.Optimize.optimum.Optimize.p_total
      jobs_field
  in
  run_records := json :: !run_records

let write_summary () =
  match List.rev !run_records with
  | [] -> ()
  | records ->
    let oc = open_out "BENCH_SUMMARY.json" in
    output_string oc "[\n";
    output_string oc (String.concat ",\n" records);
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
  | Error e -> Printf.printf "  corner cell synthesis failed: %s
" e
  | Ok sol ->
    Printf.printf "[corner sign-off of the synthesized %s cell]
" (Spec.job_to_string job);
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
    | Error e -> Printf.printf "  noise analysis failed: %s
" e
    | Ok r ->
      Printf.printf
        "
[device noise of the reference OTA]
        \  output-integrated %.1f uV rms, input-referred %.2f uV rms (gain %.0f)
"
        (r.Adc_mdac.Noise.v_out_rms *. 1e6)
        (r.Adc_mdac.Noise.v_in_rms *. 1e6)
        r.Adc_mdac.Noise.midband_gain;
      (match r.Adc_mdac.Noise.contributions with
      | top :: _ ->
        Printf.printf "  dominant contributor: %s (%.1f uV at the output)
"
          top.Adc_mdac.Noise.source (top.Adc_mdac.Noise.v_out_rms *. 1e6)
      | [] -> ()));
  (* 3. area ranking and the m_i >= m_(i+1) argument *)
  let ranked = Adc_pipeline.Area_model.rank spec
      (Config.enumerate_leading ~k:13 ~backend_bits:7) in
  Printf.printf "
[area of the 13-bit candidates]
";
  List.iter
    (fun (a : Adc_pipeline.Area_model.config_area) ->
      Printf.printf "  %-14s %.3f mm^2
"
        (Config.to_string a.Adc_pipeline.Area_model.config)
        (a.Adc_pipeline.Area_model.total *. 1e6))
    ranked;
  let (fwd, a_fwd), (rev, a_rev) =
    Adc_pipeline.Area_model.monotonicity_argument spec ~k:13 in
  Printf.printf
    "  the paper's area argument for m_i >= m_i+1: %s uses %.3f mm^2,
    \  its reversed order %s would use %.3f mm^2
"
    (Config.to_string fwd) (a_fwd *. 1e6) (Config.to_string rev) (a_rev *. 1e6);
  (* 4. Monte-Carlo yield vs comparator offsets *)
  let spec10 = Spec.paper_case ~k:10 in
  let budget = Adc_mdac.Comparator.offset_budget ~vref_pp:spec10.Spec.vref_pp ~m:3 in
  let sweep =
    Adc_pipeline.Montecarlo.offset_sweep ~trials:40 ~seed:9 spec10
      (Config.of_string "3-2")
      ~sigmas:[ budget /. 8.0; budget /. 2.0; budget; budget *. 1.5 ]
  in
  Printf.printf "
[Monte-Carlo yield of the 10-bit optimum vs comparator offsets]
";
  List.iter
    (fun (sigma, (r : Adc_pipeline.Montecarlo.report)) ->
      Printf.printf "  sigma %5.1f mV: yield %5.1f%%  (mean ENOB %.2f, p05 %.2f)
"
        (sigma *. 1e3) (100.0 *. r.Adc_pipeline.Montecarlo.yield)
        r.Adc_pipeline.Montecarlo.enob_mean r.Adc_pipeline.Montecarlo.enob_p05)
    sweep;
  Printf.printf "  (the knee sits at the redundancy budget of %.0f mV)
" (budget *. 1e3);
  (* 5. power/bandwidth Pareto front for one cell *)
  let req_p = Spec.stage_requirements spec { Spec.m = 2; input_bits = 9 } in
  let points =
    Adc_synth.Pareto.sweep
      ~budget:{ Synthesizer.sa_iterations = 120; pattern_evals = 120; space_factor = 1.0 }
      ~seed:31 spec.Spec.process req_p
      ~gbw_multipliers:[ 0.5; 0.75; 1.0; 1.5; 2.0; 3.0 ]
  in
  Printf.printf "
[power/bandwidth Pareto front of the m2@9b cell]
";
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
(* observability overhead: the same equation-mode optimizer run with
   tracing off, in-memory, and against a real JSONL file — the numbers
   quoted in docs/OBSERVABILITY.md *)

let overhead () =
  header "Observability overhead (equation-mode 13-bit optimize, 23 spans/run)";
  let spec = Spec.paper_case ~k:13 in
  let time_one label f =
    let n = 300 in
    (* warm-up round keeps the first-run allocation out of the average *)
    f ();
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      f ()
    done;
    let per_run = (Unix.gettimeofday () -. t0) /. float_of_int n in
    Printf.printf "  %-28s %8.1f us/run\n%!" label (per_run *. 1e6);
    per_run
  in
  let off = time_one "tracing off (Obs.null)" (fun () ->
      ignore (Optimize.run ~mode:`Equation spec))
  in
  let mem = time_one "memory sink + metrics" (fun () ->
      let obs = Obs.in_memory () in
      ignore (Optimize.run ~mode:`Equation ~obs spec);
      ignore (Obs.Sink.drain obs.Obs.sink))
  in
  let path = Filename.temp_file "adc_obs_bench" ".jsonl" in
  let file = time_one "JSONL file sink" (fun () ->
      let obs = Obs.create ~trace:path ()  in
      ignore (Optimize.run ~mode:`Equation ~obs spec);
      Obs.close obs)
  in
  Sys.remove path;
  Printf.printf
    "  memory sink adds %.1f%%, the file sink %.1f%% to an equation-mode run\n\
     (hybrid runs spend seconds per span, so the relative cost vanishes)\n\n"
    (100.0 *. ((mem /. off) -. 1.0))
    (100.0 *. ((file /. off) -. 1.0))

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure pipeline *)

let micro () =
  header "Bechamel micro-benchmarks (one test per table/figure pipeline)";
  let open Bechamel in
  let open Toolkit in
  let spec13 = Spec.paper_case ~k:13 in
  let req = Spec.stage_requirements spec13 { Spec.m = 3; input_bits = 11 } in
  let seed_sizing = Synthesizer.initial_sizing spec13.Spec.process req in
  let adc = Behavioral.ideal spec13 (Config.of_string "4-3-2") in
  let signal =
    Array.init 4096 (fun i -> sin (2.0 *. Float.pi *. 37.0 *. float_of_int i /. 4096.0))
  in
  let tests =
    Test.make_grouped ~name:"adc-topopt"
      [
        Test.make ~name:"fig1-equation-13bit"
          (Staged.stage (fun () -> ignore (Optimize.run ~mode:`Equation spec13)));
        Test.make ~name:"fig2-equation-sweep"
          (Staged.stage (fun () ->
               List.iter
                 (fun k -> ignore (Optimize.run ~mode:`Equation (Spec.paper_case ~k)))
                 [ 10; 11; 12; 13 ]));
        Test.make ~name:"fig3-rules"
          (Staged.stage (fun () ->
               ignore
                 (Rules.sweep ~mode:`Equation ~k_values:[ 10; 11; 12; 13 ]
                    (fun ~k -> Spec.paper_case ~k))));
        Test.make ~name:"hybrid-cell-evaluation"
          (Staged.stage (fun () ->
               ignore
                 (Synthesizer.evaluate_sizing ~kind:Synthesizer.Hybrid
                    spec13.Spec.process req seed_sizing)));
        Test.make ~name:"equation-cell-evaluation"
          (Staged.stage (fun () ->
               ignore
                 (Synthesizer.evaluate_sizing ~kind:Synthesizer.Equation_only
                    spec13.Spec.process req seed_sizing)));
        Test.make ~name:"behavioral-conversion"
          (Staged.stage (fun () -> ignore (Behavioral.convert adc 0.123)));
        Test.make ~name:"fft-4096"
          (Staged.stage (fun () -> ignore (Adc_numerics.Fft.forward_real signal)));
      ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.8) ~stabilize:true () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ t ] ->
        if t > 1e6 then Printf.printf "  %-42s %10.3f ms/run\n" name (t /. 1e6)
        else Printf.printf "  %-42s %10.3f us/run\n" name (t /. 1e3)
      | Some _ | None -> Printf.printf "  %-42s (no estimate)\n" name)
    (List.sort compare rows);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* serve: server-mode load scenario.  An in-process daemon on a
   throwaway Unix socket, N client threads issuing a mixed verb stream;
   two phases: synchronous round trips for clean per-request latency
   percentiles, then pipelined bursts against the bounded queue so the
   rejection path is exercised too.  Results land in BENCH_SERVE.json. *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(Stdlib.min (n - 1) (int_of_float (p *. float_of_int (n - 1) +. 0.5)))

(* one blocking GET against the daemon's ops listener; returns the body *)
let ops_get port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 8192 in
      let chunk = Bytes.create 8192 in
      let rec slurp () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          slurp ()
      in
      slurp ();
      let raw = Buffer.contents buf in
      let rec find i =
        if i + 4 > String.length raw then String.length raw
        else if String.sub raw i 4 = "\r\n\r\n" then i + 4
        else find (i + 1)
      in
      let i = find 0 in
      String.sub raw i (String.length raw - i))

let serve_bench () =
  header "serve: server-mode load (4 clients, mixed verbs)";
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "adcopt-bench-%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists sock then Sys.remove sock;
  let srv =
    Server.create
      { Server.default_config with
        socket_path = Some sock;
        workers = 2;
        queue_depth = 4;
        jobs = 1;
        (* live registry + ops listener so the scrape path is measured
           under the same load the request plane sees *)
        obs = Obs.in_memory ();
        metrics_addr = Some ("127.0.0.1", 0) }
  in
  let server_thread = Thread.create Server.run srv in
  let clients = 4 and per_client = 25 in
  (* one request per slot in a fixed rotation so every client exercises
     every verb; optimize k cycles through the paper's range, and the
     shared memo means later hits measure the cached path *)
  let request_of i =
    match i mod 5 with
    | 0 -> Json.Obj [ ("id", Json.Int i); ("verb", Json.String "ping") ]
    | 1 -> Json.Obj [ ("id", Json.Int i); ("verb", Json.String "enumerate");
                      ("k", Json.Int (10 + (i mod 4))) ]
    | 2 | 3 ->
      Json.Obj [ ("id", Json.Int i); ("verb", Json.String "optimize");
                 ("k", Json.Int (10 + (i mod 4))) ]
    | _ -> Json.Obj [ ("id", Json.Int i); ("verb", Json.String "stats") ]
  in
  let latencies = Array.make (clients * per_client) 0.0 in
  let ok_count = ref 0 and err_count = ref 0 in
  let tally = Mutex.create () in
  let is_ok resp = Json.member "ok" resp = Some (Json.Bool true) in
  let sync_client c =
    let conn = Client.connect_unix sock in
    for r = 0 to per_client - 1 do
      let i = (c * per_client) + r in
      let t0 = Unix.gettimeofday () in
      let resp = Client.request conn (request_of i) in
      let dt = Unix.gettimeofday () -. t0 in
      Mutex.lock tally;
      latencies.(i) <- dt *. 1e3;
      if is_ok resp then incr ok_count else incr err_count;
      Mutex.unlock tally
    done;
    Client.close conn
  in
  let wall0 = Unix.gettimeofday () in
  let threads = List.init clients (fun c -> Thread.create sync_client c) in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. wall0 in
  (* burst phase: each client pipelines a burst twice the queue depth,
     so with both workers busy some sends must bounce off admission *)
  let burst = 8 and burst_rejected = ref 0 and burst_total = ref 0 in
  let burst_client c =
    let conn = Client.connect_unix sock in
    for round = 0 to 1 do
      for b = 0 to burst - 1 do
        Client.send conn
          (Json.Obj [ ("id", Json.Int ((c * 1000) + (round * 100) + b));
                      ("verb", Json.String "ping");
                      ("delay_ms", Json.Int 5) ])
      done;
      for _ = 0 to burst - 1 do
        let resp = Client.recv conn in
        Mutex.lock tally;
        incr burst_total;
        if not (is_ok resp) then incr burst_rejected;
        Mutex.unlock tally
      done
    done;
    Client.close conn
  in
  let threads = List.init clients (fun c -> Thread.create burst_client c) in
  List.iter Thread.join threads;
  (* scrape phase: latency of GET /metrics on the still-hot daemon, and
     the end-of-run exposition body for offline inspection *)
  let ops_port =
    match Server.metrics_port srv with Some p -> p | None -> 0
  in
  let scrapes = 40 in
  let scrape_lat = Array.make scrapes 0.0 in
  let last_body = ref "" in
  for s = 0 to scrapes - 1 do
    let t0 = Unix.gettimeofday () in
    last_body := ops_get ops_port "/metrics";
    scrape_lat.(s) <- (Unix.gettimeofday () -. t0) *. 1e3
  done;
  Array.sort compare scrape_lat;
  let scrape_p50 = percentile scrape_lat 0.50
  and scrape_p99 = percentile scrape_lat 0.99 in
  let cardinality =
    List.length
      (List.filter
         (fun l -> String.length l > 0 && l.[0] <> '#')
         (String.split_on_char '\n' !last_body))
  in
  Server.stop srv;
  Thread.join server_thread;
  let total = clients * per_client in
  Array.sort compare latencies;
  let p50 = percentile latencies 0.50
  and p90 = percentile latencies 0.90
  and p99 = percentile latencies 0.99 in
  let mean = Array.fold_left ( +. ) 0.0 latencies /. float_of_int total in
  let throughput = float_of_int total /. wall in
  Printf.printf "  %d requests over %d clients in %.3f s  (%.1f req/s)\n"
    total clients wall throughput;
  Printf.printf "  latency ms: p50 %.2f  p90 %.2f  p99 %.2f  mean %.2f\n"
    p50 p90 p99 mean;
  Printf.printf "  burst phase: %d pipelined requests, %d rejected (overloaded)\n"
    !burst_total !burst_rejected;
  Printf.printf
    "  scrape phase: %d GET /metrics, p50 %.2f ms  p99 %.2f ms  (%d series)\n"
    scrapes scrape_p50 scrape_p99 cardinality;
  Printf.printf "  server counters: %d admitted, %d completed, %d overloaded\n\n"
    (Server.requests srv) (Server.completed srv) (Server.overloaded srv);
  let json =
    Json.Obj
      [ ("clients", Json.Int clients);
        ("requests", Json.Int total);
        ("ok", Json.Int !ok_count);
        ("errors", Json.Int !err_count);
        ("wall_s", Json.Float wall);
        ("throughput_rps", Json.Float throughput);
        ("latency_ms",
         Json.Obj
           [ ("p50", Json.Float p50); ("p90", Json.Float p90);
             ("p99", Json.Float p99); ("mean", Json.Float mean) ]);
        ("burst",
         Json.Obj
           [ ("requests", Json.Int !burst_total);
             ("rejected", Json.Int !burst_rejected) ]);
        ("scrape",
         Json.Obj
           [ ("count", Json.Int scrapes);
             ("p50_ms", Json.Float scrape_p50);
             ("p99_ms", Json.Float scrape_p99);
             ("series", Json.Int cardinality) ]);
        ("server",
         Json.Obj
           [ ("admitted", Json.Int (Server.requests srv));
             ("completed", Json.Int (Server.completed srv));
             ("overloaded", Json.Int (Server.overloaded srv));
             ("deadline_exceeded", Json.Int (Server.deadline_exceeded srv)) ]) ]
  in
  let oc = open_out "BENCH_SERVE.json" in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  let oc = open_out "BENCH_SERVE.metrics.prom" in
  output_string oc !last_body;
  close_out oc;
  Printf.printf "wrote BENCH_SERVE.json and BENCH_SERVE.metrics.prom\n\n"

(* ------------------------------------------------------------------ *)
(* cluster: sharded fleet behind the consistent-hash router.  The same
   shared-cell workload runs against a 1-backend and a 3-backend fleet
   (in-process daemons + router, throwaway sockets and stores): a cold
   phase populates the fleet, a hot phase measures the routed-hit
   latency, and a failover phase stops one backend mid-stream so the
   re-routed keys are served from ring replicas — the cross-node hit
   count the replication plane exists for.  BENCH_CLUSTER.json. *)

let cluster_bench () =
  header "cluster: 1 vs 3 backends behind the consistent-hash router";
  (* a fleet member dying mid-write must surface as EPIPE, not kill the
     bench — same disposition the daemons set for themselves *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let tmp = Filename.get_temp_dir_name () in
  let fresh_dir name =
    let d = Filename.concat tmp
        (Printf.sprintf "adcopt-bench-%s-%d" name (Unix.getpid ())) in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) ->
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d));
    d
  in
  let fresh_sock name =
    let p = Filename.concat tmp
        (Printf.sprintf "adcopt-bench-%s-%d.sock" name (Unix.getpid ())) in
    if Sys.file_exists p then Sys.remove p;
    p
  in
  (* the shared-cell workload: a small set of hot (k, fs) cells hit
     repeatedly from several clients, equation mode so the bench
     measures the routing and cache planes rather than synthesis *)
  let cells =
    List.concat_map
      (fun k -> List.map (fun f -> (k, f)) [ 40.0; 80.0 ])
      [ 10; 11; 12; 13 ]
  in
  let request_of i =
    let k, f = List.nth cells (i mod List.length cells) in
    (* deadline_ms doubles as the router's reply-read bound, so a
       backend killed with a request in flight re-routes instead of
       wedging the sweep *)
    Json.Obj
      [ ("id", Json.Int i); ("verb", Json.String "optimize");
        ("k", Json.Int k); ("fs_mhz", Json.Float f);
        ("deadline_ms", Json.Int 10_000) ]
  in
  let run_fleet ~label ~n_backends ~failover =
    let backends =
      List.init n_backends (fun i ->
          let name = Printf.sprintf "%s-b%d" label i in
          let sock = fresh_sock name in
          let srv =
            Server.create
              { Server.default_config with
                socket_path = Some sock;
                workers = 2;
                jobs = 1;
                store_dir = Some (fresh_dir name);
                node_id = Some name }
          in
          (sock, srv, Thread.create Server.run srv))
    in
    let front = fresh_sock (label ^ "-front") in
    let router =
      Router.create
        { Router.default_config with
          backends = List.map (fun (s, _, _) -> s) backends;
          socket_path = Some front;
          probe_period_s = 0.2 }
    in
    let router_thread = Thread.create Router.run router in
    let clients = 4 and per_client = 24 in
    let latencies = Array.make (clients * per_client) 0.0 in
    let hits = ref 0 and total = ref 0 and tally = Mutex.create () in
    let sweep phase_off =
      let client c =
        let conn = Client.connect_unix front in
        for r = 0 to per_client - 1 do
          let i = (c * per_client) + r in
          let t0 = Unix.gettimeofday () in
          let resp = Client.request conn (request_of (phase_off + i)) in
          let dt = Unix.gettimeofday () -. t0 in
          Mutex.lock tally;
          latencies.(i) <- dt *. 1e3;
          incr total;
          if Json.member "cached" resp = Some (Json.Bool true) then incr hits;
          Mutex.unlock tally
        done;
        Client.close conn
      in
      let wall0 = Unix.gettimeofday () in
      let threads = List.init clients (fun c -> Thread.create client c) in
      List.iter Thread.join threads;
      Unix.gettimeofday () -. wall0
    in
    let cold_wall = sweep 0 in
    (* let the async replication offers land before measuring the hot
       path (and before any failover leans on the replicas) *)
    Unix.sleepf 0.3;
    let cold_hits = !hits and cold_total = !total in
    let hot_wall = sweep 0 in
    Array.sort compare latencies;
    let hot_p50 = percentile latencies 0.50
    and hot_p99 = percentile latencies 0.99 in
    let failover_wall =
      if not failover then 0.0
      else begin
        (* stop the fleet's last backend; its keys re-route to ring
           successors, which hold digest-verified replicas *)
        let _, victim, vthread = List.nth backends (n_backends - 1) in
        Server.stop victim;
        Thread.join vthread;
        sweep 0
      end
    in
    (* hits among the requests sent after the cold sweep *)
    let hit_rate = float_of_int (!hits - cold_hits)
                   /. float_of_int (Stdlib.max 1 (!total - cold_total)) in
    Printf.printf
      "  %-12s cold %.3f s  hot %.3f s  (p50 %.2f ms  p99 %.2f ms, \
       %.0f%% hits)%s\n"
      label cold_wall hot_wall hot_p50 hot_p99 (100.0 *. hit_rate)
      (if failover then
         Printf.sprintf "  failover %.3f s  %d replica hits  %d reroutes"
           failover_wall (Router.replica_hits router)
           (Router.reroutes router)
       else "");
    let json =
      Json.Obj
        [ ("backends", Json.Int n_backends);
          ("clients", Json.Int clients);
          ("requests", Json.Int !total);
          ("cold_wall_s", Json.Float cold_wall);
          ("hot_wall_s", Json.Float hot_wall);
          ("hot_p50_ms", Json.Float hot_p50);
          ("hot_p99_ms", Json.Float hot_p99);
          ("hit_rate", Json.Float hit_rate);
          ("failover_wall_s", Json.Float failover_wall);
          ("router",
           Json.Obj
             [ ("requests", Json.Int (Router.requests router));
               ("completed", Json.Int (Router.completed router));
               ("reroutes", Json.Int (Router.reroutes router));
               ("retries", Json.Int (Router.retries_total router));
               ("donations", Json.Int (Router.donations router));
               ("replica_offers", Json.Int (Router.replica_offers router));
               ("replica_hits", Json.Int (Router.replica_hits router)) ]) ]
    in
    Router.stop router;
    Thread.join router_thread;
    List.iter
      (fun (_, srv, thread) ->
        Server.stop srv;
        (try Thread.join thread with _ -> ()))
      backends;
    json
  in
  let solo = run_fleet ~label:"1-backend" ~n_backends:1 ~failover:false in
  let fleet = run_fleet ~label:"3-backend" ~n_backends:3 ~failover:true in
  let json = Json.Obj [ ("solo", solo); ("fleet", fleet) ] in
  let oc = open_out "BENCH_CLUSTER.json" in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote BENCH_CLUSTER.json\n\n"

(* ------------------------------------------------------------------ *)
(* batch: the fused multi-spec synthesis pass *)

let batch_bench () =
  header "batch: fused k=10..13 hybrid pass vs summed per-spec work lists";
  let ks = [ 10; 11; 12; 13 ] in
  let specs = List.map (fun k -> Spec.paper_case ~k) ks in
  let obs = Obs.in_memory () in
  let b =
    Optimize.run_batch ~mode:`Hybrid ~seed:11 ~attempts:3
      ~jobs:!jobs_requested ~obs specs
  in
  trace_events := !trace_events @ Obs.Sink.drain obs.Obs.sink;
  Printf.printf
    "[batch %s: %d job occurrences fused into %d distinct syntheses \
     (%d shared), %.0f s on %d domain(s)]\n%!"
    (String.concat "," (List.map string_of_int ks))
    b.Optimize.job_occurrences b.Optimize.distinct_syntheses
    (b.Optimize.job_occurrences - b.Optimize.distinct_syntheses)
    b.Optimize.batch_wall_s b.Optimize.batch_domains;
  List.iter2
    (fun k r -> record_run (Printf.sprintf "batch-%dbit" k) r)
    ks b.Optimize.batch_runs

(* ------------------------------------------------------------------ *)
(* pareto: the multi-objective (k, fs) grid driver.  One fused batch
   over the whole grid, FoM front table on stdout, full payload (the
   same bytes the daemon's pareto verb serves) in BENCH_PARETO.json. *)

let pareto_bench () =
  header "pareto: fused (k, fs) grid, FoM Pareto front";
  let ks = [ 10; 11; 12; 13 ] and fs_mhz = [ 20.0; 40.0 ] in
  let obs = Obs.in_memory () in
  let fr =
    Front.search ~mode:`Hybrid ~seed:11 ~attempts:3 ~jobs:!jobs_requested ~obs
      ~ks ~fs_mhz ()
  in
  trace_events := !trace_events @ Obs.Sink.drain obs.Obs.sink;
  print_string (Front.render fr);
  Printf.printf
    "[pareto %dx%d grid: %d job occurrences fused into %d distinct syntheses \
     (%d shared), %d front points, %.0f s on %d domain(s)]\n%!"
    (List.length ks) (List.length fs_mhz) fr.Front.job_occurrences
    fr.Front.distinct_syntheses
    (fr.Front.job_occurrences - fr.Front.distinct_syntheses)
    (List.length fr.Front.front) fr.Front.front_wall_s fr.Front.front_domains;
  List.iter
    (fun (p : Front.point) ->
      record_run
        (Printf.sprintf "pareto-%dbit-%gMHz" p.Front.pt_k p.Front.pt_fs_mhz)
        p.Front.pt_run)
    fr.Front.points;
  let oc = open_out "BENCH_PARETO.json" in
  output_string oc (Json.to_string (Codec.pareto_payload fr));
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote BENCH_PARETO.json\n\n"

(* ------------------------------------------------------------------ *)
(* sim: simulation-mode solver benchmark.  Each target runs under three
   modes — the dense oracle on the fixed grid, the sparse solver on the
   same grid (must match to solver noise), and the sparse solver under
   adaptive LTE stepping (the default everywhere).  A DC-evaluator leg
   replays an annealing-style candidate sweep under both backends and
   records the selected optimum from each, which CI asserts are
   byte-identical.  Results land in BENCH_SIM.json. *)

type sim_mode = {
  mode_name : string;
  backend : Mna.backend;
  control : Transient.control;
}

let sim_modes =
  [
    { mode_name = "dense-fixed"; backend = `Dense; control = Transient.Fixed };
    { mode_name = "sparse-fixed"; backend = `Sparse; control = Transient.Fixed };
    { mode_name = "sparse-adaptive"; backend = `Sparse;
      control = Transient.Lte Transient.default_lte };
  ]

let sim_proc = Adc_circuit.Process.c025

(* a long RC ladder: the sparse win grows with unknown count (dense LU is
   O(n^3) per Newton iteration, the ladder factors in O(n)) *)
let sim_rc_ladder sections () =
  let nl = Netlist.create sim_proc in
  let nodes =
    Array.init (sections + 1) (fun i -> Netlist.node nl (Printf.sprintf "n%d" i))
  in
  Netlist.vsource nl "vs" nodes.(0) Netlist.ground (Stimulus.step ~from:0.0 ~to_:1.0 ());
  for i = 0 to sections - 1 do
    Netlist.resistor nl (Printf.sprintf "r%d" i) nodes.(i) nodes.(i + 1) 1000.0;
    Netlist.capacitor nl (Printf.sprintf "c%d" i) nodes.(i + 1) Netlist.ground 1e-12
  done;
  nl

(* the switched-capacitor charge-redistribution bench from the tests:
   small, but full of switch flips the step controller must hit *)
let sim_switched_cap () =
  let nl = Netlist.create sim_proc in
  let a = Netlist.node nl "a" and b = Netlist.node nl "b" and src = Netlist.node nl "src" in
  Netlist.vsource nl "vs" src Netlist.ground (Stimulus.Dc 2.0);
  Netlist.switch nl "sw_chg" src a ~r_on:10.0 ~r_off:1e13 ~closed_at:(fun t -> t < 1e-9);
  Netlist.capacitor nl "c1" a Netlist.ground 1e-12;
  Netlist.switch nl "sw_share" a b ~r_on:10.0 ~r_off:1e13 ~closed_at:(fun t -> t > 2e-9);
  Netlist.capacitor nl "c2" b Netlist.ground 1e-12;
  Netlist.resistor nl "bleed" b Netlist.ground 1e6;
  nl

let sim_transient_target ~name ~build ~t_stop ~dt =
  let unknowns = Netlist.unknown_count (build ()) in
  let nnz = Mna.ctx_nnz (Mna.context (build ())) in
  let dense_wall = ref 0.0 and dense_wave = ref None in
  let rows =
    List.map
      (fun m ->
        let nl = build () in
        let t0 = Unix.gettimeofday () in
        let res =
          Transient.run_with_stats ~control:m.control ~backend:m.backend nl ~t_stop ~dt
        in
        let wall = Unix.gettimeofday () -. t0 in
        match res with
        | Error e -> failwith (Printf.sprintf "sim %s/%s: %s" name m.mode_name e)
        | Ok (w, st) ->
          let diff =
            match !dense_wave with
            | None ->
              dense_wall := wall;
              dense_wave := Some w;
              0.0
            | Some wd ->
              let d = ref 0.0 in
              Array.iteri
                (fun i row ->
                  Array.iteri
                    (fun j v ->
                      d := Float.max !d (Float.abs (v -. wd.Transient.data.(i).(j))))
                    row)
                w.Transient.data;
              !d
          in
          Printf.printf
            "  %-14s %-16s %8.4f s  %5d newton  %4d+%d steps  diff %.3g\n%!" name
            m.mode_name wall st.Transient.newton_iterations st.Transient.accepted_steps
            st.Transient.rejected_steps diff;
          let solver_fields =
            match st.Transient.solver with
            | None -> []
            | Some s ->
              [ ("analyses", Json.Int s.Sparse.analyses);
                ("refactorizations", Json.Int s.Sparse.refactorizations);
                ("solves", Json.Int s.Sparse.solves) ]
          in
          ( m.mode_name,
            wall,
            Json.Obj
              ([ ("mode", Json.String m.mode_name);
                 ("wall_s", Json.Float wall);
                 ("newton_iterations", Json.Int st.Transient.newton_iterations);
                 ("accepted_steps", Json.Int st.Transient.accepted_steps);
                 ("rejected_steps", Json.Int st.Transient.rejected_steps);
                 ("max_abs_diff_vs_dense", Json.Float diff) ]
              @ solver_fields) ))
      sim_modes
  in
  let wall_of mode = match List.find_opt (fun (n, _, _) -> n = mode) rows with
    | Some (_, w, _) -> w
    | None -> nan
  in
  let speedup mode = !dense_wall /. Float.max 1e-9 (wall_of mode) in
  Json.Obj
    [ ("name", Json.String name);
      ("unknowns", Json.Int unknowns);
      ("jacobian_nnz", Json.Int nnz);
      ("modes", Json.List (List.map (fun (_, _, j) -> j) rows));
      ("speedup_sparse_fixed_vs_dense", Json.Float (speedup "sparse-fixed"));
      ("speedup_sparse_adaptive_vs_dense", Json.Float (speedup "sparse-adaptive")) ]

(* annealing-style candidate sweep: the evaluator-calls-dominated shape
   the synthesis loop spends its time in.  Same fixed candidate list
   under both backends; the selected optimum must match byte for byte. *)
let sim_dc_evaluator () =
  let spec13 = Spec.paper_case ~k:13 in
  let req = Spec.stage_requirements spec13 { Spec.m = 3; input_bits = 11 } in
  let base = Synthesizer.initial_sizing spec13.Spec.process req in
  let candidates =
    List.init 12 (fun i ->
        let s = 0.7 +. (0.06 *. float_of_int i) in
        { base with
          Ota.w_pair = base.Ota.w_pair *. s;
          w_cs = base.Ota.w_cs *. s;
          c_comp = base.Ota.c_comp *. (0.8 +. (0.04 *. float_of_int i)) })
  in
  let eval_all backend =
    let t0 = Unix.gettimeofday () in
    let metrics =
      List.map
        (fun sz ->
          fst
            (Synthesizer.evaluate_sizing ~backend ~kind:Synthesizer.Hybrid
               spec13.Spec.process req sz))
        candidates
    in
    (metrics, Unix.gettimeofday () -. t0)
  in
  let optimum metrics =
    (* lowest power among candidates with all devices saturated; the
       selection (not the float prints) is what must agree, but the
       rendered string is the artifact CI compares *)
    let get name m = Option.value ~default:nan (List.assoc_opt name m) in
    let best = ref (-1) and best_power = ref infinity in
    List.iteri
      (fun i m ->
        let power = get "power" m and saturated = get "saturated" m in
        if saturated > 0.5 && power < !best_power then begin
          best := i;
          best_power := power
        end)
      metrics;
    if !best < 0 then "none"
    else
      let c = List.nth candidates !best in
      Printf.sprintf "candidate-%02d w_pair=%.4g c_comp=%.4g power=%.6g" !best
        c.Ota.w_pair c.Ota.c_comp !best_power
  in
  let dense_metrics, dense_wall = eval_all `Dense in
  let sparse_metrics, sparse_wall = eval_all `Sparse in
  let opt_dense = optimum dense_metrics and opt_sparse = optimum sparse_metrics in
  Printf.printf "  dc-evaluator   dense  %8.4f s   sparse %8.4f s  (%.2fx)\n%!"
    dense_wall sparse_wall (dense_wall /. Float.max 1e-9 sparse_wall);
  Printf.printf "    optimum dense:  %s\n    optimum sparse: %s\n%!" opt_dense opt_sparse;
  Json.Obj
    [ ("candidates", Json.Int (List.length candidates));
      ("dense_wall_s", Json.Float dense_wall);
      ("sparse_wall_s", Json.Float sparse_wall);
      ("speedup", Json.Float (dense_wall /. Float.max 1e-9 sparse_wall));
      ("optimum_dense", Json.String opt_dense);
      ("optimum_sparse", Json.String opt_sparse);
      ("optimum_identical", Json.Bool (String.equal opt_dense opt_sparse)) ]

(* the large-swing settling verification leg, timed end to end (DC
   operating point + transient) per mode *)
let sim_ota_settling () =
  let spec13 = Spec.paper_case ~k:13 in
  let req = Spec.stage_requirements spec13 { Spec.m = 3; input_bits = 11 } in
  let caps = req.Mdac_stage.caps in
  let run m =
    let t0 = Unix.gettimeofday () in
    let res =
      Ota.settling_bench ~backend:m.backend ~control:m.control spec13.Spec.process
        Ota.default_sizing ~gain:caps.Adc_mdac.Caps.gain
        ~c_feedback:caps.Adc_mdac.Caps.c_feedback ~c_load:req.Mdac_stage.c_load_ext
        ~v_step:(req.Mdac_stage.spec.Mdac_stage.vref_pp /. 4.0)
        ~t_window:(2.0 *. req.Mdac_stage.t_settle)
        ~tol:req.Mdac_stage.settle_tol
    in
    let wall = Unix.gettimeofday () -. t0 in
    match res with
    | Error e -> failwith ("sim ota-settling/" ^ m.mode_name ^ ": " ^ e)
    | Ok s -> (wall, s.Ota.final_value)
  in
  let rows = List.map (fun m -> (m, run m)) sim_modes in
  let dense_wall, dense_final =
    snd (List.hd rows)
  in
  Json.Obj
    [ ("name", Json.String "ota-settling");
      ("modes",
       Json.List
         (List.map
            (fun (m, (wall, final)) ->
              Printf.printf "  %-14s %-16s %8.4f s  final %.6f V\n%!" "ota-settling"
                m.mode_name wall final;
              Json.Obj
                [ ("mode", Json.String m.mode_name);
                  ("wall_s", Json.Float wall);
                  ("final_value", Json.Float final);
                  ("final_diff_vs_dense", Json.Float (Float.abs (final -. dense_final))) ])
            rows));
      ("speedup_sparse_adaptive_vs_dense",
       Json.Float
         (let _, (wall, _) =
            List.nth rows 2
          in
          dense_wall /. Float.max 1e-9 wall)) ]

let sim_bench () =
  header "sim: solver benchmark - dense oracle vs sparse, fixed vs adaptive dt";
  let ladder =
    sim_transient_target ~name:"rc-ladder-160" ~build:(sim_rc_ladder 160) ~t_stop:400e-9
      ~dt:1e-9
  in
  let sc =
    sim_transient_target ~name:"switched-cap" ~build:sim_switched_cap ~t_stop:20e-9
      ~dt:20e-12
  in
  let settling = sim_ota_settling () in
  let dc = sim_dc_evaluator () in
  let headline =
    match ladder with
    | Json.Obj fields -> (
      match List.assoc "speedup_sparse_adaptive_vs_dense" fields with
      | Json.Float f -> f
      | _ -> nan)
    | _ -> nan
  in
  let json =
    Json.Obj
      [ ("targets", Json.List [ ladder; sc; settling ]);
        ("dc_evaluator", dc);
        ("headline_speedup", Json.Float headline);
        ("shared_analyses", Json.Int (Mna.shared_analyses ())) ]
  in
  let oc = open_out "BENCH_SIM.json" in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf
    "  headline: sparse+adaptive is %.1fx the dense fixed-grid oracle on the ladder\n" headline;
  Printf.printf "  (%d symbolic analyses published process-wide)\n" (Mna.shared_analyses ());
  Printf.printf "wrote BENCH_SIM.json\n\n"

(* ------------------------------------------------------------------ *)
(* netlist: SPICE interop throughput plus the price of a process swap.
   A ~1k-device mixed deck (RC rungs, one mosfet and one switch each) is
   emitted, re-parsed and re-emitted in timed loops, and the emitted
   bytes are checked to be a parse/emit fixpoint.  Then the same
   equation-mode optimize runs under the built-in card and under the
   0.18 um card from share/processes/ to show a card swap is a flag, not
   a rebuild.  Results land in BENCH_NETLIST.json. *)

let netlist_bench () =
  header "netlist: SPICE parse/emit throughput, process-card swap";
  let sections = 250 in
  let nl = Netlist.create sim_proc in
  let nodes =
    Array.init (sections + 1) (fun i -> Netlist.node nl (Printf.sprintf "n%d" i))
  in
  for i = 0 to sections - 1 do
    Netlist.resistor nl (Printf.sprintf "r%d" i) nodes.(i) nodes.(i + 1) 100.0;
    Netlist.capacitor nl (Printf.sprintf "c%d" i) nodes.(i + 1) Netlist.ground 1e-12;
    Netlist.mosfet nl (Printf.sprintf "m%d" i) ~d:nodes.(i + 1) ~g:nodes.(i)
      ~s:Netlist.ground ~b:Netlist.ground Adc_circuit.Process.Nmos ~w:2e-6
      ~l:5e-7 ();
    let on = i mod 2 = 0 in
    Netlist.switch nl (Printf.sprintf "s%d" i) nodes.(i) Netlist.ground
      ~r_on:50.0 ~r_off:1e9 ~closed_at:(fun _ -> on)
  done;
  Netlist.vsource nl "vin" nodes.(0) Netlist.ground
    (Stimulus.Sine { offset = 0.0; amplitude = 1.0; freq = 1e6; phase = 0.0 });
  let deck = Adc_spice.emit nl in
  let devices = List.length (Netlist.devices nl) in
  let parse_exn text =
    match Adc_spice.parse text with
    | Ok (nl, _) -> nl
    | Error e -> failwith (Adc_spice.error_to_string e)
  in
  let reparsed = parse_exn deck in
  if Adc_spice.emit reparsed <> deck then
    failwith "netlist bench: emitted deck is not a parse/emit fixpoint";
  let iters = 50 in
  let timed f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      f ()
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int iters
  in
  let parse_s = timed (fun () -> ignore (parse_exn deck)) in
  let emit_s = timed (fun () -> ignore (Adc_spice.emit reparsed)) in
  let mb = float_of_int (String.length deck) /. 1048576.0 in
  Printf.printf
    "  deck: %d devices, %d bytes\n  parse: %.3f ms/pass (%.0f devices/s, %.1f MB/s)\n  emit:  %.3f ms/pass (%.0f devices/s, %.1f MB/s)\n"
    devices (String.length deck) (parse_s *. 1e3)
    (float_of_int devices /. parse_s) (mb /. parse_s) (emit_s *. 1e3)
    (float_of_int devices /. emit_s) (mb /. emit_s);
  (* the process swap: same spec, pluggable card *)
  let card =
    let rec find dir n =
      let cand = Filename.concat dir "share/processes/c018.sp" in
      if Sys.file_exists cand || n = 0 then cand
      else find (Filename.concat dir Filename.parent_dir_name) (n - 1)
    in
    find (Filename.dirname Sys.executable_name) 6
  in
  let c018 =
    match Adc_spice.load_process_file card with
    | Ok p -> p
    | Error msg -> failwith msg
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let r25, dt25 =
    time (fun () -> Optimize.run ~mode:`Equation (Spec.make ~k:12 ~fs:40e6 ()))
  in
  let r18, dt18 =
    time (fun () ->
        Optimize.run ~mode:`Equation (Spec.make ~process:c018 ~k:12 ~fs:40e6 ()))
  in
  record_run "netlist-optimize-c025" r25;
  record_run "netlist-optimize-c018" r18;
  let payloads_differ =
    Codec.optimize_payload r25 <> Codec.optimize_payload r18
  in
  Printf.printf
    "  optimize 12-bit equation: %.3f s built-in card, %.3f s 0.18 um card (results %s)\n"
    dt25 dt18
    (if payloads_differ then "differ, as they must" else "IDENTICAL - suspicious");
  let json =
    Json.Obj
      [ ("deck",
         Json.Obj
           [ ("devices", Json.Int devices);
             ("bytes", Json.Int (String.length deck));
             ("iterations", Json.Int iters) ]);
        ("parse",
         Json.Obj
           [ ("seconds_per_pass", Json.Float parse_s);
             ("devices_per_s", Json.Float (float_of_int devices /. parse_s));
             ("mb_per_s", Json.Float (mb /. parse_s)) ]);
        ("emit",
         Json.Obj
           [ ("seconds_per_pass", Json.Float emit_s);
             ("devices_per_s", Json.Float (float_of_int devices /. emit_s));
             ("mb_per_s", Json.Float (mb /. emit_s)) ]);
        ("roundtrip_fixpoint", Json.Bool true);
        ("process_swap",
         Json.Obj
           [ ("k", Json.Int 12);
             ("fs_mhz", Json.Float 40.0);
             ("mode", Json.String "equation");
             ("builtin_seconds", Json.Float dt25);
             ("c018_seconds", Json.Float dt18);
             ("payloads_differ", Json.Bool payloads_differ) ]) ]
  in
  let oc = open_out "BENCH_NETLIST.json" in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote BENCH_NETLIST.json\n\n"

(* ------------------------------------------------------------------ *)
(* entry point *)

let () =
  (* argv: [target] [-j N | --jobs N], in any order *)
  let target = ref None in
  let rec parse i =
    if i < Array.length Sys.argv then begin
      (match Sys.argv.(i) with
      | "-j" | "--jobs" when i + 1 < Array.length Sys.argv ->
        jobs_requested := Stdlib.max 1 (int_of_string Sys.argv.(i + 1));
        parse (i + 2)
      | arg ->
        target := Some arg;
        parse (i + 1))
    end
  in
  parse 1;
  at_exit write_summary;
  at_exit write_trace;
  let what = Option.value !target ~default:"all" in
  match what with
  | "fig1" -> fig1 ~hybrid:true ()
  | "fig2" -> fig2 ~hybrid:true ()
  | "fig3" -> fig3 ~hybrid:true ()
  | "retarget" -> retarget ()
  | "ablation" -> ablation ()
  | "extensions" -> extensions ()
  | "overhead" -> overhead ()
  | "micro" -> micro ()
  | "serve" -> serve_bench ()
  | "cluster" -> cluster_bench ()
  | "batch" -> batch_bench ()
  | "pareto" -> pareto_bench ()
  | "sim" -> sim_bench ()
  | "netlist" -> netlist_bench ()
  | "fast" ->
    fig1 ~hybrid:false ();
    fig2 ~hybrid:false ();
    fig3 ~hybrid:false ();
    behavioral_check ()
  | "all" ->
    fig1 ~hybrid:true ();
    fig2 ~hybrid:true ();
    fig3 ~hybrid:true ();
    retarget ();
    ablation ();
    extensions ();
    behavioral_check ();
    micro ()
  | other ->
    Printf.eprintf
      "unknown target %S (use fig1|fig2|fig3|retarget|ablation|extensions|overhead|micro|serve|cluster|batch|pareto|sim|netlist|fast|all)\n" other;
    exit 1
