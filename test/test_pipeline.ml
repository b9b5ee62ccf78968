(* Tests for the paper's core contribution: candidate enumeration, spec
   translation, power ranking, the topology optimizer, decision rules,
   and the behavioral converter with digital correction. *)

module Rng = Adc_numerics.Rng
module Config = Adc_pipeline.Config
module Spec = Adc_pipeline.Spec
module Power_model = Adc_pipeline.Power_model
module Optimize = Adc_pipeline.Optimize
module Rules = Adc_pipeline.Rules
module Fom = Adc_pipeline.Fom
module Front = Adc_pipeline.Front
module Behavioral = Adc_pipeline.Behavioral
module Metrics = Adc_pipeline.Metrics
module Report = Adc_pipeline.Report

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0


(* ------------------------------------------------------------------ *)
(* Config: the paper's Section 2 enumeration *)

let test_enumeration_13bit_is_papers_seven () =
  let cands = Config.enumerate_leading ~k:13 ~backend_bits:7 in
  let strings = List.map Config.to_string cands in
  Alcotest.(check int) "exactly seven candidates" 7 (List.length cands);
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " enumerated") true (List.mem expected strings))
    [ "4-4"; "4-3-2"; "4-2-2-2"; "3-3-3"; "3-3-2-2"; "3-2-2-2-2"; "2-2-2-2-2-2" ]

let test_enumeration_counts_10_to_12 () =
  let count k = List.length (Config.enumerate_leading ~k ~backend_bits:7) in
  Alcotest.(check int) "10-bit: 3 candidates" 3 (count 10);
  Alcotest.(check int) "11-bit: 4 candidates" 4 (count 11);
  Alcotest.(check int) "12-bit: 5 candidates" 5 (count 12)

let prop_enumeration_invariants =
  QCheck2.Test.make ~name:"enumeration invariants" ~count:50
    QCheck2.Gen.(int_range 8 15)
    (fun k ->
      let cands = Config.enumerate_leading ~k ~backend_bits:7 in
      cands <> []
      && List.for_all
           (fun c ->
             Config.is_valid c
             && Config.effective_bits c = k - 7
             && List.for_all (fun m -> m >= 2 && m <= 4) c)
           cands
      (* no duplicates *)
      && List.length (List.sort_uniq compare cands) = List.length cands)

let test_config_string_round_trip () =
  let c = [ 4; 3; 2 ] in
  Alcotest.(check string) "to_string" "4-3-2" (Config.to_string c);
  Alcotest.(check bool) "round trip" true (Config.of_string "4-3-2" = c);
  Alcotest.(check bool) "bad input rejected" true
    (try
       ignore (Config.of_string "4-x-2");
       false
     with Invalid_argument _ -> true)

let test_config_extend_with_twos () =
  let full = Config.extend_with_twos ~k:13 [ 4; 3; 2 ] in
  Alcotest.(check int) "full pipeline resolves 13 bits" 13 (Config.effective_bits full);
  Alcotest.(check string) "backend is all 1.5-bit stages" "4-3-2-2-2-2-2-2-2-2"
    (Config.to_string full)

let test_config_stage_input_bits () =
  let jobs = Config.stage_input_bits ~k:13 [ 4; 3; 2 ] in
  Alcotest.(check (list (pair int int))) "accuracy chain"
    [ (4, 13); (3, 10); (2, 8) ] jobs

let test_config_is_valid () =
  Alcotest.(check bool) "non-increasing ok" true (Config.is_valid [ 4; 3; 2 ]);
  Alcotest.(check bool) "increasing rejected" false (Config.is_valid [ 2; 3 ]);
  Alcotest.(check bool) "out of range rejected" false (Config.is_valid [ 5; 2 ])

(* ------------------------------------------------------------------ *)
(* Spec: job sharing *)

let test_distinct_jobs_13bit () =
  let spec = Spec.paper_case ~k:13 in
  let cands = Config.enumerate_leading ~k:13 ~backend_bits:7 in
  let jobs = Spec.distinct_jobs spec cands in
  (* the paper reports 11 shared MDACs; our sharing rule (m, input bits)
     yields 12 — see DESIGN.md *)
  Alcotest.(check int) "12 distinct jobs" 12 (List.length jobs);
  Alcotest.(check bool) "m4@13 present" true
    (List.exists (fun j -> j.Spec.m = 4 && j.Spec.input_bits = 13) jobs)

let test_job_requirements_sane () =
  let spec = Spec.paper_case ~k:13 in
  let req = Spec.stage_requirements spec { Spec.m = 4; input_bits = 13 } in
  Alcotest.(check bool) "gbw around a GHz" true
    (req.Adc_mdac.Mdac_stage.gbw_min_hz > 0.5e9
    && req.Adc_mdac.Mdac_stage.gbw_min_hz < 2.5e9);
  Alcotest.(check bool) "front array above 5 pF" true
    (req.Adc_mdac.Mdac_stage.caps.Adc_mdac.Caps.c_total > 5e-12)

let test_load_cap_decreases_with_backend () =
  let spec = Spec.paper_case ~k:13 in
  Alcotest.(check bool) "lighter load at lower accuracy" true
    (Spec.load_cap_of_bits spec 8 < Spec.load_cap_of_bits spec 11)

(* ------------------------------------------------------------------ *)
(* Power model + equation-mode optimizer: the paper's headline numbers *)

let test_equation_optimum_4_3_2_at_13bit () =
  let run = Optimize.run ~mode:`Equation (Spec.paper_case ~k:13) in
  Alcotest.(check string) "Fig. 2: 4-3-2 optimal at 13 bits" "4-3-2"
    (Config.to_string (Optimize.optimum_config run))

let test_equation_optima_match_paper_all_resolutions () =
  List.iter
    (fun (k, expected) ->
      let run = Optimize.run ~mode:`Equation (Spec.paper_case ~k) in
      Alcotest.(check string)
        (Printf.sprintf "paper optimum at %d bits" k)
        expected
        (Config.to_string (Optimize.optimum_config run)))
    [ (10, "3-2"); (11, "4-2"); (12, "4-2-2"); (13, "4-3-2") ]

let test_stage1_power_mostly_independent_of_m1 () =
  (* the paper's Fig. 1 observation *)
  let run = Optimize.run ~mode:`Equation (Spec.paper_case ~k:13) in
  let stage1_powers =
    List.filter_map
      (fun (cr : Optimize.config_result) ->
        match cr.Optimize.stages with s1 :: _ -> Some s1.Optimize.p_stage | [] -> None)
      run.Optimize.candidates
  in
  let lo = List.fold_left Float.min infinity stage1_powers in
  let hi = List.fold_left Float.max 0.0 stage1_powers in
  Alcotest.(check bool)
    (Printf.sprintf "stage-1 spread %.0f%% below 35%%" (100.0 *. ((hi /. lo) -. 1.0)))
    true
    (hi /. lo < 1.35)

let test_classical_1p5bit_is_worst_at_13bit () =
  let run = Optimize.run ~mode:`Equation (Spec.paper_case ~k:13) in
  let last = List.nth run.Optimize.candidates (List.length run.Optimize.candidates - 1) in
  Alcotest.(check string) "2-2-2-2-2-2 costs the most" "2-2-2-2-2-2"
    (Config.to_string last.Optimize.config)

let test_last_stage_two_bits_at_all_resolutions () =
  List.iter
    (fun k ->
      let run = Optimize.run ~mode:`Equation (Spec.paper_case ~k) in
      let c = Optimize.optimum_config run in
      Alcotest.(check int)
        (Printf.sprintf "2-bit last stage at %d bits" k)
        2
        (List.nth c (List.length c - 1)))
    [ 11; 12; 13 ]

let prop_power_monotone_in_resolution =
  QCheck2.Test.make ~name:"optimal power grows with resolution" ~count:8
    QCheck2.Gen.(int_range 9 12)
    (fun k ->
      let p k = (Optimize.run ~mode:`Equation (Spec.paper_case ~k)).Optimize.optimum.Optimize.p_total in
      p (k + 1) > p k)

let test_full_converter_budget () =
  let spec = Spec.paper_case ~k:13 in
  let f = Power_model.full_converter spec (Config.of_string "4-3-2") in
  Alcotest.(check bool) "sha positive" true (f.Power_model.p_sha > 0.0);
  Alcotest.(check int) "three front stages" 3 (List.length f.Power_model.front);
  (* the backend resolves the remaining 7 bits with 2-bit stages *)
  Alcotest.(check int) "seven backend stages" 7 (List.length f.Power_model.backend);
  let front_sum =
    List.fold_left (fun a (s : Power_model.stage_power) -> a +. s.Power_model.p_stage)
      0.0 f.Power_model.front
  in
  Alcotest.(check bool) "full exceeds front" true (f.Power_model.p_full > front_sum);
  (* the S/H and the leading stages carry the budget; the 7-bit backend
     is marginal (the paper's reason for enumerating only the front) *)
  let backend_sum =
    List.fold_left (fun a (s : Power_model.stage_power) -> a +. s.Power_model.p_stage)
      0.0 f.Power_model.backend
  in
  Alcotest.(check bool) "backend is marginal" true
    (backend_sum < 0.1 *. f.Power_model.p_full)

let test_power_model_rank_is_sorted () =
  let spec = Spec.paper_case ~k:13 in
  let ranked = Power_model.rank spec (Config.enumerate_leading ~k:13 ~backend_bits:7) in
  let rec sorted = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> a.Power_model.p_total <= b.Power_model.p_total && sorted rest
  in
  Alcotest.(check bool) "ascending" true (sorted ranked)

let test_hybrid_mode_smoke () =
  (* smallest hybrid run: an 8-bit converter has a single 2-bit leading
     stage, so the whole synthesis loop runs once *)
  let run =
    (* attempts:2 = the deterministic pattern descent plus one annealing
       attempt (an explicit budget caps the descent attempt as well) *)
    Optimize.run ~mode:`Hybrid ~seed:3 ~attempts:2
      ~budget:{ Adc_synth.Synthesizer.sa_iterations = 40; pattern_evals = 60; space_factor = 1.0 }
      (Spec.paper_case ~k:8)
  in
  Alcotest.(check string) "single candidate" "2" (Config.to_string (Optimize.optimum_config run));
  Alcotest.(check bool) "synthesis ran" true (run.Optimize.synthesis_evaluations > 50);
  match run.Optimize.optimum.Optimize.stages with
  | [ s ] ->
    Alcotest.(check bool) "solution attached" true (s.Optimize.solution <> None);
    Alcotest.(check bool) "stage power positive" true (s.Optimize.p_stage > 0.0)
  | _ -> Alcotest.fail "expected exactly one stage"

(* ------------------------------------------------------------------ *)
(* Rules: Fig. 3 *)

let test_rules_sweep () =
  let chart =
    Rules.sweep ~mode:`Equation ~k_values:[ 10; 11; 12; 13 ] (fun ~k -> Spec.paper_case ~k)
  in
  Alcotest.(check bool) "last stage rule" true chart.Rules.last_stage_always_two;
  Alcotest.(check bool) "monotone rule" true chart.Rules.monotone_non_increasing;
  Alcotest.(check bool) "validity assertion" true chart.Rules.all_valid;
  Alcotest.(check (list (pair int int))) "first-stage resolutions"
    [ (10, 3); (11, 4); (12, 4); (13, 4) ]
    chart.Rules.first_stage_rule;
  let rendered = Rules.render chart in
  Alcotest.(check bool) "render mentions the 4-bit rule" true
    (contains rendered "4-bit first stage")

(* regression: [Rules.sweep] had no [?attempts] and ran every resolution
   at the default of 3, so a sweep answered a different optimum than
   [optimize] at the attempts it was asked for *)
let test_rules_sweep_honours_attempts () =
  let budget =
    { Adc_synth.Synthesizer.sa_iterations = 12; pattern_evals = 20; space_factor = 0.6 }
  in
  let ks = [ 8; 9 ] in
  let chart_of_solo_runs attempts =
    Rules.of_runs
      (List.map
         (fun k ->
           Optimize.run ~mode:`Hybrid ~seed:11 ~attempts ~budget (Spec.paper_case ~k))
         ks)
  in
  let rows (c : Rules.chart) =
    List.map
      (fun (r : Rules.optimum_row) ->
        (r.Rules.k, Config.to_string r.Rules.config, r.Rules.p_total))
      c.Rules.rows
  in
  let expected = chart_of_solo_runs 1 in
  let swept =
    Rules.sweep ~mode:`Hybrid ~seed:11 ~attempts:1 ~budget ~k_values:ks (fun ~k ->
        Spec.paper_case ~k)
  in
  Alcotest.(check (list (triple int string (float 0.0))))
    "sweep ~attempts:1 == of_runs over solo attempts:1 runs" (rows expected)
    (rows swept);
  Alcotest.(check bool) "the whole chart agrees" true (expected = swept);
  (* the test can only see the bug if attempts changes the answer here *)
  Alcotest.(check bool) "attempts 1 and 3 give different charts" false
    (rows (chart_of_solo_runs 3) = rows swept)

let test_rules_derive_separates_monotonicity_from_validity () =
  (* [5;2] is pairwise non-increasing but violates the m-bounds: the two
     chart booleans must disagree (the old code conflated them by
     computing the monotone rule as full [Config.is_valid]) *)
  let row =
    { Rules.k = 12; config = [ 5; 2 ]; p_total = 1e-3; runner_up = None; margin = 0.0 }
  in
  let chart = Rules.derive [ row ] in
  Alcotest.(check bool) "pairwise monotone" true chart.Rules.monotone_non_increasing;
  Alcotest.(check bool) "but not valid" false chart.Rules.all_valid;
  Alcotest.(check bool) "summary warns about the m-bounds" true
    (List.exists (fun l -> contains l "m-bounds") chart.Rules.summary);
  (* and the converse: digits in range but increasing down the pipeline *)
  let chart2 = Rules.derive [ { row with Rules.config = [ 2; 3 ] } ] in
  Alcotest.(check bool) "increasing optimum breaks the monotone rule" false
    chart2.Rules.monotone_non_increasing

let test_rules_derive_empty_is_total () =
  (* a sweep cancelled before any resolution completed: derive must be
     total, with rule booleans false rather than vacuously true *)
  let chart = Rules.derive [] in
  Alcotest.(check bool) "no rows" true (chart.Rules.rows = []);
  Alcotest.(check bool) "rule booleans false" true
    (not chart.Rules.last_stage_always_two
    && not chart.Rules.monotone_non_increasing
    && not chart.Rules.all_valid);
  Alcotest.(check bool) "summary carries the empty-chart note" true
    (List.exists (fun l -> contains l "empty") chart.Rules.summary);
  Alcotest.(check bool) "render is total too" true
    (contains (Rules.render chart) "empty")

(* ------------------------------------------------------------------ *)
(* Figures of merit *)

let test_fom_hand_computed () =
  (* P = 10 mW at 10 bits, 40 MS/s:
     E/step = 0.01 / (1024 * 40e6)      = 2.44140625e-13 J = 244.140625 fJ
     Schreier = 6.02*10 + 1.76 + 10*log10(40e6 / 2 / 0.01) = 154.9703 dB *)
  let f = Fom.make ~p_total:0.01 ~k:10 ~fs:40e6 in
  Alcotest.(check (float 1e-25)) "energy per conversion-step [J]"
    2.44140625e-13 f.Fom.energy_per_step_j;
  Alcotest.(check (float 1e-9)) "Walden FoM [fJ/step]" 244.140625
    f.Fom.walden_fj_per_step;
  Alcotest.(check (float 1e-9)) "Schreier FoM [dB]" 154.97029995663983
    f.Fom.schreier_db;
  Alcotest.(check (float 0.0)) "power echoed" 0.01 f.Fom.p_total

let test_fom_rejects_nonsense () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "zero power" true
    (bad (fun () -> Fom.make ~p_total:0.0 ~k:10 ~fs:40e6));
  Alcotest.(check bool) "negative rate" true
    (bad (fun () -> Fom.make ~p_total:1.0 ~k:10 ~fs:(-1.0)));
  Alcotest.(check bool) "zero resolution" true
    (bad (fun () -> Fom.make ~p_total:1.0 ~k:0 ~fs:40e6))

let test_fom_of_run_consistent () =
  let run = Optimize.run ~mode:`Equation (Spec.paper_case ~k:10) in
  let f = Fom.of_run run in
  let expect =
    Fom.make ~p_total:run.Optimize.optimum.Optimize.p_total ~k:10
      ~fs:run.Optimize.spec.Spec.fs
  in
  Alcotest.(check (float 1e-12)) "of_run == make on the run's own numbers"
    expect.Fom.walden_fj_per_step f.Fom.walden_fj_per_step;
  Alcotest.(check bool) "render names both FoMs" true
    (contains (Fom.render f) "Walden" && contains (Fom.render f) "Schreier")

(* ------------------------------------------------------------------ *)
(* Pareto dominance and the front driver *)

(* small discrete ranges so duplicates, ties and actual dominance all
   occur often in random lists *)
let coord_gen =
  QCheck2.Gen.(
    map
      (fun ((k, fs), p) ->
        { Front.c_k = k; c_fs = 1e6 *. float_of_int fs; c_p = 1e-3 *. float_of_int p })
      (pair (pair (int_range 8 12) (int_range 1 4)) (int_range 1 6)))

let coords_gen = QCheck2.Gen.(list_size (int_range 1 12) coord_gen)

let prop_dominance_strict_partial_order =
  QCheck2.Test.make ~name:"dominance is irreflexive and antisymmetric" ~count:300
    QCheck2.Gen.(pair coord_gen coord_gen)
    (fun (a, b) ->
      (not (Front.dominates a a))
      && not (Front.dominates a b && Front.dominates b a))

let prop_front_points_mutually_nondominated =
  QCheck2.Test.make ~name:"no front point dominates another front point"
    ~count:300 coords_gen
    (fun coords ->
      let flags = Front.front_flags coords in
      let front =
        List.filteri (fun i _ -> List.nth flags i) coords
      in
      List.for_all
        (fun a -> List.for_all (fun b -> not (Front.dominates a b)) front)
        front)

let prop_pruned_points_dominated_by_front =
  QCheck2.Test.make
    ~name:"every pruned point is dominated by some front point" ~count:300
    coords_gen
    (fun coords ->
      let flags = Front.front_flags coords in
      let front = List.filteri (fun i _ -> List.nth flags i) coords in
      List.for_all2
        (fun c on_front ->
          on_front || List.exists (fun f -> Front.dominates f c) front)
        coords flags)

let test_front_equation_grid () =
  let streamed = ref [] in
  let fr =
    Front.search ~mode:`Equation
      ~on_point:(fun pt -> streamed := (pt.Front.pt_k, pt.Front.pt_fs_mhz) :: !streamed)
      ~ks:[ 10; 11 ] ~fs_mhz:[ 40.0; 20.0 ] ()
  in
  Alcotest.(check int) "four cells" 4 (List.length fr.Front.points);
  Alcotest.(check (list (pair int (float 0.0)))) "descending (k, fs) traversal"
    [ (11, 40.0); (11, 20.0); (10, 40.0); (10, 20.0) ]
    (List.map (fun p -> (p.Front.pt_k, p.Front.pt_fs_mhz)) fr.Front.points);
  (* equation-mode power grows with both k and fs, so no cell dominates
     another: the whole grid is the front *)
  Alcotest.(check int) "all four on the front" 4 (List.length fr.Front.front);
  Alcotest.(check (list (pair int (float 0.0))))
    "on_point streamed the front in traversal order"
    (List.map (fun p -> (p.Front.pt_k, p.Front.pt_fs_mhz)) fr.Front.front)
    (List.rev !streamed);
  List.iter
    (fun p ->
      let solo =
        Optimize.run ~mode:`Equation
          (Spec.make ~k:p.Front.pt_k ~fs:(p.Front.pt_fs_mhz *. 1e6) ())
      in
      Alcotest.(check (float 0.0)) "cell optimum == solo optimum"
        solo.Optimize.optimum.Optimize.p_total
        p.Front.pt_run.Optimize.optimum.Optimize.p_total;
      Alcotest.(check (float 1e-9)) "FoM attached from the cell's own run"
        (Fom.of_run p.Front.pt_run).Fom.schreier_db p.Front.pt_fom.Fom.schreier_db)
    fr.Front.points;
  Alcotest.(check bool) "counters cover every cell" true
    (fr.Front.job_occurrences = 0 && fr.Front.distinct_syntheses = 0);
  Alcotest.(check bool) "render stars the front" true
    (contains (Front.render fr) "*")

let test_front_rejects_bad_axes () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "empty ks" true
    (bad (fun () -> Front.search ~ks:[] ~fs_mhz:[ 40.0 ] ()));
  Alcotest.(check bool) "empty fs" true
    (bad (fun () -> Front.search ~ks:[ 10 ] ~fs_mhz:[] ()));
  Alcotest.(check bool) "non-positive fs" true
    (bad (fun () -> Front.search ~ks:[ 10 ] ~fs_mhz:[ 0.0 ] ()));
  Alcotest.(check bool) "resolution outside the model" true
    (bad (fun () -> Front.search ~ks:[ 7 ] ~fs_mhz:[ 40.0 ] ()))

(* ------------------------------------------------------------------ *)
(* Behavioral converter + digital correction *)

let ideal_adc k config = Behavioral.ideal (Spec.paper_case ~k) config

let test_behavioral_full_scale_codes () =
  let adc = ideal_adc 10 [ 4; 3; 2 ] in
  Alcotest.(check int) "bottom code" 0 (Behavioral.convert adc (-1.0));
  Alcotest.(check int) "top code" 1023 (Behavioral.convert adc 1.0);
  let mid = Behavioral.convert adc 0.0 in
  Alcotest.(check bool) "mid code near half scale" true (abs (mid - 512) <= 1)

let prop_behavioral_monotone =
  QCheck2.Test.make ~name:"ideal converter is monotone" ~count:200
    QCheck2.Gen.(pair (float_range (-0.99) 0.99) (float_range (-0.99) 0.99))
    (fun (v1, v2) ->
      let adc = ideal_adc 10 [ 3; 2 ] in
      let c1 = Behavioral.convert adc v1 and c2 = Behavioral.convert adc v2 in
      if v1 <= v2 then c1 <= c2 else c1 >= c2)

let prop_behavioral_code_error_below_lsb =
  QCheck2.Test.make ~name:"ideal converter quantizes within 1 LSB" ~count:300
    QCheck2.Gen.(float_range (-0.98) 0.98)
    (fun v ->
      let k = 12 in
      let adc = ideal_adc k [ 4; 3; 2 ] in
      let code = Behavioral.convert adc v in
      let lsb = 2.0 /. float_of_int (1 lsl k) in
      let v_code = (((float_of_int code +. 0.5) *. lsb) -. 1.0) in
      Float.abs (v_code -. v) <= lsb)

let test_behavioral_raw_codes_sane () =
  let adc = ideal_adc 13 [ 4; 3; 2 ] in
  let codes = Behavioral.raw_codes adc 0.3 in
  Alcotest.(check int) "three leading stages" 3 (List.length codes);
  List.iteri
    (fun i code ->
      let m = List.nth [ 4; 3; 2 ] i in
      Alcotest.(check bool) "code in range" true (code >= 0 && code <= (1 lsl m) - 2))
    codes

let test_digital_correction_absorbs_offsets () =
  (* comparator offsets inside the redundancy budget must not degrade
     static accuracy: that is the entire point of the 1-bit redundancy *)
  let spec = Spec.paper_case ~k:10 in
  let config = [ 3; 2 ] in
  let ideal = Behavioral.ideal spec config in
  let rng = Rng.create 77 in
  let budget = Adc_mdac.Comparator.offset_budget ~vref_pp:2.0 ~m:3 in
  let offset_adc = Behavioral.with_random_offsets rng ~sigma:(budget /. 4.0) ideal in
  let rng2 = Rng.create 5 in
  let worst = ref 0 in
  for _ = 1 to 500 do
    let v = Rng.uniform_in rng2 (-0.9) 0.9 in
    let d = abs (Behavioral.convert ideal v - Behavioral.convert offset_adc v) in
    if d > !worst then worst := d
  done;
  Alcotest.(check bool)
    (Printf.sprintf "worst code difference %d <= 1 LSB" !worst)
    true (!worst <= 1)

let test_gain_error_degrades_linearity () =
  let spec = Spec.paper_case ~k:12 in
  let config = [ 4; 3; 2 ] in
  let bad =
    Behavioral.create spec config
      (List.map
         (fun m ->
           { (Behavioral.ideal_impairment ~m) with Behavioral.gain_error = -0.01 })
         config)
  in
  let ideal = Behavioral.ideal spec config in
  let r_bad = Metrics.static_linearity ~oversample:8 bad in
  let r_ideal = Metrics.static_linearity ~oversample:8 ideal in
  Alcotest.(check bool)
    (Printf.sprintf "INL grows (%.2f -> %.2f LSB)" r_ideal.Metrics.inl_max r_bad.Metrics.inl_max)
    true
    (r_bad.Metrics.inl_max > r_ideal.Metrics.inl_max +. 1.0)

(* ------------------------------------------------------------------ *)
(* Digital correction adder vs arithmetic reconstruction *)

module Correction = Adc_pipeline.Correction

let test_correction_weights () =
  let c = Correction.create ~k:13 ~config:[ 4; 3; 2 ] ~backend_bits:7 in
  (* stage weights: 2^(B_(i+1)-1) for B = 10, 8, 7 *)
  Alcotest.(check (list int)) "shift weights" [ 512; 128; 64 ]
    (Correction.stage_weights c)

let test_correction_rejects_bad_budget () =
  Alcotest.(check bool) "inconsistent bits rejected" true
    (try
       ignore (Correction.create ~k:13 ~config:[ 4; 3; 2 ] ~backend_bits:6);
       false
     with Invalid_argument _ -> true)

let test_correction_code_range_checked () =
  let c = Correction.create ~k:10 ~config:[ 3; 2 ] ~backend_bits:7 in
  Alcotest.(check bool) "overlarge stage code rejected" true
    (try
       ignore (Correction.combine c ~stage_codes:[ 7; 1 ] ~backend_code:0);
       false
     with Invalid_argument _ -> true)

let prop_correction_equals_arithmetic_reconstruction =
  QCheck2.Test.make
    ~name:"hardware align-and-add equals arithmetic reconstruction" ~count:300
    QCheck2.Gen.(pair (float_range (-0.99) 0.99) (int_range 0 2))
    (fun (v, which) ->
      let k, config = List.nth [ (13, [ 4; 3; 2 ]); (10, [ 3; 2 ]); (12, [ 4; 2; 2 ]) ] which in
      let spec = Spec.paper_case ~k in
      (* include a mild gain impairment: the adder must match the
         reconstruction for whatever codes the pipeline produces *)
      let adc =
        Behavioral.create spec config
          (List.map
             (fun m ->
               { (Behavioral.ideal_impairment ~m) with Behavioral.gain_error = -1e-4 })
             config)
      in
      let stage_codes, backend_code = Behavioral.raw_conversion adc v in
      let c = Correction.create ~k ~config ~backend_bits:(k - Config.effective_bits config) in
      Correction.combine c ~stage_codes ~backend_code = Behavioral.convert adc v)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_static_linearity_ideal () =
  let adc = ideal_adc 10 [ 3; 2 ] in
  let r = Metrics.static_linearity adc in
  Alcotest.(check int) "no missing codes" 0 r.Metrics.missing_codes;
  Alcotest.(check bool)
    (Printf.sprintf "DNL %.3f below 0.2 LSB" r.Metrics.dnl_max)
    true
    (Float.abs r.Metrics.dnl_max < 0.2);
  Alcotest.(check bool)
    (Printf.sprintf "INL %.3f below 0.2 LSB" r.Metrics.inl_max)
    true (r.Metrics.inl_max < 0.2)

let test_dynamic_enob_ideal_near_k () =
  let k = 10 in
  let adc = ideal_adc k [ 3; 2 ] in
  let r = Metrics.dynamic_performance ~n_fft:2048 adc ~fs:40e6 ~f_in:2.1e6 in
  Alcotest.(check bool)
    (Printf.sprintf "ENOB %.2f within 1 bit of %d" r.Metrics.enob k)
    true
    (r.Metrics.enob > float_of_int k -. 1.0);
  Alcotest.(check bool) "SFDR above 60 dB" true (r.Metrics.sfdr_db > 60.0)

let test_dynamic_enob_with_noise_lower () =
  let k = 10 in
  let spec = Spec.paper_case ~k in
  let config = [ 3; 2 ] in
  let noisy =
    Behavioral.create spec config
      (List.map
         (fun m ->
           { (Behavioral.ideal_impairment ~m) with Behavioral.noise_rms = 3e-3 })
         config)
  in
  let rng = Rng.create 3 in
  let r_noisy = Metrics.dynamic_performance ~n_fft:2048 ~rng noisy ~fs:40e6 ~f_in:2.1e6 in
  let r_ideal =
    Metrics.dynamic_performance ~n_fft:2048 (Behavioral.ideal spec config) ~fs:40e6 ~f_in:2.1e6
  in
  Alcotest.(check bool) "noise lowers ENOB" true
    (r_noisy.Metrics.enob < r_ideal.Metrics.enob -. 0.5)

(* ------------------------------------------------------------------ *)
(* Baselines *)

module Classic = Adc_baseline.Classic
module Gp_model = Adc_baseline.Gp_model

let test_classic_config_shape () =
  let c = Classic.config ~k:13 ~backend_bits:7 in
  Alcotest.(check string) "all 1.5-bit stages" "2-2-2-2-2-2" (Config.to_string c)

let test_classic_savings_positive () =
  List.iter
    (fun k ->
      let s = Classic.savings_vs_optimal (Spec.paper_case ~k) in
      Alcotest.(check bool)
        (Printf.sprintf "positive savings at %d bits (%.0f%%)" k (100.0 *. s))
        true
        (s > 0.05 && s < 0.9))
    [ 11; 12; 13 ]

let test_gp_baseline_audit () =
  (* the equation-only design must simulate, and the audit must expose a
     nonzero prediction gap on at least one metric *)
  let spec = Spec.paper_case ~k:13 in
  let req = Spec.stage_requirements spec { Spec.m = 3; input_bits = 11 } in
  match Gp_model.design spec.Spec.process req with
  | Error e -> Alcotest.failf "gp design failed: %s" e
  | Ok r ->
    Alcotest.(check bool) "simulated power positive" true (r.Gp_model.simulated_power > 0.0);
    let gaps = Gp_model.accuracy_gap r in
    Alcotest.(check bool) "gap rows present" true (List.length gaps >= 4);
    Alcotest.(check bool) "at least one 10%+ prediction error" true
      (List.exists
         (fun (_, p, s) ->
           Float.abs (p -. s) > 0.1 *. Float.max (Float.abs p) (Float.abs s))
         gaps)

(* ------------------------------------------------------------------ *)
(* Config completeness *)

let test_enumerate_full_properties () =
  let full = Config.enumerate_full ~k:6 in
  Alcotest.(check bool) "non-empty" true (full <> []);
  List.iter
    (fun c ->
      Alcotest.(check int) "resolves all bits" 6 (Config.effective_bits c);
      Alcotest.(check bool) "valid" true (Config.is_valid c))
    full;
  (* partitions of 6 into parts {1,2,3}, non-increasing: 7 of them *)
  Alcotest.(check int) "count matches partition count" 7 (List.length full)

let test_backend_bits_after () =
  Alcotest.(check int) "4-3-2 leaves 7" 7 (Config.backend_bits_after ~k:13 [ 4; 3; 2 ]);
  Alcotest.(check int) "empty leaves k" 13 (Config.backend_bits_after ~k:13 [])

(* ------------------------------------------------------------------ *)
(* Report rendering *)

let test_report_tables_render () =
  let run = Optimize.run ~mode:`Equation (Spec.paper_case ~k:13) in
  let fig1 = Report.fig1_table run in
  Alcotest.(check bool) "fig1 mentions 4-3-2" true (contains fig1 "4-3-2");
  let summary = Report.candidate_summary run in
  Alcotest.(check bool) "summary mentions optimum" true (contains summary "optimum")

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "pipeline"
    [
      ( "config",
        [
          quick "paper's seven at 13 bits" test_enumeration_13bit_is_papers_seven;
          quick "counts at 10-12 bits" test_enumeration_counts_10_to_12;
          quick "string round trip" test_config_string_round_trip;
          quick "extend with twos" test_config_extend_with_twos;
          quick "stage input bits" test_config_stage_input_bits;
          quick "validity" test_config_is_valid;
          QCheck_alcotest.to_alcotest prop_enumeration_invariants;
        ] );
      ( "spec",
        [
          quick "distinct jobs" test_distinct_jobs_13bit;
          quick "job requirements" test_job_requirements_sane;
          quick "load cap ordering" test_load_cap_decreases_with_backend;
        ] );
      ( "optimize-equation",
        [
          quick "4-3-2 optimal at 13 bits" test_equation_optimum_4_3_2_at_13bit;
          quick "paper optima 10-13 bits" test_equation_optima_match_paper_all_resolutions;
          quick "flat stage-1 power" test_stage1_power_mostly_independent_of_m1;
          quick "classical is worst" test_classical_1p5bit_is_worst_at_13bit;
          quick "2-bit last stage" test_last_stage_two_bits_at_all_resolutions;
          quick "rank sorted" test_power_model_rank_is_sorted;
          quick "full converter budget" test_full_converter_budget;
          QCheck_alcotest.to_alcotest prop_power_monotone_in_resolution;
        ] );
      ("optimize-hybrid", [ slow "smoke" test_hybrid_mode_smoke ]);
      ( "rules",
        [
          quick "fig3 sweep" test_rules_sweep;
          quick "sweep honours attempts" test_rules_sweep_honours_attempts;
          quick "monotonicity and validity are separate"
            test_rules_derive_separates_monotonicity_from_validity;
          quick "derive [] is total" test_rules_derive_empty_is_total;
        ] );
      ( "fom",
        [
          quick "hand-computed values" test_fom_hand_computed;
          quick "nonsense rejected" test_fom_rejects_nonsense;
          quick "of_run consistent" test_fom_of_run_consistent;
        ] );
      ( "front",
        [
          quick "equation grid" test_front_equation_grid;
          quick "bad axes rejected" test_front_rejects_bad_axes;
          QCheck_alcotest.to_alcotest prop_dominance_strict_partial_order;
          QCheck_alcotest.to_alcotest prop_front_points_mutually_nondominated;
          QCheck_alcotest.to_alcotest prop_pruned_points_dominated_by_front;
        ] );
      ( "behavioral",
        [
          quick "full-scale codes" test_behavioral_full_scale_codes;
          quick "raw codes" test_behavioral_raw_codes_sane;
          quick "digital correction absorbs offsets" test_digital_correction_absorbs_offsets;
          slow "gain error degrades linearity" test_gain_error_degrades_linearity;
          QCheck_alcotest.to_alcotest prop_behavioral_monotone;
          QCheck_alcotest.to_alcotest prop_behavioral_code_error_below_lsb;
        ] );
      ( "baseline",
        [
          quick "classic shape" test_classic_config_shape;
          quick "classic savings" test_classic_savings_positive;
          slow "gp audit" test_gp_baseline_audit;
        ] );
      ( "config-extra",
        [
          quick "enumerate full" test_enumerate_full_properties;
          quick "backend bits after" test_backend_bits_after;
        ] );
      ( "correction",
        [
          quick "weights" test_correction_weights;
          quick "bad budget rejected" test_correction_rejects_bad_budget;
          quick "code range checked" test_correction_code_range_checked;
          QCheck_alcotest.to_alcotest prop_correction_equals_arithmetic_reconstruction;
        ] );
      ( "metrics",
        [
          quick "static linearity ideal" test_static_linearity_ideal;
          quick "dynamic enob ideal" test_dynamic_enob_ideal_near_k;
          quick "noise lowers enob" test_dynamic_enob_with_noise_lower;
        ] );
      ("report", [ quick "tables render" test_report_tables_render ]);
    ]
