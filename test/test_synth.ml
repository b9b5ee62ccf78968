(* Tests for the NeoCircuit-substitute synthesis engine: design spaces,
   constraints, the three optimizer kernels, and the OTA synthesis flow. *)

module Rng = Adc_numerics.Rng
module Space = Adc_synth.Space
module Constraint_set = Adc_synth.Constraint_set
module Anneal = Adc_synth.Anneal
module Pattern = Adc_synth.Pattern
module De = Adc_synth.De
module Synthesizer = Adc_synth.Synthesizer
module Mdac_stage = Adc_mdac.Mdac_stage
module Ota = Adc_mdac.Ota
module Process = Adc_circuit.Process

let proc = Process.c025

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1.0 +. Float.abs expected) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ------------------------------------------------------------------ *)
(* Space *)

let demo_space () =
  Space.create
    [
      { Space.name = "w"; lo = 1e-6; hi = 1e-4; scale = Space.Log };
      { Space.name = "v"; lo = 0.0; hi = 3.3; scale = Space.Linear };
    ]

let test_space_denormalize () =
  let sp = demo_space () in
  let x = Space.denormalize sp [| 0.5; 0.5 |] in
  check_close ~eps:1e-9 "log midpoint is geometric mean" 1e-5 x.(0);
  check_close ~eps:1e-9 "linear midpoint" 1.65 x.(1)

let test_space_bounds_clamped () =
  let sp = demo_space () in
  let x = Space.denormalize sp [| -1.0; 2.0 |] in
  check_close "clamped low" 1e-6 x.(0);
  check_close "clamped high" 3.3 x.(1)

let prop_space_round_trip =
  QCheck2.Test.make ~name:"normalize/denormalize round trip" ~count:200
    QCheck2.Gen.(pair (float_range 0.0 1.0) (float_range 0.0 1.0))
    (fun (u1, u2) ->
      let sp = demo_space () in
      let u = [| u1; u2 |] in
      let x = Space.denormalize sp u in
      let u' = Space.normalize sp x in
      Float.abs (u.(0) -. u'.(0)) < 1e-9 && Float.abs (u.(1) -. u'.(1)) < 1e-9)

let test_space_shrink () =
  let sp = demo_space () in
  let sp' = Space.shrink_around sp [| 1e-5; 1.65 |] ~factor:0.2 in
  let vars = Space.variables sp' in
  Alcotest.(check bool) "shrunken log range" true
    (vars.(0).Space.lo > 1e-6 && vars.(0).Space.hi < 1e-4);
  Alcotest.(check bool) "center still inside" true
    (vars.(0).Space.lo < 1e-5 && 1e-5 < vars.(0).Space.hi)

let test_space_value_of () =
  let sp = demo_space () in
  check_close "lookup by name" 2.0 (Space.value_of sp [| 1e-5; 2.0 |] "v");
  Alcotest.check_raises "unknown name" Not_found (fun () ->
      ignore (Space.value_of sp [| 1e-5; 2.0 |] "nope"))

let test_space_rejects_bad_bounds () =
  Alcotest.(check bool) "lo >= hi rejected" true
    (try
       ignore (Space.create [ { Space.name = "x"; lo = 2.0; hi = 1.0; scale = Space.Linear } ]);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Constraint_set *)

let test_constraints_violation () =
  let c = Constraint_set.at_least "gain" 100.0 in
  check_close "satisfied" 0.0 (Constraint_set.violation c 150.0);
  check_close "half short" 0.5 (Constraint_set.violation c 50.0);
  let c = Constraint_set.at_most "power" 1.0 in
  check_close "over budget" 0.5 (Constraint_set.violation c 1.5)

let test_constraints_total_and_report () =
  let cs =
    Constraint_set.create
      [ Constraint_set.at_least "a" 10.0; Constraint_set.at_most ~weight:2.0 "b" 1.0 ]
  in
  let lookup = function "a" -> Some 5.0 | "b" -> Some 2.0 | _ -> None in
  check_close "weighted total" (0.5 +. (2.0 *. 1.0)) (Constraint_set.total_violation cs ~lookup);
  Alcotest.(check bool) "infeasible" false (Constraint_set.is_feasible cs ~lookup);
  let report = Constraint_set.report cs ~lookup in
  Alcotest.(check int) "two rows" 2 (List.length report)

let test_constraints_missing_metric () =
  let cs = Constraint_set.create [ Constraint_set.at_least "missing" 1.0 ] in
  check_close "missing counts as full violation" 1.0
    (Constraint_set.total_violation cs ~lookup:(fun _ -> None))

(* ------------------------------------------------------------------ *)
(* Optimizer kernels on analytic test functions *)

let sphere target x =
  Array.fold_left ( +. ) 0.0 (Array.mapi (fun i v -> (v -. target.(i)) ** 2.0) x)

let test_anneal_minimizes_sphere () =
  let target = [| 0.3; 0.7; 0.5 |] in
  let rng = Rng.create 42 in
  let r =
    Anneal.minimize ~config:{ Anneal.default_config with iterations = 2000 } rng ~dim:3
      ~x0:[| 0.9; 0.1; 0.9 |] (sphere target)
  in
  Alcotest.(check bool)
    (Printf.sprintf "near optimum (cost %.4f)" r.Anneal.best_cost)
    true (r.Anneal.best_cost < 0.01)

let test_anneal_deterministic () =
  let f = sphere [| 0.5; 0.5 |] in
  let run () =
    let rng = Rng.create 7 in
    (Anneal.minimize rng ~dim:2 ~x0:[| 0.1; 0.9 |] f).Anneal.best_cost
  in
  check_close "same seed same result" (run ()) (run ())

let test_pattern_converges_quadratic () =
  let target = [| 0.25; 0.75 |] in
  let r = Pattern.minimize ~dim:2 ~x0:[| 0.9; 0.1 |] (sphere target) in
  Alcotest.(check bool) "tight convergence" true (r.Pattern.best_cost < 1e-6);
  check_close ~eps:1e-3 "x0 found" 0.25 r.Pattern.best_x.(0);
  check_close ~eps:1e-3 "x1 found" 0.75 r.Pattern.best_x.(1)

let test_pattern_respects_eval_budget () =
  let count = ref 0 in
  let f x =
    incr count;
    sphere [| 0.5 |] x
  in
  ignore (Pattern.minimize ~max_evals:50 ~dim:1 ~x0:[| 0.0 |] f);
  Alcotest.(check bool) "bounded evals" true (!count <= 60)

(* Pinned: a coordinate at its upper bound clamps the +step move back
   onto the base point, so the search pays for the base point again.
   The synthesizer's per-search table absorbs such repeats. *)
let test_pattern_clamped_move_revisits_base () =
  let points = ref [] in
  let f x =
    points := Array.to_list (Array.map Int64.bits_of_float x) :: !points;
    ((x.(0) -. 1.5) ** 2.0) +. ((x.(1) -. 0.6) ** 2.0)
  in
  let r = Pattern.minimize ~max_evals:40 ~dim:2 ~x0:[| 1.0; 0.2 |] f in
  let calls = List.rev !points in
  let distinct = List.length (List.sort_uniq compare calls) in
  Alcotest.(check (pair int int)) "cost calls, distinct points" (41, 29)
    (List.length calls, distinct);
  Alcotest.(check int) "evaluations count every call" (List.length calls)
    r.Pattern.evaluations;
  Alcotest.(check bool) "the first move re-evaluates the base point" true
    (List.nth calls 1 = List.nth calls 0);
  check_close "x0 stays on its bound" 1.0 r.Pattern.best_x.(0)

let test_de_minimizes_shifted_bowl () =
  let rng = Rng.create 9 in
  let r = De.minimize rng ~dim:2 (sphere [| 0.4; 0.6 |]) in
  Alcotest.(check bool) "near optimum" true (r.De.best_cost < 0.01)

let test_de_uses_seed_point () =
  let rng = Rng.create 9 in
  let r =
    De.minimize
      ~config:{ De.default_config with generations = 0 }
      rng ~dim:2 ~seed_point:[| 0.4; 0.6 |] (sphere [| 0.4; 0.6 |])
  in
  (* generation 0: best of the initial population, which contains the seed *)
  check_close ~eps:1e-12 "seed point retained" 0.0 r.De.best_cost

(* ------------------------------------------------------------------ *)
(* Synthesizer *)

let easy_requirements () =
  let spec = Mdac_stage.default_spec ~m:2 ~accuracy_bits:8 ~fs:40e6 in
  Mdac_stage.requirements proc spec ~c_load_ext:0.2e-12 ~c_in_ratio:0.15

let test_initial_sizing_reasonable () =
  let req = easy_requirements () in
  let z = Synthesizer.initial_sizing proc req in
  Alcotest.(check bool) "positive widths" true (z.Ota.w_pair > 0.0 && z.Ota.w_cs > 0.0);
  Alcotest.(check bool) "positive bias" true (z.Ota.i_bias > 0.0);
  Alcotest.(check bool) "low-accuracy job picks the simple topology" true
    (z.Ota.topology = Ota.Miller_simple)

let test_initial_sizing_topology_switch () =
  let spec = Mdac_stage.default_spec ~m:3 ~accuracy_bits:13 ~fs:40e6 in
  let req = Mdac_stage.requirements proc spec ~c_load_ext:1e-12 ~c_in_ratio:0.15 in
  let z = Synthesizer.initial_sizing proc req in
  Alcotest.(check bool) "high-accuracy job uses the cascode" true
    (z.Ota.topology = Ota.Miller_cascode)

let test_design_space_low_supply () =
  (* the cascode-bias rails used to be absolute (1.0 / 1.2 V floors) and
     crossed under low-voltage process cards, crashing Space.create *)
  List.iter
    (fun vdd ->
      let p = { Process.c025 with Process.vdd } in
      List.iter
        (fun (m, bits) ->
          let spec = Mdac_stage.default_spec ~m ~accuracy_bits:bits ~fs:40e6 in
          let req = Mdac_stage.requirements p spec ~c_load_ext:0.4e-12 ~c_in_ratio:0.15 in
          let z = Synthesizer.initial_sizing p req in
          List.iter
            (fun factor ->
              let space, x0 = Synthesizer.design_space p z ~factor in
              Array.iter
                (fun v ->
                  Alcotest.(check bool)
                    (Printf.sprintf "vdd=%g m=%d factor=%g: %s bounds ordered" vdd m
                       factor v.Space.name)
                    true
                    (v.Space.lo < v.Space.hi))
                (Space.variables space);
              Alcotest.(check bool)
                (Printf.sprintf "vdd=%g m=%d factor=%g: seed normalizes" vdd m factor)
                true
                (Array.for_all (fun x -> x >= 0.0 && x <= 1.0) x0))
            [ 1.0; 0.35; 0.12 ])
        [ (2, 8); (3, 13) ])
    [ 5.0; 3.3; 1.8; 1.2 ]

let test_constraints_of_covers_specs () =
  let req = easy_requirements () in
  let metrics =
    List.map (fun e -> e.Constraint_set.metric)
      (Constraint_set.entries (Synthesizer.constraints_of req))
  in
  List.iter
    (fun m -> Alcotest.(check bool) (m ^ " constrained") true (List.mem m metrics))
    [ "a0"; "gbw"; "pm"; "sr"; "swing"; "saturated" ]

let test_equation_evaluator_runs () =
  let req = easy_requirements () in
  let z = Synthesizer.initial_sizing proc req in
  let metrics, perf = Synthesizer.evaluate_sizing ~kind:Synthesizer.Equation_only proc req z in
  Alcotest.(check bool) "metrics present" true (List.mem_assoc "power" metrics);
  Alcotest.(check bool) "no simulation performance" true (perf = None)

let test_hybrid_evaluator_runs () =
  let req = easy_requirements () in
  let z = Synthesizer.initial_sizing proc req in
  let metrics, perf = Synthesizer.evaluate_sizing ~kind:Synthesizer.Hybrid proc req z in
  Alcotest.(check bool) "metrics present" true (List.mem_assoc "a0" metrics);
  Alcotest.(check bool) "simulated performance attached" true (perf <> None)

(* An annealing-style sweep of 12 OTA candidates around the 13-bit
   first cut (m = 3 at 11 bits): the optimum the hybrid evaluator
   selects, rendered with its power, is the same on the sparse solver
   and on the dense oracle. *)
let test_hybrid_sweep_optimum_matches_oracle () =
  let spec = Adc_pipeline.Spec.paper_case ~k:13 in
  let proc = spec.Adc_pipeline.Spec.process in
  let req = Adc_pipeline.Spec.stage_requirements spec { Adc_pipeline.Spec.m = 3; input_bits = 11 } in
  let base = Synthesizer.initial_sizing proc req in
  let candidates =
    List.init 12 (fun i ->
        let s = 0.7 +. (0.06 *. float_of_int i) in
        {
          base with
          Ota.w_pair = base.Ota.w_pair *. s;
          w_cs = base.Ota.w_cs *. s;
          c_comp = base.Ota.c_comp *. (0.8 +. (0.04 *. float_of_int i));
        })
  in
  (* lowest power among the candidates with every device saturated *)
  let optimum () =
    let get name m = Option.value ~default:nan (List.assoc_opt name m) in
    let best = ref (-1) and best_power = ref infinity in
    List.iteri
      (fun i z ->
        let m, _ = Synthesizer.evaluate_sizing ~kind:Synthesizer.Hybrid proc req z in
        let power = get "power" m in
        if get "saturated" m > 0.5 && power < !best_power then begin
          best := i;
          best_power := power
        end)
      candidates;
    if !best < 0 then "none"
    else
      let c = List.nth candidates !best in
      Printf.sprintf "candidate-%02d w_pair=%.4g c_comp=%.4g power=%.6g" !best c.Ota.w_pair
        c.Ota.c_comp !best_power
  in
  let sparse = optimum () in
  Alcotest.(check bool) (sparse ^ ": some candidate qualifies") true (sparse <> "none");
  Alcotest.(check string) "dense oracle selects the same optimum" sparse
    (Adc_circuit.Mna.Oracle.with_dense optimum)

let test_synthesize_small_budget () =
  let req = easy_requirements () in
  match
    Synthesizer.synthesize
      ~budget:{ Synthesizer.sa_iterations = 40; pattern_evals = 60; space_factor = 1.0 }
      ~seed:3 proc req
  with
  | Error e -> Alcotest.failf "synthesize failed: %s" e
  | Ok sol ->
    Alcotest.(check bool) "power positive" true (sol.Synthesizer.power > 0.0);
    Alcotest.(check bool) "counted evaluations" true (sol.Synthesizer.evaluations > 50);
    Alcotest.(check bool) "metrics recorded" true (sol.Synthesizer.metrics <> [])

let test_synthesize_deterministic_pattern_only () =
  let req = easy_requirements () in
  let run () =
    match
      Synthesizer.synthesize
        ~budget:{ Synthesizer.sa_iterations = 0; pattern_evals = 120; space_factor = 1.0 }
        ~seed:1 proc req
    with
    | Ok sol -> sol.Synthesizer.power
    | Error e -> Alcotest.failf "synthesize failed: %s" e
  in
  check_close "pattern-only is reproducible" (run ()) (run ())

(* A seeded hybrid search evaluates each distinct point once: the
   evaluator (one bias-servo run per call) runs once per distinct point,
   fewer times than the search calls its cost, and the count of cost
   calls is the one pinned before the table existed. *)
let test_synthesize_evaluates_each_point_once () =
  let spec = Adc_pipeline.Spec.paper_case ~k:10 in
  let req =
    Adc_pipeline.Spec.stage_requirements spec { Adc_pipeline.Spec.m = 2; input_bits = 8 }
  in
  let obs = Adc_obs.in_memory () in
  let servo0 = Adc_numerics.Tally.get Ota.servo_calls in
  match
    Synthesizer.synthesize ~kind:Synthesizer.Hybrid ~obs
      ~budget:{ Synthesizer.sa_iterations = 40; pattern_evals = 60; space_factor = 1.0 }
      ~seed:3 spec.Adc_pipeline.Spec.process req
  with
  | Error e -> Alcotest.failf "synthesize failed: %s" e
  | Ok sol ->
    let servo = Adc_numerics.Tally.get Ota.servo_calls - servo0 in
    let distinct =
      match Adc_obs.Sink.drain obs.Adc_obs.sink with
      | [ e ] -> (
        match List.assoc_opt "distinct_points" e.Adc_obs.Sink.attrs with
        | Some (Adc_obs.Sink.Int n) -> n
        | _ -> Alcotest.fail "synth.search span without distinct_points")
      | evs -> Alcotest.failf "expected one synth.search span, got %d" (List.length evs)
    in
    Alcotest.(check int) "cost calls (pinned)" 101 sol.Synthesizer.evaluations;
    Alcotest.(check int) "one evaluator run per distinct point" distinct servo;
    Alcotest.(check bool)
      (Printf.sprintf "fewer evaluator runs (%d) than cost calls (%d)" servo
         sol.Synthesizer.evaluations)
      true (servo < sol.Synthesizer.evaluations)

let test_warm_start_uses_fewer_evals () =
  let req = easy_requirements () in
  match Synthesizer.synthesize ~seed:3 proc req with
  | Error e -> Alcotest.failf "cold failed: %s" e
  | Ok cold -> begin
    match Synthesizer.synthesize ~seed:4 ~warm_start:cold.Synthesizer.sizing proc req with
    | Error e -> Alcotest.failf "warm failed: %s" e
    | Ok warm ->
      Alcotest.(check bool)
        (Printf.sprintf "warm (%d) cheaper than cold (%d)" warm.Synthesizer.evaluations
           cold.Synthesizer.evaluations)
        true
        (warm.Synthesizer.evaluations < cold.Synthesizer.evaluations)
  end

let test_verified_settling () =
  (* the Hybrid_verified evaluator appends the transient settling check:
     the synthesized cell must actually settle to its tolerance in the
     simulated switched-cap bench *)
  let req = easy_requirements () in
  match
    Synthesizer.synthesize ~kind:Synthesizer.Hybrid_verified
      ~budget:{ Synthesizer.sa_iterations = 0; pattern_evals = 150; space_factor = 1.0 }
      ~seed:5 proc req
  with
  | Error e -> Alcotest.failf "synthesize failed: %s" e
  | Ok sol -> begin
    match sol.Synthesizer.settling with
    | None -> Alcotest.fail "expected a settling verification record"
    | Some st ->
      Alcotest.(check bool) "settled in the window" true (st.Ota.settle_time <> None);
      Alcotest.(check bool)
        (Printf.sprintf "static error %.2e below 1%%" st.Ota.static_error)
        true
        (st.Ota.static_error < 0.01)
  end

(* The rounding-floor stop of [Poly.roots] against the 200-sweep
   reference, on the metrics the hybrid evaluator reports for seeded
   candidates of an m2 and an m3 job on three cards. The reference
   re-characterizes the evaluator's transfer function with the boxed
   oracle, floor stop off. power, sr, swing and saturated come from the
   operating point, not the roots, and are bit-equal. When nothing
   cancels, a0 reads no root and is bit-equal too, and gbw and pm read
   the dominant pole's last bits through the frequency window, so they
   are held to 1e-14 relative. When a pole-zero pair cancels, the reduced
   ratio is rebuilt from roots that either stop settles only to the
   floor (~1e-10), so a0, gbw and pm are held to 1e-9 relative. *)
let floor_stop_cases =
  lazy
    (let module Spec = Adc_pipeline.Spec in
     let specs =
       [
         Spec.paper_case ~k:10;
         Spec.make ~process:(Fixtures.card "c018.sp") ~k:10 ~fs:40e6 ();
         Spec.make ~process:(Fixtures.card "c060.sp") ~k:10 ~fs:40e6 ();
       ]
     in
     let jobs = [ { Spec.m = 2; input_bits = 8 }; { Spec.m = 3; input_bits = 10 } ] in
     List.concat_map
       (fun spec ->
         List.map
           (fun job ->
             let proc = spec.Spec.process in
             let req = Spec.stage_requirements spec job in
             (proc, req, Synthesizer.initial_sizing proc req))
           jobs)
       specs
     |> Array.of_list)

(* [Some cancelled] when the candidate evaluates and every metric is
   within its tolerance, [None] when one is not; an evaluation that
   fails has nothing to compare and counts as within *)
let floor_stop_within (case, seed) =
  let proc, req, z0 = (Lazy.force floor_stop_cases).(case) in
  let z = List.hd (Fixtures.candidates ~rng:(Random.State.make [| seed |]) ~n:1 z0) in
  match Synthesizer.evaluate_sizing ~kind:Synthesizer.Hybrid proc req z with
  | _, None -> Some false
  | metrics, Some perf ->
    let module Analysis = Adc_sfg.Analysis in
    let spec = Oracle.characterize ~floor_stop:false perf.Ota.tf in
    let cancelled =
      Array.length spec.Analysis.poles < Adc_numerics.Poly.degree perf.Ota.tf.Adc_sfg.Ratfun.den
    in
    let reference =
      List.filter_map
        (fun (name, v) -> Option.map (fun x -> (name, x)) v)
        [
          ("power", Some perf.Ota.power);
          ("a0", Some spec.Analysis.dc_gain);
          ("gbw", spec.Analysis.unity_gain_hz);
          ("pm", spec.Analysis.phase_margin_deg);
          ("sr", Some perf.Ota.slew_rate);
          ("swing", Some (perf.Ota.swing_high -. perf.Ota.swing_low));
          ("saturated", Some (if perf.Ota.all_saturated then 1.0 else 0.0));
        ]
    in
    let within name a b =
      let rel tol = Float.abs (a -. b) <= tol *. Float.abs b in
      match name with
      | ("a0" | "gbw" | "pm") when cancelled -> rel 1e-9
      | "gbw" | "pm" -> rel 1e-14
      | _ -> Oracle.same_float a b
    in
    if
      List.map fst metrics = List.map fst reference
      && List.for_all2 (fun (name, a) (_, b) -> within name a b) metrics reference
    then Some cancelled
    else None

let prop_floor_stop_within_tolerance =
  QCheck2.Test.make ~name:"hybrid metrics: floor stop within tolerance of 200 sweeps" ~count:40
    ~print:(fun (case, seed) -> Printf.sprintf "case %d, seed %d" case seed)
    QCheck2.Gen.(pair (int_range 0 5) nat)
    (fun c -> floor_stop_within c <> None)

(* Seeded candidates whose ratio cancels a pole-zero pair and whose a0
   moves with the stop: c025 m3@10b seed 175 (a0, gbw and pm ~1e-11),
   c018 m3@10b seed 249 (a0 ~5e-14) *)
let test_floor_stop_cancelling_candidates () =
  List.iter
    (fun (case, seed) ->
      Alcotest.(check (option bool))
        (Printf.sprintf "case %d seed %d cancels, within 1e-9" case seed)
        (Some true)
        (floor_stop_within (case, seed)))
    [ (1, 175); (3, 249) ]

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "synth"
    [
      ( "space",
        [
          quick "denormalize" test_space_denormalize;
          quick "bounds clamped" test_space_bounds_clamped;
          quick "shrink" test_space_shrink;
          quick "value_of" test_space_value_of;
          quick "bad bounds" test_space_rejects_bad_bounds;
          QCheck_alcotest.to_alcotest prop_space_round_trip;
        ] );
      ( "constraints",
        [
          quick "violation" test_constraints_violation;
          quick "total and report" test_constraints_total_and_report;
          quick "missing metric" test_constraints_missing_metric;
        ] );
      ( "kernels",
        [
          quick "anneal sphere" test_anneal_minimizes_sphere;
          quick "anneal deterministic" test_anneal_deterministic;
          quick "pattern quadratic" test_pattern_converges_quadratic;
          quick "pattern budget" test_pattern_respects_eval_budget;
          quick "pattern clamped move revisits the base" test_pattern_clamped_move_revisits_base;
          quick "de bowl" test_de_minimizes_shifted_bowl;
          quick "de seed point" test_de_uses_seed_point;
        ] );
      ( "synthesizer",
        [
          quick "initial sizing" test_initial_sizing_reasonable;
          quick "topology switch" test_initial_sizing_topology_switch;
          quick "design space survives low supplies" test_design_space_low_supply;
          quick "constraint coverage" test_constraints_of_covers_specs;
          quick "equation evaluator" test_equation_evaluator_runs;
          quick "hybrid evaluator" test_hybrid_evaluator_runs;
          quick "hybrid sweep optimum matches oracle" test_hybrid_sweep_optimum_matches_oracle;
          quick "hybrid search evaluates each point once" test_synthesize_evaluates_each_point_once;
          QCheck_alcotest.to_alcotest prop_floor_stop_within_tolerance;
          quick "floor stop on cancelling candidates" test_floor_stop_cancelling_candidates;
          slow "small synthesis" test_synthesize_small_budget;
          slow "deterministic pattern" test_synthesize_deterministic_pattern_only;
          slow "warm start" test_warm_start_uses_fewer_evals;
          slow "verified settling" test_verified_settling;
        ] );
    ]
