(* Tests for the extension modules: process corners, device noise
   analysis, area model, Monte-Carlo yield, Pareto fronts. *)

module Process = Adc_circuit.Process
module Corners = Adc_circuit.Corners
module Netlist = Adc_circuit.Netlist
module Stimulus = Adc_circuit.Stimulus
module Dc = Adc_circuit.Dc
module Smallsig = Adc_circuit.Smallsig
module Noise = Adc_mdac.Noise
module Ota = Adc_mdac.Ota
module Mdac_stage = Adc_mdac.Mdac_stage
module Synthesizer = Adc_synth.Synthesizer
module Corner_check = Adc_synth.Corner_check
module Pareto = Adc_synth.Pareto
module Spec = Adc_pipeline.Spec
module Config = Adc_pipeline.Config
module Area_model = Adc_pipeline.Area_model
module Montecarlo = Adc_pipeline.Montecarlo

let proc = Process.c025

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1.0 +. Float.abs expected) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ------------------------------------------------------------------ *)
(* Corners *)

let test_corner_scaling () =
  let ss = Corners.apply proc Corners.SS in
  let ff = Corners.apply proc Corners.FF in
  Alcotest.(check bool) "SS slower" true (ss.Process.nmos.Process.kp < proc.Process.nmos.Process.kp);
  Alcotest.(check bool) "FF faster" true (ff.Process.nmos.Process.kp > proc.Process.nmos.Process.kp);
  Alcotest.(check bool) "SS higher vt" true (ss.Process.nmos.Process.vt0 > proc.Process.nmos.Process.vt0);
  let sf = Corners.apply proc Corners.SF in
  Alcotest.(check bool) "SF skews N slow" true (sf.Process.nmos.Process.kp < proc.Process.nmos.Process.kp);
  Alcotest.(check bool) "SF skews P fast" true (sf.Process.pmos.Process.kp > proc.Process.pmos.Process.kp)

let test_corner_temperature () =
  let hot = Corners.apply ~temperature:398.0 proc Corners.TT in
  check_close "temperature recorded" 398.0 hot.Process.temperature;
  Alcotest.(check bool) "mobility derated when hot" true
    (hot.Process.nmos.Process.kp < proc.Process.nmos.Process.kp);
  Alcotest.(check bool) "kT grows" true (Process.kt hot > Process.kt proc)

let test_corner_tt_is_identity_at_nominal () =
  let tt = Corners.apply proc Corners.TT in
  check_close "kp unchanged" proc.Process.nmos.Process.kp tt.Process.nmos.Process.kp;
  check_close "vt unchanged" proc.Process.nmos.Process.vt0 tt.Process.nmos.Process.vt0

let test_corner_check_runs () =
  (* a synthesized easy cell evaluated across corners: the nominal corner
     must be feasible; corners report graded violations *)
  let spec = Mdac_stage.default_spec ~m:2 ~accuracy_bits:8 ~fs:40e6 in
  let req = Mdac_stage.requirements proc spec ~c_load_ext:0.2e-12 ~c_in_ratio:0.15 in
  match
    Synthesizer.synthesize
      ~budget:{ Synthesizer.sa_iterations = 60; pattern_evals = 80; space_factor = 1.0 }
      ~seed:3 proc req
  with
  | Error e -> Alcotest.failf "synthesis failed: %s" e
  | Ok sol ->
    let results =
      Corner_check.check ~corners:[ Corners.TT; Corners.SS; Corners.FF ] proc req
        sol.Synthesizer.sizing
    in
    Alcotest.(check int) "three corners plus hot TT" 4 (List.length results);
    let tt = List.hd results in
    Alcotest.(check bool) "nominal corner simulates" true (tt.Corner_check.metrics <> []);
    Alcotest.(check bool) "render output" true
      (String.length (Corner_check.render results) > 0);
    match Corner_check.worst results with
    | Some w -> Alcotest.(check bool) "worst has largest violation" true
        (List.for_all (fun r -> r.Corner_check.violation <= w.Corner_check.violation) results)
    | None -> Alcotest.fail "expected a worst corner"

(* ------------------------------------------------------------------ *)
(* Noise: the kT/C theorem as an end-to-end check *)

let test_noise_ktc_theorem () =
  (* integrated output noise of an RC network is sqrt(kT/C) regardless
     of R: the textbook result, reproduced by the DPI-based analysis *)
  let c = 1e-12 in
  List.iter
    (fun r ->
      let nl = Netlist.create proc in
      let vin = Netlist.node nl "in" and out = Netlist.node nl "out" in
      Netlist.vsource nl ~ac_mag:1.0 "vs" vin Netlist.ground (Stimulus.Dc 0.0);
      Netlist.resistor nl "r" vin out r;
      Netlist.capacitor nl "c" out Netlist.ground c;
      let dc = match Dc.solve nl with Ok x -> x | Error e -> Alcotest.failf "dc: %s" e in
      let ss = Smallsig.extract nl dc in
      match Noise.analyze ~f_lo:1.0 ~f_hi:1e12 ~points_per_decade:20 nl ss ~out with
      | Error e -> Alcotest.failf "noise: %s" e
      | Ok report ->
        let expected = sqrt (Process.kt proc /. c) in
        check_close ~eps:0.03
          (Printf.sprintf "kT/C at R=%.0f" r)
          expected report.Noise.v_out_rms)
    [ 100.0; 1000.0; 10000.0 ]

(* NaN capacitance makes every transfer function NaN: a typed error, not
   a report full of NaN *)
let test_noise_non_finite_tf_is_error () =
  let nl = Netlist.create proc in
  let vin = Netlist.node nl "in" and out = Netlist.node nl "out" in
  Netlist.vsource nl ~ac_mag:1.0 "vs" vin Netlist.ground (Stimulus.Dc 0.0);
  Netlist.resistor nl "r" vin out 1e3;
  Netlist.capacitor nl "c" out Netlist.ground nan;
  let dc = match Dc.solve nl with Ok x -> x | Error e -> Alcotest.failf "dc: %s" e in
  let ss = Smallsig.extract nl dc in
  match Noise.analyze nl ss ~out with
  | Ok report -> Alcotest.failf "noise report from a NaN network: %g V" report.Noise.v_out_rms
  | Error e ->
    Alcotest.(check bool) ("typed error: " ^ e) true
      (String.starts_with ~prefix:"noise analysis: non-finite transfer function" e)

let test_noise_ota_contributions () =
  let z = Ota.default_sizing in
  let p = Ota.build proc z in
  match Dc.solve p.Ota.nl with
  | Error e -> Alcotest.failf "dc: %s" e
  | Ok dc ->
    let ss = Smallsig.extract p.Ota.nl dc in
    (match Noise.analyze p.Ota.nl ss ~out:p.Ota.out with
    | Error e -> Alcotest.failf "noise: %s" e
    | Ok report ->
      Alcotest.(check bool) "positive output noise" true (report.Noise.v_out_rms > 0.0);
      Alcotest.(check bool) "input-referred below output when gain > 1" true
        (report.Noise.v_in_rms < report.Noise.v_out_rms);
      Alcotest.(check bool) "input noise in the uV..mV decade" true
        (report.Noise.v_in_rms > 1e-7 && report.Noise.v_in_rms < 1e-2);
      (* contributions sorted and consistent with the total *)
      let sq = List.fold_left (fun a (c : Noise.contribution) ->
          a +. (c.Noise.v_out_rms ** 2.0)) 0.0 report.Noise.contributions in
      check_close ~eps:1e-6 "contributions sum to total"
        report.Noise.v_out_rms (sqrt sq);
      match report.Noise.contributions with
      | first :: rest ->
        Alcotest.(check bool) "sorted descending" true
          (List.for_all (fun (c : Noise.contribution) ->
               c.Noise.v_out_rms <= first.Noise.v_out_rms) rest)
      | [] -> Alcotest.fail "expected contributions")

(* ------------------------------------------------------------------ *)
(* Area model *)

let test_area_positive_and_caps_dominated () =
  let spec = Spec.paper_case ~k:13 in
  let s = Area_model.stage spec { Spec.m = 4; input_bits = 13 } in
  Alcotest.(check bool) "positive" true (s.Area_model.a_total > 0.0);
  Alcotest.(check bool) "front stage is capacitor-dominated" true
    (s.Area_model.a_caps > s.Area_model.a_comparators)

let test_area_rank_sorted () =
  let spec = Spec.paper_case ~k:13 in
  let ranked =
    Area_model.rank spec (Config.enumerate_leading ~k:13 ~backend_bits:7)
  in
  let rec sorted = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) ->
      a.Area_model.total <= b.Area_model.total && sorted rest
  in
  Alcotest.(check bool) "ascending area" true (sorted ranked)

let test_area_monotonicity_argument () =
  (* the paper's justification for m_i >= m_(i+1): putting the high-
     resolution stage late costs area *)
  let spec = Spec.paper_case ~k:13 in
  let (fwd, a_fwd), (rev, a_rev) = Area_model.monotonicity_argument spec ~k:13 in
  Alcotest.(check bool) "reversed config differs" true (fwd <> rev);
  Alcotest.(check bool)
    (Printf.sprintf "reversed (%s) uses more area than %s" (Config.to_string rev)
       (Config.to_string fwd))
    true (a_rev > a_fwd)

(* ------------------------------------------------------------------ *)
(* Monte-Carlo *)

let test_montecarlo_small_offsets_full_yield () =
  let spec = Spec.paper_case ~k:10 in
  let report = Montecarlo.run ~trials:25 ~seed:3 spec (Config.of_string "3-2") in
  Alcotest.(check bool)
    (Printf.sprintf "yield %.2f above 0.9 inside the budget" report.Montecarlo.yield)
    true
    (report.Montecarlo.yield > 0.9);
  Alcotest.(check bool) "enob stats sane" true
    (report.Montecarlo.enob_min <= report.Montecarlo.enob_mean
    && report.Montecarlo.enob_p05 <= report.Montecarlo.enob_mean)

let test_montecarlo_sweep_knee () =
  (* beyond the redundancy budget the yield must collapse *)
  let spec = Spec.paper_case ~k:10 in
  let budget = Adc_mdac.Comparator.offset_budget ~vref_pp:spec.Spec.vref_pp ~m:3 in
  let sweep =
    Montecarlo.offset_sweep ~trials:20 ~seed:5 spec (Config.of_string "3-2")
      ~sigmas:[ budget /. 8.0; budget *. 1.5 ]
  in
  match sweep with
  | [ (_, small); (_, large) ] ->
    Alcotest.(check bool)
      (Printf.sprintf "yield falls from %.2f to %.2f" small.Montecarlo.yield
         large.Montecarlo.yield)
      true
      (large.Montecarlo.yield < small.Montecarlo.yield)
  | _ -> Alcotest.fail "expected two sweep points"

(* ------------------------------------------------------------------ *)
(* Pareto *)

let test_pareto_front_monotone () =
  let spec = Mdac_stage.default_spec ~m:2 ~accuracy_bits:8 ~fs:40e6 in
  let req = Mdac_stage.requirements proc spec ~c_load_ext:0.2e-12 ~c_in_ratio:0.15 in
  let points =
    Pareto.sweep
      ~budget:{ Synthesizer.sa_iterations = 0; pattern_evals = 150; space_factor = 1.0 }
      proc req ~gbw_multipliers:[ 0.6; 1.0; 1.8 ]
  in
  Alcotest.(check int) "three points" 3 (List.length points);
  let front = Pareto.front points in
  Alcotest.(check bool) "front non-empty" true (front <> []);
  (* along the front, more bandwidth must cost at least as much power *)
  let rec monotone = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) ->
      a.Pareto.gbw_target_hz <= b.Pareto.gbw_target_hz
      && a.Pareto.power <= b.Pareto.power && monotone rest
  in
  Alcotest.(check bool) "front monotone" true (monotone front);
  Alcotest.(check bool) "render" true (String.length (Pareto.render front) > 0)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "extensions"
    [
      ( "corners",
        [
          quick "scaling" test_corner_scaling;
          quick "temperature" test_corner_temperature;
          quick "tt identity" test_corner_tt_is_identity_at_nominal;
          slow "corner check" test_corner_check_runs;
        ] );
      ( "noise",
        [
          quick "kT/C theorem" test_noise_ktc_theorem;
          quick "ota contributions" test_noise_ota_contributions;
          quick "non-finite transfer function is an error" test_noise_non_finite_tf_is_error;
        ] );
      ( "area",
        [
          quick "positive and caps dominated" test_area_positive_and_caps_dominated;
          quick "rank sorted" test_area_rank_sorted;
          quick "monotonicity argument" test_area_monotonicity_argument;
        ] );
      ( "montecarlo",
        [
          slow "full yield inside budget" test_montecarlo_small_offsets_full_yield;
          slow "yield knee" test_montecarlo_sweep_knee;
        ] );
      ("pareto", [ slow "front monotone" test_pareto_front_monotone ]);
    ]
