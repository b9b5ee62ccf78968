(* Tests for the ADC block models: capacitor sizing, comparators, MDAC
   spec translation, S/H, and the OTA generator with its hybrid
   evaluation. *)

module Rng = Adc_numerics.Rng
module Process = Adc_circuit.Process
module Caps = Adc_mdac.Caps
module Comparator = Adc_mdac.Comparator
module Mdac_stage = Adc_mdac.Mdac_stage
module Sha = Adc_mdac.Sha
module Ota = Adc_mdac.Ota
module Tally = Adc_numerics.Tally
module Expr = Adc_sfg.Expr

let proc = Process.c025

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1.0 +. Float.abs expected) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ------------------------------------------------------------------ *)
(* Caps *)

let test_caps_noise_scaling () =
  (* kT/C capacitance grows 4x per bit of accuracy *)
  let c b = Caps.c_total_for_noise proc ~vref_pp:2.0 ~bits:b ~noise_fraction:0.1 in
  check_close ~eps:1e-9 "4x per bit" 4.0 (c 11 /. c 10);
  check_close ~eps:1e-9 "16x per 2 bits" 16.0 (c 12 /. c 10)

let test_caps_matching_floor () =
  let cu = Caps.c_unit_for_matching proc ~bits:4 ~m:2 in
  check_close ~eps:1e-12 "floor at low accuracy" proc.Process.c_unit_min cu;
  let cu13 = Caps.c_unit_for_matching proc ~bits:13 ~m:2 in
  Alcotest.(check bool) "13-bit unit above floor" true (cu13 > proc.Process.c_unit_min)

let test_caps_sizing_structure () =
  let s = Caps.size proc ~bits:12 ~m:3 ~vref_pp:2.0 ~noise_fraction:0.1 ~c_in_ratio:0.15 in
  Alcotest.(check int) "4 units for m=3" 4 s.Caps.n_units;
  check_close ~eps:1e-9 "gain 4" 4.0 s.Caps.gain;
  check_close ~eps:1e-9 "cs = 3 cf" 3.0 (s.Caps.c_sample /. s.Caps.c_feedback);
  check_close ~eps:1e-9 "total = cs + cf" s.Caps.c_total (s.Caps.c_sample +. s.Caps.c_feedback);
  (* beta = 1 / (gain * (1 + ratio)) in the scale-invariant model *)
  check_close ~eps:1e-9 "beta" (1.0 /. (4.0 *. 1.15)) s.Caps.beta

let prop_caps_invariants =
  QCheck2.Test.make ~name:"cap sizing invariants" ~count:100
    QCheck2.Gen.(pair (int_range 6 14) (int_range 2 4))
    (fun (bits, m) ->
      let s = Caps.size proc ~bits ~m ~vref_pp:2.0 ~noise_fraction:0.1 ~c_in_ratio:0.15 in
      s.Caps.n_units = 1 lsl (m - 1)
      && s.Caps.c_unit >= proc.Process.c_unit_min
      && s.Caps.beta > 0.0
      && s.Caps.beta < 1.0
      && Float.abs (s.Caps.c_total -. (float_of_int s.Caps.n_units *. s.Caps.c_unit)) < 1e-18)

(* ------------------------------------------------------------------ *)
(* Comparator *)

let test_comparator_count () =
  Alcotest.(check int) "1.5-bit stage has 2" 2 (Comparator.count ~m:2);
  Alcotest.(check int) "2.5-bit stage has 6" 6 (Comparator.count ~m:3);
  Alcotest.(check int) "3.5-bit stage has 14" 14 (Comparator.count ~m:4)

let test_comparator_offset_budget () =
  (* one redundant bit relaxes offsets to vref/2^(m+1) *)
  check_close "m=2 budget" 0.25 (Comparator.offset_budget ~vref_pp:2.0 ~m:2);
  check_close "m=4 budget" 0.0625 (Comparator.offset_budget ~vref_pp:2.0 ~m:4)

let test_comparator_power_monotone_m () =
  let p m = Comparator.stage_power proc ~fs:40e6 ~vref_pp:2.0 ~m in
  Alcotest.(check bool) "more bits cost more" true (p 2 < p 3 && p 3 < p 4)

let test_comparator_power_scales_with_fs () =
  let p fs = Comparator.power_per_comparator proc ~fs ~offset_budget:0.25 in
  Alcotest.(check bool) "dynamic part grows with fs" true (p 80e6 > p 40e6)

let test_comparator_decide_known () =
  let d = Comparator.decide ~vref_pp:2.0 ~vcm:0.0 ~m:2 ~offsets:[| 0.0; 0.0 |] in
  (* 1.5-bit thresholds at -0.25 and +0.25 *)
  Alcotest.(check int) "low" 0 (d (-0.5)).Comparator.code;
  Alcotest.(check int) "mid" 1 (d 0.0).Comparator.code;
  Alcotest.(check int) "high" 2 (d 0.5).Comparator.code

let prop_comparator_decide_monotone =
  QCheck2.Test.make ~name:"flash code monotone in input" ~count:100
    QCheck2.Gen.(pair (int_range 2 4) (pair (float_range (-1.0) 1.0) (float_range (-1.0) 1.0)))
    (fun (m, (v1, v2)) ->
      let offsets = Array.make (Comparator.count ~m) 0.0 in
      let code v = (Comparator.decide ~vref_pp:2.0 ~vcm:0.0 ~m ~offsets v).Comparator.code in
      if v1 <= v2 then code v1 <= code v2 else code v1 >= code v2)

(* ------------------------------------------------------------------ *)
(* Mdac_stage *)

let spec_of m bits = Mdac_stage.default_spec ~m ~accuracy_bits:bits ~fs:40e6

let test_requirements_structure () =
  let req = Mdac_stage.requirements proc (spec_of 3 12) ~c_load_ext:1e-12 ~c_in_ratio:0.15 in
  (* settling accuracy is the backend resolution: 12 - 2 = 10 bits *)
  check_close ~eps:1e-12 "settle tolerance" (2.0 ** -11.0) req.Mdac_stage.settle_tol;
  Alcotest.(check bool) "gain spec positive" true (req.Mdac_stage.a0_min > 1000.0);
  Alcotest.(check bool) "load includes feedback cap" true
    (req.Mdac_stage.c_load_eff > req.Mdac_stage.c_load_ext)

let test_requirements_monotone_bits () =
  let gbw bits =
    (Mdac_stage.requirements proc (spec_of 3 bits) ~c_load_ext:1e-12 ~c_in_ratio:0.15)
      .Mdac_stage.gbw_min_hz
  in
  Alcotest.(check bool) "more accuracy needs more bandwidth" true (gbw 13 > gbw 9)

let test_requirements_monotone_fs () =
  let gbw fs =
    let spec = { (spec_of 3 12) with Mdac_stage.fs } in
    (Mdac_stage.requirements proc spec ~c_load_ext:1e-12 ~c_in_ratio:0.15)
      .Mdac_stage.gbw_min_hz
  in
  Alcotest.(check bool) "faster clock needs more bandwidth" true (gbw 80e6 > gbw 40e6)

let test_equation_power_positive_and_monotone () =
  let p bits =
    let req = Mdac_stage.requirements proc (spec_of 3 bits) ~c_load_ext:1e-12 ~c_in_ratio:0.15 in
    (Mdac_stage.equation_power proc req).Mdac_stage.p_total
  in
  Alcotest.(check bool) "positive" true (p 10 > 0.0);
  Alcotest.(check bool) "monotone in accuracy" true (p 13 > p 10)

let test_residue_known_values () =
  (* 1.5-bit stage, code 1 (middle): residue = 2x *)
  let r = Mdac_stage.residue_ideal ~m:2 ~vref_pp:2.0 ~vcm:0.0 ~code:1 0.1 in
  check_close ~eps:1e-12 "mid segment doubles" 0.2 r;
  (* code 2 subtracts half the reference after gain *)
  let r = Mdac_stage.residue_ideal ~m:2 ~vref_pp:2.0 ~vcm:0.0 ~code:2 0.5 in
  check_close ~eps:1e-12 "top segment" 0.0 r

let prop_residue_bounded =
  QCheck2.Test.make ~name:"residue stays in range for correct codes" ~count:200
    QCheck2.Gen.(pair (int_range 2 4) (float_range (-0.999) 0.999))
    (fun (m, x) ->
      let v = x *. 1.0 in
      let offsets = Array.make (Comparator.count ~m) 0.0 in
      let code = (Comparator.decide ~vref_pp:2.0 ~vcm:0.0 ~m ~offsets v).Comparator.code in
      let r = Mdac_stage.residue_ideal ~m ~vref_pp:2.0 ~vcm:0.0 ~code v in
      (* with ideal thresholds the residue never exceeds half scale + one
         sub-DAC step *)
      Float.abs r <= 1.0 +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Sha *)

let test_sha_requirements () =
  let req = Sha.requirements proc ~bits:13 ~fs:40e6 ~vref_pp:2.0 ~noise_fraction:0.1 in
  Alcotest.(check bool) "cap positive" true (req.Sha.c_sample > 0.0);
  Alcotest.(check bool) "gain spec" true (req.Sha.a0_min > 10000.0);
  let p = Sha.equation_power proc req ~c_load_ext:2e-12 in
  Alcotest.(check bool) "power positive" true (p > 0.0)

(* ------------------------------------------------------------------ *)
(* Ota *)

let test_ota_netlist_valid () =
  List.iter
    (fun topology ->
      let z = { Ota.default_sizing with Ota.topology } in
      let p = Ota.build proc z in
      match Adc_circuit.Netlist.validate p.Ota.nl with
      | Ok () -> ()
      | Error e -> Alcotest.failf "invalid netlist: %s" e)
    [ Ota.Miller_simple; Ota.Miller_cascode ]

let test_ota_simple_evaluates () =
  match Ota.evaluate proc Ota.default_sizing with
  | Error e -> Alcotest.failf "evaluate failed: %s" e
  | Ok perf ->
    Alcotest.(check bool) "gain above 60 dB" true (perf.Ota.dc_gain > 1000.0);
    Alcotest.(check bool) "devices saturated" true perf.Ota.all_saturated;
    Alcotest.(check bool) "positive power" true (perf.Ota.power > 0.0);
    Alcotest.(check bool) "has unity-gain freq" true (perf.Ota.gbw_hz <> None);
    Alcotest.(check bool) "swing window sane" true
      (perf.Ota.swing_high > perf.Ota.swing_low)

(* A non-finite load capacitance leaves the DC point alone but makes the
   transfer function NaN: the evaluator answers a typed error instead of
   metrics read off the root finder's untouched initial guesses. *)
let test_ota_non_finite_tf_is_error () =
  match Ota.evaluate ~load_cap:nan proc Ota.default_sizing with
  | Ok perf ->
    Alcotest.failf "evaluated a NaN transfer function: a0 %g, pole1 %s" perf.Ota.dc_gain
      (match perf.Ota.pole1_hz with Some f -> string_of_float f | None -> "none")
  | Error e ->
    Alcotest.(check bool) ("typed error: " ^ e) true
      (String.starts_with ~prefix:"transfer-function analysis failed" e)

let test_ota_cascode_has_more_gain () =
  let simple = { Ota.default_sizing with Ota.topology = Ota.Miller_simple } in
  let cascode = { Ota.default_sizing with Ota.topology = Ota.Miller_cascode; v_casc = 1.3 } in
  match (Ota.evaluate proc simple, Ota.evaluate proc cascode) with
  | Ok s, Ok c ->
    Alcotest.(check bool)
      (Printf.sprintf "cascode gain (%.0f) > simple gain (%.0f)" c.Ota.dc_gain s.Ota.dc_gain)
      true (c.Ota.dc_gain > s.Ota.dc_gain)
  | Error e, _ | _, Error e -> Alcotest.failf "evaluate failed: %s" e

let test_ota_settling_bench_accuracy () =
  match
    Ota.settling_bench proc Ota.default_sizing ~gain:2.0 ~c_feedback:0.5e-12
      ~c_load:1e-12 ~v_step:0.2 ~t_window:60e-9 ~tol:0.001
  with
  | Error e -> Alcotest.failf "settling bench failed: %s" e
  | Ok s ->
    Alcotest.(check bool) "settles" true (s.Ota.settle_time <> None);
    Alcotest.(check bool)
      (Printf.sprintf "small static error (%.2e)" s.Ota.static_error)
      true
      (s.Ota.static_error < 0.01);
    check_close ~eps:0.02 "final matches charge conservation" s.Ota.ideal_value s.Ota.final_value

let test_ota_symbolic_transfer_mentions_devices () =
  match Ota.symbolic_transfer proc Ota.default_sizing with
  | Error e -> Alcotest.failf "symbolic transfer failed: %s" e
  | Ok expr ->
    let vs = Expr.vars expr in
    Alcotest.(check bool) "mentions gm of the input pair" true (List.mem "gm_m2" vs);
    Alcotest.(check bool) "mentions the Laplace variable" true (List.mem "s" vs)

let test_ota_power_tracks_bias () =
  let low = { Ota.default_sizing with Ota.i_bias = 50e-6 } in
  let high = { Ota.default_sizing with Ota.i_bias = 200e-6 } in
  match (Ota.evaluate proc low, Ota.evaluate proc high) with
  | Ok l, Ok h -> Alcotest.(check bool) "power follows bias" true (h.Ota.power > l.Ota.power)
  | Error e, _ | _, Error e -> Alcotest.failf "evaluate failed: %s" e

(* ------------------------------------------------------------------ *)
(* Bias servo *)

module Dc = Adc_circuit.Dc
module Mna = Adc_circuit.Mna
module Netlist = Adc_circuit.Netlist
module Stimulus = Adc_circuit.Stimulus
module Spec = Adc_pipeline.Spec
module Synthesizer = Adc_synth.Synthesizer

(* The servo as it was before its probes were warm-started: every probe
   and the returned point built and solved cold. Kept as the oracle for
   [Ota.biased_operating_point]; it also reports whether it took the
   cannot-center branch and whether any of its cold probes failed. *)
type oracle = {
  res : (Dc.result, string) result;
  railed : bool;
  probe_failed : bool;
}

let cold_servo ~load_cap proc z =
  let vcm_v = Ota.default_vcm proc in
  let target = 0.5 *. proc.Process.vdd in
  let probe_failed = ref false in
  let out_at inv_dc =
    let p = Ota.build ~load_cap ~vcm:vcm_v ~inv_dc proc z in
    match Dc.solve p.Ota.nl with
    | Ok op -> Some (op, Dc.node_voltage op p.Ota.out)
    | Error _ ->
      probe_failed := true;
      None
  in
  let lo = Float.max 0.2 (vcm_v -. 0.3) and hi = Float.min proc.Process.vdd (vcm_v +. 0.3) in
  let res, railed =
    match (out_at lo, out_at hi) with
    | None, _ | _, None -> (Error "OTA DC failed during bias servo", false)
    | Some (_, v_lo), Some (_, v_hi) ->
      if (v_lo -. target) *. (v_hi -. target) > 0.0 then
        match out_at vcm_v with
        | Some (op, _) -> (Ok op, true)
        | None -> (Error "OTA DC failed", true)
      else begin
        let rec bisect lo hi i =
          let mid = 0.5 *. (lo +. hi) in
          if i >= 60 then mid
          else
            match out_at mid with
            | None -> mid
            | Some (_, v) ->
              if Float.abs (v -. target) < 0.01 then mid
              else if (v -. target) > 0.0 then bisect mid hi (i + 1)
              else bisect lo mid (i + 1)
        in
        match out_at (bisect lo hi 0) with
        | Some (op, _) -> (Ok op, false)
        | None -> (Error "OTA DC failed at servo point", false)
      end
  in
  { res; railed; probe_failed = !probe_failed }

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v)) a b

let check_same_op what (e : Dc.result) (got : Dc.result) =
  if not (same_bits e.Dc.x got.Dc.x) then Alcotest.failf "%s: op.x differs" what;
  Alcotest.(check int) (what ^ ": iterations") e.Dc.iterations got.Dc.iterations;
  Alcotest.(check string) (what ^ ": strategy") e.Dc.strategy got.Dc.strategy

(* Wherever every cold probe converges, the warm-started servo walks the
   same bisection and returns the oracle's point bit for bit. Where a
   cold probe fails, the oracle gives up while the warm probe may
   converge and the search goes on; the returned point must then still
   be the cold solution of the returned bench. *)
let test_servo_matches_cold_oracle () =
  let rng = Random.State.make [| 13; 0x5e70 |] in
  let specs =
    [
      ("c025", Spec.paper_case ~k:10);
      ("c018", Spec.make ~process:(Fixtures.card "c018.sp") ~k:10 ~fs:40e6 ());
      ("c060", Spec.make ~process:(Fixtures.card "c060.sp") ~k:10 ~fs:40e6 ());
    ]
  in
  let jobs = [ { Spec.m = 2; input_bits = 8 }; { Spec.m = 3; input_bits = 10 } ] in
  let centered = ref 0 and railed = ref 0 in
  List.iter
    (fun (card_name, spec) ->
      let proc = spec.Spec.process in
      List.iter
        (fun job ->
          let req = Spec.stage_requirements spec job in
          let load_cap = req.Mdac_stage.c_load_eff in
          let z0 = Synthesizer.initial_sizing proc req in
          List.iteri
            (fun i z ->
              List.iter
                (fun backend ->
                  Fixtures.on_solver backend @@ fun () ->
                  let what =
                    Printf.sprintf "%s %s candidate %d %s" card_name (Spec.job_to_string job) i
                      (Fixtures.solver_name backend)
                  in
                  let o = cold_servo ~load_cap proc z in
                  let got = Ota.biased_operating_point ~load_cap proc z in
                  (match o.res with
                  | Ok _ when o.railed -> incr railed
                  | Ok _ -> incr centered
                  | Error _ -> ());
                  match (o.res, got) with
                  | _, Ok (p, op) when o.probe_failed -> (
                    match Dc.solve p.Ota.nl with
                    | Ok cold -> check_same_op (what ^ " (cold re-solve)") cold op
                    | Error e -> Alcotest.failf "%s: returned bench does not solve cold: %s" what e)
                  | Error e, Error got -> Alcotest.(check string) (what ^ ": error") e got
                  | Ok e, Ok (_, got) -> check_same_op what e got
                  | Ok _, Error e -> Alcotest.failf "%s: servo failed (%s), oracle did not" what e
                  | Error e, Ok _ -> Alcotest.failf "%s: oracle failed (%s), servo did not" what e)
                [ `Sparse; `Dense ])
            (z0 :: Fixtures.candidates ~rng ~n:6 z0))
        jobs)
    specs;
  Alcotest.(check bool) (Printf.sprintf "centered points covered (%d)" !centered) true (!centered > 0);
  Alcotest.(check bool) (Printf.sprintf "cannot-center points covered (%d)" !railed) true (!railed > 0)

(* The closed-loop guide has to pay for itself over the oracle test's
   seeded candidates: centered points take it (at most one fallback in
   ten) and average at most 8 real probes, where plain bisection needs
   ~20; cannot-center points, whose locator lands outside the window,
   fall back to probing [lo] and [hi]. A silent return to full bisection
   fails here. *)
let test_servo_takes_the_guide () =
  let rng = Random.State.make [| 13; 0x5e70 |] in
  let specs =
    [
      Spec.paper_case ~k:10;
      Spec.make ~process:(Fixtures.card "c018.sp") ~k:10 ~fs:40e6 ();
      Spec.make ~process:(Fixtures.card "c060.sp") ~k:10 ~fs:40e6 ();
    ]
  in
  let jobs = [ { Spec.m = 2; input_bits = 8 }; { Spec.m = 3; input_bits = 10 } ] in
  let centered = ref 0 and probes = ref 0 and fallbacks = ref 0 in
  let railed = ref 0 and railed_fallbacks = ref 0 in
  List.iter
    (fun spec ->
      let proc = spec.Spec.process in
      List.iter
        (fun job ->
          let req = Spec.stage_requirements spec job in
          let load_cap = req.Mdac_stage.c_load_eff in
          let z0 = Synthesizer.initial_sizing proc req in
          List.iter
            (fun z ->
              List.iter
                (fun backend ->
                  Fixtures.on_solver backend @@ fun () ->
                  let o = cold_servo ~load_cap proc z in
                  let calls0 = Tally.get Ota.servo_calls and probes0 = Tally.get Ota.servo_probes
                  and fallbacks0 = Tally.get Ota.servo_fallbacks in
                  ignore (Ota.biased_operating_point ~load_cap proc z);
                  if Tally.get Ota.servo_calls - calls0 <> 1 then
                    Alcotest.fail "biased_operating_point is not one servo call";
                  let d_probes = Tally.get Ota.servo_probes - probes0
                  and d_fallbacks = Tally.get Ota.servo_fallbacks - fallbacks0 in
                  match o.res with
                  | Ok _ when o.railed ->
                    incr railed;
                    railed_fallbacks := !railed_fallbacks + d_fallbacks
                  | Ok _ ->
                    incr centered;
                    probes := !probes + d_probes;
                    fallbacks := !fallbacks + d_fallbacks
                  | Error _ -> ())
                [ `Sparse; `Dense ])
            (z0 :: Fixtures.candidates ~rng ~n:6 z0))
        jobs)
    specs;
  Alcotest.(check bool) "centered points covered" true (!centered > 0);
  Alcotest.(check bool) "cannot-center points covered" true (!railed > 0);
  Alcotest.(check bool)
    (Printf.sprintf "centered: %d fallbacks in %d calls, at most 1 in 10" !fallbacks !centered)
    true
    (10 * !fallbacks <= !centered);
  Alcotest.(check bool)
    (Printf.sprintf "centered: %d real probes in %d calls, at most 8 per call" !probes !centered)
    true
    (!probes <= 8 * !centered);
  Alcotest.(check int) "every cannot-center point falls back" !railed !railed_fallbacks

(* The plain warm-started servo on the sparse backend, as it was before
   the closed-loop guide: one sweep bench and context, each probe's Newton started from the
   previous probe's solution (the first from zero), a failed warm probe
   retried cold on a fresh bench, the returned point solved cold. The
   guided servo falls back to exactly this sequence. It also reports its
   probe count and whether its bisection ended at a failed probe. *)
type warm = { w_res : (Dc.result, string) result; w_probes : int; ended_failed : bool }

let warm_servo ~load_cap proc z =
  let vcm_v = Ota.default_vcm proc in
  let target = 0.5 *. proc.Process.vdd in
  let solve_cold inv_dc =
    let p = Ota.build ~load_cap ~vcm:vcm_v ~inv_dc proc z in
    Result.to_option (Dc.solve p.Ota.nl)
  in
  let sweep = Ota.build ~load_cap ~vcm:vcm_v proc z in
  let ctx = Mna.context sweep.Ota.nl in
  let x_prev = ref None and probes = ref 0 and ended_failed = ref false in
  let probe inv_dc =
    incr probes;
    Netlist.set_wave sweep.Ota.nl "vin" (Stimulus.Dc inv_dc);
    let solved =
      match Dc.solve ~ctx ?x0:!x_prev sweep.Ota.nl with
      | Ok op -> Some op
      | Error _ -> solve_cold inv_dc
    in
    Option.map
      (fun op ->
        x_prev := Some op.Dc.x;
        Dc.node_voltage op sweep.Ota.out -. target)
      solved
  in
  let lo = Float.max 0.2 (vcm_v -. 0.3) and hi = Float.min proc.Process.vdd (vcm_v +. 0.3) in
  let at inv_dc err = Option.to_result ~none:err (solve_cold inv_dc) in
  let w_res =
    match (probe lo, probe hi) with
    | None, _ | _, None -> Error "OTA DC failed during bias servo"
    | Some f_lo, Some f_hi when f_lo *. f_hi > 0.0 -> at vcm_v "OTA DC failed"
    | Some _, Some _ ->
      let rec bisect lo hi i =
        let mid = 0.5 *. (lo +. hi) in
        if i >= 60 then mid
        else
          match probe mid with
          | None ->
            ended_failed := true;
            mid
          | Some f ->
            if Float.abs f < 0.01 then mid
            else if f > 0.0 then bisect mid hi (i + 1)
            else bisect lo mid (i + 1)
      in
      at (bisect lo hi 0) "OTA DC failed at servo point"
  in
  { w_res; w_probes = !probes; ended_failed = !ended_failed }

(* A c018 cascode cell from a full-budget k = 10 optimisation: its
   open-loop gain is ~1e7, and probes inside its ~1e-8 V transition can
   fail warm and cold. Here a replay probe of the guided search fails
   where the plain bisection, walking there from the window's edges,
   converges and centres the output. The servo drops the guide and runs
   the plain bisection, so it returns the plain warm servo's point
   rather than ending at the guided search's failed midpoint. *)
let test_servo_falls_back_on_failed_replay () =
  let proc = Fixtures.card "c018.sp" in
  let load_cap = 0x1.a7a2aff16d2d9p-45 in
  let z =
    {
      Ota.topology = Ota.Miller_cascode;
      w_pair = 0x1.c49d46b8753bap-17;
      l_pair = 0x1.0c6f7a0b5ed8dp-21;
      w_mirror = 0x1.d1359f2ccc038p-19;
      l_mirror = 0x1.ad7f29abcaf48p-22;
      w_tail = 0x1.becff103459c9p-16;
      l_tail = 0x1.421f5f40d8376p-21;
      w_cs = 0x1.80835924b07a5p-16;
      l_cs = 0x1.421f5f40d8376p-22;
      w_sink = 0x1.550820c936bdap-14;
      l_sink = 0x1.421f5f40d8376p-21;
      i_bias = 0x1.b4cc775763215p-15;
      c_comp = 0x1.2bee834eaf0c8p-43;
      r_zero = 0x1.b398a90098589p+10;
      v_casc = 0x1.1246c483edfd7p+0;
      v_cascp = 0x1.817de12c7aa74p-1;
    }
  in
  let w = warm_servo ~load_cap proc z in
  Alcotest.(check bool) "plain warm servo centres the output" true
    (Result.is_ok w.w_res && not w.ended_failed);
  let fallbacks0 = Tally.get Ota.servo_fallbacks and probes0 = Tally.get Ota.servo_probes in
  let got = Ota.biased_operating_point ~load_cap proc z in
  Alcotest.(check int) "the guide is dropped" 1 (Tally.get Ota.servo_fallbacks - fallbacks0);
  let probes = Tally.get Ota.servo_probes - probes0 in
  Alcotest.(check bool)
    (Printf.sprintf "guided probes before the plain ones (%d > %d)" probes w.w_probes)
    true (probes > w.w_probes);
  match (w.w_res, got) with
  | Ok e, Ok (_, got) -> check_same_op "c018 failed replay" e got
  | Error e, _ | _, Error e -> Alcotest.failf "c018 failed replay: %s" e

(* A context recorded before a value-only retarget assembles the new
   value: solving through it is bit-equal to solving a bench built with
   that value from the start, from the same starting point. *)
let test_set_wave_keeps_ctx_valid () =
  let z = { Ota.default_sizing with Ota.topology = Ota.Miller_cascode; v_casc = 1.3 } in
  let vcm = Ota.default_vcm proc in
  let retargeted = Ota.build ~inv_dc:(vcm -. 0.2) proc z in
  let ctx = Mna.context retargeted.Ota.nl in
  Netlist.set_wave retargeted.Ota.nl "vin" (Stimulus.Dc (vcm +. 0.01));
  let fresh = Ota.build ~inv_dc:(vcm +. 0.01) proc z in
  let n = Netlist.unknown_count fresh.Ota.nl in
  let x0 = Array.init n (fun i -> 0.05 *. float_of_int (i mod 7)) in
  match (Dc.solve ~ctx ~x0 retargeted.Ota.nl, Dc.solve ~x0 fresh.Ota.nl) with
  | Ok a, Ok b ->
    Alcotest.(check bool) "op.x bit-equal" true (same_bits a.Dc.x b.Dc.x);
    Alcotest.(check int) "iterations" b.Dc.iterations a.Dc.iterations;
    Alcotest.(check string) "strategy" b.Dc.strategy a.Dc.strategy
  | Error e, _ | _, Error e -> Alcotest.failf "solve failed: %s" e

let test_set_wave_rejects_non_sources () =
  let p = Ota.build proc Ota.default_sizing in
  List.iter
    (fun name ->
      match Netlist.set_wave p.Ota.nl name (Stimulus.Dc 1.0) with
      | () -> Alcotest.failf "set_wave %S accepted" name
      | exception Invalid_argument _ -> ())
    [ "no_such_source"; "m1"; "cl" ]

(* The evaluator's allocation budget: over 60 seeded cascode m3@10b
   candidates, an [Ota.evaluate] averages under 100 k minor words (the
   parent of the compiled MNA stamps allocated ~150 k). The first call
   compiles the topologies and is left out. *)
let test_evaluate_word_budget () =
  let spec = Spec.paper_case ~k:10 in
  let proc = spec.Spec.process in
  let req = Spec.stage_requirements spec { Spec.m = 3; input_bits = 10 } in
  let load_cap = req.Mdac_stage.c_load_eff in
  let z0 = Synthesizer.initial_sizing proc req in
  let candidates = Fixtures.candidates ~rng:(Random.State.make [| 19; 0xa110c |]) ~n:60 z0 in
  ignore (Ota.evaluate ~load_cap proc z0);
  let before = Gc.minor_words () in
  List.iter (fun z -> ignore (Ota.evaluate ~load_cap proc z)) candidates;
  let per_call = (Gc.minor_words () -. before) /. 60.0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words per cascode evaluate, under 100 k" per_call)
    true (per_call < 100_000.0)

(* The large-swing settling leg of a 13-bit converter's m = 3 stage at
   11 input bits, DC operating point plus adaptive transient, lands on
   the same final value on the sparse solver and on the dense oracle. *)
let test_settling_bench_matches_oracle () =
  let spec = Spec.paper_case ~k:13 in
  let req = Spec.stage_requirements spec { Spec.m = 3; input_bits = 11 } in
  let caps = req.Mdac_stage.caps in
  let final backend =
    match
      Fixtures.on_solver backend (fun () ->
          Ota.settling_bench spec.Spec.process Ota.default_sizing ~gain:caps.Caps.gain
            ~c_feedback:caps.Caps.c_feedback ~c_load:req.Mdac_stage.c_load_ext
            ~v_step:(req.Mdac_stage.spec.Mdac_stage.vref_pp /. 4.0)
            ~t_window:(2.0 *. req.Mdac_stage.t_settle)
            ~tol:req.Mdac_stage.settle_tol)
    with
    | Ok s -> s.Ota.final_value
    | Error e -> Alcotest.failf "%s settling bench failed: %s" (Fixtures.solver_name backend) e
  in
  let diff = Float.abs (final `Dense -. final `Sparse) in
  Alcotest.(check bool) (Printf.sprintf "final values differ by %g" diff) true (diff <= 1e-9)

(* A transient Newton iteration allocates nothing: on the netlist of
   the m3@11b settling bench, the companion-model Newton solve of one
   step costs the same minor words whether it stops after 5 iterations
   or 60. The step time sits past the input ramp: a [Pwl] value between
   two corners is still boxed by [Stimulus.value]. *)
let test_transient_newton_words_independent_of_iterations () =
  let spec = Spec.paper_case ~k:13 in
  let proc = spec.Spec.process in
  let req = Spec.stage_requirements spec { Spec.m = 3; input_bits = 11 } in
  let caps = req.Mdac_stage.caps in
  let vcm = Ota.default_vcm proc in
  let nl = Netlist.create proc in
  let p = Ota.add_core proc Ota.default_sizing nl in
  let step_node = Netlist.node nl "vstep" and vg_ref = Netlist.node nl "vg_ref" in
  Netlist.vsource nl "vip" p.Ota.noninv Netlist.ground (Stimulus.Dc vcm);
  Netlist.vsource nl "vg_src" vg_ref Netlist.ground (Stimulus.Dc vcm);
  Netlist.switch nl "sw_reset" p.Ota.inv vg_ref ~r_on:50.0 ~r_off:1e13
    ~closed_at:(fun t -> t < 0.5e-9);
  Netlist.vsource nl "vstep_src" step_node Netlist.ground
    (Stimulus.Pwl [| (0.0, vcm); (1.0e-9, vcm); (1.01e-9, vcm +. 0.25) |]);
  Netlist.capacitor nl "cs" step_node p.Ota.inv (caps.Caps.gain *. caps.Caps.c_feedback);
  Netlist.capacitor nl "cf" p.Ota.inv p.Ota.out caps.Caps.c_feedback;
  Netlist.capacitor nl "cl" p.Ota.out Netlist.ground req.Mdac_stage.c_load_ext;
  let h = 1e-11 in
  let geq =
    Array.of_list
      (List.filter_map
         (function Netlist.Capacitor { farads; _ } -> Some (farads /. h) | _ -> None)
         (Netlist.devices nl))
  in
  let cap_policy = Mna.Cap_companion { geq; ieq = Array.make (Array.length geq) 0.0 } in
  let ctx = Mna.context nl in
  let x0 = Array.make (Netlist.unknown_count nl) 0.0 in
  let run max_iter () =
    match
      Dc.newton ~max_iter ~vstep_limit:1e-3 ~ctx ~x0 ~time:2e-9 ~source_scale:1.0 ~gmin:1e-12
        ~cap_policy nl
    with
    | Error e when e = Printf.sprintf "Newton: no convergence in %d iterations" max_iter -> ()
    | Error e -> Alcotest.failf "Newton stopped early: %s" e
    | Ok _ -> Alcotest.failf "converged within %d iterations" max_iter
  in
  run 1 ();
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let w5 = words (run 5) and w60 = words (run 60) in
  Alcotest.(check (float 0.0)) "minor words independent of max_iter" w5 w60

(* ------------------------------------------------------------------ *)
(* Switched-capacitor MDAC transient bench *)

module Sc_mdac = Adc_mdac.Sc_mdac

let test_sc_mdac_residue_all_codes () =
  (* the full switched-capacitor signal path (sampling, DAC switching,
     flip-around amplification) must land on the ideal 1.5-bit residue *)
  List.iter
    (fun (v_in, code) ->
      match
        Sc_mdac.residue_bench proc Ota.default_sizing ~v_in ~code ~vref_pp:2.0
          ~fs:10e6
      with
      | Error e -> Alcotest.failf "bench failed: %s" e
      | Ok r ->
        Alcotest.(check bool)
          (Printf.sprintf "settled (vin %+.2f, d=%d)" v_in code)
          true r.Sc_mdac.settled;
        Alcotest.(check bool)
          (Printf.sprintf "residue error %.4f below 0.5%% (vin %+.2f, d=%d)"
             r.Sc_mdac.error_rel v_in code)
          true
          (r.Sc_mdac.error_rel < 0.005))
    [ (0.1, 1); (0.3, 2); (-0.3, 0); (-0.1, 1) ]

let prop_sc_mdac_matches_ideal =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"sc mdac tracks the ideal residue" ~count:8
       QCheck2.Gen.(float_range (-0.45) 0.45)
       (fun v_in ->
         (* the code is what the stage's own flash would decide, so the
            residue stays on-range (mismatched pairs would rail the OTA) *)
         let code =
           (Comparator.decide ~vref_pp:2.0 ~vcm:0.0 ~m:2 ~offsets:[| 0.0; 0.0 |] v_in)
             .Comparator.code
         in
         match
           Sc_mdac.residue_bench proc Ota.default_sizing ~v_in ~code ~vref_pp:2.0
             ~fs:10e6
         with
         | Error _ -> false
         | Ok r -> r.Sc_mdac.error_rel < 0.01))

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "mdac"
    [
      ( "caps",
        [
          quick "noise scaling" test_caps_noise_scaling;
          quick "matching floor" test_caps_matching_floor;
          quick "sizing structure" test_caps_sizing_structure;
          QCheck_alcotest.to_alcotest prop_caps_invariants;
        ] );
      ( "comparator",
        [
          quick "count" test_comparator_count;
          quick "offset budget" test_comparator_offset_budget;
          quick "power monotone in m" test_comparator_power_monotone_m;
          quick "power scales with fs" test_comparator_power_scales_with_fs;
          quick "decide known codes" test_comparator_decide_known;
          QCheck_alcotest.to_alcotest prop_comparator_decide_monotone;
        ] );
      ( "mdac_stage",
        [
          quick "requirements structure" test_requirements_structure;
          quick "monotone in bits" test_requirements_monotone_bits;
          quick "monotone in fs" test_requirements_monotone_fs;
          quick "equation power" test_equation_power_positive_and_monotone;
          quick "residue known values" test_residue_known_values;
          QCheck_alcotest.to_alcotest prop_residue_bounded;
        ] );
      ("sha", [ quick "requirements and power" test_sha_requirements ]);
      ( "sc-mdac",
        [
          Alcotest.test_case "residue all codes" `Slow test_sc_mdac_residue_all_codes;
          prop_sc_mdac_matches_ideal;
        ] );
      ( "ota",
        [
          quick "netlists valid" test_ota_netlist_valid;
          quick "simple evaluates" test_ota_simple_evaluates;
          quick "non-finite transfer function is an error" test_ota_non_finite_tf_is_error;
          quick "cascode gain" test_ota_cascode_has_more_gain;
          quick "settling bench" test_ota_settling_bench_accuracy;
          quick "settling bench matches oracle" test_settling_bench_matches_oracle;
          quick "transient newton words independent of iterations"
            test_transient_newton_words_independent_of_iterations;
          quick "symbolic transfer" test_ota_symbolic_transfer_mentions_devices;
          quick "power tracks bias" test_ota_power_tracks_bias;
        ] );
      ( "bias-servo",
        [
          quick "matches the cold oracle" test_servo_matches_cold_oracle;
          quick "takes the closed-loop guide" test_servo_takes_the_guide;
          quick "falls back on a failed replay probe" test_servo_falls_back_on_failed_replay;
          quick "set_wave keeps a ctx valid" test_set_wave_keeps_ctx_valid;
          quick "set_wave rejects non-sources" test_set_wave_rejects_non_sources;
          quick "evaluate word budget" test_evaluate_word_budget;
        ] );
    ]
