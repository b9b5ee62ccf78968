(* Tests for the symbolic DPI/SFG layer. The strongest checks cross-validate
   Mason's rule on DPI-derived graphs against the independent complex-MNA AC
   engine on the same netlist. *)

module Expr = Adc_sfg.Expr
module Ratfun = Adc_sfg.Ratfun
module Sgraph = Adc_sfg.Sgraph
module Mason = Adc_sfg.Mason
module Dpi = Adc_sfg.Dpi
module Analysis = Adc_sfg.Analysis
module Poly = Adc_numerics.Poly
module Tally = Adc_numerics.Tally
module Process = Adc_circuit.Process
module Netlist = Adc_circuit.Netlist
module Stimulus = Adc_circuit.Stimulus
module Dc = Adc_circuit.Dc
module Smallsig = Adc_circuit.Smallsig
module Ac = Adc_circuit.Ac

let proc = Process.c025

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1.0 +. Float.abs expected) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ------------------------------------------------------------------ *)
(* Expr *)

let test_expr_simplify () =
  let e = Expr.(var "a" + const 0.0) in
  Alcotest.(check bool) "x+0 = x" true (Expr.equal e (Expr.var "a"));
  let e = Expr.(const 2.0 * const 3.0) in
  Alcotest.(check bool) "const fold" true (Expr.equal e (Expr.const 6.0));
  let e = Expr.(var "a" * const 0.0) in
  Alcotest.(check bool) "x*0 = 0" true (Expr.equal e Expr.zero);
  let e = Expr.(neg (neg (var "a"))) in
  Alcotest.(check bool) "--x = x" true (Expr.equal e (Expr.var "a"))

let test_expr_eval () =
  let env = function "a" -> 2.0 | "b" -> 3.0 | _ -> raise Not_found in
  let e = Expr.(var "a" * (var "b" + const 1.0)) in
  check_close "2*(3+1)" 8.0 (Expr.eval e env);
  let e = Expr.(pow (var "a") 3 / var "b") in
  check_close "8/3" (8.0 /. 3.0) (Expr.eval e env)

let test_expr_vars () =
  let e = Expr.(var "gm" * var "ro" / (var "gm" + s)) in
  Alcotest.(check (list string)) "vars" [ "gm"; "ro"; "s" ] (Expr.vars e)

let test_expr_to_string_round () =
  let e = Expr.(var "gm" / (var "g" + (s * var "c"))) in
  let str = Expr.to_string e in
  Alcotest.(check bool) "mentions gm" true
    (String.length str > 0 && String.length str < 200)

(* ------------------------------------------------------------------ *)
(* Ratfun *)

let test_ratfun_arith () =
  (* 1/(s+1) + 1/(s+2) = (2s+3)/((s+1)(s+2)) *)
  let a = Ratfun.make Poly.one (Poly.of_coeffs [| 1.0; 1.0 |]) in
  let b = Ratfun.make Poly.one (Poly.of_coeffs [| 2.0; 1.0 |]) in
  let sum = Ratfun.add a b in
  let z = Ratfun.eval sum { Complex.re = 1.0; im = 0.0 } in
  check_close "value at s=1" ((1.0 /. 2.0) +. (1.0 /. 3.0)) z.Complex.re

let test_ratfun_reduce () =
  (* (s+1)(s+2) / (s+1)(s+3) reduces to (s+2)/(s+3) *)
  let num = Poly.mul (Poly.of_coeffs [| 1.0; 1.0 |]) (Poly.of_coeffs [| 2.0; 1.0 |]) in
  let den = Poly.mul (Poly.of_coeffs [| 1.0; 1.0 |]) (Poly.of_coeffs [| 3.0; 1.0 |]) in
  let r = Ratfun.reduce (Ratfun.make num den) in
  Alcotest.(check int) "num degree" 1 (Poly.degree r.Ratfun.num);
  Alcotest.(check int) "den degree" 1 (Poly.degree r.Ratfun.den);
  check_close ~eps:1e-6 "dc gain preserved" (2.0 /. 3.0) (Ratfun.dc_gain r)

let test_ratfun_of_expr () =
  (* gm/(g + s c): dc gain gm/g, pole at -g/c *)
  let e = Expr.(var "gm" / (var "g" + (s * var "c"))) in
  let env = function
    | "gm" -> 1e-3
    | "g" -> 1e-4
    | "c" -> 1e-12
    | _ -> raise Not_found
  in
  let r = Ratfun.of_expr e ~env in
  check_close ~eps:1e-9 "dc gain" 10.0 (Ratfun.dc_gain r);
  let poles = Ratfun.poles r in
  Alcotest.(check int) "one pole" 1 (Array.length poles);
  check_close ~eps:1e-6 "pole location" (-1e8) poles.(0).Complex.re

let test_ratfun_eval_jw () =
  let r = Ratfun.make Poly.one (Poly.of_coeffs [| 1.0; 1.0 /. (2.0 *. Float.pi) |]) in
  (* pole at f = 1 Hz *)
  check_close ~eps:1e-9 "half-power at pole" (1.0 /. sqrt 2.0)
    (Complex.norm (Ratfun.eval_jw r 1.0))

(* ------------------------------------------------------------------ *)
(* Mason *)

let test_mason_single_loop () =
  (* x -G-> y with feedback y -(-H)-> x : T = G/(1+GH) *)
  let g = Sgraph.create () in
  let x = Sgraph.add_node g "x" and y = Sgraph.add_node g "y" in
  Sgraph.add_edge g x y (Expr.var "G");
  Sgraph.add_edge g y x (Expr.neg (Expr.var "H"));
  let t = Mason.transfer g ~src:x ~dst:y in
  let env = function "G" -> 10.0 | "H" -> 0.4 | _ -> raise Not_found in
  check_close ~eps:1e-12 "feedback gain" (10.0 /. 5.0) (Expr.eval t env)

let test_mason_cascade () =
  let g = Sgraph.create () in
  let a = Sgraph.add_node g "a" and b = Sgraph.add_node g "b" and c = Sgraph.add_node g "c" in
  Sgraph.add_edge g a b (Expr.const 3.0);
  Sgraph.add_edge g b c (Expr.const 4.0);
  let t = Mason.transfer g ~src:a ~dst:c in
  check_close "cascade 3*4" 12.0 (Expr.eval t (fun _ -> raise Not_found))

let test_mason_two_nontouching_loops () =
  (* path a->b->c->d with self-loops on b and d:
     Delta = 1 - (L1 + L2) + L1 L2; the path touches both loops so the
     cofactor is 1: T = P / Delta *)
  let g = Sgraph.create () in
  let a = Sgraph.add_node g "a" and b = Sgraph.add_node g "b" in
  let c = Sgraph.add_node g "c" and d = Sgraph.add_node g "d" in
  Sgraph.add_edge g a b (Expr.const 2.0);
  Sgraph.add_edge g b c (Expr.const 3.0);
  Sgraph.add_edge g c d (Expr.const 5.0);
  Sgraph.add_edge g b b (Expr.var "L1");
  Sgraph.add_edge g d d (Expr.var "L2");
  let t = Mason.transfer g ~src:a ~dst:d in
  let env = function "L1" -> 0.25 | "L2" -> 0.5 | _ -> raise Not_found in
  let delta = 1.0 -. (0.25 +. 0.5) +. (0.25 *. 0.5) in
  check_close ~eps:1e-12 "two-loop mason" (30.0 /. delta) (Expr.eval t env)

let test_mason_cofactor () =
  (* two parallel paths a->b->d (through a loop-free branch) and a->c->d
     where c has a self-loop not touching path 1:
     T = P1*(1 - L) / (1 - L) + P2 * 1 / (1 - L) -- computed explicitly *)
  let g = Sgraph.create () in
  let a = Sgraph.add_node g "a" and b = Sgraph.add_node g "b" in
  let c = Sgraph.add_node g "c" and d = Sgraph.add_node g "d" in
  Sgraph.add_edge g a b (Expr.const 2.0);
  Sgraph.add_edge g b d (Expr.const 3.0);
  Sgraph.add_edge g a c (Expr.const 5.0);
  Sgraph.add_edge g c d (Expr.const 7.0);
  Sgraph.add_edge g c c (Expr.var "L");
  let t = Mason.transfer g ~src:a ~dst:d in
  let l = 0.2 in
  let env = function "L" -> l | _ -> raise Not_found in
  (* path a-b-d does not touch loop at c: cofactor (1-L); path a-c-d touches it *)
  let expected = ((6.0 *. (1.0 -. l)) +. 35.0) /. (1.0 -. l) in
  check_close ~eps:1e-12 "cofactor" expected (Expr.eval t env)

let test_mason_no_path () =
  let g = Sgraph.create () in
  let a = Sgraph.add_node g "a" and b = Sgraph.add_node g "b" in
  Sgraph.add_edge g b a (Expr.const 1.0);
  let t = Mason.transfer g ~src:a ~dst:b in
  Alcotest.(check bool) "zero transfer" true (Expr.equal t Expr.zero)

let test_mason_report_counts () =
  let g = Sgraph.create () in
  let a = Sgraph.add_node g "a" and b = Sgraph.add_node g "b" in
  Sgraph.add_edge g a b (Expr.const 1.0);
  Sgraph.add_edge g b b (Expr.const 0.5);
  let r = Mason.transfer_report g ~src:a ~dst:b in
  Alcotest.(check int) "paths" 1 r.Mason.n_paths;
  Alcotest.(check int) "loops" 1 r.Mason.n_loops

let test_sgraph_parallel_edges_merge () =
  let g = Sgraph.create () in
  let a = Sgraph.add_node g "a" and b = Sgraph.add_node g "b" in
  Sgraph.add_edge g a b (Expr.const 2.0);
  Sgraph.add_edge g a b (Expr.const 3.0);
  Alcotest.(check int) "merged into one edge" 1 (Array.length (Sgraph.edges g));
  let t = Mason.transfer g ~src:a ~dst:b in
  check_close "summed gain" 5.0 (Expr.eval t (fun _ -> raise Not_found))

(* ------------------------------------------------------------------ *)
(* DPI vs analytic and vs the AC engine *)

let rc_netlist () =
  let nl = Netlist.create proc in
  let vin = Netlist.node nl "in" and out = Netlist.node nl "out" in
  Netlist.vsource nl ~ac_mag:1.0 "vs" vin Netlist.ground (Stimulus.Dc 0.0);
  Netlist.resistor nl "r" vin out 1000.0;
  Netlist.capacitor nl "c" out Netlist.ground 1e-9;
  (nl, vin, out)

let test_dpi_rc_lowpass () =
  let nl, _vin, out = rc_netlist () in
  let dc = match Dc.solve nl with Ok r -> r | Error e -> Alcotest.failf "dc: %s" e in
  let ss = Smallsig.extract nl dc in
  let dpi = Dpi.build nl ss in
  let h = Dpi.numeric_transfer_to dpi out in
  let fc = 1.0 /. (2.0 *. Float.pi *. 1000.0 *. 1e-9) in
  check_close ~eps:1e-9 "dc gain 1" 1.0 (Ratfun.dc_gain h);
  check_close ~eps:1e-9 "-3dB at fc" (1.0 /. sqrt 2.0) (Complex.norm (Ratfun.eval_jw h fc))

let test_dpi_symbolic_form () =
  let nl, _vin, out = rc_netlist () in
  let dc = match Dc.solve nl with Ok r -> r | Error e -> Alcotest.failf "dc: %s" e in
  let ss = Smallsig.extract nl dc in
  let dpi = Dpi.build nl ss in
  let t = Dpi.transfer_to dpi out in
  (* symbolic TF references the resistor conductance and the capacitor *)
  let vs = Expr.vars t in
  Alcotest.(check bool) "references g_r" true (List.mem "g_r" vs);
  Alcotest.(check bool) "references c_c" true (List.mem "c_c" vs);
  Alcotest.(check bool) "references s" true (List.mem "s" vs)

(* [m_name] names the transistor, so a test can make a topology no
   other test has compiled *)
let common_source ?(m_name = "m1") () =
  let nl = Netlist.create proc in
  let vdd = Netlist.node nl "vdd" and out = Netlist.node nl "out" and g = Netlist.node nl "g" in
  Netlist.vsource nl "vdd_src" vdd Netlist.ground (Stimulus.Dc 3.3);
  Netlist.vsource nl ~ac_mag:1.0 "vg" g Netlist.ground (Stimulus.Dc 1.0);
  Netlist.resistor nl "rd" vdd out 5000.0;
  Netlist.capacitor nl "cl" out Netlist.ground 1e-12;
  Netlist.mosfet nl m_name ~d:out ~g ~s:Netlist.ground ~b:Netlist.ground Process.Nmos
    ~w:10e-6 ~l:1e-6 ();
  (nl, out)

let test_dpi_matches_ac_engine () =
  let nl, out = common_source () in
  let dc = match Dc.solve nl with Ok r -> r | Error e -> Alcotest.failf "dc: %s" e in
  let ss = Smallsig.extract nl dc in
  let dpi = Dpi.build nl ss in
  let h = Dpi.numeric_transfer_to dpi out in
  let freqs = [| 1e3; 1e6; 1e8; 1e9 |] in
  let pts = Ac.run nl ss ~freqs in
  Array.iteri
    (fun i f ->
      let via_ac = Ac.voltage pts.(i) out in
      let via_dpi = Ratfun.eval_jw h f in
      check_close ~eps:1e-3
        (Printf.sprintf "magnitude at %.0g Hz" f)
        (Complex.norm via_ac) (Complex.norm via_dpi);
      check_close ~eps:1e-2
        (Printf.sprintf "phase at %.0g Hz" f)
        (Complex.arg via_ac) (Complex.arg via_dpi))
    freqs

let test_dpi_rejects_vcvs () =
  let nl = Netlist.create proc in
  let a = Netlist.node nl "a" and b = Netlist.node nl "b" in
  Netlist.vsource nl ~ac_mag:1.0 "vs" a Netlist.ground (Stimulus.Dc 0.0);
  Netlist.vcvs nl "e1" ~p:b ~n:Netlist.ground ~cp:a ~cn:Netlist.ground ~gain:2.0;
  Netlist.resistor nl "r" a b 100.0;
  let dc = match Dc.solve nl with Ok r -> r | Error e -> Alcotest.failf "dc: %s" e in
  let ss = Smallsig.extract nl dc in
  Alcotest.(check bool) "unsupported" true
    (try
       ignore (Dpi.build nl ss);
       false
     with Dpi.Unsupported _ -> true)

(* ------------------------------------------------------------------ *)
(* Compiled DPI programs, bit for bit the Expr-sampling reference *)

module Mosfet = Adc_circuit.Mosfet
module Ota = Adc_mdac.Ota
module Mdac_stage = Adc_mdac.Mdac_stage
module Spec = Adc_pipeline.Spec
module Synthesizer = Adc_synth.Synthesizer
module Optimize = Adc_pipeline.Optimize

let small_signal nl =
  match Dc.solve nl with Ok r -> Smallsig.extract nl r | Error e -> Alcotest.failf "dc: %s" e

(* a transfer function, or the refusal both sides must agree on *)
let outcome f =
  match f () with
  | tf -> Some tf
  | exception (Dpi.Unsupported _ | Oracle.Unsupported _) -> None

(* true when both answered *)
let check_same_tf what expected actual =
  match (outcome expected, outcome actual) with
  | Some e, Some a ->
    if not (Oracle.same_ratfun e a) then
      Alcotest.failf "%s: coefficients differ from the reference" what;
    true
  | None, None -> false
  | Some _, None -> Alcotest.failf "%s: refused where the reference answers" what
  | None, Some _ -> Alcotest.failf "%s: answered where the reference refuses" what

(* the signal transfer function and every current injection the noise
   analysis makes (drain-source of each MOS, across each resistor) *)
let check_against_reference what nl ss out =
  let dpi = Dpi.build nl ss and o = Oracle.dpi nl ss in
  if
    not
      (check_same_tf (what ^ ", signal")
         (fun () -> o.Oracle.numeric_tf out)
         (fun () -> Dpi.numeric_tf dpi out))
  then Alcotest.failf "%s: no signal transfer function" what;
  let injection name src_pos src_neg =
    ignore @@ check_same_tf
      (Printf.sprintf "%s, injection across %s" what name)
      (fun () -> o.Oracle.numeric_tf_current ~src_pos ~src_neg ~out)
      (fun () -> Dpi.numeric_tf_current dpi ~src_pos ~src_neg ~out)
  in
  List.iter
    (function
      | Netlist.Mos { m_name; d; s; _ } -> injection m_name d s
      | Netlist.Resistor { r_name; np; nn; _ } -> injection r_name np nn
      | Netlist.Capacitor _ | Netlist.Vsource _ | Netlist.Isource _ | Netlist.Vcvs _
      | Netlist.Switch _ -> ())
    (Netlist.devices nl)

let test_dpi_fixtures_match_reference () =
  let nl, _, out = rc_netlist () in
  check_against_reference "rc" nl (small_signal nl) out;
  let nl, out = common_source () in
  check_against_reference "common source" nl (small_signal nl) out

let ten_bit_specs () =
  [
    ("c025", Spec.paper_case ~k:10);
    ("c018", Spec.make ~process:(Fixtures.card "c018.sp") ~k:10 ~fs:40e6 ());
    ("c060", Spec.make ~process:(Fixtures.card "c060.sp") ~k:10 ~fs:40e6 ());
  ]

let simple_job = { Spec.m = 2; input_bits = 8 }
let cascode_job = { Spec.m = 3; input_bits = 10 }

(* the OTA bench and small-signal data at a sizing's servo point *)
let ota_point spec job z =
  let req = Spec.stage_requirements spec job in
  match Ota.biased_operating_point ~load_cap:req.Mdac_stage.c_load_eff spec.Spec.process z with
  | Error _ -> None
  | Ok (p, op) -> Some (p, Smallsig.extract p.Ota.nl op)

let first_cut spec job =
  Synthesizer.initial_sizing spec.Spec.process (Spec.stage_requirements spec job)

let test_dpi_otas_match_reference () =
  let rng = Random.State.make [| 17; 0xd91 |] in
  let compared = ref 0 in
  List.iter
    (fun (card_name, spec) ->
      List.iter
        (fun job ->
          let z0 = first_cut spec job in
          List.iteri
            (fun i z ->
              match ota_point spec job z with
              | None -> ()
              | Some (p, ss) ->
                check_against_reference
                  (Printf.sprintf "%s %s candidate %d" card_name (Spec.job_to_string job) i)
                  p.Ota.nl ss p.Ota.out;
                incr compared)
            (z0 :: Fixtures.candidates ~rng ~n:3 z0))
        [ simple_job; cascode_job ])
    (ten_bit_specs ());
  Alcotest.(check bool) (Printf.sprintf "candidates compared (%d)" !compared) true (!compared >= 18)

(* a MOS cap that crosses zero changes what is stamped: its own program *)
let test_dpi_cap_sign_change_compiles_anew () =
  let nl, out = common_source ~m_name:"m_cap_sign" () in
  let ss = small_signal nl in
  let flip (ss : Smallsig.t) =
    let flip_cgs (m : Smallsig.mos_op) =
      let c = m.Smallsig.caps in
      { m with Smallsig.caps = { c with Mosfet.cgs = -.c.Mosfet.cgs } }
    in
    { ss with Smallsig.mos = List.map flip_cgs ss.Smallsig.mos }
  in
  Alcotest.(check bool) "cgs > 0 at the operating point" true
    ((Smallsig.find_mos ss "m_cap_sign").Smallsig.caps.Mosfet.cgs > 0.0);
  let before = Tally.get Dpi.compiled_programs in
  check_against_reference "cgs > 0" nl ss out;
  Alcotest.(check int) "first topology compiled" (before + 1) (Tally.get Dpi.compiled_programs);
  check_against_reference "cgs < 0" nl (flip ss) out;
  Alcotest.(check int) "the flipped cap compiles its own" (before + 2) (Tally.get Dpi.compiled_programs);
  ignore (Dpi.build nl ss);
  ignore (Dpi.build nl (flip ss));
  Alcotest.(check int) "both are cached" (before + 2) (Tally.get Dpi.compiled_programs)

(* the same OTA on another card is the same topology *)
let test_dpi_program_shared_across_cards () =
  let point card_name =
    let spec = List.assoc card_name (ten_bit_specs ()) in
    match ota_point spec cascode_job (first_cut spec cascode_job) with
    | Some pt -> pt
    | None -> Alcotest.failf "%s: no operating point at the first cut" card_name
  in
  let p25, ss25 = point "c025" in
  ignore (Dpi.build p25.Ota.nl ss25);
  let after_c025 = Tally.get Dpi.compiled_programs in
  let p18, ss18 = point "c018" in
  check_against_reference "c018 on the c025 program" p18.Ota.nl ss18 p18.Ota.out;
  Alcotest.(check int) "no compilation for c018" after_c025 (Tally.get Dpi.compiled_programs)

(* Two domains build a topology nobody has compiled yet at the same time:
   both may compile, one program is published, both answer the
   reference's bytes. *)
let test_dpi_compile_race () =
  let nl, out = common_source ~m_name:"m_race" () in
  let ss = small_signal nl in
  let expected = (Oracle.dpi nl ss).Oracle.numeric_tf out in
  let before = Tally.get Dpi.compiled_programs in
  let go = Atomic.make false in
  let racer () =
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    Dpi.numeric_tf (Dpi.build nl ss) out
  in
  let d1 = Domain.spawn racer and d2 = Domain.spawn racer in
  Atomic.set go true;
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  Alcotest.(check bool) "first racer" true (Oracle.same_ratfun expected r1);
  Alcotest.(check bool) "second racer" true (Oracle.same_ratfun expected r2);
  Alcotest.(check int) "one program published" (before + 1) (Tally.get Dpi.compiled_programs)

(* The output must be an SFG unknown, on a fresh topology and a cached one *)
let test_dpi_output_not_unknown () =
  let nl = Netlist.create proc in
  let vin = Netlist.node nl "in" and out = Netlist.node nl "out" in
  Netlist.vsource nl ~ac_mag:1.0 "vs_out_check" vin Netlist.ground (Stimulus.Dc 0.0);
  Netlist.resistor nl "r" vin out 1000.0;
  Netlist.capacitor nl "c" out Netlist.ground 1e-9;
  let ss = small_signal nl in
  let refused what =
    match Dpi.numeric_transfer_to (Dpi.build nl ss) vin with
    | _ -> Alcotest.failf "%s: the input node was accepted as an output" what
    | exception Dpi.Unsupported _ -> ()
  in
  let before = Tally.get Dpi.compiled_programs in
  refused "cache miss";
  Alcotest.(check int) "compiled once" (before + 1) (Tally.get Dpi.compiled_programs);
  refused "cache hit";
  Alcotest.(check int) "then cached" (before + 1) (Tally.get Dpi.compiled_programs)

(* A hybrid optimization builds thousands of candidates over a handful of
   topologies. Runs before any other OTA test of this suite, so the count
   is this job's own. *)
let test_dpi_hybrid_job_compiles_few () =
  let before = Tally.get Dpi.compiled_programs in
  let budget = { Synthesizer.sa_iterations = 12; pattern_evals = 20; space_factor = 0.6 } in
  let r =
    Optimize.run ~mode:`Hybrid ~seed:7 ~attempts:1 ~budget ~jobs:1 (Spec.paper_case ~k:10)
  in
  let compiled = Tally.get Dpi.compiled_programs - before in
  Alcotest.(check bool)
    (Printf.sprintf "%d programs for %d evaluator calls" compiled r.Optimize.synthesis_evaluations)
    true
    (compiled >= 1 && compiled <= 9 && r.Optimize.synthesis_evaluations > 100)

(* ------------------------------------------------------------------ *)
(* Analysis *)

let single_pole ~gain ~pole_hz =
  (* H(s) = gain / (1 + s/(2 pi fp)) *)
  Ratfun.make (Poly.constant gain)
    (Poly.of_coeffs [| 1.0; 1.0 /. (2.0 *. Float.pi *. pole_hz) |])

let test_analysis_single_pole () =
  let h = single_pole ~gain:1000.0 ~pole_hz:1e3 in
  let spec = Analysis.characterize h in
  check_close ~eps:1e-9 "dc gain" 1000.0 spec.Analysis.dc_gain;
  Alcotest.(check int) "one pole" 1 (Array.length spec.Analysis.poles);
  check_close ~eps:1e-6 "pole magnitude" (2.0 *. Float.pi *. 1e3)
    (Complex.norm spec.Analysis.poles.(0));
  (match spec.Analysis.unity_gain_hz with
  | Some fu -> check_close ~eps:1e-3 "unity gain ~ gain*fp" 1e6 fu
  | None -> Alcotest.fail "expected unity crossing");
  (match spec.Analysis.phase_margin_deg with
  | Some pm -> check_close ~eps:2e-2 "pm ~ 90" 90.0 pm
  | None -> Alcotest.fail "expected pm");
  (match spec.Analysis.bandwidth_3db_hz with
  | Some bw -> check_close ~eps:1e-3 "bandwidth" 1e3 bw
  | None -> Alcotest.fail "expected bandwidth");
  Alcotest.(check bool) "stable" true (Analysis.is_stable spec)

let test_analysis_two_pole_pm () =
  (* poles at 1 kHz and 1 MHz with dc gain 1000: unity crossing near 1 MHz
     where the second pole contributes ~45 degrees of phase lag *)
  let p1 = Poly.of_coeffs [| 1.0; 1.0 /. (2.0 *. Float.pi *. 1e3) |] in
  let p2 = Poly.of_coeffs [| 1.0; 1.0 /. (2.0 *. Float.pi *. 1e6) |] in
  let h = Ratfun.make (Poly.constant 1000.0) (Poly.mul p1 p2) in
  let spec = Analysis.characterize h in
  match spec.Analysis.phase_margin_deg with
  | Some pm ->
    Alcotest.(check bool) "pm between 30 and 60" true (pm > 30.0 && pm < 60.0)
  | None -> Alcotest.fail "expected pm"

let test_analysis_step_response () =
  let tau = 1.0 /. (2.0 *. Float.pi *. 1e3) in
  let h = single_pole ~gain:2.0 ~pole_hz:1e3 in
  check_close ~eps:1e-6 "step at tau" (2.0 *. (1.0 -. exp (-1.0)))
    (Analysis.step_response h ~t:tau);
  check_close ~eps:1e-6 "step at 5 tau" (2.0 *. (1.0 -. exp (-5.0)))
    (Analysis.step_response h ~t:(5.0 *. tau))

let test_analysis_settling () =
  let tau = 1.0 /. (2.0 *. Float.pi *. 1e3) in
  let h = single_pole ~gain:1.0 ~pole_hz:1e3 in
  match Analysis.linear_settling_time h ~tol:0.01 with
  | Some t -> check_close ~eps:0.05 "1% settling = 4.6 tau" (4.6 *. tau) t
  | None -> Alcotest.fail "expected settling"

let test_analysis_unstable () =
  (* right-half-plane pole *)
  let h = Ratfun.make Poly.one (Poly.of_coeffs [| -1.0; 1.0 |]) in
  let spec = Analysis.characterize h in
  Alcotest.(check bool) "unstable" false (Analysis.is_stable spec);
  Alcotest.(check bool) "no settling" true
    (Analysis.linear_settling_time h ~tol:0.01 = None)

(* ------------------------------------------------------------------ *)
(* additional structural coverage *)

let test_sgraph_cycle_enumeration () =
  (* triangle a->b->c->a plus self-loop on b: two simple cycles *)
  let g = Sgraph.create () in
  let a = Sgraph.add_node g "a" and b = Sgraph.add_node g "b" and c = Sgraph.add_node g "c" in
  Sgraph.add_edge g a b (Expr.const 1.0);
  Sgraph.add_edge g b c (Expr.const 1.0);
  Sgraph.add_edge g c a (Expr.const 1.0);
  Sgraph.add_edge g b b (Expr.const 0.5);
  Alcotest.(check int) "two cycles" 2 (List.length (Sgraph.simple_cycles g))

let test_sgraph_paths_multiple () =
  (* two disjoint routes a->d *)
  let g = Sgraph.create () in
  let a = Sgraph.add_node g "a" and b = Sgraph.add_node g "b" in
  let c = Sgraph.add_node g "c" and d = Sgraph.add_node g "d" in
  Sgraph.add_edge g a b (Expr.const 1.0);
  Sgraph.add_edge g b d (Expr.const 1.0);
  Sgraph.add_edge g a c (Expr.const 1.0);
  Sgraph.add_edge g c d (Expr.const 1.0);
  Alcotest.(check int) "two forward paths" 2
    (List.length (Sgraph.simple_paths g ~src:a ~dst:d))

let test_analysis_second_order_step () =
  (* critically-ish damped two-pole: step response must be monotone-ish
     and reach the DC gain *)
  let p1 = Poly.of_coeffs [| 1.0; 1.0 /. (2.0 *. Float.pi *. 1e4) |] in
  let p2 = Poly.of_coeffs [| 1.0; 1.0 /. (2.0 *. Float.pi *. 3e4) |] in
  let h = Ratfun.make (Poly.constant 5.0) (Poly.mul p1 p2) in
  check_close ~eps:1e-3 "asymptote is the dc gain" 5.0
    (Analysis.step_response h ~t:1e-2);
  Alcotest.(check bool) "starts near zero" true
    (Float.abs (Analysis.step_response h ~t:1e-9) < 0.05);
  (match Analysis.linear_settling_time h ~tol:0.01 with
  | Some t -> Alcotest.(check bool) "settles in finite time" true (t > 0.0 && t < 1e-2)
  | None -> Alcotest.fail "expected settling")

let test_ratfun_scale_and_neg () =
  let h = Ratfun.make (Poly.constant 2.0) (Poly.of_coeffs [| 1.0; 1.0 |]) in
  check_close "scale" 6.0 (Ratfun.dc_gain (Ratfun.scale 3.0 h));
  check_close "neg" (-2.0) (Ratfun.dc_gain (Ratfun.neg h));
  check_close "sub self is zero" 0.0 (Ratfun.dc_gain (Ratfun.sub h h))

let test_expr_pow_and_division_by_zero () =
  let env = function "x" -> 2.0 | _ -> raise Not_found in
  check_close "pow" 8.0 (Expr.eval (Expr.pow (Expr.var "x") 3) env);
  Alcotest.check_raises "division by zero" Division_by_zero (fun () ->
      ignore (Expr.eval Expr.(var "x" / const 0.0) env))

let prop_mason_cascade_of_random_gains =
  QCheck2.Test.make ~name:"mason on a loop-free cascade multiplies gains" ~count:100
    QCheck2.Gen.(list_size (int_range 1 6) (float_range 0.5 2.0))
    (fun gains ->
      let g = Sgraph.create () in
      let nodes =
        List.mapi (fun i _ -> Sgraph.add_node g (Printf.sprintf "n%d" i)) (() :: List.map ignore gains)
      in
      List.iteri
        (fun i gain ->
          Sgraph.add_edge g (List.nth nodes i) (List.nth nodes (i + 1)) (Expr.const gain))
        gains;
      let t = Mason.transfer g ~src:(List.hd nodes) ~dst:(List.nth nodes (List.length gains)) in
      let expected = List.fold_left ( *. ) 1.0 gains in
      Float.abs (Expr.eval t (fun _ -> raise Not_found) -. expected)
      < 1e-9 *. (1.0 +. expected))

(* ------------------------------------------------------------------ *)
(* One root pass per transfer function, bit for bit the separate passes *)

let check_same_spec what h =
  if not (Oracle.same_spec (Oracle.characterize h) (Analysis.characterize h)) then
    Alcotest.failf "%s: characterize differs from the separate-pass oracle" what

let distinct_lhp_roots n ~scale =
  Array.init n (fun k ->
      { Complex.re = -.scale *. (10.0 ** (0.7 *. float_of_int k)); im = 0.0 })

(* (s+1)(s+2) / ((s+1)(s+3)): the rebuilt polynomials are rooted again *)
let test_factor_cancelling_matches_oracle () =
  let num = Poly.mul (Poly.of_coeffs [| 1.0; 1.0 |]) (Poly.of_coeffs [| 2.0; 1.0 |]) in
  let den = Poly.mul (Poly.of_coeffs [| 1.0; 1.0 |]) (Poly.of_coeffs [| 3.0; 1.0 |]) in
  let h = Ratfun.make num den in
  let r, poles, zeros = Ratfun.factor h in
  let o = Oracle.reduce h in
  let same_poly a b =
    let a = Poly.coeffs a and b = Poly.coeffs b in
    Array.length a = Array.length b && Array.for_all2 Oracle.same_float a b
  in
  Alcotest.(check int) "cancelled to first order" 1 (Poly.degree r.Ratfun.den);
  Alcotest.(check bool) "reduced num bit-equal" true (same_poly o.Ratfun.num r.Ratfun.num);
  Alcotest.(check bool) "reduced den bit-equal" true (same_poly o.Ratfun.den r.Ratfun.den);
  Alcotest.(check bool) "poles bit-equal" true (Oracle.same_roots (Oracle.poles o) poles);
  Alcotest.(check bool) "zeros bit-equal" true (Oracle.same_roots (Oracle.zeros o) zeros);
  check_same_spec "cancelling ratio" h

(* Without cancellation, characterize roots numerator and denominator
   once each: 2 calls where reduce-then-poles-then-zeros made 4. *)
let test_characterize_roots_once () =
  let num = Poly.scale 1e11 (Poly.from_roots (distinct_lhp_roots 11 ~scale:3e3)) in
  let den = Poly.from_roots (distinct_lhp_roots 11 ~scale:1e3) in
  let h = Ratfun.make num den in
  Alcotest.(check int) "degree 11" 11 (Poly.degree h.Ratfun.den);
  let calls () = Tally.get Poly.roots_calls in
  let before = calls () in
  let spec = Analysis.characterize h in
  Alcotest.(check int) "roots calls" 2 (calls () - before);
  Alcotest.(check int) "nothing cancelled" 11 (Array.length spec.Analysis.poles);
  check_same_spec "degree-11 ratio" h

(* A NaN coefficient used to come back as dc = nan with two finite
   "poles" (the initial guesses); it is now refused. *)
let test_characterize_rejects_non_finite () =
  let h = Ratfun.make Poly.one (Poly.of_coeffs [| 2.0; nan; 1.0 |]) in
  Alcotest.(check bool) "not finite" false (Ratfun.is_finite h);
  match Analysis.characterize h with
  | spec ->
    Alcotest.failf "characterized a NaN ratio: dc %g, %d poles" spec.Analysis.dc_gain
      (Array.length spec.Analysis.poles)
  | exception Invalid_argument _ -> ()

(* The OTA transfer functions the hybrid evaluator sees, at seeded
   candidates around the first cut of two MDAC jobs on three cards. *)
let test_characterize_matches_oracle_on_otas () =
  let rng = Random.State.make [| 14; 0xab37 |] in
  let specs =
    [
      ("c025", Spec.paper_case ~k:10);
      ("c018", Spec.make ~process:(Fixtures.card "c018.sp") ~k:10 ~fs:40e6 ());
      ("c060", Spec.make ~process:(Fixtures.card "c060.sp") ~k:10 ~fs:40e6 ());
    ]
  in
  let jobs = [ { Spec.m = 2; input_bits = 8 }; { Spec.m = 3; input_bits = 10 } ] in
  let compared = ref 0 and high_order = ref 0 in
  List.iter
    (fun (card_name, spec) ->
      let proc = spec.Spec.process in
      List.iter
        (fun job ->
          let req = Spec.stage_requirements spec job in
          let z0 = Synthesizer.initial_sizing proc req in
          List.iteri
            (fun i z ->
              match Ota.evaluate ~load_cap:req.Mdac_stage.c_load_eff proc z with
              | Error _ -> ()
              | Ok perf ->
                let h = perf.Ota.tf in
                let what =
                  Printf.sprintf "%s %s candidate %d" card_name (Spec.job_to_string job) i
                in
                if
                  not
                    (Oracle.same_roots (Oracle.roots h.Ratfun.den) (Poly.roots h.Ratfun.den)
                    && Oracle.same_roots (Oracle.roots h.Ratfun.num) (Poly.roots h.Ratfun.num))
                then Alcotest.failf "%s: roots differ from the boxed oracle" what;
                check_same_spec what h;
                incr compared;
                if Poly.degree h.Ratfun.den >= 10 then incr high_order)
            (z0 :: Fixtures.candidates ~rng ~n:6 z0))
        jobs)
    specs;
  Alcotest.(check bool) (Printf.sprintf "candidates compared (%d)" !compared) true (!compared >= 30);
  Alcotest.(check bool)
    (Printf.sprintf "cascode-order transfer functions covered (%d)" !high_order)
    true (!high_order > 0)

(* The one-pass crossing scan is bit for bit the two separate scans of
   [Oracle.find_crossing] (a grid array and [Rootfind.find_sign_change]
   per level), on OTA transfer functions from three cards. *)
let prop_crossings_match_two_scans =
  let cards =
    lazy
      [
        Spec.paper_case ~k:10;
        Spec.make ~process:(Fixtures.card "c018.sp") ~k:10 ~fs:40e6 ();
        Spec.make ~process:(Fixtures.card "c060.sp") ~k:10 ~fs:40e6 ();
      ]
  in
  QCheck2.Test.make ~name:"one-pass crossings = two scans, three cards" ~count:15
    QCheck2.Gen.(pair bool (array_size (return 9) (float_range (-1.0) 1.0)))
    (fun (cascode, u) ->
      let job =
        if cascode then { Spec.m = 3; input_bits = 10 } else { Spec.m = 2; input_bits = 8 }
      in
      List.for_all
        (fun (spec : Spec.t) ->
          let proc = spec.Spec.process in
          let req = Spec.stage_requirements spec job in
          let z = Synthesizer.initial_sizing proc req in
          let f i = exp (u.(i) *. log 1.25) in
          let z =
            {
              z with
              Ota.w_pair = z.Ota.w_pair *. f 0;
              w_mirror = z.Ota.w_mirror *. f 1;
              w_tail = z.Ota.w_tail *. f 2;
              w_cs = z.Ota.w_cs *. f 3;
              w_sink = z.Ota.w_sink *. f 4;
              i_bias = z.Ota.i_bias *. f 5;
              c_comp = z.Ota.c_comp *. f 6;
              v_casc = z.Ota.v_casc +. (0.2 *. u.(7));
              v_cascp = z.Ota.v_cascp +. (0.2 *. u.(8));
            }
          in
          match Ota.evaluate ~load_cap:req.Mdac_stage.c_load_eff proc z with
          | Error _ -> true
          | Ok perf ->
            let spec = Analysis.characterize perf.Ota.tf in
            let r, poles, zeros = Ratfun.factor perf.Ota.tf in
            let f_lo, f_hi = Oracle.freq_window poles zeros in
            let dc = Float.abs (Ratfun.dc_gain r) in
            let scan above level =
              if dc > above then Oracle.find_crossing r ~level ~f_lo ~f_hi else None
            in
            Oracle.same_option (scan 1.0 1.0) spec.Analysis.unity_gain_hz
            && Oracle.same_option (scan 0.0 (dc /. sqrt 2.0)) spec.Analysis.bandwidth_3db_hz)
        (Lazy.force cards))

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "sfg"
    [
      ( "expr",
        [
          quick "simplify" test_expr_simplify;
          quick "eval" test_expr_eval;
          quick "vars" test_expr_vars;
          quick "to_string" test_expr_to_string_round;
        ] );
      ( "ratfun",
        [
          quick "arith" test_ratfun_arith;
          quick "reduce" test_ratfun_reduce;
          quick "of_expr" test_ratfun_of_expr;
          quick "eval_jw" test_ratfun_eval_jw;
        ] );
      ( "mason",
        [
          quick "single loop" test_mason_single_loop;
          quick "cascade" test_mason_cascade;
          quick "non-touching loops" test_mason_two_nontouching_loops;
          quick "cofactor" test_mason_cofactor;
          quick "no path" test_mason_no_path;
          quick "report counts" test_mason_report_counts;
          quick "parallel edge merge" test_sgraph_parallel_edges_merge;
        ] );
      ( "dpi",
        [
          quick "hybrid job compiles few programs" test_dpi_hybrid_job_compiles_few;
          quick "rc lowpass" test_dpi_rc_lowpass;
          quick "symbolic form" test_dpi_symbolic_form;
          quick "matches ac engine" test_dpi_matches_ac_engine;
          quick "rejects vcvs" test_dpi_rejects_vcvs;
          quick "fixtures match reference" test_dpi_fixtures_match_reference;
          quick "otas match reference" test_dpi_otas_match_reference;
          quick "cap sign change compiles anew" test_dpi_cap_sign_change_compiles_anew;
          quick "program shared across cards" test_dpi_program_shared_across_cards;
          quick "compile race" test_dpi_compile_race;
          quick "output must be an unknown" test_dpi_output_not_unknown;
        ] );
      ( "structure",
        [
          quick "cycle enumeration" test_sgraph_cycle_enumeration;
          quick "multiple paths" test_sgraph_paths_multiple;
          quick "second-order step" test_analysis_second_order_step;
          quick "ratfun scale/neg" test_ratfun_scale_and_neg;
          quick "expr pow and div0" test_expr_pow_and_division_by_zero;
          QCheck_alcotest.to_alcotest prop_mason_cascade_of_random_gains;
        ] );
      ( "analysis",
        [
          quick "single pole" test_analysis_single_pole;
          quick "two pole pm" test_analysis_two_pole_pm;
          quick "step response" test_analysis_step_response;
          quick "settling" test_analysis_settling;
          quick "unstable" test_analysis_unstable;
          quick "factor after cancel matches oracle" test_factor_cancelling_matches_oracle;
          quick "characterize roots once" test_characterize_roots_once;
          quick "characterize rejects non-finite" test_characterize_rejects_non_finite;
          quick "characterize matches oracle on otas" test_characterize_matches_oracle_on_otas;
          QCheck_alcotest.to_alcotest prop_crossings_match_two_scans;
        ] );
    ]
