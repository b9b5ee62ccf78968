module Process = Adc_circuit.Process
module Ota = Adc_mdac.Ota
module Mdac_stage = Adc_mdac.Mdac_stage
module Rng = Adc_numerics.Rng

type evaluator_kind = Equation_only | Hybrid | Hybrid_verified

type budget = {
  sa_iterations : int;
  pattern_evals : int;
  space_factor : float;
}

let cold_budget = { sa_iterations = 260; pattern_evals = 120; space_factor = 0.9 }
let warm_budget = { sa_iterations = 50; pattern_evals = 60; space_factor = 0.35 }

type solution = {
  sizing : Ota.sizing;
  performance : Ota.performance option;
  power : float;
  feasible : bool;
  violation : float;
  evaluations : int;
  settling : Ota.settling_result option;
  metrics : (string * float) list;
}

let constraints_of (req : Mdac_stage.requirements) =
  Constraint_set.create
    [
      Constraint_set.at_least "a0" req.Mdac_stage.a0_min;
      Constraint_set.at_least "gbw" req.Mdac_stage.gbw_min_hz;
      Constraint_set.at_least ~weight:2.0 "pm" req.Mdac_stage.pm_min_deg;
      Constraint_set.at_least "sr" req.Mdac_stage.sr_min;
      Constraint_set.at_least "swing" req.Mdac_stage.swing_pp;
      Constraint_set.at_least ~weight:3.0 "saturated" 1.0;
    ]

(* Equation-based first cut: standard two-stage Miller design procedure
   driven by the block requirements. *)
let initial_sizing (proc : Process.t) (req : Mdac_stage.requirements) =
  let nmos = proc.Process.nmos and pmos = proc.Process.pmos in
  let margin = 1.5 in
  let omega_u = 2.0 *. Float.pi *. req.Mdac_stage.gbw_min_hz *. margin in
  let cc = Float.max 0.15e-12 (0.4 *. req.Mdac_stage.c_load_eff) in
  let gm1 = omega_u *. cc in
  let vov1 = 0.18 and vov_m = 0.25 and vov6 = 0.45 in
  let id1 = gm1 *. vov1 /. 2.0 in
  let i_tail = Float.max (2.0 *. id1) (1.2 *. req.Mdac_stage.sr_min *. cc) in
  let id1 = i_tail /. 2.0 in
  let gm1 = 2.0 *. id1 /. vov1 in
  (* non-dominant poles sit at the mirror and cascode nodes: keep those
     devices short so their fT clears the unity-gain target comfortably *)
  let l_pair = 0.5e-6 and l_mirror = 0.4e-6 and l_tail = 0.6e-6 in
  let l_cs = 0.3e-6 and l_sink = 0.6e-6 in
  let w_over_l_pair = gm1 *. gm1 /. (2.0 *. nmos.Process.kp *. id1) in
  let w_pair = Float.max proc.Process.w_min (w_over_l_pair *. l_pair) in
  let w_mirror =
    Float.max proc.Process.w_min
      (2.0 *. id1 /. (pmos.Process.kp *. vov_m *. vov_m) *. l_mirror)
  in
  let w_tail =
    Float.max proc.Process.w_min
      (2.0 *. i_tail /. (nmos.Process.kp *. vov_m *. vov_m) *. l_tail)
  in
  (* second pole gm6 / c_load_eff must clear the unity crossing: place it
     at ~3x the target *)
  let gm6_pole = 3.0 *. omega_u *. req.Mdac_stage.c_load_eff in
  let gm6 = Float.max (6.0 *. gm1) gm6_pole in
  let i6 =
    Float.max (gm6 *. vov6 /. 2.0)
      (1.2 *. req.Mdac_stage.sr_min *. (req.Mdac_stage.c_load_eff +. cc))
  in
  (* designer-driven topology choice: a plain two-stage Miller cannot
     reach much beyond ~70 dB in this process, so high-accuracy blocks
     get a telescopic-cascode first stage (whose second stage is NMOS,
     keeping the second-stage gate capacitance off the Miller node) *)
  let topology =
    if req.Mdac_stage.a0_min > 2500.0 then Ota.Miller_cascode else Ota.Miller_simple
  in
  let kp_cs =
    match topology with
    | Ota.Miller_cascode -> nmos.Process.kp
    | Ota.Miller_simple -> pmos.Process.kp
  in
  let w_cs =
    Float.max proc.Process.w_min (2.0 *. i6 /. (kp_cs *. vov6 *. vov6) *. l_cs)
  in
  (* the output current source mirrors the bias: its width ratio to the
     tail sets I6 *)
  let w_sink =
    Float.max proc.Process.w_min (w_tail *. i6 /. Float.max i_tail 1e-9)
  in
  {
    Ota.topology;
    w_pair;
    l_pair;
    w_mirror;
    l_mirror;
    w_tail;
    l_tail;
    w_cs;
    l_cs;
    w_sink;
    l_sink;
    i_bias = i_tail;
    c_comp = cc;
    r_zero = 1.0 /. gm6;
    (* headroom: with the NMOS second stage the first-stage output sits
       near one NMOS vgs, so the cascode gate bias is low *)
    v_casc = 0.44 *. proc.Process.vdd;
    v_cascp = 0.62 *. proc.Process.vdd;
  }

(* design variables: widths, bias current, compensation; lengths stay at
   their first-cut values (longer L is handled through the seed) *)
let var_names =
  [| "w_pair"; "w_mirror"; "w_tail"; "w_cs"; "w_sink"; "i_bias"; "c_comp";
     "r_zero"; "v_casc"; "v_cascp" |]

let sizing_to_values (z : Ota.sizing) =
  [| z.Ota.w_pair; z.Ota.w_mirror; z.Ota.w_tail; z.Ota.w_cs; z.Ota.w_sink;
     z.Ota.i_bias; z.Ota.c_comp; z.Ota.r_zero; z.Ota.v_casc; z.Ota.v_cascp |]

let sizing_of_values (seed : Ota.sizing) v =
  {
    seed with
    Ota.w_pair = v.(0);
    w_mirror = v.(1);
    w_tail = v.(2);
    w_cs = v.(3);
    w_sink = v.(4);
    i_bias = v.(5);
    c_comp = v.(6);
    r_zero = v.(7);
    v_casc = v.(8);
    v_cascp = v.(9);
  }

let design_space (proc : Process.t) (seed : Ota.sizing) ~factor =
  let seed_values = sizing_to_values seed in
  let full_span = 12.0 in
  let span = Float.max 1.2 (full_span ** factor) in
  let bounded lo_min i =
    let v = seed_values.(i) in
    let lo = Float.max lo_min (v /. span) in
    let hi = Float.max (v *. span) (lo *. span *. span) in
    { Space.name = var_names.(i); lo; hi; scale = Space.Log }
  in
  let bias_var i ~lo_abs ~hi_abs =
    let v = seed_values.(i) in
    let half = 0.5 *. Float.max factor 0.3 in
    let lo = Float.max lo_abs (v -. half) in
    let hi = Float.min hi_abs (v +. half) in
    (* The absolute rails assume >= 3 V of supply; a low-voltage process
       card can make them cross (or exclude the seed bias entirely).
       Recenter on the seed, clamped inside the supply. *)
    let lo, hi =
      if lo < hi then (lo, hi)
      else
        let margin = 0.05 *. proc.Process.vdd in
        let lo = Float.max margin (v -. half) in
        let hi = Float.min (proc.Process.vdd -. margin) (v +. half) in
        if lo < hi then (lo, hi)
        else (0.5 *. Float.max v 1e-3, Float.max (1.5 *. v) (v +. 0.1))
    in
    { Space.name = var_names.(i); lo; hi; scale = Space.Linear }
  in
  let v_casc_var = bias_var 8 ~lo_abs:1.0 ~hi_abs:(proc.Process.vdd -. 0.6) in
  let v_cascp_var = bias_var 9 ~lo_abs:1.2 ~hi_abs:(proc.Process.vdd -. 0.7) in
  let vars =
    [
      bounded proc.Process.w_min 0;
      bounded proc.Process.w_min 1;
      bounded proc.Process.w_min 2;
      bounded proc.Process.w_min 3;
      bounded proc.Process.w_min 4;
      bounded 1e-6 5;
      bounded 30e-15 6;
      bounded 10.0 7;
      v_casc_var;
      v_cascp_var;
    ]
  in
  let space = Space.create vars in
  (space, Space.normalize space seed_values)

(* Closed-form metrics used by the Equation_only ablation evaluator: the
   same design equations the initial sizing inverts, evaluated forward. *)
let equation_metrics (proc : Process.t) (req : Mdac_stage.requirements) (z : Ota.sizing) =
  let nmos = proc.Process.nmos and pmos = proc.Process.pmos in
  let i_tail = z.Ota.i_bias in
  let id1 = i_tail /. 2.0 in
  let gm1 = sqrt (2.0 *. nmos.Process.kp *. (z.Ota.w_pair /. z.Ota.l_pair) *. id1) in
  let i6 = i_tail *. z.Ota.w_sink /. Float.max z.Ota.w_tail 1e-9 in
  let cs_params, load_params =
    match z.Ota.topology with
    | Ota.Miller_cascode -> (nmos, pmos)
    | Ota.Miller_simple -> (pmos, nmos)
  in
  let gm6 = sqrt (2.0 *. cs_params.Process.kp *. (z.Ota.w_cs /. z.Ota.l_cs) *. i6) in
  let gds2 = Process.lambda_of nmos ~l:z.Ota.l_pair *. id1 in
  let gds4 = Process.lambda_of pmos ~l:z.Ota.l_mirror *. id1 in
  let gds6 = Process.lambda_of cs_params ~l:z.Ota.l_cs *. i6 in
  let gds7 = Process.lambda_of load_params ~l:z.Ota.l_sink *. i6 in
  let cascode_boost =
    match z.Ota.topology with
    | Ota.Miller_simple -> 1.0
    | Ota.Miller_cascode -> gm1 /. (2.0 *. (gds2 +. gds4))
  in
  let a1 = gm1 /. (gds2 +. gds4) *. cascode_boost in
  let a2 = gm6 /. (gds6 +. gds7) in
  let a0 = a1 *. a2 in
  let gbw = gm1 /. (2.0 *. Float.pi *. z.Ota.c_comp) in
  let p2 = gm6 /. (2.0 *. Float.pi *. req.Mdac_stage.c_load_eff) in
  let pm = 90.0 -. (atan (gbw /. p2) *. 180.0 /. Float.pi) in
  let sr = Float.min (i_tail /. z.Ota.c_comp)
      (i6 /. (req.Mdac_stage.c_load_eff +. z.Ota.c_comp)) in
  let vov1 = 2.0 *. id1 /. Float.max gm1 1e-12 in
  let vov6 = 2.0 *. i6 /. Float.max gm6 1e-12 in
  let swing = proc.Process.vdd -. vov6 -. vov1 in
  let power = (i_tail *. 1.15 +. i6) *. proc.Process.vdd in
  [
    ("power", power); ("a0", a0); ("gbw", gbw); ("pm", pm); ("sr", sr);
    ("swing", swing); ("saturated", 1.0);
  ]

let hybrid_metrics (proc : Process.t) (req : Mdac_stage.requirements)
    (z : Ota.sizing) =
  match Ota.evaluate ~load_cap:req.Mdac_stage.c_load_eff proc z with
  | Error _ -> ([], None)
  | Ok perf ->
    let metric_opt name v = Option.map (fun x -> (name, x)) v in
    let base =
      [
        Some ("power", perf.Ota.power);
        Some ("a0", perf.Ota.dc_gain);
        metric_opt "gbw" perf.Ota.gbw_hz;
        metric_opt "pm" perf.Ota.phase_margin_deg;
        Some ("sr", perf.Ota.slew_rate);
        Some ("swing", perf.Ota.swing_high -. perf.Ota.swing_low);
        Some ("saturated", if perf.Ota.all_saturated then 1.0 else 0.0);
      ]
    in
    (List.filter_map Fun.id base, Some perf)

let evaluate_sizing ~kind proc req z =
  match kind with
  | Equation_only -> (equation_metrics proc req z, None)
  | Hybrid | Hybrid_verified -> hybrid_metrics proc req z

let synthesize ?(kind = Hybrid) ?(engine = `Sa) ?budget ?(seed = 1) ?warm_start
    ?(obs = Adc_obs.null) ?span_parent proc
    (req : Mdac_stage.requirements) =
  let span = Adc_obs.span obs ?parent:span_parent ~name:"synth.search" () in
  let budget =
    match budget with
    | Some b -> b
    | None -> if warm_start = None then cold_budget else warm_budget
  in
  let seed_sizing =
    match warm_start with Some z -> z | None -> initial_sizing proc req
  in
  let space, x0 = design_space proc seed_sizing ~factor:budget.space_factor in
  let constraints = constraints_of req in
  let p_ref =
    Float.max 1e-5 (Mdac_stage.equation_power proc req).Mdac_stage.p_ota
  in
  (* The evaluator is a function of the point alone, so each distinct
     point is evaluated once per search: the table holds its result
     under the bits of the normalized coordinates. [eval_count] still
     counts every [cost] call. *)
  let evaluated : (string, (string * float) list * Ota.performance option) Hashtbl.t =
    Hashtbl.create 64
  in
  let evaluate x =
    let key = Bytes.create (8 * Array.length x) in
    Array.iteri (fun i v -> Bytes.set_int64_le key (8 * i) (Int64.bits_of_float v)) x;
    let key = Bytes.unsafe_to_string key in
    match Hashtbl.find_opt evaluated key with
    | Some r -> r
    | None ->
      let r =
        evaluate_sizing ~kind proc req
          (sizing_of_values seed_sizing (Space.denormalize space x))
      in
      Hashtbl.add evaluated key r;
      r
  in
  let eval_count = ref 0 in
  let cost x =
    incr eval_count;
    let metrics, _ = evaluate x in
    if metrics = [] then 1e3
    else begin
      let lookup name = List.assoc_opt name metrics in
      let violation = Constraint_set.total_violation constraints ~lookup in
      let power = match lookup "power" with Some p -> p | None -> 10.0 *. p_ref in
      (power /. p_ref) +. (30.0 *. violation)
    end
  in
  let rng = Rng.create seed in
  let explored_x =
    match engine with
    | `Sa ->
      (Anneal.minimize
         ~config:{ Anneal.default_config with iterations = budget.sa_iterations }
         rng ~dim:(Space.dim space) ~x0 cost)
        .Anneal.best_x
    | `De ->
      let generations = Stdlib.max 1 (budget.sa_iterations / 20) in
      (De.minimize
         ~config:{ De.default_config with generations; population = 20 }
         rng ~dim:(Space.dim space) ~seed_point:x0 cost)
        .De.best_x
  in
  let refined =
    Pattern.minimize ~max_evals:budget.pattern_evals ~dim:(Space.dim space)
      ~x0:explored_x cost
  in
  let best_values = Space.denormalize space refined.Pattern.best_x in
  let best_sizing = sizing_of_values seed_sizing best_values in
  let metrics, perf = evaluate refined.Pattern.best_x in
  let result =
  if metrics = [] then Error "synthesized point failed final evaluation"
  else begin
    let lookup name = List.assoc_opt name metrics in
    let violation = Constraint_set.total_violation constraints ~lookup in
    let power = match lookup "power" with Some p -> p | None -> infinity in
    let settling =
      match kind with
      | Hybrid_verified -> begin
        let caps = req.Mdac_stage.caps in
        match
          Ota.settling_bench proc best_sizing ~gain:caps.Adc_mdac.Caps.gain
            ~c_feedback:caps.Adc_mdac.Caps.c_feedback
            ~c_load:req.Mdac_stage.c_load_ext
            ~v_step:(req.Mdac_stage.spec.Mdac_stage.vref_pp /. 4.0)
            ~t_window:(2.0 *. req.Mdac_stage.t_settle)
            ~tol:req.Mdac_stage.settle_tol
        with
        | Ok s -> Some s
        | Error _ -> None
      end
      | Equation_only | Hybrid -> None
    in
    Ok
      {
        sizing = best_sizing;
        performance = perf;
        power;
        feasible = violation <= 0.02;
        violation;
        evaluations = !eval_count;
        settling;
        metrics;
      }
  end
  in
  (* span attrs record the search's cost and outcome; computed only when
     a sink is live so the disabled path allocates nothing *)
  if Adc_obs.Span.is_live span then begin
    let open Adc_obs.Sink in
    let base =
      [
        ("warm", Bool (warm_start <> None));
        ("sa_iterations", Int budget.sa_iterations);
        ("pattern_evals", Int budget.pattern_evals);
        ("evaluations", Int !eval_count);
        ("distinct_points", Int (Hashtbl.length evaluated));
      ]
    in
    let attrs =
      match result with
      | Ok sol ->
        base
        @ [
            ("feasible", Bool sol.feasible);
            ("power_w", Float sol.power);
            ("violation", Float sol.violation);
          ]
      | Error e -> base @ [ ("error", String e) ]
    in
    Adc_obs.Span.finish ~attrs span
  end;
  result
