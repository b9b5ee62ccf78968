module Rng = Adc_numerics.Rng
module Stats = Adc_numerics.Stats
module Comparator = Adc_mdac.Comparator
module Obs = Adc_obs

type trial_config = {
  offset_sigma : float;
  gain_sigma : float;
  enob_margin : float;
  n_fft : int;
}

let default_trials (spec : Spec.t) (stage_config : Config.t) =
  (* the redundancy budget that matters is the front stage's: its
     comparators see the full-scale signal and the tightest thresholds *)
  let m_front =
    match stage_config with
    | m :: _ -> m
    | [] -> invalid_arg "Montecarlo.default_trials: empty stage config"
  in
  let budget = Comparator.offset_budget ~vref_pp:spec.Spec.vref_pp ~m:m_front in
  {
    offset_sigma = budget /. 4.0;
    (* unit-cap sigma at the front array size, referred to the gain *)
    gain_sigma = spec.Spec.process.Adc_circuit.Process.cap_matching;
    enob_margin = 0.5;
    n_fft = 1024;
  }

type report = {
  n_trials : int;
  n_pass : int;
  yield : float;
  enob_mean : float;
  enob_min : float;
  enob_p05 : float;
}

let one_trial rng (config : trial_config) (spec : Spec.t) stage_ms =
  let imps =
    List.map
      (fun m ->
        let offsets =
          Array.init (Comparator.count ~m) (fun _ ->
              Rng.gaussian_scaled rng ~mean:0.0 ~sigma:config.offset_sigma)
        in
        {
          (Behavioral.ideal_impairment ~m) with
          Behavioral.offsets;
          gain_error = Rng.gaussian_scaled rng ~mean:0.0 ~sigma:config.gain_sigma;
        })
      stage_ms
  in
  let adc = Behavioral.create spec stage_ms imps in
  let d =
    Metrics.dynamic_performance ~n_fft:config.n_fft adc ~fs:spec.Spec.fs
      ~f_in:(spec.Spec.fs /. 9.7)
  in
  d.Metrics.enob

let run ?(trials = 100) ?config ?(obs = Obs.null) ~seed (spec : Spec.t)
    stage_config =
  if trials <= 0 then invalid_arg "Montecarlo.run: trials <= 0";
  let config =
    match config with Some c -> c | None -> default_trials spec stage_config
  in
  let span = Obs.span obs ~name:"montecarlo.run" () in
  (* one private stream per trial, seeded by the trial index alone (the
     Optimize per-job convention): trial i draws the same impairments no
     matter how — or in what order — the trials are evaluated. The
     previous code shared one stream across an [Array.init], whose
     unspecified evaluation order made reports seed-unstable. *)
  let enobs = Array.make trials 0.0 in
  for i = 0 to trials - 1 do
    let rng = Rng.create (Rng.mix seed i) in
    (* one span per trial: these feed the same `adcopt trace summary`
       aggregation path as the optimizer's job spans (and the live
       progress reporter counts them). Spans read only the monotonic
       clock, never an Rng stream, so the report stays bit-identical *)
    let trial_span = Obs.span obs ~parent:span ~name:"montecarlo.trial" () in
    enobs.(i) <- one_trial rng config spec stage_config;
    Obs.Span.finish
      ~attrs:
        [ ("trial", Obs.Sink.Int i); ("enob", Obs.Sink.Float enobs.(i)) ]
      trial_span
  done;
  let target = float_of_int spec.Spec.k -. config.enob_margin in
  let n_pass = Array.fold_left (fun a e -> if e >= target then a + 1 else a) 0 enobs in
  let lo, _ = Stats.min_max enobs in
  let report =
    {
      n_trials = trials;
      n_pass;
      yield = float_of_int n_pass /. float_of_int trials;
      enob_mean = Stats.mean enobs;
      enob_min = lo;
      enob_p05 = Stats.percentile enobs 5.0;
    }
  in
  Obs.Span.finish
    ~attrs:
      [
        ("config", Obs.Sink.String (Config.to_string stage_config));
        ("trials", Obs.Sink.Int trials);
        ("n_fft", Obs.Sink.Int config.n_fft);
        ("offset_sigma", Obs.Sink.Float config.offset_sigma);
        ("yield", Obs.Sink.Float report.yield);
        ("enob_mean", Obs.Sink.Float report.enob_mean);
        ("enob_p05", Obs.Sink.Float report.enob_p05);
      ]
    span;
  report

let offset_sweep ?(trials = 60) ?obs ~seed spec stage_config ~sigmas =
  List.map
    (fun sigma ->
      let config = { (default_trials spec stage_config) with offset_sigma = sigma } in
      (sigma, run ~trials ~config ?obs ~seed spec stage_config))
    sigmas

type offset_plan = { stage_config : Config.t; budget : float; sigmas : float list }

let offset_plan (spec : Spec.t) config_text =
  match Option.map Config.of_string config_text with
  | exception Invalid_argument msg -> Error msg
  | named -> (
    let stage_config =
      match named with
      | Some c -> c
      | None -> Optimize.optimum_config (Optimize.run ~mode:`Equation spec)
    in
    match stage_config with
    | [] -> Error "montecarlo: empty configuration"
    | m_front :: _ ->
      let budget = Comparator.offset_budget ~vref_pp:spec.Spec.vref_pp ~m:m_front in
      let sigmas = List.map (( *. ) budget) [ 0.125; 0.25; 0.5; 1.0; 1.5 ] in
      Ok { stage_config; budget; sigmas })
