module Process = Adc_circuit.Process
module Mdac_stage = Adc_mdac.Mdac_stage
module Caps = Adc_mdac.Caps
module Comparator = Adc_mdac.Comparator

type calibration = {
  noise_fraction : float;
  t_margin : float;
  slew_fraction : float;
  sr_step_fraction : float;
  p_stage_fixed : float;
  wiring_cap : float;
  c_in_ratio : float;
  backend_bits : float;
  comparator : Comparator.model;
  power_model : Mdac_stage.power_model;
}

let default_calibration =
  {
    noise_fraction = 0.10;
    t_margin = 1.0;
    slew_fraction = 0.20;
    sr_step_fraction = 0.5;
    p_stage_fixed = 0.0;
    wiring_cap = 8e-15;
    c_in_ratio = 0.15;
    backend_bits = 7.0;
    comparator = Comparator.default_model;
    power_model = Mdac_stage.default_power_model;
  }

type t = {
  k : int;
  fs : float;
  vref_pp : float;
  process : Process.t;
  calibration : calibration;
}

let make ?(calibration = default_calibration) ?(vref_pp = 2.0)
    ?(process = Process.c025) ~k ~fs () =
  if k < 8 || k > 16 then invalid_arg "Spec.make: k out of the modeled range";
  if not (fs > 0.0 && Float.is_finite fs) then
    invalid_arg "Spec.make: fs must be positive and finite";
  { k; fs; vref_pp; process; calibration }

let paper_case ~k = make ~k ~fs:40e6 ()

type job = { m : int; input_bits : int }

let make_job ~m ~input_bits =
  if m < 2 then invalid_arg "Spec.make_job: m < 2 (a stage resolves at least 2 bits)";
  if input_bits < 1 then invalid_arg "Spec.make_job: input_bits < 1";
  { m; input_bits }

let compare_job a b =
  match compare b.input_bits a.input_bits with
  | 0 -> compare b.m a.m
  | c -> c

let job_to_string j = Printf.sprintf "m%d@%db" j.m j.input_bits

let jobs_of_config t config =
  List.map
    (fun (m, bits) -> { m; input_bits = bits })
    (Config.stage_input_bits ~k:t.k config)

let distinct_jobs t configs =
  configs
  |> List.concat_map (jobs_of_config t)
  |> List.sort_uniq compare_job

let stage_spec t job =
  {
    Mdac_stage.m = job.m;
    accuracy_bits = job.input_bits;
    fs = t.fs;
    vref_pp = t.vref_pp;
    noise_fraction = t.calibration.noise_fraction;
    t_margin = t.calibration.t_margin;
    slew_fraction = t.calibration.slew_fraction;
    sr_step_fraction = t.calibration.sr_step_fraction;
  }

let load_cap_of_bits t bits =
  if bits <= 0 then t.calibration.wiring_cap
  else begin
    (* a downstream block preserving [bits] samples onto a kT/C +
       matching-floor array; use the canonical 2-bit-stage array as the
       representative sampling network *)
    let caps =
      Caps.size t.process ~bits ~m:2 ~vref_pp:t.vref_pp
        ~noise_fraction:t.calibration.noise_fraction
        ~c_in_ratio:t.calibration.c_in_ratio
    in
    caps.Caps.c_total +. t.calibration.wiring_cap
  end

let stage_requirements t job =
  let spec = stage_spec t job in
  let next_bits = job.input_bits - (job.m - 1) in
  let c_load_ext = load_cap_of_bits t next_bits in
  Mdac_stage.requirements t.process spec ~c_load_ext
    ~c_in_ratio:t.calibration.c_in_ratio

(* Canonical fingerprint of everything a synthesis of [job] under [t]
   can observe: the derived block requirements (spec + caps + loop/load
   constraints, all fields spelled out at full %.17g precision so two
   specs agree iff the numbers agree bit-for-bit) plus the process
   corner the sizing runs against. The enclosing run — k, the candidate
   set, the other calibration knobs — is deliberately absent: that is
   what lets a 12-bit and a 13-bit request share an MDAC. *)
let stage_fingerprint t job =
  let r = stage_requirements t job in
  let s = r.Mdac_stage.spec in
  let c = r.Mdac_stage.caps in
  let proc =
    Digest.to_hex (Digest.string (Marshal.to_string t.process []))
  in
  Printf.sprintf
    "m=%d,b=%d,fs=%.17g,vref=%.17g,nf=%.17g,tm=%.17g,sf=%.17g,srf=%.17g|\
     cu=%.17g,nu=%d,cs=%.17g,cf=%.17g,ct=%.17g,beta=%.17g,g=%.17g|\
     cle=%.17g,clf=%.17g,a0=%.17g,gbw=%.17g,sr=%.17g,pm=%.17g,\
     ts=%.17g,tl=%.17g,nt=%.17g,tol=%.17g,sw=%.17g|proc=%s"
    s.Mdac_stage.m s.Mdac_stage.accuracy_bits s.Mdac_stage.fs
    s.Mdac_stage.vref_pp s.Mdac_stage.noise_fraction s.Mdac_stage.t_margin
    s.Mdac_stage.slew_fraction s.Mdac_stage.sr_step_fraction
    c.Caps.c_unit c.Caps.n_units c.Caps.c_sample c.Caps.c_feedback
    c.Caps.c_total c.Caps.beta c.Caps.gain r.Mdac_stage.c_load_ext
    r.Mdac_stage.c_load_eff r.Mdac_stage.a0_min r.Mdac_stage.gbw_min_hz
    r.Mdac_stage.sr_min r.Mdac_stage.pm_min_deg r.Mdac_stage.t_settle
    r.Mdac_stage.t_linear r.Mdac_stage.n_tau r.Mdac_stage.settle_tol
    r.Mdac_stage.swing_pp proc

let stage_fixed_power t = t.calibration.p_stage_fixed

let comparator_power t ~m =
  Comparator.stage_power ~model:t.calibration.comparator t.process ~fs:t.fs
    ~vref_pp:t.vref_pp ~m

let backend_bits t = int_of_float t.calibration.backend_bits
