module Json = Adc_json.Json
module Config = Adc_pipeline.Config
module Spec = Adc_pipeline.Spec
module Optimize = Adc_pipeline.Optimize
module Rules = Adc_pipeline.Rules
module Montecarlo = Adc_pipeline.Montecarlo
module Synthesizer = Adc_synth.Synthesizer

(* Bump whenever a payload or key changes shape: a store populated by an
   older build must miss rather than serve a stale layout. Version 2:
   the chart payload gained [all_valid], and the pareto payloads
   arrived. *)
let schema_version = 2

(* the one spelling of the mode names lives in Adc_api; these aliases
   keep the codec self-contained for its callers *)
let mode_name = Adc_api.mode_name
let mode_of_name = Adc_api.mode_of_name

(* ------------------------------------------------------------------ *)
(* payload builders

   Field sets deliberately exclude everything schedule- or clock-
   dependent (wall time, domain count): a payload is a pure function of
   the request parameters, which is what lets the store serve it back
   byte-identically and lets CI diff a served response against the
   one-shot CLI. *)

let job_json (j : Spec.job) =
  Json.Obj [ ("m", Json.Int j.Spec.m); ("input_bits", Json.Int j.Spec.input_bits) ]

let solution_json (s : Synthesizer.solution) =
  Json.Obj
    [
      ("power", Json.Float s.Synthesizer.power);
      ("feasible", Json.Bool s.Synthesizer.feasible);
      ("violation", Json.Float s.Synthesizer.violation);
      ("evaluations", Json.Int s.Synthesizer.evaluations);
      ( "metrics",
        Json.Obj
          (List.map (fun (k, v) -> (k, Json.Float v)) s.Synthesizer.metrics) );
    ]

let stage_json (s : Optimize.stage_result) =
  Json.Obj
    [
      ("index", Json.Int s.Optimize.index);
      ("m", Json.Int s.Optimize.job.Spec.m);
      ("input_bits", Json.Int s.Optimize.job.Spec.input_bits);
      ("p_mdac", Json.Float s.Optimize.p_mdac);
      ("p_comparator", Json.Float s.Optimize.p_comparator);
      ("p_stage", Json.Float s.Optimize.p_stage);
      ( "solution",
        match s.Optimize.solution with
        | None -> Json.Null
        | Some sol -> solution_json sol );
    ]

let candidate_json (c : Optimize.config_result) =
  Json.Obj
    [
      ("config", Json.String (Config.to_string c.Optimize.config));
      ("p_total", Json.Float c.Optimize.p_total);
      ("all_feasible", Json.Bool c.Optimize.all_feasible);
      ("stages", Json.List (List.map stage_json c.Optimize.stages));
    ]

let optimize_payload (run : Optimize.run) =
  Json.Obj
    [
      ("k", Json.Int run.Optimize.spec.Spec.k);
      ("fs_mhz", Json.Float (run.Optimize.spec.Spec.fs /. 1e6));
      ("mode", Json.String (mode_name run.Optimize.mode));
      ( "optimum",
        Json.String (Config.to_string (Optimize.optimum_config run)) );
      ("p_total", Json.Float run.Optimize.optimum.Optimize.p_total);
      ( "candidates",
        Json.List (List.map candidate_json run.Optimize.candidates) );
      ( "distinct_jobs",
        Json.List (List.map job_json run.Optimize.distinct_jobs) );
      ("synthesis_evaluations", Json.Int run.Optimize.synthesis_evaluations);
      ("cold_jobs", Json.Int run.Optimize.cold_jobs);
      ("warm_jobs", Json.Int run.Optimize.warm_jobs);
      ("truncated", Json.Bool run.Optimize.truncated);
    ]

let chart_payload ~truncated (c : Rules.chart) =
  let row_json (r : Rules.optimum_row) =
    Json.Obj
      [
        ("k", Json.Int r.Rules.k);
        ("config", Json.String (Config.to_string r.Rules.config));
        ("p_total", Json.Float r.Rules.p_total);
        ( "runner_up",
          match r.Rules.runner_up with
          | None -> Json.Null
          | Some c -> Json.String (Config.to_string c) );
        ("margin", Json.Float r.Rules.margin);
      ]
  in
  Json.Obj
    [
      ("rows", Json.List (List.map row_json c.Rules.rows));
      ( "first_stage_rule",
        Json.List
          (List.map
             (fun (k, m1) ->
               Json.Obj [ ("k", Json.Int k); ("m1", Json.Int m1) ])
             c.Rules.first_stage_rule) );
      ("last_stage_always_two", Json.Bool c.Rules.last_stage_always_two);
      ("monotone_non_increasing", Json.Bool c.Rules.monotone_non_increasing);
      ("all_valid", Json.Bool c.Rules.all_valid);
      ( "summary",
        Json.List (List.map (fun s -> Json.String s) c.Rules.summary) );
      ("truncated", Json.Bool truncated);
    ]

let synth_payload ~m ~bits ~fs_mhz ~seed ~attempts ~evaluations ~truncated
    solution =
  Json.Obj
    [
      ("m", Json.Int m);
      ("bits", Json.Int bits);
      ("fs_mhz", Json.Float fs_mhz);
      ("seed", Json.Int seed);
      ("attempts", Json.Int attempts);
      ("evaluations", Json.Int evaluations);
      ( "solution",
        match solution with None -> Json.Null | Some s -> solution_json s );
      ("truncated", Json.Bool truncated);
    ]

let montecarlo_payload ~k ~fs_mhz ~config ~trials ~seed ~budget sweep =
  let point_json (sigma, (r : Montecarlo.report)) =
    Json.Obj
      [
        ("sigma_mv", Json.Float (sigma *. 1e3));
        ("n_trials", Json.Int r.Montecarlo.n_trials);
        ("n_pass", Json.Int r.Montecarlo.n_pass);
        ("yield", Json.Float r.Montecarlo.yield);
        ("enob_mean", Json.Float r.Montecarlo.enob_mean);
        ("enob_min", Json.Float r.Montecarlo.enob_min);
        ("enob_p05", Json.Float r.Montecarlo.enob_p05);
      ]
  in
  Json.Obj
    [
      ("k", Json.Int k);
      ("fs_mhz", Json.Float fs_mhz);
      ("config", Json.String (Config.to_string config));
      ("trials", Json.Int trials);
      ("seed", Json.Int seed);
      ("budget_mv", Json.Float (budget *. 1e3));
      ("sweep", Json.List (List.map point_json sweep));
    ]

(* The batch and pareto summaries are built at the JSON level, over
   already-encoded optimize payloads, so the daemon (which encodes its
   own runs) and the cluster router (which reassembles the payloads its
   backends answered) write the same bytes through one encoder. A
   summary is truncated iff one of its runs is, as in run_batch. *)

let payload_truncated payload =
  Json.member "truncated" payload = Some (Json.Bool true)

let batch_json ~ks ~runs ~job_occurrences ~distinct_syntheses =
  Json.Obj
    [
      ("ks", Json.List (List.map (fun k -> Json.Int k) ks));
      (* full per-spec optimize payloads: runs[i] is byte-identical to
         the one-shot optimize result for that spec (CI cmp's them) *)
      ("runs", Json.List runs);
      ("job_occurrences", Json.Int job_occurrences);
      ("distinct_syntheses", Json.Int distinct_syntheses);
      ("truncated", Json.Bool (List.exists payload_truncated runs));
    ]

let batch_payload (b : Optimize.batch) =
  batch_json
    ~ks:
      (List.map
         (fun (r : Optimize.run) -> r.Optimize.spec.Spec.k)
         b.Optimize.batch_runs)
    ~runs:(List.map optimize_payload b.Optimize.batch_runs)
    ~job_occurrences:b.Optimize.job_occurrences
    ~distinct_syntheses:b.Optimize.distinct_syntheses

let fom_json (f : Adc_pipeline.Fom.t) =
  let module Fom = Adc_pipeline.Fom in
  Json.Obj
    [
      ("p_total", Json.Float f.Fom.p_total);
      ("energy_per_step_j", Json.Float f.Fom.energy_per_step_j);
      ("walden_fj_per_step", Json.Float f.Fom.walden_fj_per_step);
      ("schreier_db", Json.Float f.Fom.schreier_db);
    ]

type pareto_cell = {
  cell_k : int;
  cell_fs_mhz : float;
  cell_on_front : bool;
  cell_fom : Adc_pipeline.Fom.t;
  cell_optimize : Json.t;
}

(* One grid cell. The embedded [optimize] object is the full
   {!optimize_payload} of the cell's run — byte-identical to the
   one-shot [adcopt optimize] result at the same (k, fs), which is the
   anchor CI cmp's front points against. *)
let pareto_point_json c =
  Json.Obj
    [
      ("k", Json.Int c.cell_k);
      ("fs_mhz", Json.Float c.cell_fs_mhz);
      ("on_front", Json.Bool c.cell_on_front);
      ("fom", fom_json c.cell_fom);
      ("optimize", c.cell_optimize);
    ]

let cell_of_point (pt : Adc_pipeline.Front.point) =
  let module Front = Adc_pipeline.Front in
  {
    cell_k = pt.Front.pt_k;
    cell_fs_mhz = pt.Front.pt_fs_mhz;
    cell_on_front = pt.Front.pt_on_front;
    cell_fom = pt.Front.pt_fom;
    cell_optimize = optimize_payload pt.Front.pt_run;
  }

let pareto_point_payload pt = pareto_point_json (cell_of_point pt)

(* The final summary. [grid] carries every cell's full point payload —
   including the non-front ones, so a store-warm replay can re-emit the
   exact point lines a cold run streamed — and [front] lists (k, fs)
   references into it rather than duplicating the payloads. *)
let pareto_json cells ~job_occurrences ~distinct_syntheses =
  let axis to_json values =
    Json.List (values |> List.sort_uniq compare |> List.map to_json)
  in
  let cell_ref c =
    Json.Obj [ ("k", Json.Int c.cell_k); ("fs_mhz", Json.Float c.cell_fs_mhz) ]
  in
  Json.Obj
    [
      ("ks", axis (fun k -> Json.Int k) (List.map (fun c -> c.cell_k) cells));
      ( "fs_mhz",
        axis (fun f -> Json.Float f) (List.map (fun c -> c.cell_fs_mhz) cells)
      );
      ("grid", Json.List (List.map pareto_point_json cells));
      ( "front",
        Json.List
          (List.filter_map
             (fun c -> if c.cell_on_front then Some (cell_ref c) else None)
             cells) );
      ("job_occurrences", Json.Int job_occurrences);
      ("distinct_syntheses", Json.Int distinct_syntheses);
      ( "truncated",
        Json.Bool
          (List.exists (fun c -> payload_truncated c.cell_optimize) cells) );
    ]

let pareto_payload (fr : Adc_pipeline.Front.front_result) =
  let module Front = Adc_pipeline.Front in
  pareto_json
    (List.map cell_of_point fr.Front.points)
    ~job_occurrences:fr.Front.job_occurrences
    ~distinct_syntheses:fr.Front.distinct_syntheses

(* every grid cell of an encoded pareto summary with its front flag, in
   traversal order *)
let pareto_grid summary =
  match Json.member "grid" summary with
  | Some (Json.List cells) ->
    List.map
      (fun cell -> (Json.member "on_front" cell = Some (Json.Bool true), cell))
      cells
  | _ -> []

(* the point lines a cold pareto streamed: canonical serialization makes
   the re-serialized cells the very bytes it emitted *)
let pareto_front_points summary =
  List.filter_map
    (fun (on_front, cell) -> if on_front then Some cell else None)
    (pareto_grid summary)

let optimize_p_total payload =
  match Json.member "p_total" payload with
  | Some (Json.Float p) -> Some p
  | Some (Json.Int n) -> Some (float_of_int n)
  | _ -> None

let enumerate_payload (spec : Spec.t) =
  let cands =
    Config.enumerate_leading ~k:spec.Spec.k
      ~backend_bits:(Spec.backend_bits spec)
  in
  Json.Obj
    [
      ("k", Json.Int spec.Spec.k);
      ("fs_mhz", Json.Float (spec.Spec.fs /. 1e6));
      ("backend_bits", Json.Int (Spec.backend_bits spec));
      ( "candidates",
        Json.List
          (List.map (fun c -> Json.String (Config.to_string c)) cands) );
      ( "distinct_jobs",
        Json.List (List.map job_json (Spec.distinct_jobs spec cands)) );
    ]

(* ------------------------------------------------------------------ *)
(* store keys

   Built only from explicit request fields (never from Marshal of an
   in-memory value), so a key computed by a restarted daemon — or a
   different build of the same schema version — addresses the same
   entry. [%.17g] keeps distinct sampling rates distinct. *)

(* the optional explicit-budget suffix: absent for default-budget
   requests, so every pre-existing key (and the CLI's, which has no
   budget flag) is unchanged — no schema bump needed *)
let budget_suffix = function
  | None -> ""
  | Some b ->
    Printf.sprintf "|budget=sa:%d,pe:%d,sf:%.17g" b.Synthesizer.sa_iterations
      b.Synthesizer.pattern_evals b.Synthesizer.space_factor

(* the optional process-card suffix, same absent-for-default contract:
   [?process] carries the card's content digest only when the parsed
   card differs from the built-in one (Adc_spice.nondefault_digest), so
   default-card keys are byte-identical to the pre---process layout
   while each foreign card gets its own store/cache namespace *)
let process_suffix = function
  | None -> ""
  | Some digest -> Printf.sprintf "|process=%s" digest

let key_optimize ?budget ?process ~k ~fs_mhz ~mode ~seed ~attempts () =
  Printf.sprintf
    "adcopt/%d|optimize|k=%d|fs_mhz=%.17g|mode=%s|seed=%d|attempts=%d%s%s"
    schema_version k fs_mhz (mode_name mode) seed attempts
    (budget_suffix budget) (process_suffix process)

let key_sweep ?budget ?process ~k_from ~k_to ~fs_mhz ~mode ~seed ~attempts () =
  Printf.sprintf
    "adcopt/%d|sweep|from=%d|to=%d|fs_mhz=%.17g|mode=%s|seed=%d|attempts=%d%s%s"
    schema_version k_from k_to fs_mhz (mode_name mode) seed attempts
    (budget_suffix budget) (process_suffix process)

let key_synth ?budget ?process ~m ~bits ~fs_mhz ~seed ~attempts () =
  Printf.sprintf
    "adcopt/%d|synth|m=%d|bits=%d|fs_mhz=%.17g|seed=%d|attempts=%d%s%s"
    schema_version m bits fs_mhz seed attempts (budget_suffix budget)
    (process_suffix process)

let key_montecarlo ?process ~k ~fs_mhz ~config ~trials ~seed () =
  Printf.sprintf
    "adcopt/%d|montecarlo|k=%d|fs_mhz=%.17g|config=%s|trials=%d|seed=%d%s"
    schema_version k fs_mhz config trials seed (process_suffix process)

let key_batch ?budget ?process ~ks ~fs_mhz ~mode ~seed ~attempts () =
  Printf.sprintf
    "adcopt/%d|batch|ks=%s|fs_mhz=%.17g|mode=%s|seed=%d|attempts=%d%s%s"
    schema_version
    (String.concat "," (List.map string_of_int ks))
    fs_mhz (mode_name mode) seed attempts (budget_suffix budget)
    (process_suffix process)

let key_pareto ?budget ?process ~ks ~fs_list ~mode ~seed ~attempts () =
  Printf.sprintf
    "adcopt/%d|pareto|ks=%s|fs_mhz=%s|mode=%s|seed=%d|attempts=%d%s%s"
    schema_version
    (String.concat "," (List.map string_of_int ks))
    (String.concat "," (List.map (Printf.sprintf "%.17g") fs_list))
    (mode_name mode) seed attempts (budget_suffix budget)
    (process_suffix process)

let key_netlist ?process ~m ~bits ~fs_mhz ~seed ~attempts () =
  Printf.sprintf "adcopt/%d|netlist|m=%d|bits=%d|fs_mhz=%.17g|seed=%d|attempts=%d%s"
    schema_version m bits fs_mhz seed attempts (process_suffix process)

let netlist_payload ~deck = Json.Obj [ ("deck", Json.String deck) ]
