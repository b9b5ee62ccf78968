module Synthesizer = Adc_synth.Synthesizer
module Pool = Adc_exec.Pool
module Memo = Adc_exec.Memo
module Future = Adc_exec.Future
module Cancel = Adc_exec.Cancel
module Rng = Adc_numerics.Rng
module Obs = Adc_obs

type mode = [ `Equation | `Hybrid | `Hybrid_verified ]

type stage_result = {
  index : int;
  job : Spec.job;
  p_mdac : float;
  p_comparator : float;
  p_stage : float;
  solution : Synthesizer.solution option;
}

type config_result = {
  config : Config.t;
  stages : stage_result list;
  p_total : float;
  all_feasible : bool;
}

type run = {
  spec : Spec.t;
  mode : mode;
  candidates : config_result list;
  optimum : config_result;
  distinct_jobs : Spec.job list;
  synthesis_evaluations : int;
  cold_jobs : int;
  warm_jobs : int;
  domains : int;
  wall_time_s : float;
  truncated : bool;
}

(* prefer feasible solutions, then lowest power; among infeasible ones,
   lowest violation *)
let better (a : Synthesizer.solution) (b : Synthesizer.solution) =
  match (a.Synthesizer.feasible, b.Synthesizer.feasible) with
  | true, false -> a
  | false, true -> b
  | true, true -> if a.Synthesizer.power <= b.Synthesizer.power then a else b
  | false, false -> if a.Synthesizer.violation <= b.Synthesizer.violation then a else b

(* per-job seed salt: a function of the job identity alone, so a job's
   search trajectory does not depend on which candidate set requested it
   or on its position in the work list — the precondition for jobs=N and
   jobs=1 runs drawing identical streams *)
let job_salt (job : Spec.job) = (job.Spec.m * 131) + job.Spec.input_bits

(* the high-accuracy jobs (the GHz-class front stages) have the most
   rugged landscapes, so they get proportionally more restarts *)
let attempts_for ~attempts (job : Spec.job) =
  attempts + (2 * Stdlib.max 0 (job.Spec.input_bits - 11))

(* warm-start donor preference: among jobs scheduled *earlier* in the
   hardest-first order, those with the same stage resolution and an
   accuracy within one bit, nearest accuracy first (position breaks
   ties). Further away, the power scale changes by ~4x per bit and the
   shrunken warm space cannot reach the new optimum, so a cold
   equation-seeded start does better. The preference list is a pure
   function of the schedule — never of completion order — which keeps
   parallel runs deterministic: a worker synthesizing job J blocks on the
   promise of its donor, not on "whatever finished first". *)
let donor_preferences jobs =
  let arr = Array.of_list jobs in
  List.mapi
    (fun i (job : Spec.job) ->
      let prefs = ref [] in
      for earlier = i - 1 downto 0 do
        let k = arr.(earlier) in
        if k.Spec.m = job.Spec.m then begin
          let dist = abs (k.Spec.input_bits - job.Spec.input_bits) in
          if dist <= 1 then prefs := (dist, earlier, k) :: !prefs
        end
      done;
      let ordered =
        List.sort
          (fun (d1, i1, _) (d2, i2, _) -> compare (d1, i1) (d2, i2))
          !prefs
      in
      (job, List.map (fun (_, _, k) -> k) ordered))
    jobs

(* best-of-N searches for one job: attempt 0 is a deterministic pattern
   descent from the analytic seed (smooth across jobs), later attempts
   add annealing exploration; candidate margins in the figures are a few
   percent, so a single stochastic run is too noisy. Returns the best
   solution (None if every attempt failed) and the evaluator calls
   consumed. *)
let synthesize_one (spec : Spec.t) ~kind ~seed ~attempts ~budget ~warm_start
    ~cancel ~obs ~job_span (job : Spec.job) =
  let req = Spec.stage_requirements spec job in
  let job_seed = Rng.mix seed (job_salt job) in
  let attempts = attempts_for ~attempts job in
  let skipped = ref 0 in
  let runs =
    List.init attempts (fun a ->
        (* cooperative cancellation, attempt granularity: a tripped
           deadline skips the remaining restarts and keeps whatever the
           finished ones found (best-so-far) *)
        if Cancel.cancelled cancel then begin
          incr skipped;
          Error "cancelled"
        end
        else
        let s = Rng.mix job_seed a in
        let attempt_span =
          Obs.span obs ~parent:job_span
            ~name:(if a = 0 then "optimize.attempt.det" else "optimize.attempt.sa")
            ()
        in
        let r =
          if a = 0 then
            (* deterministic descent: no annealing, pattern search only.
               An explicit budget override (tests, CI) caps this attempt
               too; the default is a deep 500-evaluation descent *)
            let det_budget =
              match budget with
              | Some b -> { b with Synthesizer.sa_iterations = 0 }
              | None ->
                { Synthesizer.sa_iterations = 0; pattern_evals = 500;
                  space_factor = 1.0 }
            in
            Synthesizer.synthesize ~kind ~budget:det_budget ~seed:s ~obs
              ~span_parent:attempt_span spec.Spec.process req
          else
            let sa_budget =
              match budget with
              | Some b -> b
              | None ->
                (* anneal longer on the GHz-class jobs: their good basins
                   are rare *)
                let depth = 400 + (250 * Stdlib.max 0 (job.Spec.input_bits - 11)) in
                { Synthesizer.sa_iterations = depth; pattern_evals = 200;
                  space_factor = 1.0 }
            in
            Synthesizer.synthesize ~kind ~budget:sa_budget ~seed:s ?warm_start
              ~obs ~span_parent:attempt_span spec.Spec.process req
        in
        Obs.Span.finish ~attrs:[ ("attempt", Obs.Sink.Int a) ] attempt_span;
        r)
  in
  let evals = ref 0 in
  let best =
    List.fold_left
      (fun acc r ->
        match r with
        | Error _ -> acc
        | Ok sol ->
          evals := !evals + sol.Synthesizer.evaluations;
          (match acc with None -> Some sol | Some b -> Some (better b sol)))
      None runs
  in
  (best, !evals, !skipped > 0)

(* one entry per distinct job: solution (None = all attempts failed),
   evaluator calls, whether a warm-start donor was available, and
   whether a cancellation cut any of its restarts short *)
type job_outcome = {
  solution : Synthesizer.solution option;
  evaluations : int;
  warm : bool;
  job_truncated : bool;
}

(* the trace record of one synthesized job: emitted from whichever
   worker domain ran it, as a child of the run span. The attributes are
   the same quantities the run's summary counters aggregate, so a trace
   is a per-job decomposition of [synthesis_evaluations] /
   [cold_jobs] / [warm_jobs] — summing the spans must reproduce the
   counters exactly (test_obs checks this), which makes the trace a
   correctness check on the parallel scheduler. *)
let finish_job_span span (job : Spec.job) ~attempts ~(outcome : job_outcome) =
  if Obs.Span.is_live span then begin
    let open Obs.Sink in
    let base =
      [
        ("job", String (Spec.job_to_string job));
        ("m", Int job.Spec.m);
        ("input_bits", Int job.Spec.input_bits);
        ("attempts", Int (attempts_for ~attempts job));
        ("evaluations", Int outcome.evaluations);
        ("warm", Bool outcome.warm);
        ("solved", Bool (Option.is_some outcome.solution));
        ("truncated", Bool outcome.job_truncated);
      ]
    in
    let attrs =
      match outcome.solution with
      | None -> base
      | Some sol ->
        base
        @ [
            ("best_power_w", Float sol.Synthesizer.power);
            ("feasible", Bool sol.Synthesizer.feasible);
          ]
    in
    Obs.Span.finish ~attrs span
  end

(* The shared runtime of a long-lived process ([adcopt serve]): one
   domain pool and one memo cache spanning every run that is handed the
   same [shared] value. Memo entries are keyed by {!Job_key.t} — the
   physics of the derived block spec plus the search identity plus the
   warm-start lineage — so two requests share an entry if and only if
   they would compute bit-identical outcomes, {e regardless} of the
   enclosing run (a 12-bit and a 13-bit request share their common
   MDACs). *)
type shared = {
  sh_pool : Pool.t;
  sh_memo : (Job_key.t, job_outcome) Memo.t;
}

let create_shared ?obs ?jobs () =
  { sh_pool = Pool.create ?obs ?size:jobs (); sh_memo = Memo.create ?obs () }

let shutdown_shared sh = Pool.shutdown sh.sh_pool
let shared_pool sh = sh.sh_pool
let shared_jobs_cached sh = Memo.length sh.sh_memo
let shared_job_stats sh = Memo.stats sh.sh_memo

(* one entry of the keyed work list: the job, its canonical outcome
   identity, and the keys of its warm-start donors in preference order *)
type keyed_job = {
  kj_job : Spec.job;
  kj_key : Job_key.t;
  kj_donors : Job_key.t list;
}

(* Resolve the schedule's donor preferences into explicit [Job_key]s: a
   pure function of (spec, search identity, work list) — never of
   completion order or batch composition. Donors are scheduled earlier
   (hardest-first order), so their keys are already bound when a job's
   own key is formed; the key therefore pins the whole warm-start chain
   recursively, which is what makes cross-request cache hits
   bit-identical to cold computation. *)
let keyed_schedule (spec : Spec.t) ~mode_name ~seed ~attempts ~budget jobs =
  let bound : (Spec.job, Job_key.t) Hashtbl.t = Hashtbl.create 16 in
  List.map
    (fun (job, donor_jobs) ->
      let donors = List.map (Hashtbl.find bound) donor_jobs in
      let key =
        Job_key.make spec ~job ~mode_name ~seed ~attempts ~budget ~donors
      in
      Hashtbl.replace bound job key;
      { kj_job = job; kj_key = key; kj_donors = donors })
    (donor_preferences jobs)

(* Submit a keyed work list in its given (hardest-first) order: every
   donor of a job precedes it in the FIFO queue, so a blocked worker
   always has a strictly-earlier task to wait on and the pool cannot
   deadlock. Returns the submissions in schedule order, each paired
   with its future. *)
let submit_keyed (spec : Spec.t) ~mode ~seed ~attempts ~budget ~cancel ~pool
    ~memo ~obs ~span_parent keyed =
  let kind =
    match mode with
    | `Equation -> Synthesizer.Equation_only
    | `Hybrid -> Synthesizer.Hybrid
    | `Hybrid_verified -> Synthesizer.Hybrid_verified
  in
  List.map
    (fun kj ->
      let donor_futures = List.filter_map (Memo.find memo) kj.kj_donors in
      let job = kj.kj_job in
      let fut =
        Memo.find_or_run memo pool kj.kj_key (fun _ ->
            (* the span covers donor-await time too: blocking on a
               warm-start donor is part of the job's critical path *)
            let span =
              Obs.span obs ~parent:span_parent ~name:"optimize.job" ()
            in
            if Cancel.cancelled cancel then begin
              (* deadline tripped before this job started: publish an
                 empty outcome immediately so every future settles, the
                 queue drains, and the pool stays reusable; the caller
                 falls back to the equation model for this stage *)
              let outcome =
                { solution = None; evaluations = 0; warm = false;
                  job_truncated = true }
              in
              finish_job_span span job ~attempts ~outcome;
              outcome
            end
            else begin
              let donor =
                List.find_map
                  (fun f ->
                    match (Future.await f).solution with
                    | Some sol -> Some sol
                    | None -> None)
                  donor_futures
              in
              let warm_start = Option.map (fun s -> s.Synthesizer.sizing) donor in
              let solution, evaluations, job_truncated =
                synthesize_one spec ~kind ~seed ~attempts ~budget ~warm_start
                  ~cancel ~obs ~job_span:span job
              in
              let outcome =
                { solution; evaluations; warm = warm_start <> None;
                  job_truncated }
              in
              finish_job_span span job ~attempts ~outcome;
              outcome
            end)
      in
      (kj, fut))
    keyed

(* deterministic assembly: await and aggregate in schedule order. Also
   counts cached outcomes — a run that warm-hits a job still reports
   that job's evaluator calls, so a served result is byte-identical to
   the cold computation it replays. *)
let collect_outcomes ~memo ~obs submissions =
  let cache : (Spec.job, Synthesizer.solution) Hashtbl.t = Hashtbl.create 16 in
  let total_evals = ref 0 and cold = ref 0 and warm = ref 0 in
  let truncated = ref false in
  List.iter
    (fun (kj, fut) ->
      let outcome = Future.await fut in
      total_evals := !total_evals + outcome.evaluations;
      if outcome.warm then incr warm else incr cold;
      if outcome.job_truncated then begin
        truncated := true;
        (* never let a deadline-truncated outcome persist in a shared
           cache: evict it so the next request with this key recomputes
           the complete result (current holders of the future still see
           the truncated value — and report [truncated] themselves) *)
        Memo.remove memo kj.kj_key
      end;
      match outcome.solution with
      | Some sol -> Hashtbl.replace cache kj.kj_job sol
      | None when outcome.job_truncated ->
        Logs.warn (fun m ->
            m "synthesis of %s cancelled before any attempt finished"
              (Spec.job_to_string kj.kj_job))
      | None ->
        Logs.warn (fun m ->
            m "synthesis of %s failed" (Spec.job_to_string kj.kj_job)))
    submissions;
  (* the metrics view of the same three totals (names mirror the run
     fields, see docs/OBSERVABILITY.md) *)
  let m = obs.Obs.metrics in
  Obs.Metrics.add (Obs.Metrics.counter m "optimize.evaluator_calls") !total_evals;
  Obs.Metrics.add (Obs.Metrics.counter m "optimize.cold_jobs") !cold;
  Obs.Metrics.add (Obs.Metrics.counter m "optimize.warm_jobs") !warm;
  (cache, !total_evals, !cold, !warm, !truncated)

(* equation mode has no synthesis phase — still emit one (near-empty)
   span per distinct job so a trace always carries the full work list
   and the per-job reconciliation holds in every mode (0 = 0) *)
let equation_phase ~obs ~cancel ~span_parent distinct_jobs =
  List.iter
    (fun (job : Spec.job) ->
      let span = Obs.span obs ~parent:span_parent ~name:"optimize.job" () in
      Obs.Span.finish
        ~attrs:
          [
            ("job", Obs.Sink.String (Spec.job_to_string job));
            ("m", Obs.Sink.Int job.Spec.m);
            ("input_bits", Obs.Sink.Int job.Spec.input_bits);
            ("evaluations", Obs.Sink.Int 0);
            ("path", Obs.Sink.String "equation");
          ]
        span)
    (if Obs.tracing obs then distinct_jobs else []);
  ((Hashtbl.create 1 : (Spec.job, Synthesizer.solution) Hashtbl.t),
   0, 0, 0, Cancel.cancelled cancel)

(* the per-spec assembly: stage tables, candidate totals, ranking, the
   summary span. Shared between [run] (span name [optimize.run]) and
   [run_batch] (span name [batch.spec]) — the phase upstream differs,
   the assembly must not. *)
let assemble (spec : Spec.t) ~mode ~mode_name ~obs ~run_span ~domains ~t_start
    ~candidate_jobs ~distinct_jobs
    ~(cache : (Spec.job, Synthesizer.solution) Hashtbl.t)
    ~synthesis_evaluations ~cold_jobs ~warm_jobs ~truncated =
  let stage_result index (job : Spec.job) =
    let p_comparator = Spec.comparator_power spec ~m:job.Spec.m in
    match mode with
    | `Equation ->
      let s = Power_model.stage spec ~index job in
      {
        index;
        job;
        p_mdac = s.Power_model.p_mdac;
        p_comparator;
        p_stage = s.Power_model.p_stage;
        solution = None;
      }
    | `Hybrid | `Hybrid_verified -> begin
      match Hashtbl.find_opt cache job with
      | Some sol ->
        let p_mdac = sol.Synthesizer.power in
        {
          index;
          job;
          p_mdac;
          p_comparator;
          p_stage = p_mdac +. p_comparator +. Spec.stage_fixed_power spec;
          solution = Some sol;
        }
      | None ->
        (* synthesis failed: fall back to the equation model so the
           candidate comparison stays total *)
        let s = Power_model.stage spec ~index job in
        {
          index;
          job;
          p_mdac = s.Power_model.p_mdac;
          p_comparator;
          p_stage = s.Power_model.p_stage;
          solution = None;
        }
    end
  in
  let eval_config (c, c_jobs) =
    let span = Obs.span obs ~parent:run_span ~name:"optimize.candidate" () in
    let stages = List.mapi (fun i job -> stage_result (i + 1) job) c_jobs in
    let p_total = List.fold_left (fun acc s -> acc +. s.p_stage) 0.0 stages in
    let all_feasible =
      List.for_all
        (fun (s : stage_result) ->
          match s.solution with
          | Some sol -> sol.Synthesizer.feasible
          | None -> mode = `Equation)
        stages
    in
    Obs.Span.finish
      ~attrs:
        [
          ("config", Obs.Sink.String (Config.to_string c));
          ("p_total_w", Obs.Sink.Float p_total);
          ("all_feasible", Obs.Sink.Bool all_feasible);
        ]
      span;
    { config = c; stages; p_total; all_feasible }
  in
  let results =
    candidate_jobs |> List.map eval_config
    |> List.sort (fun a b -> compare a.p_total b.p_total)
  in
  let optimum = List.hd results in
  let wall_time_s = Unix.gettimeofday () -. t_start in
  Obs.Span.finish
    ~attrs:
      [
        ("k", Obs.Sink.Int spec.Spec.k);
        ("mode", Obs.Sink.String mode_name);
        ("domains", Obs.Sink.Int domains);
        ("candidates", Obs.Sink.Int (List.length results));
        ("distinct_jobs", Obs.Sink.Int (List.length distinct_jobs));
        ("synthesis_evaluations", Obs.Sink.Int synthesis_evaluations);
        ("cold_jobs", Obs.Sink.Int cold_jobs);
        ("warm_jobs", Obs.Sink.Int warm_jobs);
        ("optimum", Obs.Sink.String (Config.to_string optimum.config));
        ("p_total_w", Obs.Sink.Float optimum.p_total);
        ("truncated", Obs.Sink.Bool truncated);
      ]
    run_span;
  {
    spec;
    mode;
    candidates = results;
    optimum;
    distinct_jobs;
    synthesis_evaluations;
    cold_jobs;
    warm_jobs;
    domains;
    wall_time_s;
    truncated;
  }

let mode_name_of = function
  | `Equation -> "equation"
  | `Hybrid -> "hybrid"
  | `Hybrid_verified -> "hybrid_verified"

(* hoist the per-candidate job lists: the synthesis work list and the
   per-candidate assembly must derive from the same translation, or the
   two phases could disagree *)
let plan_of_spec (spec : Spec.t) ?candidates () =
  let candidates =
    match candidates with
    | Some cs -> cs
    | None ->
      Config.enumerate_leading ~k:spec.Spec.k
        ~backend_bits:(Spec.backend_bits spec)
  in
  let candidate_jobs =
    List.map (fun c -> (c, Spec.jobs_of_config spec c)) candidates
  in
  let distinct_jobs =
    candidate_jobs |> List.concat_map snd |> List.sort_uniq Spec.compare_job
  in
  (candidate_jobs, distinct_jobs)

let run ?(mode = `Hybrid) ?(seed = 11) ?(attempts = 3) ?budget ?candidates
    ?(jobs = 1) ?(obs = Obs.null) ?(cancel = Cancel.never) ?shared
    (spec : Spec.t) =
  let t_start = Unix.gettimeofday () in
  (match candidates with
  | Some [] -> invalid_arg "Optimize.run: no candidates"
  | _ -> ());
  let mode_name = mode_name_of mode in
  let run_span = Obs.span obs ~name:"optimize.run" () in
  let candidate_jobs, distinct_jobs = plan_of_spec spec ?candidates () in
  let domains =
    if mode = `Equation then 1
    else
      match shared with
      | Some sh -> Pool.size sh.sh_pool
      | None -> Stdlib.max 1 jobs
  in
  let cache, synthesis_evaluations, cold_jobs, warm_jobs, truncated =
    match mode with
    | `Equation ->
      equation_phase ~obs ~cancel ~span_parent:run_span distinct_jobs
    | `Hybrid | `Hybrid_verified -> (
      let keyed =
        keyed_schedule spec ~mode_name ~seed ~attempts ~budget distinct_jobs
      in
      match shared with
      | Some sh ->
        (* long-lived runtime: the pool and memo outlive this run, so
           any later request deriving the same job keys — same physics,
           search identity and warm-start lineage, whatever its k or
           candidate set — warm-hits those jobs *)
        submit_keyed spec ~mode ~seed ~attempts ~budget ~cancel
          ~pool:sh.sh_pool ~memo:sh.sh_memo ~obs ~span_parent:run_span keyed
        |> collect_outcomes ~memo:sh.sh_memo ~obs
      | None ->
        Pool.with_pool ~obs ~size:domains (fun pool ->
            let memo = Memo.create ~obs () in
            submit_keyed spec ~mode ~seed ~attempts ~budget ~cancel ~pool
              ~memo ~obs ~span_parent:run_span keyed
            |> collect_outcomes ~memo ~obs))
  in
  assemble spec ~mode ~mode_name ~obs ~run_span ~domains ~t_start
    ~candidate_jobs ~distinct_jobs ~cache ~synthesis_evaluations ~cold_jobs
    ~warm_jobs ~truncated

type batch = {
  batch_runs : run list;
  job_occurrences : int;
  distinct_syntheses : int;
  batch_domains : int;
  batch_wall_s : float;
  batch_truncated : bool;
}

let run_batch ?(mode = `Hybrid) ?(seed = 11) ?(attempts = 3) ?budget
    ?(jobs = 1) ?(obs = Obs.null) ?(cancel = Cancel.never) ?shared
    ?(on_run = fun (_ : run) -> ()) specs =
  if specs = [] then invalid_arg "Optimize.run_batch: no specs";
  let t_start = Unix.gettimeofday () in
  match mode with
  | `Equation ->
    (* no synthesis phase, hence nothing to fuse: each spec is its own
       (microsecond) run, complete with its [optimize.run] span *)
    let runs =
      List.map
        (fun spec ->
          let r = run ~mode ~seed ~attempts ~obs ~cancel spec in
          on_run r;
          r)
        specs
    in
    {
      batch_runs = runs;
      job_occurrences = 0;
      distinct_syntheses = 0;
      batch_domains = 1;
      batch_wall_s = Unix.gettimeofday () -. t_start;
      batch_truncated = List.exists (fun r -> r.truncated) runs;
    }
  | (`Hybrid | `Hybrid_verified) as mode ->
    let mode_name = mode_name_of mode in
    let batch_span = Obs.span obs ~name:"optimize.batch" () in
    (* Per-spec planning is a pure function of each spec alone — a
       spec's keyed schedule (and therefore its result) cannot depend
       on what else is in the batch. *)
    let plans =
      List.map
        (fun spec ->
          let candidate_jobs, distinct_jobs = plan_of_spec spec () in
          let keyed =
            keyed_schedule spec ~mode_name ~seed ~attempts ~budget
              distinct_jobs
          in
          (spec, candidate_jobs, distinct_jobs, keyed))
        specs
    in
    (* Fuse the work lists: dedup globally by Job_key (equal keys mean
       bit-identical outcomes, so either spec's closure may compute the
       shared entry) and schedule the union hardest-first. A donor
       always has strictly more input bits than its dependent, so every
       donor sorts — and is submitted — before any job that awaits it,
       batch-wide. *)
    let union =
      plans
      |> List.concat_map (fun (spec, _, _, keyed) ->
             List.map (fun kj -> (spec, kj)) keyed)
      |> List.sort_uniq (fun (_, a) (_, b) ->
             match Spec.compare_job a.kj_job b.kj_job with
             | 0 -> Job_key.compare a.kj_key b.kj_key
             | c -> c)
    in
    let job_occurrences =
      List.fold_left (fun n (_, _, _, keyed) -> n + List.length keyed) 0 plans
    in
    let distinct_syntheses = List.length union in
    let submit_union ~pool ~memo =
      let futures : (Job_key.t, _) Hashtbl.t =
        Hashtbl.create (2 * distinct_syntheses)
      in
      List.iter
        (fun (spec, kj) ->
          let subs =
            submit_keyed spec ~mode ~seed ~attempts ~budget ~cancel ~pool
              ~memo ~obs ~span_parent:batch_span [ kj ]
          in
          List.iter
            (fun (kj, fut) -> Hashtbl.replace futures kj.kj_key fut)
            subs)
        union;
      (* per-spec assembly in batch order, each spec awaiting exactly
         its own schedule — the same collection a sequential run over a
         shared runtime would perform, so results are byte-identical to
         N one-at-a-time runs *)
      List.map
        (fun (spec, candidate_jobs, distinct_jobs, keyed) ->
          let spec_span =
            Obs.span obs ~parent:batch_span ~name:"batch.spec" ()
          in
          let submissions =
            List.map (fun kj -> (kj, Hashtbl.find futures kj.kj_key)) keyed
          in
          let cache, synthesis_evaluations, cold_jobs, warm_jobs, truncated =
            collect_outcomes ~memo ~obs submissions
          in
          let r =
            assemble spec ~mode ~mode_name ~obs ~run_span:spec_span
              ~domains:(Pool.size pool) ~t_start ~candidate_jobs
              ~distinct_jobs ~cache ~synthesis_evaluations ~cold_jobs
              ~warm_jobs ~truncated
          in
          on_run r;
          r)
        plans
    in
    let runs =
      match shared with
      | Some sh -> submit_union ~pool:sh.sh_pool ~memo:sh.sh_memo
      | None ->
        Pool.with_pool ~obs ~size:(Stdlib.max 1 jobs) (fun pool ->
            submit_union ~pool ~memo:(Memo.create ~obs ()))
    in
    let batch_truncated = List.exists (fun r -> r.truncated) runs in
    Obs.Span.finish
      ~attrs:
        [
          ("specs", Obs.Sink.Int (List.length specs));
          ("mode", Obs.Sink.String mode_name);
          ("job_occurrences", Obs.Sink.Int job_occurrences);
          ("distinct_syntheses", Obs.Sink.Int distinct_syntheses);
          ("truncated", Obs.Sink.Bool batch_truncated);
        ]
      batch_span;
    {
      batch_runs = runs;
      job_occurrences;
      distinct_syntheses;
      batch_domains =
        (match shared with
        | Some sh -> Pool.size sh.sh_pool
        | None -> Stdlib.max 1 jobs);
      batch_wall_s = Unix.gettimeofday () -. t_start;
      batch_truncated;
    }

let optimum_config r = r.optimum.config

(* ---- router planning ---------------------------------------------- *)

(* The batch counters as a pure plan function: [job_occurrences] and
   [distinct_syntheses] depend only on the specs' keyed schedules, never
   on execution, so a router that fans a batch across nodes can report
   the same figures a fused single-node [run_batch] would. *)
let batch_plan_counts ?(mode = `Hybrid) ?(seed = 11) ?(attempts = 3) ?budget
    specs =
  match mode with
  | `Equation -> (0, 0)
  | (`Hybrid | `Hybrid_verified) as mode ->
    let mode_name = mode_name_of mode in
    let plans =
      List.map
        (fun spec ->
          let _, distinct_jobs = plan_of_spec spec () in
          keyed_schedule spec ~mode_name ~seed ~attempts ~budget distinct_jobs
          |> List.map (fun kj -> (kj.kj_job, kj.kj_key)))
        specs
    in
    let job_occurrences =
      List.fold_left (fun n l -> n + List.length l) 0 plans
    in
    let union =
      plans |> List.concat
      |> List.sort_uniq (fun (j1, k1) (j2, k2) ->
             match Spec.compare_job j1 j2 with
             | 0 -> Job_key.compare k1 k2
             | c -> c)
    in
    (job_occurrences, List.length union)

(* ------------------------------------------------------------------ *)
(* best-of-N restart search of one cell (the [synth] and [netlist-emit]
   verbs); last in the file so its record labels shadow nothing above *)

type restarts = {
  best : Synthesizer.solution option;
  evaluations : int;
  truncated : bool;
}

(* restart [a] draws seed [Rng.mix seed a] whatever domain runs it, and
   the fold is in attempt order, so the winner is pool-size independent *)
let best_of_restarts ~pool ?budget ?obs ?cancel ~seed ~attempts process
    requirements =
  let cancelled () =
    match cancel with Some c -> Cancel.cancelled c | None -> false
  in
  let restarts =
    Pool.map_ordered pool
      (fun a ->
        if cancelled () then None
        else
          Some
            (Synthesizer.synthesize ~seed:(Rng.mix seed a) ?budget ?obs process
               requirements))
      (List.init (Stdlib.max 1 attempts) Fun.id)
  in
  List.fold_left
    (fun acc -> function
      | None -> { acc with truncated = true }
      | Some (Error _) -> acc
      | Some (Ok s) ->
        { acc with
          best =
            (match acc.best with None -> Some s | Some b -> Some (better b s));
          evaluations = acc.evaluations + s.Synthesizer.evaluations })
    { best = None; evaluations = 0; truncated = false }
    restarts
