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

(* ------------------------------------------------------------------ *)
(* the one best-of-N search, behind every optimize job and the [synth]
   and [netlist-emit] verbs *)

(* a search's outcome: the winner (None if every attempt failed or none
   ran), the evaluator calls of the attempts that ran, whether a
   warm-start donor had a solution, and whether a cancellation skipped
   any attempt *)
type restarts = {
  best : Synthesizer.solution option;
  evaluations : int;
  warm : bool;
  truncated : bool;
}

type attempt =
  | Skipped
  | Ran of (Synthesizer.solution, string) result
  | Raised of exn

(* One pool task per attempt and no join: the attempt that settles last
   folds them with [better] in attempt order, so the winner does not
   depend on which domain ran what (contract in optimize.mli). *)
let best_of_n ~pool ?(cancel = Cancel.never) ?(donors = []) ?(on_fold = ignore)
    ?(obs = Obs.null) ?(wait_parent = fun _ -> Obs.Span.dummy) ~attempts ~into
    search =
  (* a donor still pending parks this domain: when tracing, the wait is
     an [optimize.donor_wait] span tagged with the domain, so a trace
     can tell a parked worker from a busy one *)
  let await a d =
    if Obs.tracing obs && not (Future.is_resolved d) then
      Obs.with_span obs ~parent:(wait_parent a) ~name:"optimize.donor_wait"
        ~attrs:[ ("domain_id", Obs.Sink.Int (Domain.self () :> int)) ]
        (fun _ -> Future.await d)
    else Future.await d
  in
  let warm_start a =
    List.find_map
      (fun d -> Option.map (fun s -> s.Synthesizer.sizing) (await a d).best)
      donors
  in
  let slots = Array.make (Stdlib.max 0 attempts) Skipped in
  let fold () =
    match
      let ran = Array.exists (function Ran _ -> true | _ -> false) slots in
      let r =
        Array.fold_left
          (fun acc -> function
            | Raised e -> raise e
            | Skipped -> { acc with truncated = true }
            | Ran (Error _) -> acc
            | Ran (Ok s) ->
              { acc with
                best = Some (match acc.best with None -> s | Some b -> better b s);
                evaluations = acc.evaluations + s.Synthesizer.evaluations })
          { best = None; evaluations = 0;
            warm = ran && warm_start (Array.length slots) <> None;
            truncated = false }
          slots
      in
      on_fold r;
      r
    with
    | r -> Future.resolve into r
    | exception e -> Future.fail into e
  in
  let run a =
    (* a cancel is polled again after the donors, which may have taken
       a while *)
    let warm_start = if a = 0 || Cancel.cancelled cancel then None else warm_start a in
    if Cancel.cancelled cancel then Skipped else Ran (search a ~warm_start)
  in
  (* each task writes its slot before its decrement, and the atomic
     read-modify-writes order every slot write before the fold *)
  let pending = Atomic.make (Array.length slots) in
  if Array.length slots = 0 then fold ()
  else
    Array.iteri
      (fun a _ ->
        Pool.async pool (fun () ->
            slots.(a) <- (try run a with e -> Raised e);
            if Atomic.fetch_and_add pending (-1) = 1 then fold ()))
      slots

(* the [synth] verb's policy: a uniform budget, attempt [a] seeded
   [Rng.mix seed a], root [synth.search] spans, at least one attempt *)
let synth_restarts ~pool ?budget ?obs ?cancel ~seed ~attempts process
    requirements =
  let into = Future.create () in
  best_of_n ~pool ?cancel ~attempts:(Stdlib.max 1 attempts) ~into
    (fun a ~warm_start:_ ->
      Synthesizer.synthesize ~seed:(Rng.mix seed a) ?budget ?obs process
        requirements);
  Future.await into

(* the trace record of one synthesized job: emitted from whichever
   worker domain folded it, as a child of the run span. The attributes are
   the same quantities the run's summary counters aggregate, so a trace
   is a per-job decomposition of [synthesis_evaluations] /
   [cold_jobs] / [warm_jobs] — summing the spans must reproduce the
   counters exactly (test_obs checks this), which makes the trace a
   correctness check on the parallel scheduler. *)
let finish_job_span span (job : Spec.job) ~attempts ~(outcome : restarts) =
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
        ("solved", Bool (Option.is_some outcome.best));
        ("truncated", Bool outcome.truncated);
      ]
    in
    let attrs =
      match outcome.best with
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
  sh_memo : (Job_key.t, restarts) Memo.t;
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

(* Submit one keyed job, the job path's policy over [best_of_n]: its
   future is the memo's, so a job already cached (or in flight) under the
   same key is not synthesized again. Attempt 0 is a deterministic
   pattern descent from the analytic seed (smooth across jobs); later
   attempts anneal, longer on the GHz-class jobs, whose good basins are
   rare. An explicit budget override (tests, CI) caps every attempt.
   Callers submit in plan order and pass the futures of the job's
   [donors], which were submitted earlier: a blocked worker always waits
   on tasks enqueued before its own, so the pool cannot deadlock
   (docs/PARALLELISM.md). *)
let submit_job (spec : Spec.t) ~mode ~seed ~attempts ~budget ~cancel ~pool
    ~memo ~obs ~span_parent ~donors kj =
  let kind =
    match mode with
    | `Equation -> Synthesizer.Equation_only
    | `Hybrid -> Synthesizer.Hybrid
    | `Hybrid_verified -> Synthesizer.Hybrid_verified
  in
  let job = kj.kj_job in
  let req = Spec.stage_requirements spec job in
  let job_seed = Rng.mix seed (job_salt job) in
  (* the job span opens when its first attempt runs (or at the fold, if
     none ran) and closes at the fold; attempts start on several
     domains, so the first to need it opens it *)
  let span = ref None and span_mutex = Mutex.create () in
  let job_span () =
    Mutex.protect span_mutex (fun () ->
        match !span with
        | Some s -> s
        | None ->
          let s = Obs.span obs ~parent:span_parent ~name:"optimize.job" () in
          span := Some s;
          s)
  in
  let n = attempts_for ~attempts job in
  (* attempt [a]'s span opens at its donor wait or at its search,
     whichever comes first, and the search finishes and clears it; only
     attempt [a]'s task touches slot [a] before the fold *)
  let attempt_spans = Array.make n Obs.Span.dummy in
  let attempt_span a =
    if not (Obs.Span.is_live attempt_spans.(a)) then
      attempt_spans.(a) <-
        Obs.span obs ~parent:(job_span ())
          ~name:(if a = 0 then "optimize.attempt.det" else "optimize.attempt.sa")
          ();
    attempt_spans.(a)
  in
  (* the fold's wait hangs from the job span *)
  let wait_parent a = if a < n then attempt_span a else job_span () in
  (* a span still open at the fold is that of an attempt the cancel
     skipped after its donor wait *)
  let on_fold outcome =
    Array.iteri
      (fun a span ->
        Obs.Span.finish
          ~attrs:[ ("attempt", Obs.Sink.Int a); ("skipped", Obs.Sink.Bool true) ]
          span)
      attempt_spans;
    finish_job_span (job_span ()) job ~attempts ~outcome
  in
  let search a ~warm_start =
    let attempt_span = attempt_span a in
    let budget =
      match (budget, a) with
      | Some b, 0 -> { b with Synthesizer.sa_iterations = 0 }
      | Some b, _ -> b
      | None, 0 ->
        { Synthesizer.sa_iterations = 0; pattern_evals = 500; space_factor = 1.0 }
      | None, _ ->
        let depth = 400 + (250 * Stdlib.max 0 (job.Spec.input_bits - 11)) in
        { Synthesizer.sa_iterations = depth; pattern_evals = 200;
          space_factor = 1.0 }
    in
    let r =
      Synthesizer.synthesize ~kind ~budget ~seed:(Rng.mix job_seed a) ?warm_start
        ~obs ~span_parent:attempt_span spec.Spec.process req
    in
    Obs.Span.finish ~attrs:[ ("attempt", Obs.Sink.Int a) ] attempt_span;
    attempt_spans.(a) <- Obs.Span.dummy;
    r
  in
  Memo.find_or_run memo pool kj.kj_key (fun into ->
      best_of_n ~pool ~cancel ~donors ~on_fold ~obs ~wait_parent ~attempts:n
        ~into search)

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
      let outcome : restarts = Future.await fut in
      total_evals := !total_evals + outcome.evaluations;
      if outcome.warm then incr warm else incr cold;
      if outcome.truncated then begin
        truncated := true;
        (* never let a deadline-truncated outcome persist in a shared
           cache: evict it so the next request with this key recomputes
           the complete result (current holders of the future still see
           the truncated value — and report [truncated] themselves) *)
        Memo.remove memo kj.kj_key
      end;
      match outcome.best with
      | Some sol -> Hashtbl.replace cache kj.kj_job sol
      | None when outcome.truncated ->
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

(* one spec's share of a plan: the candidates' job lists (the work
   list and the per-candidate assembly derive from the same
   translation, or the two phases could disagree), the distinct jobs
   hardest-first, and their keyed schedule ([] in equation mode, which
   synthesizes nothing) *)
type spec_plan = {
  sp_spec : Spec.t;
  sp_candidate_jobs : (Config.t * Spec.job list) list;
  sp_distinct_jobs : Spec.job list;
  sp_keyed : keyed_job list;
}

type plan = {
  per_spec : spec_plan list;
  union : (Spec.t * keyed_job * int) list;
      (* the fused work list: key-deduplicated, each job with its height,
         in submission order (tallest first, then hardest-first) *)
  job_occurrences : int;
}

let mode_name_of = function
  | `Equation -> "equation"
  | `Hybrid -> "hybrid"
  | `Hybrid_verified -> "hybrid_verified"

(* Each job's height in a hardest-first work list: the length of the
   longest warm-start chain that hangs from it, itself included (1 for a
   job no other job awaits). A donor sorts before its dependents, so one
   pass from the back settles every dependent before its donors. *)
let with_heights work =
  let heights : (Job_key.t, int) Hashtbl.t = Hashtbl.create 16 in
  let height kj = Option.value (Hashtbl.find_opt heights kj.kj_key) ~default:1 in
  List.iter
    (fun (_, kj) ->
      let above = height kj + 1 in
      List.iter
        (fun d ->
          match Hashtbl.find_opt heights d with
          | Some h when h >= above -> ()
          | _ -> Hashtbl.replace heights d above)
        kj.kj_donors)
    (List.rev work);
  List.map (fun (spec, kj) -> (spec, kj, height kj)) work

(* The one planner behind [run], [run_batch] and [batch_plan_counts].
   Per-spec planning is a pure function of each spec alone — a spec's
   keyed schedule (and therefore its result) cannot depend on what else
   is in the batch. The work lists are then fused: deduplicated by
   Job_key (equal keys mean bit-identical outcomes, so either spec's
   closure may compute the shared entry), ordered hardest-first and
   then, stably, tallest first: the head of the longest warm-start chain
   starts first (highest-level-first list scheduling). Only the
   submission order changes, never a key or a donor. A donor is
   strictly taller than each of its dependents, so every donor is still
   submitted before any job that awaits it, batch-wide. *)
let plan ~mode ~seed ~attempts ~budget specs =
  let mode_name = mode_name_of mode in
  let per_spec =
    List.map
      (fun (spec : Spec.t) ->
        let candidate_jobs =
          Config.enumerate_leading ~k:spec.Spec.k
            ~backend_bits:(Spec.backend_bits spec)
          |> List.map (fun c -> (c, Spec.jobs_of_config spec c))
        in
        let distinct_jobs =
          candidate_jobs |> List.concat_map snd
          |> List.sort_uniq Spec.compare_job
        in
        let keyed =
          if mode = `Equation then []
          else
            keyed_schedule spec ~mode_name ~seed ~attempts ~budget
              distinct_jobs
        in
        { sp_spec = spec; sp_candidate_jobs = candidate_jobs;
          sp_distinct_jobs = distinct_jobs; sp_keyed = keyed })
      specs
  in
  let union =
    per_spec
    |> List.concat_map (fun sp ->
           List.map (fun kj -> (sp.sp_spec, kj)) sp.sp_keyed)
    |> List.sort_uniq (fun (_, a) (_, b) ->
           match Spec.compare_job a.kj_job b.kj_job with
           | 0 -> Job_key.compare a.kj_key b.kj_key
           | c -> c)
    |> with_heights
    |> List.stable_sort (fun (_, _, a) (_, _, b) -> compare b a)
  in
  let job_occurrences =
    List.fold_left (fun n sp -> n + List.length sp.sp_keyed) 0 per_spec
  in
  { per_spec; union; job_occurrences }

(* the per-spec assembly: stage tables, candidate totals, ranking, the
   summary span ([optimize.run] or [batch.spec]) *)
let assemble sp ~mode ~obs ~run_span ~domains ~t_start
    ((cache : (Spec.job, Synthesizer.solution) Hashtbl.t),
     synthesis_evaluations, cold_jobs, warm_jobs, truncated) =
  let spec = sp.sp_spec and distinct_jobs = sp.sp_distinct_jobs in
  let stage_result index (job : Spec.job) =
    let p_comparator = Spec.comparator_power spec ~m:job.Spec.m in
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
      (* equation mode (its cache is empty), or synthesis failed: the
         equation model keeps the candidate comparison total *)
      let s = Power_model.stage spec ~index job in
      {
        index;
        job;
        p_mdac = s.Power_model.p_mdac;
        p_comparator;
        p_stage = s.Power_model.p_stage;
        solution = None;
      }
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
    sp.sp_candidate_jobs |> List.map eval_config
    |> List.sort (fun a b -> compare a.p_total b.p_total)
  in
  let optimum = List.hd results in
  let wall_time_s = Unix.gettimeofday () -. t_start in
  Obs.Span.finish
    ~attrs:
      [
        ("k", Obs.Sink.Int spec.Spec.k);
        ("mode", Obs.Sink.String (mode_name_of mode));
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

(* The one executor. The union is submitted in its plan order on one
   pool and memo, then each spec collects exactly its own
   schedule and is assembled, in input order — the collection a solo
   run over the same spec performs, so every run is byte-identical to
   it. [job_parent] parents the job spans; [spec_span ()] opens the span
   a spec's summary lands on. Equation mode has no synthesis phase:
   each spec traces its (zero-cost) jobs under its own span. Also
   returns the evaluator calls summed over the union's outcomes. *)
let execute ~mode ~seed ~attempts ~budget ~jobs ~obs ~cancel ~shared ~on_run
    ~job_parent ~spec_span plan =
  let t_start = Unix.gettimeofday () in
  let finish sp ~span ~domains collected =
    let r = assemble sp ~mode ~obs ~run_span:span ~domains ~t_start collected in
    on_run r;
    r
  in
  match mode with
  | `Equation ->
    ( List.map
        (fun sp ->
          let span = spec_span () in
          equation_phase ~obs ~cancel ~span_parent:span sp.sp_distinct_jobs
          |> finish sp ~span ~domains:1)
        plan.per_spec,
      0 )
  | `Hybrid | `Hybrid_verified -> (
    let execute_on pool memo =
      let futures : (Job_key.t, restarts Future.t) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun (spec, kj, _) ->
          (* a donor is taller, so submitted before its dependents *)
          let donors = List.map (Hashtbl.find futures) kj.kj_donors in
          Hashtbl.replace futures kj.kj_key
            (submit_job spec ~mode ~seed ~attempts ~budget ~cancel ~pool
               ~memo ~obs ~span_parent:job_parent ~donors kj))
        plan.union;
      let runs =
        List.map
          (fun sp ->
            let span = spec_span () in
            List.map (fun kj -> (kj, Hashtbl.find futures kj.kj_key)) sp.sp_keyed
            |> collect_outcomes ~memo ~obs
            |> finish sp ~span ~domains:(Pool.size pool))
          plan.per_spec
      in
      (runs, Hashtbl.fold (fun _ f n -> n + (Future.await f).evaluations) futures 0)
    in
    match shared with
    (* long-lived runtime: the pool and memo outlive this call, so any
       later request deriving the same job keys — same physics, search
       identity and warm-start lineage, whatever its k or candidate
       set — warm-hits those jobs *)
    | Some sh -> execute_on sh.sh_pool sh.sh_memo
    | None ->
      Pool.with_pool ~obs ~size:(Stdlib.max 1 jobs) (fun pool ->
          execute_on pool (Memo.create ~obs ())))

(* a one-spec batch whose summary span is the [optimize.run] root *)
let run ?(mode = `Hybrid) ?(seed = 11) ?(attempts = 3) ?budget ?(jobs = 1)
    ?(obs = Obs.null) ?(cancel = Cancel.never) ?shared (spec : Spec.t) =
  let run_span = Obs.span obs ~name:"optimize.run" () in
  plan ~mode ~seed ~attempts ~budget [ spec ]
  |> execute ~mode ~seed ~attempts ~budget ~jobs ~obs ~cancel ~shared
       ~on_run:ignore ~job_parent:run_span ~spec_span:(fun () -> run_span)
  |> fst |> List.hd

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
    ?(on_run = ignore) specs =
  if specs = [] then invalid_arg "Optimize.run_batch: no specs";
  let t_start = Unix.gettimeofday () in
  let p = plan ~mode ~seed ~attempts ~budget specs in
  let distinct_syntheses = List.length p.union in
  (* a hybrid batch hangs its specs under one [optimize.batch] root; an
     equation batch has nothing to fuse, so each spec is its own
     (microsecond) run with its [optimize.run] root *)
  let batch_span, spec_span =
    match mode with
    | `Equation ->
      (Obs.Span.dummy, fun () -> Obs.span obs ~name:"optimize.run" ())
    | `Hybrid | `Hybrid_verified ->
      let root = Obs.span obs ~name:"optimize.batch" () in
      (root, fun () -> Obs.span obs ~parent:root ~name:"batch.spec" ())
  in
  let runs, distinct_evaluations =
    execute ~mode ~seed ~attempts ~budget ~jobs ~obs ~cancel ~shared ~on_run
      ~job_parent:batch_span ~spec_span p
  in
  let batch_truncated = List.exists (fun (r : run) -> r.truncated) runs in
  Obs.Span.finish
    ~attrs:
      [
        ("specs", Obs.Sink.Int (List.length specs));
        ("mode", Obs.Sink.String (mode_name_of mode));
        ("job_occurrences", Obs.Sink.Int p.job_occurrences);
        ("distinct_syntheses", Obs.Sink.Int distinct_syntheses);
        ("distinct_evaluations", Obs.Sink.Int distinct_evaluations);
        ("truncated", Obs.Sink.Bool batch_truncated);
      ]
    batch_span;
  {
    batch_runs = runs;
    job_occurrences = p.job_occurrences;
    distinct_syntheses;
    batch_domains = (List.hd runs).domains;
    batch_wall_s = Unix.gettimeofday () -. t_start;
    batch_truncated;
  }

let optimum_config r = r.optimum.config

(* the batch counters are a pure plan function, so a router that fans a
   batch across nodes reports the figures a fused [run_batch] would *)
let batch_plan_counts ?(mode = `Hybrid) ?(seed = 11) ?(attempts = 3) ?budget
    specs =
  let p = plan ~mode ~seed ~attempts ~budget specs in
  (p.job_occurrences, List.length p.union)

type submission = {
  sub_job : Spec.job;
  sub_key : Job_key.t;
  sub_donors : Job_key.t list;
  sub_height : int;
}

let submission_order ?(mode = `Hybrid) ?(seed = 11) ?(attempts = 3) ?budget
    specs =
  (plan ~mode ~seed ~attempts ~budget specs).union
  |> List.map (fun (_, kj, h) ->
         { sub_job = kj.kj_job; sub_key = kj.kj_key; sub_donors = kj.kj_donors;
           sub_height = h })
