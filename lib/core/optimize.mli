(** The paper's topology optimization: enumerate candidates, synthesize
    every distinct MDAC once, assemble stage and total powers, pick the
    winner.

    {1:modes Evaluation modes}

    [mode] selects how much physics backs each per-stage power number:

    - [`Equation] — closed-form power model only ({!Power_model.stage}).
      Deterministic, microseconds per run; this is the screening pass the
      paper's Section 2 system level corresponds to. No synthesis is
      performed: every {!stage_result.solution} is [None] and the
      synthesis counters of {!run} are zero.
    - [`Hybrid] — every distinct MDAC job is synthesized at transistor
      level with the simulation-backed hybrid evaluator (DC solve →
      small-signal extraction → DPI/SFG + Mason transfer function →
      constraint-penalized annealing and pattern search). This is the
      paper's flow; expect seconds per job.
    - [`Hybrid_verified] — [`Hybrid] plus a final transient
      switched-capacitor settling simulation of each winning cell (the
      "trustworthy large-swing" leg of the paper's evaluator).

    {1 The shared MDAC result cache}

    Candidates overlap heavily in the MDAC jobs they need (the paper's
    "11 MDACs for 7 configurations" effect), so synthesis results are
    cached by job identity — ({!Spec.job.m}, {!Spec.job.input_bits}) —
    and shared across candidates. The cache is an
    {!Adc_exec.Memo} promise cache: each distinct job is synthesized
    exactly once even when evaluations race on several domains, and a
    candidate assembling its stage table blocks only on the jobs it
    actually uses.

    {1 Warm-start retargeting}

    Jobs are listed hardest-first (descending input accuracy, then
    descending stage resolution). Each job warm-starts from the best
    earlier-listed donor with the same stage resolution and an
    accuracy within one bit — the paper's "retargeting" effect ("2-3
    weeks for the first block, 1 day for subsequent blocks"). Donor
    choice is a pure function of the schedule, {e not} of completion
    order: a parallel run picks exactly the donors a sequential run
    would, which is the key determinism guarantee (see
    [docs/PARALLELISM.md]). The pool is handed the jobs tallest
    warm-start chain first ({!submission_order}), which changes only
    when each job starts.

    {1 Parallelism and reproducibility}

    [run ~jobs:n] evaluates the synthesis work list on a pool of [n]
    OCaml 5 domains ({!Adc_exec.Pool}). Every stochastic search draws
    from a private generator seeded by [Rng.mix] of the top-level [seed],
    the job identity, and the restart index — never from a shared stream —
    so for any [n]:

    - the ranking, the optimum, and every per-stage power are bit-equal
      to the [jobs:1] run;
    - {!run.synthesis_evaluations}, {!run.cold_jobs} and
      {!run.warm_jobs} are identical;
    - only {!run.wall_time_s} changes. *)

type mode = [ `Equation | `Hybrid | `Hybrid_verified ]

type stage_result = {
  index : int;             (** 1-based position in the pipeline *)
  job : Spec.job;          (** the cache key this stage resolved to *)
  p_mdac : float;          (** synthesized (or modeled) MDAC power, W *)
  p_comparator : float;    (** sub-ADC power under the spec calibration *)
  p_stage : float;         (** [p_mdac + p_comparator + fixed overhead] *)
  solution : Adc_synth.Synthesizer.solution option;
      (** the synthesized cell behind [p_mdac]; [None] in [`Equation]
          mode or when every synthesis attempt for the job failed (the
          stage then falls back to the equation power model so the
          candidate comparison stays total) *)
}

type config_result = {
  config : Config.t;
  stages : stage_result list;   (** leading stages, front to back *)
  p_total : float;              (** sum of [p_stage] over the stages *)
  all_feasible : bool;
      (** every stage's synthesized cell met all constraints; always
          [true] in [`Equation] mode *)
}

type run = {
  spec : Spec.t;
  mode : mode;
  candidates : config_result list;  (** sorted by ascending total power *)
  optimum : config_result;          (** head of [candidates] *)
  distinct_jobs : Spec.job list;
      (** the de-duplicated synthesis work list, hardest-first — the
          order jobs were scheduled in *)
  synthesis_evaluations : int;      (** total evaluator calls across jobs *)
  cold_jobs : int;  (** jobs synthesized from the analytic seed *)
  warm_jobs : int;  (** jobs warm-started from a donor's sizing *)
  domains : int;    (** pool size the synthesis phase actually used *)
  wall_time_s : float;
      (** wall-clock time of the whole run; in a {!run_batch}, from the
          batch's start to this spec's assembly *)
  truncated : bool;
      (** a cancellation token tripped before the synthesis phase
          finished: one or more jobs lost restarts (their best-so-far
          was kept) or never ran (their stages fell back to the
          equation power model). Always [false] without [?cancel]. *)
}

(** {1 The shared runtime}

    A {!shared} value is the long-lived half of a serving process: one
    domain pool and one promise-keyed memo cache spanning every run
    that is handed the same value ([adcopt serve] owns exactly one).
    Memo entries are keyed by {!Job_key.t} — the physics of the derived
    block spec ({!Spec.stage_fingerprint}), the search identity (mode,
    seed, attempts, budget) and the warm-start lineage (the donors'
    own keys, recursively) — {e not} by the enclosing run. Two requests
    therefore share an entry exactly when they would compute
    bit-identical outcomes: a repeated request warm-hits every job, and
    a request with a {e different} [k] still warm-hits the jobs whose
    derived block specs it has in common with earlier requests (the
    paper's MDAC-reuse economy, extended across requests). Outcomes
    truncated by a request deadline are evicted on completion and never
    persist in the cache. *)

type shared

val create_shared : ?obs:Adc_obs.t -> ?jobs:int -> unit -> shared
(** [create_shared ~jobs ()] spawns the pool ([jobs] domains, default
    {!Adc_exec.Pool.recommended_size}) and an empty cache. *)

val shutdown_shared : shared -> unit
(** Drain and join the pool. The cache stays readable. *)

val shared_pool : shared -> Adc_exec.Pool.t
(** The runtime's pool, for callers submitting their own work (e.g.
    the [synth] verb's {!synth_restarts}). *)

val shared_jobs_cached : shared -> int
(** Number of distinct {!Job_key.t} entries ever cached — the
    [jobs_cached] figure of [adcopt serve]'s [stats] verb. *)

val shared_job_stats : shared -> int * int
(** [(hits, misses)] over every job lookup on the shared cache since
    creation ({!Adc_exec.Memo.stats}): hits are job-level reuse —
    within a run, across runs, and across requests — misses are actual
    syntheses scheduled. Served as [job_hits]/[job_misses] in the
    daemon's [stats] verb. *)

val run :
  ?mode:mode ->
  ?seed:int ->
  ?attempts:int ->
  ?budget:Adc_synth.Synthesizer.budget ->
  ?jobs:int ->
  ?obs:Adc_obs.t ->
  ?cancel:Adc_exec.Cancel.t ->
  ?shared:shared ->
  Spec.t ->
  run
(** Optimize one converter spec over the paper's candidate enumeration
    with a 7-bit backend ({!Config.enumerate_leading}). This is the
    one-spec case of {!run_batch}: the same planner and executor, with
    the spec's summary on an [optimize.run] root span instead of a
    [batch.spec] one.

    - [mode] (default [`Hybrid]) — see {!section-modes} above.
    - [seed] (default 11) — root of every derived per-job stream.
    - [attempts] (default 3) — independent searches per distinct job,
      best solution kept; single annealing runs are noisier than the
      few-percent candidate margins the figures resolve. Jobs above 11
      input bits get two extra attempts per bit (their good basins are
      rare).
    - [budget] — overrides the per-attempt annealing budget (used by the
      tests to keep hybrid runs fast); attempt 0 always runs the
      deterministic pattern-descent budget instead.
    - [jobs] (default 1, i.e. sequential) — number of domains for the
      synthesis phase. Results are independent of [jobs]; pass
      {!Adc_exec.Pool.recommended_size}[ ()] to use the hardware. Ignored
      in [`Equation] mode, which has no synthesis phase.
    - [obs] (default {!Adc_obs.null}) — structured tracing and metrics.
      With a live trace sink the run emits one [optimize.run] root span,
      one [optimize.job] span per {e distinct} MDAC job, from its first
      attempt's start to the fold (children: [optimize.attempt.*] and
      [synth.search]), and one
      [optimize.candidate] span per candidate. The job spans' summed
      [evaluations] attributes equal {!run.synthesis_evaluations}, and
      their [warm] tags partition into exactly
      ({!run.warm_jobs}, {!run.cold_jobs}) — the trace is a per-job
      decomposition of the summary counters, enforced by
      [test/test_obs.ml]. With a live metrics registry the run also
      accumulates [optimize.evaluator_calls] / [optimize.cold_jobs] /
      [optimize.warm_jobs] counters plus the pool and memo telemetry
      (see {!Adc_exec.Pool.create} and {!Adc_exec.Memo.create}).
      Instrumentation never reads any RNG stream: enabling it leaves
      every synthesis result bit-identical.
    - [cancel] (default {!Adc_exec.Cancel.never}) — cooperative
      cancellation, polled before each attempt ({!best_of_n}). After it
      trips, in-flight attempts finish, jobs with no attempt run publish
      empty outcomes (their stages fall back to the equation model),
      every future settles, and the run returns with
      {!run.truncated} set — nothing leaks and the pool stays usable.
      Truncated results are best-effort and {e not} deterministic (the
      cut point depends on the wall clock).
    - [shared] — run on a long-lived {!shared} runtime instead of a
      private pool/memo pair. [jobs] is then ignored ({!run.domains}
      reports the shared pool's size) and job outcomes persist across
      runs under their {!Job_key}, which is what makes a repeated — or
      merely {e overlapping} — request to [adcopt serve] reuse prior
      syntheses while staying bit-identical to computing cold. *)

(** {1 Batch optimization}

    [run_batch] turns N overlapping requests into one near-minimal
    synthesis pass: each spec's keyed work list is derived independently
    (a pure function of that spec alone), the lists are fused and
    deduplicated globally by {!Job_key}, the union is submitted
    tallest warm-start chain first ({!submission_order}) to one domain
    pool, and per-spec results are
    assembled from the shared outcomes. Because equal keys guarantee
    bit-identical outcomes, every run in {!batch.batch_runs} is
    byte-identical to the run a sequential [run] over the same spec
    would produce — the batch changes only the wall-clock cost.
    [run] is the one-spec case; the [batch] and [sweep] verbs
    ({!Rules.sweep}) and {!Front.search} are thin wrappers. *)

type batch = {
  batch_runs : run list;  (** one {!run} per input spec, input order *)
  job_occurrences : int;
      (** summed per-spec work-list lengths — what N sequential cold
          runs would have synthesized *)
  distinct_syntheses : int;
      (** size of the fused, key-deduplicated work list actually
          scheduled; [job_occurrences - distinct_syntheses] jobs were
          shared between specs *)
  batch_domains : int;
  batch_wall_s : float;
  batch_truncated : bool;  (** some run lost work to [?cancel] *)
}

val run_batch :
  ?mode:mode ->
  ?seed:int ->
  ?attempts:int ->
  ?budget:Adc_synth.Synthesizer.budget ->
  ?jobs:int ->
  ?obs:Adc_obs.t ->
  ?cancel:Adc_exec.Cancel.t ->
  ?shared:shared ->
  ?on_run:(run -> unit) ->
  Spec.t list ->
  batch
(** Optimize several converter specs in one fused synthesis pass.
    Parameters have the same meaning (and defaults) as {!run}. In
    [`Equation] mode there is nothing to fuse — the batch degenerates
    to N independent (microsecond) runs and both counters are 0.
    Raises [Invalid_argument] on an empty spec list.

    [on_run] (default a no-op) is invoked once per spec, in input
    order, as soon as that spec's run is assembled — before later
    specs' runs are collected. The invocation happens on the calling
    thread, between per-spec assemblies; the callback sees exactly the
    {!run} value that will appear in {!batch.batch_runs}. This is the
    hook the Pareto-front driver ({!Front.search}) uses to stream
    points as they stabilize. A raising callback aborts the batch.

    With a live trace sink a hybrid batch emits one [optimize.batch]
    root span (fused-work-list counters), the usual [optimize.job]
    spans for the union, and one [batch.spec] span per input spec
    carrying the same summary attributes an [optimize.run] span would
    ([adcopt trace summary] reconciles the [optimize.batch] span's
    [distinct_syntheses] against its job spans and skips these: in a
    batch the per-job spans decompose the {e union}, not any single
    spec's counters). *)

val optimum_config : run -> Config.t
(** [optimum_config r] is [r.optimum.config]. *)

(** {1 The best-of-N search: every optimize job, [synth], [netlist-emit]} *)

type restarts = {
  best : Adc_synth.Synthesizer.solution option;
      (** the winner: feasible beats infeasible, then lower power among
          feasible, lower total violation among infeasible, then the
          earlier attempt; [None] if every attempt failed or none ran *)
  evaluations : int;  (** evaluator calls summed over the attempts that ran *)
  warm : bool;
      (** a warm-start donor had a solution; [false] when no attempt ran *)
  truncated : bool;   (** [cancel] tripped before every attempt started *)
}

val best_of_n :
  pool:Adc_exec.Pool.t ->
  ?cancel:Adc_exec.Cancel.t ->
  ?donors:restarts Adc_exec.Future.t list ->
  ?on_fold:(restarts -> unit) ->
  ?obs:Adc_obs.t ->
  ?wait_parent:(int -> Adc_obs.Span.t) ->
  attempts:int ->
  into:restarts Adc_exec.Future.t ->
  (int ->
  warm_start:Adc_mdac.Ota.sizing option ->
  (Adc_synth.Synthesizer.solution, string) result) ->
  unit
(** [best_of_n ~pool ~attempts ~into search] submits one pool task per
    attempt; task [a] runs [search a ~warm_start], and [search] holds
    the caller's policy (budget, seed, span parent). Attempt 0 gets no
    warm start and waits on nothing; later attempts await [donors] and
    get the sizing of the first with a solution. An attempt that finds
    [cancel] tripped is skipped. The attempt that settles last folds
    them in attempt order, passes the outcome to [on_fold] and resolves
    [into], so the outcome is the same on any pool; an exception from
    [search] or a donor fails [into]. [attempts <= 0] resolves [into]
    at once; a size-1 pool runs every task inline.

    When [obs] (default {!Adc_obs.null}) is tracing, an attempt (or the
    fold) that finds a donor still pending awaits it inside an
    [optimize.donor_wait] span, a child of [wait_parent a] ([a] the
    attempt, [attempts] for the fold; default no parent), tagged with
    the waiting domain's [domain_id]. Otherwise the wait allocates
    nothing and reads no clock. *)

val synth_restarts :
  pool:Adc_exec.Pool.t ->
  ?budget:Adc_synth.Synthesizer.budget ->
  ?obs:Adc_obs.t ->
  ?cancel:Adc_exec.Cancel.t ->
  seed:int ->
  attempts:int ->
  Adc_circuit.Process.t ->
  Adc_mdac.Mdac_stage.requirements ->
  restarts
(** The [synth] verb's policy over {!best_of_n} (also {!Deck.export}'s):
    [attempts] (at least 1) runs at the uniform [budget], attempt [a]
    seeded [Rng.mix seed a], parentless [synth.search] spans, no donors.
    Waits for the outcome. *)

val batch_plan_counts :
  ?mode:mode ->
  ?seed:int ->
  ?attempts:int ->
  ?budget:Adc_synth.Synthesizer.budget ->
  Spec.t list ->
  int * int
(** [(job_occurrences, distinct_syntheses)] of the batch {!run_batch}
    over the same specs would report: summed per-spec work-list lengths,
    and the size of their key-deduplicated union. Pure; [(0, 0)] in
    [`Equation] mode. *)

(** {1 The submission order} *)

type submission = {
  sub_job : Spec.job;
  sub_key : Job_key.t;
  sub_donors : Job_key.t list;  (** warm-start donors, preference order *)
  sub_height : int;
      (** the length of the longest warm-start chain hanging from this
          job, itself included: 1 when no job awaits it *)
}

val submission_order :
  ?mode:mode ->
  ?seed:int ->
  ?attempts:int ->
  ?budget:Adc_synth.Synthesizer.budget ->
  Spec.t list ->
  submission list
(** The key-deduplicated union {!run_batch} over the same specs submits,
    in its submission order: tallest first, hardest-first among equal
    heights. A donor is strictly taller than each of its dependents, so
    it is submitted before them. Pure; [[]] in [`Equation] mode. *)
