(** Aggregation over a parsed trace: span tree, self-time vs total-time
    tables, the critical path, the per-domain pool-utilization timeline,
    the memo hit-rate summary, and the reconciliation of per-job span
    sums against each run's self-recorded totals.

    All functions are pure over the event list; nothing here touches
    the live observability context. *)

val attr : string -> Adc_obs.Sink.event -> Adc_obs.Sink.value option
val attr_int : string -> Adc_obs.Sink.event -> int option
val attr_bool : string -> Adc_obs.Sink.event -> bool option
val attr_string : string -> Adc_obs.Sink.event -> string option

val end_ns : Adc_obs.Sink.event -> int64
(** [start_ns + dur_ns]. *)

(** {2 Span tree} *)

type node = { event : Adc_obs.Sink.event; mutable children : node list }

type tree = {
  roots : node list;                 (** sorted by start time *)
  events : Adc_obs.Sink.event list;
  orphans : int;  (** spans whose parent id is missing from the trace *)
}

val tree_of_events : Adc_obs.Sink.event list -> tree
(** Reconstruct parent/child nesting. A span whose parent id never
    appears (e.g. the parent's line was the truncated tail of a killed
    run) is promoted to a root and counted in [orphans]. *)

val self_ns : node -> int64
(** Duration minus the summed durations of direct children, clamped at
    zero (children that ran in parallel can oversubscribe the parent). *)

(** {2 Per-name table} *)

type name_row = {
  name : string;
  count : int;
  total_ns : int64;
  self_total_ns : int64;
  min_ns : int64;
  max_ns : int64;
}

val by_name : tree -> name_row list
(** One row per span name, sorted by descending total self-time. *)

(** {2 Critical path} *)

type path_step = { depth : int; event : Adc_obs.Sink.event; self : int64 }

val critical_path : tree -> path_step list
(** The latest-ending chain: from the latest-ending root, descend into
    the latest-ending child at every level. In the fork-join traces the
    optimizer emits, this is the dependency chain that set the
    makespan. Empty for an empty trace. *)

(** {2 Totals, memo and reconciliation} *)

type job_totals = {
  jobs : int;          (** [optimize.job] spans *)
  evaluations : int;   (** sum of their [evaluations] attrs *)
  cold : int;
  warm : int;
  trials : int;        (** [montecarlo.trial] spans *)
}

val job_totals : Adc_obs.Sink.event list -> job_totals

type memo_summary = { lookups : int; hits : int }

val memo_summary : Adc_obs.Sink.event list -> memo_summary
(** Counts of [memo.lookup] spans and those tagged [hit: true]. *)

type check = { label : string; expected : int; actual : int }

val check_ok : check -> bool

val reconcile : Adc_obs.Sink.event list -> check list
(** For every [optimize.run] span: compare [distinct_jobs],
    [synthesis_evaluations], [cold_jobs] and [warm_jobs] from the run's
    own attributes against the sums over its child [optimize.job] spans.
    For every [optimize.batch] span (a hybrid [batch], [pareto] or
    [sweep]): compare its [distinct_syntheses] against its child
    [optimize.job] spans. A failing check means the scheduler lost or
    duplicated work. Both hold for a fresh runtime's trace: on a shared
    runtime a cached job emits no span. *)

(** {2 Pool utilization} *)

type domain_util = {
  domain : int;
  busy_ns : int64;
  tasks : int;
  timeline : float array;  (** busy fraction per time bucket, 0..1 *)
}

type utilization = {
  t0_ns : int64;
  t1_ns : int64;
  per_domain : domain_util list;  (** sorted by domain index *)
}

val utilization : ?buckets:int -> Adc_obs.Sink.event list -> utilization option
(** Reconstructed from the [pool.task] spans (one per executed task,
    tagged with its slot); [None] when the trace holds none — e.g. an
    equation-mode run, which never builds a pool. [buckets] (default 60)
    is the timeline resolution. *)

(** {2 Rendering} *)

val fmt_ns : int64 -> string
(** Human duration: ns, us, ms or s with a sensible precision. *)

val render_name_table : name_row list -> string
val render_critical_path : path_step list -> string
val render_utilization : utilization -> string

val render_summary : Trace_reader.load -> string
(** The [adcopt trace summary] payload: header (event/skip/orphan
    counts), per-name table, job/trial totals, memo hit rate, and the
    reconciliation checks. *)
