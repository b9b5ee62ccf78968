(** Deterministic JSON payloads and store keys.

    Every payload here is a pure function of the request parameters —
    wall-clock time and domain counts are deliberately excluded — so the
    serve daemon, the design store and the one-shot CLI all agree
    byte-for-byte on the result of a given request. The CI smoke test
    diffs [adcopt optimize --json] against a served [optimize] response
    with [cmp]; keep it that way. *)

val schema_version : int
(** Stamped into every store key; bump on any payload or key shape
    change so stale stores miss instead of serving the old layout. *)

val mode_name : [ `Equation | `Hybrid | `Hybrid_verified ] -> string
(** = {!Adc_api.mode_name} — the one spelling of the mode names. *)

val mode_of_name : string -> [ `Equation | `Hybrid | `Hybrid_verified ] option

(** {1 Payloads} *)

val optimize_payload : Adc_pipeline.Optimize.run -> Adc_json.Json.t
(** The full ranking: per-candidate stage tables (with synthesized-cell
    summaries in hybrid modes), the distinct-job work list and the
    synthesis counters. Excludes [wall_time_s] and [domains]. *)

val chart_payload : truncated:bool -> Adc_pipeline.Rules.chart -> Adc_json.Json.t
(** The Fig. 3 decision chart: optimum rows, derived rules (including
    the separate [monotone_non_increasing] and [all_valid] booleans),
    and a [truncated] flag for sweeps cut short by a deadline. *)

val pareto_point_payload : Adc_pipeline.Front.point -> Adc_json.Json.t
(** One (k, fs) grid cell: its FoM, its front membership, and — under
    [optimize] — the cell's {e full} {!optimize_payload}, byte-identical
    to the one-shot [adcopt optimize] result at the same parameters
    (CI [cmp]s them). These are the ["stream": "point"] lines of the
    pareto verb and the NDJSON lines of [adcopt pareto --json]. *)

val pareto_payload : Adc_pipeline.Front.front_result -> Adc_json.Json.t
(** The final summary: the deduplicated grid axes, every cell's point
    payload under [grid] (front and dominated alike — a store-warm
    replay re-emits point lines from it), [front] as (k, fs_mhz)
    references into the grid, and the fused-schedule counters. *)

val synth_payload :
  m:int -> bits:int -> fs_mhz:float -> seed:int -> attempts:int ->
  evaluations:int -> truncated:bool ->
  Adc_synth.Synthesizer.solution option -> Adc_json.Json.t
(** Best-of-N restart result for one MDAC job ([None] = all attempts
    failed; the [metrics] list rides along as an object). *)

val montecarlo_payload :
  k:int -> fs_mhz:float -> config:Adc_pipeline.Config.t -> trials:int ->
  seed:int -> budget:float ->
  (float * Adc_pipeline.Montecarlo.report) list -> Adc_json.Json.t
(** The offset-sigma yield sweep plus the redundancy budget it probes. *)

val batch_payload : Adc_pipeline.Optimize.batch -> Adc_json.Json.t
(** Per-spec [runs] (each byte-identical to the one-shot [optimize]
    payload for that spec — CI [cmp]s them) plus the fused-schedule
    counters: [job_occurrences] over all specs vs [distinct_syntheses]
    actually performed. *)

(** {2 Summaries over encoded optimize payloads}

    The builders behind {!batch_payload}, {!pareto_point_payload} and
    {!pareto_payload}, taking each cell's already-encoded
    {!optimize_payload}: a cluster router reassembling the payloads its
    backends answered writes the single daemon's bytes through them. *)

val batch_json :
  ks:int list -> runs:Adc_json.Json.t list -> job_occurrences:int ->
  distinct_syntheses:int -> Adc_json.Json.t
(** [runs] in [ks] order, one encoded optimize payload per entry; the
    summary is [truncated] iff one of them is. *)

type pareto_cell = {
  cell_k : int;
  cell_fs_mhz : float;         (** the caller's MHz figure *)
  cell_on_front : bool;
  cell_fom : Adc_pipeline.Fom.t;
  cell_optimize : Adc_json.Json.t;  (** the encoded optimize payload *)
}

val pareto_json :
  pareto_cell list -> job_occurrences:int -> distinct_syntheses:int ->
  Adc_json.Json.t
(** The summary over the grid cells in traversal order; [truncated] iff
    one cell's optimize payload is. *)

(** {2 Reading encoded payloads back} *)

val pareto_grid : Adc_json.Json.t -> (bool * Adc_json.Json.t) list
(** A pareto summary's grid cells with their front flags, in traversal
    order ([[]] for a payload without a grid). *)

val pareto_front_points : Adc_json.Json.t -> Adc_json.Json.t list
(** The front cells of a pareto summary, in traversal order: the point
    lines its cold run streamed, which a store-warm replay re-emits. *)

val optimize_p_total : Adc_json.Json.t -> float option
(** An optimize payload's optimum total power, W. *)

val enumerate_payload : Adc_pipeline.Spec.t -> Adc_json.Json.t
(** Candidate configurations and the de-duplicated MDAC job list. *)

(** {1 Store keys}

    Canonical strings built from explicit request fields only (never
    from marshalled in-memory values), so a restarted daemon — or a
    sibling process pointed at the same [--store] — computes identical
    keys. The store hashes these to filenames; the full string is kept
    in the entry header to make hash collisions harmless.

    [?budget] appends an explicit-budget suffix only when present, so
    default-budget keys are byte-identical to the pre-budget layout (no
    schema bump). [?process] follows the same contract for the
    pluggable technology card: it carries the card's content digest
    ({!Adc_spice.process_digest} hex) and should be passed only when
    the card differs from the built-in one (i.e.
    [Adc_spice.nondefault_digest]), so default-card keys are unchanged
    while every foreign card namespaces its results apart — the
    per-process cache, store and placement isolation. *)

val key_optimize :
  ?budget:Adc_synth.Synthesizer.budget -> ?process:string -> k:int ->
  fs_mhz:float -> mode:[ `Equation | `Hybrid | `Hybrid_verified ] ->
  seed:int -> attempts:int -> unit -> string

val key_sweep :
  ?budget:Adc_synth.Synthesizer.budget -> ?process:string -> k_from:int ->
  k_to:int -> fs_mhz:float -> mode:[ `Equation | `Hybrid | `Hybrid_verified ] ->
  seed:int -> attempts:int -> unit -> string

val key_synth :
  ?budget:Adc_synth.Synthesizer.budget -> ?process:string -> m:int ->
  bits:int -> fs_mhz:float -> seed:int -> attempts:int -> unit -> string

val key_montecarlo :
  ?process:string -> k:int -> fs_mhz:float -> config:string -> trials:int ->
  seed:int -> unit -> string

val key_batch :
  ?budget:Adc_synth.Synthesizer.budget -> ?process:string -> ks:int list ->
  fs_mhz:float -> mode:[ `Equation | `Hybrid | `Hybrid_verified ] ->
  seed:int -> attempts:int -> unit -> string

val key_pareto :
  ?budget:Adc_synth.Synthesizer.budget -> ?process:string -> ks:int list ->
  fs_list:float list -> mode:[ `Equation | `Hybrid | `Hybrid_verified ] ->
  seed:int -> attempts:int -> unit -> string
(** Keyed on the axes as requested (before grid deduplication), like
    {!key_batch}: a reordered axis is a cache miss, never a wrong
    hit. *)

val key_netlist :
  ?process:string -> m:int -> bits:int -> fs_mhz:float -> seed:int ->
  attempts:int -> unit -> string
(** The [netlist-emit] verb's store key: the same identity as
    {!key_synth} (the deck is a rendering of the synthesized cell) under
    its own verb tag. *)

val netlist_payload : deck:string -> Adc_json.Json.t
(** [{"deck": <canonical SPICE text>}]. *)
