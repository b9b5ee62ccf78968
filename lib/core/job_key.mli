(** Canonical identity of one MDAC synthesis outcome.

    The old shared cache keyed job results by a digest of the {e whole
    run context} (spec, candidate set, mode, seed, attempts, budget), so
    a 12-bit request could never reuse a 13-bit request's work even when
    both derived the very same block spec. A [Job_key] instead names
    exactly the determinants of one job's outcome, and nothing else:

    - the {b physics}: {!Spec.stage_fingerprint} — the derived
      {!Adc_mdac.Mdac_stage.requirements} at full float precision plus
      the process corner;
    - the {b search identity}: mode name, the run's base [seed] and
      [attempts] (the per-job stream is [Rng.mix (Rng.mix seed salt)
      attempt] where the salt is a pure function of the job, so the raw
      seed pins it), and the synthesis [budget];
    - the {b warm-start lineage}: the [Job_key]s of the donors whose
      solutions seed this job's search, in preference order — or
      ["cold"] when the schedule provides none. Because a donor's key
      recursively pins {e its} donors, equal keys guarantee equal
      warm-start states all the way up the chain, which is what makes a
      cross-request cache hit bit-identical to computing cold.

    Keys are ordinary strings (stable [compare]/[equal], hashable by
    [Hashtbl]'s polymorphic hash); donor references are embedded as md5
    digests so key length stays bounded along warm-start chains. *)

type t = private string

val compare : t -> t -> int
val equal : t -> t -> bool

val to_string : t -> string
(** The full canonical key text (diagnostics, store keys). *)

val digest : t -> string
(** md5 hex of the key — the form embedded in dependent keys. *)

val make :
  Spec.t ->
  job:Spec.job ->
  mode_name:string ->
  seed:int ->
  attempts:int ->
  budget:Adc_synth.Synthesizer.budget option ->
  donors:t list ->
  t
(** [make spec ~job ~mode_name ~seed ~attempts ~budget ~donors] is the
    key of [job]'s outcome when synthesized under [spec] with the given
    search identity, warm-started from [donors] (most-preferred first;
    [[]] for a cold start). [budget = None] means the optimizer's
    built-in per-difficulty budget. *)
