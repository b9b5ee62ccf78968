(** The process-wide {!Adc_numerics.Tally}s as counters of one metrics
    registry. Its readers — the daemon's scrape and exit table, the
    compute verbs' [--metrics] table — call {!fold} first, so the
    counting hot paths never touch a registry lock. *)

type t

val attach : Adc_obs.Metrics.t -> t
(** Registers one counter per tally under its name, so a first scrape
    lists them all, and takes the tallies' current values as the
    baseline: the registry counts the work done from here on. *)

val fold : t -> unit
(** Adds to each counter what its tally gained since the last {!fold}
    (or {!attach}). Safe to call from any thread. *)
