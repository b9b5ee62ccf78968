(** The one request path: what a {!Protocol.request} computes, with no
    transport. [adcopt serve]'s workers and the CLI's compute verbs
    both call {!run} (the CLI decodes its flags through
    {!Protocol.parse_request}), so a one-shot run and a served request
    at equal parameters compute the same value and payload bytes.

    Every request is validated before any work. A spec
    {!Adc_pipeline.Spec.make} refuses, a job
    {!Adc_pipeline.Spec.make_job} refuses, [trials < 1], an empty [ks]
    or [fs_list] axis, [to < from], and a malformed process card or
    configuration are each answered [Bad_request] with the library's
    message. An exception raised after validation is the daemon's fault
    and answers [Internal]. A [netlist-emit] whose deadline stopped
    every restart has no deck and answers [Deadline_exceeded]. *)

module Json = Adc_json.Json

type runtime = {
  shared : unit -> Adc_pipeline.Optimize.shared;
      (** called only by a request that synthesizes (equation mode
          never does), so a one-shot caller can create it on first use *)
  obs : Adc_obs.t;
  store : Store.t option;
}

(** What a request computed: one constructor per verb. *)
type value =
  | Ping
  | Enumerate of Adc_pipeline.Spec.t
  | Optimize of Adc_pipeline.Optimize.run
  | Batch of Adc_pipeline.Optimize.batch
  | Sweep of {
      runs : Adc_pipeline.Optimize.run list;  (** Fig. 2 *)
      chart : Adc_pipeline.Rules.chart;       (** Fig. 3, from [runs] *)
    }
  | Pareto of Adc_pipeline.Front.front_result
  | Synth of {
      job : Adc_pipeline.Spec.job;
      requirements : Adc_mdac.Mdac_stage.requirements;
      attempts : int;  (** restarts asked for, at least 1 *)
      restarts : Adc_pipeline.Optimize.restarts;
    }
  | Netlist_emit of Adc_pipeline.Deck.export
  | Montecarlo of {
      spec : Adc_pipeline.Spec.t;
      plan : Adc_pipeline.Montecarlo.offset_plan;
      trials : int;
      sweep : (float * Adc_pipeline.Montecarlo.report) list;
    }

type outcome =
  | Stored of Json.t  (** a design-store hit *)
  | Computed of { value : value; payload : Json.t; truncated : bool }
      (** [payload] is [value]'s {!Codec} encoding; a [truncated] result
          (a tripped [cancel]) is never stored *)

type error = Protocol.error_kind * string

val validate : Protocol.request -> (int, error) result
(** The refusal {!run} would answer, computing nothing; otherwise the
    number of work-unit spans ([optimize.job], restart [synth.search],
    [montecarlo.trial]) the computation emits, a progress bar's total. *)

val run :
  runtime ->
  Protocol.request ->
  cancel:Adc_exec.Cancel.t ->
  emit:(Json.t -> unit) ->
  (outcome, error) result
(** A store hit, or validate, compute and store the untruncated payload
    (a failed store write still answers). Total: every exception is a
    typed error. [emit] publishes a streaming verb's non-final lines
    (the [pareto] front points, replayed on a store hit too). The
    inline-only verbs ([stats], [shutdown], [dump-trace]) answer
    [Internal]: reaching here means the daemon misdispatched them. *)
