(** The newline-delimited JSON wire protocol.

    One request per line, one JSON object per request; one response
    object per line back. Responses carry the request's [id] verbatim
    (clients pipelining several requests over one connection match
    responses by [id] — completion order is not arrival order) and the
    daemon's protocol {!version}. A request names a [verb] plus the
    same parameters the corresponding CLI subcommand takes, with
    identical defaults — both sides decode through the {e same}
    {!Adc_api} descriptors, so they cannot drift. E.g.:

    {v
    {"id":1,"verb":"optimize","k":12,"mode":"equation","seed":11}
    {"id":1,"ok":true,"version":2,"verb":"optimize","cached":false,"result":{...}}
    v}

    Errors are
    [{"id":..,"ok":false,"version":N,"error":"<kind>","message":".."}];
    see {!error_kind} and docs/SERVER.md for when each is emitted.

    {b Versioning}: a request may carry a [version] field naming the
    protocol generation the client speaks; a mismatch is answered with
    the typed [unsupported_version] error (and the envelope's [version]
    tells the client what the daemon does speak). Requests without the
    field are taken at the current version — the CLI client injects it
    automatically. *)

module Json = Adc_json.Json

val version : int
(** = {!Adc_api.protocol_version}; stamped into every response. *)

type verb =
  | Ping        (** liveness; [delay_ms] holds a worker busy — a
                    load-testing aid used by the backpressure tests.
                    The reply carries the daemon's protocol version. *)
  | Stats       (** daemon counters; handled inline, never queued *)
  | Shutdown    (** begin graceful drain; handled inline *)
  | Dump_trace  (** stream the flight-recorder ring: one
                    [{"stream":"point"}] line per retained span (the
                    span object in trace JSONL schema), then a
                    [{"stream":"end"}] summary. Handled inline, never
                    queued — it must answer during overload, which is
                    exactly when an operator wants it. *)
  | Enumerate   (** candidate configurations and distinct MDAC jobs *)
  | Optimize    (** the topology optimization — [adcopt optimize] *)
  | Sweep       (** resolution sweep + rule chart — [adcopt sweep] *)
  | Synth       (** one MDAC cell, best of N restarts — [adcopt synth] *)
  | Montecarlo  (** offset-sigma yield sweep — [adcopt montecarlo] *)
  | Batch       (** many resolutions, one fused deduplicated synthesis
                    pass — [adcopt batch] *)
  | Pareto      (** FoM Pareto front over the (k, fs) grid —
                    [adcopt pareto]. The protocol's first {e streaming}
                    verb: front points arrive as non-final
                    [{"stream":"point"}] lines while the grid is still
                    synthesizing, then one final [{"stream":"end"}]
                    summary (see {!stream_point_response}) *)
  | Netlist_emit
                (** synthesize one MDAC cell and export its
                    switched-capacitor bench as a canonical SPICE deck
                    ([{"deck": "..."}]) — [adcopt netlist emit] *)
  | Store_put   (** cluster data plane: offer a response-store entry
                    ([key] + [digest] + [payload]); the daemon verifies
                    the digest against the canonical payload bytes
                    before writing, the same corruption rejection the
                    store applies on read. Replies [{"stored":bool}] —
                    [false] (not an error) when the daemon runs without
                    a store. *)
  | Store_get   (** cluster data plane: read a store entry by [key];
                    replies [{"found":bool, ...}] with the entry's
                    digest and payload when found *)
  | Job_put     (** cluster data plane: donate one settled {!Job_key}
                    outcome into the shared synthesis cache; replies
                    [{"imported":bool}] — [false] when the key is
                    already present (first writer wins) or the outcome
                    is incomplete *)
  | Job_get     (** cluster data plane: export one settled job outcome
                    by key; replies [{"found":bool, ...}] *)

val verb_name : verb -> string
val verb_of_name : string -> verb option

type request = {
  id : Json.t;                 (** echoed verbatim; [Null] when absent *)
  verb : verb;
  k : int;                     (** resolution *)
  k_from : int;                (** sweep range ([from]) *)
  k_to : int;                  (** sweep range ([to]) *)
  ks : int list;               (** batch/pareto resolutions ([ks]) *)
  fs_mhz : float;
  fs_list : float list;        (** pareto rate axis, MHz ([fs_list]) *)
  mode : Adc_api.mode;
  seed : int;
  attempts : int;
  trials : int;                (** montecarlo *)
  m : int;                     (** synth stage resolution *)
  bits : int;                  (** synth input accuracy *)
  config : string option;      (** montecarlo configuration, e.g. "4-3-2" *)
  process : string option;     (** process-card text ([process]); [None]
                                   = the built-in 0.25 um card, with
                                   store keys and envelopes unchanged *)
  budget : Adc_synth.Synthesizer.budget option;
      (** explicit synthesis budget override (testing/CI knob) *)
  deadline_ms : int option;    (** admission-to-completion budget *)
  delay_ms : int;              (** ping busy-hold *)
  req_id : string option;      (** client-chosen request id; echoed in
                                   every response line when present *)
  skey : string option;        (** cluster verbs: the addressed store
                                   entry or job key ([key] on the wire) *)
  digest : string option;      (** store-put: md5 hex of the canonical
                                   payload bytes *)
  payload : Json.t option;     (** cluster verbs: the carried object,
                                   verbatim — its canonical bytes are
                                   what the digest signs *)
  json : Json.t;               (** the whole request object as decoded;
                                   what a router forwards *)
}
(** Defaults live on the {!Adc_api} descriptors — there is deliberately
    no default table here to drift from the CLI's. *)

type error_kind =
  | Bad_request          (** malformed JSON, unknown verb, bad field *)
  | Unsupported_version  (** request's [version] is not {!version} *)
  | Overloaded           (** admission queue at [--queue-depth]; retry *)
  | Deadline_exceeded    (** [deadline_ms] elapsed before work started *)
  | Shutting_down        (** daemon draining; no new work accepted *)
  | Backend_unavailable  (** cluster router: every backend that could
                             own the request's keys is down — emitted
                             only by [adcopt route], never by a single
                             daemon *)
  | Internal             (** computation raised; message carries it *)

val error_name : error_kind -> string

val parse_request : Json.t -> (request, error_kind * string * Json.t) result
val parse_request_line :
  string -> (request, error_kind * string * Json.t) result
(** Decodes the line once. [Ok] carries the request, whose [json] field
    holds the decoded object. [Error] carries the typed kind
    ([Bad_request] or [Unsupported_version]), a human-readable message,
    and the request's [id] when one could be recovered ([Null]
    otherwise), so the rejection envelope can echo it. Unknown fields
    are ignored, wrongly-typed ones rejected. *)

val ok_response :
  id:Json.t -> ?req_id:string -> verb:verb -> cached:bool -> Json.t -> Json.t

val error_response :
  id:Json.t -> ?req_id:string -> kind:error_kind -> message:string -> unit ->
  Json.t
(** [?req_id] adds a ["req_id"] member (after ["version"]) echoing the
    client-supplied id. When omitted the envelope is byte-identical to
    previous protocol generations — request ids are additive. *)

(** {1 The multi-line (streaming) envelope}

    A streaming verb (today {!Pareto} and {!Dump_trace}) answers one
    request with
    {e several} response lines, all echoing the request [id]: zero or
    more non-final lines tagged ["stream": "point"], then exactly one
    final line — the ["stream": "end"] summary (which carries the
    [cached] flag) or an error. Single-line verbs carry no ["stream"]
    member at all, so their envelopes are byte-identical to previous
    protocol generations and {!response_is_final} classifies them —
    and every error — as final. Clients must read lines until
    {!response_is_final} says stop; pipelined requests on one
    connection still match lines to requests by [id]. *)

val stream_point_response :
  id:Json.t -> ?req_id:string -> verb:verb -> Json.t -> Json.t
(** One non-final incremental result line. *)

val stream_end_response :
  id:Json.t -> ?req_id:string -> verb:verb -> cached:bool -> Json.t -> Json.t
(** The final summary line of a streaming response. *)

val response_is_final : Json.t -> bool
(** [false] exactly for non-final stream lines: a ["stream"] member
    present with a value other than ["end"]. *)

(** {1 Keys} *)

type keys = {
  store : string option;  (** the response-store key the daemon caches
                              the answer under; [None] = never cached *)
  place : string option;  (** the consistent-hash key a router places
                              the request by; [None] = not ring-routed *)
}

val key_of_request : request -> keys
(** The one key derivation the daemon and the router share, so a
    request always lands on the node that caches it. Total: it never
    raises, since the daemon's workers call it outside their typed-error
    net. For every
    cacheable verb ([optimize], [sweep], [synth], [montecarlo],
    [batch], [pareto], [netlist-emit]) with a well-formed card, [place =
    store], the {!Codec} key of the request. The deliberate
    exceptions:

    - a malformed [process] card gets [store = None] (the daemon
      answers the typed card error rather than a cache hit) and [place]
      its default-card key;
    - [enumerate] is cheap and never stored, yet deterministic per
      cell: a synthetic [place] ([enumerate|k=..|fs=..], plus the card
      digest) and no [store];
    - [store-put], [store-get], [job-put] and [job-get] are placed by
      the [key] field they address, with no [store];
    - [ping], [stats], [shutdown] and [dump-trace] have neither. *)
