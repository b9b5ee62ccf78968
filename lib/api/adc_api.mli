(** The single typed definition of the request/parameter surface.

    Every verb parameter — its CLI flag names, its wire (JSON) field
    name, its default and its documentation — is defined exactly once
    here. [bin/adcopt.ml] derives its Cmdliner terms from these
    descriptors and [Adc_serve.Protocol] derives its JSON decoding from
    them, so the CLI and the daemon {e cannot} drift: a bare
    [adcopt optimize] and a [{"verb":"optimize"}] request compute the
    same thing by construction, which is the byte-identity contract's
    foundation (see docs/SERVER.md).

    The module depends only on the JSON codec and the synthesizer's
    budget type — no Cmdliner, no sockets — so both front ends can link
    it without dragging in each other's dependencies. *)

val protocol_version : int
(** The wire-protocol generation this build speaks. Carried in every
    serve response envelope and in the [ping] payload; requests may
    carry a [version] field, and a mismatch is answered with the typed
    [unsupported_version] error instead of a parse error. *)

type mode = [ `Equation | `Hybrid | `Hybrid_verified ]

val mode_name : mode -> string
(** ["equation"] / ["hybrid"] / ["verified"] — the one spelling shared
    by the CLI enum, the wire protocol and the store keys. *)

val mode_of_name : string -> mode option

val mode_choices : (string * mode) list
(** The [(name, value)] pairs for a Cmdliner [enum]. *)

(** {1 Parameter descriptors}

    A ['a param] packages a parameter's type witness, wire field name
    ([key]), CLI flag spellings ([flags] — empty for wire-only
    parameters), metavariable, man-page documentation and default.
    Decode one wire field with {!of_json}; build one CLI term by
    matching on [ty] (see [term_of] in [bin/adcopt.ml]). *)

type _ ty =
  | Int : int ty
  | Float : float ty
  | Mode : mode ty
  | Opt_int : int option ty
  | Opt_string : string option ty
  | Int_grid : int list ty
      (** an integer list that also parses from the shared grid syntax
          ({!parse_int_grid}) — the wire accepts a JSON list of
          integers {e or} a grid string *)
  | Float_list : float list ty
  | Process_file : string option ty
      (** a process card: the CLI flag carries a file path (the binary
          reads it and forwards the text), the wire field carries the
          card text itself; [None] selects the built-in card *)

type 'a param = {
  ty : 'a ty;
  key : string;          (** wire (JSON) field name *)
  flags : string list;   (** CLI flag spellings; [[]] = wire-only *)
  docv : string;
  doc : string;          (** Cmdliner man-page markup allowed *)
  default : 'a;
}

val k : int param
val k_from : int param
val k_to : int param
val fs_mhz : float param
val mode : mode param
val seed : int param
val attempts : int param
val trials : int param
val m : int param
val bits : int param
val config : string option param
val ks : int list param
(** The batch and pareto verbs' resolution axis: one optimization per
    resolution, fused into a single deduplicated synthesis pass.
    Accepts the grid syntax ([10..13], [10,12..13]) on the CLI and the
    wire alike. *)

val fs_list : float list param
(** The pareto verb's sampling-rate axis, MHz. *)

val process_card : string option param
(** The pluggable technology card ([--process FILE] / wire field
    [process]). CLI value: path of a SPICE card file under e.g.
    [share/processes/]; wire value: the card {e text} (clients inline
    the file), so cluster fan-out needs no shared filesystem. Absent
    resolves to {!Adc_circuit.Process.c025} byte-identically to the
    pre-flag behavior — store keys, envelopes and results are unchanged
    when omitted. Parsing/resolution lives in [Adc_spice.resolve_card];
    this table only names and transports the field. *)

val parse_int_grid : string -> (int list, string) result
(** ["10,11"], ["10..13"], ["10..11,13"]: comma-separated integers
    and/or inclusive [A..B] ranges (either direction), expanded in
    written order without deduplication. The one grid syntax shared by
    the CLI converter and the wire decoder. *)

val deadline_ms : int option param
val delay_ms : int param
val version : int option param

val req_id : string option param
(** Wire-only: a client-chosen request id. When present it is echoed as
    the [req_id] member of every response line for the request; the
    daemon always stamps one (client-supplied or generated) on the
    request's [serve.request] span and log lines. *)

(** {1 Wire decoding} *)

exception Bad_field of string
(** Raised by {!of_json}/{!budget_of_json} on a type-mismatched field;
    the daemon maps it to a [bad_request] error response. *)

val of_json : Adc_json.Json.t -> 'a param -> 'a
(** [of_json obj p] reads [p.key] from the request object: absent or
    [null] yields [p.default]; a value of the wrong shape raises
    {!Bad_field}. Integers widen to floats where the parameter is a
    float. *)

val budget_of_json : Adc_json.Json.t -> Adc_synth.Synthesizer.budget option
(** The optional [budget] object ([sa_iterations], [pattern_evals],
    [space_factor] — all three required when present): an explicit
    per-attempt synthesis budget override, primarily a testing/CI knob
    for fast hybrid requests. No CLI counterpart; requests that omit it
    (and every CLI run) use the optimizer's built-in budgets. *)
