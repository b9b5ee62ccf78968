module Json = Adc_json.Json
module Api = Adc_api

let version = Api.protocol_version

type verb =
  | Ping
  | Stats
  | Shutdown
  | Dump_trace
  | Enumerate
  | Optimize
  | Sweep
  | Synth
  | Montecarlo
  | Batch
  | Pareto
  | Netlist_emit

let verb_name = function
  | Ping -> "ping"
  | Stats -> "stats"
  | Shutdown -> "shutdown"
  | Dump_trace -> "dump-trace"
  | Enumerate -> "enumerate"
  | Optimize -> "optimize"
  | Sweep -> "sweep"
  | Synth -> "synth"
  | Montecarlo -> "montecarlo"
  | Batch -> "batch"
  | Pareto -> "pareto"
  | Netlist_emit -> "netlist-emit"

let verb_of_name = function
  | "ping" -> Some Ping
  | "stats" -> Some Stats
  | "shutdown" -> Some Shutdown
  | "dump-trace" -> Some Dump_trace
  | "enumerate" -> Some Enumerate
  | "optimize" -> Some Optimize
  | "sweep" -> Some Sweep
  | "synth" -> Some Synth
  | "montecarlo" -> Some Montecarlo
  | "batch" -> Some Batch
  | "pareto" -> Some Pareto
  | "netlist-emit" -> Some Netlist_emit
  | _ -> None

type request = {
  id : Json.t;
  verb : verb;
  k : int;
  k_from : int;
  k_to : int;
  ks : int list;
  fs_mhz : float;
  fs_list : float list;
  mode : Api.mode;
  seed : int;
  attempts : int;
  trials : int;
  m : int;
  bits : int;
  config : string option;
  process : string option;
  budget : Adc_synth.Synthesizer.budget option;
  deadline_ms : int option;
  delay_ms : int;
  req_id : string option;
  json : Json.t;
}

type error_kind =
  | Bad_request
  | Unsupported_version
  | Overloaded
  | Deadline_exceeded
  | Shutting_down
  | Backend_unavailable
  | Internal

let error_name = function
  | Bad_request -> "bad_request"
  | Unsupported_version -> "unsupported_version"
  | Overloaded -> "overloaded"
  | Deadline_exceeded -> "deadline_exceeded"
  | Shutting_down -> "shutting_down"
  | Backend_unavailable -> "backend_unavailable"
  | Internal -> "internal"

let error_kinds =
  [
    Bad_request;
    Unsupported_version;
    Overloaded;
    Deadline_exceeded;
    Shutting_down;
    Backend_unavailable;
    Internal;
  ]

let error_kind_of_name name =
  Option.value ~default:Internal
    (List.find_opt (fun kind -> error_name kind = name) error_kinds)

(* Every parameter decodes through its [Adc_api] descriptor — the same
   record the CLI derives its flags from — so a request naming only its
   verb computes exactly what the bare subcommand computes, with no
   default table of our own to drift. *)
let parse_request json =
  let fail kind message =
    Error (kind, message, Option.value (Json.member "id" json) ~default:Json.Null)
  in
  match json with
  | Json.Obj _ -> (
    (* version gate first: an incompatible client gets the typed
       [unsupported_version] answer even if the rest of its request
       would not decode under this build's schema *)
    match Api.of_json json Api.version with
    | exception Api.Bad_field msg -> fail Bad_request msg
    | Some v when v <> version ->
      fail Unsupported_version
        (Printf.sprintf
           "unsupported protocol version %d (this daemon speaks %d)" v version)
    | _ -> (
      try
        let id = Option.value (Json.member "id" json) ~default:Json.Null in
        let verb =
          match Json.member "verb" json with
          | None | Some Json.Null ->
            raise (Api.Bad_field "missing required field \"verb\"")
          | Some (Json.String name) -> (
            match verb_of_name name with
            | Some v -> v
            | None ->
              raise (Api.Bad_field (Printf.sprintf "unknown verb %S" name)))
          | Some _ -> raise (Api.Bad_field "field \"verb\" must be a string")
        in
        Ok
          {
            id;
            verb;
            k = Api.of_json json Api.k;
            k_from = Api.of_json json Api.k_from;
            k_to = Api.of_json json Api.k_to;
            ks = Api.of_json json Api.ks;
            fs_mhz = Api.of_json json Api.fs_mhz;
            fs_list = Api.of_json json Api.fs_list;
            mode = Api.of_json json Api.mode;
            seed = Api.of_json json Api.seed;
            attempts = Api.of_json json Api.attempts;
            trials = Api.of_json json Api.trials;
            m = Api.of_json json Api.m;
            bits = Api.of_json json Api.bits;
            config = Api.of_json json Api.config;
            process = Api.of_json json Api.process_card;
            budget = Api.budget_of_json json;
            deadline_ms = Api.of_json json Api.deadline_ms;
            delay_ms = Api.of_json json Api.delay_ms;
            req_id = Api.of_json json Api.req_id;
            json;
          }
      with Api.Bad_field msg -> fail Bad_request msg))
  | _ -> fail Bad_request "request must be a JSON object"

let parse_request_line line =
  match Json.parse line with
  | exception Json.Parse_error msg ->
    Error (Bad_request, Printf.sprintf "malformed JSON: %s" msg, Json.Null)
  | json -> parse_request json

(* ------------------------------------------------------------------ *)
(* the request's keys: where the store caches it, where the ring puts it *)

type keys = { store : string option; place : string option }

let key_of_request req =
  let budget = req.budget in
  (* [Ok None] for the absent or built-in card, [Ok (Some digest)] for a
     foreign one; a malformed card keys as the default card for
     placement and never for the store *)
  let card =
    match req.process with
    | None -> Ok None
    | Some text -> (
      match Adc_spice.parse_process text with
      | Error _ -> Error ()
      | Ok p -> Ok (Adc_spice.nondefault_digest p))
  in
  let process = Result.value card ~default:None in
  let cached key =
    { store = (if Result.is_ok card then Some key else None); place = Some key }
  in
  match req.verb with
  | Optimize ->
    cached
      (Codec.key_optimize ?budget ?process ~k:req.k ~fs_mhz:req.fs_mhz
         ~mode:req.mode ~seed:req.seed ~attempts:req.attempts ())
  | Sweep ->
    cached
      (Codec.key_sweep ?budget ?process ~k_from:req.k_from ~k_to:req.k_to
         ~fs_mhz:req.fs_mhz ~mode:req.mode ~seed:req.seed
         ~attempts:req.attempts ())
  | Synth ->
    cached
      (Codec.key_synth ?budget ?process ~m:req.m ~bits:req.bits
         ~fs_mhz:req.fs_mhz ~seed:req.seed ~attempts:req.attempts ())
  | Netlist_emit ->
    cached
      (Codec.key_netlist ?process ~m:req.m ~bits:req.bits ~fs_mhz:req.fs_mhz
         ~seed:req.seed ~attempts:req.attempts ())
  | Batch ->
    cached
      (Codec.key_batch ?budget ?process ~ks:req.ks ~fs_mhz:req.fs_mhz
         ~mode:req.mode ~seed:req.seed ~attempts:req.attempts ())
  | Pareto ->
    cached
      (Codec.key_pareto ?budget ?process ~ks:req.ks ~fs_list:req.fs_list
         ~mode:req.mode ~seed:req.seed ~attempts:req.attempts ())
  | Montecarlo ->
    (* the default configuration is itself deterministic (the equation
       optimum), so a config-less request is cacheable under a canonical
       marker *)
    cached
      (Codec.key_montecarlo ?process ~k:req.k ~fs_mhz:req.fs_mhz
         ~config:(Option.value req.config ~default:"(optimum)")
         ~trials:req.trials ~seed:req.seed ())
  | Enumerate ->
    {
      store = None;
      place =
        Some
          (Printf.sprintf "enumerate|k=%d|fs=%.17g%s" req.k req.fs_mhz
             (match process with None -> "" | Some d -> "|process=" ^ d));
    }
  | Ping | Stats | Shutdown | Dump_trace -> { store = None; place = None }

(* [req_id] is echoed only when the client supplied one: an absent field
   keeps every pre-existing envelope byte-identical (protocol gate) *)
let req_id_member req_id =
  match req_id with
  | None -> []
  | Some r -> [ ("req_id", Json.String r) ]

let ok_response ~id ?req_id ~verb ~cached result =
  Json.Obj
    ([ ("id", id); ("ok", Json.Bool true); ("version", Json.Int version) ]
    @ req_id_member req_id
    @ [
        ("verb", Json.String (verb_name verb));
        ("cached", Json.Bool cached);
        ("result", result);
      ])

let error_response ~id ?req_id ~kind ~message () =
  Json.Obj
    ([ ("id", id); ("ok", Json.Bool false); ("version", Json.Int version) ]
    @ req_id_member req_id
    @ [
        ("error", Json.String (error_name kind));
        ("message", Json.String message);
      ])

(* ------------------------------------------------------------------ *)
(* the multi-line (streaming) envelope

   A streaming verb answers with zero or more non-final lines tagged
   ["stream": "point"] followed by exactly one final line: either the
   ["stream": "end"] summary or an error. Single-line verbs are
   untouched — their envelopes carry no ["stream"] member at all, so
   every pre-existing response remains byte-identical and
   [response_is_final] classifies it as final. *)

let stream_point_response ~id ?req_id ~verb result =
  Json.Obj
    ([ ("id", id); ("ok", Json.Bool true); ("version", Json.Int version) ]
    @ req_id_member req_id
    @ [
        ("verb", Json.String (verb_name verb));
        ("stream", Json.String "point");
        ("result", result);
      ])

let stream_end_response ~id ?req_id ~verb ~cached result =
  Json.Obj
    ([ ("id", id); ("ok", Json.Bool true); ("version", Json.Int version) ]
    @ req_id_member req_id
    @ [
        ("verb", Json.String (verb_name verb));
        ("stream", Json.String "end");
        ("cached", Json.Bool cached);
        ("result", result);
      ])

let response_is_final json =
  match Json.member "stream" json with
  | None | Some Json.Null -> true
  | Some (Json.String "end") -> true
  | Some _ -> false
