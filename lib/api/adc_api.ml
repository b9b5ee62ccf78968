module Json = Adc_json.Json
module Synthesizer = Adc_synth.Synthesizer

(* Bump when a request/response shape changes incompatibly. Version 1
   was the implicit (unversioned) PR-4 protocol; version 2 added the
   [version] envelope field, the [batch] verb and the [budget] knob. *)
let protocol_version = 2

type mode = [ `Equation | `Hybrid | `Hybrid_verified ]

let mode_name = function
  | `Equation -> "equation"
  | `Hybrid -> "hybrid"
  | `Hybrid_verified -> "verified"

let mode_of_name = function
  | "equation" -> Some `Equation
  | "hybrid" -> Some `Hybrid
  | "verified" -> Some `Hybrid_verified
  | _ -> None

let mode_choices =
  [ ("equation", `Equation); ("hybrid", `Hybrid); ("verified", `Hybrid_verified) ]

type _ ty =
  | Int : int ty
  | Float : float ty
  | Mode : mode ty
  | Opt_int : int option ty
  | Opt_string : string option ty
  | Int_grid : int list ty
  | Float_list : float list ty
  | Process_file : string option ty

(* "10,11" / "10..13" / mixes like "10..11,13": comma-separated segments,
   each a literal integer or an inclusive [A..B] range (either direction).
   The one grid syntax shared by the CLI converter and the wire decoder,
   so [adcopt pareto -k 10..13] and a served {"ks": "10..13"} agree. *)
let parse_int_grid s =
  let range a b =
    if a <= b then List.init (b - a + 1) (fun i -> a + i)
    else List.init (a - b + 1) (fun i -> a - i)
  in
  let segment seg =
    match String.index_opt seg '.' with
    | None -> (
      match int_of_string_opt seg with
      | Some n -> Ok [ n ]
      | None -> Error (Printf.sprintf "not an integer: %S" seg))
    | Some i -> (
      let j = i + 1 in
      if j >= String.length seg || seg.[j] <> '.' then
        Error (Printf.sprintf "malformed range: %S (expected A..B)" seg)
      else
        let lo = String.sub seg 0 i in
        let hi = String.sub seg (j + 1) (String.length seg - j - 1) in
        match (int_of_string_opt lo, int_of_string_opt hi) with
        | Some a, Some b -> Ok (range a b)
        | _ -> Error (Printf.sprintf "malformed range: %S (expected A..B)" seg))
  in
  if String.trim s = "" then Error "empty grid"
  else
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.fold_left
         (fun acc seg ->
           match (acc, segment seg) with
           | Error _, _ -> acc
           | _, (Error _ as e) -> e
           | Ok xs, Ok ys -> Ok (xs @ ys))
         (Ok [])

type 'a param = {
  ty : 'a ty;
  key : string;
  flags : string list;
  docv : string;
  doc : string;
  default : 'a;
}

(* ------------------------------------------------------------------ *)
(* the parameter table — the single place a verb parameter's name,
   wire field, default and documentation are defined *)

let k =
  { ty = Int; key = "k"; flags = [ "k"; "resolution" ]; docv = "BITS";
    doc = "Target resolution in bits (10-13 covers the paper's sweep).";
    default = 13 }

let k_from =
  { ty = Int; key = "from"; flags = [ "from" ]; docv = "BITS";
    doc = "Lowest resolution."; default = 10 }

let k_to =
  { ty = Int; key = "to"; flags = [ "to" ]; docv = "BITS";
    doc = "Highest resolution."; default = 13 }

let fs_mhz =
  { ty = Float; key = "fs_mhz"; flags = [ "fs" ]; docv = "MHZ";
    doc = "Sampling rate in MHz."; default = 40.0 }

let mode =
  { ty = Mode; key = "mode"; flags = [ "mode" ]; docv = "MODE";
    doc =
      "Evaluation mode: $(b,equation) (fast closed forms), $(b,hybrid) \
       (cell synthesis with the simulation-backed evaluator), or \
       $(b,verified) (hybrid plus transient settling checks).";
    default = `Equation }

let seed =
  { ty = Int; key = "seed"; flags = [ "seed" ]; docv = "N";
    doc = "Random seed for the synthesis searches."; default = 11 }

let attempts =
  { ty = Int; key = "attempts"; flags = [ "attempts" ]; docv = "N";
    doc = "Independent searches per distinct MDAC job (best kept).";
    default = 3 }

let trials =
  { ty = Int; key = "trials"; flags = [ "trials" ]; docv = "N";
    doc = "Monte-Carlo trials per point."; default = 50 }

let m =
  { ty = Int; key = "m"; flags = [ "m" ]; docv = "BITS";
    doc = "Stage resolution (2-4)."; default = 3 }

let bits =
  { ty = Int; key = "bits"; flags = [ "bits" ]; docv = "BITS";
    doc = "Accuracy at the stage input."; default = 12 }

let config =
  { ty = Opt_string; key = "config"; flags = [ "config" ]; docv = "M1-M2-...";
    doc = "Stage configuration, e.g. 4-3-2."; default = None }

let ks =
  { ty = Int_grid; key = "ks"; flags = [ "k"; "resolutions" ];
    docv = "BITS|A..B,...";
    doc =
      "Target resolutions to optimize as one fused batch (each gets its \
       own full result): comma-separated integers and/or inclusive \
       $(b,A..B) ranges, e.g. $(b,10..13) or $(b,10,12..13).";
    default = [ 10; 11; 12; 13 ] }

let fs_list =
  { ty = Float_list; key = "fs_list"; flags = [ "fs" ]; docv = "MHZ,...";
    doc = "Comma-separated sampling rates in MHz (the grid's rate axis).";
    default = [ 40.0 ] }

let process_card =
  { ty = Process_file; key = "process"; flags = [ "process" ]; docv = "FILE";
    doc =
      "Process card: a SPICE $(b,.param)/$(b,.model) deck (see \
       share/processes/ and docs/NETLIST.md) selecting the technology \
       the run is optimized against. The CLI flag names a card file; \
       the wire field carries the card text itself, so clustered \
       daemons need no shared filesystem. Absent means the built-in \
       0.25 um 3.3 V card, byte-identically to builds before this flag \
       existed.";
    default = None }

(* wire-only parameters: no CLI flag ([flags = []]) *)

let deadline_ms =
  { ty = Opt_int; key = "deadline_ms"; flags = []; docv = "MS";
    doc = "Per-request deadline budget, milliseconds, from admission.";
    default = None }

let delay_ms =
  { ty = Int; key = "delay_ms"; flags = []; docv = "MS";
    doc = "ping only: busy-hold a worker this long (load-test aid).";
    default = 0 }

let version =
  { ty = Opt_int; key = "version"; flags = []; docv = "N";
    doc = "Protocol version the client speaks; omit to mean current.";
    default = None }

let req_id =
  { ty = Opt_string; key = "req_id"; flags = []; docv = "ID";
    doc = "Client-chosen request id, echoed in the response envelope \
           and stamped on the request's span and log lines.";
    default = None }

(* ------------------------------------------------------------------ *)
(* wire decoding *)

exception Bad_field of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_field s)) fmt

let of_json : type a. Json.t -> a param -> a =
 fun obj p ->
  match (p.ty, Json.member p.key obj) with
  | _, (None | Some Json.Null) -> p.default
  | Int, Some (Json.Int n) -> n
  | Int, Some _ -> bad "field %S must be an integer" p.key
  | Float, Some (Json.Float f) -> f
  | Float, Some (Json.Int n) -> float_of_int n
  | Float, Some _ -> bad "field %S must be a number" p.key
  | Mode, Some (Json.String name) -> (
    match mode_of_name name with
    | Some m -> m
    | None -> bad "unknown mode %S (equation|hybrid|verified)" name)
  | Mode, Some _ -> bad "field %S must be a string" p.key
  | Opt_int, Some (Json.Int n) -> Some n
  | Opt_int, Some _ -> bad "field %S must be an integer" p.key
  | Opt_string, Some (Json.String s) -> Some s
  | Opt_string, Some _ -> bad "field %S must be a string" p.key
  | Int_grid, Some (Json.List items) ->
    List.map
      (function
        | Json.Int n -> n
        | _ -> bad "field %S must be a list of integers" p.key)
      items
  | Int_grid, Some (Json.String s) -> (
    (* the CLI's grid syntax is honoured on the wire too *)
    match parse_int_grid s with
    | Ok ns -> ns
    | Error e -> bad "field %S: %s" p.key e)
  | Int_grid, Some _ ->
    bad "field %S must be a list of integers or a grid string" p.key
  | Float_list, Some (Json.List items) ->
    List.map
      (function
        | Json.Float f -> f
        | Json.Int n -> float_of_int n
        | _ -> bad "field %S must be a list of numbers" p.key)
      items
  | Float_list, Some _ -> bad "field %S must be a list of numbers" p.key
  | Process_file, Some (Json.String s) -> Some s
  | Process_file, Some _ -> bad "field %S must be a string (process-card text)" p.key

(* a [budget] override rides along as a nested object; all three fields
   are required so a typo'd partial budget fails loudly instead of
   silently mixing with defaults *)
let budget_of_json obj =
  match Json.member "budget" obj with
  | None | Some Json.Null -> None
  | Some (Json.Obj _ as b) ->
    let geti name =
      match Json.member name b with
      | Some (Json.Int n) -> n
      | _ -> bad "budget field %S must be an integer" name
    in
    let getf name =
      match Json.member name b with
      | Some (Json.Float f) -> f
      | Some (Json.Int n) -> float_of_int n
      | _ -> bad "budget field %S must be a number" name
    in
    Some
      {
        Synthesizer.sa_iterations = geti "sa_iterations";
        pattern_evals = geti "pattern_evals";
        space_factor = getf "space_factor";
      }
  | Some _ -> bad "field \"budget\" must be an object"
