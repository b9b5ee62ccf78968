module Json = Adc_json.Json
module Client = Adc_serve.Client
module Api = Adc_api

let connect ?(timeout_ms = 1000) addr =
  match String.index_opt addr ':' with
  | Some i ->
    let host = String.sub addr 0 i in
    let port =
      try int_of_string (String.sub addr (i + 1) (String.length addr - i - 1))
      with Failure _ ->
        invalid_arg (Printf.sprintf "Peer.connect: bad address %S" addr)
    in
    Client.connect_tcp ~timeout_ms host port
  | None -> Client.connect_unix ~timeout_ms addr

(* One request, one response line, close regardless. The control verbs
   sent here (a ping without [delay_ms], stats, shutdown) are answered
   at admission by the backend, never queued behind its work, so the
   reply read is bounded by the same budget as the connect even on a
   busy backend: a peer that accepts the connection
   but never answers (e.g. killed mid-drain) is a failure, not a
   hang — the prober and the control fan-outs must never wedge on a
   silent socket. *)
let oneshot ?(timeout_ms = 1000) addr request =
  match connect ~timeout_ms addr with
  | exception _ -> None
  | client ->
    Fun.protect
      ~finally:(fun () -> Client.close client)
      (fun () ->
        match
          Client.set_read_timeout_ms client timeout_ms;
          Client.request client request
        with
        | response -> Some response
        | exception _ -> None)

let base verb =
  [ ("verb", Json.String verb); ("version", Json.Int Api.protocol_version) ]

let ok_result response =
  match (Json.member "ok" response, Json.member "result" response) with
  | Some (Json.Bool true), Some result -> Some result
  | _ -> None

let ping ?timeout_ms addr =
  match oneshot ?timeout_ms addr (Json.Obj (base "ping")) with
  | Some response -> ok_result response <> None
  | None -> false

let stats ?timeout_ms addr =
  Option.bind (oneshot ?timeout_ms addr (Json.Obj (base "stats"))) ok_result

let shutdown ?timeout_ms addr =
  match oneshot ?timeout_ms addr (Json.Obj (base "shutdown")) with
  | Some response -> ok_result response <> None
  | None -> false
