module Json = Adc_json.Json
module Metrics = Adc_obs.Metrics
module Log = Adc_obs.Log
module Trace_export = Adc_report.Trace_export

type conn = {
  fd : Unix.file_descr;
  oc : out_channel;
  wmutex : Mutex.t;
  mutable alive : bool;
}

type error = Bad_host of string | Unknown_host of string | Bind of string * Unix.error

exception Listen_failed of error

let error_message = function
  | Bad_host h -> Printf.sprintf "%S: not a host name or address" h
  | Unknown_host h -> Printf.sprintf "%s: unknown host" h
  | Bind (addr, e) -> Printf.sprintf "%s: %s" addr (Unix.error_message e)

type t = {
  socket_path : string option;
  listeners : Unix.file_descr list;
  tcp_port : int option;
  ops_listener : Unix.file_descr option;
  ops_port : int option;
  stop : bool Atomic.t;
  ops_stop : bool Atomic.t;
  mutable conns : conn list;
  cmutex : Mutex.t;
}

(* ------------------------------------------------------------------ *)
(* connections *)

let send conn json =
  Mutex.protect conn.wmutex (fun () ->
      try
        if conn.alive then begin
          output_string conn.oc (Json.to_string json);
          output_char conn.oc '\n';
          flush conn.oc
        end
      with Sys_error _ | Unix.Unix_error _ -> conn.alive <- false)

let close_conn t conn =
  Mutex.protect conn.wmutex (fun () -> conn.alive <- false);
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  Mutex.protect t.cmutex (fun () ->
      t.conns <- List.filter (fun c -> c != conn) t.conns)

let reader t ~handle_line conn =
  let ic = Unix.in_channel_of_descr conn.fd in
  (try
     while conn.alive do
       let line = input_line ic in
       if String.trim line <> "" then handle_line conn line
     done
   with End_of_file | Sys_error _ | Unix.Unix_error _ -> ());
  close_conn t conn

let accept_conn t ~handle_line listen_fd =
  match Unix.accept ~cloexec:true listen_fd with
  | exception Unix.Unix_error _ -> ()
  | fd, _ ->
    let conn =
      { fd; oc = Unix.out_channel_of_descr fd; wmutex = Mutex.create (); alive = true }
    in
    Mutex.protect t.cmutex (fun () -> t.conns <- conn :: t.conns);
    ignore (Thread.create (reader t ~handle_line) conn)

(* ------------------------------------------------------------------ *)
(* listeners *)

(* RFC 1123 host names: dot-separated labels of letters, digits and
   inner hyphens. Anything else is refused before it reaches a resolver,
   which would otherwise raise or query the network for it. *)
let valid_host_name host =
  let label l =
    let n = String.length l in
    n >= 1 && n <= 63 && l.[0] <> '-' && l.[n - 1] <> '-'
    && String.for_all
         (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' -> true | _ -> false)
         l
  in
  String.length host <= 253 && List.for_all label (String.split_on_char '.' host)

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | addr -> Ok addr
  | exception Failure _ ->
    if not (valid_host_name host) then Error (Bad_host host)
    else (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
        Error (Unknown_host host)
      | h -> Ok h.Unix.h_addr_list.(0))

(* a fresh socket bound and listening at [addr], closed again if any
   step fails *)
let listen_at ~label domain addr =
  match Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> raise (Listen_failed (Bind (label, e)))
  | fd -> (
    try
      if domain = Unix.PF_INET then Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd addr;
      Unix.listen fd 16;
      fd
    with Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise (Listen_failed (Bind (label, e))))

let listen_unix path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  listen_at ~label:path Unix.PF_UNIX (Unix.ADDR_UNIX path)

let listen_tcp (host, port) =
  match resolve_host host with
  | Error e -> raise (Listen_failed e)
  | Ok addr ->
    listen_at ~label:(Printf.sprintf "%s:%d" host port) Unix.PF_INET
      (Unix.ADDR_INET (addr, port))

let port_of fd =
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, p) -> p
  | Unix.ADDR_UNIX _ -> 0

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()
let unlink_quietly path = try Unix.unlink path with Unix.Unix_error _ -> ()

let create ?socket_path ?tcp ?ops () =
  let opened = ref [] in
  let bind f x =
    let fd = f x in
    opened := fd :: !opened;
    fd
  in
  match
    let unix_fd = Option.map (bind listen_unix) socket_path in
    let tcp_fd = Option.map (bind listen_tcp) tcp in
    let ops_fd = Option.map (bind listen_tcp) ops in
    (unix_fd, tcp_fd, ops_fd)
  with
  | exception (Listen_failed _ as e) ->
    List.iter close_quietly !opened;
    (* any earlier file at the path went before the bind, so a file
       there now is ours *)
    Option.iter unlink_quietly socket_path;
    raise e
  | unix_fd, tcp_fd, ops_fd ->
    {
      socket_path;
      listeners = List.filter_map Fun.id [ unix_fd; tcp_fd ];
      tcp_port = Option.map port_of tcp_fd;
      ops_listener = ops_fd;
      ops_port = Option.map port_of ops_fd;
      stop = Atomic.make false;
      ops_stop = Atomic.make false;
      conns = [];
      cmutex = Mutex.create ();
    }

let tcp_port t = t.tcp_port
let ops_port t = t.ops_port
let stop t = Atomic.set t.stop true
let stopping t = Atomic.get t.stop

(* ------------------------------------------------------------------ *)
(* the ops plane: /metrics, /healthz, /readyz over plain HTTP *)

let ops_handler t ~metrics ~before_scrape ~not_ready ~path =
  match path with
  | "/metrics" ->
    if Metrics.enabled metrics then begin
      before_scrape ();
      (* the one shared exposition path: the scrape body is exactly what
         [adcopt trace export --format prometheus] renders offline *)
      Http.text (Trace_export.prometheus (Metrics.snapshot metrics))
    end
    else Http.text ~status:503 "metrics registry disabled\n"
  | "/healthz" -> Http.text "ok\n"
  | "/readyz" -> (
    if stopping t then Http.text ~status:503 "draining\n"
    else
      match not_ready () with
      | Some reason -> Http.text ~status:503 (reason ^ "\n")
      | None -> Http.text "ready\n")
  | _ -> Http.text ~status:404 "not found\n"

(* The ops listener outlives the request plane on purpose: it keeps
   answering through the drain (so /readyz flips to 503 while in-flight
   work finishes) and is only stopped after the drain step returns. *)
let ops_loop t ~handler fd =
  while not (Atomic.get t.ops_stop) do
    match Unix.select [ fd ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
      match Unix.accept ~cloexec:true fd with
      | exception Unix.Unix_error _ -> ()
      | cfd, _ ->
        ignore (Thread.create (fun () -> Http.serve_connection cfd ~handler) ()))
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* ------------------------------------------------------------------ *)
(* lifecycle *)

let run t ~log ~metrics ~before_scrape ~not_ready ~handle_line ~drain =
  let handler = ops_handler t ~metrics ~before_scrape ~not_ready in
  let ops_thread =
    Option.map (Thread.create (ops_loop t ~handler)) t.ops_listener
  in
  (* accept until told to stop; the 0.2 s tick bounds how long a stop
     request (signal or shutdown verb) waits to be noticed *)
  while not (stopping t) do
    match Unix.select t.listeners [] [] 0.2 with
    | readable, _, _ -> List.iter (accept_conn t ~handle_line) readable
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  Log.info log "draining";
  drain ();
  List.iter close_quietly t.listeners;
  Option.iter unlink_quietly t.socket_path;
  (* wake readers blocked mid-line so their threads exit promptly *)
  List.iter
    (fun c -> try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    (Mutex.protect t.cmutex (fun () -> t.conns));
  Atomic.set t.ops_stop true;
  Option.iter Thread.join ops_thread;
  Option.iter close_quietly t.ops_listener;
  Log.info log "drained"
