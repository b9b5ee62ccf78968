(** The connection plane shared by the daemon ({!Server}) and the
    cluster router ([Adc_cluster.Router]): listeners, one reader thread
    per connection, locked writes, the ops-plane HTTP listener and the
    ordered drain. A front end supplies only what differs: its line
    handler, its readiness predicate and pre-scrape hook, and its drain
    step.

    {1 Lifecycle}

    {!create} binds every listener up front, so clients may connect as
    soon as it returns. {!run} then accepts until {!stop} and tears down
    in a fixed order:

    + stop accepting (new connections wait in the kernel backlog, and
      the front end answers lines on open connections with its own
      draining refusal);
    + run the front end's [drain] step (the daemon joins its workers;
      the router waits out its in-flight forwards) while [/readyz]
      answers 503;
    + close the listeners and unlink the Unix socket;
    + shut down every open connection, waking its reader;
    + stop the ops listener. *)

type conn
(** One accepted client connection. *)

val send : conn -> Adc_json.Json.t -> unit
(** Write one JSON line. Writes are serialized per connection, so
    worker threads may answer pipelined requests concurrently; a write
    to a closed peer marks the connection dead instead of raising. *)

(** {1 Listening} *)

type error =
  | Bad_host of string       (** neither an address nor a valid host name *)
  | Unknown_host of string   (** a valid name the resolver does not know *)
  | Bind of string * Unix.error
      (** socket, bind or listen failed at the address (path or
          [host:port]) *)

exception Listen_failed of error

val error_message : error -> string
(** One line naming the address and the cause. *)

type t

val create :
  ?socket_path:string -> ?tcp:string * int -> ?ops:string * int -> unit -> t
(** Bind the Unix socket (an existing file at the path is replaced), the
    TCP listener and the ops-plane listener, in that order; port 0 binds
    an ephemeral port. A TCP host is an address literal or a host name
    looked up through the system resolver; a string that is not a
    syntactically valid host name is refused as [Bad_host] without any
    lookup. Raises [Listen_failed] when any of them fails,
    after closing every descriptor already opened and unlinking the
    socket it bound. *)

val tcp_port : t -> int option
(** The bound TCP port, when a TCP listener was configured. *)

val ops_port : t -> int option
(** The bound ops-plane port, when one was configured. *)

(** {1 Serving} *)

val run :
  t ->
  log:Adc_obs.Log.t ->
  metrics:Adc_obs.Metrics.t ->
  before_scrape:(unit -> unit) ->
  not_ready:(unit -> string option) ->
  handle_line:(conn -> string -> unit) ->
  drain:(unit -> unit) ->
  unit
(** Serve until {!stop}, then tear down as described above; blocks the
    caller. [handle_line] runs on the connection's reader thread for
    every non-blank line. The ops listener answers [GET /metrics] (the
    [metrics] registry through [Adc_report.Trace_export.prometheus],
    after [before_scrape]; 503 when the registry is disabled),
    [GET /healthz] (always 200) and [GET /readyz]: 503 [draining] once
    stopping, 503 with the reason while [not_ready] returns one, 200
    otherwise. *)

val stop : t -> unit
(** Begin the drain. Async-signal-safe (one atomic store); the accept
    loop notices within its 0.2 s tick. *)

val stopping : t -> bool
(** [true] from {!stop} on. *)
