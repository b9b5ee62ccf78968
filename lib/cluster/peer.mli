(** One-shot typed calls against a backend daemon.

    A backend address is either a Unix socket path or ["host:port"]
    (the presence of a [':'] decides — socket paths in this repo are
    absolute or at least never carry one). Every helper opens a fresh
    bounded-timeout connection, speaks one request, and closes: the
    router holds no long-lived backend connections, so a restarted
    backend needs no reconnect logic and a dead one costs exactly one
    timeout.

    The control helpers translate failures into [None]/[false] rather
    than raising — a probe or a stats fan-out must never take a client
    request down with it. The forwarding path uses {!connect} directly
    and handles its own exceptions, because {e there} a failure must
    trigger a re-route. *)

val connect : ?timeout_ms:int -> string -> Adc_serve.Client.t
(** Connect to a backend address (default timeout 1000 ms). Raises
    [Unix.Unix_error] like the underlying {!Adc_serve.Client}
    connectors. *)

val ping : ?timeout_ms:int -> string -> bool
(** Protocol-level liveness probe: connect, [ping], expect
    [ok:true]. *)

val stats : ?timeout_ms:int -> string -> Adc_json.Json.t option
(** The backend's [stats] payload ([result] member), or [None] on any
    failure. *)

val shutdown : ?timeout_ms:int -> string -> bool
(** Ask the backend to begin its graceful drain. *)
