(** The synthesis service: a daemon accepting {!Protocol} requests over
    a Unix-domain socket (and optionally TCP), computing them on a pool
    of worker threads that share one long-lived {!Adc_pipeline.Optimize}
    runtime, and answering one JSON line per request. A worker computes
    through {!Compute.run}, the path the CLI's one-shot verbs share;
    the daemon adds the transport, admission, counters, spans and logs.

    {1 Concurrency model}

    The calling thread runs the accept loop; each connection gets a
    reader thread; [workers] threads drain one bounded admission queue;
    synthesis itself fans out on the shared runtime's [jobs] OCaml 5
    domains. Control verbs ([stats], [shutdown]) are answered inline by
    the reader and never consume a worker.

    {1 Backpressure and deadlines}

    Admission is a hard bound: when the queue holds [queue_depth]
    requests, new work is refused immediately with an [overloaded]
    error — the daemon never buffers unboundedly and a client always
    learns its fate promptly. A request's [deadline_ms] budget starts
    at admission; if it expires while still queued the worker answers
    [deadline_exceeded] without computing, and if it expires mid-run
    the cancellation token tells the optimizer to return its
    best-so-far with [truncated:true] (served, but never stored).

    {1 Shutdown}

    {!stop} (or SIGTERM via the CLI, or the [shutdown] verb) makes the
    daemon stop accepting, drain every queued and in-flight request,
    join its workers, close the listeners, unlink the socket and shut
    down the domain pool — then {!run} folds the solver tallies into the
    registry ({!Tallies.fold}) and returns. *)

type config = {
  socket_path : string option;   (** Unix-domain socket to listen on *)
  tcp : (string * int) option;   (** optional TCP (host, port); port 0
                                     binds an ephemeral port, see
                                     {!tcp_port} *)
  queue_depth : int;             (** admission bound (default 64) *)
  workers : int;                 (** request worker threads (default 2) *)
  jobs : int;                    (** domains in the shared synthesis
                                     pool (default 1) *)
  store_dir : string option;     (** persistent design store directory *)
  store_max_entries : int option;
      (** LRU-by-mtime cap on the store directory (swept at open and
          after every write); [None] = unbounded. Keeps a long-lived
          daemon that answers many distinct cells from growing its
          store without bound. *)
  default_deadline_s : float option;
      (** deadline applied to requests that carry none *)
  obs : Adc_obs.t;               (** tracing/metrics context; the serve
                                     span kinds are documented in
                                     docs/OBSERVABILITY.md *)
  metrics_addr : (string * int) option;
      (** optional ops-plane HTTP listener (host, port; port 0 binds an
          ephemeral port, see {!metrics_port}) answering [GET /metrics]
          (the live registry through the same
          [Adc_report.Trace_export.prometheus] exposition the offline
          exporter uses), [GET /healthz] (process liveness, always 200)
          and [GET /readyz] (200 while accepting, 503 once draining) *)
  log : Adc_obs.Log.t;           (** leveled structured logger for the
                                     daemon's own diagnostics (default
                                     {!Adc_obs.Log.null}) *)
  slow_ms : float option;        (** latency threshold above which a
                                     completed request logs a
                                     [slow request] warning *)
  flight_capacity : int;         (** flight-recorder ring size in spans;
                                     0 disables the recorder *)
  node_id : string option;       (** this daemon's cluster identity;
                                     surfaced in the [stats] payload so
                                     a router can attribute aggregated
                                     figures (stamp it on the logger
                                     too — see {!Adc_obs.Log.create}) *)
}

val default_config : config
(** No listeners (callers must set one), depth 64, 2 workers, 1 domain,
    no store, no default deadline, {!Adc_obs.null}, no ops listener, no
    logger, no slow threshold, no flight recorder. *)

type t

val create : config -> t
(** Bind the listeners, open the store, spawn the shared runtime. The
    socket is accepting (kernel backlog) from here on, so a client may
    connect as soon as [create] returns even if {!run} starts on
    another thread a moment later. Raises [Invalid_argument] when the
    config names no listener, what {!Store.open_dir} raises when the
    store cannot be opened (before any listener binds), and
    {!Transport.Listen_failed} when a listener cannot bind (after
    releasing those already bound). The listeners,
    connections, drain and ops plane are {!Transport}'s. *)

val run : t -> unit
(** Serve until {!stop}; blocks the calling thread (the CLI's main
    thread, or a dedicated thread in the tests). Returns only when the
    drain described above has completed — safe to [exit 0] after. *)

val stop : t -> unit
(** Begin graceful shutdown. Async-signal-safe (a single atomic store),
    so the CLI installs it directly as the SIGTERM/SIGINT handler; the
    accept loop notices within its 0.2 s tick. *)

val tcp_port : t -> int option
(** The bound TCP port, when a TCP listener was configured — useful
    with port 0. *)

val metrics_port : t -> int option
(** The bound ops-plane port, when [metrics_addr] was configured. *)

val flight_events : t -> (Adc_obs.Sink.event list * int) option
(** The flight recorder's retained spans (oldest first) and its eviction
    count; [None] when [flight_capacity] was 0. Safe from any thread —
    this is what the CLI's SIGUSR1 dump and the [dump-trace] verb
    read. *)

val stats_json : t -> Adc_json.Json.t
(** The [stats] verb's payload: request/completion/rejection counters,
    queue occupancy, current inflight count, per-verb latency
    percentiles ([latency_ms], from the live histograms), shared-cache
    size, store counters, uptime. *)

(** Counters (also in {!stats_json}; exposed for the tests). *)

val requests : t -> int
val completed : t -> int
val overloaded : t -> int
val deadline_exceeded : t -> int
