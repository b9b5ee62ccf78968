(** The cluster front door: one v2-protocol listener multiplexing a
    fleet of [adcopt serve] backends.

    Clients speak the {e same} newline-JSON protocol to the router that
    they speak to a single daemon — same verbs, same envelopes, same
    canonical bytes — so pointing an existing client at [adcopt route]
    is a config change, not a code change. Behind the socket:

    - {b Placement}: each request's placement key
      ({!Adc_serve.Protocol.key_of_request}, the same derivation that
      gives the backends their store keys) hashes onto a {!Ring} of
      backends, so repeated requests for one cell land on the node that
      already holds the answer. [batch] and [pareto] fan out the same
      way, into one [optimize] forward per distinct (k, fs) cell —
      trading a single node's intra-batch fusion for cluster-wide
      cache reuse, since each cell is stored under its solo key — and
      both reassemble through {!Adc_serve.Codec} to the exact
      single-daemon payload bytes.
    - {b Degradation}: a failed connect, mid-stream EOF or
      [shutting_down] answer marks the backend down ({!Health}) and
      re-routes the work to the key's ring successor, with exponential
      backoff deducted from the request's remaining [deadline_ms]. The
      typed [backend_unavailable] error is reserved for the whole ring
      being down. The successor recomputes the answer rather than
      finding a copy: synthesis is deterministic per key, so the bytes
      are the owner's.

    Byte identity end to end: a routed cache hit, a failover recompute
    and a local cold compute all produce identical payload bytes —
    that's the backends' store contract, deterministic synthesis and
    the canonical serializer, and CI [cmp]s it through the router. *)

type config = {
  backends : string list;
      (** backend addresses: a Unix socket path, or [host:port] *)
  socket_path : string option;  (** front Unix socket *)
  tcp : (string * int) option;  (** optional front TCP (port 0 = ephemeral) *)
  vnodes : int;                 (** ring points per backend (default 160) *)
  connect_timeout_ms : int;     (** per-attempt backend connect budget *)
  probe_period_s : float;       (** background ping-probe cadence;
                                    [<= 0.] disables the prober *)
  metrics_addr : (string * int) option;
      (** router's own ops plane: /metrics, /healthz, /readyz
          (503 once draining) *)
  obs : Adc_obs.t;              (** metrics registry for the [route.*]
                                    instruments *)
  log : Adc_obs.Log.t;          (** structured log; create it with
                                    [~node_id] so fleet logs stay
                                    attributable *)
  node_id : string option;      (** router identity in [stats] *)
}

val default_config : config
(** No backends, no listeners (callers must set both), 160 vnodes,
    1000 ms connects, 2 s probes, no ops plane, {!Adc_obs.null}, null
    log. A forward tries every backend in ring order before it answers
    [backend_unavailable]. *)

type t

val create : config -> t
(** Bind the front listeners and the ops plane. Raises
    [Invalid_argument] when the config names no backend or no
    listener, [Adc_serve.Transport.Listen_failed] when a listener
    cannot bind (after releasing those already bound). *)

val run : t -> unit
(** Accept and route until {!stop}; blocks the caller. On return the
    in-flight requests have drained (at most 30 s) and every listener
    is closed; the drain order is {!Adc_serve.Transport.run}'s. *)

val stop : t -> unit
(** Begin graceful shutdown (async-signal-safe). The [shutdown] verb
    additionally propagates the drain to every backend first. *)

val tcp_port : t -> int option
val metrics_port : t -> int option

val stats_json : t -> Adc_json.Json.t
(** The cluster [stats] payload: per-backend health + forwarded stats,
    the aggregate over the fleet's counters, ring occupancy, and the
    router's own counters. *)

(** {1 Counters} (also inside {!stats_json}; exposed for the tests) *)

val requests : t -> int
val completed : t -> int
val reroutes : t -> int
(** Forwards that had to leave the key's owner for a ring successor. *)

val retries_total : t -> int

(** {1 Fan-out} *)

val fan_width : int
(** The most forwards one [batch], [pareto] or control fan-out keeps in
    flight at once, whatever its grid size. *)

val parallel_map_array : int -> (int -> 'a) -> 'a array
(** [parallel_map_array n f] is [Array.init n f], computed on at most
    {!fan_width} threads that pull indices from a shared counter; the
    results come back in index order. *)
