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
      already holds the answer. [batch] fans into one sub-batch per
      owning backend and [pareto] into per-cell [optimize] forwards —
      trading a single node's intra-batch fusion for cluster-wide
      cache reuse — and both reassemble to the exact single-daemon
      payload bytes.
    - {b Degradation}: a failed connect, mid-stream EOF or
      [shutting_down] answer marks the backend down ({!Health}) and
      re-routes the work to the key's ring successor, with exponential
      backoff deducted from the request's remaining [deadline_ms]. The
      typed [backend_unavailable] error is reserved for the whole ring
      being down.
    - {b Data plane}: a freshly computed cacheable result is
      asynchronously offered ([store-put], digest-signed) to the key's
      ring replicas, and converged {!Adc_pipeline.Job_key} lineages are
      donated peer-to-peer ([job-get] → [job-put], brokered by the
      {!Donor} index) so a dependent job starts warm on whichever node
      owns it.

    Byte identity end to end: a routed cache hit, a replica-served hit
    and a local cold compute all produce identical payload bytes —
    that's the backends' store contract plus the canonical serializer,
    and CI [cmp]s it through the router. *)

type config = {
  backends : string list;
      (** backend addresses: a Unix socket path, or [host:port] *)
  socket_path : string option;  (** front Unix socket *)
  tcp : (string * int) option;  (** optional front TCP (port 0 = ephemeral) *)
  vnodes : int;                 (** ring points per backend (default 160) *)
  replicas : int;               (** replica set size R: owner + R-1 async
                                    copies (default 2; 1 disables) *)
  retries : int;                (** extra backends tried per forward after
                                    the owner (default 2) *)
  connect_timeout_ms : int;     (** per-attempt backend connect budget *)
  probe_period_s : float;       (** background ping-probe cadence;
                                    [<= 0.] disables the prober *)
  replication : bool;           (** offer finished entries to replicas *)
  donation : bool;              (** broker peer warm-start donation *)
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
    R = 2, 2 retries, 1000 ms connects, 2 s probes, replication and
    donation on, no ops plane, {!Adc_obs.null}, null log. *)

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
val donations : t -> int
val replica_offers : t -> int
val replica_hits : t -> int
(** Cached answers served by a backend other than the one that first
    computed the key — the cross-node cache wins the bench reports. *)
