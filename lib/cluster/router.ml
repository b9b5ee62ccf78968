module Json = Adc_json.Json
module Api = Adc_api
module Protocol = Adc_serve.Protocol
module Codec = Adc_serve.Codec
module Compute = Adc_serve.Compute
module Client = Adc_serve.Client
module Transport = Adc_serve.Transport
module Spec = Adc_pipeline.Spec
module Optimize = Adc_pipeline.Optimize
module Front = Adc_pipeline.Front
module Fom = Adc_pipeline.Fom
module Obs = Adc_obs
module Metrics = Adc_obs.Metrics
module Log = Adc_obs.Log

type config = {
  backends : string list;
  socket_path : string option;
  tcp : (string * int) option;
  vnodes : int;
  connect_timeout_ms : int;
  probe_period_s : float;
  metrics_addr : (string * int) option;
  obs : Obs.t;
  log : Log.t;
  node_id : string option;
}

let default_config =
  {
    backends = [];
    socket_path = None;
    tcp = None;
    vnodes = 160;
    connect_timeout_ms = 1000;
    probe_period_s = 2.0;
    metrics_addr = None;
    obs = Obs.null;
    log = Log.null;
    node_id = None;
  }

type t = {
  cfg : config;
  ring : Ring.t;
  health : Health.t;
  tr : Transport.t;
  rr : int Atomic.t;  (* ping round-robin cursor *)
  started_at : float;
  smutex : Mutex.t;
  mutable n_requests : int;
  mutable n_completed : int;
  mutable n_failed : int;
  mutable n_inflight : int;
  mutable n_reroutes : int;
  mutable n_retries : int;
}

(* ------------------------------------------------------------------ *)
(* counters and instruments *)

(* counters are read and written under [smutex] *)
let locked t f = Mutex.protect t.smutex (fun () -> f t)

let metric_inc t name =
  Metrics.inc (Metrics.counter t.cfg.obs.Obs.metrics name)

(* backend addresses carry '/' and ':'; metric names want identifiers *)
let sanitize id =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
    id

let count_forward t backend =
  metric_inc t ("route.forwards_total." ^ sanitize backend)

let count_failure t backend =
  metric_inc t ("route.failures_total." ^ sanitize backend)

let sync_health_gauges t =
  let m = t.cfg.obs.Obs.metrics in
  if Metrics.enabled m then begin
    let snap = Health.snapshot t.health in
    List.iter
      (fun (id, up) ->
        Metrics.set
          (Metrics.gauge m ("route.up." ^ sanitize id))
          (if up then 1.0 else 0.0))
      snap;
    Metrics.set
      (Metrics.gauge m "route.backends_up")
      (float_of_int (Health.up_count t.health))
  end

let preregister_metrics t =
  let m = t.cfg.obs.Obs.metrics in
  if Metrics.enabled m then begin
    List.iter
      (fun n -> ignore (Metrics.counter m n))
      [
        "route.requests_total";
        "route.completed_total";
        "route.failed_total";
        "route.reroutes_total";
        "route.retries_total";
      ];
    List.iter
      (fun id ->
        ignore (Metrics.counter m ("route.forwards_total." ^ sanitize id));
        ignore (Metrics.counter m ("route.failures_total." ^ sanitize id)))
      t.cfg.backends;
    sync_health_gauges t
  end

(* ------------------------------------------------------------------ *)
(* forwarding with re-route, retry and deadline accounting *)

let elapsed_ms started =
  int_of_float ((Unix.gettimeofday () -. started) *. 1e3)

let with_deadline json remaining =
  match json with
  | Json.Obj fields ->
    Json.Obj
      (List.filter (fun (k, _) -> k <> "deadline_ms") fields
      @ [ ("deadline_ms", Json.Int remaining) ])
  | other -> other

type attempt =
  | Delivered of Json.t list * Json.t  (* buffered stream lines, final *)
  | Undelivered of string              (* re-routable failure *)

let attempt_forward ?read_timeout_ms t backend json =
  match Peer.connect ~timeout_ms:t.cfg.connect_timeout_ms backend with
  | exception e -> Undelivered (Printexc.to_string e)
  | client -> (
    (* A deadline-carrying request also bounds each reply read: a
       backend that accepts the connection and then goes silent (died
       mid-drain with the request in its backlog) is a transport
       failure to re-route, not an indefinite hang. Requests without a
       deadline keep single-daemon semantics and block until EOF. *)
    Option.iter (Client.set_read_timeout_ms client) read_timeout_ms;
    let result =
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          match
            let lines = ref [] in
            let final =
              Client.request_stream client json ~on_line:(fun l ->
                  lines := l :: !lines)
            in
            (List.rev !lines, final)
          with
          | r -> Ok r
          | exception e -> Error (Printexc.to_string e))
    in
    match result with
    | Error msg -> Undelivered msg
    | Ok (lines, final) -> (
      (* a draining backend's typed refusal re-routes like a dead one:
         its keys belong to the ring successor now *)
      match Json.member "error" final with
      | Some (Json.String "shutting_down") -> Undelivered "backend draining"
      | _ -> Delivered (lines, final)))

(* Try [candidates] in order (each a distinct backend). Buffered
   non-final lines only reach [emit] once an attempt succeeds, so a
   client never sees half a stream from a backend that died mid-burst.
   Backoff and the retry attempts themselves are paid out of the
   request's remaining [deadline_ms]. *)
let forward_ordered t ~candidates ~owner ~deadline_ms ~started ~json ~emit =
  let total = List.length candidates in
  let budget_left () =
    match deadline_ms with
    | None -> None
    | Some d -> Some (d - elapsed_ms started)
  in
  let rec go i last_err =
    if i >= total then
      Error
        ( Protocol.Backend_unavailable,
          Printf.sprintf "every candidate backend failed (last: %s)" last_err
        )
    else
      match budget_left () with
      | Some r when r <= 0 ->
        Error
          ( Protocol.Deadline_exceeded,
            "deadline exhausted while re-routing across backends" )
      | remaining ->
        if i > 0 then begin
          locked t (fun t -> t.n_retries <- t.n_retries + 1);
          metric_inc t "route.retries_total";
          let backoff_ms =
            Stdlib.min (50.0 *. (2.0 ** float_of_int (i - 1))) 500.0
          in
          let backoff_ms =
            match remaining with
            | Some r -> Stdlib.min backoff_ms (float_of_int r)
            | None -> backoff_ms
          in
          if backoff_ms > 0.0 then Unix.sleepf (backoff_ms /. 1e3)
        end;
        let backend = List.nth candidates i in
        let json, read_timeout_ms =
          match budget_left () with
          (* +500ms grace so a backend that hits the deadline itself
             can still deliver its typed deadline_exceeded reply *)
          | Some r -> (with_deadline json (Stdlib.max 1 r), Some (r + 500))
          | None -> (json, None)
        in
        (match attempt_forward ?read_timeout_ms t backend json with
        | Delivered (lines, final) ->
          Health.mark t.health backend true;
          count_forward t backend;
          sync_health_gauges t;
          if backend <> owner then begin
            locked t (fun t -> t.n_reroutes <- t.n_reroutes + 1);
            metric_inc t "route.reroutes_total"
          end;
          List.iter emit lines;
          Ok final
        | Undelivered msg ->
          Health.mark t.health backend false;
          count_failure t backend;
          sync_health_gauges t;
          Log.warn t.cfg.log
            ~fields:
              [
                ("backend", Obs.Sink.String backend);
                ("error", Obs.Sink.String msg);
              ]
            "backend forward failed; re-routing";
          go (i + 1) msg)
  in
  go 0 "no backend attempted"

(* healthy candidates first (ring order), down ones as a last resort —
   a stale Down verdict must not make a key unroutable *)
let candidates_for t order =
  List.filter (fun b -> Health.is_up t.health b) order
  @ List.filter (fun b -> not (Health.is_up t.health b)) order

let forward_routed t ~key ~deadline_ms ~started ~json ~emit =
  match Ring.successors t.ring key with
  | [] -> Error (Protocol.Backend_unavailable, "no backends configured")
  | owner :: _ as order ->
    forward_ordered t
      ~candidates:(candidates_for t order)
      ~owner ~deadline_ms ~started ~json ~emit

(* ------------------------------------------------------------------ *)
(* single-request forwarding *)

let single_forward t conn (req : Protocol.request) ~started =
  let id = req.Protocol.id and wire_rid = req.Protocol.req_id in
  match (Protocol.key_of_request req).Protocol.place with
  | None ->
    Transport.send conn
      (Protocol.error_response ~id ?req_id:wire_rid ~kind:Protocol.Bad_request
         ~message:"router: verb requires a routing key" ())
  | Some key -> (
    match
      forward_routed t ~key ~deadline_ms:req.Protocol.deadline_ms ~started
        ~json:req.Protocol.json
        ~emit:(fun line -> Transport.send conn line)
    with
    | Ok final ->
      Transport.send conn final;
      locked t (fun t -> t.n_completed <- t.n_completed + 1);
      metric_inc t "route.completed_total"
    | Error (kind, message) ->
      Transport.send conn
        (Protocol.error_response ~id ?req_id:wire_rid ~kind ~message ());
      locked t (fun t -> t.n_failed <- t.n_failed + 1);
      metric_inc t "route.failed_total")

(* ------------------------------------------------------------------ *)
(* fan-out verbs

   [batch] and [pareto] are both a set of independent (k, fs) cells, so
   the router forwards one solo [optimize] per distinct cell to the
   cell's ring owner — which caches it under the very key a later
   routed [optimize] of that cell looks up — and reassembles the
   summary through the daemon's own {!Codec} builders. A cell's payload
   is byte-identical to the run a single daemon's fused batch computes
   for it (the run_batch contract), and the fusion counters are a pure
   plan function, so the reassembled bytes are the single daemon's. *)

(* a sub-response that came back [ok:false]: surface its typed error as
   the whole request's answer *)
let sub_error final =
  match Json.member "ok" final with
  | Some (Json.Bool true) -> None
  | _ ->
    let kind =
      match Json.member "error" final with
      | Some (Json.String name) -> Protocol.error_kind_of_name name
      | _ -> Protocol.Internal
    in
    let message =
      match Json.member "message" final with
      | Some (Json.String m) -> m
      | _ -> "backend answered an error"
    in
    Some (kind, message)

let fan_width = 8

(* run [f i] for each index on at most [fan_width] threads, each pulling
   the next index from a shared counter; results come back by index *)
let parallel_map_array n f =
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      results.(i) <- Some (f i);
      work ()
    end
  in
  let threads =
    List.init (Stdlib.min fan_width n) (fun _ -> Thread.create work ())
  in
  List.iter Thread.join threads;
  Array.map
    (function Some r -> r | None -> failwith "parallel_map_array") results

exception Fan_failed of Protocol.error_kind * string

(* The solo optimize of one cell, carrying the client's search identity
   (mode, seed, attempts, budget, card), version and req_id. The budget
   and the card ride along as the client sent them; [forward_ordered]
   appends the remaining [deadline_ms]. *)
let cell_request (req : Protocol.request) ~k ~fs_mhz =
  let optional name = Option.fold ~none:[] ~some:(fun v -> [ (name, v) ]) in
  let string = Option.map (fun s -> Json.String s) in
  Json.Obj
    ([
       ("id", req.Protocol.id);
       ("verb", Json.String "optimize");
       ("k", Json.Int k);
       ("fs_mhz", Json.Float fs_mhz);
       ("mode", Json.String (Codec.mode_name req.Protocol.mode));
       ("seed", Json.Int req.Protocol.seed);
       ("attempts", Json.Int req.Protocol.attempts);
       ("version", Json.Int Api.protocol_version);
     ]
    @ optional "budget" (Json.member "budget" req.Protocol.json)
    @ optional "process" (string req.Protocol.process)
    @ optional "req_id" (string req.Protocol.req_id))

(* Forward [cell_request] for each (k, fs_mhz) cell, at most [fan_width]
   at a time, each to the owner of the cell's solo optimize key with the
   usual re-route. Returns the cells' optimize payloads in order and
   whether every one was a store hit; the first failing cell's typed
   error fails the request. *)
let fan_cells t (req : Protocol.request) ~started cells =
  let cells = Array.of_list cells in
  let outcomes =
    parallel_map_array (Array.length cells) (fun i ->
        let k, fs_mhz = cells.(i) in
        let keys =
          Protocol.key_of_request
            { req with Protocol.verb = Protocol.Optimize; k; fs_mhz }
        in
        forward_routed t ~key:(Option.get keys.Protocol.place)
          ~deadline_ms:req.Protocol.deadline_ms ~started
          ~json:(cell_request req ~k ~fs_mhz) ~emit:ignore)
  in
  let replies =
    Array.map
      (function
        | Error (kind, message) -> raise (Fan_failed (kind, message))
        | Ok final -> (
          match (sub_error final, Json.member "result" final) with
          | Some (kind, message), _ -> raise (Fan_failed (kind, message))
          | None, Some payload ->
            (payload, Json.member "cached" final = Some (Json.Bool true))
          | None, None ->
            raise
              (Fan_failed (Protocol.Internal, "sub-optimize carried no result"))))
      outcomes
  in
  (Array.to_list (Array.map fst replies), Array.for_all snd replies)

(* The fusion counters a single daemon's run_batch reports for [cells].
   The request has passed [Compute.validate], so its card and its specs
   build. *)
let plan_counts (req : Protocol.request) cells =
  let process = Result.get_ok (Adc_spice.resolve_card req.Protocol.process) in
  let specs =
    List.map (fun (k, f) -> Spec.make ~process ~k ~fs:(f *. 1e6) ()) cells
  in
  ( specs,
    Optimize.batch_plan_counts ~mode:req.Protocol.mode ~seed:req.Protocol.seed
      ~attempts:req.Protocol.attempts ?budget:req.Protocol.budget specs )

(* batch: each distinct k is one cell at the request's rate; the runs
   map back to the requested order, a repeated k repeating its run *)
let assemble_batch t (req : Protocol.request) ~started =
  let cell k = (k, req.Protocol.fs_mhz) in
  let _, (job_occurrences, distinct_syntheses) =
    plan_counts req (List.map cell req.Protocol.ks)
  in
  let ks = List.sort_uniq Int.compare req.Protocol.ks in
  let payloads, cached = fan_cells t req ~started (List.map cell ks) in
  let run_of = List.combine ks payloads in
  let runs = List.map (fun k -> List.assoc k run_of) req.Protocol.ks in
  ( Codec.batch_json ~ks:req.Protocol.ks ~runs ~job_occurrences
      ~distinct_syntheses,
    cached )

(* pareto: the deduplicated grid's cells, then the pure dominance pass
   over exactly the figures the single daemon's Front.search uses *)
let assemble_pareto t (req : Protocol.request) ~started =
  let _, _, cells =
    Front.grid ~ks:req.Protocol.ks ~fs_mhz:req.Protocol.fs_list
  in
  let specs, (job_occurrences, distinct_syntheses) = plan_counts req cells in
  let payloads, cached = fan_cells t req ~started cells in
  let coords =
    List.map2
      (fun (spec : Spec.t) payload ->
        match Codec.optimize_p_total payload with
        | Some p -> { Front.c_k = spec.Spec.k; c_fs = spec.Spec.fs; c_p = p }
        | None ->
          raise (Fan_failed (Protocol.Internal, "sub-optimize lost p_total")))
      specs payloads
  in
  let grid =
    List.map2
      (fun ((k, fs_mhz), (c : Front.coord)) (on_front, payload) ->
        {
          Codec.cell_k = k;
          cell_fs_mhz = fs_mhz;
          cell_on_front = on_front;
          cell_fom = Fom.make ~p_total:c.Front.c_p ~k ~fs:c.Front.c_fs;
          cell_optimize = payload;
        })
      (List.combine cells coords)
      (List.combine (Front.front_flags coords) payloads)
  in
  (Codec.pareto_json grid ~job_occurrences ~distinct_syntheses, cached)

(* ------------------------------------------------------------------ *)
(* control verbs *)

let aggregate_stats backend_stats =
  let flat =
    [
      "requests";
      "completed";
      "overloaded";
      "deadline_exceeded";
      "failed";
      "inflight";
      "jobs_cached";
      "job_hits";
      "job_misses";
    ]
  in
  let nested =
    [ "store.hits"; "store.misses"; "store.writes"; "store.evicted" ]
  in
  let sum path =
    List.fold_left
      (fun acc stats ->
        match stats with
        | None -> acc
        | Some s -> (
          match Json.member_path path s with
          | Some (Json.Int n) -> acc + n
          | _ -> acc))
      0 backend_stats
  in
  Json.Obj
    (List.map (fun name -> (name, Json.Int (sum name))) flat
    @ List.map
        (fun path ->
          let name = String.map (fun c -> if c = '.' then '_' else c) path in
          (name, Json.Int (sum path)))
        nested)

let stats_json t =
  let ids = Ring.backends t.ring in
  let stats =
    Array.to_list
      (parallel_map_array (List.length ids) (fun i ->
           let id = List.nth ids i in
           (id, Peer.stats ~timeout_ms:t.cfg.connect_timeout_ms id)))
  in
  let backends_json =
    List.map
      (fun (id, s) ->
        Json.Obj
          [
            ("id", Json.String id);
            ("healthy", Json.Bool (Health.is_up t.health id));
            ("stats", Option.value s ~default:Json.Null);
          ])
      stats
  in
  Mutex.lock t.smutex;
  let requests = t.n_requests
  and completed = t.n_completed
  and failed = t.n_failed
  and inflight = t.n_inflight
  and reroutes = t.n_reroutes
  and retries = t.n_retries in
  Mutex.unlock t.smutex;
  Json.Obj
    [
      ("cluster", Json.Bool true);
      ( "node_id",
        match t.cfg.node_id with
        | None -> Json.Null
        | Some n -> Json.String n );
      ("backends", Json.List backends_json);
      ("aggregate", aggregate_stats (List.map snd stats));
      ( "ring",
        Json.Obj
          [
            ("vnodes", Json.Int (Ring.vnodes t.ring));
            ( "occupancy",
              Json.Obj
                (List.map
                   (fun (id, share) -> (id, Json.Float share))
                   (Ring.occupancy t.ring)) );
          ] );
      ( "router",
        Json.Obj
          [
            ("requests", Json.Int requests);
            ("completed", Json.Int completed);
            ("failed", Json.Int failed);
            ("inflight", Json.Int inflight);
            ("reroutes", Json.Int reroutes);
            ("retries", Json.Int retries);
            ("health_transitions", Json.Int (Health.transitions t.health));
            ("backends_up", Json.Int (Health.up_count t.health));
            ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started_at));
            ("draining", Json.Bool (Transport.stopping t.tr));
          ] );
    ]

let route_ping t conn (req : Protocol.request) ~started =
  let id = req.Protocol.id and wire_rid = req.Protocol.req_id in
  let all = Ring.backends t.ring in
  let healthy = List.filter (Health.is_up t.health) all in
  let pool = if healthy = [] then all else healthy in
  let n = List.length pool in
  if n = 0 then
    Transport.send conn
      (Protocol.error_response ~id ?req_id:wire_rid
         ~kind:Protocol.Backend_unavailable ~message:"no backends configured"
         ())
  else begin
    (* round-robin across the healthy set: ping is a liveness probe,
       not cacheable work, so spreading beats placement *)
    let start = Atomic.fetch_and_add t.rr 1 mod n in
    let rotated =
      List.filteri (fun i _ -> i >= start) pool
      @ List.filteri (fun i _ -> i < start) pool
    in
    let candidates =
      rotated @ List.filter (fun b -> not (List.mem b rotated)) all
    in
    match
      forward_ordered t ~candidates ~owner:(List.hd rotated)
        ~deadline_ms:req.Protocol.deadline_ms ~started ~json:req.Protocol.json
        ~emit:(fun _ -> ())
    with
    | Ok final ->
      Transport.send conn final;
      locked t (fun t -> t.n_completed <- t.n_completed + 1);
      metric_inc t "route.completed_total"
    | Error (kind, message) ->
      Transport.send conn
        (Protocol.error_response ~id ?req_id:wire_rid ~kind ~message ());
      locked t (fun t -> t.n_failed <- t.n_failed + 1);
      metric_inc t "route.failed_total"
  end

let route_shutdown t conn (req : Protocol.request) =
  let id = req.Protocol.id and wire_rid = req.Protocol.req_id in
  Log.info t.cfg.log "shutdown requested; propagating drain to backends";
  let ids = Ring.backends t.ring in
  ignore
    (parallel_map_array (List.length ids) (fun i ->
         Peer.shutdown ~timeout_ms:t.cfg.connect_timeout_ms (List.nth ids i)));
  Transport.send conn
    (Protocol.ok_response ~id ?req_id:wire_rid ~verb:Protocol.Shutdown
       ~cached:false
       (Json.Obj [ ("stopping", Json.Bool true) ]));
  locked t (fun t -> t.n_completed <- t.n_completed + 1);
  metric_inc t "route.completed_total";
  Transport.stop t.tr

let route_dump_trace t conn (req : Protocol.request) =
  let id = req.Protocol.id and wire_rid = req.Protocol.req_id in
  (* sequential fan: each backend's retained spans stream through
     verbatim (the sub-lines echo the client's id), then one summary *)
  let probed, failed =
    List.fold_left
      (fun (probed, failed) backend ->
        match attempt_forward t backend req.Protocol.json with
        | Delivered (lines, _final) ->
          List.iter (fun line -> Transport.send conn line) lines;
          (backend :: probed, failed)
        | Undelivered _ -> (probed, backend :: failed))
      ([], []) (Ring.backends t.ring)
  in
  Transport.send conn
    (Protocol.stream_end_response ~id ?req_id:wire_rid
       ~verb:Protocol.Dump_trace ~cached:false
       (Json.Obj
          [
            ( "backends",
              Json.List
                (List.rev_map (fun b -> Json.String b) probed) );
            ( "unreachable",
              Json.List (List.rev_map (fun b -> Json.String b) failed) );
          ]));
  locked t (fun t -> t.n_completed <- t.n_completed + 1);
  metric_inc t "route.completed_total"

(* ------------------------------------------------------------------ *)
(* request handling *)

let handle_request t conn (req : Protocol.request) ~started =
  let id = req.Protocol.id and wire_rid = req.Protocol.req_id in
  match req.Protocol.verb with
  | Protocol.Stats ->
    Transport.send conn
      (Protocol.ok_response ~id ?req_id:wire_rid ~verb:Protocol.Stats
         ~cached:false (stats_json t));
    locked t (fun t -> t.n_completed <- t.n_completed + 1);
    metric_inc t "route.completed_total"
  | Protocol.Shutdown -> route_shutdown t conn req
  | Protocol.Dump_trace -> route_dump_trace t conn req
  | Protocol.Ping -> route_ping t conn req ~started
  | Protocol.Batch | Protocol.Pareto -> (
    let verb = req.Protocol.verb in
    match
      (* a request a daemon would refuse is refused here, in the daemon's
         words, before any cell is forwarded *)
      Result.iter_error
        (fun (kind, message) -> raise (Fan_failed (kind, message)))
        (Compute.validate req);
      if verb = Protocol.Pareto then assemble_pareto t req ~started
      else assemble_batch t req ~started
    with
    | payload, cached ->
      (* a pareto streams its front points in traversal order, then the
         summary: the lines a single daemon's warm replay sends *)
      if verb = Protocol.Pareto then begin
        List.iter
          (fun point ->
            Transport.send conn
              (Protocol.stream_point_response ~id ?req_id:wire_rid ~verb point))
          (Codec.pareto_front_points payload);
        Transport.send conn
          (Protocol.stream_end_response ~id ?req_id:wire_rid ~verb ~cached
             payload)
      end
      else
        Transport.send conn
          (Protocol.ok_response ~id ?req_id:wire_rid ~verb ~cached payload);
      locked t (fun t -> t.n_completed <- t.n_completed + 1);
      metric_inc t "route.completed_total"
    | exception Fan_failed (kind, message) ->
      Transport.send conn
        (Protocol.error_response ~id ?req_id:wire_rid ~kind ~message ());
      locked t (fun t -> t.n_failed <- t.n_failed + 1);
      metric_inc t "route.failed_total")
  | Protocol.Enumerate | Protocol.Optimize | Protocol.Sweep | Protocol.Synth
  | Protocol.Netlist_emit | Protocol.Montecarlo ->
    single_forward t conn req ~started

let handle_line t conn line =
  let started = Unix.gettimeofday () in
  locked t (fun t ->
      t.n_requests <- t.n_requests + 1;
      t.n_inflight <- t.n_inflight + 1);
  metric_inc t "route.requests_total";
  Fun.protect
    ~finally:(fun () -> locked t (fun t -> t.n_inflight <- t.n_inflight - 1))
    (fun () ->
      match Protocol.parse_request_line line with
      | Error (kind, message, id) ->
        Log.warn t.cfg.log
          ~fields:
            [
              ("error", Obs.Sink.String (Protocol.error_name kind));
              ("message", Obs.Sink.String message);
            ]
          "unparseable request";
        locked t (fun t -> t.n_failed <- t.n_failed + 1);
        metric_inc t "route.failed_total";
        Transport.send conn (Protocol.error_response ~id ~kind ~message ())
      | Ok req ->
        if Transport.stopping t.tr then
          Transport.send conn
            (Protocol.error_response ~id:req.Protocol.id
               ?req_id:req.Protocol.req_id ~kind:Protocol.Shutting_down
               ~message:"router is draining" ())
        else begin
          Log.debug t.cfg.log ?req_id:req.Protocol.req_id
            ~fields:
              [
                ( "verb",
                  Obs.Sink.String (Protocol.verb_name req.Protocol.verb) );
              ]
            "routing request";
          handle_request t conn req ~started
        end)

(* ------------------------------------------------------------------ *)
(* lifecycle *)

let prober_loop t =
  while not (Transport.stopping t.tr) do
    List.iter
      (fun id ->
        let up = Peer.ping ~timeout_ms:t.cfg.connect_timeout_ms id in
        Health.mark t.health id up)
      (Ring.backends t.ring);
    sync_health_gauges t;
    let rec sleep remaining =
      if remaining > 0.0 && not (Transport.stopping t.tr) then begin
        Unix.sleepf (Stdlib.min 0.2 remaining);
        sleep (remaining -. 0.2)
      end
    in
    sleep t.cfg.probe_period_s
  done

let create cfg =
  if cfg.backends = [] then
    invalid_arg "Router.create: need at least one backend";
  if cfg.socket_path = None && cfg.tcp = None then
    invalid_arg "Router.create: need a unix socket path or a TCP address";
  let t =
    {
      cfg;
      ring = Ring.create ~vnodes:cfg.vnodes cfg.backends;
      health = Health.create cfg.backends;
      tr =
        Transport.create ?socket_path:cfg.socket_path ?tcp:cfg.tcp
          ?ops:cfg.metrics_addr ();
      rr = Atomic.make 0;
      started_at = Unix.gettimeofday ();
      smutex = Mutex.create ();
      n_requests = 0;
      n_completed = 0;
      n_failed = 0;
      n_inflight = 0;
      n_reroutes = 0;
      n_retries = 0;
    }
  in
  preregister_metrics t;
  t

let tcp_port t = Transport.tcp_port t.tr
let metrics_port t = Transport.ops_port t.tr
let stop t = Transport.stop t.tr

let run t =
  Log.info t.cfg.log
    ~fields:
      [
        ("backends", Obs.Sink.Int (List.length t.cfg.backends));
        ("vnodes", Obs.Sink.Int t.cfg.vnodes);
      ]
    "router starting";
  let prober_thread =
    if t.cfg.probe_period_s > 0.0 then
      Some (Thread.create (fun () -> prober_loop t) ())
    else None
  in
  (* wait for in-flight forwards to finish (/readyz answers 503 while
     this runs), bounded so a wedged backend cannot pin the router *)
  let drain () =
    let deadline = Unix.gettimeofday () +. 30.0 in
    while
      locked t (fun t -> t.n_inflight) > 0 && Unix.gettimeofday () < deadline
    do
      Unix.sleepf 0.05
    done
  in
  let not_ready () =
    if Health.up_count t.health = 0 then Some "no healthy backends" else None
  in
  Transport.run t.tr ~log:t.cfg.log ~metrics:t.cfg.obs.Obs.metrics
    ~before_scrape:(fun () -> sync_health_gauges t)
    ~not_ready ~handle_line:(handle_line t) ~drain;
  Option.iter Thread.join prober_thread

let requests t = locked t (fun t -> t.n_requests)
let completed t = locked t (fun t -> t.n_completed)
let reroutes t = locked t (fun t -> t.n_reroutes)
let retries_total t = locked t (fun t -> t.n_retries)
