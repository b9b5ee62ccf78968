module Json = Adc_json.Json
module Optimize = Adc_pipeline.Optimize
module Pool = Adc_exec.Pool
module Cancel = Adc_exec.Cancel
module Obs = Adc_obs
module Metrics = Adc_obs.Metrics
module Span = Adc_obs.Span
module Clock = Adc_obs.Clock
module Log = Adc_obs.Log

type config = {
  socket_path : string option;
  tcp : (string * int) option;
  queue_depth : int;
  workers : int;
  jobs : int;
  store_dir : string option;
  store_max_entries : int option;
  default_deadline_s : float option;
  obs : Obs.t;
  metrics_addr : (string * int) option;
  log : Log.t;
  slow_ms : float option;
  flight_capacity : int;
  node_id : string option;
}

let default_config =
  {
    socket_path = None;
    tcp = None;
    queue_depth = 64;
    workers = 2;
    jobs = 1;
    store_dir = None;
    store_max_entries = None;
    default_deadline_s = None;
    obs = Obs.null;
    metrics_addr = None;
    log = Log.null;
    slow_ms = None;
    flight_capacity = 0;
    node_id = None;
  }

type item = {
  req : Protocol.request;
  rid : string;  (* request id: client-supplied or generated *)
  conn : Transport.conn;
  cancel : Cancel.t;
  queue_span : Span.t;
  admitted_at : int64;
}

type t = {
  cfg : config;
  tr : Transport.t;
  flight : Obs.Sink.t option;
  req_seq : int Atomic.t;
  queue : item Queue.t;
  qmutex : Mutex.t;
  qcond : Condition.t;
  shared : Optimize.shared;
  rt : Compute.runtime;  (* the request path, on [shared] *)
  tallies : Tallies.t;  (* the solver counters of [cfg.obs]'s registry *)
  started_at : float;
  smutex : Mutex.t;
  mutable n_requests : int;
  mutable n_completed : int;
  mutable n_overloaded : int;
  mutable n_deadline : int;
  mutable n_failed : int;
  mutable n_inflight : int;
}

(* ------------------------------------------------------------------ *)
(* counters and instruments *)

(* counters are read and written under [smutex] *)
let locked t f = Mutex.protect t.smutex (fun () -> f t)

let set_queue_gauge t depth =
  Metrics.set (Metrics.gauge t.cfg.obs.Obs.metrics "serve.queue_depth")
    (float_of_int depth)

let set_inflight_gauge t n =
  Metrics.set (Metrics.gauge t.cfg.obs.Obs.metrics "serve.inflight")
    (float_of_int n)

let observe_latency t verb ms =
  Metrics.observe
    (Metrics.histogram t.cfg.obs.Obs.metrics
       ("serve.latency." ^ Protocol.verb_name verb))
    ms

let gen_req_id t = Printf.sprintf "r%06d" (Atomic.fetch_and_add t.req_seq 1)

(* ------------------------------------------------------------------ *)
(* stats *)

(* per-verb latency percentiles from the live histograms, in verb-name
   order (the snapshot is name-sorted); verbs that have served nothing
   yet are omitted rather than reported as zeros *)
let latency_json t =
  let prefix = "serve.latency." in
  let entries =
    List.filter_map
      (fun (name, snap) ->
        match snap with
        | Metrics.Histogram { count; max_v; buckets; _ }
          when count > 0 && String.starts_with ~prefix name ->
          let verb =
            String.sub name (String.length prefix)
              (String.length name - String.length prefix)
          in
          let q p = Metrics.quantile_of ~count ~max_v buckets p in
          Some
            ( verb,
              Json.Obj
                [
                  ("count", Json.Int count);
                  ("p50_ms", Json.Float (q 0.5));
                  ("p90_ms", Json.Float (q 0.9));
                  ("p99_ms", Json.Float (q 0.99));
                ] )
        | _ -> None)
      (Metrics.snapshot t.cfg.obs.Obs.metrics)
  in
  Json.Obj entries

let stats_json t =
  Mutex.lock t.smutex;
  let requests = t.n_requests
  and completed = t.n_completed
  and overloaded = t.n_overloaded
  and deadline = t.n_deadline
  and failed = t.n_failed
  and inflight = t.n_inflight in
  Mutex.unlock t.smutex;
  Mutex.lock t.qmutex;
  let depth = Queue.length t.queue in
  Mutex.unlock t.qmutex;
  let job_hits, job_misses = Optimize.shared_job_stats t.shared in
  Json.Obj
    [
      ("requests", Json.Int requests);
      ("completed", Json.Int completed);
      ("overloaded", Json.Int overloaded);
      ("deadline_exceeded", Json.Int deadline);
      ("failed", Json.Int failed);
      ("queue_depth", Json.Int depth);
      ("queue_limit", Json.Int t.cfg.queue_depth);
      ("inflight", Json.Int inflight);
      ("workers", Json.Int t.cfg.workers);
      ("jobs", Json.Int (Pool.size (Optimize.shared_pool t.shared)));
      ("jobs_cached", Json.Int (Optimize.shared_jobs_cached t.shared));
      ("job_hits", Json.Int job_hits);
      ("job_misses", Json.Int job_misses);
      ( "store",
        match t.rt.Compute.store with
        | None -> Json.Null
        | Some s -> Store.stats_json s );
      ("latency_ms", latency_json t);
      ( "node_id",
        match t.cfg.node_id with
        | None -> Json.Null
        | Some n -> Json.String n );
      ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started_at));
      ("draining", Json.Bool (Transport.stopping t.tr));
    ]

(* ------------------------------------------------------------------ *)
(* workers *)

let process t (item : item) =
  let req = item.req in
  let id = req.Protocol.id in
  let rid = item.rid in
  (* the envelope echoes an id only when the client chose one; spans and
     logs always carry [rid] *)
  let wire_rid = req.Protocol.req_id in
  Span.finish
    ~attrs:
      [
        ("verb", Obs.Sink.String (Protocol.verb_name req.Protocol.verb));
        ("req_id", Obs.Sink.String rid);
        ( "wait_ms",
          Obs.Sink.Float (Clock.ns_to_ms (Clock.elapsed_ns ~since:item.admitted_at)) );
      ]
    item.queue_span;
  if Cancel.cancelled item.cancel then begin
    locked t (fun t -> t.n_deadline <- t.n_deadline + 1);
    Metrics.inc
      (Metrics.counter t.cfg.obs.Obs.metrics "serve.deadline_exceeded_total");
    Log.warn t.cfg.log ~req_id:rid
      ~fields:[ ("verb", Obs.Sink.String (Protocol.verb_name req.Protocol.verb)) ]
      "deadline elapsed before the request reached a worker";
    Transport.send item.conn
      (Protocol.error_response ~id ?req_id:wire_rid
         ~kind:Protocol.Deadline_exceeded
         ~message:"deadline elapsed before the request reached a worker" ())
  end
  else begin
    locked t (fun t ->
        t.n_inflight <- t.n_inflight + 1;
        set_inflight_gauge t t.n_inflight);
    let span = Obs.span t.cfg.obs ~name:"serve.request" () in
    let t0 = Clock.now_ns () in
    let finish ~ok ~cached ~truncated =
      let ms = Clock.ns_to_ms (Clock.elapsed_ns ~since:t0) in
      observe_latency t req.Protocol.verb ms;
      Span.finish
        ~attrs:
          [
            ("verb", Obs.Sink.String (Protocol.verb_name req.Protocol.verb));
            ("req_id", Obs.Sink.String rid);
            ("ok", Obs.Sink.Bool ok);
            ("cached", Obs.Sink.Bool cached);
            ("truncated", Obs.Sink.Bool truncated);
          ]
        span;
      let fields =
        [
          ("verb", Obs.Sink.String (Protocol.verb_name req.Protocol.verb));
          ("ms", Obs.Sink.Float ms);
          ("ok", Obs.Sink.Bool ok);
          ("cached", Obs.Sink.Bool cached);
          ("truncated", Obs.Sink.Bool truncated);
        ]
      in
      (match t.cfg.slow_ms with
      | Some limit when ms > limit ->
        Log.warn t.cfg.log ~req_id:rid
          ~fields:(fields @ [ ("slow_ms_limit", Obs.Sink.Float limit) ])
          "slow request"
      | _ -> Log.info t.cfg.log ~req_id:rid ~fields "request completed");
      locked t (fun t ->
          t.n_inflight <- t.n_inflight - 1;
          set_inflight_gauge t t.n_inflight)
    in
    let verb = req.Protocol.verb in
    let streaming = verb = Protocol.Pareto in
    let emit result =
      Transport.send item.conn
        (Protocol.stream_point_response ~id ?req_id:wire_rid ~verb result)
    in
    (* streaming verbs close with a [stream:"end"] summary line instead
       of the plain envelope; single-line verbs are byte-unchanged *)
    let send_final ~cached payload =
      Transport.send item.conn
        (if streaming then
           Protocol.stream_end_response ~id ?req_id:wire_rid ~verb ~cached
             payload
         else Protocol.ok_response ~id ?req_id:wire_rid ~verb ~cached payload)
    in
    match Compute.run t.rt req ~cancel:item.cancel ~emit with
    | Ok outcome ->
      let cached, payload, truncated =
        match outcome with
        | Compute.Stored payload -> (true, payload, false)
        | Compute.Computed { payload; truncated; _ } -> (false, payload, truncated)
      in
      locked t (fun t -> t.n_completed <- t.n_completed + 1);
      finish ~ok:true ~cached ~truncated;
      send_final ~cached payload
    | Error (kind, message) ->
      locked t (fun t -> t.n_failed <- t.n_failed + 1);
      finish ~ok:false ~cached:false ~truncated:false;
      Log.error t.cfg.log ~req_id:rid
        ~fields:
          [
            ("verb", Obs.Sink.String (Protocol.verb_name verb));
            ("error", Obs.Sink.String (Protocol.error_name kind));
            ("message", Obs.Sink.String message);
          ]
        "request failed";
      Transport.send item.conn
        (Protocol.error_response ~id ?req_id:wire_rid ~kind ~message ())
  end

let wake_workers t =
  Mutex.protect t.qmutex (fun () -> Condition.broadcast t.qcond)

let rec worker_loop t =
  Mutex.lock t.qmutex;
  while Queue.is_empty t.queue && not (Transport.stopping t.tr) do
    Condition.wait t.qcond t.qmutex
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.qmutex
    (* draining and nothing left: exit *)
  else begin
    let item = Queue.pop t.queue in
    set_queue_gauge t (Queue.length t.queue);
    Mutex.unlock t.qmutex;
    process t item;
    worker_loop t
  end

(* ------------------------------------------------------------------ *)
(* admission *)

let admit t conn (req : Protocol.request) =
  let id = req.Protocol.id in
  let rid =
    match req.Protocol.req_id with Some r -> r | None -> gen_req_id t
  in
  let wire_rid = req.Protocol.req_id in
  locked t (fun t -> t.n_requests <- t.n_requests + 1);
  Metrics.inc (Metrics.counter t.cfg.obs.Obs.metrics "serve.requests_total");
  match req.Protocol.verb with
  | Protocol.Stats ->
    Transport.send conn
      (Protocol.ok_response ~id ?req_id:wire_rid ~verb:Protocol.Stats
         ~cached:false (stats_json t));
    locked t (fun t -> t.n_completed <- t.n_completed + 1)
  | Protocol.Shutdown ->
    Log.info t.cfg.log ~req_id:rid "shutdown requested; draining";
    Transport.send conn
      (Protocol.ok_response ~id ?req_id:wire_rid ~verb:Protocol.Shutdown
         ~cached:false
         (Json.Obj [ ("stopping", Json.Bool true) ]));
    locked t (fun t -> t.n_completed <- t.n_completed + 1);
    Transport.stop t.tr;
    wake_workers t
  | Protocol.Dump_trace ->
    (* inline so it answers even during overload or drain — exactly when
       an operator reaches for the flight recorder *)
    let events, dropped, cap =
      match t.flight with
      | Some ring ->
        (Obs.Sink.events ring, Obs.Sink.dropped ring, Obs.Sink.capacity ring)
      | None -> ([], 0, 0)
    in
    let verb = Protocol.Dump_trace in
    List.iter
      (fun e ->
        (* re-parse through the canonical span codec so each point line's
           [result] is exactly a trace-JSONL object Trace_reader accepts *)
        Transport.send conn
          (Protocol.stream_point_response ~id ?req_id:wire_rid ~verb
             (Json.parse (Obs.Sink.event_to_json e))))
      events;
    Transport.send conn
      (Protocol.stream_end_response ~id ?req_id:wire_rid ~verb ~cached:false
         (Json.Obj
            [
              ("events", Json.Int (List.length events));
              ("dropped", Json.Int dropped);
              ("capacity", Json.Int cap);
            ]));
    Log.info t.cfg.log ~req_id:rid
      ~fields:
        [
          ("events", Obs.Sink.Int (List.length events));
          ("dropped", Obs.Sink.Int dropped);
        ]
      "flight recorder dumped";
    locked t (fun t -> t.n_completed <- t.n_completed + 1)
  | Protocol.Ping
    when req.Protocol.delay_ms = 0 && not (Transport.stopping t.tr) ->
    (* a liveness probe answers at admission, as [stats] does: queued
       behind hybrid work on a busy backend it would outlast the
       router's probe timeout and read as down. It takes the worker
       path (span, latency, counters) on this thread. A [delay_ms] ping
       stays queued (it is how a client occupies a worker), and a
       draining daemon still refuses one below. *)
    process t
      {
        req;
        rid;
        conn;
        cancel = Cancel.never;
        queue_span = Span.dummy;
        admitted_at = Clock.now_ns ();
      }
  | _ ->
    (* the deadline clock starts at admission: queueing time counts
       against the budget, which is what makes backpressure visible to
       an impatient client as deadline_exceeded rather than a stall *)
    let deadline_s =
      match req.Protocol.deadline_ms with
      | Some ms -> Some (float_of_int ms /. 1000.0)
      | None -> t.cfg.default_deadline_s
    in
    let cancel =
      match deadline_s with
      | Some after_s -> Cancel.with_deadline ~after_s ()
      | None -> Cancel.create ()
    in
    let decision =
      Mutex.lock t.qmutex;
      let d =
        if Transport.stopping t.tr then
          `Reject (Protocol.Shutting_down, "server is draining")
        else if Queue.length t.queue >= t.cfg.queue_depth then
          `Reject
            ( Protocol.Overloaded,
              Printf.sprintf "admission queue full (depth %d)"
                t.cfg.queue_depth )
        else begin
          let item =
            {
              req;
              rid;
              conn;
              cancel;
              queue_span = Obs.span t.cfg.obs ~name:"serve.queue" ();
              admitted_at = Clock.now_ns ();
            }
          in
          Queue.push item t.queue;
          set_queue_gauge t (Queue.length t.queue);
          Condition.signal t.qcond;
          `Admitted (Queue.length t.queue)
        end
      in
      Mutex.unlock t.qmutex;
      d
    in
    (match decision with
    | `Admitted depth ->
      Log.debug t.cfg.log ~req_id:rid
        ~fields:
          [
            ("verb", Obs.Sink.String (Protocol.verb_name req.Protocol.verb));
            ("queue_depth", Obs.Sink.Int depth);
          ]
        "request admitted"
    | `Reject (kind, message) ->
      (match kind with
      | Protocol.Overloaded ->
        locked t (fun t -> t.n_overloaded <- t.n_overloaded + 1);
        Metrics.inc
          (Metrics.counter t.cfg.obs.Obs.metrics "serve.overloaded_total")
      | _ -> ());
      Log.warn t.cfg.log ~req_id:rid
        ~fields:
          [
            ("verb", Obs.Sink.String (Protocol.verb_name req.Protocol.verb));
            ("error", Obs.Sink.String (Protocol.error_name kind));
          ]
        "request rejected";
      Transport.send conn (Protocol.error_response ~id ?req_id:wire_rid ~kind ~message ()))

let handle_line t conn line =
  match Protocol.parse_request_line line with
  | Error (kind, message, id) ->
    (* [kind] is [Bad_request] or [Unsupported_version]; either way the
       envelope carries the version this daemon does speak *)
    locked t (fun t ->
        t.n_requests <- t.n_requests + 1;
        t.n_failed <- t.n_failed + 1);
    Log.warn t.cfg.log
      ~fields:
        [
          ("error", Obs.Sink.String (Protocol.error_name kind));
          ("message", Obs.Sink.String message);
        ]
      "unparseable request";
    Transport.send conn (Protocol.error_response ~id ~kind ~message ())
  | Ok req -> admit t conn req

let flight_events t =
  match t.flight with
  | None -> None
  | Some ring -> Some (Obs.Sink.events ring, Obs.Sink.dropped ring)

(* ------------------------------------------------------------------ *)
(* lifecycle *)

(* the serve counters and ops gauges, like the solver counters of
   [Tallies.attach], exist from the first scrape: a stable exposition
   shape is what dashboards and the CI asserts key on *)
let preregister_metrics m =
  if Metrics.enabled m then begin
    List.iter
      (fun n -> ignore (Metrics.counter m n))
      [
        "serve.requests_total";
        "serve.overloaded_total";
        "serve.deadline_exceeded_total";
        "serve.scrapes_total";
      ];
    List.iter
      (fun n -> ignore (Metrics.gauge m n))
      [ "serve.queue_depth"; "serve.inflight" ];
    List.iter
      (fun v -> ignore (Metrics.histogram m ("serve.latency." ^ Protocol.verb_name v)))
      [
        Protocol.Ping;
        Protocol.Enumerate;
        Protocol.Optimize;
        Protocol.Sweep;
        Protocol.Synth;
        Protocol.Montecarlo;
        Protocol.Batch;
        Protocol.Pareto;
        Protocol.Netlist_emit;
      ]
  end

let create cfg =
  if cfg.socket_path = None && cfg.tcp = None then
    invalid_arg "Server.create: need a unix socket path or a TCP address";
  (* the flight recorder tees into whatever sink the config carries, so
     an explicit --trace file and the ring record the same spans *)
  let flight =
    if cfg.flight_capacity > 0 then
      Some (Obs.Sink.ring ~capacity:cfg.flight_capacity)
    else None
  in
  let cfg =
    match flight with
    | Some ring ->
      { cfg with obs = { cfg.obs with Obs.sink = Obs.Sink.tee cfg.obs.Obs.sink ring } }
    | None -> cfg
  in
  preregister_metrics cfg.obs.Obs.metrics;
  let store =
    Option.map (Store.open_dir ?max_entries:cfg.store_max_entries) cfg.store_dir
  in
  let shared = Optimize.create_shared ~obs:cfg.obs ~jobs:(Stdlib.max 1 cfg.jobs) () in
  let tr =
    Transport.create ?socket_path:cfg.socket_path ?tcp:cfg.tcp
      ?ops:cfg.metrics_addr ()
  in
  {
    cfg;
    tr;
    flight;
    req_seq = Atomic.make 1;
    queue = Queue.create ();
    qmutex = Mutex.create ();
    qcond = Condition.create ();
    shared;
    rt = { Compute.shared = (fun () -> shared); obs = cfg.obs; store };
    tallies = Tallies.attach cfg.obs.Obs.metrics;
    started_at = Unix.gettimeofday ();
    smutex = Mutex.create ();
    n_requests = 0;
    n_completed = 0;
    n_overloaded = 0;
    n_deadline = 0;
    n_failed = 0;
    n_inflight = 0;
  }

let tcp_port t = Transport.tcp_port t.tr
let metrics_port t = Transport.ops_port t.tr

let stop t = Transport.stop t.tr

let run t =
  Log.info t.cfg.log
    ~fields:
      [
        ("workers", Obs.Sink.Int (Stdlib.max 1 t.cfg.workers));
        ("queue_depth", Obs.Sink.Int t.cfg.queue_depth);
        ("jobs", Obs.Sink.Int (Pool.size (Optimize.shared_pool t.shared)));
        ("flight_capacity", Obs.Sink.Int t.cfg.flight_capacity);
      ]
    "daemon starting";
  let workers =
    List.init (Stdlib.max 1 t.cfg.workers) (fun _ ->
        Thread.create (fun () -> worker_loop t) ())
  in
  (* drain: admission refuses new work from the stop on; the workers
     empty the queue and finish in-flight requests *)
  let drain () =
    wake_workers t;
    List.iter Thread.join workers
  in
  let before_scrape () =
    Metrics.inc (Metrics.counter t.cfg.obs.Obs.metrics "serve.scrapes_total");
    Tallies.fold t.tallies
  in
  Transport.run t.tr ~log:t.cfg.log ~metrics:t.cfg.obs.Obs.metrics
    ~before_scrape ~not_ready:(fun () -> None) ~handle_line:(handle_line t)
    ~drain;
  Optimize.shutdown_shared t.shared;
  Tallies.fold t.tallies

let requests t = locked t (fun t -> t.n_requests)
let completed t = locked t (fun t -> t.n_completed)
let overloaded t = locked t (fun t -> t.n_overloaded)
let deadline_exceeded t = locked t (fun t -> t.n_deadline)
