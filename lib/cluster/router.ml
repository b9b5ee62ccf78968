module Json = Adc_json.Json
module Api = Adc_api
module Protocol = Adc_serve.Protocol
module Codec = Adc_serve.Codec
module Client = Adc_serve.Client
module Transport = Adc_serve.Transport
module Spec = Adc_pipeline.Spec
module Optimize = Adc_pipeline.Optimize
module Front = Adc_pipeline.Front
module Fom = Adc_pipeline.Fom
module Job_key = Adc_pipeline.Job_key
module Obs = Adc_obs
module Metrics = Adc_obs.Metrics
module Log = Adc_obs.Log

type config = {
  backends : string list;
  socket_path : string option;
  tcp : (string * int) option;
  vnodes : int;
  replicas : int;
  retries : int;
  connect_timeout_ms : int;
  probe_period_s : float;
  replication : bool;
  donation : bool;
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
    replicas = 2;
    retries = 2;
    connect_timeout_ms = 1000;
    probe_period_s = 2.0;
    replication = true;
    donation = true;
    metrics_addr = None;
    obs = Obs.null;
    log = Log.null;
    node_id = None;
  }

type t = {
  cfg : config;
  ring : Ring.t;
  health : Health.t;
  donors : Donor.t;   (* Job_key digest -> holders (warm-start donation) *)
  origins : Donor.t;  (* store-key digest -> holders (replica-hit class.) *)
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
  mutable n_donations : int;
  mutable n_replica_offers : int;
  mutable n_replica_hits : int;
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
        "route.donations_total";
        "route.replica_offers_total";
        "route.replica_hits_total";
      ];
    List.iter
      (fun id ->
        ignore (Metrics.counter m ("route.forwards_total." ^ sanitize id));
        ignore (Metrics.counter m ("route.failures_total." ^ sanitize id)))
      t.cfg.backends;
    sync_health_gauges t
  end

(* ------------------------------------------------------------------ *)
(* placement *)

(* the parsed card for local spec construction (donation planning);
   falls back to the built-in card on a malformed one — the backend
   owns the typed rejection, the router only plans around it *)
let process_value_of (req : Protocol.request) =
  match Adc_spice.resolve_card req.Protocol.process with
  | Ok p -> p
  | Error _ -> Adc_circuit.Process.c025

(* the keys of one (k, fs) cell of a fanned request: those of the solo
   optimize a backend would cache that cell under *)
let cell_keys (req : Protocol.request) ~k ~fs_mhz =
  Protocol.key_of_request
    { req with Protocol.verb = Protocol.Optimize; k; fs_mhz }

let place_of (keys : Protocol.keys) =
  match keys.Protocol.place with Some key -> key | None -> raise Exit

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
let forward_ordered t ~candidates ~owner ~deadline_ms ~started ~json ~emit
    ?(before = fun (_ : string) -> ()) () =
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
        before backend;
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
          Ok (backend, final)
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

let forward_routed t ~key ~deadline_ms ~started ~json ~emit ?before () =
  match Ring.successors t.ring key with
  | [] -> Error (Protocol.Backend_unavailable, "no backends configured")
  | owner :: _ as order ->
    forward_ordered t
      ~candidates:(candidates_for t order)
      ~owner ~deadline_ms ~started ~json ~emit ?before ()

(* ------------------------------------------------------------------ *)
(* the data plane: replication offers and warm-start donation *)

let md5_hex s = Digest.to_hex (Digest.string s)

(* asynchronously offer a finished entry to the key's other ring
   replicas; failures are logged and forgotten — replication is an
   optimization, never a liveness dependency *)
let replicate t ~backend ~key ~payload =
  if t.cfg.replication && t.cfg.replicas > 1 then begin
    let digest = md5_hex (Json.to_string payload) in
    let targets =
      Ring.replicas t.ring ~n:t.cfg.replicas key
      |> List.filter (fun b -> b <> backend && Health.is_up t.health b)
    in
    if targets <> [] then
      ignore
        (Thread.create
           (fun () ->
             List.iter
               (fun b ->
                 if
                   Peer.store_put ~timeout_ms:t.cfg.connect_timeout_ms b ~key
                     ~digest ~payload
                 then begin
                   locked t (fun t ->
                       t.n_replica_offers <- t.n_replica_offers + 1);
                   metric_inc t "route.replica_offers_total";
                   Donor.record t.origins ~digest:(md5_hex key) ~backend:b;
                   Log.debug t.cfg.log
                     ~fields:[ ("backend", Obs.Sink.String b) ]
                     "replicated store entry"
                 end)
               targets)
           ())
  end

(* the per-spec synthesis lineage of an optimize-family request; [] in
   equation mode and whenever planning itself cannot run *)
let plan_digests (req : Protocol.request) spec =
  match req.Protocol.mode with
  | `Equation -> []
  | (`Hybrid | `Hybrid_verified) as mode -> (
    match
      Optimize.plan_job_keys ~mode ~seed:req.Protocol.seed
        ~attempts:req.Protocol.attempts ?budget:req.Protocol.budget spec
    with
    | keys -> List.map (fun k -> (k, Job_key.digest k)) keys
    | exception _ -> [])

(* before forwarding a spec to [target], broker donations: any lineage
   some other node holds is fetched ([job-get]) and pushed ([job-put])
   so the target synthesizes warm instead of cold *)
let donate t ~target keys =
  if t.cfg.donation then
    List.iter
      (fun (jk, digest) ->
        let holders = Donor.holders t.donors ~digest in
        if holders <> [] && not (List.mem target holders) then begin
          let key = Job_key.to_string jk in
          let rec try_holders = function
            | [] -> ()
            | h :: rest -> (
              match
                Peer.job_get ~timeout_ms:t.cfg.connect_timeout_ms h ~key
              with
              | Some outcome ->
                if
                  Peer.job_put ~timeout_ms:t.cfg.connect_timeout_ms target
                    ~key ~outcome
                then begin
                  locked t (fun t -> t.n_donations <- t.n_donations + 1);
                  metric_inc t "route.donations_total";
                  Donor.record t.donors ~digest ~backend:target;
                  Log.debug t.cfg.log
                    ~fields:
                      [
                        ("from", Obs.Sink.String h);
                        ("to", Obs.Sink.String target);
                      ]
                    "donated warm-start lineage"
                end
              | None -> try_holders rest)
          in
          try_holders holders
        end)
      keys

(* after a backend answered an optimize-family request: classify
   replica hits, index fresh lineages, and fan replication offers.
   [store] is the key the backend cached the forwarded request under. *)
let settle t ~backend ~store ~(req : Protocol.request) ~specs ~final =
  match Json.member "ok" final with
  | Some (Json.Bool true) ->
    let cached = Json.member "cached" final = Some (Json.Bool true) in
    let record_origin key =
      Donor.record t.origins ~digest:(md5_hex key) ~backend
    in
    if cached then
      Option.iter
        (fun key ->
          (match Donor.origin t.origins ~digest:(md5_hex key) with
          | Some origin when origin <> backend ->
            locked t (fun t -> t.n_replica_hits <- t.n_replica_hits + 1);
            metric_inc t "route.replica_hits_total"
          | Some _ | None -> ());
          record_origin key)
        store
    else begin
      List.iter
        (fun spec ->
          List.iter
            (fun (_, digest) -> Donor.record t.donors ~digest ~backend)
            (plan_digests req spec))
        specs;
      Option.iter
        (fun key ->
          record_origin key;
          match Json.member "result" final with
          | Some result
            when Json.member "truncated" result <> Some (Json.Bool true) ->
            replicate t ~backend ~key ~payload:result
          | _ -> ())
        store
    end
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* single-request forwarding *)

let specs_of (req : Protocol.request) =
  match req.Protocol.verb with
  | Protocol.Optimize -> (
    match
      Spec.make ~process:(process_value_of req) ~k:req.Protocol.k
        ~fs:(req.Protocol.fs_mhz *. 1e6) ()
    with
    | spec -> [ spec ]
    | exception _ -> [])
  | _ -> []

let single_forward t conn (req : Protocol.request) ~started =
  let id = req.Protocol.id and wire_rid = req.Protocol.req_id in
  let keys = Protocol.key_of_request req in
  match keys.Protocol.place with
  | None ->
    Transport.send conn
      (Protocol.error_response ~id ?req_id:wire_rid ~kind:Protocol.Bad_request
         ~message:"router: verb requires a routing key" ())
  | Some key -> (
    let specs = specs_of req in
    let before target =
      List.iter (fun spec -> donate t ~target (plan_digests req spec)) specs
    in
    match
      forward_routed t ~key ~deadline_ms:req.Protocol.deadline_ms ~started
        ~json:req.Protocol.json
        ~emit:(fun line -> Transport.send conn line)
        ~before ()
    with
    | Ok (backend, final) ->
      settle t ~backend ~store:keys.Protocol.store ~req ~specs ~final;
      Transport.send conn final;
      locked t (fun t -> t.n_completed <- t.n_completed + 1);
      metric_inc t "route.completed_total"
    | Error (kind, message) ->
      Transport.send conn
        (Protocol.error_response ~id ?req_id:wire_rid ~kind ~message ());
      locked t (fun t -> t.n_failed <- t.n_failed + 1);
      metric_inc t "route.failed_total")

(* ------------------------------------------------------------------ *)
(* fan-out verbs *)

let kind_of_name = function
  | "bad_request" -> Protocol.Bad_request
  | "unsupported_version" -> Protocol.Unsupported_version
  | "overloaded" -> Protocol.Overloaded
  | "deadline_exceeded" -> Protocol.Deadline_exceeded
  | "shutting_down" -> Protocol.Shutting_down
  | "backend_unavailable" -> Protocol.Backend_unavailable
  | _ -> Protocol.Internal

(* a sub-response that came back [ok:false]: surface its typed error as
   the whole request's answer *)
let sub_error final =
  match Json.member "ok" final with
  | Some (Json.Bool true) -> None
  | _ ->
    let kind =
      match Json.member "error" final with
      | Some (Json.String name) -> kind_of_name name
      | _ -> Protocol.Internal
    in
    let message =
      match Json.member "message" final with
      | Some (Json.String m) -> m
      | _ -> "backend answered an error"
    in
    Some (kind, message)

let to_float = function
  | Json.Int n -> Some (float_of_int n)
  | Json.Float f -> Some f
  | _ -> None

let bool_member name json =
  Json.member name json = Some (Json.Bool true)

(* run [f i] for each index on its own thread, join all, collect *)
let parallel_map_array n f =
  let results = Array.make n None in
  let threads =
    List.init n (fun i ->
        Thread.create (fun () -> results.(i) <- Some (f i)) ())
  in
  List.iter Thread.join threads;
  Array.map
    (function Some r -> r | None -> failwith "parallel_map_array") results

exception Fan_failed of Protocol.error_kind * string

(* --- batch: one sub-batch per owning backend ---------------------- *)

(* Group the requested resolutions by the backend owning each one's
   per-cell optimize key. Relative order inside a group is preserved,
   so each sub-batch's [runs] come back in the order its ks were named
   — and the run for a given spec is byte-identical to a solo optimize
   (the run_batch contract), which is what lets the router stitch the
   groups back into the exact single-daemon payload. *)
let fan_batch t (req : Protocol.request) ~started =
  let cell_key k = place_of (cell_keys req ~k ~fs_mhz:req.Protocol.fs_mhz) in
  if req.Protocol.ks = [] then raise Exit (* backend owns the typed error *);
  let owner_of k =
    match Ring.lookup t.ring (cell_key k) with
    | Some b -> b
    | None -> raise Exit
  in
  let groups : (string * int list ref) list ref = ref [] in
  List.iter
    (fun k ->
      let owner = owner_of k in
      match List.assoc_opt owner !groups with
      | Some ks -> ks := k :: !ks
      | None -> groups := !groups @ [ (owner, ref [ k ]) ])
    req.Protocol.ks;
  let groups =
    List.map (fun (owner, ks) -> (owner, List.rev !ks)) !groups
  in
  let specs_of_ks ks =
    let process = process_value_of req in
    List.map
      (fun k -> Spec.make ~process ~k ~fs:(req.Protocol.fs_mhz *. 1e6) ())
      ks
  in
  let sub_json ks =
    match req.Protocol.json with
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (name, v) ->
             if name = "ks" then
               (name, Json.List (List.map (fun k -> Json.Int k) ks))
             else (name, v))
           fields)
    | other -> other
  in
  let arr = Array.of_list groups in
  let outcomes =
    parallel_map_array (Array.length arr) (fun i ->
        let _, ks = arr.(i) in
        let specs = try specs_of_ks ks with _ -> [] in
        let before target =
          List.iter
            (fun spec -> donate t ~target (plan_digests req spec))
            specs
        in
        forward_routed t
          ~key:(cell_key (List.hd ks))
          ~deadline_ms:req.Protocol.deadline_ms ~started ~json:(sub_json ks)
          ~emit:(fun _ -> ())
          ~before ())
  in
  (* surface failures: typed backend errors verbatim, exhaustion typed *)
  Array.iteri
    (fun i outcome ->
      let _, ks = arr.(i) in
      match outcome with
      | Error (kind, message) -> raise (Fan_failed (kind, message))
      | Ok (backend, final) -> (
        match sub_error final with
        | Some (kind, message) -> raise (Fan_failed (kind, message))
        | None ->
          (* a sub-batch is not offered to replicas: its payload is not
             what the placement key of any of its cells names *)
          settle t ~backend ~store:None ~req
            ~specs:(try specs_of_ks ks with _ -> [])
            ~final))
    outcomes;
  (* stitch: runs back into the original ks order *)
  let runs_by_k = Hashtbl.create 16 in
  let truncated = ref false in
  let all_cached = ref true in
  Array.iteri
    (fun i outcome ->
      let _, ks = arr.(i) in
      match outcome with
      | Error _ -> ()
      | Ok (_, final) -> (
        if not (bool_member "cached" final) then all_cached := false;
        match Json.member "result" final with
        | Some result -> (
          if bool_member "truncated" result then truncated := true;
          match Json.member "runs" result with
          | Some (Json.List runs) when List.length runs = List.length ks ->
            List.iter2 (fun k run -> Hashtbl.replace runs_by_k k run) ks runs
          | _ ->
            raise
              (Fan_failed
                 (Protocol.Internal, "sub-batch result shape mismatch")))
        | None ->
          raise (Fan_failed (Protocol.Internal, "sub-batch carried no result"))))
    outcomes;
  let runs =
    List.map
      (fun k ->
        match Hashtbl.find_opt runs_by_k k with
        | Some run -> run
        | None ->
          raise (Fan_failed (Protocol.Internal, "sub-batch lost a resolution")))
      req.Protocol.ks
  in
  let job_occurrences, distinct_syntheses =
    Optimize.batch_plan_counts ~mode:req.Protocol.mode ~seed:req.Protocol.seed
      ~attempts:req.Protocol.attempts ?budget:req.Protocol.budget
      (specs_of_ks req.Protocol.ks)
  in
  let payload =
    Json.Obj
      [
        ("ks", Json.List (List.map (fun k -> Json.Int k) req.Protocol.ks));
        ("runs", Json.List runs);
        ("job_occurrences", Json.Int job_occurrences);
        ("distinct_syntheses", Json.Int distinct_syntheses);
        ("truncated", Json.Bool !truncated);
      ]
  in
  (payload, !all_cached)

(* --- pareto: per-cell optimize forwards --------------------------- *)

(* Fan the (k, fs) grid into one optimize forward per cell — trading a
   single node's intra-batch job fusion for per-cell placement (each
   cell lands on, and is cached by, its owning node) — then rerun the
   pure dominance pass over the returned powers. The per-cell payloads
   are byte-identical to solo optimize runs, and dominance is a pure
   function of (k, fs, p_total), so the reassembled summary matches the
   single-daemon bytes. *)
let fan_pareto t (req : Protocol.request) ~started ~emit =
  let _, _, cells =
    Front.grid ~ks:req.Protocol.ks ~fs_mhz:req.Protocol.fs_list
  in
  let process = process_value_of req in
  let budget_json = match req.Protocol.json with
    | Json.Obj fields -> List.assoc_opt "budget" fields
    | _ -> None
  in
  let sub_json i (k, f) =
    Json.Obj
      ([
         ("id", Json.Int i);
         ("verb", Json.String "optimize");
         ("k", Json.Int k);
         ("fs_mhz", Json.Float f);
         ("mode", Json.String (Codec.mode_name req.Protocol.mode));
         ("seed", Json.Int req.Protocol.seed);
         ("attempts", Json.Int req.Protocol.attempts);
       ]
      @ (match budget_json with
        | Some b -> [ ("budget", b) ]
        | None -> [])
      (* the sub-request is built field-by-field, so the card must be
         forwarded explicitly — dropping it here would silently compute
         every cell on the default process *)
      @ (match req.Protocol.process with
        | Some card -> [ ("process", Json.String card) ]
        | None -> [])
      @ (match req.Protocol.deadline_ms with
        | Some d -> [ ("deadline_ms", Json.Int d) ]
        | None -> [])
      @ [ ("version", Json.Int Api.protocol_version) ])
  in
  let arr = Array.of_list cells in
  let outcomes =
    parallel_map_array (Array.length arr) (fun i ->
        let k, f = arr.(i) in
        let spec =
          try Some (Spec.make ~process ~k ~fs:(f *. 1e6) ()) with _ -> None
        in
        let before target =
          Option.iter
            (fun spec -> donate t ~target (plan_digests req spec))
            spec
        in
        forward_routed t ~key:(place_of (cell_keys req ~k ~fs_mhz:f))
          ~deadline_ms:req.Protocol.deadline_ms ~started ~json:(sub_json i arr.(i))
          ~emit:(fun _ -> ())
          ~before ())
  in
  let results =
    Array.mapi
      (fun i outcome ->
        let k, f = arr.(i) in
        match outcome with
        | Error (kind, message) -> raise (Fan_failed (kind, message))
        | Ok (backend, final) -> (
          match sub_error final with
          | Some (kind, message) -> raise (Fan_failed (kind, message))
          | None -> (
            settle t ~backend
              ~store:(cell_keys req ~k ~fs_mhz:f).Protocol.store ~req
              ~specs:
                (match Spec.make ~process ~k ~fs:(f *. 1e6) () with
                | spec -> [ spec ]
                | exception _ -> [])
              ~final;
            match Json.member "result" final with
            | Some result -> (result, bool_member "cached" final)
            | None ->
              raise
                (Fan_failed (Protocol.Internal, "sub-optimize carried no result")))))
      outcomes
  in
  (* the pure dominance pass, over exactly the figures the single
     daemon's Front.search uses *)
  let coords =
    Array.to_list
      (Array.mapi
         (fun i (result, _) ->
           let k, f = arr.(i) in
           let p_total =
             match Option.bind (Json.member "p_total" result) to_float with
             | Some p -> p
             | None ->
               raise
                 (Fan_failed (Protocol.Internal, "sub-optimize lost p_total"))
           in
           let spec = Spec.make ~process ~k ~fs:(f *. 1e6) () in
           { Front.c_k = k; c_fs = spec.Spec.fs; c_p = p_total })
         results)
  in
  let flags = Front.front_flags coords in
  let point_payloads =
    List.mapi
      (fun i on_front ->
        let k, f = arr.(i) in
        let result, _ = results.(i) in
        let coord = List.nth coords i in
        let fom =
          Fom.make ~p_total:coord.Front.c_p ~k ~fs:coord.Front.c_fs
        in
        Json.Obj
          [
            ("k", Json.Int k);
            ("fs_mhz", Json.Float f);
            ("on_front", Json.Bool on_front);
            ("fom", Codec.fom_json fom);
            ("optimize", result);
          ])
      flags
  in
  (* stream the front points in traversal order — membership was final
     in this order on the single daemon too *)
  List.iteri
    (fun i payload -> if List.nth flags i then emit payload)
    point_payloads;
  let truncated =
    Array.exists (fun (result, _) -> bool_member "truncated" result) results
  in
  let all_cached = Array.for_all (fun (_, cached) -> cached) results in
  let front_refs =
    List.filteri (fun i _ -> List.nth flags i) (Array.to_list arr)
    |> List.map (fun (k, f) ->
           Json.Obj [ ("k", Json.Int k); ("fs_mhz", Json.Float f) ])
  in
  let specs =
    List.map
      (fun (k, f) -> Spec.make ~process ~k ~fs:(f *. 1e6) ())
      (Array.to_list arr)
  in
  let job_occurrences, distinct_syntheses =
    Optimize.batch_plan_counts ~mode:req.Protocol.mode ~seed:req.Protocol.seed
      ~attempts:req.Protocol.attempts ?budget:req.Protocol.budget specs
  in
  let sorted_axis to_json values =
    values |> List.sort_uniq compare |> List.map to_json
  in
  let payload =
    Json.Obj
      [
        ( "ks",
          Json.List
            (sorted_axis
               (fun k -> Json.Int k)
               (List.map fst (Array.to_list arr))) );
        ( "fs_mhz",
          Json.List
            (sorted_axis
               (fun f -> Json.Float f)
               (List.map snd (Array.to_list arr))) );
        ("grid", Json.List point_payloads);
        ("front", Json.List front_refs);
        ("job_occurrences", Json.Int job_occurrences);
        ("distinct_syntheses", Json.Int distinct_syntheses);
        ("truncated", Json.Bool truncated);
      ]
  in
  (payload, all_cached)

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
  and retries = t.n_retries
  and donations = t.n_donations
  and replica_offers = t.n_replica_offers
  and replica_hits = t.n_replica_hits in
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
            ("donations", Json.Int donations);
            ("replica_offers", Json.Int replica_offers);
            ("replica_hits", Json.Int replica_hits);
            ("donor_index", Json.Int (Donor.size t.donors));
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
        ()
    with
    | Ok (_, final) ->
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
    let streaming = req.Protocol.verb = Protocol.Pareto in
    let emit payload =
      Transport.send conn
        (Protocol.stream_point_response ~id ?req_id:wire_rid
           ~verb:req.Protocol.verb payload)
    in
    match
      if streaming then fan_pareto t req ~started ~emit
      else fan_batch t req ~started
    with
    | payload, cached ->
      Transport.send conn
        (if streaming then
           Protocol.stream_end_response ~id ?req_id:wire_rid
             ~verb:req.Protocol.verb ~cached payload
         else
           Protocol.ok_response ~id ?req_id:wire_rid ~verb:req.Protocol.verb
             ~cached payload);
      locked t (fun t -> t.n_completed <- t.n_completed + 1);
      metric_inc t "route.completed_total"
    | exception Fan_failed (kind, message) ->
      Transport.send conn
        (Protocol.error_response ~id ?req_id:wire_rid ~kind ~message ());
      locked t (fun t -> t.n_failed <- t.n_failed + 1);
      metric_inc t "route.failed_total"
    | exception _ ->
      (* planning could not even run (bad axes, invalid k): forward the
         whole request to one backend so the typed error comes from the
         same code path a single daemon would use *)
      single_forward t conn req ~started)
  | Protocol.Enumerate | Protocol.Optimize | Protocol.Sweep | Protocol.Synth
  | Protocol.Netlist_emit | Protocol.Montecarlo | Protocol.Store_put
  | Protocol.Store_get | Protocol.Job_put | Protocol.Job_get ->
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
      donors = Donor.create ();
      origins = Donor.create ();
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
      n_donations = 0;
      n_replica_offers = 0;
      n_replica_hits = 0;
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
        ("replicas", Obs.Sink.Int t.cfg.replicas);
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
let donations t = locked t (fun t -> t.n_donations)
let replica_offers t = locked t (fun t -> t.n_replica_offers)
let replica_hits t = locked t (fun t -> t.n_replica_hits)
