(* The four workloads, untraced (end-to-end metrics) and traced
   (per-layer metrics). Each run works in its own directory under
   bench/adcbench/_work, which it removes when done; the daemons it
   spawns listen on sockets named relative to that directory, so the
   checkout's path length never matters. *)

module Json = Adc_json.Json
module Obs = Adc_obs

type ctx = {
  seed : int;
  seconds : float;
  smoke : bool;  (** a seconds-long pass that only proves every metric prints *)
  self : string;  (** this executable, re-run for hybrid set-up children *)
  root : string;  (** the checkout *)
  obs : Obs.t;  (** bench-side spans of a traced run *)
}

type outcome = {
  attempted : int;
  failed : int;
  measured : (string * float) list;
  extras : (string * float) list;  (** see [Schema.extras] *)
  spans : Obs.Sink.event list;  (** library spans a traced run collected *)
}

let p50 xs = Stats.percentile xs 0.50
let p99 xs = Stats.percentile xs 0.99

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

(* ------------------------------------------------------------------ *)
(* fleets of real daemons *)

type fleet = { procs : Proc.child list; front : string }

(* [`Serve]: one [adcopt serve] with the CLI defaults. [`Route]: an
   [adcopt route] over two [adcopt serve -j 1]. [tag] names sockets,
   stores, logs and traces; every fleet starts with empty stores. The
   router places keys on a ring of its backends' socket paths, so fleets
   that must split fanned-out requests alike share a tag (and cannot run
   at the same time). *)
let start_fleet ~traced ~tag kind =
  let serve name extra =
    let sock = name ^ ".sock" in
    rm_rf (name ^ ".store");
    rm_rf (name ^ ".jsonl");
    let trace = if traced then [ "--trace"; name ^ ".jsonl" ] else [] in
    let c = Proc.spawn ~name ([ "serve"; "--socket"; sock; "--store"; name ^ ".store" ] @ extra @ trace) in
    (c, sock)
  in
  let t0 = Proc.now_s () in
  let fleet =
    match kind with
    | `Serve ->
      let c, sock = serve (tag ^ "-serve") [] in
      Proc.wait_ready c sock;
      { procs = [ c ]; front = sock }
    | `Route ->
      let backends = List.map (fun b -> serve (Printf.sprintf "%s-b%d" tag b) [ "--jobs"; "1" ]) [ 0; 1 ] in
      let sock = tag ^ "-route.sock" in
      let router =
        Proc.spawn ~name:(tag ^ "-route")
          [ "route"; "--socket"; sock; "--backends"; String.concat "," (List.map snd backends) ]
      in
      List.iter (fun (c, s) -> Proc.wait_ready c s) backends;
      Proc.wait_ready router sock;
      { procs = router :: List.map fst backends; front = sock }
  in
  (fleet, Proc.now_s () -. t0)

let rss_mb fleet = List.fold_left (fun acc c -> acc +. Proc.vm_hwm_mb c.Proc.pid) 0.0 fleet.procs

let stop_fleet fleet =
  List.iter Proc.terminate fleet.procs;
  List.iter (fun c -> Proc.reap c) fleet.procs

(* Set-up samples are cold starts taken between the samples of the
   measurement rather than all before it, and [setup_s] is their
   [Stats.quiet_median]: on a shared host a burst of load lasts seconds,
   and one that covers less than half of the run cannot move it. *)
let chunks ctx = if ctx.smoke then 1 else 21

(* a set-up sample: [f ()]'s time, with the steal rate while it ran *)
let setup_sample f =
  let dt, _, steal = Proc.timed f in
  (dt, steal)

(* one cold start of a fleet that then stops unused *)
let cold_start kind =
  setup_sample (fun () ->
      let fleet, dt = start_fleet ~traced:false ~tag:"cold" kind in
      stop_fleet fleet;
      dt)

let stats fleet =
  match Proc.round_trip fleet.front {|{"id":0,"verb":"stats"}|} with
  | line -> Option.value (Json.member "result" (Json.parse line)) ~default:Json.Null
  | exception (Unix.Unix_error _ | End_of_file | Sys_error _ | Json.Parse_error _) -> Json.Null

let stat_int path j =
  match Json.member_path path j with Some (Json.Int n) -> float_of_int n | _ -> 0.0

(* ------------------------------------------------------------------ *)
(* daemon traces joined by req_id *)

type served = { queue_ms : float; service_ms : float }

(* Each daemon's requests by req_id, from the [serve.queue] and
   [serve.request] spans of its trace. A daemon names requests that
   carry no req_id itself, so ids are unique only within one trace. *)
let served_spans fleet =
  List.concat_map
    (fun c ->
      let file = c.Proc.name ^ ".jsonl" in
      let tbl = Hashtbl.create 4096 in
      let get rid = Option.value (Hashtbl.find_opt tbl rid) ~default:{ queue_ms = 0.0; service_ms = 0.0 } in
      if Sys.file_exists file then
        List.iter
          (fun (e : Obs.Sink.event) ->
            let ms = Obs.Clock.ns_to_ms e.Obs.Sink.dur_ns in
            match (e.Obs.Sink.name, List.assoc_opt "req_id" e.Obs.Sink.attrs) with
            | "serve.queue", Some (Obs.Sink.String rid) -> Hashtbl.replace tbl rid { (get rid) with queue_ms = ms }
            | "serve.request", Some (Obs.Sink.String rid) -> Hashtbl.replace tbl rid { (get rid) with service_ms = ms }
            | _ -> ())
          (Adc_report.Trace_reader.load_file file).Adc_report.Trace_reader.events;
      List.of_seq (Hashtbl.to_seq tbl))
    fleet.procs

(* ------------------------------------------------------------------ *)
(* hybrid-k10 *)

let hybrid_untraced ctx =
  let t_end = Proc.now_s () +. ctx.seconds in
  let ready_s () = setup_sample (fun () -> Hybrid.ready_s ~self:ctx.self) in
  let ready = ref [ ready_s () ] in
  let nproc = Hybrid.nproc () in
  let k = if ctx.smoke then 8 else Hybrid.k in
  let failed = ref 0 in
  (* warm-up, untimed: the pinned known answer *)
  let warm = Hybrid.run_unit ~k ~jobs:nproc ~seed:Hybrid.pinned_seed () in
  if (not ctx.smoke)
     && (warm.Hybrid.optimum <> Hybrid.pinned_optimum
        || warm.Hybrid.evaluations <> Hybrid.pinned_evaluations)
  then incr failed;
  let rec units i acc =
    let walls = List.map (fun ((u : Hybrid.unit_result), _) -> u.Hybrid.wall_s) acc in
    (* leave room for one more unit and the sequential check *)
    let enough = Proc.now_s () +. (2.0 *. Stats.median walls) > t_end in
    if (i > 2 && enough) || (ctx.smoke && i > 1) then List.rev acc
    else begin
      ready := ready_s () :: ready_s () :: !ready;
      let u, _, steal =
        Proc.timed (fun () -> Hybrid.run_unit ~k ~jobs:nproc ~seed:(Hybrid.unit_seed ~seed:ctx.seed i) ())
      in
      units (i + 1) ((u, steal) :: acc)
    end
  in
  let timed = units 1 [] in
  (* the same search at jobs = 1 must give the same bytes *)
  let first, _ = List.hd timed in
  let seq = Hybrid.run_unit ~k ~jobs:1 ~seed:(Hybrid.unit_seed ~seed:ctx.seed 1) () in
  if seq.Hybrid.payload <> first.Hybrid.payload then incr failed;
  {
    attempted = List.length timed + 2;
    failed = !failed;
    measured =
      [
        ("setup_s", Stats.quiet_median !ready);
        ("p50_ms", Stats.quiet_median (List.map (fun ((u : Hybrid.unit_result), s) -> (1e3 *. u.Hybrid.wall_s, s)) timed));
        ("peak_rss_mb", Proc.self_hwm_mb ());
      ];
    extras = [];
    spans = [];
  }

(* Four units of the pinned search: a warm-up, then jobs = 1, jobs =
   nproc, and jobs = nproc with the library's spans and metrics on. Every
   traced run makes this probe, so the hybrid flow's layers are measured
   whatever the workload. Also returns the payload of the pinned search
   and the walls of the last two units, for hybrid-k10's own tracing
   overhead. *)
let hybrid_probe ctx =
  let nproc = Hybrid.nproc () in
  let k = if ctx.smoke then 8 else Hybrid.k in
  let seed = Hybrid.pinned_seed in
  let warm = Hybrid.run_unit ~k ~jobs:nproc ~seed () in
  let seq = Hybrid.run_unit ~k ~jobs:1 ~seed () in
  let par = Hybrid.run_unit ~k ~jobs:nproc ~seed () in
  let obs = Obs.in_memory () in
  let traced = Hybrid.run_unit ~obs ~k ~jobs:nproc ~seed () in
  let failed =
    List.length (List.filter (fun (u : Hybrid.unit_result) -> u.Hybrid.payload <> warm.Hybrid.payload) [ seq; par; traced ])
  in
  let events = Obs.Sink.drain obs.Obs.sink in
  let snapshot = Obs.Metrics.snapshot obs.Obs.metrics in
  let counter name = match List.assoc_opt name snapshot with Some (Obs.Metrics.Counter n) -> float_of_int n | _ -> 0.0 in
  let busy =
    List.fold_left
      (fun acc (name, s) ->
        match s with
        | Obs.Metrics.Counter n when String.ends_with ~suffix:".busy_ns" name -> acc +. float_of_int n
        | _ -> acc)
      0.0 snapshot
  in
  let queue_mean_ms =
    match List.assoc_opt "pool.queue_latency_ns" snapshot with
    | Some (Obs.Metrics.Histogram { count; sum; _ }) when count > 0 -> sum /. float_of_int count /. 1e6
    | _ -> 0.0
  in
  let jobs = List.filter (fun (e : Obs.Sink.event) -> e.Obs.Sink.name = "optimize.job") events in
  let job_s = List.map (fun (e : Obs.Sink.event) -> Obs.Clock.ns_to_s e.Obs.Sink.dur_ns) jobs in
  let hits = counter "memo.hit" and misses = counter "memo.miss" in
  let probe =
    {
      attempted = 4;
      failed;
      measured =
        [
          ("synth.evaluator_calls", float_of_int warm.Hybrid.evaluations);
          ("synth.evals_per_s", float_of_int par.Hybrid.evaluations /. par.Hybrid.wall_s);
          ("hybrid.wall_s_seq", seq.Hybrid.wall_s);
          ("exec.parallel_speedup", seq.Hybrid.wall_s /. par.Hybrid.wall_s);
          ("pool.busy_frac", busy /. 1e9 /. (float_of_int nproc *. traced.Hybrid.wall_s));
          ("pool.queue_wait_ms.mean", queue_mean_ms);
          ("memo.hit_ratio", if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0);
          ("optimize.job_s.max", List.fold_left Float.max 0.0 job_s);
          ("optimize.cold_jobs", float_of_int traced.Hybrid.cold_jobs);
          ("optimize.warm_jobs", float_of_int traced.Hybrid.warm_jobs);
        ];
      extras = [];
      spans = events;
    }
  in
  (probe, warm.Hybrid.payload, (par.Hybrid.wall_s, traced.Hybrid.wall_s))

(* hybrid-k10's own tracing overhead: pairs of pinned units at jobs =
   nproc, untraced then traced, until the run time is used; the probe's
   pair is the first. Every unit must give the pinned bytes. *)
let hybrid_traced ctx ~t_end ~payload (plain0, traced0) =
  let k = if ctx.smoke then 8 else Hybrid.k in
  let unit ?obs () = Hybrid.run_unit ?obs ~k ~jobs:(Hybrid.nproc ()) ~seed:Hybrid.pinned_seed () in
  let rec go plain traced units =
    let pair_s = Stats.median plain +. Stats.median traced in
    if ctx.smoke || Proc.now_s () +. pair_s > t_end then (plain, traced, units)
    else
      let p = unit () in
      let t = unit ~obs:(Obs.in_memory ()) () in
      go (p.Hybrid.wall_s :: plain) (t.Hybrid.wall_s :: traced) (p :: t :: units)
  in
  let plain, traced, units = go [ plain0 ] [ traced0 ] [] in
  {
    attempted = List.length units;
    failed = List.length (List.filter (fun (u : Hybrid.unit_result) -> u.Hybrid.payload <> payload) units);
    measured = [ ("obs.overhead_frac", (Stats.median traced /. Stats.median plain) -. 1.0) ];
    extras = [];
    spans = [];
  }

(* ------------------------------------------------------------------ *)
(* serve-mix and route-mix *)

let lo_rate = 500.0
let mid_rate = 1000.0
let depth = 4

let mix_stream ctx ~n = Mix.generate ~card:(Mix.load_card ctx.root) ~seed:ctx.seed ~n

(* A closed loop of [depth] requests in flight: an untimed warm-up, then
   the measured part in [chunks], each followed by a cold start of a
   second fleet of the same kind while the first one idles. *)
let mix_untraced ctx kind =
  let seconds = if ctx.smoke then 0.5 else ctx.seconds in
  let n = chunks ctx in
  let stream = mix_stream ctx ~n:Mix.closed_stream_len in
  let fleet, _ = start_fleet ~traced:false ~tag:"mix" kind in
  let warm = Mix.run_closed ~depth ~dur_s:(0.1 *. seconds) ~path:fleet.front stream in
  let rec go i first loops setups =
    if i = n then (loops, setups)
    else
      let r, _, steal =
        Proc.timed (fun () ->
            Mix.run_closed ~first ~depth ~dur_s:(0.9 *. seconds /. float_of_int n) ~path:fleet.front stream)
      in
      let dt = cold_start kind in
      go (i + 1) (first + r.Mix.n_sent) ((r, steal) :: loops) (dt :: setups)
  in
  let loops, setups = go 0 warm.Mix.n_sent [] [] in
  let rss = rss_mb fleet in
  stop_fleet fleet;
  let all = warm :: List.map fst loops in
  {
    attempted = List.fold_left (fun a l -> a + l.Mix.n_sent) 0 all;
    failed = List.fold_left (fun a l -> a + l.Mix.wrong) 0 all;
    measured =
      [
        ("setup_s", Stats.quiet_median setups);
        ("p50_ms", Stats.quiet_median (List.map (fun (l, s) -> (p50 l.Mix.answered_ms, s)) loops));
        ("peak_rss_mb", rss);
      ];
    extras = [];
    spans = [];
  }

(* The traced run measures the closed loop on an untraced fleet and then
   climbs the rate ladder on it; then it measures the closed loop on a
   fleet whose daemons trace every request, sends it the lo and mid
   rates, and joins those requests' spans to the generator's own
   timings. *)
let mix_traced ctx kind =
  let rung_s = if ctx.smoke then 0.3 else 0.05 *. ctx.seconds in
  let loop_s = if ctx.smoke then 0.3 else 0.08 *. ctx.seconds in
  let stream = mix_stream ctx ~n:Mix.closed_stream_len in
  let first = ref 0 in
  let send ?traced fleet steps =
    let results, samples = Mix.run_open ?traced ~first:!first ~path:fleet.front ~stream steps in
    let f = !first in
    first := !first + Array.length samples;
    (results, samples, f)
  in
  let loop fleet =
    let r = Mix.run_closed ~first:!first ~depth ~dur_s:loop_s ~path:fleet.front stream in
    first := !first + r.Mix.n_sent;
    r
  in
  (* the untraced fleet *)
  let fleet, _ = start_fleet ~traced:false ~tag:"fleet" kind in
  let plain = loop fleet in
  let rec climb rates acc =
    match rates with
    | [] -> List.rev acc
    | rate :: rest ->
      let r =
        match send fleet [ { Mix.rate; dur_s = rung_s } ] with
        | [ r ], _, _ -> r
        | _ -> { Mix.srate = rate; sent_n = 0; latencies_ms = []; lateness_ms = []; bad = 0; wrong = 0; tail_ok = false; aborted = true }
      in
      if Mix.meets_slo r || rate <= mid_rate then climb rest (r :: acc) else List.rev (r :: acc)
  in
  let rungs = climb (if ctx.smoke then [ lo_rate ] else Mix.ladder) [] in
  let ladder_stats = stats fleet in
  stop_fleet fleet;
  let passing = List.filter Mix.meets_slo rungs in
  let top = List.fold_left (fun acc r -> match acc with Some t when t.Mix.srate >= r.Mix.srate -> acc | _ -> Some r) None passing in
  let at rate = List.find_opt (fun r -> r.Mix.srate = rate) rungs in
  let at_rung f = function Some r -> f r.Mix.latencies_ms | None -> 0.0 in
  (* the traced fleet *)
  let tfleet, _ = start_fleet ~traced:true ~tag:"fleet" kind in
  let traced_loop = loop tfleet in
  let results, samples, f0 =
    send ~traced:true tfleet
      [ { Mix.rate = lo_rate; dur_s = rung_s }; { Mix.rate = mid_rate; dur_s = rung_s } ]
  in
  let tstats = stats tfleet in
  stop_fleet tfleet;
  let spans = Hashtbl.of_seq (List.to_seq (served_spans tfleet)) in
  let joined =
    Array.to_list samples
    |> List.mapi (fun j (s : Mix.sample) -> (j, s))
    |> List.filter_map (fun (j, (s : Mix.sample)) ->
           match Hashtbl.find_opt spans (Printf.sprintf "q%d" (f0 + j)) with
           | Some sv when s.Mix.finished <> 0L && s.Mix.sent <> 0L ->
             Some (s.Mix.step, Mix.ms_of_ns (Int64.sub s.Mix.finished s.Mix.sent), sv)
           | _ -> None)
  in
  let queue = List.map (fun (_, _, sv) -> sv.queue_ms) joined in
  let service = List.map (fun (_, _, sv) -> sv.service_ms) joined in
  (* what lies outside the daemon, at the lo rate where little queues
     in front of it *)
  let outside =
    List.filter_map
      (fun (step, lat, sv) -> if step = 0 then Some (lat -. sv.queue_ms -. sv.service_ms) else None)
      joined
  in
  let store_hits = stat_int "store.hits" ladder_stats and store_misses = stat_int "store.misses" ladder_stats in
  let routed =
    match kind with
    | `Serve -> [ ("serve.wire_ms.p50", p50 outside); ("store.hit_ratio", store_hits /. Float.max 1.0 (store_hits +. store_misses)) ]
    | `Route ->
      let h = stat_int "aggregate.store_hits" ladder_stats and m = stat_int "aggregate.store_misses" ladder_stats in
      [
        ("route.overhead_ms.p50", p50 outside);
        ("store.hit_ratio", h /. Float.max 1.0 (h +. m));
        ( "route.fanout_subrequests",
          stat_int "aggregate.requests" tstats /. Float.max 1.0 (stat_int "router.requests" tstats) );
        ("route.replica_offers", stat_int "router.replica_offers" ladder_stats);
        ("route.replica_hits", stat_int "router.replica_hits" ladder_stats);
        ("route.donations", stat_int "router.donations" ladder_stats);
        ("route.reroutes", stat_int "router.reroutes" ladder_stats);
        ("route.retries", stat_int "router.retries" ladder_stats);
        ("cluster.job_hits", stat_int "aggregate.job_hits" ladder_stats);
        ("cluster.store_hits", h);
      ]
  in
  let loops = [ plain; traced_loop ] in
  {
    attempted =
      List.fold_left (fun a r -> a + r.Mix.sent_n) 0 (rungs @ results)
      + List.fold_left (fun a l -> a + l.Mix.n_sent) 0 loops;
    (* an open loop above what the fleet serves is answered with
       overload refusals or late, which the ladder's SLO judges; only an
       error or wrong bytes is a failure *)
    failed =
      List.fold_left (fun a (r : Mix.step_result) -> a + r.wrong) 0 (rungs @ results)
      + List.fold_left (fun a l -> a + l.Mix.wrong) 0 loops;
    measured =
      [ ("obs.overhead_frac", (p50 traced_loop.Mix.answered_ms /. p50 plain.Mix.answered_ms) -. 1.0) ];
    extras =
      [
        ("serve.queue_wait_ms.p50", p50 queue);
        ("serve.queue_wait_ms.p99", p99 queue);
        ("serve.service_ms.p50", p50 service);
        ("serve.service_ms.p99", p99 service);
        ( "serve.overloaded",
          stat_int (match kind with `Serve -> "overloaded" | `Route -> "aggregate.overloaded") ladder_stats );
        ("mix.p50_ms.lo", at_rung p50 (at lo_rate));
        ("mix.p99_ms.lo", at_rung p99 (at lo_rate));
        ("mix.p50_ms.mid", at_rung p50 (at mid_rate));
        ("mix.p99_ms.mid", at_rung p99 (at mid_rate));
        ("ladder.max_rate_rps", match top with Some r -> r.Mix.srate | None -> 0.0);
        ("ladder.p50_ms.top", at_rung p50 top);
        ("ladder.p99_ms.top", at_rung p99 top);
        ("gen.lag_ms.p99", match at lo_rate with Some r -> p99 r.Mix.lateness_ms | None -> 0.0);
      ]
      @ routed;
    spans = [];
  }

(* ------------------------------------------------------------------ *)
(* route-hybrid *)

(* The smoke pass sends two lines of the template: a synth and a
   batch. *)
let sweep ctx ~seed =
  let script = Script.generate ~seed in
  if ctx.smoke then Array.sub script 2 2 else script

type swept = {
  script : Script.request array;
  outcomes : Script.outcome array;
  steal : float;  (** ticks stolen per second during the sweep *)
  rss : float;
  setups : (float * float) list;
}

(* One sweep per fresh fleet, so every sweep starts cold. The fleet's
   start and two cold starts after the sweep are set-up samples. The
   first sweep is an untimed warm-up; the run's value is the quiet median
   time of the sweeps after it, each drawn from the run seed. *)
let route_hybrid_untraced ctx =
  let t_end = Proc.now_s () +. ctx.seconds in
  let run_sweep i =
    let (fleet, dt), _, start_steal = Proc.timed (fun () -> start_fleet ~traced:false ~tag:"sweep" `Route) in
    let script = sweep ctx ~seed:(Adc_numerics.Rng.mix ctx.seed i) in
    let outcomes, _, steal = Proc.timed (fun () -> Script.run ~path:fleet.front script) in
    let rss = rss_mb fleet in
    stop_fleet fleet;
    { script; outcomes; steal; rss; setups = [ (dt, start_steal); cold_start `Route; cold_start `Route ] }
  in
  let warm = run_sweep 0 in
  let wall s = Script.wall_ms s.outcomes in
  let rec sweeps i acc =
    let enough = Proc.now_s () +. (1.1 *. Stats.median (List.map wall acc) /. 1e3) > t_end in
    if acc <> [] && (ctx.smoke || (List.length acc >= 3 && enough)) then acc
    else sweeps (i + 1) (run_sweep i :: acc)
  in
  let timed = sweeps 1 [] in
  let all = warm :: timed in
  {
    attempted = List.fold_left (fun a s -> a + Array.length s.script) 0 all;
    failed = List.fold_left (fun a s -> a + Script.wrong s.script s.outcomes) 0 all;
    measured =
      [
        ("setup_s", Stats.quiet_median (List.concat_map (fun s -> s.setups) all));
        ("p50_ms", Stats.quiet_median (List.map (fun s -> (wall s, s.steal)) timed));
        ("peak_rss_mb", Stats.median (List.map (fun s -> s.rss) timed));
      ];
    extras = [];
    spans = [];
  }

(* Pairs of sweeps, the same sweep on an untraced fleet and then on a
   fleet whose backends trace; the router counters are the first traced
   sweep's. *)
let route_hybrid_traced ctx =
  let pairs = if ctx.smoke then 1 else 3 in
  let pair i =
    let script = sweep ctx ~seed:(Adc_numerics.Rng.mix ctx.seed i) in
    let on ~traced =
      let fleet, _ = start_fleet ~traced ~tag:"sweep" `Route in
      let o = Script.run ~path:fleet.front script in
      let st = stats fleet in
      stop_fleet fleet;
      (o, st, if traced then List.map snd (served_spans fleet) else [])
    in
    let plain, _, _ = on ~traced:false in
    let traced, st, spans = on ~traced:true in
    (script, plain, traced, st, spans)
  in
  let runs = List.init pairs pair in
  let _, _, _, st, _ = List.hd runs in
  let all = List.concat_map (fun (_, _, _, _, sp) -> sp) runs in
  let queue = List.map (fun v -> v.queue_ms) all and service = List.map (fun v -> v.service_ms) all in
  let median_wall f = Stats.median (List.map (fun r -> Script.wall_ms (f r)) runs) in
  {
    attempted = List.fold_left (fun a (s, _, _, _, _) -> a + (2 * Array.length s)) 0 runs;
    failed = List.fold_left (fun a (s, p, t, _, _) -> a + Script.wrong s p + Script.wrong s t) 0 runs;
    measured =
      [
        ( "obs.overhead_frac",
          (median_wall (fun (_, _, t, _, _) -> t) /. median_wall (fun (_, p, _, _, _) -> p)) -. 1.0 );
      ];
    extras =
      [
        ("serve.queue_wait_ms.p50", p50 queue);
        ("serve.queue_wait_ms.p99", p99 queue);
        ("serve.service_ms.p50", p50 service);
        ("serve.service_ms.p99", p99 service);
        ( "store.hit_ratio",
          let h = stat_int "aggregate.store_hits" st and m = stat_int "aggregate.store_misses" st in
          h /. Float.max 1.0 (h +. m) );
        ("route.fanout_subrequests", stat_int "aggregate.requests" st /. Float.max 1.0 (stat_int "router.requests" st));
        ("route.replica_offers", stat_int "router.replica_offers" st);
        ("route.replica_hits", stat_int "router.replica_hits" st);
        ("route.donations", stat_int "router.donations" st);
        ("route.reroutes", stat_int "router.reroutes" st);
        ("route.retries", stat_int "router.retries" st);
        ("cluster.job_hits", stat_int "aggregate.job_hits" st);
        ("cluster.store_hits", stat_int "aggregate.store_hits" st);
      ];
    spans = [];
  }

(* ------------------------------------------------------------------ *)

let work_dir ctx name =
  Filename.concat ctx.root
    (Filename.concat "bench" (Filename.concat "adcbench" (Filename.concat "_work" (Printf.sprintf "%s-%d" name (Unix.getpid ())))))

(* Layer replays shared by every traced run: the evaluator split and
   the offline replay of the serve-mix stream. *)
let replays ctx =
  let s = if ctx.smoke then 0.3 else ctx.seconds in
  Layers.evaluator ~obs:ctx.obs ~seed:ctx.seed ~seconds:(0.2 *. s)
  @ Layers.wire ~obs:ctx.obs ~card:(Mix.load_card ctx.root) ~seed:ctx.seed ~seconds:(0.1 *. s)
      ~store_dir:"replay.store"

let run ctx ~name ~trace : Record.run * Obs.Sink.event list =
  let t_end = Proc.now_s () +. ctx.seconds in
  let schema = Schema.load (Filename.concat ctx.root Schema.file) in
  let work = work_dir ctx name in
  rm_rf work;
  mkdir_p work;
  let body () =
    Sys.chdir work;
    if trace then begin
      let layers = replays ctx in
      let probe, payload, pair = hybrid_probe ctx in
      let own =
        match name with
        | "hybrid-k10" -> hybrid_traced ctx ~t_end ~payload pair
        | "serve-mix" -> mix_traced ctx `Serve
        | "route-mix" -> mix_traced ctx `Route
        | "route-hybrid" -> route_hybrid_traced ctx
        | w -> invalid_arg ("unknown workload " ^ w)
      in
      ( {
          own with
          attempted = probe.attempted + own.attempted;
          failed = probe.failed + own.failed;
          measured = layers @ probe.measured @ own.measured;
          spans = probe.spans;
        },
        schema.Schema.per_layer )
    end
    else
      ( (match name with
        | "hybrid-k10" -> hybrid_untraced ctx
        | "serve-mix" -> mix_untraced ctx `Serve
        | "route-mix" -> mix_untraced ctx `Route
        | "route-hybrid" -> route_hybrid_untraced ctx
        | w -> invalid_arg ("unknown workload " ^ w)),
        schema.Schema.end_to_end )
  in
  let o, declared =
    Fun.protect
      ~finally:(fun () ->
        Proc.stop_all ();
        Sys.chdir ctx.root;
        rm_rf work)
      body
  in
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun (m : Schema.metric) -> m.name = name) declared) then
        failwith (name ^ " was measured but " ^ Schema.file ^ " does not declare it"))
    o.measured;
  ( {
      Record.workload = name;
      seed = ctx.seed;
      trace;
      correct = o.failed = 0;
      attempted = o.attempted;
      failed = o.failed;
      metrics =
        List.map
          (fun { Schema.name; unit; _ } ->
            match List.assoc_opt name o.measured with
            | Some v -> Record.metric (name, v, unit)
            | None -> failwith (name ^ " was not measured"))
          declared;
      extras =
        List.filter_map
          (fun { Schema.name; unit; _ } ->
            Option.map (fun v -> Record.metric (name, v, unit)) (List.assoc_opt name o.extras))
          Schema.extras;
    },
    o.spans )
