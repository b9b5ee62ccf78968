(* Tests for the parallel execution engine: the domain pool, the
   promise-based memo cache, and the determinism contract of the
   parallel hybrid optimizer (jobs=N must reproduce jobs=1 bit-exactly). *)

module Pool = Adc_exec.Pool
module Future = Adc_exec.Future
module Memo = Adc_exec.Memo
module Rng = Adc_numerics.Rng
module Spec = Adc_pipeline.Spec
module Config = Adc_pipeline.Config
module Optimize = Adc_pipeline.Optimize
module Synthesizer = Adc_synth.Synthesizer
module Job_key = Adc_pipeline.Job_key

(* a pool size > 1 even on single-core hosts, so the parallel machinery
   (domains, queue, futures) is genuinely exercised everywhere *)
let parallel_size = Stdlib.max 4 (Pool.recommended_size ())

(* ------------------------------------------------------------------ *)
(* Future *)

let test_future_resolve () =
  let fut = Future.create () in
  Alcotest.(check bool) "pending" false (Future.is_resolved fut);
  Future.resolve fut 42;
  Alcotest.(check bool) "settled" true (Future.is_resolved fut);
  Alcotest.(check int) "await" 42 (Future.await fut);
  Alcotest.(check int) "await again" 42 (Future.await fut);
  Alcotest.(check bool) "double resolve rejected" true
    (try
       Future.resolve fut 43;
       false
     with Invalid_argument _ -> true)

let test_future_fail () =
  let fut = Future.create () in
  Future.fail fut Exit;
  Alcotest.(check bool) "await re-raises" true
    (try
       ignore (Future.await fut);
       false
     with Exit -> true)

let test_future_cross_domain () =
  let fut = Future.create () in
  let producer = Domain.spawn (fun () -> Future.resolve fut "from-worker") in
  Alcotest.(check string) "value crosses domains" "from-worker" (Future.await fut);
  Domain.join producer

(* ------------------------------------------------------------------ *)
(* Pool *)

(* submit every element, then await the futures in list order *)
let submit_all pool f xs =
  List.map (fun x -> Pool.submit pool (fun () -> f x)) xs |> List.map Future.await

let test_pool_executes_all_exactly_once () =
  Pool.with_pool ~size:parallel_size (fun pool ->
      let n = 200 in
      let hits = Array.make n 0 in
      let mutex = Mutex.create () in
      let results =
        submit_all pool
          (fun i ->
            Mutex.lock mutex;
            hits.(i) <- hits.(i) + 1;
            Mutex.unlock mutex;
            i * i)
          (List.init n Fun.id)
      in
      Alcotest.(check (list int)) "results in submission order"
        (List.init n (fun i -> i * i))
        results;
      Alcotest.(check bool) "every task ran exactly once" true
        (Array.for_all (fun c -> c = 1) hits))

let test_pool_sequential_matches_parallel () =
  let work = List.init 50 (fun i -> i - 25) in
  let f x = (x * 7) + (x * x) in
  let seq = Pool.with_pool ~size:1 (fun p -> submit_all p f work) in
  let par = Pool.with_pool ~size:parallel_size (fun p -> submit_all p f work) in
  Alcotest.(check (list int)) "size-1 pool equals parallel pool" seq par;
  Alcotest.(check (list int)) "both equal plain List.map" (List.map f work) seq

let test_pool_propagates_exceptions () =
  List.iter
    (fun size ->
      let label = Printf.sprintf "size %d" size in
      Pool.with_pool ~size (fun pool ->
          (* submit: exception surfaces at await *)
          (if size > 1 then begin
             let fut = Pool.submit pool (fun () -> failwith "boom") in
             Alcotest.(check bool) (label ^ ": await re-raises") true
               (try
                  ignore (Future.await fut);
                  false
                with Failure m -> m = "boom")
           end
           else
             (* inline pools settle the future during submit *)
             let fut = Pool.submit pool (fun () -> failwith "boom") in
             Alcotest.(check bool) (label ^ ": inline failure captured") true
               (try
                  ignore (Future.await fut);
                  false
                with Failure m -> m = "boom"));
          (* a failing task fails its own future, not its siblings' *)
          let futs =
            List.map
              (fun i -> Pool.submit pool (fun () -> if i = 3 then raise Exit else i))
              [ 0; 1; 2; 3; 4 ]
          in
          Alcotest.(check (list int)) (label ^ ": siblings settle") [ 0; 1; 2; 4 ]
            (List.filteri (fun i _ -> i <> 3) futs |> List.map Future.await);
          Alcotest.(check bool) (label ^ ": the failure re-raised") true
            (try
               ignore (Future.await (List.nth futs 3));
               false
             with Exit -> true)))
    [ 1; parallel_size ]

let test_pool_shutdown_drains () =
  let pool = Pool.create ~size:parallel_size () in
  let counter = Atomic.make 0 in
  for _ = 1 to 100 do
    Pool.async pool (fun () -> Atomic.incr counter)
  done;
  Pool.shutdown pool;
  Alcotest.(check int) "all queued tasks ran before shutdown returned" 100
    (Atomic.get counter);
  Alcotest.(check bool) "submit after shutdown rejected" true
    (try
       Pool.async pool ignore;
       false
     with Invalid_argument _ -> true)

(* The worker domains a pool of [size] runs its tasks on: [size] tasks
   that each wait until all have started, so every worker takes one *)
let worker_ids size =
  Pool.with_pool ~size (fun pool ->
      let m = Mutex.create () and all_in = Condition.create () in
      let ids = ref [] in
      let task () =
        Mutex.protect m (fun () ->
            ids := (Domain.self () :> int) :: !ids;
            Condition.broadcast all_in;
            while List.length !ids < size do
              Condition.wait all_in m
            done)
      in
      List.init size (fun _ -> Pool.submit pool task) |> List.iter Future.await;
      List.sort_uniq compare !ids)

let test_pool_reuses_domains () =
  let first = worker_ids 2 in
  Alcotest.(check int) "two workers" 2 (List.length first);
  Alcotest.(check bool) "workers are not the caller" false
    (List.mem (Domain.self () :> int) first);
  Alcotest.(check (list int)) "the next pool runs on the same domains" first (worker_ids 2);
  let wider = worker_ids 3 in
  Alcotest.(check int) "three workers" 3 (List.length wider);
  Alcotest.(check (list int)) "a wider pool adds exactly one domain" first
    (List.filter (fun id -> List.mem id first) wider)

let test_pool_shutdown_waits_for_inflight () =
  let pool = Pool.create ~size:2 () in
  let started = Atomic.make 0 and finished = Atomic.make 0 in
  for _ = 1 to 2 do
    Pool.async pool (fun () ->
        Atomic.incr started;
        Unix.sleepf 0.2;
        Atomic.incr finished)
  done;
  while Atomic.get started < 2 do
    Domain.cpu_relax ()
  done;
  Pool.shutdown pool;
  Alcotest.(check int) "in-flight tasks finished before shutdown returned" 2
    (Atomic.get finished)

(* [pool_exit.exe] leaves a pool's workers parked in the reserve and
   returns from its main: the process must still end, and promptly *)
let test_exit_with_parked_domains () =
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "pool_exit.exe" in
  let pid = Unix.create_process exe [| exe |] Unix.stdin Unix.stdout Unix.stderr in
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.05;
      wait ()
    | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      Alcotest.fail "a process with parked worker domains did not exit"
    | _, status -> status
  in
  match wait () with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> Alcotest.failf "pool_exit.exe exited %d" c
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> Alcotest.failf "pool_exit.exe killed by signal %d" n

(* ------------------------------------------------------------------ *)
(* Memo *)

let test_memo_computes_each_key_once () =
  Pool.with_pool ~size:parallel_size (fun pool ->
      let memo : (int, int) Memo.t = Memo.create () in
      let computed = Atomic.make 0 in
      (* 40 requests race over 10 distinct keys *)
      let futures =
        List.init 40 (fun i ->
            Memo.find_or_run memo pool (i mod 10) (fun fut ->
                Pool.async pool (fun () ->
                    Atomic.incr computed;
                    Future.resolve fut (i mod 10 * 100))))
      in
      List.iteri
        (fun i fut ->
          Alcotest.(check int)
            (Printf.sprintf "request %d sees the shared result" i)
            (i mod 10 * 100) (Future.await fut))
        futures;
      Alcotest.(check int) "10 distinct keys computed" 10 (Atomic.get computed);
      Alcotest.(check int) "cache holds 10 keys" 10 (Memo.length memo);
      (* 40 find_or_run calls over 10 keys: 10 misses, 30 hits *)
      Alcotest.(check (pair int int)) "hit/miss counters" (30, 10)
        (Memo.stats memo))

let test_memo_caches_failures () =
  Pool.with_pool ~size:1 (fun pool ->
      let memo : (string, int) Memo.t = Memo.create () in
      let calls = Atomic.make 0 in
      let compute fut =
        Pool.async pool (fun () ->
            Atomic.incr calls;
            Future.fail fut Exit)
      in
      let f1 = Memo.find_or_run memo pool "k" compute in
      let f2 = Memo.find_or_run memo pool "k" compute in
      Alcotest.(check bool) "same future" true (f1 == f2);
      Alcotest.(check bool) "failure propagates" true
        (try
           ignore (Future.await f2);
           false
         with Exit -> true);
      Alcotest.(check int) "failed computation not retried" 1 (Atomic.get calls))

(* a requester that finds a future finds the tasks that settle it
   already queued: on a worker pool the first requester enqueues them
   before anyone else can see the future, so a racing requester cannot
   queue tasks that await it ahead of them *)
let test_memo_found_future_is_queued () =
  Pool.with_pool ~size:2 (fun pool ->
      let memo : (string, int) Memo.t = Memo.create () in
      let queued = Atomic.make false and seen_queued = Atomic.make false in
      let racer = ref None in
      let fut =
        Memo.find_or_run memo pool "k" (fun fut ->
            racer :=
              Some
                (Thread.create
                   (fun () ->
                     let found = Memo.find_or_run memo pool "k" (fun _ -> ()) in
                     Atomic.set seen_queued (Atomic.get queued);
                     ignore (Future.await found))
                   ());
            (* give the racer time to reach the cache first *)
            Thread.delay 0.05;
            Pool.async pool (fun () -> Future.resolve fut 1);
            Atomic.set queued true)
      in
      Option.iter Thread.join !racer;
      Alcotest.(check int) "settled" 1 (Future.await fut);
      Alcotest.(check bool) "the racer found the tasks queued" true
        (Atomic.get seen_queued);
      Alcotest.(check (pair int int)) "one miss, one hit" (1, 1) (Memo.stats memo))

(* ------------------------------------------------------------------ *)
(* Rng.mix: the per-job seeding primitive *)

let test_rng_mix_deterministic_and_spread () =
  Alcotest.(check int) "deterministic" (Rng.mix 11 5) (Rng.mix 11 5);
  Alcotest.(check bool) "salt matters" true (Rng.mix 11 5 <> Rng.mix 11 6);
  Alcotest.(check bool) "seed matters" true (Rng.mix 11 5 <> Rng.mix 12 5);
  Alcotest.(check bool) "non-negative" true (Rng.mix (-3) 7 >= 0);
  (* adjacent salts must give decorrelated first draws *)
  let d salt = Rng.uniform (Rng.create (Rng.mix 11 salt)) in
  Alcotest.(check bool) "adjacent streams differ" true
    (Float.abs (d 0 -. d 1) > 1e-6)

(* ------------------------------------------------------------------ *)
(* The determinism contract: Optimize.run ~jobs:N == ~jobs:1 *)

let tiny_budget =
  { Synthesizer.sa_iterations = 12; pattern_evals = 20; space_factor = 0.6 }

let run_fingerprint (r : Optimize.run) =
  ( Config.to_string (Optimize.optimum_config r),
    List.map
      (fun (c : Optimize.config_result) ->
        (Config.to_string c.Optimize.config, c.Optimize.p_total))
      r.Optimize.candidates,
    r.Optimize.synthesis_evaluations,
    (r.Optimize.cold_jobs, r.Optimize.warm_jobs) )

(* at attempts 1 only the 12- and 13-bit jobs have an attempt that
   awaits its donors; at attempts 2 every warm job has one, and a 13-bit
   job runs 2 + 4 = 6 attempt tasks *)
let check_parallel_equals_sequential k =
  let spec = Spec.paper_case ~k in
  List.iter
    (fun attempts ->
      let go jobs =
        Optimize.run ~mode:`Hybrid ~seed:7 ~attempts ~budget:tiny_budget ~jobs spec
      in
      let seq = go 1 and par = go parallel_size in
      let opt_s, rank_s, evals_s, cw_s = run_fingerprint seq in
      let opt_p, rank_p, evals_p, cw_p = run_fingerprint par in
      let label what = Printf.sprintf "%d-bit, %d attempts: %s" k attempts what in
      Alcotest.(check string) (label "same optimum") opt_s opt_p;
      Alcotest.(check (list (pair string (float 0.0))))
        (label "bit-equal ranking") rank_s rank_p;
      Alcotest.(check int) (label "same evaluator-call total") evals_s evals_p;
      Alcotest.(check (pair int int)) (label "same cold/warm attribution") cw_s cw_p;
      Alcotest.(check int) (label "distinct-job count unchanged")
        (List.length seq.Optimize.distinct_jobs)
        (List.length par.Optimize.distinct_jobs);
      Alcotest.(check int)
        (label (Printf.sprintf "parallel run used %d domains" parallel_size))
        parallel_size par.Optimize.domains)
    [ 1; 2 ]

let test_parallel_matches_sequential_10_11 () =
  List.iter check_parallel_equals_sequential [ 10; 11 ]

let test_parallel_matches_sequential_12_13 () =
  List.iter check_parallel_equals_sequential [ 12; 13 ]

let test_batch_deterministic_any_jobs () =
  (* run_batch must be a pure function of the spec list: the same batch
     at any --jobs, and each member equal to its own sequential run *)
  let ks = [ 10; 11; 12 ] in
  let specs = List.map (fun k -> Spec.paper_case ~k) ks in
  let go jobs =
    Optimize.run_batch ~mode:`Hybrid ~seed:7 ~attempts:1 ~budget:tiny_budget
      ~jobs specs
  in
  let seq = go 1 and par = go parallel_size in
  Alcotest.(check bool) "fusion saves syntheses" true
    (seq.Optimize.distinct_syntheses < seq.Optimize.job_occurrences);
  Alcotest.(check (pair int int)) "fusion counters independent of jobs"
    (seq.Optimize.job_occurrences, seq.Optimize.distinct_syntheses)
    (par.Optimize.job_occurrences, par.Optimize.distinct_syntheses);
  List.iteri
    (fun i (spec : Spec.t) ->
      let solo =
        Optimize.run ~mode:`Hybrid ~seed:7 ~attempts:1 ~budget:tiny_budget
          ~jobs:1 spec
      in
      let b_seq = List.nth seq.Optimize.batch_runs i in
      let b_par = List.nth par.Optimize.batch_runs i in
      Alcotest.(check bool)
        (Printf.sprintf "k=%d: batch jobs=1 == solo run" spec.Spec.k)
        true
        (run_fingerprint b_seq = run_fingerprint solo);
      Alcotest.(check bool)
        (Printf.sprintf "k=%d: batch jobs=N == batch jobs=1" spec.Spec.k)
        true
        (run_fingerprint b_par = run_fingerprint b_seq))
    specs

(* the one best-of-N search, through the synth policy and directly:
   the winner, the evaluation total and the flags are the same on any
   pool, ties go to the earlier attempt, and a cancel tripped up front
   runs no attempt at all *)
let test_restart_search () =
  let spec = Spec.paper_case ~k:10 in
  let req = Spec.stage_requirements spec { Spec.m = 3; input_bits = 8 } in
  let go ?cancel size =
    Pool.with_pool ~size (fun pool ->
        Optimize.synth_restarts ~pool ~budget:tiny_budget ?cancel ~seed:7
          ~attempts:3 spec.Spec.process req)
  in
  let summary (r : Optimize.restarts) =
    Printf.sprintf "%s evals %d warm %b truncated %b"
      (match r.Optimize.best with
      | None -> "none"
      | Some s ->
        Printf.sprintf "%h/%h/%b/%d" s.Synthesizer.power s.Synthesizer.violation
          s.Synthesizer.feasible s.Synthesizer.evaluations)
      r.Optimize.evaluations r.Optimize.warm r.Optimize.truncated
  in
  (* pinned from an earlier implementation of the search, whose fold
     and seeds this one must keep *)
  let pinned =
    "0x1.5f47dfe2d50b6p-11/0x0p+0/true/52 evals 154 warm false truncated false"
  in
  List.iter
    (fun size ->
      Alcotest.(check string)
        (Printf.sprintf "synth winner on a pool of %d" size)
        pinned (summary (go size)))
    [ 1; 2; 4 ];
  let cancel = Adc_exec.Cancel.create () in
  Adc_exec.Cancel.cancel cancel;
  Alcotest.(check string) "pre-tripped cancel: nothing ran"
    "none evals 0 warm false truncated true" (summary (go ~cancel 2));
  (* the job path's shape: scripted attempts, donors, the fold *)
  let base = Option.get (go 1).Optimize.best in
  let sol ~power ~feasible ~evaluations =
    Ok { base with Synthesizer.power; feasible; evaluations }
  in
  let outcome best =
    let f = Future.create () in
    Future.resolve f
      { Optimize.best; evaluations = 1; warm = false; truncated = false };
    f
  in
  let warm_starts = Array.make 3 None in
  let search ?cancel ?donors size results =
    Pool.with_pool ~size (fun pool ->
        let into = Future.create () in
        Optimize.best_of_n ~pool ?cancel ?donors ~attempts:(List.length results)
          ~into (fun a ~warm_start ->
            warm_starts.(a) <- warm_start;
            List.nth results a);
        Future.await into)
  in
  List.iter
    (fun size ->
      let r =
        search ~donors:[ outcome None; outcome (Some base) ] size
          [
            sol ~power:1e-3 ~feasible:false ~evaluations:1;
            sol ~power:2e-3 ~feasible:true ~evaluations:2;
            sol ~power:2e-3 ~feasible:true ~evaluations:3;
          ]
      in
      let label = Printf.sprintf "pool of %d: " size in
      Alcotest.(check int) (label ^ "a tie goes to the earlier attempt") 2
        (Option.get r.Optimize.best).Synthesizer.evaluations;
      Alcotest.(check int) (label ^ "evaluations summed") 6 r.Optimize.evaluations;
      Alcotest.(check bool) (label ^ "warm from the solved donor") true r.Optimize.warm;
      Alcotest.(check (list bool)) (label ^ "attempt 0 alone starts cold")
        [ false; true; true ]
        (Array.to_list (Array.map Option.is_some warm_starts)))
    [ 1; 4 ];
  Alcotest.(check bool) "attempt 0 alone: warm still means a solved donor" true
    (search ~donors:[ outcome (Some base) ] 2
       [ sol ~power:1e-3 ~feasible:true ~evaluations:1 ])
      .Optimize.warm;
  Alcotest.(check string) "pre-tripped cancel, solved donor: cold, nothing ran"
    "none evals 0 warm false truncated true"
    (summary
       (search ~cancel ~donors:[ outcome (Some base) ] 2
          [ sol ~power:1e-3 ~feasible:true ~evaluations:1;
            sol ~power:1e-3 ~feasible:true ~evaluations:1 ]))

(* an attempt that finds its donor pending is traced as parked: one
   [optimize.donor_wait] span under the attempt's span, tagged with the
   domain; a settled donor is awaited untraced *)
let test_donor_wait_traced () =
  let obs = Adc_obs.in_memory () in
  let attempt_span = Adc_obs.span obs ~name:"attempt" () in
  let outcome = { Optimize.best = None; evaluations = 0; warm = false; truncated = false } in
  let run donor ~settle =
    Pool.with_pool ~size:2 (fun pool ->
        let into = Future.create () in
        Optimize.best_of_n ~pool ~obs ~wait_parent:(fun _ -> attempt_span)
          ~donors:[ donor ] ~attempts:2 ~into (fun _ ~warm_start:_ -> Error "scripted");
        settle ();
        ignore (Future.await into));
    List.filter
      (fun (e : Adc_obs.Sink.event) -> e.Adc_obs.Sink.name = "optimize.donor_wait")
      (Adc_obs.Sink.drain obs.Adc_obs.sink)
  in
  let pending = Future.create () in
  let waits =
    run pending ~settle:(fun () ->
        Thread.delay 0.1;
        Future.resolve pending outcome)
  in
  (match waits with
  | [ w ] ->
    Alcotest.(check (option int)) "child of the attempt span"
      (Some (Adc_obs.Span.id attempt_span)) w.Adc_obs.Sink.parent;
    Alcotest.(check bool) "tagged with the domain" true
      (match List.assoc_opt "domain_id" w.Adc_obs.Sink.attrs with
      | Some (Adc_obs.Sink.Int _) -> true
      | _ -> false);
    Alcotest.(check bool) "lasts the wait" true (w.Adc_obs.Sink.dur_ns > 10_000_000L)
  | ws -> Alcotest.failf "expected one donor wait, got %d" (List.length ws));
  let settled = Future.create () in
  Future.resolve settled outcome;
  Alcotest.(check int) "a settled donor: no wait traced" 0
    (List.length (run settled ~settle:ignore))

(* ------------------------------------------------------------------ *)
(* The submission order: the tallest warm-start chain first *)

(* every donor is submitted before its dependents, each height is one
   more than the tallest dependent's, heights never increase along the
   order, and equal heights keep the hardest-first order *)
let check_submission_order label specs =
  let order =
    Optimize.submission_order ~mode:`Hybrid ~seed:7 ~attempts:2
      ~budget:tiny_budget specs
  in
  let position = Hashtbl.create 16 in
  List.iteri (fun i (s : Optimize.submission) -> Hashtbl.replace position s.Optimize.sub_key i) order;
  let rec height key =
    List.fold_left
      (fun h (s : Optimize.submission) ->
        if List.exists (Job_key.equal key) s.Optimize.sub_donors then
          Stdlib.max h (1 + height s.Optimize.sub_key)
        else h)
      1 order
  in
  let name (s : Optimize.submission) = Spec.job_to_string s.Optimize.sub_job in
  List.iteri
    (fun i (s : Optimize.submission) ->
      List.iter
        (fun d ->
          match Hashtbl.find_opt position d with
          | Some j when j < i -> ()
          | _ -> Alcotest.failf "%s: a donor of %s is not submitted before it" label (name s))
        s.Optimize.sub_donors;
      Alcotest.(check int)
        (Printf.sprintf "%s: height of %s" label (name s))
        (height s.Optimize.sub_key) s.Optimize.sub_height)
    order;
  let rec pairs = function
    | (a : Optimize.submission) :: ((b : Optimize.submission) :: _ as rest) ->
      if b.Optimize.sub_height > a.Optimize.sub_height then
        Alcotest.failf "%s: %s (height %d) after %s (height %d)" label (name b)
          b.Optimize.sub_height (name a) a.Optimize.sub_height;
      if b.Optimize.sub_height = a.Optimize.sub_height
         && Spec.compare_job a.Optimize.sub_job b.Optimize.sub_job > 0
      then Alcotest.failf "%s: %s before harder %s at equal height" label (name a) (name b);
      pairs rest
    | _ -> ()
  in
  pairs order;
  order

let test_submission_order () =
  List.iter
    (fun k ->
      ignore (check_submission_order (Printf.sprintf "k=%d" k) [ Spec.paper_case ~k ]))
    [ 8; 9; 10; 11; 12; 13 ];
  let batch =
    check_submission_order "batch k=10..13"
      (List.map (fun k -> Spec.paper_case ~k) [ 10; 11; 12; 13 ])
  in
  Alcotest.(check int) "batch: one submission per distinct key"
    (snd
       (Optimize.batch_plan_counts ~mode:`Hybrid ~seed:7 ~attempts:2
          ~budget:tiny_budget
          (List.map (fun k -> Spec.paper_case ~k) [ 10; 11; 12; 13 ])))
    (List.length batch);
  (* at k = 10 the chain m2@10b -> m2@9b -> m2@8b starts ahead of the
     10-bit jobs nothing awaits (hardest-first put m4@10b and m3@10b
     first) *)
  let k10 = check_submission_order "k=10" [ Spec.paper_case ~k:10 ] in
  Alcotest.(check (list (pair string int))) "k=10 order"
    [ ("m2@10b", 3); ("m2@9b", 2); ("m4@10b", 1); ("m3@10b", 1); ("m2@8b", 1) ]
    (List.map
       (fun (s : Optimize.submission) -> (Spec.job_to_string s.Optimize.sub_job, s.Optimize.sub_height))
       k10);
  Alcotest.(check int) "equation mode submits nothing" 0
    (List.length (Optimize.submission_order ~mode:`Equation [ Spec.paper_case ~k:10 ]))

(* the fused batch's payloads are the same bytes on any pool *)
let test_batch_payloads_any_jobs () =
  let specs = List.map (fun k -> Spec.paper_case ~k) [ 10; 11; 12; 13 ] in
  let payloads jobs =
    (Optimize.run_batch ~mode:`Hybrid ~seed:7 ~attempts:2 ~budget:tiny_budget
       ~jobs specs)
      .Optimize.batch_runs
    |> List.map (fun r -> Adc_json.Json.to_string (Adc_serve.Codec.optimize_payload r))
  in
  let one = payloads 1 in
  List.iter
    (fun jobs ->
      List.iteri
        (fun i (a, b) ->
          Alcotest.(check string)
            (Printf.sprintf "k=%d: -j %d bytes = -j 1 bytes" (10 + i) jobs)
            a b)
        (List.combine one (payloads jobs)))
    [ 2; 4 ]

let test_seed_changes_results () =
  (* guards against the per-job seeding degenerating into a constant;
     needs attempts >= 2 because attempt 0 is deliberately seed-free
     (a deterministic pattern descent from the analytic sizing) *)
  let spec = Spec.paper_case ~k:10 in
  let go seed =
    Optimize.run ~mode:`Hybrid ~seed ~attempts:2 ~budget:tiny_budget spec
  in
  let a = go 7 and b = go 8 in
  let p (r : Optimize.run) = r.Optimize.optimum.Optimize.p_total in
  Alcotest.(check bool) "different seeds explore differently" true
    (p a <> p b || a.Optimize.synthesis_evaluations <> b.Optimize.synthesis_evaluations)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "exec"
    [
      ( "future",
        [
          quick "resolve/await" test_future_resolve;
          quick "failure propagation" test_future_fail;
          quick "cross-domain handoff" test_future_cross_domain;
        ] );
      ( "pool",
        [
          quick "all tasks exactly once, ordered" test_pool_executes_all_exactly_once;
          quick "size-1 matches parallel" test_pool_sequential_matches_parallel;
          quick "exception propagation" test_pool_propagates_exceptions;
          quick "shutdown drains the queue" test_pool_shutdown_drains;
          quick "later pools reuse the parked domains" test_pool_reuses_domains;
          quick "shutdown waits for in-flight tasks" test_pool_shutdown_waits_for_inflight;
          quick "a process exits with parked domains" test_exit_with_parked_domains;
        ] );
      ( "memo",
        [
          quick "each key computed once" test_memo_computes_each_key_once;
          quick "failures cached" test_memo_caches_failures;
          quick "a found future has its tasks queued" test_memo_found_future_is_queued;
        ] );
      ("rng", [ quick "mix is a proper derivation" test_rng_mix_deterministic_and_spread ]);
      ( "restarts",
        [
          quick "best-of-N: any pool, cancel truncates" test_restart_search;
          quick "a pending donor is traced as a wait" test_donor_wait_traced;
        ] );
      ("schedule", [ quick "tallest warm-start chain first" test_submission_order ]);
      ( "optimize-parallel",
        [
          slow "jobs=N == jobs=1 (k=10,11)" test_parallel_matches_sequential_10_11;
          slow "jobs=N == jobs=1 (k=12,13)" test_parallel_matches_sequential_12_13;
          slow "batch deterministic at any jobs" test_batch_deterministic_any_jobs;
          slow "seed sensitivity" test_seed_changes_results;
          slow "batch payload bytes at -j 1, 2, 4" test_batch_payloads_any_jobs;
        ] );
    ]
