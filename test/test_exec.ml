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

let test_pool_executes_all_exactly_once () =
  Pool.with_pool ~size:parallel_size (fun pool ->
      let n = 200 in
      let hits = Array.make n 0 in
      let mutex = Mutex.create () in
      let results =
        Pool.map_ordered pool
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
  let seq = Pool.with_pool ~size:1 (fun p -> Pool.map_ordered p f work) in
  let par =
    Pool.with_pool ~size:parallel_size (fun p -> Pool.map_ordered p f work)
  in
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
          (* map_ordered: first failure re-raised, siblings not abandoned *)
          Alcotest.(check bool) (label ^ ": map_ordered re-raises") true
            (try
               ignore
                 (Pool.map_ordered pool
                    (fun i -> if i = 3 then raise Exit else i)
                    [ 0; 1; 2; 3; 4 ]);
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

(* ------------------------------------------------------------------ *)
(* Memo *)

let test_memo_computes_each_key_once () =
  Pool.with_pool ~size:parallel_size (fun pool ->
      let memo : (int, int) Memo.t = Memo.create () in
      let computed = Atomic.make 0 in
      (* 40 requests race over 10 distinct keys *)
      let futures =
        List.init 40 (fun i ->
            Memo.find_or_run memo pool (i mod 10) (fun key ->
                Atomic.incr computed;
                key * 100))
      in
      List.iteri
        (fun i fut ->
          Alcotest.(check int)
            (Printf.sprintf "request %d sees the shared result" i)
            (i mod 10 * 100) (Future.await fut))
        futures;
      Alcotest.(check int) "10 distinct keys computed" 10 (Atomic.get computed);
      Alcotest.(check int) "cache holds 10 keys" 10 (Memo.length memo);
      Alcotest.(check bool) "find returns installed futures" true
        (Memo.find memo 3 <> None && Memo.find memo 11 = None);
      (* 40 find_or_run calls over 10 keys: 10 misses, 30 hits; the
         un-counting Memo.find calls above must not move the counters *)
      Alcotest.(check (pair int int)) "hit/miss counters" (30, 10)
        (Memo.stats memo))

let test_memo_caches_failures () =
  Pool.with_pool ~size:1 (fun pool ->
      let memo : (string, int) Memo.t = Memo.create () in
      let calls = Atomic.make 0 in
      let compute _ =
        Atomic.incr calls;
        raise Exit
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

let check_parallel_equals_sequential k =
  let spec = Spec.paper_case ~k in
  let go jobs =
    Optimize.run ~mode:`Hybrid ~seed:7 ~attempts:1 ~budget:tiny_budget ~jobs spec
  in
  let seq = go 1 and par = go parallel_size in
  let opt_s, rank_s, evals_s, cw_s = run_fingerprint seq in
  let opt_p, rank_p, evals_p, cw_p = run_fingerprint par in
  Alcotest.(check string)
    (Printf.sprintf "%d-bit: same optimum" k)
    opt_s opt_p;
  Alcotest.(check (list (pair string (float 0.0))))
    (Printf.sprintf "%d-bit: bit-equal ranking" k)
    rank_s rank_p;
  Alcotest.(check int)
    (Printf.sprintf "%d-bit: same evaluator-call total" k)
    evals_s evals_p;
  Alcotest.(check (pair int int))
    (Printf.sprintf "%d-bit: same cold/warm attribution" k)
    cw_s cw_p;
  Alcotest.(check int)
    (Printf.sprintf "%d-bit: distinct-job count unchanged" k)
    (List.length seq.Optimize.distinct_jobs)
    (List.length par.Optimize.distinct_jobs);
  Alcotest.(check int)
    (Printf.sprintf "%d-bit: parallel run used %d domains" k parallel_size)
    parallel_size par.Optimize.domains

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

(* the best-of-N restart search behind synth and netlist-emit: the
   winner, the evaluation total and the truncation flag are the same on
   any pool, and a cancel tripped up front runs no restart at all *)
let test_restart_search () =
  let spec = Spec.paper_case ~k:10 in
  let req = Spec.stage_requirements spec { Spec.m = 3; input_bits = 8 } in
  let go ?cancel size =
    Pool.with_pool ~size (fun pool ->
        Optimize.best_of_restarts ~pool ~budget:tiny_budget ?cancel ~seed:7
          ~attempts:3 spec.Spec.process req)
  in
  let summary (r : Optimize.restarts) =
    ( Option.map
        (fun (s : Synthesizer.solution) ->
          (s.Synthesizer.sizing, s.Synthesizer.power, s.Synthesizer.violation))
        r.Optimize.best,
      r.Optimize.evaluations,
      r.Optimize.truncated )
  in
  let one = go 1 and two = go 2 in
  Alcotest.(check bool) "a restart succeeded" true (one.Optimize.best <> None);
  Alcotest.(check bool) "not truncated" false one.Optimize.truncated;
  Alcotest.(check bool) "pool of 2 == pool of 1" true (summary one = summary two);
  let cancel = Adc_exec.Cancel.create () in
  Adc_exec.Cancel.cancel cancel;
  let cut = go ~cancel 2 in
  Alcotest.(check bool) "pre-tripped cancel: truncated" true cut.Optimize.truncated;
  Alcotest.(check bool) "pre-tripped cancel: no winner" true (cut.Optimize.best = None);
  Alcotest.(check int) "pre-tripped cancel: no evaluations" 0 cut.Optimize.evaluations

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
        ] );
      ( "memo",
        [
          quick "each key computed once" test_memo_computes_each_key_once;
          quick "failures cached" test_memo_caches_failures;
        ] );
      ("rng", [ quick "mix is a proper derivation" test_rng_mix_deterministic_and_spread ]);
      ("restarts", [ quick "best-of-N: any pool, cancel truncates" test_restart_search ]);
      ( "optimize-parallel",
        [
          slow "jobs=N == jobs=1 (k=10,11)" test_parallel_matches_sequential_10_11;
          slow "jobs=N == jobs=1 (k=12,13)" test_parallel_matches_sequential_12_13;
          slow "batch deterministic at any jobs" test_batch_deterministic_any_jobs;
          slow "seed sensitivity" test_seed_changes_results;
        ] );
    ]
