module Obs = Adc_obs

type ('k, 'v) t = {
  mutex : Mutex.t;
  table : ('k, 'v Future.t) Hashtbl.t;
  hits : Obs.Metrics.counter;
  misses : Obs.Metrics.counter;
  n_hits : int Atomic.t;
  n_misses : int Atomic.t;
  trace : Obs.Sink.t;
}

let create ?(obs = Obs.null) ?(initial_size = 16) () =
  {
    mutex = Mutex.create ();
    table = Hashtbl.create initial_size;
    hits = Obs.Metrics.counter obs.Obs.metrics "memo.hit";
    misses = Obs.Metrics.counter obs.Obs.metrics "memo.miss";
    n_hits = Atomic.make 0;
    n_misses = Atomic.make 0;
    trace = obs.Obs.sink;
  }

(* every lookup leaves a (near-zero-duration) [memo.lookup] span in the
   trace so the hit rate is recoverable from a trace file alone — the
   metrics registry may not have been enabled for the run *)
let find_or_run t pool key enqueue =
  let span = Obs.Span.start t.trace ~name:"memo.lookup" () in
  let finish ~hit =
    Obs.Span.finish ~attrs:[ ("hit", Obs.Sink.Bool hit) ] span
  in
  Mutex.lock t.mutex;
  match Hashtbl.find_opt t.table key with
  | Some fut ->
    Mutex.unlock t.mutex;
    Atomic.incr t.n_hits;
    Obs.Metrics.inc t.hits;
    finish ~hit:true;
    fut
  | None ->
    (* a future another requester can find must already have its tasks
       queued, or that requester could queue tasks awaiting it ahead of
       them (docs/PARALLELISM.md); an inline pool would run them under
       the lock, so it enqueues after releasing it *)
    let fut = Future.create () in
    Hashtbl.add t.table key fut;
    let inline = Pool.size pool <= 1 in
    if inline then Mutex.unlock t.mutex
    else Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) (fun () -> enqueue fut);
    Atomic.incr t.n_misses;
    Obs.Metrics.inc t.misses;
    finish ~hit:false;
    if inline then enqueue fut;
    fut

let remove t key =
  Mutex.lock t.mutex;
  Hashtbl.remove t.table key;
  Mutex.unlock t.mutex

let length t =
  Mutex.lock t.mutex;
  let n = Hashtbl.length t.table in
  Mutex.unlock t.mutex;
  n

let stats t = (Atomic.get t.n_hits, Atomic.get t.n_misses)
