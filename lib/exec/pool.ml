module Obs = Adc_obs

(* task-queue instrumentation (present only when the pool's [obs] has a
   live metrics registry): submission→dequeue latency, task count, and
   per-slot busy time for the utilization report *)
type instruments = {
  tasks : Obs.Metrics.counter;
  queue_latency : Obs.Metrics.histogram;   (* ns *)
  busy : Obs.Metrics.counter array;        (* ns, one per execution slot *)
  wall : Obs.Metrics.gauge;                (* ns, pool lifetime *)
  errors : Obs.Metrics.counter;            (* uncaught task exceptions *)
}

type task = { run : unit -> unit; enqueued_ns : int64 }

(* A worker domain of the process-wide reserve. Between pools it parks
   on [assigned] until [create] hands it a pool to drain ([job]). *)
type worker = { assigned : Condition.t; mutable job : (unit -> unit) option }

type t = {
  size : int;
  queue : task Queue.t;
  mutex : Mutex.t;
  wakeup : Condition.t;       (* signalled on enqueue and on close *)
  left : Condition.t;         (* signalled when a worker leaves the pool *)
  mutable closed : bool;
  mutable active : int;       (* workers still inside [worker_loop] *)
  mutable failure : exn option;  (* the first exception a worker raised *)
  mutable workers : worker list;
  instr : instruments option;
  trace : Obs.Sink.t;         (* pool.task spans carrying the slot index *)
  created_ns : int64;
}

let recommended_size () = Domain.recommended_domain_count ()

(* stray exceptions must not kill a worker domain; side-effect tasks
   publish their own results. The report goes through the obs sink
   (a zero-duration [pool.error] event) when one is live, so it cannot
   interleave with the --progress status line on stderr; the raw
   stderr line remains only as the no-observability fallback. *)
let run_task t task =
  try task.run ()
  with e ->
    (match t.instr with None -> () | Some i -> Obs.Metrics.inc i.errors);
    if Obs.Sink.enabled t.trace then begin
      let span = Obs.Span.start t.trace ~name:"pool.error" () in
      Obs.Span.finish
        ~attrs:[ ("exn", Obs.Sink.String (Printexc.to_string e)) ]
        span
    end
    else
      Printf.eprintf "adc_exec worker: uncaught %s\n%!" (Printexc.to_string e)

(* the instrumented path reads the monotonic clock twice per task; the
   bare path (instr = None) touches no clock at all *)
let run_task_measured t instr ~slot task =
  let t0 = Obs.Clock.now_ns () in
  Obs.Metrics.observe instr.queue_latency
    (Int64.to_float (Int64.sub t0 task.enqueued_ns));
  Obs.Metrics.inc instr.tasks;
  run_task t task;
  Obs.Metrics.add instr.busy.(slot)
    (Int64.to_int (Obs.Clock.elapsed_ns ~since:t0))

(* one [pool.task] span per dequeued task, tagged with the execution
   slot and the running domain's id: the per-domain utilization timeline
   of `adcopt trace utilization` is reconstructed from these, and a
   span another layer tags with the same [domain_id] is placed in the
   task around it. Emitted only when the sink is live, so the bare path
   still never reads the clock. *)
let dispatch t ~slot task =
  let span = Obs.Span.start t.trace ~name:"pool.task" () in
  (match t.instr with
  | None -> run_task t task
  | Some instr -> run_task_measured t instr ~slot task);
  if Obs.Span.is_live span then
    Obs.Span.finish
      ~attrs:
        [ ("domain", Obs.Sink.Int slot);
          ("domain_id", Obs.Sink.Int (Domain.self () :> int)) ]
      span

let worker_loop t ~slot =
  let rec next () =
    Mutex.lock t.mutex;
    let rec take () =
      match Queue.take_opt t.queue with
      | Some task ->
        Mutex.unlock t.mutex;
        Some task
      | None ->
        if t.closed then begin
          Mutex.unlock t.mutex;
          None
        end
        else begin
          Condition.wait t.wakeup t.mutex;
          take ()
        end
    in
    match take () with
    | None -> ()
    | Some task ->
      dispatch t ~slot task;
      next ()
  in
  next ()

(* The reserve: worker domains no pool holds, most recently returned
   first, all guarded by [reserve_mutex]. Domains are never joined, so
   none terminates and leaves its heap behind for a major cycle to
   adopt; a process exits with its parked workers. *)
let reserve_mutex = Mutex.create ()
let idle : worker list ref = ref []

let rec park w =
  Mutex.lock reserve_mutex;
  while w.job = None do
    Condition.wait w.assigned reserve_mutex
  done;
  let job = Option.get w.job in
  w.job <- None;
  Mutex.unlock reserve_mutex;
  job ();
  park w

let assign w job =
  Mutex.protect reserve_mutex (fun () ->
      w.job <- Some job;
      Condition.signal w.assigned)

(* [n] workers: the idle ones first, then freshly spawned domains for
   the shortfall *)
let borrow n =
  let borrowed =
    Mutex.protect reserve_mutex (fun () ->
        let taken = List.filteri (fun i _ -> i < n) !idle in
        idle := List.filteri (fun i _ -> i >= n) !idle;
        taken)
  in
  let spawn () =
    let w = { assigned = Condition.create (); job = None } in
    ignore (Domain.spawn (fun () -> park w) : unit Domain.t);
    w
  in
  borrowed @ List.init (n - List.length borrowed) (fun _ -> spawn ())

let hand_back ws = Mutex.protect reserve_mutex (fun () -> idle := ws @ !idle)

(* What a worker runs for the pool: drain the queue until it is closed
   and empty, then report leaving (and any escaped exception) *)
let serve t ~slot () =
  let failure = match worker_loop t ~slot with () -> None | exception e -> Some e in
  Mutex.protect t.mutex (fun () ->
      if t.failure = None then t.failure <- failure;
      t.active <- t.active - 1;
      Condition.broadcast t.left)

let make_instruments (obs : Obs.t) ~size =
  if not (Obs.Metrics.enabled obs.Obs.metrics) then None
  else
    let m = obs.Obs.metrics in
    Some
      {
        tasks = Obs.Metrics.counter m "pool.tasks";
        queue_latency = Obs.Metrics.histogram m "pool.queue_latency_ns";
        busy =
          Array.init size (fun i ->
              Obs.Metrics.counter m (Printf.sprintf "pool.domain%d.busy_ns" i));
        wall = Obs.Metrics.gauge m "pool.wall_ns";
        errors = Obs.Metrics.counter m "pool.errors";
      }

let create ?(obs = Obs.null) ?size () =
  let size =
    match size with Some n -> Stdlib.max 1 n | None -> recommended_size ()
  in
  let t =
    {
      size;
      queue = Queue.create ();
      mutex = Mutex.create ();
      wakeup = Condition.create ();
      left = Condition.create ();
      closed = false;
      active = 0;
      failure = None;
      workers = [];
      instr = make_instruments obs ~size;
      trace = obs.Obs.sink;
      created_ns = Obs.Clock.now_ns ();
    }
  in
  if size > 1 then begin
    t.active <- size;
    t.workers <- borrow size;
    List.iteri (fun slot w -> assign w (serve t ~slot)) t.workers
  end;
  t

let size t = t.size

let async t run =
  let task =
    {
      run;
      enqueued_ns = (match t.instr with None -> 0L | Some _ -> Obs.Clock.now_ns ());
    }
  in
  if t.size <= 1 then begin
    if t.closed then invalid_arg "Pool.async: pool is shut down";
    dispatch t ~slot:0 task
  end
  else begin
    Mutex.lock t.mutex;
    if t.closed then begin
      Mutex.unlock t.mutex;
      invalid_arg "Pool.async: pool is shut down"
    end;
    Queue.add task t.queue;
    Condition.signal t.wakeup;
    Mutex.unlock t.mutex
  end

let submit t f =
  let fut = Future.create () in
  async t (fun () ->
      match f () with
      | v -> Future.resolve fut v
      | exception e -> Future.fail fut e);
  fut

(* The workers go back to the reserve once each has left [worker_loop],
   that is after the queue has drained; none is joined. An exception
   that escaped a worker is re-raised here, once. *)
let shutdown t =
  let ws, failure =
    Mutex.protect t.mutex (fun () ->
        t.closed <- true;
        Condition.broadcast t.wakeup;
        while t.active > 0 do
          Condition.wait t.left t.mutex
        done;
        let taken = (t.workers, t.failure) in
        t.workers <- [];
        t.failure <- None;
        taken)
  in
  hand_back ws;
  (match t.instr with
  | None -> ()
  | Some instr ->
    Obs.Metrics.set instr.wall
      (Int64.to_float (Obs.Clock.elapsed_ns ~since:t.created_ns)));
  Option.iter raise failure

let with_pool ?obs ?size f =
  let t = create ?obs ?size () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
