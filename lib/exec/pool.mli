(** A fixed-size pool of OCaml 5 domains draining one FIFO work queue.

    The pool is the only place the library spawns domains. Tasks are
    submitted as thunks and their results published through {!Future}s;
    submission order equals dequeue order (single FIFO queue), which is
    what makes the dependency chains built by [Optimize.run] deadlock-free:
    a task may await a future settled by {e earlier-submitted} tasks,
    because those tasks have necessarily been dequeued first (see
    [docs/PARALLELISM.md]).

    {2 Sequential fallback}

    A pool of size 1 spawns no domains at all: {!submit} and {!async} run
    the thunk inline on the calling domain before returning. This is the
    graceful degradation path for single-core hosts
    ([recommended_size () = 1]) and for [--jobs 1], and it guarantees that
    the sequential and parallel code paths share one implementation.

    {2 The domain reserve}

    Worker domains outlive the pools they serve. The process keeps one
    reserve of idle workers: {!create} borrows from it and spawns new
    domains only for the shortfall, and {!shutdown} hands its workers
    back. No domain is ever joined, so none terminates and leaves its
    heap for the major collector to adopt, and a process that opens pool
    after pool keeps as many domains as its widest concurrent pools
    needed. A process exits with its parked workers. *)

type t
(** A pool handle. Pools are cheap for [size = 1] (no domains); larger
    pools hold [size] worker domains from the reserve until
    {!shutdown}. *)

val recommended_size : unit -> int
(** [recommended_size ()] is [Domain.recommended_domain_count ()] — the
    runtime's estimate of how many domains this host runs efficiently
    (1 on a single-core container, so the default degrades to the
    sequential inline path). *)

val create : ?obs:Adc_obs.t -> ?size:int -> unit -> t
(** [create ~size ()] builds a pool with [size] execution slots: [size]
    worker domains when [size > 1] (idle ones from the reserve first,
    newly spawned ones for the rest), or pure inline execution on the
    caller's domain when [size = 1]. [size] defaults to
    {!recommended_size}[ ()] and is clamped to at least 1.

    Sizes above [recommended_size ()] are allowed (useful for testing the
    parallel machinery on small hosts) — they oversubscribe cores but stay
    correct.

    When [obs] (default {!Adc_obs.null}) carries a live metrics registry
    the pool records its queue telemetry there: [pool.tasks] (count),
    [pool.queue_latency_ns] (histogram of submission→dequeue latency),
    [pool.domain<i>.busy_ns] (per-slot busy time, the utilization
    numerator) and [pool.wall_ns] (pool lifetime, set at {!shutdown} —
    the utilization denominator). When [obs] carries a live trace sink
    the pool additionally emits one [pool.task] span per executed task,
    tagged with its execution-slot index — the raw material for the
    per-domain utilization timeline of [adcopt trace utilization]. With
    both channels disabled the task path performs no clock reads. *)

val size : t -> int
(** Number of execution slots ([1] means inline sequential execution). *)

val submit : t -> (unit -> 'a) -> 'a Future.t
(** [submit t f] schedules [f] and returns the future of its result.
    Exceptions raised by [f] are captured and re-raised at
    {!Future.await}. On a size-1 pool, [f] runs to completion inline and
    the returned future is already settled. *)

val async : t -> (unit -> unit) -> unit
(** [async t f] schedules [f] for its side effects only (no future).
    Used by [Optimize.best_of_n], whose tasks settle one future between
    them.
    Exceptions escaping [f] on a worker are swallowed after being
    reported — side-effect tasks must do their own error publishing.
    The report goes through the pool's observability context when one
    is live: a zero-duration [pool.error] span (attr [exn]) on the
    trace sink and a [pool.errors] counter on the metrics registry.
    Only when both channels are disabled does the report fall back to a
    raw [stderr] line (which could otherwise interleave with the
    [--progress] status line). *)

val shutdown : t -> unit
(** [shutdown t] waits for the queue to drain and for every worker to
    finish its task and leave the pool, then returns the workers to the
    reserve for the next {!create}. Idempotent. Submitting after
    shutdown raises [Invalid_argument]. *)

val with_pool : ?obs:Adc_obs.t -> ?size:int -> (t -> 'a) -> 'a
(** [with_pool ~size f] runs [f] over a fresh pool and guarantees
    {!shutdown} on exit, including on exceptions. *)
