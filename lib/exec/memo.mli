(** A mutex-protected, promise-keyed result cache over a {!Pool}.

    [Memo] is the dedup layer of the parallel hybrid flow: when several
    candidates need the same MDAC job, the {e first} request atomically
    installs a pending {!Future} under the job key and enqueues the tasks
    that settle it; every later request — from any domain, at any time —
    receives that same future and simply awaits it. Each distinct key is
    therefore computed exactly once, even when two requesters race, and
    the cache never blocks a requester while a computation runs (the
    critical section covers the hash-table probe/insert and, on a worker
    pool, the queue pushes).

    Values are published through futures rather than stored raw so that a
    requester arriving {e during} the computation has something to wait
    on; a failed computation fails the future, and the failure is cached
    (no automatic retry — retrying a deterministic synthesis would return
    the same failure at full cost). *)

type ('k, 'v) t
(** A cache from keys ['k] to futures of ['v]. Keys are compared with the
    polymorphic hash/equality of [Hashtbl]. *)

val create : ?obs:Adc_obs.t -> ?initial_size:int -> unit -> ('k, 'v) t
(** [create ()] is an empty cache. [initial_size] (default 16) sizes the
    underlying hash table. When [obs] carries a live metrics registry,
    every {!find_or_run} increments either [memo.hit] (promise already
    installed) or [memo.miss] (this call scheduled the computation) —
    misses therefore count {e distinct keys}, and the two together count
    requests. When it carries a live trace sink, each lookup also emits
    a [memo.lookup] span tagged [hit: bool], so the hit rate is
    recoverable from a trace file alone ([adcopt trace summary]). *)

val find_or_run :
  ('k, 'v) t -> Pool.t -> 'k -> ('v Future.t -> unit) -> 'v Future.t
(** [find_or_run t pool key enqueue] returns the future for [key]. On the
    first request for [key] it installs a pending future [fut] and calls
    [enqueue fut], which submits to [pool] the tasks that settle [fut].
    On a pool of size > 1 [enqueue] runs under the cache's lock (so it
    must not call back into [t]): whoever finds [fut] finds its tasks
    queued. On a size-1 pool it runs after the lock is released. *)

val remove : ('k, 'v) t -> 'k -> unit
(** [remove t key] drops the entry for [key] (a no-op if absent): the
    next {!find_or_run} for [key] schedules a fresh computation. The
    dropped future itself stays valid for whoever already holds it —
    used by the long-lived serve cache to evict outcomes that were
    truncated by a request deadline, so only complete results persist. *)

val length : ('k, 'v) t -> int
(** Number of distinct keys ever requested (pending ones included). *)

val stats : ('k, 'v) t -> int * int
(** [stats t] is [(hits, misses)] over every {!find_or_run} since
    {!create} — counted unconditionally, independent of whether [obs]
    carries a live metrics registry. The serve daemon surfaces these as
    [job_hits]/[job_misses] so cross-request reuse is visible without
    tracing. *)
