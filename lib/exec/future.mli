(** Write-once promises shared between domains.

    A [Future.t] is the handle under which {!Pool} and {!Memo} publish the
    result of a task: it starts {e pending}, is resolved (or failed) exactly
    once by the domain that ran the task, and can be awaited by any number
    of other domains. All state transitions are protected by a per-future
    mutex, so a future may be freely captured in closures that execute on
    other domains.

    Futures are the synchronization primitive behind the deterministic
    warm-start chains of [Optimize.run]: a synthesis task blocks on the
    futures of its donor jobs, which by construction were submitted earlier
    (see [docs/PARALLELISM.md] for the no-deadlock argument). *)

type 'a t
(** A write-once cell holding a pending, resolved, or failed ['a]. *)

val create : unit -> 'a t
(** [create ()] is a fresh pending future. *)

val resolve : 'a t -> 'a -> unit
(** [resolve t v] fulfils [t] with [v] and wakes every waiter.

    @raise Invalid_argument if [t] was already resolved or failed. *)

val fail : 'a t -> exn -> unit
(** [fail t e] fails [t] with [e]; subsequent {!await}s re-raise [e].

    @raise Invalid_argument if [t] was already resolved or failed. *)

val await : 'a t -> 'a
(** [await t] blocks the calling domain until [t] is resolved and returns
    its value, or re-raises the exception [t] failed with. Safe to call
    from any domain, any number of times. *)

val is_resolved : 'a t -> bool
(** [is_resolved t] is [true] once [t] is resolved or failed. *)
