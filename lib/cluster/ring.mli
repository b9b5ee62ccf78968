(** The consistent-hash ring: a pure placement function from keys to
    backend identities.

    Each backend contributes [vnodes] points on a 64-bit circle (the
    first 8 bytes of [md5 (id ^ "#" ^ i)]); a key hashes to a point the
    same way and is owned by the first backend point at or clockwise
    after it. Virtual nodes smooth the arc distribution: at the default
    160 per backend, a 3-backend ring's keyspace shares stay within a
    few percent of 1/3 (the distribution property test pins a bound).

    Everything here is pure and deterministic — no I/O, no clocks, no
    mutation — which is what makes the router's placement decisions
    property-testable and lets two router processes over the same
    backend list agree on every key's owner. Health is deliberately
    {e not} a ring concern: the router routes around a down backend by
    walking {!successors}, so a backend's keys remap onto its ring
    neighbours without disturbing anyone else's placement (the monotone
    consistency the QCheck suite checks by comparing [create] with and
    without one backend). *)

type t

val create : ?vnodes:int -> string list -> t
(** Build the ring over the given backend identities (duplicates are
    collapsed, first occurrence wins; identity text is typically the
    backend's socket address). [vnodes] defaults to 160 points per
    backend. Raises [Invalid_argument] on [vnodes <= 0]. An empty
    backend list is a valid (empty) ring: every lookup answers []. *)

val backends : t -> string list
(** The distinct identities, in first-occurrence order. *)

val vnodes : t -> int

val successors : t -> string -> string list
(** The distinct backends in ring order starting at the key's point:
    the head is the key's owner, the tail the order a forward re-routes
    in when the owner is down. Every backend appears exactly once; empty iff the
    ring is empty. *)

val lookup : t -> string -> string option
(** The key's owner — [List.nth_opt (successors t key) 0], but O(log
    points) instead of a full ring walk. *)

val occupancy : t -> (string * float) list
(** Each backend's share of the 64-bit keyspace (arcs owned, summed),
    in {!backends} order; shares sum to 1 on a non-empty ring. Surfaced
    in the router's [stats] payload and pinned by the distribution
    property test. *)
