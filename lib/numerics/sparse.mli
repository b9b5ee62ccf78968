(** Sparse real matrices with a reusable left-looking LU.

    Storage is compressed sparse column (CSC) over a fixed {!pattern};
    values live in an unboxed float64 [Bigarray] so assembly writes never
    allocate and the GC never scans the hot buffers. The factorization is
    KLU-style: {!analyze} runs a full Gilbert–Peierls left-looking LU with
    partial pivoting once and records the {e symbolic} result — pivot
    order, fill pattern of [L] and [U], and the per-column elimination
    schedule. {!refactorize} then replays that schedule with numbers only
    (no graph traversal, no allocation), which is what a Newton loop or a
    transient stepper calls thousands of times per analysis.

    The {!symbolic} value is immutable and safe to share across domains;
    each domain owns its own {!numeric} workspace. If a replay hits a
    pivot that has become unstable for the current values (smaller than
    [1e-3] times its column's magnitude), {!refactorize} transparently
    re-pivots with a fresh analysis private to that {!numeric} and counts
    it in {!stats}, so callers see at most a performance blip, never a
    wrong answer. *)

(** {1 Sparsity patterns} *)

type pattern
(** An immutable [n * n] sparsity pattern (CSC, rows sorted within each
    column). Structurally identical netlist topologies produce equal
    patterns, which is what makes symbolic reuse across annealing
    candidates safe: the factorization schedule depends only on the
    pattern, never on the stamped values. *)

val pattern_of_entries : n:int -> (int * int) array -> pattern
(** [pattern_of_entries ~n entries] builds the pattern holding the given
    [(row, col)] positions (duplicates allowed and merged). Raises
    [Invalid_argument] on out-of-range indices. *)

val dim : pattern -> int
val nnz : pattern -> int

val pattern_equal : pattern -> pattern -> bool
(** Structural equality — the key used by the topology cache. *)

val pattern_hash : pattern -> int

val slot : pattern -> row:int -> col:int -> int
(** The value-array index of an entry; raises [Not_found] when the
    position is not in the pattern. Slots are stable for the lifetime of
    the pattern, so stamping loops can be compiled to slot programs. *)

val mem : pattern -> row:int -> col:int -> bool

(** {1 Matrices} *)

type fbuf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** An unboxed float64 value buffer. *)

type t
(** A matrix: a shared {!pattern} plus this instance's own unboxed
    float64 value buffer. *)

exception Singular
(** Raised by {!analyze} and {!refactorize} when no usable pivot exists
    (structurally or numerically singular system). *)

val create : pattern -> t
(** A zero matrix over the pattern. *)

val pattern : t -> pattern
val clear : t -> unit

val values : t -> fbuf
(** The matrix's value buffer, indexed by {!slot}. Stamping loops in
    other modules add into it in place: a float passed to another
    module's function would be boxed. *)

val add_at : t -> row:int -> col:int -> float -> unit
(** [add_at m ~row ~col v] adds [v] into the entry at ([row], [col]);
    raises [Not_found] off-pattern. *)

val get_at : t -> row:int -> col:int -> float
(** Entry value, 0 for positions outside the pattern. *)

val to_dense : t -> Mat.t
(** Densify (tests and oracle cross-checks only). *)

(** {1 Factorization} *)

type symbolic
(** The recorded factorization schedule: row permutation plus the exact
    fill structure and elimination order of every column. Immutable;
    shared read-only across threads/domains and across all matrices with
    an equal pattern. *)

val analyze : t -> symbolic
(** Full left-looking LU with partial pivoting at the matrix's current
    values; returns the schedule (the numeric result is discarded — call
    {!refactorize} to populate a {!numeric}). Raises {!Singular}. *)

val symbolic_pattern : symbolic -> pattern

type numeric
(** A per-owner factorization workspace: the [L]/[U]/diagonal value
    arrays plus scratch, over a (possibly shared) {!symbolic}. Not
    thread-safe — one per domain. *)

val create_numeric : symbolic -> numeric
(** Allocate a workspace. {!refactorize} must run before {!solve}. *)

val refactorize : numeric -> t -> unit
(** Replay the recorded schedule against the matrix's current values.
    On pivot instability, re-analyzes into this workspace (counted in
    {!stats}); raises {!Singular} when the matrix itself is singular.
    Raises [Invalid_argument] if the matrix's pattern differs from the
    symbolic's. *)

val solve : numeric -> b:Vec.t -> x:Vec.t -> unit
(** Solve [A x = b] with the last {!refactorize}d values. [x] and [b]
    may alias. Raises [Invalid_argument] before any refactorization. *)

val lu_nnz : numeric -> int
(** Nonzeros in [L] + [U] including the diagonal (fill-in measure). *)

(** {1 Counters} *)

type stats = {
  analyses : int;  (** full pivot-order analyses performed by this workspace *)
  refactorizations : int;  (** numeric replays (the hot-loop operation) *)
  solves : int;  (** forward/back substitutions *)
}

val stats : numeric -> stats
(** A healthy run shows [analyses] ≪ [refactorizations] ≤ [solves]. *)

type totals = {
  total_analyses : int;
  total_refactorizations : int;
  total_solves : int;
  total_pivot_drift : int;
      (** times a numeric replay hit {i Unstable_pivot} and had to
          re-analyze privately — each one is also counted in
          [total_analyses] *)
}

val totals : unit -> totals
(** A view of this module's four {!Tally}s, summed across every
    workspace that ever existed; per-workspace {!stats} remain the right
    tool for a single run's accounting. *)
