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

    The {!symbolic} value is safe to share across domains; each domain
    owns its own {!numeric} workspace. A replay {e drifts} when a pivot
    falls below [1e-3] of its column's magnitude for the current values;
    {!refactorize} then recovers with exactly the pivot order and the
    factors a fresh full analysis of those values would give, so callers
    see at most a performance blip, never a different answer. It first
    looks for that order among the ones already known: the symbolic's
    own and those earlier recoveries over it produced, kept in a small
    lock-free set on the symbolic (most recently used first, at most 64).
    It replays a known order under the full analysis's own pivot rule
    (a {e strict} replay): at each column the recorded pivot must be the
    diagonal when the diagonal is a candidate of at least 0.1 times the
    largest candidate magnitude and nonzero, and otherwise the unique
    largest candidate of magnitude at least [1e-300], where the
    candidates are the rows the column reaches that earlier columns did
    not pivot and NaN never counts as the largest. An exact tie fails,
    since the full analysis breaks ties by its DFS order, which an order
    does not record. The structure of a column follows from the pattern
    and the pivots of the columns before it, so by induction a strict
    replay that passes every column performs the full analysis's
    arithmetic in its order: the same [L], [U] and diagonal, bit for
    bit. A strict replay that fails at a column resumes there in a known
    order that agrees with every column so far and takes the pivot the
    rule names; when none does, the full analysis runs, is counted in
    {!totals}, and its order joins the set. Which orders the set holds,
    and in what order domains filled it, changes only how fast a
    recovery arrives. *)

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
(** Structural equality: {!refactorize}'s guard that a matrix fits a
    symbolic built for another matrix. *)

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
    fill structure and elimination order of every column, shared across
    threads/domains and across all matrices with an equal pattern. Its
    one mutable part is the set of orders drift recoveries have found,
    which never changes a result. *)

val analyze : t -> symbolic
(** Full left-looking LU with partial pivoting at the matrix's current
    values; returns the schedule (the numeric result is discarded — call
    {!refactorize} to populate a {!numeric}). Raises {!Singular}. *)

type numeric
(** A per-owner factorization workspace: the [L]/[U]/diagonal value
    arrays plus scratch, over a (possibly shared) {!symbolic}. Not
    thread-safe — one per domain. *)

val create_numeric : symbolic -> numeric
(** Allocate a workspace. {!refactorize} must run before {!solve}. *)

val refactorize : numeric -> t -> unit
(** Replay the recorded schedule against the matrix's current values.
    On pivot drift, recovers the order a full analysis would pick, from
    the symbolic's set of known orders when one passes the strict
    replay, else by a full analysis into this workspace (counted in
    {!totals}); raises {!Singular} when the matrix itself is singular.
    Raises [Invalid_argument] if the matrix's pattern differs from the
    symbolic's. *)

val solve : numeric -> b:Vec.t -> x:Vec.t -> unit
(** Solve [A x = b] with the last {!refactorize}d values. [x] and [b]
    may alias. Raises [Invalid_argument] before any refactorization. *)

(** {1 Counters} *)

type totals = {
  total_analyses : int;
      (** full pivot-order analyses: every {!analyze}, and every drift
          recovery that found no known order *)
  total_refactorizations : int;  (** numeric replays (the hot-loop operation) *)
  total_solves : int;  (** forward/back substitutions *)
  total_pivot_drift : int;
      (** times a numeric replay drifted: every one recovers, either
          through a known order ([total_pivot_order_hits]) or through a
          full analysis (also counted in [total_analyses]) *)
  total_pivot_order_hits : int;
      (** drift recoveries that replayed a known order strictly instead
          of re-analysing *)
}

val totals : unit -> totals
(** A view of this module's five {!Tally}s, summed across every
    workspace of the process. They are the module's only counters: one
    run's work is the difference of two readings taken around it (with
    nothing else solving meanwhile). A healthy run shows analyses ≪
    refactorizations ≤ solves. *)
