(** Modified nodal analysis: residual/Jacobian assembly.

    Unknown vector layout: indices [0 .. nodes-2] are the voltages of
    nodes [1 .. nodes-1] (ground dropped), followed by one branch current
    per voltage source / VCVS in declaration order.

    Residual convention: [f.(row)] is the sum of currents *leaving* the
    node (or the branch voltage equation), so a solution satisfies
    [f = 0] and Newton solves [J dx = -f].

    One stamping traversal serves both solvers behind a {!ctx}. The
    production solver writes into an unboxed sparse matrix over a
    sparsity pattern recorded once per netlist, stamped by replaying a
    slot program with no per-iteration allocation. Symbolic LU
    factorizations are cached per {e topology} (structural pattern
    equality), so annealing candidates that only change element values
    reuse the same pivot order and fill schedule and pay numeric
    refactorization only. The dense LU oracle, an independent
    cross-check for the tests, is reached only through
    {!Oracle.with_dense}. *)

type cap_companion = {
  geq : float;  (** companion conductance *)
  ieq : float;  (** companion current source, leaving the positive node *)
}

type cap_policy =
  | Cap_open  (** DC: capacitors carry no current *)
  | Cap_companion of (cap_index:int -> np:int -> nn:int -> farads:float -> cap_companion)
      (** Transient: integration-method companion model; [cap_index]
          counts capacitors in declaration order. *)

val node_voltage_of : float array -> int -> float
(** Voltage of a node index given the unknown vector (0 for ground). *)

val residual_into :
  Netlist.t ->
  x:float array ->
  time:float ->
  source_scale:float ->
  gmin:float ->
  cap_policy:cap_policy ->
  float array ->
  unit
(** Evaluate only the residual into a caller-provided buffer — no matrix
    work, no allocation; used for final residual reporting. *)

val cap_count : Netlist.t -> int
(** Number of capacitors (companion-model history slots). *)

(** {1 Assembly contexts} *)

type ctx
(** Preallocated assembly state bound to one netlist. A production
    context holds the recorded sparsity pattern, slot programs for both
    capacitor policies, the unboxed matrix/residual buffers, and
    (lazily) a numeric factorization workspace; the symbolic
    factorization behind it is shared read-only across all contexts with
    the same topology. A context built inside {!Oracle.with_dense}
    instead assembles a dense matrix and solves it by dense LU. Not
    thread-safe; create one per domain. *)

val context : Netlist.t -> ctx
(** Record the pattern and slot programs for a netlist (two stamping
    traversals, no factorization yet), or, inside {!Oracle.with_dense},
    a dense context. *)

val assemble_into :
  ctx ->
  x:float array ->
  time:float ->
  source_scale:float ->
  gmin:float ->
  cap_policy:cap_policy ->
  unit
(** Stamp the Jacobian and residual at [x] into the context's buffers,
    replaying the recorded slot program (allocation-free on a production
    context). *)

val factor_and_solve : ctx -> rhs:float array -> dx:float array -> unit
(** Factor the last assembled Jacobian (numeric refactorization over the
    shared symbolic; first call analyzes and publishes the symbolic for
    this topology) and solve for [dx]. Raises
    [Adc_numerics.Sparse.Singular] on singular systems. *)

val ctx_residual : ctx -> float array
(** The residual buffer filled by the last {!assemble_into}. *)

val ctx_netlist : ctx -> Netlist.t

val ctx_stats : ctx -> Adc_numerics.Sparse.stats
(** Factorization/solve counters of this context's workspace (zeros
    before the first solve, and always zeros on a dense context). *)

val shared_analyses : unit -> int
(** Process-wide count of symbolic analyses published to the topology
    cache — stays tiny while refactorization counts grow, which is the
    point. *)

(** The dense LU oracle. Test-only: no production path enters it. *)
module Oracle : sig
  val with_dense : (unit -> 'a) -> 'a
  (** [with_dense f] runs [f] with {!context} building dense contexts on
      the calling domain, so every DC and transient solve reached from
      [f] runs on the original [Adc_numerics.Mat] LU path, float op for
      float op. The previous state is restored when [f] returns or
      raises. *)
end
