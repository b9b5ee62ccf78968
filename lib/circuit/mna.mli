(** Modified nodal analysis: residual/Jacobian assembly.

    Unknown vector layout: indices [0 .. nodes-2] are the voltages of
    nodes [1 .. nodes-1] (ground dropped), followed by one branch current
    per voltage source / VCVS in declaration order.

    Residual convention: [f.(row)] is the sum of currents *leaving* the
    node (or the branch voltage equation), so a solution satisfies
    [f = 0] and Newton solves [J dx = -f].

    A netlist's stamps are compiled once per {e topology} (node count,
    device kinds, nodes and branch order; no values) into a process-wide
    cache: the sparsity pattern, the matrix slot of every stamp, and the
    shared symbolic LU factorization. A production {!ctx} only allocates
    value buffers, and each Newton iteration stamps the Jacobian and
    residual in one loop over the devices that allocates nothing under
    [Cap_open] with constant sources. Annealing candidates that only
    change element values reuse the same pivot order and fill schedule
    and pay numeric refactorization only. The dense LU oracle, an
    independent cross-check for the tests, is reached only through
    {!Oracle.with_dense}. *)

type cap_policy =
  | Cap_open  (** DC: capacitors carry no current *)
  | Cap_companion of { geq : float array; ieq : float array }
      (** Transient: the integration-method companion model of each
          capacitor in declaration order (at least {!cap_count} entries),
          a conductance [geq] beside a current source [ieq] leaving the
          positive node. *)

val node_voltage_of : float array -> int -> float
(** Voltage of a node index given the unknown vector (0 for ground). *)

val cap_count : Netlist.t -> int
(** Number of capacitors (companion-model history slots). *)

(** {1 Assembly contexts} *)

type ctx
(** Preallocated assembly state bound to one netlist. A production
    context holds its topology's compiled stamps (pattern, slot programs
    for both capacitor policies, branch rows), shared read-only with
    every context of the same topology, plus its own unboxed
    matrix/residual buffers and (lazily) a numeric factorization
    workspace over the shared symbolic factorization. A context built
    inside {!Oracle.with_dense} instead assembles a dense matrix and
    solves it by dense LU. Not thread-safe; create one per domain. *)

val context : Netlist.t -> ctx
(** A context for the netlist: the topology's compiled stamps (two
    recording traversals the first time the topology is seen, a cache
    probe after that) and fresh value buffers; no factorization yet.
    Inside {!Oracle.with_dense}, a dense context. A context stays valid
    across {!Netlist.set_wave}; adding a device or node to its netlist
    afterwards makes {!assemble_into} and {!residual_into} raise
    [Invalid_argument]. *)

val assemble_into :
  ctx ->
  x:float array ->
  time:float ->
  source_scale:float ->
  gmin:float ->
  cap_policy:cap_policy ->
  unit
(** Stamp the Jacobian and residual at [x] into the context's buffers.
    On a production context this is the compiled loop, which allocates
    nothing while every source is [Stimulus.Dc]; a non-constant
    waveform's value and a switch's [closed_at] are allocated by the
    callee. *)

val residual_into :
  ctx ->
  x:float array ->
  time:float ->
  source_scale:float ->
  gmin:float ->
  cap_policy:cap_policy ->
  float array ->
  unit
(** Evaluate only the residual into a caller-provided buffer, leaving the
    context's matrix and residual untouched; used for final residual
    reporting. The same float ops as {!assemble_into}'s residual, under
    the same allocation terms. A dense context runs the reference
    traversal. *)

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

val cache_analyses : Adc_numerics.Tally.t
(** Process-wide count of symbolic analyses published to the topology
    cache — stays tiny while refactorization counts grow, which is the
    point. *)

val shared_analyses : unit -> int
(** [Tally.get cache_analyses]. *)

(** The dense LU oracle. Test-only: no production path enters it. *)
module Oracle : sig
  val with_dense : (unit -> 'a) -> 'a
  (** [with_dense f] runs [f] with {!context} building dense contexts on
      the calling domain, so every DC and transient solve reached from
      [f] runs on the original [Adc_numerics.Mat] LU path, float op for
      float op. The previous state is restored when [f] returns or
      raises. *)

  val assemble :
    Netlist.t ->
    x:float array ->
    time:float ->
    source_scale:float ->
    gmin:float ->
    cap_policy:cap_policy ->
    Adc_numerics.Mat.t * float array
  (** The reference stamping traversal into a fresh dense Jacobian and
      residual: the dense oracle's assembly, and the float ops the
      compiled loop of a production context must reproduce bit for
      bit. *)

  val jacobian : ctx -> Adc_numerics.Mat.t
  (** The Jacobian the last {!assemble_into} stamped into [ctx], as a
      fresh dense matrix (zero off the sparsity pattern). *)
end
