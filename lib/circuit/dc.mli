(** DC operating-point solver.

    Newton-Raphson with voltage-step damping; falls back to gmin stepping
    and then source stepping when plain Newton fails (standard SPICE
    continuation strategy).

    The linear solves run on an [Mna.ctx], which carries the
    preallocated sparse matrix buffers and the (shared) symbolic
    factorization, so each Newton iteration costs one assembly plus one
    numeric refactorization, and allocates nothing at DC with constant
    sources.

    Convergence accepts when the previous damped voltage update is below
    1e-10 {e and} the residual assembled at the {e updated} point is
    below 1e-9 (the historical criterion read the pre-update residual,
    one iteration stale). *)

type result = {
  x : float array;       (** converged unknown vector *)
  iterations : int;      (** total Newton iterations across continuation *)
  strategy : string;     (** "newton" | "gmin-stepping" | "source-stepping" *)
  residual : float;      (** final infinity-norm of the KCL residual *)
}

val solve :
  ?x0:float array -> ?time:float -> ?max_iter:int ->
  ?ctx:Mna.ctx -> Netlist.t -> (result, string) Stdlib.result
(** Find the operating point. [time] fixes source values and switch
    states (default 0). [ctx] reuses a caller-held context; when
    omitted one is created internally. The netlist is validated first
    ([Netlist.validate], whose verdict is kept until the netlist grows);
    a bad netlist raises [Invalid_argument "Dc.solve: bad netlist: ..."].

    Caller invariants, checked at entry with [Invalid_argument]: a [ctx]
    must have been built by [Mna.context] for this very [nl] (physical
    equality; a value-only retarget through [Netlist.set_wave] keeps it
    valid), and [x0] must have [Netlist.unknown_count nl] entries. *)

val node_voltage : result -> Netlist.node -> float
(** Voltage of a node in a solved result (0 for ground). *)

val branch_current : Netlist.t -> result -> string -> float
(** Current through a named voltage source (positive from [np] to [nn]
    through the source). Raises [Invalid_argument] for unknown names. *)

val newton :
  ?max_iter:int -> ?vstep_limit:float -> ?ctx:Mna.ctx ->
  x0:float array -> time:float -> source_scale:float -> gmin:float ->
  cap_policy:Mna.cap_policy -> Netlist.t ->
  (float array * int, string) Stdlib.result
(** The raw damped-Newton kernel (shared with the transient engine).
    Returns the solution and the number of damped updates performed.
    Its minor-heap allocation does not depend on the number of
    iterations beyond what {!Mna.assemble_into} allocates. *)
