(** Driving-point-impedance SFG construction.

    Builds the signal-flow graph of a linear(ized) circuit directly from
    its small-signal netlist, the way the paper's designers draw it by
    hand: each circuit node contributes the relation
    [V_i = (1/Y_ii) * (J_i - sum_{j<>i} Y_ij V_j)], where [Y_ii] is the
    node's driving-point admittance and [Y_ij] the transfer admittances.
    Mason's rule applied to the resulting graph yields the symbolic
    transfer function.

    Supported devices: resistors, capacitors, switches (state frozen at
    t = 0), MOSFETs (linearized via {!Adc_circuit.Smallsig}), and
    independent sources. The input is the unique source with a non-zero
    [ac_mag]. VCVS elements are rejected — the DPI form is nodal, and the
    OTA netlists analyzed in this flow do not need them.

    Symbolic variable naming: [g_<res>], [c_<cap>], [gsw_<switch>],
    [gm_<mos>], [gds_<mos>], [gmb_<mos>], [cgs_<mos>], [cgd_<mos>],
    [cgb_<mos>], [cdb_<mos>], [csb_<mos>].

    The symbolic half of the analysis depends only on the topology, so it
    runs once per topology: the stamps, the simplified Y cells, the graph
    and a flat program per Y cell are compiled and kept in a process-wide
    cache shared by all domains. {!build} computes the topology key and
    fills the candidate's values. *)

type result
(** One candidate: the compiled program of its topology and its values. *)

exception Unsupported of string

val build : Adc_circuit.Netlist.t -> Adc_circuit.Smallsig.t -> result
(** Raises {!Unsupported} on a structure the DPI form cannot take (no or
    several AC sources, a floating V source, a VCVS, a MOS without
    small-signal data, a node without driving-point admittance). Such a
    structure is never cached. *)

val numeric_tf : result -> Adc_circuit.Netlist.node -> Ratfun.t
(** Stable numeric transfer function from the input to a node voltage:
    polynomial Cramer's rule on the nodal system, sampled on a
    frequency-scaled circle and recovered by inverse DFT — avoids the
    degree blow-up of instantiating the un-cancelled Mason ratio (see
    dpi.ml). Raises {!Unsupported} when the node is not an SFG unknown or
    the nodal system is singular. *)

val numeric_tf_current :
  result ->
  src_pos:Adc_circuit.Netlist.node ->
  src_neg:Adc_circuit.Netlist.node ->
  out:Adc_circuit.Netlist.node ->
  Ratfun.t
(** Transfer impedance from a unit current injected between two circuit
    nodes to an output node voltage — the building block of the
    device-noise analysis (each transistor's drain-current noise is such
    an injection). *)

val transfer_to : result -> Adc_circuit.Netlist.node -> Expr.t
(** Symbolic transfer function from the input to a node voltage
    (Mason's rule on the DPI graph). *)

val numeric_transfer_to : result -> Adc_circuit.Netlist.node -> Ratfun.t
(** {!numeric_tf}: the same transfer function instantiated with the
    extracted small-signal values. *)

val compiled_programs : Adc_numerics.Tally.t
(** Process-wide count of programs compiled and published to the cache
    — a handful per process however many candidates are built. *)
