(** Circuit netlists.

    A netlist is built imperatively (SPICE-deck style) and then consumed by
    the DC/AC/transient engines. Nodes are interned by name; node 0 is
    ground ("0" or "gnd"). *)

type node = int
(** An interned circuit node index; 0 is ground. Obtain nodes via {!node}
    or {!ground} rather than synthesizing indices. *)

type mos = {
  m_name : string;
  d : node;
  g : node;
  s : node;
  b : node;
  polarity : Process.polarity;
  w : float;
  l : float;
  mult : float;  (** parallel-device multiplier *)
}

type device =
  | Resistor of { r_name : string; np : node; nn : node; ohms : float }
  | Capacitor of { c_name : string; np : node; nn : node; farads : float }
  | Vsource of { v_name : string; np : node; nn : node; wave : Stimulus.t; ac_mag : float }
  | Isource of { i_name : string; np : node; nn : node; wave : Stimulus.t; ac_mag : float }
  | Vcvs of { e_name : string; p : node; n : node; cp : node; cn : node; gain : float }
  | Mos of mos
  | Switch of {
      s_name : string;
      np : node;
      nn : node;
      r_on : float;
      r_off : float;
      closed_at : float -> bool;
    }

type t
(** A mutable netlist under construction (also the compiled artifact: the
    engines read it directly). *)

val create : Process.t -> t
val process : t -> Process.t

val ground : node
val node : t -> string -> node
(** Intern a node by name (creates it on first use). *)

val node_name : t -> node -> string
val node_index : node -> int
val node_count : t -> int
(** Number of nodes including ground. *)

val find_node : t -> string -> node option

val resistor : t -> string -> node -> node -> float -> unit
val capacitor : t -> string -> node -> node -> float -> unit
val vsource : ?ac_mag:float -> t -> string -> node -> node -> Stimulus.t -> unit
val isource : ?ac_mag:float -> t -> string -> node -> node -> Stimulus.t -> unit
val vcvs : t -> string -> p:node -> n:node -> cp:node -> cn:node -> gain:float -> unit

val mosfet :
  t -> string ->
  d:node -> g:node -> s:node -> b:node ->
  Process.polarity -> w:float -> l:float -> ?mult:float -> unit -> unit

val switch :
  t -> string -> node -> node ->
  r_on:float -> r_off:float -> closed_at:(float -> bool) -> unit

val set_wave : t -> string -> Stimulus.t -> unit
(** [set_wave t name wave] retargets the independent voltage or current
    source [name] to [wave] in place. Structure-preserving: nodes,
    branches and device order are untouched, and MNA assembly's slot
    program never depends on element values, so an [Mna.ctx] built
    before the call stays valid and assembles the new value. Raises
    [Invalid_argument] when [name] is not an independent source. *)

val devices : t -> device list
(** Devices in insertion order. Built once after a change and then
    shared, like {!device_array}. *)

val device_array : t -> device array
(** The same devices as an array, in insertion order, for loops that
    index them. The array is shared until the next device is added or
    {!set_wave} runs: read it, do not write it. *)

val mos_devices : t -> mos list

val branch_count : t -> int
(** Number of extra MNA unknowns (voltage-source and VCVS branch currents). *)

val unknown_count : t -> int
(** Total MNA unknowns: (nodes - 1) + branches. *)

val branch_index : t -> string -> int option
(** MNA branch index (within the branch block) of a named V source/VCVS;
    [None] for unknown names. Non-raising so front-ends (the SPICE
    parser among them) can probe without exception plumbing. *)

val validate : t -> (unit, string) result
(** Structural checks: every node reachable from ground through a DC path,
    no duplicate device names, positive element values. The verdict is
    computed once and kept until a node or a device is added ({!set_wave}
    does not change connectivity). *)
