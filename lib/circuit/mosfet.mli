(** Level-1 MOSFET device equations.

    Square-law model with channel-length modulation and body effect,
    symmetric in drain/source (negative [vds] swaps the terminals
    internally). PMOS devices are evaluated by polarity reflection.

    Current convention: [ids] is the current flowing into the drain
    terminal and out of the source terminal. For an NMOS in normal
    operation [ids >= 0]; for a PMOS [ids <= 0]. *)

type region = Cutoff | Triode | Saturation

type eval = {
  ids : float;  (** drain current, A *)
  gm : float;   (** d ids / d vgs at the applied bias *)
  gds : float;  (** d ids / d vds *)
  gmb : float;  (** d ids / d vbs *)
  region : region;
}

val eval :
  Process.mos_params ->
  Process.polarity ->
  w:float -> l:float ->
  vgs:float -> vds:float -> vbs:float ->
  eval
(** Evaluate the device at the given terminal-difference voltages. *)

val eval_into :
  Process.mos_params -> Process.polarity -> w:float -> l:float -> float array -> region
(** [eval_into p polarity ~w ~l io] is {!eval}, float op for float op,
    over an array: it reads [vgs], [vds], [vbs] from [io.(0..2)], writes
    [ids], [gm], [gds], [gmb] to [io.(3..6)] and returns the region. It
    allocates nothing, where {!eval}'s record and its float arguments
    are boxed (dune's dev profile compiles [-opaque], so a float passed
    across a module boundary is boxed). {!eval} wraps it: the model has
    one copy. *)

val threshold : Process.mos_params -> Process.polarity -> vbs:float -> float
(** Body-effect-adjusted threshold voltage (signed: negative for PMOS). *)

type caps = { cgs : float; cgd : float; cgb : float; cdb : float; csb : float }

val capacitances :
  Process.mos_params -> w:float -> l:float -> region -> caps
(** Meyer-style region-dependent gate capacitances plus constant junction
    capacitances; used for AC analysis and SFG construction. *)

val vdsat : Process.mos_params -> Process.polarity -> vgs:float -> vbs:float -> float
(** Saturation voltage [vgs - vt] (clamped at 0); magnitude for PMOS. *)
