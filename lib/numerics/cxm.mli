(** Complex helpers and dense complex linear systems.

    The AC small-signal solver assembles a complex MNA matrix at each
    frequency point; this module provides the complex LU solve plus the
    handful of [Complex.t] conveniences the rest of the library needs. *)

val c : float -> float -> Complex.t
(** [c re im] builds a complex number. *)

val re : Complex.t -> float
val im : Complex.t -> float
val magnitude : Complex.t -> float
val phase_rad : Complex.t -> float
val phase_deg : Complex.t -> float
val db : Complex.t -> float
(** [db z] is [20 * log10 |z|]. *)

val approx_equal : ?tol:float -> Complex.t -> Complex.t -> bool

type t
(** Dense complex matrix. *)

exception Singular

val create : int -> t
(** [create n] is the zero [n*n] matrix. *)

val get : t -> int -> int -> Complex.t
val set : t -> int -> int -> Complex.t -> unit
val add_to : t -> int -> int -> Complex.t -> unit
val dim : t -> int

val solve : t -> Complex.t array -> Complex.t array
(** Gaussian elimination with partial pivoting; destroys neither input.
    Raises {!Singular} on numerically singular systems. *)
