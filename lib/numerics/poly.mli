(** Univariate polynomials with real coefficients.

    Coefficients are stored lowest degree first: [c.(k)] multiplies [x^k].
    Polynomials back the numeric transfer functions produced by Mason's
    rule; their roots are the poles and zeros of the analyzed circuits. *)

type t
(** An immutable polynomial. The zero polynomial has degree -1. *)

val of_coeffs : float array -> t
(** [of_coeffs c] builds a polynomial from low-to-high coefficients,
    trimming trailing (near-)zero leading terms. *)

val coeffs : t -> float array
val degree : t -> int
val zero : t
val one : t
val constant : float -> t
val monomial : float -> int -> t
(** [monomial c k] is [c * x^k]. *)

val is_zero : t -> bool
val equal : ?tol:float -> t -> t -> bool

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val scale : float -> t -> t
val pow : t -> int -> t
val derivative : t -> t

val eval : t -> float -> float
val eval_complex : t -> Complex.t -> Complex.t

val is_finite : t -> bool
(** Every coefficient is finite (no NaN, no infinity). *)

val roots : ?max_iter:int -> ?tol:float -> t -> Complex.t array
(** [roots p] computes all complex roots by the Aberth-Ehrlich
    simultaneous iteration, stopping once a sweep moves no root by
    [tol] (scaled variable), [3] sweeps after the first sweep that
    moves no root by [1e-8] (the rounding floor, when [0 < tol]), or
    after [max_iter] sweeps. Real-axis roots are snapped to the axis
    when their imaginary part is below the cleanup threshold. The
    iteration allocates nothing; the result is bit for bit that of the
    same iteration over boxed [Complex.t].
    Raises [Invalid_argument] when [degree p < 1] or when a coefficient
    is not finite (no root would move, and the initial guesses would
    come back as plausible-looking roots). *)

(** Process-wide {!Tally}s, added once per {!roots} call on any domain:
    the calls that ran the iteration, their Aberth sweeps, and the calls
    that stopped at [max_iter] or at the rounding floor without meeting
    [tol]. *)

val roots_calls : Tally.t
val aberth_iterations : Tally.t
val aberth_max_iter_hits : Tally.t
val aberth_floor_stops : Tally.t

val horner_into : float array -> float array -> float -> float -> unit
(** [horner_into out c zre zim] writes the polynomial with coefficients
    [c] (lowest degree first, as {!coeffs}) at [z] to [out.(0)],
    [out.(1)], operation for operation {!eval_complex}. Allocates
    nothing. *)

val from_roots : Complex.t array -> t
(** Monic real polynomial with the given roots; conjugate pairs must both
    be present (the small imaginary residue of the product is dropped). *)

val pp : Format.formatter -> t -> unit
