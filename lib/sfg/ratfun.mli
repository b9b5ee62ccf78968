(** Numeric rational functions of the Laplace variable s.

    The instantiated form of a symbolic transfer function: once every
    small-signal parameter is bound, a circuit transfer function is a
    ratio of real-coefficient polynomials in s. *)

type t = { num : Adc_numerics.Poly.t; den : Adc_numerics.Poly.t }

exception Zero_denominator

val make : Adc_numerics.Poly.t -> Adc_numerics.Poly.t -> t
(** Normalizes so the denominator's leading coefficient is 1; raises
    {!Zero_denominator} on a zero denominator. *)

val of_const : float -> t
val s : t
val zero : t
val one : t

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val neg : t -> t
val scale : float -> t -> t

val eval : t -> Complex.t -> Complex.t
(** Evaluate at a complex frequency point. *)

val eval_jw : t -> float -> Complex.t
(** Evaluate at [s = j*2*pi*f] for frequency [f] in Hz. *)

val of_expr : Expr.t -> env:(string -> float) -> t
(** Instantiate a symbolic expression: every variable except ["s"] is
    looked up in [env]. *)

val factor : ?tol:float -> t -> t * Complex.t array * Complex.t array
(** [factor h] is [(reduce h, poles (reduce h), zeros (reduce h))],
    rooting each polynomial once when nothing cancels: the roots that
    decide cancellation are the answer. When roots do cancel, the rebuilt
    polynomials are rooted again, exactly as the separate calls would.
    Raises [Invalid_argument] on a non-finite coefficient. *)

val reduce : ?tol:float -> t -> t
(** Cancel (numerically) common roots of numerator and denominator.
    Mason's rule produces un-reduced ratios; cancellation keeps pole/zero
    lists honest. The first component of {!factor}. *)

val poles : t -> Complex.t array
val zeros : t -> Complex.t array
val is_finite : t -> bool
(** Every coefficient of numerator and denominator is finite. *)

val dc_gain : t -> float
(** Value at s = 0; infinite denominators yield [infinity]. *)

val pp : Format.formatter -> t -> unit
