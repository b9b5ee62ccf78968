(** Scalar root finding and minimization helpers. *)

exception No_bracket
(** Raised when a bracketing method is given an interval whose endpoint
    values do not straddle zero. *)

val bisect : ?tol:float -> ?max_iter:int -> (float -> float) -> float -> float -> float
(** [bisect f a b] finds a root of [f] in [a, b]; requires
    [f a] and [f b] of opposite signs, else raises {!No_bracket}. *)

val brent : ?tol:float -> ?max_iter:int -> (float -> float) -> float -> float -> float
(** Brent's method (inverse quadratic / secant / bisection hybrid); same
    contract as {!bisect} but much faster on smooth functions. *)

val newton :
  ?tol:float -> ?max_iter:int -> f:(float -> float) -> df:(float -> float) ->
  float -> float option
(** Damped Newton from an initial guess; [None] if it fails to converge. *)

val golden_min : ?tol:float -> (float -> float) -> float -> float -> float
(** Golden-section minimizer of a unimodal function on [a, b]. *)

val find_sign_change : (float -> float) -> float array -> (float * float) option
(** Scan a grid of abscissae for the first adjacent pair with a sign
    change; feeds {!brent}. *)

val monotone_bisect :
  tol:float -> known:(float * float) list ->
  probe:(float -> float option) -> float -> float -> (float, float) result
(** [monotone_bisect ~tol ~known ~probe lo hi] bisects [[lo, hi]] for a
    point where a non-increasing [f] lies in [(-tol, tol)]. Each of at
    most 60 midpoints is decided as a real sample would decide it: stop
    when [|f mid| < tol], go right when [f mid > 0], left otherwise.
    After 60 halvings the next midpoint is the result. The search ends
    with [Ok mid] at a decided midpoint, or with [Error mid] where
    [probe mid] failed ([None]).

    [known] holds samples [(x, f x)] already taken. A midpoint is
    decided from them, without a probe, when exactly one outcome
    follows by monotonicity: right if some [x >= mid] has
    [f x >= tol]; left if some [x <= mid] has [f x <= -tol]; stop if
    some [x <= mid] has [f x < tol] and some [x >= mid] has
    [f x > -tol]. Otherwise [probe mid] is called.

    With [known = []] this is plain bisection, probe for probe. With
    true samples of a non-increasing [f] and no failed probe it returns
    the same midpoint, bit for bit, and probes a subset of the midpoints
    plain bisection probes. The sign of [f lo] and [f hi] is the
    caller's business. *)
