(** Symbolic scalar expressions.

    The symbolic layer of the DPI/SFG analysis: edge gains and transfer
    functions are expressions over named small-signal parameters
    ([gm_m1], [gds_m1], capacitor values, ...) and the Laplace variable
    [s]. Expressions print as designer-readable formulas and evaluate
    either to floats (numeric parameters) or to rational functions of [s]
    (see {!Ratfun}). *)

type t =
  | Const of float
  | Var of string
  | Add of t list
  | Mul of t list
  | Neg of t
  | Div of t * t
  | Pow of t * int

val zero : t
val one : t
val const : float -> t
val var : string -> t

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
val neg : t -> t
val pow : t -> int -> t
val sum : t list -> t
val product : t list -> t

val s : t
(** The Laplace variable [Var "s"]. *)

val simplify : t -> t
(** Constant folding, flattening of nested sums/products, and
    zero/one/neg normalization. Idempotent. *)

val eval : t -> (string -> float) -> float
(** Numeric evaluation; the environment must define every variable
    (raises [Not_found] otherwise). Division by zero raises
    [Division_by_zero]. *)

val vars : t -> string list
(** Free variables, sorted, without duplicates. *)

val equal : t -> t -> bool
(** Structural equality after simplification. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
