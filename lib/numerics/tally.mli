(** Process-wide named event counters.

    A tally is a monotonic [int] counter shared by every domain, declared
    once (at module initialisation) by the code that counts, under the
    metric name it is exported as. Counting is one atomic add: no lock
    and no lookup by name. Readers that want every count — the metrics
    registries of the daemon and the CLI — walk {!all}. A tally exists
    only if the module that declares it is linked. *)

type t

val make : string -> t
(** [make name] declares a tally at 0. Raises [Invalid_argument] when a
    tally of that name already exists. *)

val incr : t -> unit
val add : t -> int -> unit
val get : t -> int

val all : unit -> (string * t) list
(** Every tally declared so far, sorted by name. *)
