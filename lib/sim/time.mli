(** Virtual time for the discrete-event simulator.

    Time is an integer number of nanoseconds since the start of the
    simulation.  The paper reports all costs in microseconds; nanosecond
    resolution keeps sub-microsecond costs (such as inline locality checks)
    exact without floating-point drift. *)

type t = int

val zero : t
val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val max : t -> t -> t
val min : t -> t -> t

val of_us : float -> t
(** [of_us x] is [x] microseconds, rounded to the nearest nanosecond. *)

val of_ns : int -> t
val to_us : t -> float
val to_ms : t -> float

val pp : Format.formatter -> t -> unit
(** Prints with an adaptive unit, e.g. ["198.0us"] or ["12.3ms"]. *)
