(** The SPLASH-2-style extension study the paper's conclusion announces as
    current work: regular kernels (Jacobi relaxation and blocked matrix
    multiplication) compared across the four general-purpose protocols. *)

type cell = {
  kernel : string;
  protocol : string;
  time_ms : float;
  correct : bool;
  read_faults : int;
  write_faults : int;
  pages : int;
  diff_bytes : int;
}

val run : unit -> cell list
val print : Format.formatter -> cell list -> unit

val rows : cell list -> (string * (string * int) list) list
(** [splash/<kernel>/<protocol>]: the cell's fields, [time_ns], [correct] 0/1. *)
