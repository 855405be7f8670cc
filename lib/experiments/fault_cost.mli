(** Tables 3 and 4: cost breakdown of processing a read fault.

    One cold remote read fault is taken on each of the paper's four
    platforms, under the page-transfer policy ([li_hudak], Table 3) and the
    thread-migration policy ([migrate_thread], Table 4); the instrumented
    per-stage costs are reported next to the paper's measurements. *)

type policy = Page_transfer | Thread_migration

type row = {
  operation : string;
  measured_us : float array;  (** one column per driver, Table 3/4 order *)
  paper_us : float array;
}

type table = { policy : policy; drivers : string list; rows : row list }

val run : policy -> table

val print : Format.formatter -> table -> unit

val rows : table -> (string * (string * int) list) list
(** [table3/<operation>/<driver slug>] (or [table4/...]): [ns], [paper_ns]. *)

val total : table -> driver:int -> float
(** Measured total (last row) for a driver column; for tests. *)

val paper_total : table -> driver:int -> float
