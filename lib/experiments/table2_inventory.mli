(** Table 2: the built-in protocol inventory.  The consistency column is
    the model each registered record declares, so the table cannot drift
    from the code. *)

type row = { name : string; consistency : string; features : string; registered : bool }

val run : unit -> row list
val print : Format.formatter -> row list -> unit
