(** Figure 5: Java consistency — page faults vs inline checks.

    The minimal-cost map-colouring program (29 eastern US states, 4 colours
    with different costs) compiled Hyperion-style, run on SISCI/SCI with one
    worker per node, under [java_ic] and [java_pf].  The paper's result:
    [java_pf] clearly outperforms [java_ic], because every get/put pays a
    locality check under [java_ic] while faults are rare under [java_pf]
    (local objects are used intensively, remote accesses are not). *)

type cell = {
  protocol : string;
  nodes : int;
  time_ms : float;
  best_cost : int;
  gets : int;
  inline_checks : int;
  read_faults : int;
}

type data = { sequential_best : int; cells : cell list }

val run : ?node_counts:int list -> unit -> data
(** Default node counts: [1; 2; 4] (the paper uses a four-node cluster). *)

val print : Format.formatter -> data -> unit

val rows : data -> (string * (string * int) list) list
(** [fig5/sequential] ([best_cost]), then [fig5/<protocol>/<nodes>]:
    [time_ns], [best_cost], [gets], [inline_checks], [read_faults]. *)
