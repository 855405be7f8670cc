(** Figure 4: TSP with 14 random cities under 4 protocols (BIP/Myrinet).

    Reproduces the paper's comparison of the two sequential-consistency and
    two release-consistency protocols on the lock-centric TSP program, with
    one application thread per node.  The headline shape: all page-based
    protocols perform comparably, while [migrate_thread] is clearly slower
    because every worker migrates to the node holding the shared bound and
    overloads it. *)

type cell = {
  protocol : string;
  nodes : int;
  time_ms : float;
  best : int;
  migrations : int;
  workers_on_node0 : int;  (** how many workers finished on node 0 *)
}

type data = { cities : int; seed : int; sequential_best : int; cells : cell list }

val protocols : string list
(** The four protocols of the figure, in its order. *)

val run : ?cities:int -> ?seed:int -> ?node_counts:int list -> unit -> data
(** Defaults: 14 cities, seed 42, nodes [1; 2; 4; 8]. *)

val print : Format.formatter -> data -> unit

val rows : data -> (string * (string * int) list) list
(** [fig4/sequential] ([best]), then [fig4/<protocol>/<nodes>]: [time_ns],
    [best], [migrations], [workers_on_node0]. *)
