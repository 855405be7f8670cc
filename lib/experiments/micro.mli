(** Micro-benchmarks of the PM2 substrate (paper Section 2.1).

    The paper quotes two platform figures: the minimal RPC latency (6 us
    over SISCI/SCI, 8 us over BIP/Myrinet) and the cost of migrating a
    thread with a minimal stack and no attached data (62 us over SISCI/SCI,
    75 us over BIP/Myrinet).  This experiment measures both on every driver,
    inside the simulator, and reports them next to the paper's numbers. *)

type row = {
  driver : string;
  null_rpc_us : float;  (** measured one-way latency of an empty RPC *)
  paper_null_rpc_us : float option;  (** the paper's figure, when quoted *)
  migration_us : float;  (** measured migration of a minimal (1 kB) stack *)
  paper_migration_us : float option;
}

val run : unit -> row list
val print : Format.formatter -> row list -> unit

val rows : row list -> (string * (string * int) list) list
(** [micro/null_rpc/<driver slug>] and [micro/migration/<driver slug>]:
    [ns], and [paper_ns] where the paper quotes one. *)
