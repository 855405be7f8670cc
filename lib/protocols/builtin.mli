(** Registration of the built-in protocols: the six of the paper's Table 2
    and five this reproduction adds.

    Registering returns the protocol identifiers in one record, after which
    they can be used exactly like user-defined protocols: as the default
    protocol, as [dsm_malloc] attributes, or as components of hybrid
    protocols. *)

open Dsmpm2_core

type ids = {
  li_hudak : int;  (** sequential consistency, MRSW, dynamic manager *)
  migrate_thread : int;  (** sequential consistency via thread migration *)
  erc_sw : int;  (** eager release consistency, MRSW *)
  hbrc_mw : int;  (** home-based release consistency, MRMW, twins+diffs *)
  java_ic : int;  (** Java consistency, inline checks *)
  java_pf : int;  (** Java consistency, page faults *)
}

val register_all : Dsm.t -> ids
(** Registers the six protocols (and [hbrc_mw]'s home-side diffs handler,
    {!Dsm_comm.set_diffs_handler}) and makes [li_hudak] the default
    protocol, as in the paper's example programs. *)

val summary : (string * string) list
(** [(name, basic features)] — the rows of the paper's Table 2.  The
    consistency column is the registered record's {!Protocol.model}. *)

type extra_ids = {
  li_hudak_fixed : int;  (** fixed-manager variant of li_hudak *)
  hybrid_rw : int;  (** read-replicate / write-migrate hybrid (section 2.3) *)
  entry_ec : int;  (** Midway-style entry consistency *)
  write_update : int;  (** write-update protocol (processor consistency) *)
  sc_abd : int;  (** majority-quorum (ABD) sequential consistency, crash-tolerant *)
}

val register_extras : Dsm.t -> extra_ids
(** Registers the protocols this reproduction adds beyond the paper's Table
    2: the fixed-distributed-manager MRSW variant and the section-2.3 hybrid.
    Call after {!register_all}; the ids follow on from its six in the order
    sc_abd, write_update, entry_ec, hybrid_rw, li_hudak_fixed. *)

val protocols : unit -> Runtime.t Protocol.t list
(** Every builtin protocol's record in registry id order, read from a
    registry that {!register_all} and {!register_extras} filled: the one
    list the litmus suite, the pattern study, [dsm check] and Table 2 read. *)
