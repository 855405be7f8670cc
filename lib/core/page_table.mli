(** The DSM page manager's distributed table (one instance per node).

    Following the paper's design discussion (Section 2.2), the entry layout
    carries the fields "common to virtually all protocols" — access rights,
    probable owner, home node, copyset, the protocol id — plus an {e
    extensible} slot ([ext], and a per-node [node_ext] map) so that "new
    information fields can be added, as needed by the protocols of interest"
    without touching the generic core.  A field may have different semantics
    in different protocols and may be left unused by some (e.g. [prob_owner]
    is the dynamic-manager chain for [li_hudak] but frozen at [home] for the
    home-based protocols).

    Entries also carry the fault-coalescing state ([faulting] + condition)
    that makes the table safe for an arbitrary number of concurrent threads
    per node: concurrent faults on one page coalesce, faults on different
    pages proceed in parallel.

    An entry's access rights, its pin and the hit class of its protocol
    live in one protection word, the simulated [mprotect]: a protocol reads
    and writes them through {!rights}/{!set_rights},
    {!pinned}/{!set_pinned} and {!set_protocol}, and an access decides a
    hit with one masked test of the word ({!hits}). *)

open Dsmpm2_sim
open Dsmpm2_pm2

type ext = ..
(** Protocol-specific page or node state. *)

type ext += No_ext

type entry = {
  page : int;
  mutable prot : int;
      (** the protection word: rights, pin and hit class; use the
          accessors below, never the bits *)
  mutable prob_owner : int;
  mutable home : int;
  mutable copyset : int list;  (** sorted, without duplicates *)
  mutable protocol : int;  (** written only by {!set_protocol} *)
  mutable faulting : bool;  (** a local fault is in progress on this page *)
  fault_done : Marcel.Cond.t;
  entry_mutex : Marcel.Mutex.t;  (** serialises server-side transitions *)
  mutable twin : bytes option;
  mutable ext : ext;
}

type t

exception Not_mapped of int
(** Raised when touching a page no allocation ever declared: the simulated
    equivalent of a segmentation fault outside the DSM area. *)

val create : node:int -> t
val node : t -> int

val count_mapped : t -> Stats.cell -> unit
(** [declare] then bumps the cell for every page it maps. *)

val declare :
  t ->
  page:int ->
  home:int ->
  owner:int ->
  protocol:int ->
  cls:int ->
  rights:Dsmpm2_mem.Access.t ->
  entry
(** Adds an entry for [page] under [protocol], whose hit class
    ({!Protocol.hit_class}) is [cls]; raises [Invalid_argument] if already
    present or if [page] is negative.  The table is an array indexed by
    page number (iso-address pages are dense from 1), grown by doubling
    here and nowhere else. *)

(** {2 Protection} *)

val rights : entry -> Dsmpm2_mem.Access.t
val set_rights : entry -> Dsmpm2_mem.Access.t -> unit

val allows : entry -> Dsmpm2_mem.Access.mode -> bool
(** [allows e mode] is [Access.allows (rights e) mode]. *)

val pinned : entry -> bool
(** A fault was just satisfied and the faulting thread has not yet retried
    its access; remote services must wait (see
    {!Protocol_lib.wait_for_service}) so the local access cannot be starved
    by back-to-back ownership requests. *)

val set_pinned : entry -> bool -> unit

val set_protocol : entry -> protocol:int -> cls:int -> unit
(** Moves the entry to [protocol], whose hit class is [cls]. *)

val hit_class : entry -> int
(** The class the entry was declared or last moved with. *)

val hits : entry -> Dsmpm2_mem.Access.mode -> bool
(** The hit test: the class has the mode's bit ({!Protocol.read_hits} or
    {!Protocol.write_hits}), the rights allow the mode and the page is not
    pinned.  One load and one masked compare. *)

val inline_checked : entry -> bool
(** The class has {!Protocol.inline_hits}: an access is counted and
    charged as an inline check. *)

val find : t -> int -> entry
(** One array read; allocation-free on a hit.
    @raise Not_mapped if the page was never declared (negative pages and
    pages beyond the array included; a miss never grows the table). *)

val find_opt : t -> int -> entry option
val mem : t -> int -> bool

val length : t -> int
(** Number of mapped pages; O(1).  Pages are never unmapped, so an
    unchanged length means an unchanged set of entries. *)

val iter : t -> (entry -> unit) -> unit
(** Applies [f] to every entry in page order, allocating nothing.  [f] may
    suspend: a page declared meanwhile may or may not be visited. *)

val entries : t -> entry list
(** Sorted by page number. *)

val copyset_add : entry -> int -> unit
val copyset_remove : entry -> int -> unit

val node_ext : t -> protocol:int -> ext
(** Per-(node, protocol) state; [No_ext] when never set. *)

val set_node_ext : t -> protocol:int -> ext -> unit
