(** The DSM protocol library layer: thread-safe toolbox routines from which
    consistency protocols are assembled (paper Section 2.2).

    The routines encapsulate the "subtle synchronization problems" the paper
    says the generic core solves once for everybody: per-page fault
    coalescing, entry-mutex discipline, parallel invalidation with acks, and
    the cost-model charging that makes the Table 3/4 breakdowns come out. *)

open Dsmpm2_mem

val server_overhead : Runtime.t -> unit
(** Charges the owner/home-side protocol processing cost (CPU) and records
    it under {!Instrument.stage_overhead_server}. *)

val client_overhead : Runtime.t -> unit
(** Charges the requester-side installation cost (CPU) and records it under
    {!Instrument.stage_overhead_client}. *)

val migration_overhead : Runtime.t -> unit
(** Charges the (tiny) protocol cost of a migration-based fault. *)

val with_entry : Runtime.t -> Page_table.entry -> (unit -> 'a) -> 'a
(** Runs [f] with the entry mutex held (released on exception). *)

val wait_while_faulting : Runtime.t -> Page_table.entry -> unit
(** Blocks (entry mutex held on entry and exit) while a local fault
    transaction is in progress on the page. *)

val fetch_page : Runtime.t -> node:int -> page:int -> mode:Access.mode -> from:int -> unit
(** The standard coalesced fault transaction: marks the entry as faulting,
    sends a page request for [mode] to [from], and blocks until the page
    arrives ([receive_page_server] must call {!complete_fault}).  If another
    local thread already has a fault in flight on this page, waits for it
    instead of issuing a second request (faults coalesce per node).  Callers
    must re-check access rights afterwards (the granted rights may not cover
    [mode]). *)

val complete_fault : Runtime.t -> Page_table.entry -> unit
(** Clears the faulting flag, pins the entry for the local retry, and wakes
    every thread blocked in {!fetch_page}.  Must be called with the entry
    mutex held. *)

val wait_for_service : Runtime.t -> Page_table.entry -> unit
(** Blocks (entry mutex held) while a local fault is in flight {e or} a just
    granted page is still pinned awaiting its local retry.  Request servers
    must use this rather than {!wait_while_faulting}: otherwise two nodes
    write-faulting on the same page can steal the page from each other
    forever, each losing it before its own thread retries the access. *)

val unpin : Runtime.t -> Page_table.entry -> unit
(** Releases the service pin (normally done by the access path after the
    retried access succeeds). *)

val install_page : Runtime.t -> node:int -> Protocol.page_message -> unit
(** Adopts the received page data into the node's frame store (the message's
    buffer is never read again, so no further copy is made) and sets the
    granted access rights (entry mutex must be held). *)

val invalidate_copies : Runtime.t -> page:int -> targets:int list -> unit
(** Invalidates [targets] in parallel and waits for all acks.  The calling
    node is filtered out. *)

val invalidate_copies_many : Runtime.t -> copies:(int * int) list -> unit
(** Batched invalidation of [(target, page)] copies: sends each target a
    {e single} invalidation RPC carrying all its pages, all targets in
    parallel, and waits for every ack — O(copyset) messages per release
    instead of O(pages x copyset).  The batches are
    {!invalidation_batches} of the calling node.  Must not be called with
    any target's entry mutex held (the invalidated node may flush diffs
    back). *)

val invalidation_batches : self:int -> (int * int) list -> (int * int list) list
(** The batches {!invalidate_copies_many} sends from node [self]: one per
    target other than [self], targets ascending, each with its pages
    ascending and without duplicates.  One sort of the pairs. *)

val group_by_key : (int * 'a) list -> (int * 'a list) list
(** Groups pairs by key, keys ascending, each group's values in input
    order: one stable sort of the pairs. *)

val send_diffs_grouped : Runtime.t -> release:bool -> (int * Diff.t) list -> unit
(** Groups [(home, diff)] pairs by home ({!group_by_key}) and sends each
    home {e one} diffs message (all homes in parallel), waiting for every
    ack.  Diff order per home follows the input order. *)

val push_diffs : Runtime.t -> targets:int list -> diffs:Diff.t list -> release:bool -> unit
(** Pushes the same diffs to every target in parallel and waits for all
    acks (the write-update fan-out).  The calling node is filtered out. *)

val drop_copy : Runtime.t -> node:int -> page:int -> unit
(** Discards the local copy: rights to [No_access], frame dropped, twin
    cleared (entry mutex must be held). *)

val make_twin : Runtime.t -> node:int -> Page_table.entry -> unit
(** Snapshots the current frame as the entry's twin. *)

val diff_against_twin : Runtime.t -> node:int -> Page_table.entry -> Diff.t option
(** The diff of the current frame against the twin; [None] when no twin
    exists or nothing changed. *)
