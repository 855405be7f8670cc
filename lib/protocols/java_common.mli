(** Common machinery of the two Java-consistency protocols (paper Section
    3.3).

    Both are home-based MRMW protocols implementing the Java Memory Model's
    main-memory contract: objects live on their home node (the "main
    memory"); other nodes cache at most one copy per node, shared by all
    their threads; local modifications are {e recorded on the fly} with
    object-field (word) granularity and transmitted to the home when a
    thread exits a monitor; a thread's (node's) object cache is flushed when
    it enters a monitor.

    The two registered variants differ only in access detection:
    [java_ic] checks locality explicitly on every access (inline check, the
    Hyperion get/put path), [java_pf] relies on page faults. *)

open Dsmpm2_core

val make : name:string -> detection:Protocol.detection -> Runtime.t Protocol.t

val keeps_records : Runtime.t Protocol.t -> bool
(** Whether the protocol records its local writes here: true for every
    protocol built by {!make} (java_ic, java_pf, entry_ec, whatever their
    [model]), false for any other. *)

val recorded_words : Runtime.t -> node:int -> page:int -> (int * int) list
(** The (offset, value) modification records not yet transmitted for this
    page, oldest first; for tests. *)

val flush_records : Runtime.t -> node:int -> protocol:int -> unit
(** Sends all pending records to their homes (the "main memory update"
    primitive Hyperion calls on monitor exit).  Raises [Invalid_argument]
    if [protocol] keeps other node state on [node] (it is not one of the
    protocols built on this module). *)

val flush_selected : Runtime.t -> node:int -> protocol:int -> only:int list option -> unit
(** Like {!flush_records}, restricted to the pages in [only] (all pages when
    [None]).  Building block for selective-consistency protocols such as
    entry consistency. *)

val drop_selected : Runtime.t -> node:int -> protocol:int -> only:int list option -> unit
(** Drops this node's cached (non-home) copies of the given protocol's
    pages, restricted to [only]; pending records of the dropped pages are
    transmitted first. *)

val record_write : Runtime.t -> node:int -> page:int -> offset:int -> value:int -> unit
(** The on-the-fly modification recording (a no-op on the page's home). *)
