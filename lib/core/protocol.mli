(** The protocol policy layer: a consistency protocol is a set of 8 actions.

    This is the paper's Table 1 verbatim.  Designing a protocol in DSM-PM2
    consists of providing these routines (built from the {!Protocol_lib}
    toolbox or from scratch) and registering the record; the generic core
    calls them automatically:

    - [read_fault] / [write_fault] run on the faulting node, in the faulting
      thread, when an access lacks rights;
    - [read_server] / [write_server] run on a node receiving a request for
      read/write access (in a fresh handler thread);
    - [invalidate_server] runs on receiving an invalidation request;
    - [receive_page_server] runs on receiving a page;
    - [lock_acquire] runs after a DSM lock has been acquired (and after a
      barrier releases);
    - [lock_release] runs before a DSM lock is released (and before a barrier
      is entered).

    The record is polymorphic in the runtime type ['rt] to break the module
    cycle between the registry (below the runtime) and the built-in protocols
    (above it); everywhere in this code base ['rt] is {!Runtime.t}. *)

open Dsmpm2_sim
open Dsmpm2_mem

type detection = Page_fault | Inline_check
(** How accesses to shared data are checked.  [Page_fault] charges the fault
    cost only on misses (the default); [Inline_check] charges a per-access
    locality check and no fault cost — the paper's [java_ic] vs [java_pf]
    distinction (Section 3.3). *)

type model = Sequential | Release | Java
(** The consistency contract a protocol declares, checked by the {!History}
    conformance checker:

    - [Sequential]: every read returns the most recent write in a single
      total order consistent with both program order and real time (per
      location) — the Li-Hudak family's guarantee.
    - [Release]: reads may be stale between synchronization points; a read
      must still return a write that is not overwritten in the
      happens-before order induced by program order, lock release→acquire
      pairs and barriers (DRF programs observe sequential consistency).
    - [Java]: the Java memory model as used by Hyperion — checked with the
      same happens-before rule as [Release]; main-memory propagation is only
      guaranteed at monitor operations. *)

val model_to_string : model -> string

val strict_coherence : model -> bool
(** Whether the model promises single-writer/multiple-reader page coherence
    at {e every} instant ([Sequential] only).  The live watchdog audits
    ownership uniqueness, writable-frame exclusivity and copyset/frame
    agreement only for protocols whose model passes this test: relaxed
    models legitimately keep stale replicas and conservative copysets
    between synchronization points.  Per-access quorum protocols (those
    with [on_local_read] set, e.g. [sc_abd]) are additionally exempt — they
    promise sequential consistency through majority intersection, with no
    standing owner for the audit to check. *)

type page_message = {
  page : int;
  data : bytes;
  grant : Access.t;  (** rights the receiver may install *)
  ownership : bool;  (** whether page ownership transfers with the copy *)
  copyset : int list;  (** transferred with ownership (MRSW protocols) *)
  sender : int;
  req_mode : Access.mode;  (** the mode of the fault being satisfied *)
  sent_at : Time.t;  (** instrumentation: transfer-stage timing *)
  span : int;  (** trace span of the originating fault, [Trace.no_span] if none *)
}

type 'rt t = {
  name : string;
  detection : detection;
  model : model;  (** the consistency contract the protocol promises *)
  read_fault : 'rt -> node:int -> page:int -> unit;
  write_fault : 'rt -> node:int -> page:int -> unit;
  read_server : 'rt -> node:int -> page:int -> requester:int -> unit;
  write_server : 'rt -> node:int -> page:int -> requester:int -> unit;
  invalidate_server : 'rt -> node:int -> page:int -> sender:int -> unit;
  receive_page_server : 'rt -> node:int -> msg:page_message -> unit;
  lock_acquire : 'rt -> node:int -> lock:int -> unit;
  lock_release : 'rt -> node:int -> lock:int -> unit;
  on_local_write :
    ('rt -> node:int -> page:int -> offset:int -> value:int -> unit) option;
      (** Not one of the paper's 8 actions: in DSM-PM2 proper, the Java
          protocols record modifications inside Hyperion's [put] access
          primitive.  This optional hook is that integration point — the
          core write path calls it after every successful shared write so
          that on-the-fly diff recording also works through the plain
          [Dsm.write_*] API.  [None] for all non-recording protocols. *)
  on_local_read : ('rt -> node:int -> page:int -> unit) option;
      (** Called by the core read path after every successful shared read.
          Lets a per-access protocol (the quorum-based [sc_abd]) revoke the
          rights it granted so the next read faults again and re-runs its
          quorum round.  [None] for all page-grain protocols. *)
  on_page_init : ('rt -> node:int -> page:int -> unit) option;
      (** Called once per (node, page) when a page enters the protocol's
          custody: at [Dsm.malloc] for pages created under the protocol, and
          for every page after [Dsm.switch_protocol] consolidates into it.
          Runs in plain (non-fiber) context during setup; must not block.
          [sc_abd] uses it to seed its replica tags and clear the
          default home-node access rights.  [None] elsewhere. *)
}

type 'rt registry

val no_action : 'rt -> node:int -> lock:int -> unit
(** A lock hook that does nothing (strong-consistency protocols). *)

val create_registry : unit -> 'rt registry

val register : 'rt registry -> 'rt t -> int
(** [dsm_create_protocol]: returns the new protocol's identifier. *)

val find : 'rt registry -> int -> 'rt t
(** @raise Invalid_argument on an unknown id. *)

val read_hits : int
val write_hits : int
val inline_hits : int

val hit_class : 'rt registry -> int -> int
(** The hit class of a registered protocol: which accesses the core may
    complete on its own, without the protocol record.  Every page-table
    entry keeps its protocol's class in its protection word
    ({!Page_table.hits}), set when the page is declared or switched.  The
    class is the [lor] of up to three bits:

    - [read_hits]: [on_local_read = None], so a read the rights allow
      needs nothing from the protocol;
    - [write_hits]: [on_local_write = None], the same for writes;
    - [inline_hits]: [detection = Inline_check], so every access is a
      counted, charged locality check.

    [Dsm]'s hit test (see {!Dsm.read_int}) completes an access on its own
    only when the entry's class has the access mode's bit.
    @raise Invalid_argument on an unknown id. *)

val find_by_name : 'rt registry -> string -> (int * 'rt t) option
val count : 'rt registry -> int
val all : 'rt registry -> (int * 'rt t) list
