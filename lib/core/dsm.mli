(** DSM-PM2: the user-facing programming interface.

    Mirrors the paper's [pm2_dsm_*]/[dsm_*] API: build a runtime for a
    cluster, register (or pick built-in) consistency protocols, allocate
    shared memory — statically or with [malloc] and per-region protocol
    attributes — spawn threads on nodes, and access shared data with
    [read_int]/[write_int].  Access detection is performed in software: every
    access checks the local page-table entry and triggers the page protocol's
    fault action on a miss, charging the paper's fault cost (or, for
    inline-check protocols, a per-access locality-check cost).

    A typical program:
    {[
      let dsm = Dsm.create ~nodes:4 ~driver:Dsmpm2_net.Driver.bip_myrinet () in
      let li_hudak = Dsmpm2_protocols.Builtin.register_all dsm |> ... in
      Dsm.set_default_protocol dsm li_hudak;
      let x = Dsm.malloc dsm 8 in
      for node = 0 to 3 do
        ignore (Dsm.spawn dsm ~node (fun () -> ... Dsm.read_int dsm x ...))
      done;
      Dsm.run dsm
    ]} *)

open Dsmpm2_sim
open Dsmpm2_net
open Dsmpm2_pm2
open Dsmpm2_mem

type t = Runtime.t

val create :
  ?costs:Runtime.costs ->
  ?tie_seed:int ->
  ?jitter:(src:int -> dst:int -> Time.t -> Time.t) ->
  ?page_size:int ->
  nodes:int ->
  driver:Driver.t ->
  unit ->
  t
(** Builds the full stack (engine, Marcel, network, RPC, DSM services) for a
    simulated cluster of [nodes] nodes over [driver].  [tie_seed] enables
    seeded schedule perturbation (see {!Engine.create}): each seed explores a
    distinct legal interleaving of same-time events and replays identically,
    the foundation of the [dsm_cli check] conformance harness. *)

val pm2 : t -> Pm2.t
val nodes : t -> int
val stats : t -> Stats.t
val engine : t -> Engine.t

(** {1 Protocols} *)

val create_protocol : t -> t Protocol.t -> int
(** [dsm_create_protocol]: registers a protocol and returns its id. *)

val set_default_protocol : t -> int -> unit
(** [pm2_dsm_set_default_protocol]. *)

val default_protocol : t -> int
val protocol_by_name : t -> string -> int option
val protocol_name : t -> int -> string

(** {1 Shared memory} *)

type home_policy =
  | Round_robin  (** page [i] of the region lives on node [i mod nodes] *)
  | On_node of int  (** all pages on one node *)
  | Block  (** contiguous chunks of pages per node *)

val malloc : t -> ?protocol:int -> ?home:home_policy -> int -> int
(** [dsm_malloc]: allocates [size] bytes of shared memory (rounded up to
    whole pages, so regions never share a page) and returns the start
    address, valid on every node (iso-address).  [protocol] is the region's
    creation attribute, defaulting to the default protocol; [home] places
    the pages (default [Round_robin]). *)

val region_pages : t -> addr:int -> size:int -> int list
(** Page numbers backing a region, for reports and tests. *)

type attr = { attr_protocol : int option; attr_home : home_policy }
(** [dsm_attr_t]: allocation attributes, as in the paper's
    [dsm_attr_set_protocol] example. *)

val attr : ?protocol:int -> ?home:home_policy -> unit -> attr
val malloc_attr : t -> attr -> int -> int
(** [dsm_malloc(size, &attr)]. *)

val switch_protocol : t -> addr:int -> size:int -> protocol:int -> unit
(** Re-associates a memory area with another protocol.  The paper (Section
    2.3) notes this "can be achieved through a careful synchronization at
    the program level ... one has to keep the corresponding memory area from
    being accessed by the application threads during the protocol switch,
    since this operation involves modifications in the distributed page
    table on all nodes".  This call performs those table modifications: it
    consolidates each page's authoritative copy on its home node, drops
    every replica, clears owner chains and copysets, and installs the new
    protocol id on every node.

    The caller is responsible for quiescence (e.g. via a barrier): the call
    raises [Invalid_argument] if any page of the area has a fault in flight
    or an unflushed twin (release the enclosing locks first). *)

val read_int : t -> int -> int
(** Reads the shared 8-byte word at the address, from the calling thread's
    node, faulting (and running protocol actions) as needed.

    What a hit costs: the word accessors and {!ensure_access} first make
    one test on the page's entry on the caller's node ({!hit_frame}),
    which finds the node's record, the page's entry and its frame once
    each.  The access is a hit when the fault-loop limit is not negative
    and the entry's
    protection word ({!Page_table.hits}) says that the protocol's
    {!Protocol.hit_class} has the mode's bit (no [on_local_read] for a
    read, no [on_local_write] for a write) or that the protocol granted
    write hits on this entry ({!Page_table.grant_write_hits}: a Java
    protocol's writes on the page's home), the rights allow the mode and
    the page is not pinned by a just-completed fault.  A hit costs the
    entry lookup, one masked test, the frame lookup and the word; it takes no
    simulated time unless the protocol is
    [Inline_check], whose hits count one check and charge
    [inline_check_us] each, by fiber id, without looking the thread up.
    It allocates nothing unless history is on, and then records the op
    with [start = finish = now].  Every other access takes the general
    path: the fault loop, unpinning, the protocol's access hooks and the
    history window.

    Java home writes used to take that general path (a second lookup,
    the registry, a hook call that recorded nothing).  Made hits, with
    the inline check charged by fiber id, they cut coloring-java-ic's
    host time from 0.0815 to 0.0708 s (−13.2%, seed 0) and from 0.0871
    to 0.0747 s (−14.2%, seed 3): medians of 10 alternating 15 s pairs
    on one 2-core host, with no simulated number moved. *)

val write_int : t -> int -> int -> unit
val read_byte : t -> int -> int
val write_byte : t -> int -> int -> unit

val ensure_access : t -> addr:int -> mode:Access.mode -> unit
(** The access-detection path, exposed for compiler-target use: guarantees
    the calling thread's node holds rights for [mode] on the page of [addr]
    before returning (the paper's get/put primitives build on this). *)

val hit_frame : t -> node:int -> addr:int -> mode:Access.mode -> bytes
(** The hit decision the word and byte accessors and {!ensure_access}
    make, for a thread whose node tag is [node] ([-1] outside a Marcel
    thread): the node's own frame for [addr]'s page when the access is a
    hit, after counting and charging an inline check if the protocol
    makes one; [Bytes.empty], having counted nothing, when the access
    must take the general path.  Exposed for tests; call it from a Marcel
    thread on [node]. *)

val unsafe_peek : t -> node:int -> int -> int
(** Reads a word directly from one node's frame store, without rights
    checks, protocol actions or cost charging.  For tests and debugging
    only: this is the post-mortem view of one node's memory. *)

val unsafe_rights : t -> node:int -> addr:int -> Access.t

(** {1 Conformance history} *)

val enable_history : t -> History.t
(** Turns on execution-history recording (idempotent): from now on every
    shared read/write (at word granularity) and every lock/barrier operation
    is logged with its thread, node and time window.  Feed the completed
    history to {!History.check} with the protocol's declared
    {!Protocol.model} to validate a run.  Call before {!run}. *)

val history : t -> History.t option

(** {1 Synchronization} *)

val lock_create : t -> ?protocol:int -> ?manager:int -> unit -> int
val lock_acquire : t -> int -> unit
val lock_release : t -> int -> unit
val with_lock : t -> int -> (unit -> 'a) -> 'a
val barrier_create : t -> ?protocol:int -> ?manager:int -> parties:int -> unit -> int
val barrier_wait : t -> int -> unit

(** {1 Fault injection} *)

val inject_faults : t -> ?retry:Rpc.retry_policy -> Fault_plan.t -> unit
(** Installs a fault schedule before {!run}: the network starts consulting
    the plan (crash blackholes, seeded message loss — see
    {!Network.set_fault_plan}), the engine gates fiber slices so threads on
    a crashed node freeze for the window and resume at restart, and the RPC
    layer arms reply deadlines with seeded retransmission ([retry], default
    {!Rpc.default_retry}, salted from the plan's seed) so calls into dead
    nodes fail fast with {!Rpc.Timeout} instead of suspending forever.

    Injecting a plan with no faults ({!Fault_plan.has_faults} [= false])
    uninstalls everything: no gate, no deadlines, no RNG draws — the run is
    bit-for-bit the schedule it would be without this call. *)

val fault_plan : t -> Fault_plan.t
(** The installed plan ({!Fault_plan.none} by default). *)

(** {1 Threads and execution} *)

val spawn :
  t ->
  ?stack_bytes:int ->
  ?attached_bytes:int ->
  ?migratable:bool ->
  node:int ->
  (unit -> unit) ->
  Marcel.thread

val join : t -> Marcel.thread -> unit
val self_node : t -> int

val charge : t -> float -> unit
(** Accrue [us] microseconds of application CPU work on the calling thread
    (paid lazily; see {!Marcel.charge}).  Also a preemptive-migration safe
    point: a pending load-balancer move is honoured here. *)

val compute : t -> float -> unit

val run : ?limit:Time.t -> t -> unit
val now_us : t -> float

exception Fault_storm of { addr : int; mode : Access.mode; attempts : int }
(** An access re-faulted more than the runtime's fault-loop limit: almost
    certainly a protocol bug (rights never become sufficient). *)
