(** The runtime's instrumentation: series names and the cells behind them.

    The DSM layers time each stage of a remote access and count every
    protocol event in the runtime's {!Dsmpm2_sim.Stats} registry; the
    Table 3 / Table 4 benches read their breakdowns straight from the
    series named below.  Each event site owns one cell per label
    set — (node, protocol) for faults, page traffic and stages, node for
    invalidations, diffs and sync waits — so an event is one update of one
    cell, with no name hashing on the hot path.

    Four stage series ({!stage_request}, {!stage_transfer},
    {!stage_migration}, {!stage_total}) and the three sync series are
    also stamped into the trace while monitoring is on: their sites call
    [Monitor.stamp], which records the sample and emits the same value as
    a [Trace.Stage] event named after the series, so [dsm analyze] reads
    these durations rather than measuring them.  {!stage_fault},
    {!stage_overhead_server} and {!stage_overhead_client} stay
    registry-only: they are cost-model constants, the same for every
    fault, so stamping them would add trace events and host time but no
    information. *)

open Dsmpm2_sim

(** {1 Series names} *)

val stage_fault : string
(** Page-fault detection (signal catch + decode in the paper): 11 us. *)

val stage_request : string
(** Page request propagation over the {e last} hop only: a forwarded
    request is re-stamped when it is re-sent ([Dsm_comm.send_request]), so
    the series runs from the final forward to the node that serves it,
    not from the fault.  [Dsm_comm]'s request handler records it on the
    receiving node [n] iff [n]'s entry for the page has
    [prob_owner = n || home = n]: once per request reaching a node that
    believes it owns or homes the page, whether it then serves or
    forwards. *)

val stage_transfer : string
(** Page (or migration payload) transfer time. *)

val stage_overhead_server : string
(** Owner/home-side protocol processing. *)

val stage_overhead_client : string
(** Requester-side page installation and table update. *)

val stage_migration : string
(** Thread-migration time (Table 4).  Its one cell is unlabelled: the
    registry keeps it run-wide, while its trace stamp names the faulting
    node and protocol. *)

val stage_total : string
(** Whole fault, detection to resumed access: the duration series of the
    fault cells ({!read_faults}, {!write_faults}, {!check_misses}). *)

val read_faults : string
val write_faults : string
val pages_sent : string

val pages_mapped : string
(** Pages declared in a node's page table. *)

val invalidations : string
(** Pages invalidated (one per (page, target) pair, batched or not): the
    volume of the invalidation cells. *)

val invalidate_rpcs : string
(** Invalidation RPCs put on the wire: with batching, one per target node
    per release/flush — the message-economy counter, and the event count
    of the invalidation cells. *)

val diffs_sent : string

val diff_bytes : string
(** Wire bytes of the diffs: the volume of the diff cells. *)

val check_misses : string
val inline_checks : string

val lock_wait : string
(** DSM lock acquisition on the acquiring node: from the call to
    [Dsm_sync.lock_acquire] until the protocol's [lock_acquire] action
    returns (manager round trip, queueing, acquire-time consistency). *)

val lock_hold : string
(** DSM lock tenure on the releasing node: from the grant reaching the
    holder (before the protocol's [lock_acquire] action) to the call to
    [Dsm_sync.lock_release]; recorded once the manager accepts the
    release. *)

val barrier_wait : string
(** Barrier latency on the arriving node: the manager round trip only,
    after the protocol's release action and before its acquire action. *)

val stages : string list
(** All stage series names, in pipeline order. *)

(** {1 Cells} *)

type proto_cells = {
  read : Stats.cell;  (** read faults, with their whole-fault latency *)
  write : Stats.cell;  (** write faults, with their whole-fault latency *)
  miss : Stats.cell;  (** inline-check misses, with their latency *)
  detect : Stats.cell;  (** {!stage_fault} *)
  request : Stats.cell;  (** {!stage_request} *)
  send : Stats.cell;  (** {!pages_sent} *)
  transfer : Stats.cell;  (** {!stage_transfer} *)
}
(** The cells of one (node, protocol) label set. *)

type node_cells = {
  invalidate : Stats.cell;  (** one event per RPC, one volume unit per page *)
  diff : Stats.cell;  (** one event per diff, volume in wire bytes *)
  lock : Stats.cell;  (** {!lock_wait} *)
  hold : Stats.cell;  (** {!lock_hold} *)
  barrier : Stats.cell;  (** {!barrier_wait} *)
  mapped : Stats.cell;  (** {!pages_mapped} *)
}
(** The cells of one node label. *)

type t = {
  stats : Stats.t;
  protocol_name : int -> string;
  nodes : node_cells array;
  mutable protos : proto_cells array array;
  checks : Stats.cell;  (** {!inline_checks} *)
  server : Stats.cell;  (** {!stage_overhead_server} *)
  client : Stats.cell;  (** {!stage_overhead_client} *)
  migrate : Stats.cell;  (** {!stage_migration} *)
}

val create : Stats.t -> nodes:int -> protocol_name:(int -> string) -> t
(** Creates the node-labelled and unlabelled cells in [stats];
    [protocol_name] names a protocol id for the protocol label. *)

val faults : proto_cells -> int
(** What counts as a fault: a read fault, a write fault or an inline-check
    miss — the events {!stage_total} times.  Telemetry's and the watchdog's
    fault counts both read it. *)

val proto : t -> node:int -> protocol:int -> proto_cells
(** The cells of [node] under protocol id [protocol], created (for every
    node) on the protocol's first use. *)
