(** The PM2 runtime facade: threads + network + RPC + iso-address allocation
    + preemptive thread migration.

    This bundles the pieces the paper's Section 2.1 describes into one
    runtime value, mirroring the [pm2_*] API.  The DSM layers are built
    exclusively against this module and {!Rpc}/{!Marcel}. *)

open Dsmpm2_sim
open Dsmpm2_net

type t

val create :
  ?tie_seed:int ->
  ?jitter:(src:int -> dst:int -> Time.t -> Time.t) ->
  ?page_size:int ->
  nodes:int ->
  driver:Driver.t ->
  unit ->
  t
(** Builds a fresh engine, [nodes] single-CPU nodes, a network using
    [driver], an RPC runtime and an iso-address allocator ([page_size]
    defaults to 4096, the paper's page size).  [tie_seed] turns on the
    engine's schedule-perturbation mode (see {!Engine.create}). *)

val engine : t -> Engine.t
val marcel : t -> Marcel.t
val rpc : t -> Rpc.t
val network : t -> Network.t
val iso : t -> Isoalloc.t
val nodes : t -> int
val driver : t -> Driver.t
val trace : t -> Trace.t

val spawn :
  t ->
  ?stack_bytes:int ->
  ?attached_bytes:int ->
  ?migratable:bool ->
  node:int ->
  (unit -> unit) ->
  Marcel.thread

val self_node : t -> int
(** Node of the calling thread. *)

val migrate : t -> dst:int -> unit
(** Preemptively migrates the calling thread to node [dst]: its continuation
    is shipped over the network at the driver's migration cost (a function of
    the thread's footprint: stack + descriptor + attached data) and resumes
    on [dst].  A migration to the current node is a no-op.  This is the
    primitive the [migrate_thread] DSM protocol is built on. *)

val migrate_if_requested : t -> unit
(** The preemptive-migration safe point: if the load balancer has requested
    that the calling thread move, performs the migration now.  Called
    automatically by {!Marcel.compute} boundaries via the balancer's
    instrumentation wrapper and freely insertable in application loops. *)

val honour_move : t -> Marcel.thread -> unit
(** [migrate_if_requested] for the calling thread, already looked up with
    {!Marcel.self}. *)

val migrations : t -> int

val run : ?limit:Time.t -> t -> unit
(** Runs the simulation to completion (or to [limit]). *)

val now_us : t -> float
