(** Marcel: the simulated user-level thread package of PM2.

    Threads are engine fibers with node affinity and a stack-size attribute
    (which determines the cost of migrating them, see {!Pm2.migrate}).  Each
    node has a single CPU; [compute] occupies it, and the [charge]/[flush]
    pair lets compute-bound application code accumulate virtual CPU time
    cheaply and pay it in one chunk before its next interaction.

    Mutexes and condition variables have POSIX semantics.  In the real system
    they only synchronise threads of one node; here all simulated state lives
    in one OCaml heap, so they work anywhere, but the DSM layers use them
    node-locally, as Marcel does. *)

open Dsmpm2_sim

type t
(** A Marcel runtime: an engine plus one CPU per node. *)

type thread

val create : Engine.t -> nodes:int -> t
val engine : t -> Engine.t
val node_count : t -> int
val cpu : t -> int -> Cpu.t

val spawn :
  t ->
  ?stack_bytes:int ->
  ?attached_bytes:int ->
  ?migratable:bool ->
  node:int ->
  (unit -> unit) ->
  thread
(** Starts a thread on [node].  [stack_bytes] defaults to 1024 (the "minimal
    stack" of the paper's migration measurements); [attached_bytes] models
    private iso-allocated data that travels with the thread on migration
    (default 0).  [migratable] (default false) marks the thread as a
    candidate for preemptive migration by the load balancer — application
    workers are migratable, protocol handler threads are not.

    The thread's engine fiber is tagged with [node]
    ({!Dsmpm2_sim.Engine.set_tag}), and Marcel keeps the tag a mirror of
    the node: {!set_node} moves it, and the engine resets it to [-1]
    when the thread's fiber ends.  So while a Marcel thread runs,
    [Engine.current_tag (engine t) = node (self t)], and [-1] everywhere
    else: the DSM's access hits read their node this way, without
    looking the thread up. *)

val self : t -> thread
(** The calling thread.  Raises [Failure] outside of a Marcel thread.
    Allocation-free: one read of an array indexed by the current fiber id
    (the engine reuses the ids of ended fibers, so the array stays as long
    as the peak number of live fibers). *)

val self_opt : t -> thread option

val node_of_fiber : t -> int -> int option
(** The hosting node of the Marcel thread running on engine fiber [fid], or
    [None] for fibers that are not Marcel threads.  This is the fault
    injector's fiber -> node map ({!Dsmpm2_sim.Engine.set_gate}): the gate is
    consulted at event execution time, by which point [spawn] has registered
    the mapping. *)

val tid_of_fiber : t -> int -> int option
(** The tid of the Marcel thread running on engine fiber [fid], or [None]
    for fibers that are not Marcel threads.  Fiber ids are reused once a
    fiber ends, so this (like {!node_of_fiber}) names the thread running on
    [fid] now, never an earlier, dead one. *)

val tid : thread -> int
val node : thread -> int
val stack_bytes : thread -> int
val attached_bytes : thread -> int
val footprint_bytes : thread -> int
(** Stack + descriptor (256 B) + attached data: the payload size of a
    migration. *)

val is_alive : thread -> bool
val is_migratable : thread -> bool

val span : thread -> int
(** The trace span of the operation the thread is working on
    ([Trace.no_span] until set).  Set by the DSM monitor
    ([Monitor.with_thread_span]) and read wherever an event is attributed
    to the thread's operation: the network's drop events, RPC retries,
    migrations. *)

val set_span : thread -> int -> unit

val request_move : thread -> dst:int -> unit
(** Asks a migratable thread to move to [dst]; honoured at its next safe
    point (see {!Pm2.migrate_if_requested}).  Ignored for non-migratable
    threads. *)

val pending_move : thread -> int option
val clear_move : thread -> unit

val live_threads : t -> node:int -> thread list
(** The live threads currently hosted by [node], by ascending tid. *)

val last_exit : t -> Time.t
(** When the most recent thread ended (its body returned or raised and its
    pending CPU work was paid); [Time.zero] before any has.  Observer
    events (a watchdog tick) run no thread, so after a drained run this is
    the moment the program's work ended, not the clock the observers left. *)

val join : t -> thread -> unit
(** Blocks the calling thread until [thread] terminates. *)

val yield : t -> unit
(** Relinquishes control; the thread is rescheduled at the current time. *)

val compute : t -> float -> unit
(** [compute t us] occupies the calling thread's node CPU for [us]
    microseconds of virtual time (plus queueing), after first paying any
    pending [charge]d work.  [us] is rounded to the nearest nanosecond. *)

val charge : t -> float -> unit
(** Accumulates [us] microseconds of pending CPU work on the calling thread
    without touching the event queue or allocating.  Each charge is rounded
    to the nearest nanosecond once and added to the thread's pending work,
    an integer number of ns kept in an int array indexed by fiber id; so a
    charge below half a nanosecond costs nothing, however often it is made,
    and the order of the charges does not change the sum. *)

val charge_thread : t -> thread -> float -> unit
(** [charge] for a thread the caller has already looked up with {!self};
    the thread must be live. *)

val charge_tick : t -> int -> unit
(** [charge_tick t fid] charges one tick ({!set_tick_us}) to the live
    thread running on fiber [fid] (inside a thread,
    {!Dsmpm2_sim.Engine.current_fiber}), allocating nothing and without
    looking the thread up: the tick's price in ns is added to the pending
    work of [fid] in place.  A fiber id starts with no pending work each
    time a thread is spawned on it.  The DSM prices inline access checks
    this way. *)

val set_tick_us : t -> float -> unit
(** The price of one {!charge_tick} (default 0), rounded to the nearest
    nanosecond once, here.  Each tick is priced at the value current when
    it is charged. *)

val flush_charges : t -> unit
(** Pays all pending [charge]d work as a single [compute].  Called
    automatically by the communication layers before any interaction. *)

val set_node : t -> thread -> int -> unit
(** Re-homes a thread; used by the migration machinery only.  Pending charges
    must have been flushed first.  A live thread's fiber tag follows, so
    the thread reads its new node from {!Dsmpm2_sim.Engine.current_tag}
    as soon as it runs again. *)

module Mutex : sig
  type marcel = t
  type t

  val create : unit -> t
  val lock : marcel -> t -> unit
  val try_lock : marcel -> t -> bool
  val unlock : marcel -> t -> unit
  val locked : t -> bool
end

module Cond : sig
  type marcel = t
  type t

  val create : unit -> t
  val wait : marcel -> t -> Mutex.t -> unit
  val signal : marcel -> t -> unit
  val broadcast : marcel -> t -> unit
end

module Sem : sig
  type marcel = t
  type t

  val create : int -> t
  val acquire : marcel -> t -> unit
  val release : marcel -> t -> unit
  val value : t -> int
end
