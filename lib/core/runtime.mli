(** The DSM-PM2 runtime state: everything the generic core and the protocols
    share.

    One [Runtime.t] models one application run on one cluster: a PM2 runtime
    (threads + network + RPC), a page table and frame store per node, the
    protocol registry, the synchronization-object directories and the cost
    model.  The user-facing API lives in {!Dsm}; protocol implementations use
    this module together with {!Protocol_lib} and {!Dsm_comm}. *)

open Dsmpm2_sim
open Dsmpm2_pm2
open Dsmpm2_mem

type costs = {
  page_fault_us : float;
      (** catching and decoding the access fault (paper: 11 us) *)
  protocol_server_us : float;
      (** owner/home-side request processing (half of the paper's 26 us) *)
  protocol_client_us : float;
      (** requester-side page installation (other half of the 26 us) *)
  migration_protocol_us : float;
      (** protocol overhead of a migration-based fault (paper: < 1 us) *)
  inline_check_us : float;
      (** one [java_ic] locality check (a few cycles on a 450 MHz PII) *)
}

val default_costs : costs

type lock_state = {
  lock_id : int;
  lock_manager : int;  (** managing node *)
  mutable lock_protocol : int;
  (* manager-side state: *)
  mutable lock_held : bool;
  mutable lock_holder : int;  (** tid of the current holder, -1 if free *)
  lock_queue : Marcel.Cond.t;
  lock_mutex : Marcel.Mutex.t;
  mutable lock_acquisitions : int;
  mutable lock_ext : Page_table.ext;
      (** protocol-specific lock state (e.g. entry-consistency bindings) *)
  mutable lock_granted : Time.t;  (** holder-side: when the current hold began *)
}

type barrier_state = {
  barrier_id : int;
  barrier_manager : int;
  barrier_parties : int;
  mutable barrier_protocol : int;
  (* manager-side state: *)
  mutable barrier_arrived : int;
  mutable barrier_generation : int;
  barrier_cond : Marcel.Cond.t;
  barrier_mutex : Marcel.Mutex.t;
}

type services = {
  srv_request : Rpc.service;
  srv_send_page : Rpc.service;
  srv_invalidate : Rpc.service;
  srv_diffs : Rpc.service;
  srv_lock_acquire : Rpc.service;
  srv_lock_release : Rpc.service;
  srv_barrier : Rpc.service;
}

type node_mem = { table : Page_table.t; store : Frame_store.t }
(** One node's memory: its page table and its frame store.  A record, so an
    array of them is known to hold no floats and reading one element on the
    access hit path is a plain load, with no float-array tag test. *)

type attachment = ..
(** Open slot for layers above the runtime to park per-DSM state without a
    dependency from [Runtime] on them.  [Telemetry] extends this with its
    engine and recovers it by pattern match ([Telemetry.find]). *)

type t = {
  pm2 : Pm2.t;
  geo : Page.geometry;
  mem : node_mem array;  (** indexed by node *)
  registry : t Protocol.registry;
  mutable default_protocol : int;
  costs : costs;
  stats : Stats.t;
      (** the metrics registry: (node, protocol)-labelled counters and
          duration series *)
  cells : Instrument.t;  (** the registry's hot-path cells *)
  mutable services : services option;  (** set once by {!Dsm_comm.init} *)
  mutable locks : lock_state array;
      (** indexed by lock id: ids are dense from 0, and the slots from
          [next_lock] on are filler *)
  mutable next_lock : int;
  mutable barriers : barrier_state array;  (** indexed by barrier id, as [locks] *)
  mutable next_barrier : int;
  mutable fault_loop_limit : int;
      (** safety bound on fault-retry iterations per access *)
  mutable diffs_batch_handlers : diffs_handler option array;
      (** per-protocol whole-batch diff processing, indexed by protocol id;
          see {!Dsm_comm.set_diffs_handler} *)
  mutable history : History.t option;
      (** when set, the access and sync paths record every shared operation
          for the conformance checker (see [Dsm.enable_history]) *)
  mutable watch : watch_hooks option;
      (** when set, the sync client paths report blocking/waking threads to
          the live watchdog (see [Watchdog.attach]) *)
  mutable telemetry : attachment option;
      (** the online telemetry engine, when one is attached (see
          [Telemetry.attach]); the runtime itself never reads it *)
}

and diffs_handler =
  t -> node:int -> diffs:Diff.t list -> sender:int -> release:bool -> unit
(** Handles one arriving [Diffs] message's whole batch for a protocol: the
    batch form lets a home apply every diff and then issue {e one} batched
    invalidation per copyset node instead of one per page. *)

and watch_hooks = {
  wh_wait : node:int -> tid:int -> target:int -> unit;
      (** a client thread is about to block: [target] is a lock id
          ([>= 0]) or an encoded barrier id ([< 0], decode with
          [Dsm_sync.hook_target]) *)
  wh_wake : node:int -> tid:int -> target:int -> unit;
      (** the same thread resumed (lock granted / barrier released) *)
  wh_rearm : unit -> unit;
      (** called at the start of every [Dsm.run] so a watchdog whose timer
          stopped when a previous run drained can re-arm itself *)
}
(** Live-watchdog callbacks.  All arguments are immediate ints: a notify
    call allocates nothing, watcher attached or not. *)

val create : ?costs:costs -> Pm2.t -> t
val nodes : t -> int
val marcel : t -> Marcel.t
val engine : t -> Engine.t
val rpc : t -> Rpc.t
val self_node : t -> int
val table : t -> int -> Page_table.t
val store : t -> int -> Frame_store.t
val proto : t -> int -> t Protocol.t
val services : t -> services
(** @raise Failure if {!Dsm_comm.init} has not run. *)

val entry : t -> node:int -> page:int -> Page_table.entry
(** Shorthand for [Page_table.find (table t node) page]. *)

val lock_state : t -> int -> lock_state
(** One array read.  @raise Invalid_argument for an id [lock_create] never
    returned. *)

val barrier_state : t -> int -> barrier_state
(** As {!lock_state}, for barriers. *)

val notify_wait : t -> node:int -> tid:int -> target:int -> unit
val notify_wake : t -> node:int -> tid:int -> target:int -> unit
val notify_rearm : t -> unit
(** Watch-hook dispatch; no-ops (and allocation-free) when [watch] is
    unset. *)

val record_history : t -> start:Time.t -> History.kind -> unit
(** Appends to the conformance history (no-op when recording is off).  Must
    be called from the thread that performed the operation; [start] is when
    the operation began, the finish time is now. *)
