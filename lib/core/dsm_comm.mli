(** The DSM communication module: message constructors, RPC services and
    their dispatch to protocol actions.

    This is the second half of the paper's generic core (Section 2.2): it
    provides the "limited set of communication routines" all page-based DSM
    protocols need — requesting a page, sending a page, invalidating,
    sending diffs — implemented on PM2's RPC mechanism, and dispatches each
    incoming message to the per-page protocol's server action.

    Diff application is protocol-sensitive (a home receiving release-time
    diffs may have to invalidate third-party copies), so protocols may
    override the default apply-only behaviour with [set_diffs_handler]. *)

open Dsmpm2_sim
open Dsmpm2_pm2
open Dsmpm2_mem

(** The DSM message vocabulary, as extensions of the RPC payload type.
    Requests and invalidations carry the causal span id of the fault that
    triggered them, so the whole remote access can be followed across
    nodes in the trace. *)
type Rpc.payload +=
  | Page_request of {
      page : int;
      mode : Access.mode;
      requester : int;
      sent_at : Time.t;
      span : int;
    }
  | Page_data of Protocol.page_message
  | Invalidate of { page : int; sender : int; span : int }
  | Invalidate_batch of { pages : int list; sender : int; span : int }
      (** every page this sender wants invalidated on the destination,
          coalesced into one control message (see {!call_invalidate_batch}) *)
  | Diffs of { diffs : Diff.t list; sender : int; release : bool }
  | Lock_op of { lock : int; node : int; tid : int }
  | Barrier_wait of { barrier : int; node : int }
  | Ack
  | Lock_error of string
      (** reply to an invalid lock release; see {!Dsm_sync.Lock_error} *)

val init : Runtime.t -> unit
(** Registers all DSM services with the runtime's RPC layer.  Must be called
    exactly once, before any shared allocation. *)

(** {1 Senders} — used by {!Protocol_lib} and protocol implementations. *)

val send_request :
  Runtime.t -> to_:int -> page:int -> mode:Access.mode -> requester:int -> unit
(** One-way page request (cost: one control message).  May be called from a
    handler thread to forward a request along the probable-owner chain. *)

val send_page :
  Runtime.t ->
  to_:int ->
  page:int ->
  grant:Access.t ->
  ownership:bool ->
  copyset:int list ->
  req_mode:Access.mode ->
  unit
(** Sends this node's current copy of [page] (cost: one bulk transfer of a
    page).  Dispatches to the receiver protocol's [receive_page_server]. *)

val call_invalidate : Runtime.t -> ?span:int -> to_:int -> page:int -> unit -> unit
(** Synchronous invalidation (waits for the ack).  [span] defaults to the
    calling thread's current span; pass it explicitly when fanning out
    from helper threads. *)

val call_invalidate_batch :
  Runtime.t -> ?span:int -> to_:int -> pages:int list -> unit -> unit
(** Synchronous invalidation of every page in [pages] on [to_] with a single
    control message — one RPC per destination node instead of one per page.
    No-op on []; a singleton degrades to {!call_invalidate}.  Bumps
    [invalidate.sent] once per page but [invalidate.rpc] once per message. *)

val call_diffs : Runtime.t -> to_:int -> diffs:Diff.t list -> release:bool -> unit
(** Sends diffs to their (common) home node and waits for the ack.  The home
    applies them via the diff handler of each page's protocol. *)

type diffs_handler =
  Runtime.t -> node:int -> diffs:Diff.t list -> sender:int -> release:bool -> unit

val set_diffs_handler : Runtime.t -> protocol:int -> diffs_handler -> unit
(** Overrides diff processing for pages of [protocol]: the handler receives
    every diff of an arriving [Diffs] message destined to [protocol] at once
    (order preserved), letting it coalesce its follow-up work — e.g. one
    batched invalidation per copyset node for the whole release instead of
    one RPC per (page, target).  Without a handler each diff goes to
    {!apply_diff_locally}. *)

val apply_diff_locally : Runtime.t -> node:int -> Diff.t -> unit
(** The default: applies the diff to the local frame under the entry mutex;
    exposed so custom handlers can reuse it. *)
