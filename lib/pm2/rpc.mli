(** PM2's Remote Procedure Call mechanism, on top of the network layer.

    A service is a named handler; invoking it sends a request message (whose
    cost on the wire is chosen by the caller: a control message, a bulk
    transfer, ...) to the destination node, where the handler runs in a
    freshly spawned Marcel thread — the paper's "invocations can involve the
    creation of a new thread".  [call] blocks the calling thread until the
    reply arrives; [oneway] returns immediately.

    Payloads use an extensible variant so that each subsystem (DSM
    communication, locks, barriers, Hyperion) declares its own message
    constructors without this module knowing about them. *)

open Dsmpm2_net

type payload = ..
type payload += Unit

type t

type handler = src:int -> payload -> payload * Driver.cost
(** Runs on the destination node in a new thread; returns the reply and its
    wire cost. *)

type service

type retry_policy = {
  timeout_us : float;  (** first attempt's reply deadline *)
  retries : int;  (** maximum retransmissions after the first attempt *)
  backoff : float;  (** deadline multiplier per attempt (>= 1) *)
  jitter_us : float;  (** seeded uniform extra per deadline, in [0, jitter_us) *)
}

val default_retry : retry_policy
(** 600 us deadline, 3 retransmissions, exponential backoff x2, 40 us
    jitter: with the drivers' sub-10 us latencies, a healthy reply always
    beats the first deadline, while total patience (~ 4.5 ms) stays well
    under typical crash windows so a call into a dead node fails fast. *)

exception Timeout of { service : string; dst : int; attempts : int }
(** Raised in the calling thread when every attempt's deadline expired. *)

val create : Marcel.t -> Network.t -> t
val marcel : t -> Marcel.t
val network : t -> Network.t

val set_retry : t -> ?seed:int -> retry_policy option -> unit
(** Arms (or with [None] disarms) reply deadlines and retransmission for
    every subsequent {!call}.  Without a policy, [call] suspends forever if
    the reply is lost — the historical behaviour, kept as the default
    because deadline timers add events and RNG draws that would perturb
    existing seeded schedules.  With a policy, each call sends the request
    with a fresh request id, arms a deadline of
    [timeout_us * backoff^(attempt-1) + jitter] (jitter drawn from a stream
    salted from [seed], in call order), retransmits while attempts remain
    and raises {!Timeout} in the calling thread once they run out.  The
    server suppresses duplicate executions by request id ({e at-least-once
    delivery, at-most-once execution}): a retransmission of a request whose
    handler already ran gets the cached reply resent, one still running is
    answered by the original's reply.  Lock, barrier and page services are
    therefore safe under retransmission without their own idempotence
    logic. *)

val retry : t -> retry_policy option

val set_trace : t -> Dsmpm2_sim.Trace.t -> unit
(** Wires fault forensics: once installed (and while the trace is enabled),
    every retransmission emits a typed [Trace.Rpc_retry] event carrying the
    service name, the link and the attempt count, stamped with the calling
    thread's operation span (captured at call time, since the retry timer
    fires outside fiber context). *)

val retransmissions : t -> int
(** Retransmissions sent so far — the watchdog's retry-storm feed: the
    samples of the "rpc.retry.delay" series on {!Network.stats}, which
    records how long each call had waited when it retransmitted. *)

val duplicates_served : t -> int
(** Duplicate requests answered from the server-side request-id cache. *)

val register : t -> name:string -> handler -> service
val service_name : t -> service -> string

val call : t -> dst:int -> service:service -> cost:Driver.cost -> payload -> payload
(** Blocking invocation from the calling Marcel thread.  Pending CPU charges
    are flushed first.  [dst] may equal the caller's node (loopback). *)

val oneway : t -> dst:int -> service:service -> cost:Driver.cost -> payload -> unit
(** Fire-and-forget invocation; the handler still runs (its reply is
    discarded).  May also be called from plain event context by giving the
    source node explicitly with [oneway_from]. *)

val oneway_from :
  t -> src:int -> dst:int -> service:service -> cost:Driver.cost -> payload -> unit

val calls_made : t -> int
