(** Point-to-point message delivery between simulated nodes.

    Guarantees FIFO ordering per directed link (as TCP, BIP and SISCI all do
    for a connection), charges the driver's cost model for every message, and
    exposes traffic counters.  An optional jitter hook perturbs latencies for
    the failure-injection tests; jitter never reorders a link. *)

open Dsmpm2_sim

type t

val create :
  ?jitter:(src:int -> dst:int -> Time.t -> Time.t) ->
  Engine.t ->
  driver:Driver.t ->
  nodes:int ->
  t
(** [jitter] maps the nominal delay of each message to an effective delay.
    Negative results are clamped to zero at send time, so a misbehaving
    jitter function can slow or speed messages but never schedule a delivery
    in the past. *)

val seeded_jitter :
  ?extra_us:float ->
  ?spike_us:float ->
  ?spike_pct:int ->
  seed:int ->
  unit ->
  src:int ->
  dst:int ->
  Time.t ->
  Time.t
(** [seeded_jitter ~seed ()] builds a deterministic fault-injection jitter
    function for {!create}: every message pays a uniform extra latency in
    [0, extra_us] (default 40) and [spike_pct]% of messages (default 2) pay a
    further [spike_us] (default 400) spike.  Draws are made in send order
    from a private seeded stream, so a given seed replays the identical
    perturbation; combined with the per-link arrival clamp, it can delay but
    never reorder a FIFO link. *)

val driver : t -> Driver.t
val nodes : t -> int

val send : t -> src:int -> dst:int -> cost:Driver.cost -> (unit -> unit) -> unit
(** [send t ~src ~dst ~cost k] delivers the message after the modelled delay
    and then runs [k] (in event context, not in a fiber).  Loopback
    ([src = dst]) is free and still asynchronous: it pays no wire delay, is
    counted in {!loopback_sent} rather than {!messages_sent}, and follows
    its own per-node monotonic-arrival clamp so two same-time self-sends
    deliver in send order under every tie seed (the same FIFO promise as a
    real link).  Node ids must be in range.  When a fault plan is installed
    ({!set_fault_plan}), cross-node messages may be dropped: blackholed if
    the source is inside a crash window at send time or the destination at
    arrival time, or lost by the plan's seeded per-message loss draw —
    dropped messages still count as sent (they hit the wire) and are
    tallied in {!messages_dropped}. *)

val messages_sent : t -> int
(** Cross-node messages only; self-sends never touch the wire and are
    counted in {!loopback_sent} instead. *)

val bytes_sent : t -> int
(** Wire bytes of every cross-node message: {!Driver.header_bytes} per
    message plus the payload of [Bulk] and [Migration] kinds.  Control
    traffic therefore shows up in byte columns too, making them comparable
    across message kinds. *)

val loopback_sent : t -> int
(** Self-sends ([src = dst]); also the "net.loopback" counter in
    {!stats}. *)

val messages_dropped : t -> int
(** Messages dropped by the installed fault plan (loss draws plus crash
    blackholes). *)

val messages_from : t -> int -> int
(** Cross-node messages sent by one node. *)

val bytes_from : t -> int -> int
(** Wire bytes of the cross-node messages sent by one node. *)

val set_trace : t -> Trace.t -> span:(unit -> int) -> unit
(** Wires fault forensics: once installed (and while the trace is enabled),
    every dropped cross-node message emits a typed [Trace.Drop] (seeded
    loss) or [Trace.Blackhole] (crash-window swallow) event carrying the
    link, the message-kind name and the span returned by [span] at drop
    time.  The PM2 layer installs a [span] that resolves the sending
    fiber's active operation span, so a lost invalidate lands in the same
    span as the write that sent it.  With no trace installed (the default)
    the drop paths allocate nothing. *)

val dropped_by_kind : t -> (string * int) list
(** Messages dropped by the fault plan per message kind, as
    [("msg.request", n); ...]. *)

val set_fault_plan : t -> Fault_plan.t -> unit
(** Installs a fault schedule.  The default is {!Fault_plan.none};
    installing a plan with no windows and zero loss changes nothing — no
    drops, no RNG draws, bit-for-bit identical schedules. *)

val fault_plan : t -> Fault_plan.t

val stats : t -> Stats.t
(** The network's registry, one cell per (source node, message kind): a
    message put on the wire counts under its kind ("msg.request",
    "msg.bulk", ...), adds its wire bytes to "net.bytes" and, once
    delivered, its latency (FIFO queueing behind earlier link traffic
    included) to "net.delay".  Self-sends count under "net.loopback".
    The cells are created at {!create}; a message costs one cell
    update. *)
