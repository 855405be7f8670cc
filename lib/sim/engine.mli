(** Deterministic discrete-event simulation engine with effect-based fibers.

    The engine owns a virtual clock and an event queue ordered by
    [(time, tie key, sequence number)], so two runs over the same inputs
    execute events in exactly the same order.  Code running inside the engine is organised as
    {e fibers}: lightweight cooperative threads implemented with OCaml 5
    effect handlers.  A fiber suspends by capturing its continuation and
    handing a resume thunk to whoever will wake it (a timer, a message
    delivery, a mutex holder, ...).  Resumption is always mediated by the
    event queue: calling the thunk schedules the continuation at the current
    virtual time rather than running it inline, which keeps stack discipline
    simple and execution order deterministic.

    This module plays the role of the operating-system kernel in the paper's
    stack: everything above (Marcel threads, Madeleine messaging, the DSM
    protocols) is built from [spawn], [suspend] and [after]. *)

type t

val create : ?tie_seed:int -> unit -> t
(** [tie_seed] enables {e schedule perturbation}: events scheduled for the
    same virtual time are ordered by a seed-driven tie key instead of FIFO
    insertion order.  Causality is preserved (an event only enters the queue
    once its creator has run, and distinct times still order by time), so
    every seed is a legal interleaving of the same program — and because the
    tie keys are drawn deterministically, the same seed always replays the
    identical schedule.  Omit it for the classic deterministic FIFO order. *)

val tie_seed : t -> int option
(** The perturbation seed this engine was created with, if any. *)

val now : t -> Time.t
(** Current virtual time. *)

val at : t -> Time.t -> (unit -> unit) -> unit
(** [at t time f] schedules [f] to run at absolute virtual [time] (which must
    not be in the past). *)

val after : t -> Time.t -> (unit -> unit) -> unit
(** [after t dt f] schedules [f] at [now t + dt]. *)

val at_observer : t -> Time.t -> (unit -> unit) -> unit
(** Like {!at}, but as an {e observer} event: it carries the maximal tie
    key and never draws from the schedule-perturbation RNG, so it runs
    after every same-time workload event and attaching it to a seeded run
    leaves the workload's schedule bit-for-bit identical.  Used by the
    fault injector to stamp crash-window Crash/Restart events into the
    trace without perturbing the schedule under test. *)

val periodic : t -> interval:Time.t -> (unit -> bool) -> unit
(** [periodic t ~interval tick] runs [tick] every [interval] of virtual time
    for as long as it returns [true] — the heartbeat the online watchdog is
    built on.  The timer is an {e observer}: its events carry the maximal
    tie key and never draw from the schedule-perturbation RNG, so they run
    after every same-time workload event and attaching a periodic observer
    to a seeded run leaves the workload's schedule bit-for-bit identical.
    Raises [Invalid_argument] on a non-positive interval. *)

val set_gate : t -> (int -> Time.t -> Time.t option) -> unit
(** Installs the fault-injection gate.  Before each fiber slice (a fiber's
    first body event or any resumed continuation) runs, the gate receives
    the fiber id and the current virtual time; returning [Some until] parks
    the slice and re-schedules it (and re-consults the gate) at [until] —
    this is how a crashed node's fibers freeze until its restart.  A gate
    returning [None] adds no events and draws nothing from the tie-key
    stream, so an installed but quiescent gate leaves seeded schedules
    bit-for-bit intact.  The gate is consulted at execution time, never at
    scheduling time, so it may depend on mappings (fiber -> node) that are
    only registered after [spawn] returns. *)

val clear_gate : t -> unit

val parked_count : t -> int
(** Number of times the gate parked a fiber slice so far. *)

val pending_events : t -> int
(** Events currently queued, those due at the current instant and those
    due later alike.  Inside a [periodic] tick this counts everyone
    {e else}: the tick's own event has been popped and the re-arm is only
    scheduled after the tick returns, so [pending_events t = 0] with
    [live_fibers t > 0] means no event can ever wake the remaining fibers —
    exactly the condition under which {!run} would raise {!Stalled}. *)

val spawn : t -> (unit -> unit) -> int
(** [spawn t f] schedules a new fiber running [f] at the current time and
    returns its fiber id.  The body starts on a pooled OCaml fiber when
    one is parked: a fiber whose earlier body returned waits in the pool
    with the stack that body grew, so the next body does not grow one
    from scratch.  A fiber whose body raised is not pooled, and the
    parked ones end when {!run} drains the queue (or, for an engine
    dropped before that, when it is garbage collected).  While the
    fiber (or one of its resumed continuations) is executing,
    [current_fiber t] returns this id.  Ids are small non-negative ints,
    and an id is reused once its fiber has ended (its body returned or
    raised): the most recently freed id goes first, and a fresh id only
    when none is free.  A table indexed by
    fiber id therefore needs no more slots than the peak number of live
    fibers.  Reuse changes no schedule: events are ordered by time, tie key
    and sequence number, never by fiber id. *)

val current_fiber : t -> int
(** The id of the fiber whose code is executing right now, or [-1] when
    running in plain event context (timer callbacks, message deliveries).
    Once a fiber has ended, a later {!spawn} may hand its id to a new
    fiber, so an id names a fiber only while that fiber is live. *)

val current_tag : t -> int
(** The tag of the fiber whose code is executing right now ({!set_tag}),
    or [-1] in plain event context.  A fiber's tag is [-1] until one is
    set, and again once the fiber has ended, so a reused id starts at
    [-1].  The engine only stores tags: the queue never reads them, so
    setting one moves no schedule.  Marcel keeps a Marcel thread's node
    in its fiber's tag, which lets a DSM access hit find
    its node with one load and no thread lookup. *)

val set_tag : t -> int -> int -> unit
(** [set_tag t fid tag] sets the tag of live fiber [fid]; when [fid] is
    the fiber running now, {!current_tag} reads [tag] at once.  Raises
    [Invalid_argument] if [fid] was never spawned. *)

val suspend : t -> ((unit -> unit) -> unit) -> unit
(** [suspend t register] suspends the calling fiber.  [register] receives a
    resume thunk; calling the thunk (at most once) schedules the fiber's
    continuation at the virtual time of the call.  Must be called from within
    a fiber. *)

val sleep : t -> Time.t -> unit
(** Suspends the calling fiber for [dt] of virtual time. *)

val run : ?limit:Time.t -> t -> unit
(** Executes events until the queue drains or the next event is due after
    [limit]: an event runs only at a time [<= limit], so with the clock
    already past [limit] nothing runs, not even the events due at the
    current instant.  The events left stay queued for a later [run].
    Raises [Stalled] if fibers remain suspended with an empty queue and a
    positive count of live fibers (i.e. a deadlock in simulated code). *)

exception Stalled of int
(** Raised by [run] when [n] fibers are still alive but no event can wake
    them. *)

val live_fibers : t -> int
(** Number of spawned fibers that have neither finished nor died. *)

val pooled_fibers : t -> int
(** Number of parked OCaml fibers waiting for a body.  They are not live:
    they count neither in {!live_fibers} nor towards {!Stalled}.  A run
    that drains the queue ends them, so this is 0 after it returns. *)

val events_executed : t -> int
(** Total events executed so far; a cheap progress/complexity metric. *)
