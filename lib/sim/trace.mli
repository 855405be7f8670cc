(** Post-mortem event trace with typed events and causal span ids.

    The paper highlights PM2's "very precise post-mortem monitoring tools"
    as part of the platform's value; this module is their equivalent.  When
    enabled, components {!emit} timestamped {e typed} events (faults, page
    requests and transfers, invalidations, diffs, lock and barrier
    requests reaching their managers, thread migrations, watchdog alerts,
    injected faults, and the fault-stage and sync-wait stamps of the
    runtime's registry).

    There is one event model and one read path.  The trace stores each
    emission as its [(timestamp, span id, event)] triple and gives back
    exactly those triples ({!iter}, {!events}, {!spans}); a JSONL dump
    re-loaded with {!of_jsonl} yields the same triples, so a live and a
    reloaded trace feed every tool identically.  Text is made only where it
    is printed, from {!event_category} and {!event_message}.

    A {e span id} links every event belonging to one logical operation: a
    remote access carries its span from fault detection through request
    forwarding, page transfer and install, across nodes. *)

type severity = Info | Warning | Critical  (** of an [Alert], mildest first *)

val severity_to_string : severity -> string
(** ["info"], ["warning"] or ["critical"]. *)

val severity_of_string : string -> severity option
(** Inverse of {!severity_to_string}; [None] for any other string. *)

type lock_op = Acquire | Release  (** the request a lock manager received *)

type event =
  | Fault of { node : int; page : int; protocol : string; mode : string }
      (** [mode] is ["read"] or ["write"]. *)
  | Page_request of {
      node : int;  (** serving node *)
      page : int;
      protocol : string;
      mode : string;
      requester : int;
    }
  | Page_send of {
      node : int;  (** sending node *)
      page : int;
      protocol : string;
      dst : int;
      bytes : int;
      grant : string;  (** access granted to the receiver *)
    }
  | Page_install of {
      node : int;  (** installing node *)
      page : int;
      protocol : string;
      sender : int;
      grant : string;
    }
  | Invalidate of { node : int; page : int; protocol : string; sender : int }
  | Diff of {
      node : int;  (** receiving node (the home applying the batch) *)
      pages : int;  (** batch size, [List.length page_list] *)
      page_list : int list;  (** the diffed pages, so traffic is attributable *)
      bytes : int;  (** wire bytes of the whole batch *)
      sender : int;
      release : bool;
      protocol : string;  (** the pages' protocol (batches are split per protocol) *)
    }
  | Lock of { node : int; lock : int; op : lock_op }
      (** Manager-side: an acquire or release request from a thread of
          [node] reached [lock]'s manager. *)
  | Barrier of { node : int; barrier : int }
  | Migration of { thread : int; src : int; dst : int }
  | Alert of { severity : severity; kind : string; node : int; detail : string }
      (** Watchdog finding.  [kind] is a dotted taxonomy name ("invariant.owner",
          "deadlock.cycle", "stall.lock", "thrash.page", ...); [node] is the
          node the finding concerns or [-1] for run-wide findings; [detail]
          carries the human-readable evidence. *)
  | Drop of { src : int; dst : int; kind : string }
      (** A message lost by the fault plan's seeded per-message loss draw
          ([Network.send]).  [kind] is the message-kind name
          ("msg.request", "msg.bulk", ...); the span is the operation the
          message belonged to, so the blame engine can tie the loss to the
          access it starved. *)
  | Blackhole of { src : int; dst : int; kind : string; down : int }
      (** A message swallowed by a crash window: [down] is the crashed node
          ([src] at send time or [dst] at arrival time). *)
  | Crash of { node : int; up : Time.t }
      (** A fault-plan crash window opening on [node]; [up] is the window's
          scheduled end, so a post-mortem trace carries the full bounds. *)
  | Restart of { node : int }  (** The crash window on [node] closing. *)
  | Rpc_retry of { service : string; src : int; dst : int; attempt : int }
      (** A retransmission going out after a reply deadline expired
          ([Rpc.call]); [attempt] counts the attempts already made. *)
  | Stage of { node : int; protocol : string; stage : string; obj : int; ns : Time.t }
      (** A stamp: the duration [ns] the runtime just recorded into its
          registry series [stage] (a fault stage such as "stage.total", on
          page [obj], or a sync series such as "sync.lock.wait", on lock
          or barrier [obj]) for [node] under [protocol].  It is emitted at
          the same site and under the same condition as the registry
          sample, so a complete trace holds exactly the registry's samples
          of the stamped series. *)

val no_span : int
(** The span id of events outside any operation ([-1]). *)

val event_category : event -> string
(** The category name ("fault", "request", "page", ...) the printers and
    per-category summaries show. *)

val event_message : event -> string
(** The one-line human-readable rendering. *)

val event_node : event -> int
(** The node an event belongs to, or [-1] for a run-wide alert. *)

type t

val create : ?enabled:bool -> unit -> t
val enable : t -> bool -> unit
val enabled : t -> bool

(** {2 Flight recorder}

    By default a trace grows without bound.  {!set_capacity} turns it into a
    bounded ring: the newest [n] events are kept, older ones are evicted
    (counted by {!evicted}), and memory stays constant for arbitrarily long
    runs.  Attaching or resizing the recorder never touches the engine — a
    seeded schedule is bit-for-bit identical with and without it. *)

val set_capacity : t -> int -> unit
(** Bounds the trace to the newest [n] events ([n > 0]; raises
    [Invalid_argument] otherwise).  Shrinking below the current size drops
    the oldest entries immediately. *)

val capacity : t -> int option
(** The configured bound, or [None] for an unbounded trace. *)

val recorded : t -> int
(** Events ever recorded, including evicted ones; monotonic. *)

val evicted : t -> int
(** Events overwritten by the ring ([recorded - length]); 0 while
    unbounded. *)

val set_autodump : t -> string -> unit
(** Arms the flight-recorder dump: the first critical [Alert] recorded
    after this call writes the whole trace to the given path with
    {!save_jsonl} and disarms.  Re-arming resets the
    fired flag. *)

val autodump_path : t -> string option
val autodump_fired : t -> bool

(** {2 Observer & sampling}

    One subscriber may observe the live event stream at emit time — before
    the sampler's keep/drop decision and before the flight recorder evicts
    anything — so online consumers ({!Telemetry}) see every event while
    stored history stays bounded.  Observers must be passive (no engine
    events, no shared RNG draws): under that contract attaching one never
    perturbs a seeded schedule.

    Sampling is deterministic and head-based: one seeded draw per span id
    decides the fate of the whole operation, so kept spans are kept {e
    entirely} (causal chains stay whole for [dsm explain]) and the same
    (seed, span) always decides the same way, independent of emission order
    — sampled runs remain replayable.  Alerts, fault-plan events ([Drop],
    [Blackhole], [Crash], [Restart], [Rpc_retry]) and events outside any
    span are always kept. *)

val set_observer : t -> (at:Time.t -> span:int -> event -> unit) -> unit
(** Attaches the observer, called with each emission's timestamp, span id
    and typed event; nothing is rendered for it.  Raises
    [Invalid_argument] when one is already attached (there is exactly one
    slot; compose externally if needed). *)

val set_sampling : t -> seed:int -> keep_pct:float -> unit
(** Enables head-based span sampling: a span is stored with probability
    [keep_pct]% under a pure function of [(seed, span id)].  Raises
    [Invalid_argument] unless [0 <= keep_pct <= 100].  [keep_pct = 100.]
    keeps everything; [0.] keeps only the always-kept kinds. *)

val span_kept : t -> int -> bool
(** Whether the sampler keeps the given span id ([true] when unsampled or
    for [no_span]) — the deterministic per-span decision, exposed so tests
    and tools can predict a sampled trace's contents. *)

val sampled_out : t -> int
(** Events dropped by the sampler since creation (monotonic).  Disjoint
    from {!evicted}: sampled-out events were never stored and do not
    advance {!recorded}. *)

(** {2 Spans}

    A span groups the events of one operation (a fault, a served request)
    across nodes.  The trace only numbers them: the span a thread is
    working on lives on the thread itself ([Marcel.span], set by
    [Monitor.with_thread_span]), so finding it is a field read, not a
    lookup keyed by thread. *)

val new_span : t -> int
(** A fresh span id ([no_span] when disabled). *)

(** {2 Recording} *)

val emit : t -> Engine.t -> ?span:int -> event -> unit
(** No-op when the trace is disabled.  Stores the event as given; no
    message is formatted.  Call sites on hot paths should guard with
    {!enabled} so the event itself is not even allocated. *)

(** {2 Inspection}

    Every reader returns the stored [(timestamp, span id, event)] triples,
    chronological; nothing is rendered. *)

val iter : t -> (at:Time.t -> span:int -> event -> unit) -> unit

val events : t -> (Time.t * int * event) list

val spans : t -> (int * (Time.t * int * event) list) list
(** Every span's events grouped (chronological within a group), ordered by
    first appearance — each group is one logical operation's full chain.
    Events outside any span are left out. *)

val length : t -> int
(** Number of events currently stored ([<= recorded] once the flight
    recorder evicts); O(1). *)

(** {2 Exporters} *)

val event_to_json : at:Time.t -> span:int -> event -> Json.t
(** One flat object: [at_ns], [span], ["type"] plus the event's fields. *)

val event_of_json : Json.t -> (Time.t * int * event) option
(** Inverse of {!event_to_json}; [None] on unknown or malformed input,
    including an alert whose severity {!severity_of_string} rejects. *)

val to_jsonl : Format.formatter -> t -> unit
(** One {!event_to_json} object per line, chronological. *)

val of_events : (Time.t * int * event) list -> t
(** Rebuilds a (disabled, post-mortem) trace from chronological typed
    events, the triples {!events} returns; inspection and export behave as
    on a live trace. *)

val of_jsonl : string -> (t, string) result
(** [of_jsonl contents] re-loads a {!to_jsonl} dump (the whole file as one
    string).  Blank lines are skipped; [Error] carries the first offending
    line's number.  A lock [op] other than ["acquire"] or ["release"] is
    an error, as are a negative page id, a negative node id on a [Fault],
    a [Diff] sender or a [Stage], and a negative [Stage] object or
    duration: no run emits one, the telemetry tables index by ids, and a
    sketch would clamp the duration to 0.  Inverse of {!to_jsonl}: exporting the
    result re-prints the same lines. *)

val chrome_json : t -> Json.t
(** The whole trace as a Chrome [trace_event] document: instant events with
    the node as [pid], the span as [tid], and node/page/protocol/span in
    [args] — loadable in chrome://tracing or Perfetto. *)

val to_chrome : Format.formatter -> t -> unit

val save_jsonl : string -> t -> unit
(** Writes the {!to_jsonl} dump to a file. *)

val load_jsonl : string -> (t, string) result
(** Reads a JSONL dump back from a file with {!of_jsonl}.  Errors are
    prefixed with the path. *)
