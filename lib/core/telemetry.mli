(** Online telemetry engine: streaming sharing classifiers over the live
    event stream.

    The post-mortem analyzer ({!Dsmpm2_experiments.Analyze}) answers "what
    did this run do" after the fact by replaying the whole stored trace.
    This module answers the same questions {e while the run executes}, in
    O(1) incremental work per event and without requiring the trace to be
    stored at all: it subscribes to the trace's observer slot
    ({!Dsmpm2_sim.Trace.set_observer}), which sees every emission before
    the sampler drops it and before the flight recorder evicts it.  A run
    with an aggressive sampling rate and a tiny ring therefore still gets
    exact per-page classifications — the basis of [dsm watch]'s hot-page
    frames.

    Telemetry times nothing itself: its fault counts and fault-latency
    percentiles read the runtime's {!Dsmpm2_sim.Stats} registry, whose
    {!Instrument} fault cells time every fault from detection to resumed
    access ({!Instrument.stage_total}) — the same series [dsm bench] and
    [--metrics-out] report.

    The observer callback does pure bookkeeping: no engine events, no
    shared RNG draws, no allocation visible to the schedule.  Attaching
    telemetry never changes a seeded run's schedule fingerprint.

    The classification logic itself lives in {!Pages}, a pure streaming
    accumulator shared with the post-mortem analyzer — both views are the
    same code, so on an unsampled run the final online classification is
    identical to the post-mortem one by construction. *)

open Dsmpm2_sim

(** {2 Sharing patterns}

    The one definition: [dsm watch], [dsm analyze] and [dsm diff] all
    name these types. *)

type pattern =
  | Private  (** one accessing node *)
  | Read_mostly  (** replicated, never written remotely *)
  | Single_writer  (** one writer, occasional remote readers *)
  | Producer_consumer  (** one writer, readers repeatedly re-fetch *)
  | Migratory  (** write access hands off between nodes serially *)
  | False_sharing  (** concurrent diffs from distinct nodes on one page *)
  | Mixed  (** multiple writers without a clean handoff pattern *)

val pattern_to_string : pattern -> string

type profile = {
  pr_page : int;
  pr_protocol : string;
  pr_pattern : pattern;
  pr_read_faults : int;
  pr_write_faults : int;
  pr_readers : int list;  (** nodes that read-faulted, sorted *)
  pr_writers : int list;  (** nodes that write-faulted or sent diffs, sorted *)
  pr_diff_senders : int list;  (** distinct nodes whose diffs touched the page *)
  pr_transfers : int;  (** whole-page sends *)
  pr_bytes : int;  (** page-send bytes plus attributed diff bytes *)
  pr_invalidations : int;
}

val profile_to_json : profile -> Json.t
(** One page of the heatmap, as both [dsm watch --out] and [dsm analyze
    --out] write it. *)

(** {2 The streaming classifier}

    A pure per-page accumulator: feed it trace events in any order
    consistent with the stream and ask for classifications at any point.
    O(1) amortized per event (handoffs are counted against the last writer
    instead of replaying a write sequence; the accumulators are an array
    indexed by page, and the reader/writer/differ sets one flag byte per
    node).  No engine, no clock, no randomness.  Page and node ids must be
    non-negative: [feed] raises [Invalid_argument] on a negative one. *)
module Pages : sig
  type t

  val create : unit -> t

  val feed : t -> Trace.event -> unit
  (** Folds one event in.  Only [Fault], [Page_send], [Page_install],
      [Invalidate] and [Diff] events carry classification evidence; every
      other constructor is ignored. *)

  val profile : t -> int -> profile option

  val profiles : t -> profile list
  (** Every tracked page, ranked by total faults then bytes moved
      descending (ties by page ascending) — the heatmap order. *)
end

(** {2 The attached engine} *)

type config = {
  thrash_window : int;  (** installs per page examined for ping-pong *)
  thrash_span : Time.t;  (** window duration qualifying as thrashing *)
}

val default_config : config
(** 8 installs within 300 us qualify as thrashing (the watchdog's
    [thrash.page] rule). *)

type thrash_report = {
  th_page : int;
  th_count : int;  (** installs inside the qualifying window *)
  th_nodes : int list;  (** distinct installing nodes, sorted *)
  th_span : Time.t;  (** observed window duration *)
}

type interval = {
  iv_installs : (int * int) list;
      (** page → installs this interval, most active first *)
  iv_reclassified : int;  (** pages whose pattern changed this interval *)
  iv_thrash : thrash_report list;  (** chronological *)
}
(** What {!end_interval} drains: the watchdog turns these into alerts and
    its per-tick hot-page sample. *)

type t

val attach : ?config:config -> Runtime.t -> t
(** Attaches the telemetry engine: extends the runtime's attachment slot
    and subscribes to the trace observer.  Events are only observed while
    monitoring is enabled ([Monitor.enable]).  Raises [Invalid_argument]
    if telemetry is already attached or the trace observer slot is taken. *)

val find : Runtime.t -> t option
(** The engine attached to this runtime, if any. *)

val events_seen : t -> int
(** Events observed (the full emission stream, not just stored events). *)

val pages : t -> Pages.t
(** The live classifier (shared state — read, don't feed). *)

val node_faults : t -> int array
(** Faults per node, indexed by node id: {!Instrument.faults} of the
    node's fault cells. *)

val protocols : t -> (string * int) list
(** Per-protocol [(name, faults)] sorted by name, protocols with no fault
    left out: {!Instrument.faults} of the protocol's fault cells. *)

val end_interval : t -> interval
(** Drains and resets the per-interval state (installs, touched pages,
    thrash findings).  Called by the watchdog once per
    tick. *)

val to_json : ?meta:Run_meta.t -> t -> Json.t
(** Stable snapshot (the [telemetry] key of [dsm watch --out]): meta,
    totals, per-protocol fault counts, the cluster fault latency
    ([fault_latency_us]: count, p50, p90, p99, p999 of
    {!Instrument.stage_total}), the page heatmap with classifications,
    classification churn and trace accounting
    (recorded/stored/evicted/capacity/sampled_out). *)

val pp_top : ?top:int -> Format.formatter -> t -> unit
(** The hot-page half of a [dsm watch] frame: cluster rollup (fault count
    and {!Instrument.stage_total} percentiles), per-protocol fault counts,
    per-node fault counts, the [top]
    (default 10) hottest pages with their patterns, and
    trace-pressure accounting. *)
