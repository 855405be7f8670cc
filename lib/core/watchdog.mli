(** Live observability: a periodic in-run health monitor.

    Everything else in the monitoring stack ({!Monitor}, the analyzer, the
    conformance checker) speaks only after the run ends — useless for a hung
    run.  The watchdog samples the runtime {e while the workload executes},
    on an engine-driven timer built from {!Dsmpm2_sim.Engine.periodic}
    observer events, so attaching it never perturbs a seeded schedule.  Each
    sample:

    - audits page-table coherence invariants across nodes (exactly one
      self-owner per page, writable frames only at the owner, copyset
      members really hold readable frames — protocol-aware via
      {!Protocol.strict_coherence}, and skipping pages with a fault in
      flight so legal transients never alarm);
    - maintains a lock/barrier wait-for graph from the {!Dsm_sync} client
      hooks and reports cycles (deadlock) and threads blocked beyond a
      simulated-time threshold (stalls);
    - drains the online telemetry engine ({!Telemetry}, attached on demand)
      for page-thrash findings and hot-page accounting —
      telemetry observes every trace emission at the source, so these stay
      exact under trace sampling and flight-recorder eviction;
    - snapshots interval rates (faults/s, messages/s, bytes/s per node,
      faults per protocol) into a bounded ring of time-series points.

    Findings become {!alert}s, forwarded to the trace as typed
    [Trace.Alert] events (so they flow through JSONL/Chrome exports and
    [dsm analyze]) and collected here for the [dsm watch] dashboard and the
    JSON health report. *)

open Dsmpm2_sim

type severity = Trace.severity = Info | Warning | Critical
(** The trace's alert severity; {!Trace.severity_to_string} names it. *)

type alert = {
  al_at_us : float;
  al_severity : severity;
  al_kind : string;
      (** dotted taxonomy: "invariant.owner" / "invariant.copyset" /
          "invariant.home" / "invariant.protocol" (critical),
          "deadlock.cycle" / "deadlock.stall" (critical),
          "stall.lock" / "stall.barrier" / "thrash.page" (warning); with a
          fault plan installed ({!Dsm.inject_faults}) also "node.dead"
          (warning, a node entered a crash window), "node.restart" (info),
          "node.partitioned" (info, the plan started dropping traffic) and
          "rpc.retry_storm" (warning, more than 8 RPC retransmissions in one
          interval) *)
  al_node : int;  (** node concerned, [-1] for run-wide findings *)
  al_detail : string;
}

val alert_of_event : at:Time.t -> Trace.event -> alert option
(** Decodes a stored [Trace.Alert] emitted at [at] back into the alert the
    watchdog raised; [None] for any other event.
    [dsm analyze], [dsm diff] and [dsm explain] read alerts through it. *)

type node_rates = {
  nr_node : int;
  nr_faults_s : float;
      (** faults ({!Instrument.faults}) per simulated second over the
          interval *)
  nr_msgs_s : float;
  nr_bytes_s : float;
}

type sample = {
  sp_at_us : float;
  sp_events : int;  (** engine events executed so far *)
  sp_live_fibers : int;
  sp_rates : node_rates array;
  sp_proto_faults : (string * int) list;
      (** interval fault counts ({!Instrument.faults}) per protocol,
          sorted by name; protocols without a fault are left out *)
  sp_hot_pages : (int * int) list;
      (** (page, transfers) this interval, hottest first, top 5 *)
  sp_alerts : int;  (** alerts raised during this interval *)
}

type config = {
  interval : Time.t;  (** sampling period (simulated time) *)
  stall : Time.t;  (** blocked longer than this => stall warning *)
  ring_capacity : int;  (** time-series points retained *)
}

val default_config : config
(** 200 us interval, 20 ms stall threshold, 64-point ring.  Every sample
    runs the page-table audits.  The thrash window is the telemetry
    engine's ({!Telemetry.config}). *)

type t

val attach : ?config:config -> Runtime.t -> t
(** Installs the watchdog on a runtime: registers the {!Runtime.watch_hooks}
    and arms the periodic sampler.  Call before [Dsm.run]; the timer stops
    itself when a run drains (or deadlocks) and re-arms on the next
    [Dsm.run].  At most one watchdog per runtime
    (raises [Invalid_argument] on a second attach).  Reuses an already
    attached {!Telemetry} engine, otherwise attaches one with
    {!Telemetry.default_config}: to change the thrash window, attach
    telemetry with its own config first. *)

val telemetry : t -> Telemetry.t
(** The telemetry engine the watchdog drains each tick. *)

val set_on_sample : t -> (sample -> unit) -> unit
(** Called after every sample with the sample decoded from the ring — the
    live dashboard hook. *)

val alerts : t -> alert list
(** Chronological. *)

val alert_counts : t -> int * int * int
(** [(info, warning, critical)]. *)

val samples : t -> sample list
(** The retained time series, chronological (at most
    [config.ring_capacity] points).  The ring stores samples unboxed;
    each call decodes fresh records. *)

val samples_taken : t -> int
val pages_audited : t -> int
(** Pages that passed through the invariant audit (transient pages with a
    fault in flight are skipped and not counted). *)

val forward_alert : Runtime.t -> alert -> unit
(** Emits an alert into the runtime's trace as a [Trace.Alert] event.  A
    no-op that allocates nothing when monitoring is disabled — the property
    pinned by the allocation smoke test. *)

val alert_to_json : alert -> Json.t
val sample_to_json : sample -> Json.t

val health_json : t -> Json.t
(** The stable health report: run metadata ({!Monitor.run_meta}, under
    ["meta"]), simulated time, sample/audit counts,
    [healthy] (no critical alerts), per-severity alert counts, the full
    alert list, the retained time series and the snapshot of the drained
    telemetry engine ({!Telemetry.to_json}, under ["telemetry"]). *)

val pp_sample : Format.formatter -> t * sample -> unit
(** One dashboard frame: header line, per-node rate table, interval fault
    mix and hottest pages. *)

val pp_summary : Format.formatter -> t -> unit
(** End-of-run alert summary. *)
