(** Post-mortem trace analyzer.

    Reconstructs what a run actually did from its typed event trace — the
    paper's "very precise post-mortem monitoring tools" turned into a
    queryable report.  Feed it a live runtime's trace ({!Dsmpm2_core.Monitor.trace})
    or a JSONL dump re-loaded with {!Dsmpm2_sim.Trace.of_jsonl}; get back:

    - {b fault critical paths}: the stage stamps the runtime wrote into
      the trace ({!Trace.Stage}, one per registry sample of
      [stage.request], [stage.transfer], [stage.migration] and
      [stage.total]) summed up per protocol and stage, and the top-K
      slowest fault spans with their stamps and full event chains;
    - {b per-page profiles}: sharing-pattern classification (private,
      read-mostly, single-writer, producer-consumer, migratory,
      false-sharing) and a heatmap ranked by faults and bytes moved;
    - {b lock and barrier waits}: the sync stamps the runtime wrote into
      the trace (one per registry sample of [sync.lock.wait],
      [sync.lock.hold] and [sync.barrier.wait]) summed up per lock and per
      barrier;
    - {b watchdog alerts} found in the trace.

    Pages and alerts are the live engines' own records —
    {!Dsmpm2_core.Telemetry.profile} and {!Dsmpm2_core.Watchdog.alert} —
    built by the same classifier and alert decoder, and written by the
    same JSON encoders, so
    [dsm analyze], [dsm watch] and [dsm diff] cannot disagree on a page
    or an alert.

    Per-driver comparisons come from analyzing one trace per driver — the
    network driver is a property of the run, not of individual events. *)

open Dsmpm2_sim

(** {2 Fault critical paths}

    The analyzer measures no duration: every table it prints is the
    stamps folded into a {!Stats} registry of its own.  On a trace that
    kept every event (unsampled, nothing evicted), each stage row has the
    registry's sample count, integer-nanosecond total and mean for that
    protocol and series, and each sync series, summed over locks or
    barriers, has the registry's count and total.  On a ring-capped or
    sampled trace every row holds exactly the stamps that were kept, so
    no figure can fall below zero or above the registry's maximum. *)

type chain = {
  ch_span : int;
  ch_node : int;  (** faulting node *)
  ch_page : int;
  ch_protocol : string;
  ch_mode : string;  (** "read" or "write" *)
  ch_start_us : float;
  ch_total_us : float;  (** the span's [stage.total] stamp; 0 without one *)
  ch_stages : (string * float) list;
      (** the span's stage stamps (series name, us), chronological *)
  ch_hops : int;  (** page requests in the span (forwarding chain length) *)
  ch_events : (Time.t * int * Trace.event) list;
      (** the span's other events *)
}

(** {2 Injected faults} *)

type fault_summary = {
  fs_drops : int;  (** seeded message losses ({!Trace.Drop}) *)
  fs_blackholes : int;  (** crash-window swallows ({!Trace.Blackhole}) *)
  fs_crash_windows : int;  (** {!Trace.Crash} window starts *)
  fs_restarts : int;  (** {!Trace.Restart} events *)
  fs_rpc_retries : int;  (** {!Trace.Rpc_retry} retransmissions *)
}
(** Counts of the fault layer's typed trace events — zero everywhere for an
    unfaulted run. *)

(** {2 Analysis} *)

type t

val analyze : ?top:int -> Trace.t -> t
(** Runs every analysis over the trace.  [top] (default 5) bounds the
    slowest-spans list, ranked by [stage.total] stamp. *)

val chains : t -> chain list
(** All fault-rooted spans, chronological. *)

val stages : t -> (string * Stats.span_summary list) list
(** Per protocol (sorted), the summary of each stamped stage, in
    {!Dsmpm2_core.Instrument.stages} order: the stamps folded into a
    registry of their own, so the figures are the runtime's
    {!Stats.span_summary} of the same samples. *)

val pages : t -> Dsmpm2_core.Telemetry.profile list
(** The heatmap: ranked by total faults, then bytes moved, descending. *)

val page_profile : t -> page:int -> Dsmpm2_core.Telemetry.profile option

val locks : t -> (int * Stats.span_summary list) list
(** Per lock id (ascending), the summary of its [sync.lock.wait] and
    [sync.lock.hold] stamps, those it has. *)

val barriers : t -> (int * Stats.span_summary list) list
(** Per barrier id (ascending), the summary of its [sync.barrier.wait]
    stamps: one sample per arriving node per round. *)

val alerts : t -> Dsmpm2_core.Watchdog.alert list
(** Watchdog findings recorded in the trace, chronological, decoded by
    {!Dsmpm2_core.Watchdog.alert_of_event}. *)

val faults : t -> fault_summary
(** Injected-fault event counts found in the trace. *)

val report :
  ?sections:
    [ `Alerts | `Faults | `Critical | `Pages | `Locks | `Barriers ] list ->
  Format.formatter ->
  t ->
  unit
(** The human-readable report; [sections] defaults to all of them (the
    alert summary is printed only when the trace contains alerts).  The
    stage, lock and barrier tables are {!Stats.pp_span_table} rows. *)

val to_json : ?meta:Run_meta.t -> t -> Json.t
(** Stable machine-readable form of the whole analysis; the
    ["critical_path"], ["locks"] and ["barriers"] tables are objects from
    protocol, lock id or barrier id to a list of
    {!Stats.summary_to_json} rows.  [meta] is the
    run's identity (driver, protocol, seed, ...) when the caller knows it —
    a trace re-loaded from JSONL carries none, so it defaults to just the
    git revision. *)

val folded : Format.formatter -> t -> unit
(** Folded-stack lines ([dsmpm2;<proto>;fault;<stage> <us>] for every
    stamped stage but [stage.total], whose unaccounted rest is
    [dsmpm2;<proto>;fault;other], then
    [dsmpm2;locks;lock_<id>;<series> <us>] and
    [dsmpm2;barriers;barrier_<id>;<series> <us>] with each sync series'
    total) for flamegraph.pl or speedscope. *)
