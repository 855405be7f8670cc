(** Post-mortem monitoring, the PM2 feature the paper's evaluation leans on:
    "very precise post-mortem monitoring tools are available in the PM2
    platform, providing the user with valuable information on the time spent
    within each elementary function".

    When enabled, the DSM layers record every protocol-level event (faults,
    requests served, pages sent, invalidations, diffs, lock and barrier
    requests at their managers) as typed
    {!Dsmpm2_sim.Trace.event}s into the runtime's trace, together with a
    {!stamp} of every fault-stage and sync-wait sample; after the run,
    [report] summarises them per category, [to_json] exports a stable
    metrics snapshot, and the raw trace remains available for
    fine-grained inspection or export (JSONL, Chrome trace). *)

open Dsmpm2_sim

val enable : Runtime.t -> bool -> unit
val enabled : Runtime.t -> bool

val trace : Runtime.t -> Trace.t
(** The raw event log (chronological). *)

val emit : Runtime.t -> ?span:int -> Trace.event -> unit
(** Records a typed event; the span defaults to {!current_span}.  No-op
    when disabled, but hot call sites should guard with {!enabled} so the
    event value is not even allocated. *)

val stamp :
  Runtime.t -> ?span:int -> node:int -> protocol:int -> obj:int -> Stats.cell ->
  Time.t -> unit
(** [stamp rt ~node ~protocol ~obj cell ns] records a fault stage or a
    sync wait: [ns] as one sample of [cell]'s duration series and, while
    monitoring is on, the same value as a {!Dsmpm2_sim.Trace.Stage} event
    named after that series, for [node] under protocol id [protocol] on
    [obj] (the faulting page, or the lock or barrier id; span as
    {!emit}).  Every stamped series' sites call it, so a trace and the
    registry cannot disagree on them. *)

(** {2 Span context} *)

val new_span : Runtime.t -> int
(** A fresh causal span id ([Trace.no_span] while monitoring is off). *)

val current_span : Runtime.t -> int
(** The span the calling Marcel thread is working on, or [Trace.no_span].
    While monitoring is off it is [Trace.no_span] without looking the
    thread up, so it may be called anywhere; while it is on, the caller
    must be a Marcel thread. *)

val with_thread_span : Runtime.t -> int -> (unit -> 'a) -> 'a
(** Runs [f] with the calling thread's span ({!Dsmpm2_pm2.Marcel.span})
    set, restored afterwards.  Just [f ()] while monitoring is off. *)

(** {2 Reports} *)

type summary_line = {
  category : string;
  events : int;
  first_us : float;
  last_us : float;
}

val summary : Runtime.t -> summary_line list
(** Event counts and activity window per category, sorted by count
    (descending) with ties broken by category name (ascending) — fully
    deterministic. *)

val report : Format.formatter -> Runtime.t -> unit
(** The post-mortem report: the per-category summary followed by every
    duration series of the registry, over all label sets, as
    {!Dsmpm2_sim.Stats.pp_span_table} rows (samples, mean, p50, p90, p99,
    max) — the stage and sync tables [dsm analyze] prints with the same
    printer. *)

val run_meta : ?protocol:string -> ?case:string -> Runtime.t -> Run_meta.t
(** The run's identity ({!Dsmpm2_sim.Run_meta}): git revision (best
    effort), engine tie seed, driver name and node count read off the
    runtime, plus the caller-supplied protocol and case id. *)

val to_json : ?experiment:string -> ?meta:Run_meta.t -> Runtime.t -> Json.t
(** Stable machine-readable snapshot: run metadata (under ["meta"]; defaults
    to {!run_meta} with [case] = [experiment]), simulated time, migrations,
    the runtime's registry ({!Dsmpm2_sim.Stats.to_json}: counters and span
    summaries with percentiles, overall and per label set), and the
    network layer — its registry too, plus
    loopback traffic, fault-plan drops (total and per message kind) and the
    flight recorder's ["trace"] accounting (stored/recorded/evicted/
    capacity). *)

val to_prometheus : Format.formatter -> Runtime.t -> unit
(** Prometheus text exposition of the whole runtime: the runtime's and
    the network's registries, then the run-wide totals that are not
    registry cells — [dsm_net_dropped_total], per-kind
    [dsm_msg_<kind>_dropped_total] and [dsm_trace_evicted_total]. *)
