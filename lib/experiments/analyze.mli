(** Post-mortem trace analyzer.

    Reconstructs what a run actually did from its typed event trace — the
    paper's "very precise post-mortem monitoring tools" turned into a
    queryable report.  Feed it a live runtime's trace ({!Dsmpm2_core.Monitor.trace})
    or a JSONL dump re-loaded with {!Dsmpm2_sim.Trace.of_jsonl}; get back:

    - {b fault critical paths}: each fault span's
      fault → request → send → install chain cut into stages
      (request propagation, remote serve, wire transfer, local install, or a
      thread-migration leg), with p50/p90/p99 per protocol and the
      top-K slowest spans including their full event chains;
    - {b per-page profiles}: sharing-pattern classification (private,
      read-mostly, single-writer, producer-consumer, migratory,
      false-sharing) and a heatmap ranked by faults and bytes moved;
    - {b lock and barrier contention}: per-lock wait/hold distributions
      from the client-side request/granted/released events, per-barrier
      arrival imbalance;
    - {b a protocol advisor}: pattern → recommended built-in protocol, as a
      [dsm_malloc ~protocol] attribute suggestion per page.

    Per-driver comparisons come from analyzing one trace per driver — the
    network driver is a property of the run, not of individual events. *)

open Dsmpm2_sim

(** Every latency distribution below is a {!Sketch.t} of microsecond
    samples: its count, sum, exact max and 1%-accurate percentiles. *)

(** {2 Fault critical paths} *)

val stage_order : string list
(** [["request"; "serve"; "transfer"; "install"; "migrate"]] — the stage
    names in causal order.  [migrate] replaces the transfer chain for
    thread-migration protocols (spans with a migration and no page send). *)

type chain = {
  ch_span : int;
  ch_node : int;  (** faulting node *)
  ch_page : int;
  ch_protocol : string;
  ch_mode : string;  (** "read" or "write" *)
  ch_start_us : float;
  ch_total_us : float;
  ch_stages : (string * float) list;  (** only the stages present, in order *)
  ch_hops : int;  (** page requests in the span (forwarding chain length) *)
  ch_events : (Trace.entry * Trace.event) list;
}

(** {2 Per-page sharing patterns} *)

type pattern = Dsmpm2_core.Telemetry.pattern =
  | Private  (** one accessing node *)
  | Read_mostly  (** replicated, never written remotely *)
  | Single_writer  (** one writer, occasional remote readers *)
  | Producer_consumer  (** one writer, readers repeatedly re-fetch *)
  | Migratory  (** write access hands off between nodes serially *)
  | False_sharing  (** concurrent diffs from distinct nodes on one page *)
  | Mixed  (** multiple writers without a clean handoff pattern *)
(** Re-export of the canonical type: the classifier is
    {!Dsmpm2_core.Telemetry.Pages}, shared between this post-mortem view
    and the online engine, so the two always agree. *)

val pattern_to_string : pattern -> string

val recommended_protocol : pattern -> string option
(** The advisor's mapping: migratory data wants the thread moved to it
    ([migrate_thread]), tolerated false sharing wants multiple-writer diffs
    ([hbrc_mw]), read-mostly and producer-consumer pages want updates pushed
    ([write_update]), a single writer fits eager release consistency
    ([erc_sw]).  [None] for private/mixed: keep the current protocol. *)

type page_profile = {
  pg_page : int;
  pg_protocol : string;
  pg_pattern : pattern;
  pg_read_faults : int;
  pg_write_faults : int;
  pg_readers : int list;  (** nodes that read-faulted, sorted *)
  pg_writers : int list;  (** nodes that write-faulted or sent diffs, sorted *)
  pg_diff_senders : int list;  (** distinct nodes whose diffs touched the page *)
  pg_transfers : int;  (** whole-page sends *)
  pg_bytes : int;  (** page-send bytes plus attributed diff bytes *)
  pg_invalidations : int;
}

type advice = {
  ad_page : int;
  ad_pattern : pattern;
  ad_current : string;
  ad_recommended : string;
}

(** {2 Synchronization contention} *)

type lock_profile = {
  lk_lock : int;
  lk_nodes : int;  (** distinct client nodes *)
  lk_acquisitions : int;
  lk_wait : Sketch.t;  (** request → granted, per acquisition *)
  lk_hold : Sketch.t;  (** granted → released *)
}

type barrier_profile = {
  br_barrier : int;
  br_parties : int;  (** distinct arriving nodes *)
  br_rounds : int;  (** completed rounds observed *)
  br_imbalance : Sketch.t;  (** last minus first arrival, per round *)
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

(** {2 Watchdog alerts} *)

type alert_line = {
  at_us : float;
  at_severity : string;
  at_kind : string;
  at_node : int;
  at_detail : string;
}
(** One [Trace.Alert] event from a run monitored by the live watchdog
    ({!Dsmpm2_core.Watchdog}), as found in the trace. *)

(** {2 Analysis} *)

type t

val analyze : ?top:int -> Trace.t -> t
(** Runs every analysis over the trace.  [top] (default 5) bounds the
    slowest-spans list. *)

val chains : t -> chain list
(** All fault-rooted spans, chronological. *)

val stages : t -> (string * (string * Sketch.t) list) list
(** Per protocol (sorted), the duration of each stage present, in
    {!stage_order}. *)

val pages : t -> page_profile list
(** The heatmap: ranked by total faults, then bytes moved, descending. *)

val page_profile : t -> page:int -> page_profile option
val locks : t -> lock_profile list

val barriers : t -> barrier_profile list
val advice : t -> advice list
(** Only pages whose recommended protocol differs from the one they ran. *)

val alerts : t -> alert_line list
(** Watchdog findings recorded in the trace, chronological. *)

val faults : t -> fault_summary
(** Injected-fault event counts found in the trace. *)

val report :
  ?sections:
    [ `Alerts | `Faults | `Critical | `Pages | `Locks | `Barriers | `Advice ]
    list ->
  Format.formatter ->
  t ->
  unit
(** The human-readable report; [sections] defaults to all of them (the
    alert summary is printed only when the trace contains alerts). *)

val to_json : ?meta:Run_meta.t -> t -> Json.t
(** Stable machine-readable form of the whole analysis.  [meta] is the
    run's identity (driver, protocol, seed, ...) when the caller knows it —
    a trace re-loaded from JSONL carries none, so it defaults to just the
    git revision. *)

val folded : Format.formatter -> t -> unit
(** Folded-stack lines ([dsmpm2;<proto>;fault;<stage> <us>] plus lock and
    barrier frames) for flamegraph.pl or speedscope. *)
