(** Exact run comparison ([dsm diff]).

    Takes two observability artifacts — two [BENCH_macro.json] snapshots
    ({!Bench_suite}), two [dsm-paper/1] row snapshots ({!Paper}: the
    paper's [BENCH_paper.json], or the words per run of the Bechamel
    kernels, [BENCH_bechamel.json]), or two JSONL trace dumps — and lists
    every difference between them.  The
    simulation is deterministic per tie seed and every compared value is
    an integer, so there is no tolerance: two runs of the same code are
    equal, and anything else is a change.

    - {b Macro snapshots}: every sample field of every case, seed by
      seed, and every case present on one side only.
    - {b Paper snapshots}: every field of every row, matched by row id,
      and every row or field present on one side only.
    - {b Traces}: each critical-path stage's mean, p90 and sample count,
      per protocol, read from the stage stamps as {!Analyze} reads them;
      per-page {!Dsmpm2_core.Telemetry.pattern} drift; and watchdog alert
      counts by severity and kind.

    Two macro snapshots are refused ({!diff} returns [Error]) when a case
    matched by id has another identity: its app, protocol, driver, node
    count, parameters, [quick] flag, tie seeds or {!Dsmpm2_sim.Run_meta}
    (the git revision aside: comparing two code revisions is the point),
    or when the matched cases are in another order. *)

open Dsmpm2_sim

(** {2 Sources} *)

type source =
  | Bench of Bench_suite.t
  | Paper of Paper.row list
  | Run of Analyze.t  (** an analyzed trace dump *)

val load_source : string -> (source, string) result
(** Reads an artifact from disk: a JSON document with a ["schema"] field
    loads as [Paper] ({!Paper.of_json}) or [Bench] ({!Bench_suite.of_json})
    by that field; anything else must parse as a JSONL trace dump and
    loads as [Run]. *)

(** {2 Differences} *)

type change = {
  ch_where : string;
      (** ["case seed N"] (macro snapshots), a row id (paper snapshots) or
          ["protocol/stage"] (traces) *)
  ch_field : string;
      (** a {!Bench_suite.metric_names} member, a paper row's field, or
          [mean_ns], [p90_ns], [samples] *)
  ch_base : int;
  ch_fresh : int;
}

type stage = {
  sd_protocol : string;
  sd_stage : string;  (** a {!Dsmpm2_core.Instrument.stages} member *)
  sd_base : Stats.span_summary option;  (** [None]: no stamp on that side *)
  sd_fresh : Stats.span_summary option;
}

type pattern_drift = {
  pd_page : int;
  pd_base : string;
      (** {!Dsmpm2_core.Telemetry.pattern_to_string} of each side *)
  pd_fresh : string;
}

type alert_delta = {
  al_severity : Dsmpm2_core.Watchdog.severity;
  al_kind : string;
  al_base : int;  (** occurrences on each side; 0 = new or vanished *)
  al_fresh : int;
}

type t = {
  rd_mode : [ `Bench | `Paper | `Trace ];
  rd_cases : (Bench_suite.case_result * Bench_suite.case_result) list;
      (** the macro cases on both sides, in baseline order *)
  rd_only_baseline : string list;
      (** macro case ids, or paper row ids (["id field"] for a field of a
          matched row), with no fresh counterpart *)
  rd_only_fresh : string list;
  rd_stages : stage list;  (** every stage stamped on either side *)
  rd_changes : change list;
      (** per case, seed and field (macro), per row and field (paper) or
          per stage and field (traces), in report order *)
  rd_patterns : pattern_drift list;
  rd_alerts : alert_delta list;  (** only the kinds whose counts differ *)
}

val diff : baseline:source -> fresh:source -> (t, string) result
(** [Error] on mixed source kinds (a macro snapshot against a paper
    snapshot, say) or on a macro case identity mismatch. *)

val differences : t -> string list
(** One line per difference, in report order; [[]] iff the two sides are
    equal.  A change reads [case seed N: field base -> fresh (Δ, %)]. *)

val differs : t -> bool
(** [differences t <> []]: the CLI's exit status 1. *)

(** {2 Rendering} *)

val pp_text : Format.formatter -> t -> unit
(** The per-case mean table (macro snapshots) or stage table (traces),
    then {!differences} and the verdict. *)

val to_json : t -> Json.t
(** Machine-readable form of the whole comparison, including the verdict. *)
