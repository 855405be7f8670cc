(** Differential run comparison ([dsm diff]).

    Takes two observability artifacts — two [BENCH_macro.json] snapshots
    ({!Bench_suite}), or two JSONL trace dumps — and reports what actually
    changed between them:

    - {b per-case metric deltas} (bench mode), with a noise bound derived
      from each case's repeated-seed spread: a delta only counts when it
      clears both [noise_sigma]·σ and the relative threshold, so schedule
      sensitivity does not read as regression;
    - {b critical-path stage shifts} (trace mode), per protocol and stage,
      read from the stage stamps, as {!Analyze} reads them;
    - {b per-page sharing-pattern drift} — pages whose
      {!Dsmpm2_core.Telemetry.pattern} classification changed between the
      runs;
    - {b new and vanished watchdog alerts}, grouped by severity and kind.

    Comparisons are refused ({!diff} returns [Error]) when the two sides'
    {!Dsmpm2_sim.Run_meta} identities disagree — different tie seeds,
    drivers, protocols, node counts or case parameters are apples to
    oranges.  The git revision is exempt: comparing two code revisions is
    the point.  [~force:true] overrides the refusal.

    The verdict {!significant_regression} is what the CLI turns into exit
    code 1: some case's simulated wall clock or engine event count
    regressed beyond noise, or some critical-path stage slowed beyond the
    threshold. *)

open Dsmpm2_sim

val default_threshold_pct : float
(** Relative significance threshold, percent ([2.0]). *)

val noise_sigma : float
(** The repeated-seed spread multiplier in the noise bound ([3.0]). *)

(** {2 Sources} *)

type source =
  | Bench of Bench_suite.t
  | Run of Run_meta.t * Analyze.t
      (** An analyzed trace dump; the metadata is whatever the artifact
          carried (a raw JSONL trace carries none). *)

val load_source : string -> (source, string) result
(** Reads an artifact from disk: a JSON document with
    the {!Bench_suite.schema_version} schema loads as [Bench]; anything
    else must parse as a JSONL trace dump and loads as [Run]. *)

(** {2 Deltas} *)

type direction = Better | Worse | Same

type metric_delta = {
  md_metric : string;  (** a {!Bench_suite.metric_names} member *)
  md_base : float;  (** baseline mean over seeds *)
  md_fresh : float;
  md_delta : float;  (** fresh - base *)
  md_pct : float;  (** relative to base; [0.] when base is 0 *)
  md_noise : float;  (** [noise_sigma]·max(σ_base, σ_fresh) *)
  md_significant : bool;
  md_direction : direction;  (** [Worse] = higher (all metrics are costs) *)
}

type case_delta = {
  cd_id : string;
  cd_metrics : metric_delta list;  (** in {!Bench_suite.metric_names} order *)
}

type stage_delta = {
  sd_protocol : string;
  sd_stage : string;  (** a {!Dsmpm2_core.Instrument.stages} member *)
  sd_base_mean_us : float;
  sd_fresh_mean_us : float;
  sd_base_p90_us : float;
  sd_fresh_p90_us : float;
  sd_base_samples : int;
  sd_fresh_samples : int;
  sd_pct : float;  (** mean shift relative to base *)
  sd_significant : bool;
  sd_direction : direction;
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
  rd_mode : [ `Bench | `Trace ];
  rd_threshold_pct : float;
  rd_cases : case_delta list;
  rd_only_baseline : string list;  (** case ids with no fresh counterpart *)
  rd_only_fresh : string list;
  rd_stages : stage_delta list;
  rd_patterns : pattern_drift list;
  rd_alerts : alert_delta list;
}

val diff :
  ?threshold_pct:float ->
  ?force:bool ->
  baseline:source ->
  fresh:source ->
  unit ->
  (t, string) result
(** [Error] on mixed source kinds or on a {!Dsmpm2_sim.Run_meta} identity
    mismatch (suite-level and per matched case) unless [force]. *)

val significant_regression : t -> bool
(** True when some case's [time_us] or [events] regressed significantly,
    or (trace mode) some stage's mean slowed beyond the threshold. *)

val regressions : t -> string list
(** One human-readable line per significant regression, for error output. *)

val improvements : t -> string list
(** The same for significant improvements — good news is reported too. *)

(** {2 Rendering} *)

val pp_text : Format.formatter -> t -> unit
val pp_markdown : Format.formatter -> t -> unit

val to_json : t -> Json.t
(** Machine-readable form of the whole comparison, including the verdict. *)
