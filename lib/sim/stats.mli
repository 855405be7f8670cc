(** The metrics registry: labelled counters and duration series.

    Every instrumented event updates exactly one {!cell}, created ahead
    of time by its event site.  A cell
    carries the event site's node and protocol labels and three fields —
    an event count, a volume (bytes, pages) and a duration series — each of
    which answers to a series name.  A delivered message, for instance,
    bumps one cell whose count is ["msg.request"], whose volume is
    ["net.bytes"] and whose duration series is ["net.delay"].

    A duration series keeps its exact integer total beside a {!Sketch}
    integer histogram, which owns the sample count, minimum and maximum.
    Every percentile the stack reports (the Table 3/4 stage latencies,
    [dsm bench]'s fault tails, Prometheus [le] buckets) is within 1/128
    of the exact sample at that rank.  Recording into a cell allocates
    nothing once its histogram covers the value's bucket.

    The views ({!count}, {!span_mean}, ...) roll the cells up by series
    name: over every label set by default, or over one label set with
    [~labels].  Sums are exact integers, so a rollup equals the sum of its
    labelled series. *)

type labels = { lbl_node : int option; lbl_protocol : string option }

val labels : ?node:int -> ?protocol:string -> unit -> labels

type t

val create : unit -> t

(** {1 Cells} *)

type cell

val cell :
  t ->
  ?node:int ->
  ?protocol:string ->
  ?count:string ->
  ?volume:string ->
  ?span:string ->
  unit ->
  cell
(** A fresh cell with these labels whose event count, volume and
    duration series answer to [count], [volume] and [span]; an omitted
    name means the cell does not feed that field's views.  Event sites
    create their cells once, ahead of the events, and keep the handle;
    cells that share names and labels simply add up in the views. *)

val bump : cell -> unit
(** One event. *)

val add : cell -> events:int -> volume:int -> unit
(** [events] events carrying [volume] in total. *)

val record : cell -> Time.t -> unit
(** One sample of the cell's duration series. *)

val events : cell -> int
val volume : cell -> int
val samples : cell -> int

val span_name : cell -> string
(** The name of the cell's duration series ([""] when it has none). *)

(** {1 Views} *)

val count : ?labels:labels -> t -> string -> int
(** The total of the counter [name]: the event counts of the cells whose
    count answers to [name] plus the volumes of those whose volume does.
    0 when no cell feeds it. *)

val span_mean : ?labels:labels -> t -> string -> Time.t
(** Integer mean of the series; 0 when it has no samples. *)

val span_percentile : ?labels:labels -> t -> string -> float -> Time.t
(** [span_percentile t name p], [p] in [0..100]: the histogram estimate
    of the sample at rank [floor (p/100 * (n - 1))].  0 when the series
    has no samples. *)

type span_summary = {
  sm_name : string;
  sm_samples : int;
  sm_total : Time.t;
  sm_mean : Time.t;
  sm_p50 : Time.t;
  sm_p90 : Time.t;
  sm_p99 : Time.t;
  sm_max : Time.t;
}

val span_summary : ?labels:labels -> t -> string -> span_summary
(** All-zero summary when the series has no samples. *)

val span_summaries : ?labels:labels -> t -> span_summary list
(** Every duration series, sorted by name. *)

val counters : ?labels:labels -> t -> (string * int) list
(** Every counter with its total, sorted by name. *)

val label_sets : t -> labels list
(** The distinct label sets of the cells, ordered by node then protocol. *)

(** {1 Exports} *)

val summary_to_json : span_summary -> Json.t
(** Integer nanoseconds: [{name, samples, total_ns, mean_ns, p50_ns,
    p90_ns, p99_ns, max_ns}]. *)

val pp_span_table : Format.formatter -> key:string -> (string * span_summary) list -> unit
(** The one span-summary table printer: a header whose first column is
    titled [key], then one line per [(key, summary)] row — the key, the
    series name, the sample count, and mean, p50, p90, p99 and max in
    microseconds.  [--report] and every [dsm analyze] table print with
    it. *)

val to_json : t -> Json.t
(** [{"counters": {...}, "spans": [{name, samples, total_ns, mean_ns,
    p50_ns, p90_ns, p99_ns, max_ns}, ...], "labelled": [{"labels": {...},
    "counters": {...}, "spans": [...]}, ...]}]: the rollup over every label
    set, then one view per label set. *)

val to_prometheus : Format.formatter -> t -> unit
(** Prometheus text exposition.  Each counter [name] becomes
    [dsm_<sanitized name>_total] with [# HELP] / [# TYPE counter] headers
    and one sample per label set; each duration series becomes a
    histogram [dsm_<sanitized name>_us] in microseconds whose cumulative
    [_bucket{le="..."}] samples sit at the upper edges of the occupied
    histogram buckets (the zero bucket as [le="0"]), closed by [le="+Inf"],
    [_sum] and [_count].  Families are sorted by name, samples by label
    set. *)

val prometheus_counter : Format.formatter -> string -> int -> unit
(** One unlabelled counter family in the same format, for run-wide
    totals that are not registry cells. *)
