(** Causal blame engine: from a violating read or critical alert back to
    the injected fault that explains it.

    The fault layer stamps every injected event into the trace as typed
    events ([Trace.Drop]/[Blackhole] for lost messages — carrying the
    sending operation's span — [Crash]/[Restart] for crash-window bounds,
    [Rpc_retry] for retransmissions).  Protocol events already share a span
    id per logical operation, carried across nodes inside the messages.
    This module stitches the two into a causal DAG and slices backward from
    a target: the spans that touched the target's page before the target
    instant, the nodes those spans ran across, and the injected faults
    reachable from them.

    The primary causes are dropped messages inside a seed span (the exact
    message whose loss starved the target) and crash windows on involved
    nodes; retransmission storms are kept as supporting evidence.  When no
    span-attributed drop exists (retransmitted requests go out in timer
    context, span-less), drops on links between involved nodes are the
    fallback.  An explanation with an empty cause list means the slice
    reaches no injected fault — on an expected-vulnerable sweep that is a
    forensics bug, and the CLI treats it as one. *)

open Dsmpm2_sim

type target = {
  t_kind : string;  (** ["violation"] or ["alert:<kind>"] *)
  t_node : int;
  t_page : int;  (** [-1] when the target names no page *)
  t_at : Time.t;
  t_detail : string;
}

type cause =
  | Dropped_message of {
      c_at : Time.t;
      c_src : int;
      c_dst : int;
      c_kind : string;  (** message-kind name, e.g. ["msg.request"] *)
      c_span : int;  (** the operation that lost the message, or [no_span] *)
      c_blackhole : bool;  (** crash-window swallow vs. seeded loss *)
      c_down : int;  (** the crashed node for blackholes, [-1] otherwise *)
    }
  | Crash_window of { c_node : int; c_down : Time.t; c_up : Time.t }
  | Retry_storm of {
      c_service : string;
      c_src : int;
      c_dst : int;
      c_attempts : int;
      c_last : Time.t;
    }

type explanation = {
  x_target : target;
  x_causes : cause list;  (** drops first, then crash windows, then storms *)
  x_spans : int list;  (** the seed spans, ascending *)
  x_slice : (Time.t * int * Trace.event) list;  (** chronological *)
}

val causes : explanation -> cause list
val target : explanation -> target

val explain : trace:Trace.t -> target -> explanation

val explain_violation :
  trace:Trace.t ->
  node:int ->
  page:int ->
  at:Time.t ->
  detail:string ->
  explanation
(** Blame a checker violation: the read completed on [node] at [at] and
    touched [page]. *)

val explain_alert :
  trace:Trace.t -> kind:string -> node:int -> at:Time.t -> detail:string -> explanation
(** Blame a watchdog alert; the page is parsed from [detail] when it
    mentions one ("page 7"). *)

val explain_result : trace:Trace.t -> at:Time.t -> detail:string -> explanation
(** Blame a wrong final result found at [at]; the page is parsed from
    [detail] as for an alert, and with none the slice starts from the
    injected faults. *)

val explain_trace : Trace.t -> explanation list
(** One explanation per critical alert in the trace — the entry point for
    [dsm explain <dump>], where no checker verdict is available. *)

val cause_to_string : cause -> string

val to_text : Format.formatter -> explanation -> unit
(** Human-readable: the target, the cause list, then the causal slice. *)

val to_json : explanation -> Json.t
(** Stable machine form: target, causes, seed spans and the slice (as
    {!Trace.event_to_json} objects).  Deterministic for a given trace —
    the explain-determinism tests compare these byte-for-byte. *)

val to_dot : Format.formatter -> explanation -> unit
(** Graphviz: one box per slice event with program-order edges inside each
    span, causes highlighted red with dashed edges into the target. *)
