(** Schedule-exploration conformance checker ([dsm check]).

    Sweeps every builtin protocol over a grid of seeds, drivers and small
    shared-memory workloads.  Each seed perturbs the legal event
    interleaving (engine tie-breaking, {!Dsmpm2_sim.Engine.create}) and the
    network latencies ({!Dsmpm2_net.Network.seeded_jitter}) without ever
    breaking FIFO link order, so every run is an execution the real system
    could produce.  The recorded history ({!Dsmpm2_core.History}) is then
    validated against the consistency model the protocol declares
    ({!Dsmpm2_core.Protocol.model}), and lock-protected workloads also check
    their final computed values.

    Every run takes the same path ({!run}): monitor and watchdog attached,
    a fault plan installed, a bounded run that turns a stall or an
    exception into a failing outcome.  The plain sweep is the one under
    {!no_faults}; the fault sweep is the one under seeded crash windows and
    message loss.  A failing run is reported with its seed; re-running the
    same seed under the same spec replays the identical schedule, so
    verdicts are actionable. *)

open Dsmpm2_net
open Dsmpm2_core

(** {1 Workloads} *)

type workload =
  | Lock_ladder  (** seeded random lock-protected increments over two vars *)
  | Barrier_phases  (** rotating writer, double-barrier phases *)
  | Racy_poll  (** unsynchronized writer vs bounded pollers *)
  | Mixed_sync  (** lock-guarded counter with barriers between phases *)

val workloads : workload list
val workload_name : workload -> string
val workload_by_name : string -> workload option

(** {1 Runs} *)

type fault_spec = {
  f_crashes : int;  (** crash windows per schedule *)
  f_loss_pct : float;  (** seeded cross-node message loss percentage *)
  f_down_us : float;  (** length of each crash window *)
  f_horizon_us : float;  (** windows are placed within [0, horizon) *)
  f_protect : int list;  (** nodes never crashed (lock/barrier managers) *)
}

val no_faults : fault_spec
(** No crash window and no loss: the plain sweep.  The installed fault
    layer is empty, so a run replays exactly the schedule of a runtime
    that never had one. *)

val default_fault_spec : fault_spec
(** 2 windows of 300 us in a 4 ms horizon, 1% loss, nodes 0 and 1 protected
    (the workloads' lock and barrier managers live there; node 2 is the
    victim — exactly the minority a 3-node quorum tolerates).  A
    fault-tolerant protocol ([sc_abd]) must drain cleanly and still satisfy
    its declared model under it; the ownership-chain family is {e expected}
    to stall or crash — visibly, with a typed alert, never silently. *)

type outcome = {
  o_seed : int;
  o_workload : string;
  o_driver : string;
  o_plan : string;  (** human-readable fault schedule *)
  o_crashed : string option;  (** exception that aborted the run *)
  o_stalled : bool;  (** threads still blocked at the run limit *)
  o_violations : History.violation list;
      (** checker verdict; [] unless the run drained *)
  o_wrong_result : string option;
      (** the workload's own result check, when the final values are wrong *)
  o_alert_kinds : string list;  (** distinct watchdog alert kinds, sorted *)
  o_dropped : int;  (** messages the fault plan dropped *)
  o_retransmissions : int;  (** RPC retransmissions sent *)
  o_fingerprint : int;  (** order-sensitive hash of the recorded history *)
  o_ops : int;  (** number of recorded operations *)
  o_explanations : Explain.explanation list;
      (** one blame-engine explanation per violation, in order; for a run
          that stalled or crashed without a checker verdict, one per
          critical watchdog alert instead.  [] unless the run was made with
          [~explain:true] *)
}

val outcome_failed : outcome -> bool
(** Crashed, stalled, violated its model or computed a wrong result. *)

val run :
  ?spec:fault_spec ->
  ?explain:bool ->
  ?trace_capacity:int ->
  protocol:string ->
  driver:Driver.t ->
  workload:workload ->
  seed:int ->
  unit ->
  outcome * Dsm.t
(** Run one workload under one protocol, driver, seed and fault spec
    (default {!no_faults}), with history recording, the post-mortem monitor
    and the watchdog on, and check the history against the protocol's
    declared model.  Returns the finished runtime too, so a caller can
    analyze the run's own trace ({!Dsmpm2_core.Monitor.trace},
    {!Analyze.analyze}).  Deterministic: the seed drives tie-breaking,
    jitter, loss draws and window placement, so the same arguments replay
    the same schedule.  [explain] (default false) runs the {!Explain} blame
    engine and fills [o_explanations].  [trace_capacity] bounds the trace
    as a flight-recorder ring ({!Dsmpm2_sim.Trace.set_capacity}); neither
    it nor the monitor or watchdog changes the schedule or the
    fingerprint. *)

(** {1 Sweeps} *)

type verdict = {
  v_protocol : string;
  v_model : Protocol.model;
  v_runs : int;
  v_failures : int;
  v_stalls : int;
  v_crashes : int;
  v_alert_kinds : string list;  (** distinct alert kinds across all runs *)
  v_first_failure : outcome option;
}

val sweep :
  ?protocols:string list ->
  ?drivers:Driver.t list ->
  ?workload_list:workload list ->
  ?spec:fault_spec ->
  ?explain:bool ->
  ?progress:(string -> unit) ->
  ?on_failure:(string -> outcome -> Dsm.t -> unit) ->
  seeds:int list ->
  unit ->
  verdict list
(** [sweep ~seeds ()] makes one {!run} per protocol, driver, workload and
    seed (defaults: every builtin protocol in registry id order, all
    drivers, all workloads, {!no_faults}) and aggregates per-protocol
    verdicts.  [progress] is called after each
    protocol/driver/workload cell; [on_failure] with the protocol name,
    every failing outcome (not just the first) and its finished runtime. *)

val failed : verdict list -> bool

val print_outcome : Format.formatter -> outcome -> unit
val print : ?spec:fault_spec -> Format.formatter -> verdict list -> unit
(** The verdict table, each failing protocol followed by its first failing
    outcome; [spec] (default {!no_faults}) names the faults in the title. *)

val to_json : verdict list -> Dsmpm2_sim.Json.t
