(** One scenario type and one run path for every correctness tool
    ([dsm check], [dsm litmus], [dsm patterns]).

    A scenario is a program and an expectation.  Every run takes the same
    path ({!run}): history recording, monitor and watchdog on, a fault plan
    installed, and a bounded run that turns a stall or an exception into a
    failing outcome.  [dsm check] sweeps protocols over seeds, drivers and
    scenarios: each seed perturbs the legal event interleaving (engine
    tie-breaking, {!Dsmpm2_sim.Engine.create}) and the network latencies
    ({!Dsmpm2_net.Network.seeded_jitter}) without breaking FIFO link order,
    so every run is one the real system could produce, and the same seed
    under the same fault spec replays it.  The litmus tests and the
    sharing patterns run their scenarios unperturbed ([~seed:None]). *)

open Dsmpm2_net
open Dsmpm2_core

(** {1 Scenarios} *)

type expectation =
  | Declared_model
      (** the history satisfies the declared {!Protocol.model} and the
          result check passes *)
  | Forbidden_in of (Protocol.model -> bool)
      (** the result check names an outcome (a litmus observation), which
          fails the run only under a model the predicate holds for *)
  | Final_memory  (** the result check alone; no history check *)

type scenario = {
  name : string;
  nodes : int;
  limit_us : float;  (** threads still blocked at this time are a stall *)
  program : Dsm.t -> protocol:int -> seed:int -> History.t -> string option;
      (** spawns the threads and returns the result check, called once the
          run drained: [Some msg] names a result other than intended.
          [seed] is the run's (0 unperturbed), for programs that draw a
          plan. *)
  expect : expectation;
}

val scenarios : scenario list
(** [dsm check]'s four, on 3 nodes with 100 ms under [Declared_model]:
    [lock_ladder] (seeded random locked increments over two vars),
    [barrier_phases] (rotating writer, double barriers), [racy_poll]
    (unsynchronized writer vs pollers), [mixed_sync] (locked counter with
    barriers between phases). *)

val check_word :
  Dsm.t -> History.t -> what:string -> int -> expected:int -> string option
(** [None] when the word at [addr] was last written [expected] and a node
    with rights to its page (with none, a majority of frames) holds that;
    else a message naming [what] and the page. *)

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
  o_seed : int option;  (** [None] for an unperturbed run *)
  o_workload : string;  (** the scenario's name *)
  o_driver : string;
  o_plan : string;  (** human-readable fault schedule *)
  o_crashed : string option;  (** exception that aborted the run *)
  o_stalled : bool;  (** threads still blocked at the run limit *)
  o_violations : History.violation list;
      (** checker verdict; [] unless the run drained *)
  o_wrong_result : string option;
      (** the result check's finding, counted or not *)
  o_failed : bool;
      (** crashed, stalled, violated its model, or a result check the
          scenario's expectation counts *)
  o_end_us : float;
      (** when the last thread ended, before the watchdog's last tick *)
  o_alert_kinds : string list;  (** distinct watchdog alert kinds, sorted *)
  o_dropped : int;  (** messages the fault plan dropped *)
  o_retransmissions : int;  (** RPC retransmissions sent *)
  o_fingerprint : int;  (** order-sensitive hash of the recorded history *)
  o_ops : int;  (** number of recorded operations *)
  o_explanations : Explain.explanation list;
      (** one blame-engine explanation per violation, or one for a counted
          wrong result; for a run that stalled or crashed, one per critical
          watchdog alert.  [] unless it failed under [~explain:true] *)
}

val run :
  ?spec:fault_spec ->
  ?explain:bool ->
  ?trace_capacity:int ->
  protocol:string ->
  driver:Driver.t ->
  scenario:scenario ->
  seed:int option ->
  unit ->
  outcome * Dsm.t
(** Run one scenario under one protocol, driver, seed and fault spec
    (default {!no_faults}) and judge it by its expectation; also return the
    finished runtime, for its trace ({!Analyze.analyze}) and counters.  The
    seed drives tie-breaking, jitter, loss draws and window placement, so
    the same arguments replay the same schedule; [None] is the unperturbed
    schedule (no tie seed, no jitter; faults drawn from seed 0).  [explain]
    (default false) fills [o_explanations] on a failing run.
    [trace_capacity] bounds the trace as a flight-recorder ring
    ({!Dsmpm2_sim.Trace.set_capacity}); neither it nor the monitor or
    watchdog changes the schedule or the fingerprint. *)

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
  ?scenarios:scenario list ->
  ?spec:fault_spec ->
  ?explain:bool ->
  ?progress:(string -> unit) ->
  ?on_failure:(string -> outcome -> Dsm.t -> unit) ->
  seeds:int list ->
  unit ->
  verdict list
(** [sweep ~seeds ()] makes one {!run} per protocol, driver, scenario and
    seed (defaults: every builtin protocol in registry id order, all
    drivers, {!scenarios}, {!no_faults}) and aggregates per-protocol
    verdicts.  [progress] is called after each
    protocol/driver/scenario cell; [on_failure] with the protocol name,
    every failing outcome (not just the first) and its finished runtime. *)

val failed : verdict list -> bool

val print_outcome : Format.formatter -> outcome -> unit
val print : ?spec:fault_spec -> Format.formatter -> verdict list -> unit
(** The verdict table, each failing protocol followed by its first failing
    outcome; [spec] (default {!no_faults}) names the faults in the title. *)

val to_json : verdict list -> Dsmpm2_sim.Json.t
