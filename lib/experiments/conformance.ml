open Dsmpm2_sim
open Dsmpm2_net
open Dsmpm2_pm2
open Dsmpm2_mem
open Dsmpm2_core
open Dsmpm2_protocols

(* One run path for every correctness tool: a scenario under seeded
   schedule perturbation (engine tie-breaking plus network jitter), judged
   by its expectation.  Every failure replays from its seed. *)

type expectation =
  | Declared_model
  | Forbidden_in of (Protocol.model -> bool)
  | Final_memory

type scenario = {
  name : string;
  nodes : int;
  limit_us : float;
  program : Dsm.t -> protocol:int -> seed:int -> History.t -> string option;
  expect : expectation;
}

(* The post-mortem value of a word, per the recorded history: the last write
   in record order.  For lock- or barrier-ordered writes the record order is
   the synchronization order, so this is the value a correctly synchronized
   reader would observe next.  Peeking some node's frame instead would be
   unsound — java-family caches keep read-write rights on stale replicas
   that were simply never re-acquired. *)
let final_written hist addr =
  List.fold_left
    (fun acc (op : History.op) ->
      match op.History.kind with
      | History.Write { addr = a; value } when a = addr -> Some value
      | _ -> acc)
    None (History.ops hist)

(* A correct protocol must leave the final value on at least one node that
   still has rights to the page — the owner, or the home after the closing
   flush.  Catches a broken flush path that no later read happens to expose.
   The per-access quorum family is the exception: it revokes rights after
   every access, so at rest {e no} node holds rights — there the equivalent
   durability invariant is the final value at a majority of frames. *)
let some_replica_holds dsm addr value =
  let nodes = List.init (Dsm.nodes dsm) Fun.id in
  let rights node = Dsm.unsafe_rights dsm ~node ~addr <> Access.No_access in
  let holds node = Dsm.unsafe_peek dsm ~node addr = value in
  if List.exists rights nodes then List.exists (fun n -> rights n && holds n) nodes
  else List.length (List.filter holds nodes) >= (Dsm.nodes dsm / 2) + 1

let check_word dsm hist ~what addr ~expected =
  let got = Option.value ~default:0 (final_written hist addr) in
  let at = Printf.sprintf "(page %d)" (Page.page_of_addr dsm.Runtime.geo addr) in
  if got <> expected then
    Some (Printf.sprintf "%s: expected %d, final write is %d %s" what expected got at)
  else if not (some_replica_holds dsm addr expected) then
    Some (Printf.sprintf "%s: no live replica holds final value %d %s" what expected at)
  else None

let bind_if_entry_ec dsm ~protocol ~lock ~addr =
  if Dsm.protocol_name dsm protocol = "entry_ec" then
    Entry_ec.bind dsm ~lock ~addr ~size:8

(* Each program wires the scenario's threads into [dsm] and returns a
   post-run result check (None = result correct, Some msg = wrong answer —
   a violation even when the history itself is explainable). *)

let lock_ladder dsm ~protocol ~seed =
  let nodes = Dsm.nodes dsm in
  let rng = Rng.create ~seed:(seed lxor 0x9e3779b9) in
  let nvars = 2 and ops = 4 in
  let vars =
    Array.init nvars (fun i ->
        Dsm.malloc dsm ~protocol ~home:(Dsm.On_node (i mod nodes)) 8)
  in
  let locks = Array.init nvars (fun _ -> Dsm.lock_create dsm ~protocol ()) in
  Array.iteri (fun i lock -> bind_if_entry_ec dsm ~protocol ~lock ~addr:vars.(i)) locks;
  let plans =
    Array.init nodes (fun _ -> Array.init ops (fun _ -> Rng.int rng nvars))
  in
  let expected = Array.make nvars 0 in
  Array.iter (Array.iter (fun v -> expected.(v) <- expected.(v) + 1)) plans;
  for node = 0 to nodes - 1 do
    ignore
      (Dsm.spawn dsm ~node (fun () ->
           Array.iter
             (fun v ->
               Dsm.with_lock dsm locks.(v) (fun () ->
                   Dsm.write_int dsm vars.(v) (Dsm.read_int dsm vars.(v) + 1));
               Dsm.compute dsm 80.)
             plans.(node)))
  done;
  fun hist ->
    Seq.find_map
      (fun i ->
        check_word dsm hist ~what:(Printf.sprintf "var %d locked increments" i)
          vars.(i) ~expected:expected.(i))
      (Seq.init nvars Fun.id)

let barrier_phases dsm ~protocol ~seed:_ =
  let nodes = Dsm.nodes dsm in
  let x = Dsm.malloc dsm ~protocol ~home:(Dsm.On_node 0) 8 in
  let barrier = Dsm.barrier_create dsm ~protocol ~parties:nodes () in
  let phases = 3 in
  for node = 0 to nodes - 1 do
    ignore
      (Dsm.spawn dsm ~node (fun () ->
           for p = 0 to phases - 1 do
             if p mod nodes = node then Dsm.write_int dsm x (p + 1);
             Dsm.barrier_wait dsm barrier;
             ignore (Dsm.read_int dsm x);
             Dsm.barrier_wait dsm barrier
           done))
  done;
  fun hist -> check_word dsm hist ~what:"final phase value" x ~expected:phases

let racy_poll dsm ~protocol ~seed:_ =
  (* Deliberately unsynchronized: one writer, two pollers.  No expected
     result — the point is what staleness the declared model tolerates. *)
  let x = Dsm.malloc dsm ~protocol ~home:(Dsm.On_node 0) 8 in
  ignore
    (Dsm.spawn dsm ~node:0 (fun () ->
         Dsm.compute dsm 500.;
         Dsm.write_int dsm x 1;
         Dsm.compute dsm 1_500.;
         Dsm.write_int dsm x 2));
  for node = 1 to Dsm.nodes dsm - 1 do
    ignore
      (Dsm.spawn dsm ~node (fun () ->
           for _ = 1 to 8 do
             ignore (Dsm.read_int dsm x);
             Dsm.compute dsm (float_of_int (250 + (70 * node)))
           done))
  done;
  fun _hist -> None

let mixed_sync dsm ~protocol ~seed:_ =
  (* Locks and barriers interleaved on one protocol: a lock-guarded counter
     incremented each phase, a barrier between phases, and unlocked reads of
     the counter right after the barrier (legal: the barrier publishes the
     increments of the previous phase). *)
  let nodes = Dsm.nodes dsm in
  let c = Dsm.malloc dsm ~protocol ~home:(Dsm.On_node 0) 8 in
  let lock = Dsm.lock_create dsm ~protocol () in
  bind_if_entry_ec dsm ~protocol ~lock ~addr:c;
  let barrier = Dsm.barrier_create dsm ~protocol ~parties:nodes () in
  let phases = 2 in
  for node = 0 to nodes - 1 do
    ignore
      (Dsm.spawn dsm ~node (fun () ->
           for _ = 0 to phases - 1 do
             Dsm.with_lock dsm lock (fun () ->
                 Dsm.write_int dsm c (Dsm.read_int dsm c + 1));
             Dsm.barrier_wait dsm barrier;
             ignore (Dsm.read_int dsm c);
             Dsm.barrier_wait dsm barrier
           done))
  done;
  fun hist ->
    check_word dsm hist ~what:"locked increments" c ~expected:(nodes * phases)

(* Generous: total RPC patience under the default retry policy is ~4.5 ms
   per call and crash windows live inside a 4 ms horizon, so a run that has
   not drained by 100 ms of simulated time is genuinely stuck. *)
let scenarios =
  List.map
    (fun (name, program) ->
      { name; nodes = 3; limit_us = 100_000.; program; expect = Declared_model })
    [
      ("lock_ladder", lock_ladder);
      ("barrier_phases", barrier_phases);
      ("racy_poll", racy_poll);
      ("mixed_sync", mixed_sync);
    ]

(* --- one run: a scenario under one protocol, driver, seed and fault spec --- *)

type fault_spec = {
  f_crashes : int;
  f_loss_pct : float;
  f_down_us : float;
  f_horizon_us : float;
  f_protect : int list;
}

(* An installed but empty fault layer draws nothing and gates nothing, so
   this spec replays exactly the schedule of a runtime without one. *)
let no_faults =
  {
    f_crashes = 0;
    f_loss_pct = 0.;
    f_down_us = 300.;
    f_horizon_us = 4000.;
    f_protect = [ 0; 1 ];
  }

(* Nodes 0 and 1 are protected because the workloads' lock managers live on
   [id mod nodes] (lock_ladder's two locks -> nodes 0 and 1) and the barrier
   manager on node 0: no protocol, quorum or not, survives losing the
   centralized manager of a lock it needs.  Node 2 is the crash victim —
   exactly the minority a 3-node quorum tolerates. *)
let default_fault_spec = { no_faults with f_crashes = 2; f_loss_pct = 1.0 }

type outcome = {
  o_seed : int option;
  o_workload : string;
  o_driver : string;
  o_plan : string;
  o_crashed : string option;
  o_stalled : bool;
  o_violations : History.violation list;
  o_wrong_result : string option;
  o_failed : bool;
  o_end_us : float;
  o_alert_kinds : string list;
  o_dropped : int;
  o_retransmissions : int;
  o_fingerprint : int;
  o_ops : int;
  o_explanations : Explain.explanation list;
}

(* One blame-engine explanation per violation, or for the wrong result;
   for a run that stalled or crashed instead, one per critical watchdog
   alert (deadlock.stall, node.dead, ...) — the same targets [dsm explain]
   uses on a raw dump. *)
let explanations dsm ~wrong ~at violations =
  let tr = Monitor.trace dsm in
  match (violations, wrong) with
  | [], Some detail -> [ Explain.explain_result ~trace:tr ~at ~detail ]
  | [], None -> Explain.explain_trace tr
  | _ ->
      List.map
        (fun (v : History.violation) ->
          let op = v.History.v_op in
          let page =
            match op.History.kind with
            | History.Read { addr; _ } | History.Write { addr; _ } ->
                Page.page_of_addr dsm.Runtime.geo addr
            | _ -> -1
          in
          Explain.explain_violation ~trace:tr ~node:op.History.node ~page
            ~at:op.History.finish
            ~detail:(History.violation_to_string v))
        violations

let run ?(spec = no_faults) ?(explain = false) ?trace_capacity ~protocol
    ~driver ~scenario ~seed () =
  let nodes = scenario.nodes in
  let jitter = Option.map (fun seed -> Network.seeded_jitter ~seed ()) seed in
  let dsm = Dsm.create ?tie_seed:seed ?jitter ~nodes ~driver () in
  ignore (Builtin.register_all dsm);
  ignore (Builtin.register_extras dsm);
  (* Monitoring only records events, and the watchdog samples on observer
     events that never draw from the tie-key stream: both ride along on
     every run without changing its schedule or its fingerprint. *)
  Monitor.enable dsm true;
  Option.iter (Trace.set_capacity (Monitor.trace dsm)) trace_capacity;
  let watchdog = Watchdog.attach dsm in
  let proto_id =
    match Dsm.protocol_by_name dsm protocol with
    | Some id -> id
    | None -> invalid_arg (Printf.sprintf "Conformance: unknown protocol %s" protocol)
  in
  let seed0 = Option.value seed ~default:0 in
  let plan =
    Fault_plan.seeded ~nodes ~seed:seed0 ~crashes:spec.f_crashes
      ~loss_pct:spec.f_loss_pct ~protect:spec.f_protect ~down_us:spec.f_down_us
      ~horizon_us:spec.f_horizon_us ()
  in
  Dsm.inject_faults dsm plan;
  let hist = Dsm.enable_history dsm in
  let check_result = scenario.program dsm ~protocol:proto_id ~seed:seed0 in
  let crashed, engine_stalled =
    match Dsm.run ~limit:(Time.of_us scenario.limit_us) dsm with
    | () -> (None, false)
    | exception Engine.Stalled _ -> (None, true)
    | exception exn -> (Some (Printexc.to_string exn), false)
  in
  (* Every engine fiber is a Marcel thread. *)
  let live = Engine.live_fibers (Runtime.engine dsm) > 0 in
  let stalled = engine_stalled || (crashed = None && live) in
  let complete = crashed = None && not stalled in
  let model = (Runtime.proto dsm proto_id).Protocol.model in
  (* History and result checks only mean something for a run that drained:
     an aborted or stalled run already failed louder. *)
  let violations =
    match scenario.expect with
    | Declared_model when complete -> History.check ~model hist
    | _ -> []
  in
  let wrong = if complete then check_result hist else None in
  let counted =
    match scenario.expect with Forbidden_in forbids -> forbids model | _ -> true
  in
  let failed = (not complete) || violations <> [] || (wrong <> None && counted) in
  (* The watchdog's last tick moves the clock past the program's end, so the
     run's time is when its last thread ended. *)
  let at = Marcel.last_exit (Runtime.marcel dsm) in
  ( {
      o_seed = seed;
      o_workload = scenario.name;
      o_driver = driver.Driver.name;
      o_plan = Fault_plan.to_string plan;
      o_crashed = crashed;
      o_stalled = stalled;
      o_violations = violations;
      o_wrong_result = wrong;
      o_failed = failed;
      o_end_us = Time.to_us at;
      o_alert_kinds =
        List.sort_uniq String.compare
          (List.map (fun a -> a.Watchdog.al_kind) (Watchdog.alerts watchdog));
      o_dropped = Network.messages_dropped (Pm2.network (Dsm.pm2 dsm));
      o_retransmissions = Rpc.retransmissions (Runtime.rpc dsm);
      o_fingerprint = History.fingerprint hist;
      o_ops = History.length hist;
      o_explanations =
        (if explain && failed then
           explanations dsm ~wrong:(if counted then wrong else None) ~at violations
         else []);
    },
    dsm )

(* --- sweeps: every protocol over drivers x scenarios x seeds --- *)

type verdict = {
  v_protocol : string;
  v_model : Protocol.model;
  v_runs : int;
  v_failures : int;
  v_stalls : int;
  v_crashes : int;
  v_alert_kinds : string list;
  v_first_failure : outcome option;
}

let sweep ?protocols ?(drivers = Driver.all) ?(scenarios = scenarios)
    ?spec ?explain ?(progress = fun _ -> ()) ?(on_failure = fun _ _ _ -> ())
    ~seeds () =
  let declared = Builtin.protocols () in
  List.map
    (fun protocol ->
      let cell driver scenario =
        let outcomes =
          List.map
            (fun seed ->
              let o, dsm =
                run ?spec ?explain ~protocol ~driver ~scenario ~seed:(Some seed) ()
              in
              if o.o_failed then on_failure protocol o dsm;
              o)
            seeds
        in
        progress (Printf.sprintf "%s/%s/%s" protocol driver.Driver.name scenario.name);
        outcomes
      in
      let os = List.concat_map (fun d -> List.concat_map (cell d) scenarios) drivers in
      let count p = List.length (List.filter p os) in
      {
        v_protocol = protocol;
        v_model = (List.find (fun p -> p.Protocol.name = protocol) declared).model;
        v_runs = List.length os;
        v_failures = count (fun o -> o.o_failed);
        v_stalls = count (fun o -> o.o_stalled);
        v_crashes = count (fun o -> o.o_crashed <> None);
        v_alert_kinds =
          List.sort_uniq String.compare (List.concat_map (fun o -> o.o_alert_kinds) os);
        v_first_failure = List.find_opt (fun o -> o.o_failed) os;
      })
    (Option.value protocols
       ~default:(List.map (fun p -> p.Protocol.name) declared))

let failed verdicts = List.exists (fun v -> v.v_failures > 0) verdicts

(* --- rendering --- *)

let print_outcome ppf o =
  Format.fprintf ppf "    %s, %s, %s (%d ops recorded)@."
    (Option.fold ~none:"unperturbed" ~some:(Printf.sprintf "seed %d") o.o_seed)
    o.o_driver o.o_workload o.o_ops;
  Format.fprintf ppf "    plan: %s@." o.o_plan;
  (match o.o_crashed with
  | Some msg -> Format.fprintf ppf "    crashed: %s@." msg
  | None -> ());
  if o.o_stalled then
    Format.fprintf ppf "    stalled: threads still blocked at the run limit@.";
  (match o.o_wrong_result with
  | Some msg -> Format.fprintf ppf "    wrong result: %s@." msg
  | None -> ());
  List.iteri
    (fun i v ->
      if i < 3 then Format.fprintf ppf "    %s@." (History.violation_to_string v))
    o.o_violations;
  if List.length o.o_violations > 3 then
    Format.fprintf ppf "    ... and %d more violations@."
      (List.length o.o_violations - 3);
  List.iteri
    (fun i x ->
      if i < 3 then
        List.iter
          (fun c ->
            Format.fprintf ppf "      because: %s@." (Explain.cause_to_string c))
          (Explain.causes x))
    o.o_explanations;
  Format.fprintf ppf "    alerts: [%s]; %d messages dropped, %d retransmissions@."
    (String.concat ", " o.o_alert_kinds)
    o.o_dropped o.o_retransmissions

let print ?(spec = no_faults) ppf verdicts =
  Format.fprintf ppf "Conformance sweep: perturbed schedules vs declared models%s@."
    (if spec.f_crashes = 0 && spec.f_loss_pct = 0. then ""
     else
       Printf.sprintf " (faults: %d crash windows, %.1f%% loss)" spec.f_crashes
         spec.f_loss_pct);
  Format.fprintf ppf "%-16s %-11s %5s %9s %7s %8s  %s@." "Protocol" "Model"
    "Runs" "Failures" "Stalls" "Crashes" "Verdict";
  List.iter
    (fun v ->
      Format.fprintf ppf "%-16s %-11s %5d %9d %7d %8d  %s%s@." v.v_protocol
        (Protocol.model_to_string v.v_model)
        v.v_runs v.v_failures v.v_stalls v.v_crashes
        (if v.v_failures = 0 then "PASS" else "FAIL")
        (match v.v_alert_kinds with
        | [] -> ""
        | ks -> Printf.sprintf "  [%s]" (String.concat ", " ks));
      match v.v_first_failure with
      | Some o ->
          Option.iter
            (Format.fprintf ppf "  first failing seed (replay with --replay %d):@.")
            o.o_seed;
          print_outcome ppf o
      | None -> ())
    verdicts

let to_json verdicts =
  Json.List
    (List.map
       (fun v ->
         Json.Obj
           [
             ("protocol", Json.String v.v_protocol);
             ("model", Json.String (Protocol.model_to_string v.v_model));
             ("runs", Json.Int v.v_runs);
             ("failures", Json.Int v.v_failures);
             ("stalls", Json.Int v.v_stalls);
             ("crashes", Json.Int v.v_crashes);
             ( "alert_kinds",
               Json.List (List.map (fun k -> Json.String k) v.v_alert_kinds) );
             ( "first_failing_seed",
               match Option.bind v.v_first_failure (fun o -> o.o_seed) with
               | Some s -> Json.Int s
               | None -> Json.Null );
           ])
       verdicts)
