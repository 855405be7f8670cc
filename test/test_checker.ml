(* Unit tests for the execution-history checker (History.check) on hand-built
   histories, plus end-to-end runs where a deliberately broken protocol must
   be caught and the real one must pass. *)

open Dsmpm2_sim
open Dsmpm2_net
open Dsmpm2_core
open Dsmpm2_protocols

let us = Time.of_us
let x = 64 (* the shared address used by the hand-built histories *)

(* Record [kind] for thread [tid] over [start, finish] (microseconds). *)
let rec_op h ~tid ?(node = 0) ~s ~f kind =
  History.record h ~tid ~node ~start:(us s) ~finish:(us f) kind

let violations ~model h = List.length (History.check ~model h)

let check_violations name ~model h expected =
  Alcotest.(check int) name expected (violations ~model h)

(* --- per-location real-time rule (Sequential only) --- *)

let stale_read_history () =
  let h = History.create () in
  rec_op h ~tid:0 ~s:0. ~f:1. (History.Write { addr = x; value = 1 });
  rec_op h ~tid:1 ~s:2. ~f:3. (History.Write { addr = x; value = 2 });
  (* Unsynchronized third thread reads the overwritten value long after
     both writes completed. *)
  rec_op h ~tid:2 ~s:10. ~f:11. (History.Read { addr = x; value = 1 });
  h

let test_sequential_rejects_stale_read () =
  check_violations "stale read flagged under sequential" ~model:Protocol.Sequential
    (stale_read_history ()) 1

let test_release_allows_racy_stale_read () =
  (* No happens-before edge reaches the reader: under release consistency
     the stale value is a legal race. *)
  check_violations "racy read legal under release" ~model:Protocol.Release
    (stale_read_history ()) 0;
  check_violations "racy read legal under java" ~model:Protocol.Java
    (stale_read_history ()) 0

let test_current_read_passes_everywhere () =
  let h = History.create () in
  rec_op h ~tid:0 ~s:0. ~f:1. (History.Write { addr = x; value = 1 });
  rec_op h ~tid:1 ~s:2. ~f:3. (History.Write { addr = x; value = 2 });
  rec_op h ~tid:2 ~s:10. ~f:11. (History.Read { addr = x; value = 2 });
  check_violations "latest value legal under sequential" ~model:Protocol.Sequential h 0;
  check_violations "latest value legal under release" ~model:Protocol.Release h 0

(* --- lock release-to-acquire edges (all models) --- *)

let test_lock_edge_makes_stale_read_illegal () =
  let h = History.create () in
  rec_op h ~tid:0 ~s:0. ~f:1. (History.Write { addr = x; value = 1 });
  rec_op h ~tid:0 ~s:2. ~f:3. (History.Release { lock = 0 });
  rec_op h ~tid:1 ~s:4. ~f:5. (History.Acquire { lock = 0 });
  rec_op h ~tid:1 ~s:6. ~f:7. (History.Read { addr = x; value = 0 });
  (* The initial zero is overwritten by a write that happens-before the
     read via the lock hand-off: illegal under every model. *)
  check_violations "lock edge enforced under release" ~model:Protocol.Release h 1;
  check_violations "lock edge enforced under java" ~model:Protocol.Java h 1;
  check_violations "lock edge enforced under sequential" ~model:Protocol.Sequential h 1

let test_unrelated_lock_carries_no_edge () =
  let h = History.create () in
  rec_op h ~tid:0 ~s:0. ~f:1. (History.Write { addr = x; value = 1 });
  rec_op h ~tid:0 ~s:2. ~f:3. (History.Release { lock = 0 });
  rec_op h ~tid:1 ~s:4. ~f:5. (History.Acquire { lock = 9 });
  rec_op h ~tid:1 ~s:6. ~f:7. (History.Read { addr = x; value = 0 });
  check_violations "different lock, read stays racy-legal" ~model:Protocol.Release h 0

(* --- barrier generations --- *)

let test_barrier_publishes_writes () =
  let h = History.create () in
  let b parties = History.Barrier { barrier = 0; parties } in
  rec_op h ~tid:0 ~s:0. ~f:1. (History.Write { addr = x; value = 5 });
  rec_op h ~tid:0 ~s:2. ~f:4. (b 2);
  rec_op h ~tid:1 ~s:3. ~f:4. (b 2);
  rec_op h ~tid:1 ~s:6. ~f:7. (History.Read { addr = x; value = 0 });
  check_violations "pre-barrier write visible after barrier" ~model:Protocol.Release h 1;
  (* The same history with the read seeing the published value is clean. *)
  let h2 = History.create () in
  rec_op h2 ~tid:0 ~s:0. ~f:1. (History.Write { addr = x; value = 5 });
  rec_op h2 ~tid:0 ~s:2. ~f:4. (b 2);
  rec_op h2 ~tid:1 ~s:3. ~f:4. (b 2);
  rec_op h2 ~tid:1 ~s:6. ~f:7. (History.Read { addr = x; value = 5 });
  check_violations "published value legal" ~model:Protocol.Release h2 0

let test_barrier_generations_are_ordered () =
  (* Two generations of a 2-party barrier: a write between the generations
     must be visible after the second one. *)
  let h = History.create () in
  let b parties = History.Barrier { barrier = 0; parties } in
  rec_op h ~tid:0 ~s:0. ~f:1. (b 2);
  rec_op h ~tid:1 ~s:0. ~f:1. (b 2);
  rec_op h ~tid:0 ~s:2. ~f:3. (History.Write { addr = x; value = 9 });
  rec_op h ~tid:0 ~s:4. ~f:5. (b 2);
  rec_op h ~tid:1 ~s:4. ~f:5. (b 2);
  rec_op h ~tid:1 ~s:6. ~f:7. (History.Read { addr = x; value = 0 });
  check_violations "second generation publishes the write" ~model:Protocol.Release h 1

(* --- reads-from causality (CoRR) --- *)

let test_read_cannot_step_backwards () =
  let h = History.create () in
  rec_op h ~tid:0 ~s:0. ~f:1. (History.Write { addr = x; value = 1 });
  rec_op h ~tid:0 ~s:2. ~f:3. (History.Write { addr = x; value = 2 });
  rec_op h ~tid:1 ~s:10. ~f:11. (History.Read { addr = x; value = 2 });
  rec_op h ~tid:1 ~s:12. ~f:13. (History.Read { addr = x; value = 1 });
  (* Having observed the second write, the thread may not then read the
     first: coherence of reads on one location. *)
  check_violations "CoRR step-back flagged under release" ~model:Protocol.Release h 1

let test_read_of_unwritten_value () =
  let h = History.create () in
  rec_op h ~tid:0 ~s:0. ~f:1. (History.Read { addr = x; value = 7 });
  check_violations "no write can explain the value" ~model:Protocol.Release h 1

let test_initial_zero_is_legal () =
  let h = History.create () in
  rec_op h ~tid:0 ~s:0. ~f:1. (History.Read { addr = x; value = 0 });
  check_violations "initial zero readable" ~model:Protocol.Sequential h 0

(* --- fingerprint --- *)

let test_fingerprint_deterministic () =
  let build () =
    let h = History.create () in
    rec_op h ~tid:0 ~s:0. ~f:1. (History.Write { addr = x; value = 1 });
    rec_op h ~tid:1 ~s:2. ~f:3. (History.Read { addr = x; value = 1 });
    h
  in
  Alcotest.(check int) "same records, same fingerprint"
    (History.fingerprint (build ()))
    (History.fingerprint (build ()));
  let h2 = build () in
  rec_op h2 ~tid:1 ~s:4. ~f:5. (History.Read { addr = x; value = 0 });
  Alcotest.(check bool) "extra record changes fingerprint" true
    (History.fingerprint (build ()) <> History.fingerprint h2)

(* --- end to end: a broken protocol is caught, the real one is not --- *)

(* li_hudak with invalidations disabled: a writer upgrades in place while
   readers keep stale replicas — the classic lost-invalidation bug. *)
let broken_li_hudak =
  {
    Li_hudak.protocol with
    Protocol.name = "broken_li";
    invalidate_server = (fun _rt ~node:_ ~page:_ ~sender:_ -> ());
  }

let stale_replica_run ~protocol_of =
  let dsm = Dsm.create ~nodes:2 ~driver:Driver.bip_myrinet () in
  ignore (Builtin.register_all dsm);
  let protocol = protocol_of dsm in
  let hist = Dsm.enable_history dsm in
  let a = Dsm.malloc dsm ~protocol ~home:(Dsm.On_node 0) 8 in
  (* Node 1 replicates the page, then node 0 upgrades (invalidating — or
     failing to invalidate — node 1's copy), then node 1 reads again well
     after the write completed: sequential consistency forbids the stale
     zero. *)
  ignore
    (Dsm.spawn dsm ~node:1 (fun () ->
         ignore (Dsm.read_int dsm a);
         Dsm.compute dsm 2_000.;
         ignore (Dsm.read_int dsm a)));
  ignore
    (Dsm.spawn dsm ~node:0 (fun () ->
         Dsm.compute dsm 500.;
         Dsm.write_int dsm a 1));
  Dsm.run dsm;
  History.check ~model:Protocol.Sequential hist

let test_broken_protocol_is_caught () =
  let vs =
    stale_replica_run ~protocol_of:(fun dsm -> Dsm.create_protocol dsm broken_li_hudak)
  in
  Alcotest.(check bool) "missing invalidation flagged" true (vs <> []);
  (* The minimized evidence names the stale read and the overwriting
     write. *)
  match vs with
  | v :: _ ->
      Alcotest.(check bool) "witnesses include the write" true
        (List.exists
           (fun (o : History.op) ->
             match o.History.kind with
             | History.Write { value = 1; _ } -> true
             | _ -> false)
           v.History.v_witnesses)
  | [] -> ()

let test_real_protocol_passes () =
  let vs =
    stale_replica_run ~protocol_of:(fun dsm ->
        match Dsm.protocol_by_name dsm "li_hudak" with
        | Some id -> id
        | None -> Alcotest.fail "li_hudak not registered")
  in
  Alcotest.(check int) "no violations for li_hudak" 0 (List.length vs)

(* --- end to end: conformance harness replay determinism --- *)

module C = Dsmpm2_experiments.Conformance

let lock_ladder = List.find (fun s -> s.C.name = "lock_ladder") C.scenarios

let test_conformance_replay_deterministic () =
  let run () =
    fst
      (C.run ~protocol:"li_hudak" ~driver:Driver.bip_myrinet
         ~scenario:lock_ladder ~seed:(Some 11) ())
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same seed, same fingerprint" a.C.o_fingerprint
    b.C.o_fingerprint;
  Alcotest.(check int) "same seed, same op count" a.C.o_ops b.C.o_ops;
  Alcotest.(check bool) "clean run" false a.C.o_failed

let test_conformance_perturbation_varies_schedule () =
  (* Different seeds must explore different interleavings at least once
     over a small seed range (fingerprints differ). *)
  let fp seed =
    (fst
       (C.run ~protocol:"li_hudak" ~driver:Driver.bip_myrinet
          ~scenario:lock_ladder ~seed:(Some seed) ()))
      .C.o_fingerprint
  in
  let base = fp 0 in
  Alcotest.(check bool) "some seed diverges" true
    (List.exists (fun s -> fp s <> base) [ 1; 2; 3; 4; 5 ])

(* --- end to end: fault tolerance --- *)

let faulted ~protocol ~seed =
  fst
    (C.run ~spec:C.default_fault_spec ~protocol ~driver:Driver.bip_myrinet
       ~scenario:lock_ladder ~seed:(Some seed) ())

let test_sc_abd_survives_faults () =
  (* The quorum protocol must drain cleanly and keep sequential consistency
     under crash windows and message loss, across several fault seeds. *)
  List.iter
    (fun seed ->
      let o = faulted ~protocol:"sc_abd" ~seed in
      let label what = Printf.sprintf "%s (seed %d)" what seed in
      Alcotest.(check (option string)) (label "no crash") None o.C.o_crashed;
      Alcotest.(check bool) (label "no stall") false o.C.o_stalled;
      Alcotest.(check int) (label "no violations") 0
        (List.length o.C.o_violations);
      Alcotest.(check (option string)) (label "right result") None
        o.C.o_wrong_result;
      Alcotest.(check bool) (label "sweep verdict") false o.C.o_failed)
    [ 0; 1; 2; 3 ]

let test_legacy_protocol_fails_visibly_under_faults () =
  (* The ownership-chain family has no redundancy: under the same schedules
     it must fail loudly — stall or typed crash, never silent corruption —
     and the watchdog must name the dead node. *)
  let outcomes =
    List.map
      (fun seed -> faulted ~protocol:"li_hudak" ~seed)
      [ 0; 1; 2; 3 ]
  in
  Alcotest.(check bool) "some schedule defeats li_hudak" true
    (List.exists (fun o -> o.C.o_failed) outcomes);
  List.iter
    (fun o ->
      if o.C.o_failed then begin
        Alcotest.(check bool)
          (Printf.sprintf "failure is loud (seed %d)" (Option.get o.C.o_seed))
          true
          (o.C.o_stalled || o.C.o_crashed <> None);
        Alcotest.(check bool)
          (Printf.sprintf "typed node.dead alert (seed %d)" (Option.get o.C.o_seed))
          true
          (List.mem "node.dead" o.C.o_alert_kinds)
      end)
    outcomes

let test_zero_fault_spec_is_schedule_neutral () =
  (* A fault layer that is installed but empty (no windows, no loss), with
     the monitor and watchdog attached, must replay the exact histories a
     bare runtime records: the reference fingerprints were taken from runs
     with no fault layer, monitor or watchdog at all. *)
  List.iter
    (fun (protocol, seed, bare_fingerprint) ->
      let o, _ =
        C.run ~spec:C.no_faults ~protocol ~driver:Driver.bip_myrinet
          ~scenario:lock_ladder ~seed:(Some seed) ()
      in
      Alcotest.(check int)
        (Printf.sprintf "%s seed %d: identical history" protocol seed)
        bare_fingerprint o.C.o_fingerprint;
      Alcotest.(check int)
        (Printf.sprintf "%s seed %d: nothing dropped" protocol seed)
        0 o.C.o_dropped;
      Alcotest.(check int)
        (Printf.sprintf "%s seed %d: nothing retransmitted" protocol seed)
        0 o.C.o_retransmissions)
    [
      ("li_hudak", 4, 1772490434049513381);
      ("erc_sw", 7, 1979477435824960942);
      ("sc_abd", 4, 1921686376194275793);
    ]

let () =
  Alcotest.run "checker"
    [
      ( "real-time rule",
        [
          Alcotest.test_case "sequential rejects stale read" `Quick
            test_sequential_rejects_stale_read;
          Alcotest.test_case "release allows racy stale read" `Quick
            test_release_allows_racy_stale_read;
          Alcotest.test_case "current read passes" `Quick
            test_current_read_passes_everywhere;
        ] );
      ( "lock edges",
        [
          Alcotest.test_case "release-acquire edge" `Quick
            test_lock_edge_makes_stale_read_illegal;
          Alcotest.test_case "unrelated lock" `Quick test_unrelated_lock_carries_no_edge;
        ] );
      ( "barriers",
        [
          Alcotest.test_case "barrier publishes writes" `Quick
            test_barrier_publishes_writes;
          Alcotest.test_case "generations ordered" `Quick
            test_barrier_generations_are_ordered;
        ] );
      ( "reads-from",
        [
          Alcotest.test_case "CoRR step-back" `Quick test_read_cannot_step_backwards;
          Alcotest.test_case "unwritten value" `Quick test_read_of_unwritten_value;
          Alcotest.test_case "initial zero" `Quick test_initial_zero_is_legal;
        ] );
      ( "fingerprint",
        [ Alcotest.test_case "deterministic" `Quick test_fingerprint_deterministic ] );
      ( "end-to-end",
        [
          Alcotest.test_case "broken protocol caught" `Quick
            test_broken_protocol_is_caught;
          Alcotest.test_case "real protocol passes" `Quick test_real_protocol_passes;
          Alcotest.test_case "replay deterministic" `Quick
            test_conformance_replay_deterministic;
          Alcotest.test_case "perturbation varies schedule" `Quick
            test_conformance_perturbation_varies_schedule;
        ] );
      ( "fault tolerance",
        [
          Alcotest.test_case "sc_abd survives faults" `Quick
            test_sc_abd_survives_faults;
          Alcotest.test_case "legacy fails visibly" `Quick
            test_legacy_protocol_fails_visibly_under_faults;
          Alcotest.test_case "zero-fault spec neutral" `Quick
            test_zero_fault_spec_is_schedule_neutral;
        ] );
    ]
