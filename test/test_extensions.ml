(* Tests of the features beyond the minimal reproduction: post-mortem
   monitoring, protocol switching, allocation attributes, the extra
   protocols (fixed manager, hybrid) and the LU kernel. *)

open Dsmpm2_sim
open Dsmpm2_net
open Dsmpm2_mem
open Dsmpm2_core
open Dsmpm2_protocols
open Dsmpm2_apps

let make ?(nodes = 4) ?(driver = Driver.bip_myrinet) () =
  let dsm = Dsm.create ~nodes ~driver () in
  let ids = Builtin.register_all dsm in
  let extras = Builtin.register_extras dsm in
  (dsm, ids, extras)

let run_one dsm ~node f =
  ignore (Dsm.spawn dsm ~node f);
  Dsm.run dsm

(* --- monitoring --- *)

let test_monitor_records_protocol_events () =
  let dsm, _, _ = make ~nodes:2 () in
  Monitor.enable dsm true;
  let x = Dsm.malloc dsm ~home:(Dsm.On_node 1) 8 in
  let lock = Dsm.lock_create dsm () in
  run_one dsm ~node:0 (fun () ->
      Dsm.with_lock dsm lock (fun () -> Dsm.write_int dsm x 3));
  let categories = List.map (fun l -> l.Monitor.category) (Monitor.summary dsm) in
  List.iter
    (fun c ->
      Alcotest.(check bool) ("category " ^ c ^ " present") true (List.mem c categories))
    [ "fault"; "request"; "page"; "lock" ];
  Alcotest.(check bool) "report prints" true
    (String.length (Format.asprintf "%a" Monitor.report dsm) > 0)

let test_monitor_disabled_records_nothing () =
  let dsm, _, _ = make ~nodes:2 () in
  let x = Dsm.malloc dsm ~home:(Dsm.On_node 1) 8 in
  run_one dsm ~node:0 (fun () -> Dsm.write_int dsm x 3);
  Alcotest.(check int) "no events" 0 (Trace.length (Monitor.trace dsm))

(* --- attrs --- *)

let test_malloc_attr () =
  let dsm, ids, _ = make () in
  let a = Dsm.attr ~protocol:ids.Builtin.hbrc_mw ~home:(Dsm.On_node 2) () in
  let addr = Dsm.malloc_attr dsm a 8 in
  let page = List.hd (Dsm.region_pages dsm ~addr ~size:8) in
  let e = Runtime.entry dsm ~node:0 ~page in
  Alcotest.(check int) "attr protocol used" ids.Builtin.hbrc_mw e.Page_table.protocol;
  Alcotest.(check int) "attr home used" 2 e.Page_table.home

(* --- switch_protocol --- *)

let test_switch_protocol_moves_data_and_id () =
  let dsm, ids, _ = make () in
  let x = Dsm.malloc dsm ~protocol:ids.Builtin.li_hudak ~home:(Dsm.On_node 0) 8 in
  (* write from node 2: li_hudak migrates the page (owner = 2) *)
  run_one dsm ~node:2 (fun () -> Dsm.write_int dsm x 17);
  Dsm.switch_protocol dsm ~addr:x ~size:8 ~protocol:ids.Builtin.migrate_thread;
  let page = List.hd (Dsm.region_pages dsm ~addr:x ~size:8) in
  for node = 0 to 3 do
    let e = Runtime.entry dsm ~node ~page in
    Alcotest.(check int) "new protocol installed" ids.Builtin.migrate_thread
      e.Page_table.protocol;
    Alcotest.(check int) "owner reset to home" 0 e.Page_table.prob_owner
  done;
  (* the authoritative value moved back to the home *)
  Alcotest.(check int) "data consolidated at home" 17 (Dsm.unsafe_peek dsm ~node:0 x);
  (* and the new protocol drives subsequent accesses *)
  let landed = ref (-1) in
  run_one dsm ~node:3 (fun () ->
      ignore (Dsm.read_int dsm x);
      landed := Dsm.self_node dsm);
  Alcotest.(check int) "thread migrated under new protocol" 0 !landed

let test_switch_protocol_rejects_unflushed_twin () =
  let dsm, ids, _ = make () in
  let x = Dsm.malloc dsm ~protocol:ids.Builtin.hbrc_mw ~home:(Dsm.On_node 0) 8 in
  let lock = Dsm.lock_create dsm ~protocol:ids.Builtin.hbrc_mw () in
  (* leave a twin behind: write inside a lock and switch before release *)
  ignore
    (Dsm.spawn dsm ~node:1 (fun () ->
         Dsm.lock_acquire dsm lock;
         Dsm.write_int dsm x 5
         (* no release: twin stays *)));
  Dsm.run dsm;
  Alcotest.(check bool) "raises on unflushed twin" true
    (try
       Dsm.switch_protocol dsm ~addr:x ~size:8 ~protocol:ids.Builtin.li_hudak;
       false
     with Invalid_argument _ -> true)

let test_switch_protocol_end_to_end () =
  (* li_hudak -> hbrc_mw mid-program, with a barrier as the quiescence
     point; counters must survive the switch. *)
  let dsm, ids, _ = make ~nodes:2 () in
  let x = Dsm.malloc dsm ~protocol:ids.Builtin.li_hudak ~home:(Dsm.On_node 0) 8 in
  let lock = Dsm.lock_create dsm ~protocol:ids.Builtin.hbrc_mw () in
  let phase1 = Dsm.barrier_create dsm ~protocol:ids.Builtin.li_hudak ~parties:2 () in
  let switched = ref false in
  let worker _node () =
    for _ = 1 to 3 do
      Dsm.with_lock dsm lock (fun () ->
          Dsm.write_int dsm x (Dsm.read_int dsm x + 1))
    done;
    Dsm.barrier_wait dsm phase1;
    if not !switched then begin
      switched := true;
      Dsm.switch_protocol dsm ~addr:x ~size:8 ~protocol:ids.Builtin.hbrc_mw
    end;
    Dsm.barrier_wait dsm phase1;
    for _ = 1 to 3 do
      Dsm.with_lock dsm lock (fun () ->
          Dsm.write_int dsm x (Dsm.read_int dsm x + 1))
    done
  in
  ignore (Dsm.spawn dsm ~node:0 (worker 0));
  ignore (Dsm.spawn dsm ~node:1 (worker 1));
  Dsm.run dsm;
  (* final flush: hbrc keeps the reference at the home *)
  Alcotest.(check int) "12 increments across the switch" 12
    (Dsm.unsafe_peek dsm ~node:0 x)

(* --- li_hudak_fixed --- *)

let test_fixed_manager_counter () =
  let dsm, _, extras = make () in
  let x = Dsm.malloc dsm ~protocol:extras.Builtin.li_hudak_fixed ~home:(Dsm.On_node 0) 8 in
  let lock = Dsm.lock_create dsm () in
  let threads =
    List.init 4 (fun node ->
        Dsm.spawn dsm ~node (fun () ->
            for _ = 1 to 5 do
              Dsm.with_lock dsm lock (fun () ->
                  Dsm.write_int dsm x (Dsm.read_int dsm x + 1))
            done))
  in
  Dsm.run dsm;
  ignore threads;
  let rec owner n =
    if Dsm.unsafe_rights dsm ~node:n ~addr:x = Access.Read_write then n else owner (n + 1)
  in
  Alcotest.(check int) "no increment lost" 20 (Dsm.unsafe_peek dsm ~node:(owner 0) x)

let test_fixed_manager_two_hops () =
  (* After several ownership hand-offs, a late reader reaches the owner in
     two request messages (home forward), unlike the dynamic chain. *)
  let dsm, _, extras = make ~nodes:4 () in
  let x = Dsm.malloc dsm ~protocol:extras.Builtin.li_hudak_fixed ~home:(Dsm.On_node 0) 8 in
  let net = Dsmpm2_pm2.Pm2.network (Dsm.pm2 dsm) in
  for w = 1 to 2 do
    ignore
      (Dsm.spawn dsm ~node:w (fun () ->
           Dsm.compute dsm (float_of_int w *. 10_000.);
           ignore (Dsm.read_int dsm x);
           Dsm.write_int dsm x w))
  done;
  let requests = ref 0 in
  ignore
    (Dsm.spawn dsm ~node:3 (fun () ->
         Dsm.compute dsm 50_000.;
         let before = Stats.count (Network.stats net) "msg.request" in
         ignore (Dsm.read_int dsm x);
         requests := Stats.count (Network.stats net) "msg.request" - before));
  Dsm.run dsm;
  Alcotest.(check int) "two hops via the manager" 2 !requests

(* --- hybrid_rw --- *)

let test_hybrid_readers_replicate_writers_migrate () =
  let dsm, _, extras = make () in
  let x = Dsm.malloc dsm ~protocol:extras.Builtin.hybrid_rw ~home:(Dsm.On_node 1) 8 in
  let landed = ref (-1) in
  ignore
    (Dsm.spawn dsm ~node:0 (fun () ->
         Dsm.write_int dsm x 5;
         landed := Dsm.self_node dsm));
  ignore
    (Dsm.spawn dsm ~node:2 (fun () ->
         Dsm.compute dsm 10_000.;
         Alcotest.(check int) "reader sees the write" 5 (Dsm.read_int dsm x);
         Alcotest.(check int) "reader stayed put" 2 (Dsm.self_node dsm)));
  Dsm.run dsm;
  Alcotest.(check int) "writer migrated to the page" 1 !landed;
  Alcotest.check (Alcotest.testable Access.pp ( = )) "reader got a replica"
    Access.Read_only
    (Dsm.unsafe_rights dsm ~node:2 ~addr:x)

let test_hybrid_is_sequentially_consistent () =
  let dsm, _, extras = make () in
  let x = Dsm.malloc dsm ~protocol:extras.Builtin.hybrid_rw ~home:(Dsm.On_node 0) 8 in
  let lock = Dsm.lock_create dsm () in
  let threads =
    List.init 4 (fun node ->
        Dsm.spawn dsm ~node (fun () ->
            for _ = 1 to 4 do
              Dsm.with_lock dsm lock (fun () ->
                  Dsm.write_int dsm x (Dsm.read_int dsm x + 1))
            done))
  in
  Dsm.run dsm;
  ignore threads;
  Alcotest.(check int) "16 increments, page never moved" 16
    (Dsm.unsafe_peek dsm ~node:0 x)

let test_hybrid_stale_replica_invalidated () =
  let dsm, _, extras = make ~nodes:3 () in
  let x = Dsm.malloc dsm ~protocol:extras.Builtin.hybrid_rw ~home:(Dsm.On_node 0) 8 in
  ignore
    (Dsm.spawn dsm ~node:1 (fun () ->
         ignore (Dsm.read_int dsm x);
         (* replica *)
         Dsm.compute dsm 20_000.;
         Alcotest.(check int) "fresh after writer's invalidation" 9
           (Dsm.read_int dsm x)));
  ignore
    (Dsm.spawn dsm ~node:2 (fun () ->
         Dsm.compute dsm 5_000.;
         Dsm.write_int dsm x 9));
  Dsm.run dsm

(* --- entry_ec --- *)

let test_entry_ec_bound_counter () =
  let dsm, _, extras = make () in
  let x = Dsm.malloc dsm ~protocol:extras.Builtin.entry_ec ~home:(Dsm.On_node 0) 8 in
  let lock = Dsm.lock_create dsm ~protocol:extras.Builtin.entry_ec () in
  Entry_ec.bind dsm ~lock ~addr:x ~size:8;
  Alcotest.(check int) "one bound page" 1 (List.length (Entry_ec.bound_pages dsm ~lock));
  let threads =
    List.init 4 (fun node ->
        Dsm.spawn dsm ~node (fun () ->
            for _ = 1 to 5 do
              Dsm.with_lock dsm lock (fun () ->
                  Dsm.write_int dsm x (Dsm.read_int dsm x + 1))
            done))
  in
  Dsm.run dsm;
  ignore threads;
  Alcotest.(check int) "20 increments via entry consistency" 20
    (Dsm.unsafe_peek dsm ~node:0 x)

let test_entry_ec_acquire_is_selective () =
  (* Acquiring a lock bound to region A must not invalidate a cached copy
     of region B (unlike the Java protocols' whole-cache flush). *)
  let dsm, _, extras = make ~nodes:2 () in
  let a = Dsm.malloc dsm ~protocol:extras.Builtin.entry_ec ~home:(Dsm.On_node 0) 8 in
  let b = Dsm.malloc dsm ~protocol:extras.Builtin.entry_ec ~home:(Dsm.On_node 0) 8 in
  let lock_a = Dsm.lock_create dsm ~protocol:extras.Builtin.entry_ec () in
  Entry_ec.bind dsm ~lock:lock_a ~addr:a ~size:8;
  let rights_of_b_after = ref Access.No_access in
  run_one dsm ~node:1 (fun () ->
      ignore (Dsm.read_int dsm b);
      (* cache B *)
      Dsm.with_lock dsm lock_a (fun () -> ignore (Dsm.read_int dsm a));
      rights_of_b_after := Dsm.unsafe_rights dsm ~node:1 ~addr:b);
  Alcotest.(check bool) "B's copy survived the acquire of lock(A)" true
    (!rights_of_b_after <> Access.No_access);
  (* A's copy was dropped by the (second) acquire-flush... it was fetched
     inside the section, so it is present now; what matters is B. *)
  ()

let test_entry_ec_release_pushes_only_bound () =
  let dsm, _, extras = make ~nodes:2 () in
  let a = Dsm.malloc dsm ~protocol:extras.Builtin.entry_ec ~home:(Dsm.On_node 0) 8 in
  let b = Dsm.malloc dsm ~protocol:extras.Builtin.entry_ec ~home:(Dsm.On_node 0) 8 in
  let lock_a = Dsm.lock_create dsm ~protocol:extras.Builtin.entry_ec () in
  Entry_ec.bind dsm ~lock:lock_a ~addr:a ~size:8;
  run_one dsm ~node:1 (fun () ->
      Dsm.lock_acquire dsm lock_a;
      Dsm.write_int dsm a 1;
      Dsm.write_int dsm b 2;
      (* unbound write *)
      Dsm.lock_release dsm lock_a;
      Alcotest.(check int) "bound page flushed home" 1 (Dsm.unsafe_peek dsm ~node:0 a);
      Alcotest.(check int) "unbound page NOT flushed" 0 (Dsm.unsafe_peek dsm ~node:0 b))

let test_entry_ec_unbound_lock_degrades_to_java () =
  let dsm, _, extras = make ~nodes:2 () in
  let a = Dsm.malloc dsm ~protocol:extras.Builtin.entry_ec ~home:(Dsm.On_node 0) 8 in
  let lock = Dsm.lock_create dsm ~protocol:extras.Builtin.entry_ec () in
  (* no bind: release must flush everything *)
  run_one dsm ~node:1 (fun () ->
      Dsm.lock_acquire dsm lock;
      Dsm.write_int dsm a 7;
      Dsm.lock_release dsm lock);
  Alcotest.(check int) "flushed like java" 7 (Dsm.unsafe_peek dsm ~node:0 a)

let test_entry_ec_mixed_lock_and_barrier () =
  (* Barrier hooks reach the protocol through a synthetic negative id; a
     conflation with real lock ids would either crash the hook (unknown lock
     lookup) or apply a lock's page scope to the barrier.  Mixing a bound
     lock and a barrier in one run pins the decoded behaviour: lock release
     flushes only the bound page, barrier release flushes everything. *)
  let dsm, _, extras = make ~nodes:2 () in
  let a = Dsm.malloc dsm ~protocol:extras.Builtin.entry_ec ~home:(Dsm.On_node 0) 8 in
  let b = Dsm.malloc dsm ~protocol:extras.Builtin.entry_ec ~home:(Dsm.On_node 0) 8 in
  let lock = Dsm.lock_create dsm ~protocol:extras.Builtin.entry_ec () in
  Entry_ec.bind dsm ~lock ~addr:a ~size:8;
  let barrier =
    Dsm.barrier_create dsm ~protocol:extras.Builtin.entry_ec ~parties:2 ()
  in
  ignore
    (Dsm.spawn dsm ~node:1 (fun () ->
         Dsm.lock_acquire dsm lock;
         Dsm.write_int dsm a 1;
         Dsm.write_int dsm b 2;
         Dsm.lock_release dsm lock;
         Alcotest.(check int) "lock release flushed only its binding" 0
           (Dsm.unsafe_peek dsm ~node:0 b);
         Dsm.barrier_wait dsm barrier;
         Alcotest.(check int) "barrier release flushed the rest" 2
           (Dsm.unsafe_peek dsm ~node:0 b)));
  ignore (Dsm.spawn dsm ~node:0 (fun () -> Dsm.barrier_wait dsm barrier));
  Dsm.run dsm;
  Alcotest.(check int) "bound page flushed at lock release" 1
    (Dsm.unsafe_peek dsm ~node:0 a)

(* --- write_update --- *)

let test_write_update_keeps_replicas_fresh () =
  let dsm, _, extras = make ~nodes:3 () in
  let x = Dsm.malloc dsm ~protocol:extras.Builtin.write_update ~home:(Dsm.On_node 0) 8 in
  ignore
    (Dsm.spawn dsm ~node:1 (fun () ->
         ignore (Dsm.read_int dsm x);
         (* replica *)
         Dsm.compute dsm 10_000.;
         (* no fault, yet the pushed update is visible *)
         let faults_before =
           Dsmpm2_sim.Stats.count (Dsm.stats dsm) Instrument.read_faults
         in
         Alcotest.(check int) "replica already updated" 42 (Dsm.read_int dsm x);
         Alcotest.(check int) "without a new fault" faults_before
           (Dsmpm2_sim.Stats.count (Dsm.stats dsm) Instrument.read_faults)));
  ignore
    (Dsm.spawn dsm ~node:0 (fun () ->
         Dsm.compute dsm 2_000.;
         Dsm.write_int dsm x 42));
  Dsm.run dsm

let test_write_update_locked_counter () =
  let dsm, _, extras = make () in
  let x = Dsm.malloc dsm ~protocol:extras.Builtin.write_update ~home:(Dsm.On_node 0) 8 in
  let lock = Dsm.lock_create dsm ~protocol:extras.Builtin.write_update () in
  let threads =
    List.init 4 (fun node ->
        Dsm.spawn dsm ~node (fun () ->
            for _ = 1 to 5 do
              Dsm.with_lock dsm lock (fun () ->
                  Dsm.write_int dsm x (Dsm.read_int dsm x + 1))
            done))
  in
  Dsm.run dsm;
  ignore threads;
  let rec owner n =
    if Dsm.unsafe_rights dsm ~node:n ~addr:x = Access.Read_write then n else owner (n + 1)
  in
  Alcotest.(check int) "no increment lost" 20 (Dsm.unsafe_peek dsm ~node:(owner 0) x)

(* --- LU --- *)

let test_lu_matches_sequential () =
  let size = 16 in
  let reference = Lu.checksum_sequential ~size ~seed:11 in
  List.iter
    (fun protocol ->
      let r = Lu.run { Lu.default with Lu.size; protocol; nodes = 4 } in
      Alcotest.(check int) (protocol ^ " checksum") reference r.Lu.checksum)
    [ "li_hudak"; "erc_sw"; "hbrc_mw" ]

let test_sort_every_protocol () =
  List.iter
    (fun protocol ->
      let r = Sort.run { Sort.default with Sort.protocol; elements_per_node = 32 } in
      Alcotest.(check bool) (protocol ^ " sorted") true r.Sort.sorted;
      Alcotest.(check bool) (protocol ^ " permutation") true r.Sort.correct)
    [ "li_hudak"; "li_hudak_fixed"; "erc_sw"; "hbrc_mw"; "java_ic"; "java_pf" ]

let test_lu_deterministic () =
  let a = Lu.run { Lu.default with Lu.size = 16 } in
  let b = Lu.run { Lu.default with Lu.size = 16 } in
  Alcotest.(check int) "same checksum" a.Lu.checksum b.Lu.checksum;
  Alcotest.(check (float 0.)) "same virtual time" a.Lu.time_ms b.Lu.time_ms

let () =
  Alcotest.run "extensions"
    [
      ( "monitoring",
        [
          Alcotest.test_case "records protocol events" `Quick
            test_monitor_records_protocol_events;
          Alcotest.test_case "disabled records nothing" `Quick
            test_monitor_disabled_records_nothing;
        ] );
      ("attr", [ Alcotest.test_case "malloc with attributes" `Quick test_malloc_attr ]);
      ( "switch_protocol",
        [
          Alcotest.test_case "moves data and id" `Quick
            test_switch_protocol_moves_data_and_id;
          Alcotest.test_case "rejects unflushed twin" `Quick
            test_switch_protocol_rejects_unflushed_twin;
          Alcotest.test_case "end to end" `Quick test_switch_protocol_end_to_end;
        ] );
      ( "li_hudak_fixed",
        [
          Alcotest.test_case "locked counter" `Quick test_fixed_manager_counter;
          Alcotest.test_case "two-hop requests" `Quick test_fixed_manager_two_hops;
        ] );
      ( "hybrid_rw",
        [
          Alcotest.test_case "readers replicate, writers migrate" `Quick
            test_hybrid_readers_replicate_writers_migrate;
          Alcotest.test_case "sequentially consistent" `Quick
            test_hybrid_is_sequentially_consistent;
          Alcotest.test_case "stale replica invalidated" `Quick
            test_hybrid_stale_replica_invalidated;
        ] );
      ( "entry_ec",
        [
          Alcotest.test_case "bound counter" `Quick test_entry_ec_bound_counter;
          Alcotest.test_case "selective acquire" `Quick test_entry_ec_acquire_is_selective;
          Alcotest.test_case "selective release" `Quick
            test_entry_ec_release_pushes_only_bound;
          Alcotest.test_case "unbound degrades to java" `Quick
            test_entry_ec_unbound_lock_degrades_to_java;
          Alcotest.test_case "mixed lock and barrier" `Quick
            test_entry_ec_mixed_lock_and_barrier;
        ] );
      ( "lu",
        [
          Alcotest.test_case "matches sequential" `Slow test_lu_matches_sequential;
          Alcotest.test_case "deterministic" `Slow test_lu_deterministic;
        ] );
      ( "sort",
        [ Alcotest.test_case "all protocols sort correctly" `Quick test_sort_every_protocol ] );
      ( "write_update",
        [
          Alcotest.test_case "replicas stay fresh without faults" `Quick
            test_write_update_keeps_replicas_fresh;
          Alcotest.test_case "locked counter" `Quick test_write_update_locked_counter;
        ] );
    ]
