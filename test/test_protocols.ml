(* Integration tests of the six built-in protocols on small clusters. *)

open Dsmpm2_net
open Dsmpm2_mem
open Dsmpm2_core
open Dsmpm2_protocols

let make ?(nodes = 4) ?(driver = Driver.bip_myrinet) () =
  let dsm = Dsm.create ~nodes ~driver () in
  let ids = Builtin.register_all dsm in
  (dsm, ids)

(* Runs [f node] in one thread per node and drives the simulation to
   completion. *)
let run_on_all dsm f =
  let threads =
    List.init (Dsm.nodes dsm) (fun node -> Dsm.spawn dsm ~node (fun () -> f node))
  in
  Dsm.run dsm;
  List.iter
    (fun th ->
      Alcotest.(check bool)
        "thread terminated" false
        (Dsmpm2_pm2.Marcel.is_alive th))
    threads

let run_one dsm ~node f =
  ignore (Dsm.spawn dsm ~node f);
  Dsm.run dsm

(* --- li_hudak --- *)

let test_li_hudak_read_replication () =
  let dsm, ids = make () in
  let x = Dsm.malloc dsm ~protocol:ids.Builtin.li_hudak ~home:(Dsm.On_node 0) 8 in
  let seen = Array.make 4 0 in
  run_on_all dsm (fun node ->
      if node = 0 then Dsm.write_int dsm x 42;
      (* Barrier-free: make node 0 write first via a small delay. *)
      if node <> 0 then begin
        Dsm.compute dsm 10_000.;
        seen.(node) <- Dsm.read_int dsm x
      end);
  Array.iteri (fun node v -> if node <> 0 then Alcotest.(check int) (Printf.sprintf "node %d sees 42" node) 42 v) seen;
  (* After replication on read, every reader holds a read-only copy. *)
  for node = 1 to 3 do
    Alcotest.check
      (Alcotest.testable Access.pp ( = ))
      "reader has read-only copy" Access.Read_only
      (Dsm.unsafe_rights dsm ~node ~addr:x)
  done

let test_li_hudak_write_migrates_ownership () =
  let dsm, ids = make () in
  let x = Dsm.malloc dsm ~protocol:ids.Builtin.li_hudak ~home:(Dsm.On_node 0) 8 in
  run_one dsm ~node:2 (fun () ->
      Dsm.write_int dsm x 7;
      Alcotest.(check int) "value visible locally" 7 (Dsm.read_int dsm x));
  Alcotest.check
    (Alcotest.testable Access.pp ( = ))
    "writer now read-write" Access.Read_write
    (Dsm.unsafe_rights dsm ~node:2 ~addr:x);
  Alcotest.check
    (Alcotest.testable Access.pp ( = ))
    "old owner lost the page" Access.No_access
    (Dsm.unsafe_rights dsm ~node:0 ~addr:x)

let test_li_hudak_mrsw_invariant () =
  let dsm, ids = make () in
  let x = Dsm.malloc dsm ~protocol:ids.Builtin.li_hudak ~home:(Dsm.On_node 0) 8 in
  let lock = Dsm.lock_create dsm () in
  run_on_all dsm (fun _node ->
      for _ = 1 to 5 do
        Dsm.with_lock dsm lock (fun () ->
            let v = Dsm.read_int dsm x in
            Dsm.write_int dsm x (v + 1))
      done);
  (* 4 nodes x 5 increments, each under the lock: sequential consistency
     must not lose any. *)
  let writers =
    List.init 4 (fun node -> Dsm.unsafe_rights dsm ~node ~addr:x)
    |> List.filter (fun r -> r = Access.Read_write)
  in
  Alcotest.(check int) "at most one writer node" 1 (List.length writers);
  let owner =
    let rec find n = if Dsm.unsafe_rights dsm ~node:n ~addr:x = Access.Read_write then n else find (n + 1) in
    find 0
  in
  Alcotest.(check int) "no increment lost" 20 (Dsm.unsafe_peek dsm ~node:owner x)

(* --- migrate_thread --- *)

let test_migrate_thread_moves_thread () =
  let dsm, ids = make () in
  let x = Dsm.malloc dsm ~protocol:ids.Builtin.migrate_thread ~home:(Dsm.On_node 3) 8 in
  let final_node = ref (-1) in
  run_one dsm ~node:0 (fun () ->
      Dsm.write_int dsm x 9;
      final_node := Dsm.self_node dsm);
  Alcotest.(check int) "thread migrated to owner" 3 !final_node;
  Alcotest.(check int) "write landed on owner copy" 9 (Dsm.unsafe_peek dsm ~node:3 x);
  Alcotest.(check int) "one migration happened" 1 (Dsmpm2_pm2.Pm2.migrations (Dsm.pm2 dsm))

let test_migrate_thread_counter () =
  let dsm, ids = make () in
  let x = Dsm.malloc dsm ~protocol:ids.Builtin.migrate_thread ~home:(Dsm.On_node 1) 8 in
  let lock = Dsm.lock_create dsm () in
  run_on_all dsm (fun _node ->
      for _ = 1 to 3 do
        Dsm.with_lock dsm lock (fun () ->
            let v = Dsm.read_int dsm x in
            Dsm.write_int dsm x (v + 1))
      done);
  Alcotest.(check int) "counter correct" 12 (Dsm.unsafe_peek dsm ~node:1 x)

(* --- erc_sw --- *)

let test_erc_sw_stale_until_release () =
  let dsm, ids = make ~nodes:2 () in
  let x = Dsm.malloc dsm ~protocol:ids.Builtin.erc_sw ~home:(Dsm.On_node 0) 8 in
  let lock = Dsm.lock_create dsm ~protocol:ids.Builtin.erc_sw () in
  let observed_stale = ref (-1) in
  let observed_final = ref (-1) in
  ignore
    (Dsm.spawn dsm ~node:1 (fun () ->
         (* Acquire a copy first. *)
         ignore (Dsm.read_int dsm x);
         Dsm.compute dsm 20_000.;
         (* Writer has written but not released: our copy may be stale. *)
         observed_stale := Dsm.read_int dsm x;
         Dsm.compute dsm 40_000.;
         (* Writer released: our copy was invalidated; re-fetch sees 5. *)
         observed_final := Dsm.read_int dsm x));
  ignore
    (Dsm.spawn dsm ~node:0 (fun () ->
         Dsm.compute dsm 10_000.;
         Dsm.lock_acquire dsm lock;
         Dsm.write_int dsm x 5;
         Dsm.compute dsm 20_000.;
         Dsm.lock_release dsm lock));
  Dsm.run dsm;
  Alcotest.(check int) "read before release is stale" 0 !observed_stale;
  Alcotest.(check int) "read after release sees the write" 5 !observed_final

let test_erc_sw_locked_counter () =
  let dsm, ids = make () in
  let x = Dsm.malloc dsm ~protocol:ids.Builtin.erc_sw ~home:(Dsm.On_node 0) 8 in
  let lock = Dsm.lock_create dsm ~protocol:ids.Builtin.erc_sw () in
  run_on_all dsm (fun _node ->
      for _ = 1 to 5 do
        Dsm.with_lock dsm lock (fun () ->
            let v = Dsm.read_int dsm x in
            Dsm.write_int dsm x (v + 1))
      done);
  let owner =
    let rec find n =
      if n >= 4 then Alcotest.fail "no owner found"
      else if Dsm.unsafe_rights dsm ~node:n ~addr:x <> Access.No_access then n
      else find (n + 1)
    in
    find 0
  in
  Alcotest.(check int) "no increment lost under locks" 20 (Dsm.unsafe_peek dsm ~node:owner x)

(* --- hbrc_mw --- *)

let test_hbrc_mw_diffs_reach_home () =
  let dsm, ids = make ~nodes:3 () in
  let x = Dsm.malloc dsm ~protocol:ids.Builtin.hbrc_mw ~home:(Dsm.On_node 0) 8 in
  let lock = Dsm.lock_create dsm ~protocol:ids.Builtin.hbrc_mw () in
  run_one dsm ~node:1 (fun () ->
      Dsm.with_lock dsm lock (fun () -> Dsm.write_int dsm x 77));
  Alcotest.(check int) "home holds the released value" 77 (Dsm.unsafe_peek dsm ~node:0 x)

let test_hbrc_mw_multiple_writers_merge () =
  let dsm, ids = make ~nodes:3 () in
  (* Two variables on the same page, written concurrently by two nodes:
     the home must merge both diffs (the multiple-writer property). *)
  let x = Dsm.malloc dsm ~protocol:ids.Builtin.hbrc_mw ~home:(Dsm.On_node 0) 16 in
  let y = x + 8 in
  let lock1 = Dsm.lock_create dsm ~protocol:ids.Builtin.hbrc_mw () in
  let lock2 = Dsm.lock_create dsm ~protocol:ids.Builtin.hbrc_mw () in
  ignore
    (Dsm.spawn dsm ~node:1 (fun () ->
         Dsm.with_lock dsm lock1 (fun () -> Dsm.write_int dsm x 11)));
  ignore
    (Dsm.spawn dsm ~node:2 (fun () ->
         Dsm.with_lock dsm lock2 (fun () -> Dsm.write_int dsm y 22)));
  Dsm.run dsm;
  Alcotest.(check int) "x merged at home" 11 (Dsm.unsafe_peek dsm ~node:0 x);
  Alcotest.(check int) "y merged at home" 22 (Dsm.unsafe_peek dsm ~node:0 y)

let test_hbrc_mw_locked_counter () =
  let dsm, ids = make () in
  let x = Dsm.malloc dsm ~protocol:ids.Builtin.hbrc_mw ~home:(Dsm.On_node 0) 8 in
  let lock = Dsm.lock_create dsm ~protocol:ids.Builtin.hbrc_mw () in
  run_on_all dsm (fun _node ->
      for _ = 1 to 5 do
        Dsm.with_lock dsm lock (fun () ->
            let v = Dsm.read_int dsm x in
            Dsm.write_int dsm x (v + 1))
      done);
  Alcotest.(check int) "home sees all increments" 20 (Dsm.unsafe_peek dsm ~node:0 x)

(* --- java --- *)

let java_counter ~proto_of dsm ids =
  let proto = proto_of ids in
  let x = Dsm.malloc dsm ~protocol:proto ~home:(Dsm.On_node 0) 8 in
  let monitor = Dsm.lock_create dsm ~protocol:proto () in
  run_on_all dsm (fun _node ->
      for _ = 1 to 5 do
        Dsm.with_lock dsm monitor (fun () ->
            let v = Dsm.read_int dsm x in
            Dsm.write_int dsm x (v + 1))
      done);
  Alcotest.(check int) "main memory sees all increments" 20 (Dsm.unsafe_peek dsm ~node:0 x)

let test_java_ic_counter () =
  let dsm, ids = make () in
  java_counter ~proto_of:(fun i -> i.Builtin.java_ic) dsm ids

let test_java_pf_counter () =
  let dsm, ids = make () in
  java_counter ~proto_of:(fun i -> i.Builtin.java_pf) dsm ids

let test_java_records_until_exit () =
  let dsm, ids = make ~nodes:2 () in
  let x = Dsm.malloc dsm ~protocol:ids.Builtin.java_pf ~home:(Dsm.On_node 0) 8 in
  let monitor = Dsm.lock_create dsm ~protocol:ids.Builtin.java_pf () in
  let records_inside = ref [] in
  run_one dsm ~node:1 (fun () ->
      Dsm.lock_acquire dsm monitor;
      Dsm.write_int dsm x 123;
      let page = List.hd (Dsm.region_pages dsm ~addr:x ~size:8) in
      records_inside := Java_common.recorded_words dsm ~node:1 ~page;
      Dsm.lock_release dsm monitor);
  Alcotest.(check int) "one record pending inside monitor" 1 (List.length !records_inside);
  Alcotest.(check int) "home updated on exit" 123 (Dsm.unsafe_peek dsm ~node:0 x)

let test_java_ic_charges_checks () =
  let dsm, ids = make ~nodes:2 () in
  let x = Dsm.malloc dsm ~protocol:ids.Builtin.java_ic ~home:(Dsm.On_node 0) 8 in
  run_one dsm ~node:0 (fun () ->
      for _ = 1 to 100 do
        ignore (Dsm.read_int dsm x)
      done);
  Alcotest.(check int) "100 inline checks counted" 100
    (Dsmpm2_sim.Stats.count (Dsm.stats dsm) Instrument.inline_checks)

(* --- cross-protocol: regions with different protocols coexist --- *)

let test_mixed_protocols_coexist () =
  let dsm, ids = make ~nodes:2 () in
  let a = Dsm.malloc dsm ~protocol:ids.Builtin.li_hudak ~home:(Dsm.On_node 0) 8 in
  let b = Dsm.malloc dsm ~protocol:ids.Builtin.hbrc_mw ~home:(Dsm.On_node 0) 8 in
  let lock = Dsm.lock_create dsm ~protocol:ids.Builtin.hbrc_mw () in
  run_one dsm ~node:1 (fun () ->
      Dsm.write_int dsm a 1;
      Dsm.with_lock dsm lock (fun () -> Dsm.write_int dsm b 2));
  Alcotest.(check int) "li_hudak page migrated" 1 (Dsm.unsafe_peek dsm ~node:1 a);
  Alcotest.(check int) "hbrc page flushed home" 2 (Dsm.unsafe_peek dsm ~node:0 b)

(* One [Diffs] message whose pages alternate between hbrc_mw, which has a
   batch handler, and li_hudak, which has none: the handler is called once
   with exactly its own pages, in message order, and the li_hudak pages
   are applied. *)
let test_mixed_protocol_diff_batch () =
  let dsm, ids = make ~nodes:2 () in
  let page_size = Page.size dsm.Runtime.geo in
  let region protocol =
    let addr = Dsm.malloc dsm ~protocol ~home:(Dsm.On_node 1) (2 * page_size) in
    (addr, Dsm.region_pages dsm ~addr ~size:(2 * page_size))
  in
  let _, hbrc = region ids.Builtin.hbrc_mw and li_addr, li = region ids.Builtin.li_hudak in
  let handled = ref [] and calls = ref 0 in
  Dsm_comm.set_diffs_handler dsm ~protocol:ids.Builtin.hbrc_mw
    (fun rt ~node ~diffs ~sender:_ ~release:_ ->
      incr calls;
      handled := !handled @ List.map (fun d -> d.Diff.page) diffs;
      List.iter (Dsm_comm.apply_diff_locally rt ~node) diffs);
  let pages = List.concat (List.map2 (fun h l -> [ h; l ]) hbrc li) in
  let diffs =
    List.mapi (fun i page -> Diff.of_words ~geometry:dsm.Runtime.geo ~page [ (0, 100 + i) ]) pages
  in
  run_one dsm ~node:0 (fun () -> Dsm_comm.call_diffs dsm ~to_:1 ~diffs ~release:false);
  Alcotest.(check int) "one hbrc_mw handler call" 1 !calls;
  Alcotest.(check (list int)) "hbrc_mw pages, in message order" hbrc !handled;
  Alcotest.(check int) "first li_hudak page applied" 101 (Dsm.unsafe_peek dsm ~node:1 li_addr);
  Alcotest.(check int) "second li_hudak page applied" 103
    (Dsm.unsafe_peek dsm ~node:1 (li_addr + page_size))

(* --- edge cases and contention stress --- *)

(* Regression for the pin-until-retry fix: two nodes hammering writes on
   the same page without any lock must both make progress (no ownership
   ping-pong livelock, no Fault_storm). *)
let test_write_contention_progress () =
  let dsm, ids = make ~nodes:2 () in
  let x = Dsm.malloc dsm ~protocol:ids.Builtin.li_hudak ~home:(Dsm.On_node 0) 16 in
  let writes = Array.make 2 0 in
  let threads =
    List.init 2 (fun node ->
        Dsm.spawn dsm ~node (fun () ->
            for i = 1 to 50 do
              Dsm.write_int dsm (x + (node * 8)) i;
              writes.(node) <- writes.(node) + 1
            done))
  in
  Dsm.run dsm;
  ignore threads;
  Alcotest.(check (list int)) "both writers completed" [ 50; 50 ] (Array.to_list writes)

(* Local faults on the same page coalesce: ten threads of one node reading
   a remote page trigger exactly one page transfer. *)
let test_fault_coalescing_one_transfer () =
  let dsm, ids = make ~nodes:2 () in
  let x = Dsm.malloc dsm ~protocol:ids.Builtin.li_hudak ~home:(Dsm.On_node 1) 8 in
  let threads =
    List.init 10 (fun _ ->
        Dsm.spawn dsm ~node:0 (fun () -> ignore (Dsm.read_int dsm x)))
  in
  Dsm.run dsm;
  ignore threads;
  let stats = Dsm.stats dsm in
  Alcotest.(check int) "one page sent" 1
    (Dsmpm2_sim.Stats.count stats Instrument.pages_sent);
  (* each thread takes its own fault (as with SIGSEGV), but the requests
     coalesce into a single page request on the wire *)
  Alcotest.(check int) "ten faults charged" 10
    (Dsmpm2_sim.Stats.count stats Instrument.read_faults);
  Alcotest.(check int) "single request message" 1
    (Dsmpm2_sim.Stats.count
       (Network.stats (Dsmpm2_pm2.Pm2.network (Dsm.pm2 dsm)))
       "msg.request")

(* Faults on distinct pages from one node proceed in parallel: with two
   pages on two different remote homes, total time is ~one fault, not
   two (the paper's "concurrent requests may be processed in parallel"). *)
let test_faults_on_distinct_pages_parallel () =
  let dsm, ids = make ~nodes:3 () in
  let a = Dsm.malloc dsm ~protocol:ids.Builtin.li_hudak ~home:(Dsm.On_node 1) 8 in
  let b = Dsm.malloc dsm ~protocol:ids.Builtin.li_hudak ~home:(Dsm.On_node 2) 8 in
  ignore (Dsm.spawn dsm ~node:0 (fun () -> ignore (Dsm.read_int dsm a)));
  ignore (Dsm.spawn dsm ~node:0 (fun () -> ignore (Dsm.read_int dsm b)));
  Dsm.run dsm;
  (* Two sequential BIP faults would be ~396us; parallel ones finish ~198us
     plus small CPU interleaving on the shared requester CPU. *)
  Alcotest.(check bool)
    (Printf.sprintf "parallel faults (finished at %.1fus)" (Dsm.now_us dsm))
    true
    (Dsm.now_us dsm < 300.)

(* Ownership requests chase the probable-owner chain across three nodes. *)
let test_li_hudak_owner_chain () =
  let dsm, ids = make ~nodes:3 () in
  let x = Dsm.malloc dsm ~protocol:ids.Builtin.li_hudak ~home:(Dsm.On_node 0) 8 in
  run_one dsm ~node:1 (fun () -> Dsm.write_int dsm x 1);
  (* ownership now at node 1; node 2 faults with a stale hint (home 0) *)
  run_one dsm ~node:2 (fun () ->
      Alcotest.(check int) "read through the chain" 1 (Dsm.read_int dsm x);
      Dsm.write_int dsm x 2);
  Alcotest.(check int) "node 2 became owner" 2 (Dsm.unsafe_peek dsm ~node:2 x);
  Alcotest.check
    (Alcotest.testable Access.pp ( = ))
    "old owner invalidated" Access.No_access
    (Dsm.unsafe_rights dsm ~node:1 ~addr:x)

let test_erc_pending_writes_tracked () =
  let dsm, ids = make ~nodes:2 () in
  let x = Dsm.malloc dsm ~protocol:ids.Builtin.erc_sw ~home:(Dsm.On_node 0) 8 in
  let lock = Dsm.lock_create dsm ~protocol:ids.Builtin.erc_sw () in
  let during = ref [] and after = ref [ -1 ] in
  run_one dsm ~node:1 (fun () ->
      Dsm.lock_acquire dsm lock;
      Dsm.write_int dsm x 5;
      during := Erc_sw.pending_writes dsm ~node:1;
      Dsm.lock_release dsm lock;
      after := Erc_sw.pending_writes dsm ~node:1);
  Alcotest.(check int) "one page pending inside the section" 1 (List.length !during);
  Alcotest.(check (list int)) "cleared by the release" [] !after

let test_hbrc_dirty_pages_tracked () =
  let dsm, ids = make ~nodes:2 () in
  let x = Dsm.malloc dsm ~protocol:ids.Builtin.hbrc_mw ~home:(Dsm.On_node 0) 8 in
  let lock = Dsm.lock_create dsm ~protocol:ids.Builtin.hbrc_mw () in
  let during = ref [] and after = ref [ -1 ] in
  run_one dsm ~node:1 (fun () ->
      Dsm.lock_acquire dsm lock;
      Dsm.write_int dsm x 5;
      during := Hbrc_mw.dirty_pages dsm ~node:1;
      Dsm.lock_release dsm lock;
      after := Hbrc_mw.dirty_pages dsm ~node:1);
  Alcotest.(check int) "dirty inside the section" 1 (List.length !during);
  Alcotest.(check (list int)) "flushed by the release" [] !after

(* Heavy mixed stress: every protocol, many threads per node, many pages,
   per-page locks.  Checks exact counter totals and (for the MRSW
   protocols) the single-writer invariant at quiescence. *)
let stress protocol_name =
  let nodes = 4 and pages = 6 and threads_per_node = 3 and iters = 6 in
  let dsm, _ = make ~nodes () in
  let proto = Option.get (Dsm.protocol_by_name dsm protocol_name) in
  let base = Dsm.malloc dsm ~protocol:proto (pages * 4096) in
  let locks = Array.init pages (fun _ -> Dsm.lock_create dsm ~protocol:proto ()) in
  let rng = Dsmpm2_sim.Rng.create ~seed:5 in
  let plan =
    Array.init (nodes * threads_per_node) (fun _ ->
        Array.init iters (fun _ -> Dsmpm2_sim.Rng.int rng pages))
  in
  let expected = Array.make pages 0 in
  Array.iter (Array.iter (fun p -> expected.(p) <- expected.(p) + 1)) plan;
  Array.iteri
    (fun t seq ->
      ignore
        (Dsm.spawn dsm ~node:(t mod nodes) (fun () ->
             Array.iter
               (fun p ->
                 let addr = base + (p * 4096) in
                 Dsm.with_lock dsm locks.(p) (fun () ->
                     Dsm.write_int dsm addr (Dsm.read_int dsm addr + 1));
                 Dsm.compute dsm 3.)
               seq)))
    plan;
  Dsm.run dsm;
  (* read back DRF-style *)
  let final = Array.make pages (-1) in
  ignore
    (Dsm.spawn dsm ~node:0 (fun () ->
         Array.iteri
           (fun p lock ->
             Dsm.with_lock dsm lock (fun () ->
                 final.(p) <- Dsm.read_int dsm (base + (p * 4096))))
           locks));
  Dsm.run dsm;
  Alcotest.(check (array int)) (protocol_name ^ " exact counters") expected final;
  if protocol_name = "li_hudak" || protocol_name = "erc_sw" then
    for p = 0 to pages - 1 do
      let writers = ref 0 in
      for node = 0 to nodes - 1 do
        if Dsm.unsafe_rights dsm ~node ~addr:(base + (p * 4096)) = Access.Read_write
        then incr writers
      done;
      Alcotest.(check bool) "at most one writer node at quiescence" true (!writers <= 1)
    done

(* --- probable-owner chain length (request hops) ---

   Build a long ownership chain (nodes 1..7 write in turn, each going
   through the home), then measure how many [Driver.Request] messages one
   read fault costs.  Reads send only request messages (the page reply is
   bulk), so the "msg.request" counter delta is exactly the hop count. *)

let request_count dsm =
  let net = Dsmpm2_pm2.Pm2.network (Dsm.pm2 dsm) in
  Dsmpm2_sim.Stats.count (Network.stats net) "msg.request"

(* Nodes 1..7 write in turn, each write request going through the home, and
   the run is driven to quiescence so the hint graph is settled before any
   measurement.  (Measuring threads must not coexist with the writers: they
   would share a node's CPU and skew the write schedule.) *)
let build_chain dsm ~protocol =
  let x = Dsm.malloc dsm ~protocol ~home:(Dsm.On_node 0) 8 in
  for k = 1 to 7 do
    ignore
      (Dsm.spawn dsm ~node:k (fun () ->
           Dsm.compute dsm (float_of_int (k * 2_000));
           Dsm.write_int dsm x k))
  done;
  Dsm.run dsm;
  x

let measured_read dsm ~node ~addr =
  let hops = ref (-1) in
  ignore
    (Dsm.spawn dsm ~node (fun () ->
         let before = request_count dsm in
         Alcotest.(check int) "reader sees last value" 7 (Dsm.read_int dsm addr);
         hops := request_count dsm - before));
  Dsm.run dsm;
  !hops

let test_li_hudak_hop_counts () =
  List.iter
    (fun tie_seed ->
      let dsm = Dsm.create ?tie_seed ~nodes:8 ~driver:Driver.bip_myrinet () in
      let ids = Builtin.register_all dsm in
      let x = build_chain dsm ~protocol:ids.Builtin.li_hudak in
      (* The home's hint was compressed by forwarding every write request:
         it points straight at the final owner. *)
      Alcotest.(check int) "home hint compressed to current owner" 1
        (measured_read dsm ~node:0 ~addr:x);
      (* Node 1's hint is the node it granted ownership to long ago (node
         2); reads do not compress, so the request walks the remaining
         chain 2 -> 3 -> ... -> 7. *)
      Alcotest.(check int) "stale chain walks the un-compressed tail" 6
        (measured_read dsm ~node:1 ~addr:x))
    [ None; Some 1; Some 7; Some 42 ]

let test_li_hudak_fixed_hop_counts () =
  List.iter
    (fun tie_seed ->
      let dsm = Dsm.create ?tie_seed ~nodes:8 ~driver:Driver.bip_myrinet () in
      ignore (Builtin.register_all dsm);
      let extras = Builtin.register_extras dsm in
      let x = build_chain dsm ~protocol:extras.Builtin.li_hudak_fixed in
      (* Fixed manager: every request goes to the home, whose hint the
         write-forwarding compression keeps authoritative — any reader pays
         exactly two hops (requester -> home -> owner), however long the
         ownership history. *)
      Alcotest.(check int) "fixed manager bounds reads to two hops" 2
        (measured_read dsm ~node:1 ~addr:x))
    [ None; Some 1; Some 7; Some 42 ]

(* --- message economy: batched invalidations ---

   A release over an N-page region with a K-node copyset must cost O(K)
   invalidation RPCs (one batched message per copy holder), not O(N x K):
   the [invalidate.rpc] counter counts wire messages, [invalidate.sent]
   still counts every (page, target) pair. *)

let test_hbrc_release_batched_invalidations () =
  let dsm, ids = make ~nodes:7 () in
  let pages = 8 in
  let base =
    Dsm.malloc dsm ~protocol:ids.Builtin.hbrc_mw ~home:(Dsm.On_node 0)
      (pages * 4096)
  in
  let lock = Dsm.lock_create dsm ~protocol:ids.Builtin.hbrc_mw () in
  let barrier = Dsm.barrier_create dsm ~parties:6 () in
  (* Readers 2..6 cache every page, then the writer updates the whole region
     under the lock and releases. *)
  for node = 2 to 6 do
    ignore
      (Dsm.spawn dsm ~node (fun () ->
           for p = 0 to pages - 1 do
             ignore (Dsm.read_int dsm (base + (p * 4096)))
           done;
           Dsm.barrier_wait dsm barrier))
  done;
  ignore
    (Dsm.spawn dsm ~node:1 (fun () ->
         Dsm.barrier_wait dsm barrier;
         Dsm.with_lock dsm lock (fun () ->
             for p = 0 to pages - 1 do
               Dsm.write_int dsm (base + (p * 4096)) (p + 1)
             done)));
  Dsm.run dsm;
  let stats = Dsm.stats dsm in
  (* The home invalidates the 5 third-party readers once each, covering all
     8 pages per message. *)
  Alcotest.(check int) "one invalidate RPC per copyset node" 5
    (Dsmpm2_sim.Stats.count stats Instrument.invalidate_rpcs);
  Alcotest.(check int) "every (page, target) pair invalidated" (pages * 5)
    (Dsmpm2_sim.Stats.count stats Instrument.invalidations);
  (* The writer's whole release travelled as one diffs message to the home. *)
  Alcotest.(check int) "all dirty pages diffed" pages
    (Dsmpm2_sim.Stats.count stats Instrument.diffs_sent)

let test_erc_release_batched_invalidations () =
  let dsm, ids = make ~nodes:7 () in
  let pages = 8 in
  let base =
    Dsm.malloc dsm ~protocol:ids.Builtin.erc_sw ~home:(Dsm.On_node 0)
      (pages * 4096)
  in
  let lock = Dsm.lock_create dsm ~protocol:ids.Builtin.erc_sw () in
  let barrier = Dsm.barrier_create dsm ~parties:6 () in
  for node = 2 to 6 do
    ignore
      (Dsm.spawn dsm ~node (fun () ->
           for p = 0 to pages - 1 do
             ignore (Dsm.read_int dsm (base + (p * 4096)))
           done;
           Dsm.barrier_wait dsm barrier))
  done;
  ignore
    (Dsm.spawn dsm ~node:1 (fun () ->
         Dsm.barrier_wait dsm barrier;
         Dsm.with_lock dsm lock (fun () ->
             for p = 0 to pages - 1 do
               Dsm.write_int dsm (base + (p * 4096)) (p + 1)
             done)));
  Dsm.run dsm;
  let stats = Dsm.stats dsm in
  (* Ownership migrated to the writer with a copyset of the old owner plus
     the 5 readers: the eager release invalidates all 6 with one RPC each. *)
  Alcotest.(check int) "one invalidate RPC per copy holder" 6
    (Dsmpm2_sim.Stats.count stats Instrument.invalidate_rpcs);
  Alcotest.(check int) "every (page, target) pair invalidated" (pages * 6)
    (Dsmpm2_sim.Stats.count stats Instrument.invalidations)

(* --- sc_abd --- *)

let test_sc_abd_counts_quorum_pages () =
  (* One remote read on 3 nodes is one quorum round: the collect phase
     gets a [Tag_val] reply carrying the page from each of the two
     replicas, and the write-back phase sends each of them a [Put]
     carrying it.  Those four messages are the run's page sends, and the
     only bulk messages on the wire. *)
  let dsm, _ = make ~nodes:3 () in
  let extras = Builtin.register_extras dsm in
  let x = Dsm.malloc dsm ~protocol:extras.Builtin.sc_abd ~home:(Dsm.On_node 1) 8 in
  run_one dsm ~node:0 (fun () -> ignore (Dsm.read_int dsm x));
  let stats = Dsm.stats dsm in
  let on node =
    Dsmpm2_sim.Stats.count
      ~labels:(Dsmpm2_sim.Stats.labels ~node ~protocol:"sc_abd" ())
      stats Instrument.pages_sent
  in
  Alcotest.(check int) "one read fault" 1
    (Dsmpm2_sim.Stats.count stats Instrument.read_faults);
  Alcotest.(check int) "four page-carrying messages" 4
    (Dsmpm2_sim.Stats.count stats Instrument.pages_sent);
  Alcotest.(check (list int)) "two puts by the reader, one reply per replica"
    [ 2; 1; 1 ] [ on 0; on 1; on 2 ];
  Alcotest.(check int) "as many bulk messages" 4
    (Dsmpm2_sim.Stats.count
       (Network.stats (Dsmpm2_pm2.Pm2.network (Dsm.pm2 dsm)))
       "msg.bulk")

(* A small write_update jacobi, run once to warm up and once measured:
   nearly every engine event belongs to an update push or its RPC.  The
   event and diff counts pin the schedule; the bound on exact minor words
   per engine event (28.38 on OCaml 5.1, 28.70 in the dev profile) is
   what one message costs the host.  [Gc.quick_stat] would not do: in
   OCaml 5 it counts only completed minor collections. *)
let test_write_update_jacobi_counts () =
  let run () =
    let dsm = ref None in
    let before = Gc.minor_words () in
    ignore
      (Dsmpm2_apps.Jacobi.run
         {
           Dsmpm2_apps.Jacobi.default with
           size = 16;
           iterations = 2;
           nodes = 8;
           driver = Driver.bip_myrinet;
           protocol = "write_update";
           tie_seed = Some 0;
           observe = Some (fun d -> dsm := Some d);
         });
    let words = Gc.minor_words () -. before in
    let dsm = Option.get !dsm in
    ( Dsmpm2_sim.Engine.events_executed (Dsm.engine dsm),
      Dsmpm2_sim.Stats.count (Dsm.stats dsm) Instrument.diffs_sent,
      words )
  in
  ignore (run ());
  let events, diffs, words = run () in
  Alcotest.(check int) "engine events" 45_913 events;
  Alcotest.(check int) "diffs" 5_631 diffs;
  let per_event = words /. float_of_int events in
  Alcotest.(check bool) (Printf.sprintf "%.2f minor words per engine event" per_event) true
    (per_event < 31.)

let test_stress_li_hudak () = stress "li_hudak"
let test_stress_erc_sw () = stress "erc_sw"
let test_stress_hbrc_mw () = stress "hbrc_mw"
let test_stress_java_pf () = stress "java_pf"
let test_stress_java_ic () = stress "java_ic"
let test_stress_migrate_thread () = stress "migrate_thread"

(* The registry hands out ids in call order; every builtin keeps the id it
   has always had, and each name resolves to its own record. *)
let test_builtin_ids_pinned () =
  let dsm, ids = make () in
  let x = Builtin.register_extras dsm in
  let expected =
    [
      ("li_hudak", ids.Builtin.li_hudak, 0);
      ("migrate_thread", ids.Builtin.migrate_thread, 1);
      ("erc_sw", ids.Builtin.erc_sw, 2);
      ("hbrc_mw", ids.Builtin.hbrc_mw, 3);
      ("java_ic", ids.Builtin.java_ic, 4);
      ("java_pf", ids.Builtin.java_pf, 5);
      ("sc_abd", x.Builtin.sc_abd, 6);
      ("write_update", x.Builtin.write_update, 7);
      ("entry_ec", x.Builtin.entry_ec, 8);
      ("hybrid_rw", x.Builtin.hybrid_rw, 9);
      ("li_hudak_fixed", x.Builtin.li_hudak_fixed, 10);
    ]
  in
  List.iter
    (fun (name, id, pinned) ->
      Alcotest.(check int) (name ^ " id") pinned id;
      Alcotest.(check (option int)) (name ^ " by name") (Some pinned)
        (Dsm.protocol_by_name dsm name);
      Alcotest.(check string) (name ^ " name") name (Dsm.protocol_name dsm id))
    expected

let () =
  Alcotest.run "protocols"
    [
      ( "registry",
        [ Alcotest.test_case "builtin ids pinned" `Quick test_builtin_ids_pinned ] );
      ( "sc_abd",
        [
          Alcotest.test_case "quorum transfers count as page sends" `Quick
            test_sc_abd_counts_quorum_pages;
        ] );
      ( "li_hudak",
        [
          Alcotest.test_case "read replication" `Quick test_li_hudak_read_replication;
          Alcotest.test_case "write migrates ownership" `Quick
            test_li_hudak_write_migrates_ownership;
          Alcotest.test_case "MRSW locked counter" `Quick test_li_hudak_mrsw_invariant;
        ] );
      ( "migrate_thread",
        [
          Alcotest.test_case "thread moves to data" `Quick test_migrate_thread_moves_thread;
          Alcotest.test_case "locked counter" `Quick test_migrate_thread_counter;
        ] );
      ( "erc_sw",
        [
          Alcotest.test_case "stale until release" `Quick test_erc_sw_stale_until_release;
          Alcotest.test_case "locked counter" `Quick test_erc_sw_locked_counter;
        ] );
      ( "hbrc_mw",
        [
          Alcotest.test_case "diffs reach home on release" `Quick
            test_hbrc_mw_diffs_reach_home;
          Alcotest.test_case "multiple writers merge" `Quick
            test_hbrc_mw_multiple_writers_merge;
          Alcotest.test_case "locked counter" `Quick test_hbrc_mw_locked_counter;
        ] );
      ( "java",
        [
          Alcotest.test_case "java_ic locked counter" `Quick test_java_ic_counter;
          Alcotest.test_case "java_pf locked counter" `Quick test_java_pf_counter;
          Alcotest.test_case "records flushed on monitor exit" `Quick
            test_java_records_until_exit;
          Alcotest.test_case "java_ic counts inline checks" `Quick
            test_java_ic_charges_checks;
        ] );
      ( "mixed",
        [
          Alcotest.test_case "protocols coexist per region" `Quick test_mixed_protocols_coexist;
          Alcotest.test_case "diff batch spanning protocols" `Quick
            test_mixed_protocol_diff_batch;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "write contention progress" `Quick
            test_write_contention_progress;
          Alcotest.test_case "fault coalescing" `Quick test_fault_coalescing_one_transfer;
          Alcotest.test_case "parallel faults on distinct pages" `Quick
            test_faults_on_distinct_pages_parallel;
          Alcotest.test_case "li_hudak owner chain" `Quick test_li_hudak_owner_chain;
          Alcotest.test_case "li_hudak hop counts" `Quick test_li_hudak_hop_counts;
          Alcotest.test_case "li_hudak_fixed hop counts" `Quick
            test_li_hudak_fixed_hop_counts;
          Alcotest.test_case "erc pending writes" `Quick test_erc_pending_writes_tracked;
          Alcotest.test_case "hbrc dirty pages" `Quick test_hbrc_dirty_pages_tracked;
        ] );
      ( "message-economy",
        [
          Alcotest.test_case "hbrc release batches invalidations" `Quick
            test_hbrc_release_batched_invalidations;
          Alcotest.test_case "erc release batches invalidations" `Quick
            test_erc_release_batched_invalidations;
          Alcotest.test_case "write_update jacobi counts" `Quick
            test_write_update_jacobi_counts;
        ] );
      ( "stress",
        [
          Alcotest.test_case "li_hudak" `Quick test_stress_li_hudak;
          Alcotest.test_case "erc_sw" `Quick test_stress_erc_sw;
          Alcotest.test_case "hbrc_mw" `Quick test_stress_hbrc_mw;
          Alcotest.test_case "java_pf" `Quick test_stress_java_pf;
          Alcotest.test_case "java_ic" `Quick test_stress_java_ic;
          Alcotest.test_case "migrate_thread" `Quick test_stress_migrate_thread;
        ] );
    ]
