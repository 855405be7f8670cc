(* Tests of the PM2 layer: Marcel threads, RPC, isomalloc, migration. *)

open Dsmpm2_sim
open Dsmpm2_net
open Dsmpm2_pm2

let us = Alcotest.float 0.01

let with_pm2 ?(nodes = 2) ?(driver = Driver.bip_myrinet) f =
  let pm2 = Pm2.create ~nodes ~driver () in
  f pm2;
  pm2

(* --- Marcel --- *)

let test_spawn_self_join () =
  let pm2 = Pm2.create ~nodes:3 ~driver:Driver.bip_myrinet () in
  let marcel = Pm2.marcel pm2 in
  let seen = ref (-1) in
  let th =
    Pm2.spawn pm2 ~node:2 (fun () ->
        let self = Marcel.self marcel in
        seen := Marcel.node self)
  in
  let joined = ref false in
  ignore
    (Pm2.spawn pm2 ~node:0 (fun () ->
         Marcel.join marcel th;
         joined := true));
  Pm2.run pm2;
  Alcotest.(check int) "self node" 2 !seen;
  Alcotest.(check bool) "joined" true !joined;
  Alcotest.(check bool) "dead" false (Marcel.is_alive th)

let test_self_outside_thread_fails () =
  let pm2 = Pm2.create ~nodes:1 ~driver:Driver.bip_myrinet () in
  Alcotest.check_raises "no self outside threads"
    (Failure "Marcel.self: not running inside a Marcel thread") (fun () ->
      ignore (Marcel.self (Pm2.marcel pm2)))

let test_self_across_fibers () =
  (* Marcel.self reads the current fiber's slot: interleaved fibers and a
     re-homed thread must still each see themselves. *)
  let pm2 = Pm2.create ~nodes:2 ~driver:Driver.bip_myrinet () in
  let marcel = Pm2.marcel pm2 in
  let threads = Array.make 3 None in
  let mismatches = ref 0 and rehomed = ref (-1) in
  let body i () =
    for round = 1 to 4 do
      (match threads.(i) with
      | Some th when Marcel.self marcel == th -> ()
      | _ -> incr mismatches);
      if i = 2 && round = 2 then begin
        Marcel.set_node marcel (Marcel.self marcel) 1;
        rehomed := Marcel.node (Marcel.self marcel)
      end;
      Marcel.yield marcel
    done
  in
  for i = 0 to 2 do
    threads.(i) <- Some (Pm2.spawn pm2 ~node:0 (body i))
  done;
  Pm2.run pm2;
  Alcotest.(check int) "each fiber sees its own thread" 0 !mismatches;
  Alcotest.(check int) "self follows set_node" 1 !rehomed

let test_reused_fiber_names_new_thread () =
  (* The engine hands an ended fiber's id to the next spawn: every
     fiber -> thread query must then name the new thread, never the dead
     one, and answer None once it has ended too. *)
  let pm2 = Pm2.create ~nodes:2 ~driver:Driver.bip_myrinet () in
  let marcel = Pm2.marcel pm2 in
  let eng = Pm2.engine pm2 in
  let fid = ref (-1) in
  let first = Pm2.spawn pm2 ~node:0 (fun () -> fid := Engine.current_fiber eng) in
  Pm2.run pm2;
  let seen = ref None in
  let second =
    Pm2.spawn pm2 ~node:1 (fun () ->
        let f = Engine.current_fiber eng in
        seen :=
          Some
            ( f,
              Marcel.self marcel,
              Marcel.node_of_fiber marcel f,
              Marcel.tid_of_fiber marcel f ))
  in
  Pm2.run pm2;
  match !seen with
  | None -> Alcotest.fail "second thread did not run"
  | Some (f, self, node, tid) ->
      Alcotest.(check int) "id reused" !fid f;
      Alcotest.(check bool) "self is the new thread" true (self == second);
      Alcotest.(check bool) "not the dead one" true (self != first);
      Alcotest.(check (option int)) "node_of_fiber" (Some 1) node;
      Alcotest.(check (option int)) "tid_of_fiber" (Some (Marcel.tid second)) tid;
      Alcotest.(check (option int)) "ended: no node" None (Marcel.node_of_fiber marcel f);
      Alcotest.(check (option int)) "ended: no tid" None (Marcel.tid_of_fiber marcel f)

let test_live_threads_by_tid_after_reuse () =
  (* The first thread ends early and its fiber id goes to a later thread,
     so fiber order is not tid order; live_threads still sorts by tid. *)
  let pm2 = Pm2.create ~nodes:1 ~driver:Driver.bip_myrinet () in
  let marcel = Pm2.marcel pm2 in
  let sleeper us () = Engine.sleep (Pm2.engine pm2) (Time.of_us us) in
  let spawn us = Pm2.spawn pm2 ~node:0 (sleeper us) in
  let _short = spawn 1. in
  let b = spawn 10. in
  let c = spawn 10. in
  Pm2.run pm2 ~limit:(Time.of_us 5.);
  let d = spawn 10. in
  Alcotest.(check (list int)) "live threads by tid"
    (List.map Marcel.tid [ b; c; d ])
    (List.map Marcel.tid (Marcel.live_threads marcel ~node:0));
  Pm2.run pm2

let test_fiber_tag_is_thread_node () =
  (* Marcel keeps each fiber's engine tag at its thread's node.  Checked
     at every step of a run with RPC handler threads on three nodes, whose
     fiber ids the engine reuses, a caller that Pm2.migrate moves from
     node to node, and plain events, where both sides read -1. *)
  let pm2 = Pm2.create ~nodes:3 ~driver:Driver.bip_myrinet () in
  let marcel = Pm2.marcel pm2 and eng = Pm2.engine pm2 and rpc = Pm2.rpc pm2 in
  let checks = ref 0 and mismatches = ref [] and worker_nodes = ref [] in
  let check where =
    incr checks;
    let tag = Engine.current_tag eng in
    let node = match Marcel.self_opt marcel with None -> -1 | Some th -> Marcel.node th in
    if tag <> node then
      mismatches := Printf.sprintf "%s: tag %d, node %d" where tag node :: !mismatches
  in
  let handler_tids = Array.make 64 [] in
  let service =
    Rpc.register rpc ~name:"touch" (fun ~src:_ _ ->
        check "handler";
        let fid = Engine.current_fiber eng in
        handler_tids.(fid) <- Marcel.tid (Marcel.self marcel) :: handler_tids.(fid);
        Marcel.yield marcel;
        check "handler, resumed";
        (Rpc.Unit, Driver.Request))
  in
  let touch dst = ignore (Rpc.call rpc ~dst ~service ~cost:Driver.Request Rpc.Unit) in
  ignore
    (Pm2.spawn pm2 ~node:0 (fun () ->
         for round = 1 to 6 do
           check "worker";
           worker_nodes := Pm2.self_node pm2 :: !worker_nodes;
           touch 1;
           touch 2;
           check "worker, after its calls";
           Pm2.migrate pm2 ~dst:(round mod 3);
           check "worker, migrated"
         done));
  ignore
    (Pm2.spawn pm2 ~node:2 (fun () ->
         for _ = 1 to 6 do
           touch 0;
           check "caller on node 2"
         done));
  for i = 0 to 20 do
    Engine.at eng (Time.of_us (float_of_int (i * 50))) (fun () -> check "plain event")
  done;
  Pm2.run pm2;
  Alcotest.(check (list string)) "tag = node at every check" [] !mismatches;
  Alcotest.(check bool) (Printf.sprintf "%d checks" !checks) true (!checks > 80);
  Alcotest.(check (list int)) "the worker moved" [ 2; 1; 0; 2; 1; 0 ] !worker_nodes;
  Alcotest.(check int) "six migrations" 6 (Pm2.migrations pm2);
  Alcotest.(check bool) "handler fiber ids reused" true
    (Array.exists (fun tids -> List.length tids > 1) handler_tids);
  Alcotest.(check int) "-1 after the run" (-1) (Engine.current_tag eng)

let test_sequential_spawns_stay_short () =
  (* 10 000 threads, one alive at a time: every one runs on the same few
     fiber ids, and the runtime holds no more memory after the last than
     after the first hundred. *)
  let pm2 = Pm2.create ~nodes:1 ~driver:Driver.bip_myrinet () in
  let marcel = Pm2.marcel pm2 in
  let eng = Pm2.engine pm2 in
  let max_fid = ref (-1) in
  let cycles n =
    for _ = 1 to n do
      ignore
        (Pm2.spawn pm2 ~node:0 (fun () -> max_fid := max !max_fid (Engine.current_fiber eng)));
      Pm2.run pm2
    done
  in
  cycles 100;
  let words_early = Obj.reachable_words (Obj.repr marcel) in
  cycles 9_900;
  Alcotest.(check int) "one fiber id serves every thread" 0 !max_fid;
  Alcotest.(check int) "no growth with threads served" words_early
    (Obj.reachable_words (Obj.repr marcel))

let test_charge_then_compute_accounts () =
  let final = ref 0. in
  let pm2 =
    with_pm2 (fun pm2 ->
        ignore
          (Pm2.spawn pm2 ~node:0 (fun () ->
               Marcel.charge (Pm2.marcel pm2) 30.;
               Marcel.charge (Pm2.marcel pm2) 12.;
               (* compute flushes the 42us of pending work plus its own 8 *)
               Marcel.compute (Pm2.marcel pm2) 8.;
               final := Pm2.now_us pm2)))
  in
  Pm2.run pm2;
  Alcotest.check us "pending work paid" 50. !final

let test_pending_charges_paid_at_exit () =
  let pm2 =
    with_pm2 (fun pm2 ->
        ignore (Pm2.spawn pm2 ~node:0 (fun () -> Marcel.charge (Pm2.marcel pm2) 75.)))
  in
  Pm2.run pm2;
  Alcotest.check us "CPU busy for the charged work" 75.
    (Time.to_us (Cpu.busy_time (Marcel.cpu (Pm2.marcel pm2) 0)))

(* Pending work is whole ns: each charge and each tick is rounded to ns
   once, so three charges of 0.4 ns pay nothing (a float sum of them would
   round to 1 ns) and three of 0.6 ns pay 3 ns (not 2). *)
let test_charges_round_per_charge () =
  let busy_after body =
    let pm2 = Pm2.create ~nodes:1 ~driver:Driver.bip_myrinet () in
    let marcel = Pm2.marcel pm2 and eng = Pm2.engine pm2 in
    ignore (Pm2.spawn pm2 ~node:0 (fun () -> body marcel (Engine.current_fiber eng)));
    Pm2.run pm2;
    Cpu.busy_time (Marcel.cpu marcel 0)
  in
  let thrice f = for _ = 1 to 3 do f () done in
  Alcotest.(check int) "three 0.4 ns charges pay 0 ns" 0
    (busy_after (fun marcel _ -> thrice (fun () -> Marcel.charge marcel 0.0004)));
  Alcotest.(check int) "three 0.6 ns charges pay 3 ns" 3
    (busy_after (fun marcel _ -> thrice (fun () -> Marcel.charge marcel 0.0006)));
  Alcotest.(check int) "three 0.4 ns ticks pay 0 ns" 0
    (busy_after (fun marcel fid ->
         Marcel.set_tick_us marcel 0.0004;
         thrice (fun () -> Marcel.charge_tick marcel fid)))

(* Mixed [charge] / [charge_tick] / [compute] sequences, in threads that
   interleave and then end so a second wave reuses their fiber ids, pay
   the same CPU time as accumulating each thread's work in a boxed float
   and rounding the sum once.  That float sum is the reference model: on
   prices that are whole ns, as all of these are, it agrees with the
   per-charge rounding Marcel does.  Ticks are charged by fiber id, as
   the DSM's inline checks charge them. *)
type charge_op = Charge of float | Tick | Compute of float | Yield

let show_charge_op = function
  | Charge us -> Printf.sprintf "charge %g" us
  | Tick -> "tick"
  | Compute us -> Printf.sprintf "compute %g" us
  | Yield -> "yield"

let tick_us = 0.05

(* Float accounting: ticks added one by one, in call order, before any
   other change to the pending float. *)
let boxed_busy ops =
  let pending = ref 0. and ticks = ref 0 and busy = ref Time.zero in
  let settle () =
    for _ = 1 to !ticks do
      pending := !pending +. tick_us
    done;
    ticks := 0
  in
  let pay us = if us > 0. then busy := Time.(!busy + of_us us) in
  List.iter
    (function
      | Charge us ->
          settle ();
          pending := !pending +. us
      | Tick -> incr ticks
      | Compute us ->
          settle ();
          let total = us +. !pending in
          pending := 0.;
          pay total
      | Yield -> ())
    ops;
  settle ();
  pay !pending;
  !busy

let prop_unboxed_charges_match_boxed =
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (3, map (fun us -> Charge us) (oneofl [ 0.001; 0.05; 0.3; 1.7; 13. ]));
          (4, return Tick);
          (1, map (fun us -> Compute us) (oneofl [ 0.; 0.02; 5.5 ]));
          (1, return Yield);
        ])
  in
  QCheck.Test.make ~name:"unboxed charges = boxed accumulation" ~count:100
    QCheck.(
      make
        ~print:(fun threads ->
          String.concat " | "
            (List.map (fun ops -> String.concat "; " (List.map show_charge_op ops)) threads))
        Gen.(list_size (int_range 1 4) (list_size (int_range 0 40) gen_op)))
    (fun threads ->
      let pm2 = Pm2.create ~nodes:2 ~driver:Driver.bip_myrinet () in
      let marcel = Pm2.marcel pm2 and eng = Pm2.engine pm2 in
      Marcel.set_tick_us marcel tick_us;
      let wave () =
        List.iteri
          (fun i ops ->
            ignore
              (Pm2.spawn pm2 ~node:(i mod 2) (fun () ->
                   List.iter
                     (function
                       | Charge us -> Marcel.charge marcel us
                       | Tick -> Marcel.charge_tick marcel (Engine.current_fiber eng)
                       | Compute us -> Marcel.compute marcel us
                       | Yield -> Marcel.yield marcel)
                     ops)))
          threads;
        Pm2.run pm2
      in
      wave ();
      wave ();
      List.for_all
        (fun node ->
          let want = ref Time.zero in
          List.iteri
            (fun i ops -> if i mod 2 = node then want := Time.(!want + boxed_busy ops))
            threads;
          Cpu.busy_time (Marcel.cpu marcel node) = Time.(!want + !want))
        [ 0; 1 ])

(* A thread spawned on a reused fiber id starts with no ticks: it pays its
   own, never those counted on the id before. *)
let test_reused_fiber_starts_without_ticks () =
  let pm2 = Pm2.create ~nodes:2 ~driver:Driver.bip_myrinet () in
  let marcel = Pm2.marcel pm2 and eng = Pm2.engine pm2 in
  Marcel.set_tick_us marcel 1.;
  let tick n =
    let fid = Engine.current_fiber eng in
    for _ = 1 to n do Marcel.charge_tick marcel fid done;
    fid
  in
  let first = ref (-1) and second = ref (-2) in
  ignore (Pm2.spawn pm2 ~node:0 (fun () -> first := tick 3));
  Pm2.run pm2;
  ignore (Pm2.spawn pm2 ~node:1 (fun () -> second := tick 2));
  Pm2.run pm2;
  Alcotest.(check int) "fiber id reused" !first !second;
  let busy node = Time.to_us (Cpu.busy_time (Marcel.cpu marcel node)) in
  Alcotest.check us "first thread paid its ticks at exit" 3. (busy 0);
  Alcotest.check us "second thread paid only its own at exit" 2. (busy 1)

let test_mutex_mutual_exclusion () =
  let pm2 = Pm2.create ~nodes:1 ~driver:Driver.bip_myrinet () in
  let marcel = Pm2.marcel pm2 in
  let mu = Marcel.Mutex.create () in
  let inside = ref 0 and max_inside = ref 0 in
  for _ = 1 to 5 do
    ignore
      (Pm2.spawn pm2 ~node:0 (fun () ->
           Marcel.Mutex.lock marcel mu;
           incr inside;
           max_inside := max !max_inside !inside;
           Marcel.compute marcel 10.;
           decr inside;
           Marcel.Mutex.unlock marcel mu))
  done;
  Pm2.run pm2;
  Alcotest.(check int) "never two inside" 1 !max_inside

let test_mutex_trylock () =
  let pm2 = Pm2.create ~nodes:1 ~driver:Driver.bip_myrinet () in
  let marcel = Pm2.marcel pm2 in
  let mu = Marcel.Mutex.create () in
  ignore
    (Pm2.spawn pm2 ~node:0 (fun () ->
         Alcotest.(check bool) "first trylock" true (Marcel.Mutex.try_lock marcel mu);
         Alcotest.(check bool) "second fails" false (Marcel.Mutex.try_lock marcel mu);
         Marcel.Mutex.unlock marcel mu;
         Alcotest.(check bool) "after unlock" true (Marcel.Mutex.try_lock marcel mu)));
  Pm2.run pm2

let test_cond_signal_and_broadcast () =
  let pm2 = Pm2.create ~nodes:1 ~driver:Driver.bip_myrinet () in
  let marcel = Pm2.marcel pm2 in
  let mu = Marcel.Mutex.create () and cv = Marcel.Cond.create () in
  let ready = ref false and woken = ref 0 in
  for _ = 1 to 3 do
    ignore
      (Pm2.spawn pm2 ~node:0 (fun () ->
           Marcel.Mutex.lock marcel mu;
           while not !ready do
             Marcel.Cond.wait marcel cv mu
           done;
           incr woken;
           Marcel.Mutex.unlock marcel mu))
  done;
  ignore
    (Pm2.spawn pm2 ~node:0 (fun () ->
         Marcel.compute marcel 5.;
         Marcel.Mutex.lock marcel mu;
         ready := true;
         Marcel.Cond.broadcast marcel cv;
         Marcel.Mutex.unlock marcel mu));
  Pm2.run pm2;
  Alcotest.(check int) "all woken" 3 !woken

let test_sem () =
  let pm2 = Pm2.create ~nodes:1 ~driver:Driver.bip_myrinet () in
  let marcel = Pm2.marcel pm2 in
  let sem = Marcel.Sem.create 2 in
  let inside = ref 0 and max_inside = ref 0 in
  for _ = 1 to 6 do
    ignore
      (Pm2.spawn pm2 ~node:0 (fun () ->
           Marcel.Sem.acquire marcel sem;
           incr inside;
           max_inside := max !max_inside !inside;
           Marcel.compute marcel 10.;
           decr inside;
           Marcel.Sem.release marcel sem))
  done;
  Pm2.run pm2;
  Alcotest.(check int) "at most 2 inside" 2 !max_inside

(* --- Isoalloc --- *)

let test_isoalloc_basics () =
  let iso = Isoalloc.create ~page_size:4096 () in
  let a = Isoalloc.alloc iso 100 in
  let b = Isoalloc.alloc iso 16 in
  Alcotest.(check bool) "null page reserved" true (a >= 4096);
  Alcotest.(check bool) "no overlap" true (b >= a + 100);
  let p = Isoalloc.alloc_pages iso 2 in
  Alcotest.(check int) "page aligned" 0 (p mod 4096);
  Alcotest.(check int) "bytes tracked" (100 + 16 + 8192) (Isoalloc.allocated_bytes iso)

let prop_isoalloc_no_overlap =
  QCheck.Test.make ~name:"isomalloc allocations never overlap" ~count:100
    QCheck.(small_list (int_range 1 10_000))
    (fun sizes ->
      let iso = Isoalloc.create ~page_size:4096 () in
      let ranges = List.map (fun n -> (Isoalloc.alloc iso n, n)) sizes in
      let sorted = List.sort compare ranges in
      let rec ok = function
        | (a1, n1) :: ((a2, _) :: _ as rest) -> a1 + n1 <= a2 && ok rest
        | [ _ ] | [] -> true
      in
      ok sorted && List.for_all (fun (a, _) -> a mod 8 = 0) ranges)

let test_isoalloc_rejects_bad_input () =
  Alcotest.check_raises "power of two"
    (Invalid_argument "Isoalloc.create: page_size must be a power of two")
    (fun () -> ignore (Isoalloc.create ~page_size:1000 ()));
  let iso = Isoalloc.create ~page_size:4096 () in
  Alcotest.check_raises "positive size"
    (Invalid_argument "Isoalloc.alloc: size must be positive") (fun () ->
      ignore (Isoalloc.alloc iso 0))

(* --- RPC --- *)

type Rpc.payload += Number of int

let test_rpc_call_roundtrip () =
  let pm2 = Pm2.create ~nodes:2 ~driver:Driver.bip_myrinet () in
  let rpc = Pm2.rpc pm2 in
  let handler_node = ref (-1) in
  let service =
    Rpc.register rpc ~name:"double" (fun ~src:_ payload ->
        handler_node := Pm2.self_node pm2;
        match payload with
        | Number n -> (Number (2 * n), Driver.Request)
        | _ -> (Rpc.Unit, Driver.Request))
  in
  let result = ref 0 and finished_at = ref 0. in
  ignore
    (Pm2.spawn pm2 ~node:0 (fun () ->
         (match Rpc.call rpc ~dst:1 ~service ~cost:Driver.Request (Number 21) with
         | Number n -> result := n
         | _ -> ());
         finished_at := Pm2.now_us pm2));
  Pm2.run pm2;
  Alcotest.(check int) "doubled" 42 !result;
  Alcotest.(check int) "handler ran on destination" 1 !handler_node;
  (* request (23us) + reply (23us) *)
  Alcotest.check us "round trip time" 46. !finished_at;
  Alcotest.(check int) "one call" 1 (Rpc.calls_made rpc)

let test_rpc_handler_can_block () =
  let pm2 = Pm2.create ~nodes:2 ~driver:Driver.bip_myrinet () in
  let rpc = Pm2.rpc pm2 in
  let service =
    Rpc.register rpc ~name:"slow" (fun ~src:_ _ ->
        Marcel.compute (Pm2.marcel pm2) 100.;
        (Rpc.Unit, Driver.Request))
  in
  let finished_at = ref 0. in
  ignore
    (Pm2.spawn pm2 ~node:0 (fun () ->
         ignore (Rpc.call rpc ~dst:1 ~service ~cost:Driver.Request Rpc.Unit);
         finished_at := Pm2.now_us pm2));
  Pm2.run pm2;
  Alcotest.check us "handler compute included" 146. !finished_at

let test_rpc_oneway () =
  let pm2 = Pm2.create ~nodes:2 ~driver:Driver.bip_myrinet () in
  let rpc = Pm2.rpc pm2 in
  let got = ref 0 in
  let service =
    Rpc.register rpc ~name:"notify" (fun ~src payload ->
        (match payload with Number n -> got := n + src | _ -> ());
        (Rpc.Unit, Driver.Request))
  in
  let sent_then = ref 0. in
  ignore
    (Pm2.spawn pm2 ~node:0 (fun () ->
         Rpc.oneway rpc ~dst:1 ~service ~cost:Driver.Request (Number 7);
         sent_then := Pm2.now_us pm2));
  Pm2.run pm2;
  Alcotest.(check int) "delivered with source" 7 !got;
  Alcotest.check us "oneway does not block" 0. !sent_then

let test_rpc_service_name () =
  let pm2 = Pm2.create ~nodes:2 ~driver:Driver.bip_myrinet () in
  let rpc = Pm2.rpc pm2 in
  let s = Rpc.register rpc ~name:"a.service" (fun ~src:_ _ -> (Rpc.Unit, Driver.Request)) in
  Alcotest.(check string) "name kept" "a.service" (Rpc.service_name rpc s)

(* --- RPC retry under faults --- *)

(* A jitter-free policy so the retry timings below are exact. *)
let crisp_retry ~timeout_us ~retries =
  { Rpc.timeout_us; retries; backoff = 1.; jitter_us = 0. }

let down ~node ~from_us ~to_us =
  { Fault_plan.w_node = node; w_down = Time.of_us from_us; w_up = Time.of_us to_us }

let test_rpc_retry_recovers_lost_request () =
  let pm2 = Pm2.create ~nodes:2 ~driver:Driver.bip_myrinet () in
  let rpc = Pm2.rpc pm2 in
  (* Node 1 is down when the first request would arrive (23us): the request
     is blackholed, the deadline fires, the retransmission gets through. *)
  Network.set_fault_plan (Pm2.network pm2)
    (Fault_plan.create ~windows:[ down ~node:1 ~from_us:0. ~to_us:100. ] ());
  Rpc.set_retry rpc (Some (crisp_retry ~timeout_us:200. ~retries:3));
  let executions = ref 0 in
  let service =
    Rpc.register rpc ~name:"double" (fun ~src:_ payload ->
        incr executions;
        match payload with
        | Number n -> (Number (2 * n), Driver.Request)
        | _ -> (Rpc.Unit, Driver.Request))
  in
  let result = ref 0 and finished_at = ref 0. in
  ignore
    (Pm2.spawn pm2 ~node:0 (fun () ->
         (match Rpc.call rpc ~dst:1 ~service ~cost:Driver.Request (Number 21) with
         | Number n -> result := n
         | _ -> ());
         finished_at := Pm2.now_us pm2));
  Pm2.run pm2;
  Alcotest.(check int) "reply still correct" 42 !result;
  Alcotest.(check int) "handler ran once" 1 !executions;
  Alcotest.(check int) "one retransmission" 1 (Rpc.retransmissions rpc);
  Alcotest.(check int) "the blackholed request was tallied" 1
    (Network.messages_dropped (Pm2.network pm2));
  (* deadline at 200us, retransmitted request 23us, reply 23us *)
  Alcotest.check us "retry latency" 246. !finished_at

let test_rpc_timeout_raised () =
  let pm2 = Pm2.create ~nodes:2 ~driver:Driver.bip_myrinet () in
  let rpc = Pm2.rpc pm2 in
  (* Node 1 never comes back: every attempt is blackholed and the caller
     must get a typed Timeout instead of suspending forever. *)
  Network.set_fault_plan (Pm2.network pm2)
    (Fault_plan.create ~windows:[ down ~node:1 ~from_us:0. ~to_us:1_000_000. ] ());
  Rpc.set_retry rpc (Some (crisp_retry ~timeout_us:100. ~retries:2));
  let service =
    Rpc.register rpc ~name:"void" (fun ~src:_ _ -> (Rpc.Unit, Driver.Request))
  in
  let caught = ref None and finished_at = ref 0. in
  ignore
    (Pm2.spawn pm2 ~node:0 (fun () ->
         (try ignore (Rpc.call rpc ~dst:1 ~service ~cost:Driver.Request Rpc.Unit)
          with Rpc.Timeout { service; dst; attempts } ->
            caught := Some (service, dst, attempts));
         finished_at := Pm2.now_us pm2));
  Pm2.run pm2;
  (match !caught with
  | Some (name, dst, attempts) ->
      Alcotest.(check string) "service named" "void" name;
      Alcotest.(check int) "destination named" 1 dst;
      Alcotest.(check int) "initial try + 2 retries" 3 attempts
  | None -> Alcotest.fail "expected Rpc.Timeout");
  Alcotest.(check int) "all attempts blackholed" 3
    (Network.messages_dropped (Pm2.network pm2));
  (* three deadlines of 100us each *)
  Alcotest.check us "fails fast" 300. !finished_at

let test_rpc_duplicate_suppressed () =
  let pm2 = Pm2.create ~nodes:2 ~driver:Driver.bip_myrinet () in
  let rpc = Pm2.rpc pm2 in
  (* The request gets through but node 0 is down when the reply lands
     (46us): the retransmission must be answered from the server's
     request-id cache without re-running the handler. *)
  Network.set_fault_plan (Pm2.network pm2)
    (Fault_plan.create ~windows:[ down ~node:0 ~from_us:40. ~to_us:60. ] ());
  Rpc.set_retry rpc (Some (crisp_retry ~timeout_us:200. ~retries:3));
  let executions = ref 0 in
  let service =
    Rpc.register rpc ~name:"bump" (fun ~src:_ payload ->
        incr executions;
        match payload with
        | Number n -> (Number (n + 1), Driver.Request)
        | _ -> (Rpc.Unit, Driver.Request))
  in
  let result = ref 0 in
  ignore
    (Pm2.spawn pm2 ~node:0 (fun () ->
         match Rpc.call rpc ~dst:1 ~service ~cost:Driver.Request (Number 9) with
         | Number n -> result := n
         | _ -> ()));
  Pm2.run pm2;
  Alcotest.(check int) "reply correct" 10 !result;
  Alcotest.(check int) "at-most-once execution" 1 !executions;
  Alcotest.(check int) "duplicate served from cache" 1
    (Rpc.duplicates_served rpc);
  Alcotest.(check int) "one retransmission" 1 (Rpc.retransmissions rpc)

let test_rpc_retry_deterministic_and_validated () =
  let finish seed =
    let pm2 = Pm2.create ~nodes:2 ~driver:Driver.bip_myrinet () in
    let rpc = Pm2.rpc pm2 in
    Network.set_fault_plan (Pm2.network pm2)
      (Fault_plan.create ~windows:[ down ~node:1 ~from_us:0. ~to_us:100. ] ());
    Rpc.set_retry rpc ~seed (Some Rpc.default_retry);
    let service =
      Rpc.register rpc ~name:"echo" (fun ~src:_ p -> (p, Driver.Request))
    in
    let finished_at = ref 0. in
    ignore
      (Pm2.spawn pm2 ~node:0 (fun () ->
           ignore (Rpc.call rpc ~dst:1 ~service ~cost:Driver.Request Rpc.Unit);
           finished_at := Pm2.now_us pm2));
    Pm2.run pm2;
    !finished_at
  in
  Alcotest.check us "same seed, same deadline jitter" (finish 5) (finish 5);
  let rpc = Pm2.rpc (Pm2.create ~nodes:2 ~driver:Driver.bip_myrinet ()) in
  Alcotest.check_raises "zero timeout rejected"
    (Invalid_argument "Rpc.set_retry: timeout_us <= 0") (fun () ->
      Rpc.set_retry rpc (Some (crisp_retry ~timeout_us:0. ~retries:1)));
  Alcotest.check_raises "backoff below 1 rejected"
    (Invalid_argument "Rpc.set_retry: backoff < 1") (fun () ->
      Rpc.set_retry rpc
        (Some { Rpc.timeout_us = 100.; retries = 1; backoff = 0.5; jitter_us = 0. }))

(* --- migration --- *)

let test_migrate_cost_and_node () =
  let pm2 = Pm2.create ~nodes:2 ~driver:Driver.sisci_sci () in
  let arrived = ref (-1) and took = ref 0. in
  ignore
    (Pm2.spawn pm2 ~node:0 ~stack_bytes:1024 (fun () ->
         let t0 = Pm2.now_us pm2 in
         Pm2.migrate pm2 ~dst:1;
         took := Pm2.now_us pm2 -. t0;
         arrived := Pm2.self_node pm2));
  Pm2.run pm2;
  Alcotest.(check int) "thread moved" 1 !arrived;
  (* paper section 2.1: 62 us over SISCI/SCI for a minimal stack *)
  Alcotest.check us "migration cost" 62. !took;
  Alcotest.(check int) "counted" 1 (Pm2.migrations pm2)

let test_migrate_to_self_is_noop () =
  let pm2 = Pm2.create ~nodes:2 ~driver:Driver.sisci_sci () in
  let took = ref 99. in
  ignore
    (Pm2.spawn pm2 ~node:0 (fun () ->
         let t0 = Pm2.now_us pm2 in
         Pm2.migrate pm2 ~dst:0;
         took := Pm2.now_us pm2 -. t0));
  Pm2.run pm2;
  Alcotest.check us "free" 0. !took;
  Alcotest.(check int) "not counted" 0 (Pm2.migrations pm2)

let test_migrate_attached_data_costs () =
  let pm2 = Pm2.create ~nodes:2 ~driver:Driver.sisci_sci () in
  let took = ref 0. in
  ignore
    (Pm2.spawn pm2 ~node:0 ~stack_bytes:1024 ~attached_bytes:8192 (fun () ->
         let t0 = Pm2.now_us pm2 in
         Pm2.migrate pm2 ~dst:1;
         took := Pm2.now_us pm2 -. t0));
  Pm2.run pm2;
  (* 62 us for the minimal footprint + 8192 B * 0.0125 us/B *)
  Alcotest.check us "attached data travels too" (62. +. (8192. *. 0.0125)) !took

let test_compute_follows_migration () =
  let pm2 = Pm2.create ~nodes:2 ~driver:Driver.sisci_sci () in
  ignore
    (Pm2.spawn pm2 ~node:0 (fun () ->
         Pm2.migrate pm2 ~dst:1;
         Marcel.compute (Pm2.marcel pm2) 40.));
  Pm2.run pm2;
  Alcotest.check us "work lands on destination CPU" 40.
    (Time.to_us (Cpu.busy_time (Marcel.cpu (Pm2.marcel pm2) 1)));
  Alcotest.check us "origin CPU idle" 0.
    (Time.to_us (Cpu.busy_time (Marcel.cpu (Pm2.marcel pm2) 0)))

(* --- load balancer --- *)

let test_balancer_spreads_threads () =
  let pm2 = Pm2.create ~nodes:4 ~driver:Driver.bip_myrinet () in
  (* 8 compute-bound migratable workers, all dumped on node 0; the balancer
     must spread them out.  Workers hit a safe point between compute
     slices. *)
  let final = Array.make 8 (-1) in
  for i = 0 to 7 do
    ignore
      (Pm2.spawn pm2 ~migratable:true ~node:0 (fun () ->
           for _ = 1 to 40 do
             Marcel.compute (Pm2.marcel pm2) 1_000.;
             Pm2.migrate_if_requested pm2
           done;
           final.(i) <- Pm2.self_node pm2))
  done;
  let balancer = Balancer.start ~config:{ Balancer.interval_us = 2_000.; threshold = 1 } pm2 in
  Pm2.run pm2;
  Alcotest.(check bool) "balancer acted" true (Balancer.moves_requested balancer > 0);
  let per_node = Array.make 4 0 in
  Array.iter (fun n -> per_node.(n) <- per_node.(n) + 1) final;
  (* With 8 equal workers over 4 nodes, no node should end hosting more
     than half of them once balanced. *)
  Array.iteri
    (fun node count ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d not overloaded (%d workers)" node count)
        true (count <= 4))
    per_node

let test_balancer_improves_makespan () =
  let makespan balance =
    let pm2 = Pm2.create ~nodes:4 ~driver:Driver.bip_myrinet () in
    for _ = 0 to 7 do
      ignore
        (Pm2.spawn pm2 ~migratable:true ~node:0 (fun () ->
             for _ = 1 to 40 do
               Marcel.compute (Pm2.marcel pm2) 1_000.;
               Pm2.migrate_if_requested pm2
             done))
    done;
    if balance then ignore (Balancer.start pm2);
    Pm2.run pm2;
    Pm2.now_us pm2
  in
  let unbalanced = makespan false and balanced = makespan true in
  Alcotest.(check bool)
    (Printf.sprintf "balanced (%.0fus) much faster than unbalanced (%.0fus)" balanced
       unbalanced)
    true
    (balanced < 0.6 *. unbalanced)

let test_balancer_ignores_non_migratable () =
  let pm2 = Pm2.create ~nodes:2 ~driver:Driver.bip_myrinet () in
  let final = ref (-1) in
  ignore
    (Pm2.spawn pm2 ~node:0 (fun () ->
         (* not migratable *)
         for _ = 1 to 20 do
           Marcel.compute (Pm2.marcel pm2) 1_000.;
           Pm2.migrate_if_requested pm2
         done;
         final := Pm2.self_node pm2));
  ignore (Balancer.start pm2);
  Pm2.run pm2;
  Alcotest.(check int) "thread stayed home" 0 !final

let test_balancer_terminates_with_workers () =
  (* The daemon must not keep the simulation alive after the last
     migratable thread dies. *)
  let pm2 = Pm2.create ~nodes:2 ~driver:Driver.bip_myrinet () in
  ignore
    (Pm2.spawn pm2 ~migratable:true ~node:0 (fun () ->
         Marcel.compute (Pm2.marcel pm2) 100.));
  let balancer = Balancer.start pm2 in
  Pm2.run pm2;
  (* run returned: the engine drained *)
  Alcotest.(check bool) "daemon ticked at least once" true (Balancer.ticks balancer >= 1)

let () =
  Alcotest.run "pm2"
    [
      ( "marcel",
        [
          Alcotest.test_case "spawn/self/join" `Quick test_spawn_self_join;
          Alcotest.test_case "self outside thread" `Quick test_self_outside_thread_fails;
          Alcotest.test_case "self across fibers" `Quick test_self_across_fibers;
          Alcotest.test_case "reused fiber names new thread" `Quick
            test_reused_fiber_names_new_thread;
          Alcotest.test_case "live threads by tid after reuse" `Quick
            test_live_threads_by_tid_after_reuse;
          Alcotest.test_case "fiber tag is the thread's node" `Quick
            test_fiber_tag_is_thread_node;
          Alcotest.test_case "sequential spawns stay short" `Quick
            test_sequential_spawns_stay_short;
          Alcotest.test_case "charge accounting" `Quick test_charge_then_compute_accounts;
          Alcotest.test_case "charges paid at exit" `Quick
            test_pending_charges_paid_at_exit;
          Alcotest.test_case "charges round per charge" `Quick
            test_charges_round_per_charge;
          QCheck_alcotest.to_alcotest prop_unboxed_charges_match_boxed;
          Alcotest.test_case "reused fiber starts without ticks" `Quick
            test_reused_fiber_starts_without_ticks;
          Alcotest.test_case "mutex exclusion" `Quick test_mutex_mutual_exclusion;
          Alcotest.test_case "trylock" `Quick test_mutex_trylock;
          Alcotest.test_case "cond broadcast" `Quick test_cond_signal_and_broadcast;
          Alcotest.test_case "semaphore" `Quick test_sem;
        ] );
      ( "isoalloc",
        [
          Alcotest.test_case "basics" `Quick test_isoalloc_basics;
          QCheck_alcotest.to_alcotest prop_isoalloc_no_overlap;
          Alcotest.test_case "input validation" `Quick test_isoalloc_rejects_bad_input;
        ] );
      ( "rpc",
        [
          Alcotest.test_case "call round trip" `Quick test_rpc_call_roundtrip;
          Alcotest.test_case "blocking handler" `Quick test_rpc_handler_can_block;
          Alcotest.test_case "oneway" `Quick test_rpc_oneway;
          Alcotest.test_case "service name" `Quick test_rpc_service_name;
          Alcotest.test_case "retry recovers lost request" `Quick
            test_rpc_retry_recovers_lost_request;
          Alcotest.test_case "timeout raised" `Quick test_rpc_timeout_raised;
          Alcotest.test_case "duplicate suppressed" `Quick
            test_rpc_duplicate_suppressed;
          Alcotest.test_case "retry deterministic + validated" `Quick
            test_rpc_retry_deterministic_and_validated;
        ] );
      ( "migration",
        [
          Alcotest.test_case "cost and node change" `Quick test_migrate_cost_and_node;
          Alcotest.test_case "self migration free" `Quick test_migrate_to_self_is_noop;
          Alcotest.test_case "attached data" `Quick test_migrate_attached_data_costs;
          Alcotest.test_case "compute follows thread" `Quick
            test_compute_follows_migration;
        ] );
      ( "balancer",
        [
          Alcotest.test_case "spreads threads" `Quick test_balancer_spreads_threads;
          Alcotest.test_case "improves makespan" `Quick test_balancer_improves_makespan;
          Alcotest.test_case "ignores non-migratable" `Quick
            test_balancer_ignores_non_migratable;
          Alcotest.test_case "terminates with workers" `Quick
            test_balancer_terminates_with_workers;
        ] );
    ]
