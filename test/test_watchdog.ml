(* The live watchdog: deadlock-cycle naming, stall warnings, thrash
   detection, the retry-storm warning under a crash window, green-path
   invariant audits across every builtin protocol, schedule transparency
   of the attached sampler, the bounded time-series ring, the JSON health
   report and the allocation-free disabled paths. *)

open Dsmpm2_sim
open Dsmpm2_net
open Dsmpm2_core
open Dsmpm2_protocols
open Dsmpm2_experiments

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let make ?(nodes = 2) ?tie_seed () =
  let dsm = Dsm.create ?tie_seed ~nodes ~driver:Driver.bip_myrinet () in
  ignore (Builtin.register_all dsm);
  ignore (Builtin.register_extras dsm);
  dsm

let proto dsm name =
  match Dsm.protocol_by_name dsm name with
  | Some id -> id
  | None -> Alcotest.failf "protocol %s not registered" name

let kind_alerts w k =
  List.filter (fun a -> a.Watchdog.al_kind = k) (Watchdog.alerts w)

(* --- the deadlock regression: two locks taken in reversed order --- *)

let test_deadlock_cycle_named () =
  let dsm = make () in
  Monitor.enable dsm true;
  let l0 = Dsm.lock_create dsm () in
  let l1 = Dsm.lock_create dsm () in
  let w = Watchdog.attach dsm in
  ignore
    (Dsm.spawn dsm ~node:0 (fun () ->
         Dsm.lock_acquire dsm l0;
         Dsm.compute dsm 500.;
         Dsm.lock_acquire dsm l1;
         Dsm.lock_release dsm l1;
         Dsm.lock_release dsm l0));
  ignore
    (Dsm.spawn dsm ~node:1 (fun () ->
         Dsm.lock_acquire dsm l1;
         Dsm.compute dsm 500.;
         Dsm.lock_acquire dsm l0;
         Dsm.lock_release dsm l0;
         Dsm.lock_release dsm l1));
  (match Dsm.run dsm with
  | () -> Alcotest.fail "reversed lock order must deadlock"
  | exception Engine.Stalled _ -> ());
  match kind_alerts w "deadlock.cycle" with
  | [] -> Alcotest.fail "watchdog did not report the cycle"
  | a :: _ ->
      Alcotest.(check bool) "critical" true (a.Watchdog.al_severity = Watchdog.Critical);
      let d = a.Watchdog.al_detail in
      (* The cycle is named in full: both locks and both waiting nodes. *)
      List.iter
        (fun sub ->
          Alcotest.(check bool) (Printf.sprintf "detail names %S" sub) true
            (contains d sub))
        [
          Printf.sprintf "lock %d" l0;
          Printf.sprintf "lock %d" l1;
          "(node 0)";
          "(node 1)";
          "back to thread";
        ];
      (* A found cycle suppresses the generic stall alert. *)
      Alcotest.(check int) "no generic stall alert" 0
        (List.length (kind_alerts w "deadlock.stall"))

let test_missing_barrier_party_is_a_stall () =
  let dsm = make () in
  let b = Dsm.barrier_create dsm ~parties:2 () in
  let w = Watchdog.attach dsm in
  ignore (Dsm.spawn dsm ~node:0 (fun () -> Dsm.barrier_wait dsm b));
  (match Dsm.run dsm with
  | () -> Alcotest.fail "missing barrier party must stall"
  | exception Engine.Stalled _ -> ());
  match kind_alerts w "deadlock.stall" with
  | [] -> Alcotest.fail "watchdog did not report the stalled run"
  | a :: _ ->
      Alcotest.(check bool) "names the barrier" true
        (contains a.Watchdog.al_detail (Printf.sprintf "barrier %d" b))

(* --- stall warning: a lock held across a long compute phase --- *)

let test_long_wait_warns () =
  let dsm = make () in
  let l = Dsm.lock_create dsm () in
  let config =
    Watchdog.
      { default_config with interval = Time.of_us 200.; stall = Time.of_us 1000. }
  in
  let w = Watchdog.attach ~config dsm in
  ignore
    (Dsm.spawn dsm ~node:0 (fun () ->
         Dsm.lock_acquire dsm l;
         Dsm.compute dsm 5000.;
         Dsm.lock_release dsm l));
  ignore
    (Dsm.spawn dsm ~node:1 (fun () ->
         Dsm.compute dsm 100.;
         Dsm.lock_acquire dsm l;
         Dsm.lock_release dsm l));
  Dsm.run dsm;
  (match kind_alerts w "stall.lock" with
  | [] -> Alcotest.fail "no stall warning for a 5 ms wait"
  | a :: _ ->
      Alcotest.(check bool) "warning severity" true
        (a.Watchdog.al_severity = Watchdog.Warning);
      Alcotest.(check bool) "names the lock" true
        (contains a.Watchdog.al_detail (Printf.sprintf "lock %d" l));
      Alcotest.(check bool) "names the waiting node" true
        (contains a.Watchdog.al_detail "node 1"));
  let _, _, critical = Watchdog.alert_counts w in
  Alcotest.(check int) "a slow run is not a deadlock" 0 critical

(* A wait is checked against the dedup keys once it passes the bound:
   the same thread stalling on the same barrier in three generations, for
   many ticks each, warns once; a second waiter warns once too. *)
let test_stall_warns_once_across_waits () =
  let dsm = make () in
  let b = Dsm.barrier_create dsm ~parties:3 () in
  let config =
    Watchdog.
      { default_config with interval = Time.of_us 200.; stall = Time.of_us 1000. }
  in
  let w = Watchdog.attach ~config dsm in
  ignore
    (Dsm.spawn dsm ~node:0 (fun () ->
         for _ = 1 to 3 do
           Dsm.compute dsm 5000.;
           Dsm.barrier_wait dsm b
         done));
  for node = 0 to 1 do
    ignore
      (Dsm.spawn dsm ~node (fun () ->
           for _ = 1 to 3 do
             Dsm.barrier_wait dsm b
           done))
  done;
  Dsm.run dsm;
  let stalls = kind_alerts w "stall.barrier" in
  Alcotest.(check int) "one warning per waiting thread" 2 (List.length stalls);
  Alcotest.(check (list string)) "one per node" [ "node 0"; "node 1" ]
    (List.map
       (fun a ->
         if contains a.Watchdog.al_detail "on node 0" then "node 0"
         else if contains a.Watchdog.al_detail "on node 1" then "node 1"
         else a.Watchdog.al_detail)
       stalls
    |> List.sort compare)

(* --- thrashing: unsynchronized writer ping-pong on one page --- *)

let test_thrash_detected () =
  let dsm = make () in
  Monitor.enable dsm true;
  let x = Dsm.malloc dsm ~protocol:(proto dsm "li_hudak") 8 in
  (* The thrash window is the telemetry engine's knob: attach it first and
     the watchdog drains that engine. *)
  ignore
    (Telemetry.attach
       ~config:
         Telemetry.{ thrash_window = 4; thrash_span = Time.of_us 1_000_000. }
       dsm);
  let config =
    Watchdog.{ default_config with interval = Time.of_us 100. }
  in
  let w = Watchdog.attach ~config dsm in
  for node = 0 to 1 do
    ignore
      (Dsm.spawn dsm ~node (fun () ->
           for i = 1 to 6 do
             Dsm.write_int dsm x i;
             Dsm.compute dsm 50.
           done))
  done;
  Dsm.run dsm;
  match kind_alerts w "thrash.page" with
  | [] -> Alcotest.fail "page ping-pong not detected"
  | a :: _ ->
      Alcotest.(check bool) "names the page" true
        (contains a.Watchdog.al_detail "ping-ponged")

(* --- retry storm: calls hammering a crashed node --- *)

(* Node 1 is down for the first 2 ms.  Twelve threads on node 0 each ask
   it for a lock it manages; with a 50 us reply deadline every thread
   retransmits about four times per 200 us interval, far above the
   threshold of 8.  The node restarts before the calls give up, so the run
   completes. *)
let test_retry_storm_warns () =
  let dsm = make () in
  Monitor.enable dsm true;
  Dsm.inject_faults dsm
    ~retry:{ Dsmpm2_pm2.Rpc.timeout_us = 50.; retries = 100; backoff = 1.; jitter_us = 0. }
    (Fault_plan.create
       ~windows:
         [ { Fault_plan.w_node = 1; w_down = Time.zero; w_up = Time.of_us 2000. } ]
       ());
  let w = Watchdog.attach dsm in
  let acquired = ref 0 in
  for _ = 1 to 12 do
    let l = Dsm.lock_create dsm ~manager:1 () in
    ignore
      (Dsm.spawn dsm ~node:0 (fun () ->
           Dsm.with_lock dsm l (fun () -> incr acquired)))
  done;
  Dsm.run dsm;
  Alcotest.(check int) "every lock acquired after the restart" 12 !acquired;
  (match kind_alerts w "rpc.retry_storm" with
  | [ a ] ->
      Alcotest.(check bool) "warning severity" true
        (a.Watchdog.al_severity = Watchdog.Warning);
      Alcotest.(check bool) "names the threshold" true
        (contains a.Watchdog.al_detail "(threshold 8)")
  | l -> Alcotest.failf "expected one retry-storm alert, got %d" (List.length l));
  Alcotest.(check bool) "the crash window is named too" true
    (kind_alerts w "node.dead" <> [])

(* --- green path: clean runs raise no alerts under any builtin protocol --- *)

let green_run ?config protocol_name =
  let dsm = make () in
  Monitor.enable dsm true;
  let p = proto dsm protocol_name in
  let x = Dsm.malloc dsm ~protocol:p 8 in
  let l = Dsm.lock_create dsm ~protocol:p () in
  if protocol_name = "entry_ec" then Entry_ec.bind dsm ~lock:l ~addr:x ~size:8;
  let b = Dsm.barrier_create dsm ~protocol:p ~parties:2 () in
  let w = Watchdog.attach ?config dsm in
  let final = ref (-1) in
  for node = 0 to 1 do
    ignore
      (Dsm.spawn dsm ~node (fun () ->
           for _ = 1 to 3 do
             Dsm.with_lock dsm l (fun () ->
                 Dsm.write_int dsm x (Dsm.read_int dsm x + 1));
             Dsm.barrier_wait dsm b
           done;
           (* An acquire of the guarding lock orders this read after the
              last increment under every consistency model. *)
           if node = 0 then
             Dsm.with_lock dsm l (fun () -> final := Dsm.read_int dsm x)))
  done;
  Dsm.run dsm;
  Alcotest.(check int) (protocol_name ^ ": final value") 6 !final;
  (dsm, w)

let test_green_path_every_protocol () =
  List.iter
    (fun { Protocol.name; _ } ->
      let _, w = green_run name in
      Alcotest.(check (list string)) (name ^ ": no alerts") []
        (List.map (fun a -> a.Watchdog.al_detail) (Watchdog.alerts w));
      Alcotest.(check bool) (name ^ ": sampled") true (Watchdog.samples_taken w > 0);
      Alcotest.(check bool) (name ^ ": audited pages") true
        (Watchdog.pages_audited w > 0))
    (Builtin.protocols ())

(* --- schedule transparency: the sampler never perturbs a seeded run --- *)

(* Fingerprint and op count of seeded mixed_sync runs on BIP/Myrinet with no
   monitor, watchdog or fault layer attached, seeds 0, 1, 2. *)
let bare_mixed_sync =
  [
    ( "li_hudak",
      [ 1258391690100143395; -598364120688064367; 4509992522953485305 ] );
    ( "hbrc_mw",
      [ -4047104469935628484; 3442691391635236334; -3318172485753173563 ] );
    ( "migrate_thread",
      [ 3157551193905679449; -1542303963567285121; 632659389248151374 ] );
    ( "java_pf",
      [ -501540349800752591; 3666002238320599496; 3256948882473084839 ] );
  ]

let test_watchdog_preserves_schedule () =
  List.iter
    (fun (protocol, fingerprints) ->
      List.iteri
        (fun seed bare_fingerprint ->
          (* Conformance.run attaches the watchdog on top of the monitor. *)
          let traced, _ =
            Conformance.run ~protocol ~driver:Driver.bip_myrinet
              ~scenario:
                (List.find
                   (fun s -> s.Conformance.name = "mixed_sync")
                   Conformance.scenarios)
              ~seed:(Some seed) ()
          in
          Alcotest.(check int)
            (Printf.sprintf "%s seed %d: same fingerprint" protocol seed)
            bare_fingerprint traced.Conformance.o_fingerprint;
          Alcotest.(check int)
            (Printf.sprintf "%s seed %d: same op count" protocol seed)
            42 traced.Conformance.o_ops)
        fingerprints)
    bare_mixed_sync

let test_traced_alerts_reach_analyzer () =
  (* Watchdog findings travel as Trace.Alert events, so the post-mortem
     analyzer sees what the live run saw. *)
  let dsm = make () in
  Monitor.enable dsm true;
  let l0 = Dsm.lock_create dsm () in
  let l1 = Dsm.lock_create dsm () in
  let w = Watchdog.attach dsm in
  ignore
    (Dsm.spawn dsm ~node:0 (fun () ->
         Dsm.lock_acquire dsm l0;
         Dsm.compute dsm 500.;
         Dsm.lock_acquire dsm l1));
  ignore
    (Dsm.spawn dsm ~node:1 (fun () ->
         Dsm.lock_acquire dsm l1;
         Dsm.compute dsm 500.;
         Dsm.lock_acquire dsm l0));
  (try Dsm.run dsm with Engine.Stalled _ -> ());
  let a = Analyze.analyze (Monitor.trace dsm) in
  Alcotest.(check bool) "the analyzer decodes the watchdog's own records" true
    (Analyze.alerts a = Watchdog.alerts w);
  match
    List.filter
      (fun al -> al.Watchdog.al_kind = "deadlock.cycle")
      (Analyze.alerts a)
  with
  | [] -> Alcotest.fail "analyzer did not surface the watchdog alert"
  | al :: _ ->
      Alcotest.(check bool) "severity" true
        (al.Watchdog.al_severity = Watchdog.Critical);
      Alcotest.(check bool) "detail preserved" true
        (contains al.Watchdog.al_detail "back to thread")

(* --- one fault count: the watchdog's interval faults add up to telemetry's ---

   Under java_ic almost every fault is an inline-check miss; the watchdog
   must count those too.  Summed through [set_on_sample], since the sample
   ring drops early samples. *)

let test_interval_faults_match_telemetry () =
  let captured = ref None in
  let sampled = ref 0 in
  let observe dsm =
    Monitor.enable dsm true;
    let w = Watchdog.attach dsm in
    Watchdog.set_on_sample w (fun s ->
        List.iter (fun (_, n) -> sampled := !sampled + n) s.Watchdog.sp_proto_faults);
    captured := Some dsm
  in
  ignore
    (Dsmpm2_apps.Map_coloring.run
       {
         Dsmpm2_apps.Map_coloring.default with
         nodes = 2;
         protocol = "java_ic";
         observe = Some observe;
       });
  let dsm = Option.get !captured in
  let tele = Option.get (Telemetry.find dsm) in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 (Telemetry.protocols tele) in
  Alcotest.(check bool) "the run faulted" true (total > 0);
  Alcotest.(check int) "interval faults sum to the telemetry total" total !sampled

(* --- ring buffer, health report, double attach --- *)

let test_ring_is_bounded () =
  let config =
    Watchdog.
      { default_config with interval = Time.of_us 50.; ring_capacity = 4 }
  in
  let _, w = green_run ~config "li_hudak" in
  Alcotest.(check bool) "took more samples than the ring holds" true
    (Watchdog.samples_taken w > 4);
  Alcotest.(check bool) "ring bounded" true (List.length (Watchdog.samples w) <= 4)

let test_health_json () =
  let _, w = green_run "hbrc_mw" in
  let json = Watchdog.health_json w in
  (match Json.of_string (Json.to_string json) with
  | Error msg -> Alcotest.failf "health report is not valid JSON: %s" msg
  | Ok _ -> ());
  (match Json.member "healthy" json with
  | Some (Json.Bool true) -> ()
  | _ -> Alcotest.fail "green run must be healthy");
  (match Json.member "alerts" json with
  | Some (Json.List []) -> ()
  | _ -> Alcotest.fail "green run must report an empty alert list");
  List.iter
    (fun key ->
      Alcotest.(check bool) ("report has " ^ key) true (Json.member key json <> None))
    [ "meta"; "sim_time_us"; "samples"; "pages_audited"; "healthy";
      "alert_counts"; "alerts"; "timeseries"; "telemetry" ];
  (* The watchdog's own telemetry engine rides along in the report. *)
  match Json.member "telemetry" json with
  | Some tele ->
      List.iter
        (fun key ->
          Alcotest.(check bool) ("telemetry has " ^ key) true
            (Json.member key tele <> None))
        [ "trace"; "pages" ]
  | None -> Alcotest.fail "health report must carry the telemetry snapshot"

(* --- the health report, pinned ---

   The digest of [health_json], with every ["meta"] key dropped (it names
   the git revision), for two seeded watched jacobi runs.  A change to
   how the watchdog stores its samples must not move a byte of the report;
   a change to what a run emits moves only its event and trace counts. *)

let rec drop_meta = function
  | Json.Obj fields ->
      Json.Obj
        (List.filter_map
           (fun (k, v) -> if k = "meta" then None else Some (k, drop_meta v))
           fields)
  | Json.List l -> Json.List (List.map drop_meta l)
  | j -> j

let watched_jacobi ~protocol ~nodes =
  let watchdog = ref None in
  let observe dsm =
    Monitor.enable dsm true;
    watchdog := Some (Watchdog.attach dsm)
  in
  ignore
    (Dsmpm2_apps.Jacobi.run
       {
         Dsmpm2_apps.Jacobi.default with
         size = 32;
         iterations = 4;
         nodes;
         protocol;
         tie_seed = Some 3;
         observe = Some observe;
       });
  match !watchdog with Some w -> w | None -> Alcotest.fail "observe not called"

let test_health_report_pinned () =
  List.iter
    (fun (protocol, nodes, digest) ->
      let w = watched_jacobi ~protocol ~nodes in
      let text = Json.to_string (drop_meta (Watchdog.health_json w)) in
      Alcotest.(check string)
        (Printf.sprintf "%s on %d nodes: health digest" protocol nodes)
        digest
        (Digest.to_hex (Digest.string text)))
    [ ("write_update", 8, "40358deb4ee9c8d770f25ae211033415"); ("hbrc_mw", 4, "df242cdf760d1862aa587e0c7569a0d8") ]

let test_double_attach_rejected () =
  let dsm = make () in
  ignore (Watchdog.attach dsm);
  match Watchdog.attach dsm with
  | _ -> Alcotest.fail "second attach must be rejected"
  | exception Invalid_argument _ -> ()

(* --- disabled paths allocate nothing (mirrors the interned-handle
   guarantees from the instrumentation layer) --- *)

let test_disabled_paths_allocate_nothing () =
  let dsm = make () in
  (* No Monitor.enable, no Watchdog.attach: both the alert forwarding and
     the sync-client wait hooks must be free. *)
  let a =
    Watchdog.
      {
        al_at_us = 1.0;
        al_severity = Warning;
        al_kind = "thrash.page";
        al_node = 0;
        al_detail = "preallocated";
      }
  in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    Watchdog.forward_alert dsm a;
    Runtime.notify_wait dsm ~node:0 ~tid:1 ~target:2;
    Runtime.notify_wake dsm ~node:0 ~tid:1 ~target:2;
    Runtime.notify_rearm dsm
  done;
  let after = Gc.minor_words () in
  Alcotest.(check bool) "no allocation on disabled paths" true
    (after -. before < 256.)

(* A tick on a quiet runtime (64 mapped pages, one thread computing)
   allocates the sample it records and a constant besides: nothing per
   page audited.  The second of two runs is measured, so the one-off
   caches are warm, and the same runs without a watchdog are subtracted,
   so what remains is the ticks' own allocation. *)
let quiet_run_words ~nodes ~watched =
  let dsm = make ~nodes () in
  Monitor.enable dsm true;
  ignore
    (Dsm.malloc dsm ~protocol:(proto dsm "li_hudak") ~home:Dsm.Round_robin
       (64 * 4096));
  let w = if watched then Some (Watchdog.attach dsm) else None in
  let run () =
    ignore (Dsm.spawn dsm ~node:0 (fun () -> Dsm.compute dsm 40_000.));
    let before = Gc.minor_words () in
    Dsm.run dsm;
    Gc.minor_words () -. before
  in
  ignore (run ());
  let taken () = match w with Some w -> Watchdog.samples_taken w | None -> 0 in
  let ticks0 = taken () in
  let words = run () in
  (words, taken () - ticks0, w)

let test_quiet_tick_allocates_the_sample () =
  let nodes = 8 in
  let plain, _, _ = quiet_run_words ~nodes ~watched:false in
  let watched, ticks, w = quiet_run_words ~nodes ~watched:true in
  Alcotest.(check bool) "enough ticks" true (ticks >= 100);
  Alcotest.(check bool) "audited the pages" true
    (Watchdog.pages_audited (Option.get w) >= 64 * ticks);
  let per_tick = (watched -. plain) /. float_of_int ticks in
  let bound = float_of_int ((16 * nodes) + 256) in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words per quiet tick <= %.0f" per_tick bound)
    true (per_tick <= bound)

(* The stricter pin: the ring stores samples unboxed, so a quiet tick
   allocates a small constant (the re-armed timer closure and the drained
   interval) at any cluster size. *)
let test_quiet_tick_keeps_nothing_boxed () =
  List.iter
    (fun nodes ->
      let plain, _, _ = quiet_run_words ~nodes ~watched:false in
      let watched, ticks, _ = quiet_run_words ~nodes ~watched:true in
      Alcotest.(check bool) "enough ticks" true (ticks >= 100);
      let per_tick = (watched -. plain) /. float_of_int ticks in
      Alcotest.(check bool)
        (Printf.sprintf "%d nodes: %.0f words per quiet tick <= 32" nodes per_tick)
        true (per_tick <= 32.))
    [ 8; 32 ]

let () =
  Alcotest.run "watchdog"
    [
      ( "deadlock",
        [
          Alcotest.test_case "cycle named in full" `Quick test_deadlock_cycle_named;
          Alcotest.test_case "missing barrier party" `Quick
            test_missing_barrier_party_is_a_stall;
        ] );
      ( "stalls",
        [
          Alcotest.test_case "long lock wait warns" `Quick test_long_wait_warns;
          Alcotest.test_case "a stall warns once across waits" `Quick
            test_stall_warns_once_across_waits;
        ] );
      ( "thrashing",
        [ Alcotest.test_case "page ping-pong" `Quick test_thrash_detected ] );
      ( "faults",
        [ Alcotest.test_case "retry storm warns" `Quick test_retry_storm_warns ] );
      ( "audits",
        [
          Alcotest.test_case "green path, all protocols" `Quick
            test_green_path_every_protocol;
        ] );
      ( "transparency",
        [
          Alcotest.test_case "schedule preserved" `Quick
            test_watchdog_preserves_schedule;
          Alcotest.test_case "alerts reach the analyzer" `Quick
            test_traced_alerts_reach_analyzer;
          Alcotest.test_case "interval faults match telemetry" `Quick
            test_interval_faults_match_telemetry;
        ] );
      ( "reporting",
        [
          Alcotest.test_case "ring bounded" `Quick test_ring_is_bounded;
          Alcotest.test_case "health json" `Quick test_health_json;
          Alcotest.test_case "health report pinned" `Quick
            test_health_report_pinned;
          Alcotest.test_case "double attach rejected" `Quick
            test_double_attach_rejected;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "disabled paths are free" `Quick
            test_disabled_paths_allocate_nothing;
          Alcotest.test_case "quiet tick allocates the sample" `Quick
            test_quiet_tick_allocates_the_sample;
          Alcotest.test_case "quiet tick keeps nothing boxed" `Quick
            test_quiet_tick_keeps_nothing_boxed;
        ] );
    ]
