(* Tests of the differential comparator: injected deltas are detected, the
   noise bound suppresses within-spread wobble, identical runs diff clean,
   and incompatible metadata is refused. *)

open Dsmpm2_sim
open Dsmpm2_core
open Dsmpm2_experiments
module B = Bench_suite

(* --- synthetic snapshots (no simulation needed) --- *)

let sample ~seed ~time ?(messages = 100) ?(dropped = 0) ?(rpc_retries = 0)
    ?(events = 1000) () =
  {
    B.s_seed = seed;
    s_time_us = time;
    s_messages = messages;
    s_bytes = 4096;
    s_read_faults = 10;
    s_write_faults = 5;
    s_dropped = dropped;
    s_rpc_retries = rpc_retries;
    s_events = events;
    s_fault_p50_us = 50.;
    s_fault_p90_us = 90.;
    s_fault_p99_us = 99.;
    s_fault_p999_us = 99.9;
  }

let snapshot ?(id = "app:proto:drv") ?(driver = "BIP/Myrinet") samples =
  let case =
    {
      B.c_id = id;
      c_app = "app";
      c_protocol = "proto";
      c_driver = driver;
      c_nodes = 4;
      c_params = [ ("size", 16) ];
      c_quick = true;
    }
  in
  {
    B.bs_meta = Run_meta.v ~git_rev:"base" ();
    bs_results =
      [
        {
          B.cr_case = case;
          cr_meta =
            Run_meta.v ~git_rev:"base" ~driver ~protocol:"proto" ~nodes:4
              ~case:id ();
          cr_samples = samples;
        };
      ];
  }

let scale_times factor t =
  {
    t with
    B.bs_results =
      List.map
        (fun cr ->
          {
            cr with
            B.cr_samples =
              List.map
                (fun s -> { s with B.s_time_us = s.B.s_time_us *. factor })
                cr.B.cr_samples;
          })
        t.B.bs_results;
  }

let base_snapshot () =
  snapshot
    [ sample ~seed:0 ~time:1000. (); sample ~seed:1 ~time:1010. ();
      sample ~seed:2 ~time:1020. () ]

let diff_exn ?threshold_pct ?force a b =
  match
    Rundiff.diff ?threshold_pct ?force ~baseline:(Rundiff.Bench a)
      ~fresh:(Rundiff.Bench b) ()
  with
  | Ok d -> d
  | Error msg -> Alcotest.failf "diff refused: %s" msg

(* --- verdicts --- *)

let test_identical_is_clean () =
  let t = base_snapshot () in
  let d = diff_exn t t in
  Alcotest.(check bool) "no regression" false (Rundiff.significant_regression d);
  Alcotest.(check (list string)) "no regression lines" [] (Rundiff.regressions d);
  Alcotest.(check (list string)) "no improvement lines" [] (Rundiff.improvements d);
  List.iter
    (fun cd ->
      List.iter
        (fun m ->
          Alcotest.(check bool)
            (m.Rundiff.md_metric ^ " insignificant")
            false m.Rundiff.md_significant)
        cd.Rundiff.cd_metrics)
    d.Rundiff.rd_cases

let test_injected_regression_detected () =
  let t = base_snapshot () in
  let d = diff_exn t (scale_times 1.5 t) in
  Alcotest.(check bool) "regression found" true (Rundiff.significant_regression d);
  Alcotest.(check int) "one regression line" 1
    (List.length (Rundiff.regressions d));
  let time =
    List.find
      (fun m -> m.Rundiff.md_metric = "time_us")
      (List.hd d.Rundiff.rd_cases).Rundiff.cd_metrics
  in
  Alcotest.(check bool) "direction worse" true
    (time.Rundiff.md_direction = Rundiff.Worse);
  (* only time moved, so nothing else may fire *)
  List.iter
    (fun m ->
      if m.Rundiff.md_metric <> "time_us" then
        Alcotest.(check bool) (m.Rundiff.md_metric ^ " quiet") false
          m.Rundiff.md_significant)
    (List.hd d.Rundiff.rd_cases).Rundiff.cd_metrics

let test_improvement_is_not_a_regression () =
  let t = base_snapshot () in
  let d = diff_exn t (scale_times 0.5 t) in
  Alcotest.(check bool) "no regression" false (Rundiff.significant_regression d);
  Alcotest.(check int) "one improvement line" 1
    (List.length (Rundiff.improvements d))

let test_noise_bound_suppresses () =
  (* spread 1000/1010/1020 gives sigma ~8.2, noise ~24.5; a +5us shift is
     0.5% and inside the bound on both axes, so it must stay quiet *)
  let a = base_snapshot () in
  let b =
    snapshot
      [ sample ~seed:0 ~time:1005. (); sample ~seed:1 ~time:1015. ();
        sample ~seed:2 ~time:1025. () ]
  in
  let d = diff_exn a b in
  Alcotest.(check bool) "inside noise" false (Rundiff.significant_regression d);
  (* the same shift on a zero-spread case clears 3 sigma = 0 but not the
     relative threshold, so it is still quiet at 2% ... *)
  let a0 = snapshot [ sample ~seed:0 ~time:1000. () ] in
  let b0 = snapshot [ sample ~seed:0 ~time:1005. () ] in
  Alcotest.(check bool) "under relative threshold" false
    (Rundiff.significant_regression (diff_exn a0 b0));
  (* ... and loud once it crosses it *)
  let b1 = snapshot [ sample ~seed:0 ~time:1030. () ] in
  Alcotest.(check bool) "over relative threshold" true
    (Rundiff.significant_regression (diff_exn a0 b1))

let test_messages_delta_reported_not_gating () =
  let a = snapshot [ sample ~seed:0 ~time:1000. ~messages:100 () ] in
  let b = snapshot [ sample ~seed:0 ~time:1000. ~messages:200 () ] in
  let d = diff_exn a b in
  let msgs =
    List.find
      (fun m -> m.Rundiff.md_metric = "messages")
      (List.hd d.Rundiff.rd_cases).Rundiff.cd_metrics
  in
  Alcotest.(check bool) "messages delta significant" true
    msgs.Rundiff.md_significant;
  Alcotest.(check bool) "but the gate is simulated time" false
    (Rundiff.significant_regression d)

let test_events_gate () =
  (* The engine event count is deterministic per seed, so it gates like the
     simulated clock: more events at the same simulated time regress. *)
  let a = snapshot [ sample ~seed:0 ~time:1000. () ] in
  let b = snapshot [ sample ~seed:0 ~time:1000. ~events:1100 () ] in
  let d = diff_exn a b in
  Alcotest.(check (list string)) "events regression line"
    [ "app:proto:drv: events 1000.0 -> 1100.0 (+10.0%, noise ±0.0)" ]
    (Rundiff.regressions d);
  let fewer = snapshot [ sample ~seed:0 ~time:1000. ~events:900 () ] in
  Alcotest.(check bool) "fewer events is no regression" false
    (Rundiff.significant_regression (diff_exn a fewer))

let test_fault_metrics_advisory () =
  (* A fault-injection delta — more drops, more retransmissions — is
     surfaced per metric but never gates the exit code: only simulated time
     does. *)
  let a = snapshot [ sample ~seed:0 ~time:1000. () ] in
  let b =
    snapshot [ sample ~seed:0 ~time:1000. ~dropped:7 ~rpc_retries:21 () ]
  in
  let d = diff_exn a b in
  let metric name =
    List.find
      (fun m -> m.Rundiff.md_metric = name)
      (List.hd d.Rundiff.rd_cases).Rundiff.cd_metrics
  in
  List.iter
    (fun name ->
      let m = metric name in
      Alcotest.(check bool) (name ^ " delta significant") true
        m.Rundiff.md_significant;
      Alcotest.(check bool) (name ^ " direction worse") true
        (m.Rundiff.md_direction = Rundiff.Worse))
    [ "dropped"; "rpc_retries" ];
  Alcotest.(check bool) "advisory only — no exit-1 regression" false
    (Rundiff.significant_regression d);
  (* ...and the deltas are visible in the rendered report. *)
  let buf = Buffer.create 512 in
  let fmt = Format.formatter_of_buffer buf in
  Rundiff.pp_text fmt d;
  Format.pp_print_flush fmt ();
  let text = Buffer.contents buf in
  let contains sub =
    let n = String.length sub and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "dropped in report" true (contains "dropped");
  Alcotest.(check bool) "rpc_retries in report" true (contains "rpc_retries")

(* --- metadata refusal --- *)

let test_mismatch_refused () =
  let a = base_snapshot () in
  (* same case id recorded under a different driver *)
  let b =
    {
      (snapshot ~driver:"SISCI/SCI"
         [ sample ~seed:0 ~time:1000. (); sample ~seed:1 ~time:1010. ();
           sample ~seed:2 ~time:1020. () ])
      with
      B.bs_meta = Run_meta.v ~git_rev:"fresh" ();
    }
  in
  (match
     Rundiff.diff ~baseline:(Rundiff.Bench a) ~fresh:(Rundiff.Bench b) ()
   with
  | Ok _ -> Alcotest.fail "driver mismatch accepted"
  | Error _ -> ());
  (* --force compares anyway *)
  (match
     Rundiff.diff ~force:true ~baseline:(Rundiff.Bench a)
       ~fresh:(Rundiff.Bench b) ()
   with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "force did not override: %s" msg);
  (* differing seed lists are apples to oranges too *)
  let b' = snapshot [ sample ~seed:7 ~time:1000. () ] in
  match Rundiff.diff ~baseline:(Rundiff.Bench a) ~fresh:(Rundiff.Bench b') () with
  | Ok _ -> Alcotest.fail "seed-list mismatch accepted"
  | Error _ -> ()

let test_git_rev_exempt () =
  let a = base_snapshot () in
  let b =
    {
      (base_snapshot ()) with
      B.bs_meta = Run_meta.v ~git_rev:"other-revision" ();
    }
  in
  match Rundiff.diff ~baseline:(Rundiff.Bench a) ~fresh:(Rundiff.Bench b) () with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "git revision participated: %s" msg

let test_mixed_kinds_refused () =
  let a = base_snapshot () in
  let tr =
    Rundiff.Run (Run_meta.empty, Analyze.analyze (Trace.create ()))
  in
  match Rundiff.diff ~baseline:(Rundiff.Bench a) ~fresh:tr () with
  | Ok _ -> Alcotest.fail "bench vs trace accepted"
  | Error _ -> ()

(* --- trace mode, over a real (tiny) run --- *)

let jacobi_trace ?(watch = false) ~protocol () =
  let captured = ref None in
  ignore
    (Dsmpm2_apps.Jacobi.run
       {
         Dsmpm2_apps.Jacobi.default with
         protocol;
         size = 16;
         iterations = 2;
         tie_seed = Some 0;
         observe =
           Some
             (fun dsm ->
               captured := Some dsm;
               Monitor.enable dsm true;
               if watch then begin
                 (* Three installs of a page from two or more nodes within
                    100 us raise [thrash.page]. *)
                 ignore
                   (Telemetry.attach
                      ~config:
                        Telemetry.
                          { thrash_window = 3; thrash_span = Time.of_us 100. }
                      dsm);
                 ignore (Watchdog.attach dsm)
               end);
       });
  match !captured with
  | Some dsm -> Monitor.trace dsm
  | None -> Alcotest.fail "jacobi did not expose its runtime"

let test_trace_self_diff_clean () =
  let tr = jacobi_trace ~protocol:"hbrc_mw" () in
  let src () = Rundiff.Run (Run_meta.empty, Analyze.analyze tr) in
  match Rundiff.diff ~baseline:(src ()) ~fresh:(src ()) () with
  | Error msg -> Alcotest.failf "diff refused: %s" msg
  | Ok d ->
      Alcotest.(check bool) "stages compared" true (d.Rundiff.rd_stages <> []);
      Alcotest.(check bool) "no regression" false
        (Rundiff.significant_regression d);
      Alcotest.(check (list string)) "no pattern drift" []
        (List.map
           (fun p -> string_of_int p.Rundiff.pd_page)
           d.Rundiff.rd_patterns)

(* Same app, two protocols, watchdog attached: the diff reports the pages
   whose pattern changes and the thrash.page alerts that vanish.  Under
   hbrc_mw several nodes fetch pages 1 and 2 within 100 us of each other;
   li_hudak hands them over one writer at a time, further apart. *)
let test_trace_protocol_switch_deltas () =
  let src protocol =
    Rundiff.Run
      ( Run_meta.empty,
        Analyze.analyze (jacobi_trace ~watch:true ~protocol ()) )
  in
  match Rundiff.diff ~baseline:(src "hbrc_mw") ~fresh:(src "li_hudak") () with
  | Error msg -> Alcotest.failf "diff refused: %s" msg
  | Ok d ->
      Alcotest.(check (list (triple int string string)))
        "pages 1 and 2 turn migratory"
        [ (1, "false-sharing", "migratory"); (2, "false-sharing", "migratory") ]
        (List.map
           (fun p -> Rundiff.(p.pd_page, p.pd_base, p.pd_fresh))
           d.Rundiff.rd_patterns);
      Alcotest.(check (list (pair string (pair int int))))
        "hbrc_mw's six thrash.page alerts vanish"
        [ ("warning thrash.page", (6, 0)) ]
        (List.map
           (fun al ->
             Rundiff.
               ( Trace.severity_to_string al.al_severity ^ " " ^ al.al_kind,
                 (al.al_base, al.al_fresh) ))
           d.Rundiff.rd_alerts)

let test_load_source_sniffs () =
  (* a trace dump loads as Run; a bench snapshot as Bench *)
  let tr = jacobi_trace ~protocol:"hbrc_mw" () in
  let path = Filename.temp_file "dsm_trace" ".jsonl" in
  Trace.save_jsonl path tr;
  (match Rundiff.load_source path with
  | Ok (Rundiff.Run _) -> ()
  | Ok (Rundiff.Bench _) -> Alcotest.fail "trace loaded as bench"
  | Error msg -> Alcotest.failf "load_source trace: %s" msg);
  Sys.remove path;
  let bench_path = Filename.temp_file "dsm_macro" ".json" in
  Json.to_file bench_path (B.to_json (base_snapshot ()));
  (match Rundiff.load_source bench_path with
  | Ok (Rundiff.Bench _) -> ()
  | Ok (Rundiff.Run _) -> Alcotest.fail "bench loaded as trace"
  | Error msg -> Alcotest.failf "load_source bench: %s" msg);
  Sys.remove bench_path

let () =
  Alcotest.run "rundiff"
    [
      ( "verdicts",
        [
          Alcotest.test_case "identical runs diff clean" `Quick
            test_identical_is_clean;
          Alcotest.test_case "injected regression detected" `Quick
            test_injected_regression_detected;
          Alcotest.test_case "improvement is not a regression" `Quick
            test_improvement_is_not_a_regression;
          Alcotest.test_case "noise bound suppresses wobble" `Quick
            test_noise_bound_suppresses;
          Alcotest.test_case "traffic deltas report, time gates" `Quick
            test_messages_delta_reported_not_gating;
          Alcotest.test_case "event count gates" `Quick test_events_gate;
          Alcotest.test_case "fault metrics advisory" `Quick
            test_fault_metrics_advisory;
        ] );
      ( "metadata",
        [
          Alcotest.test_case "mismatch refused, force overrides" `Quick
            test_mismatch_refused;
          Alcotest.test_case "git revision exempt" `Quick test_git_rev_exempt;
          Alcotest.test_case "mixed kinds refused" `Quick
            test_mixed_kinds_refused;
        ] );
      ( "traces",
        [
          Alcotest.test_case "self-diff clean" `Quick test_trace_self_diff_clean;
          Alcotest.test_case "load_source sniffs kinds" `Quick
            test_load_source_sniffs;
          Alcotest.test_case "protocol switch deltas" `Quick
            test_trace_protocol_switch_deltas;
        ] );
    ]
