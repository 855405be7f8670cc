(* The post-mortem trace analyzer: exact sharing-pattern classification on
   synthetic traces, critical paths and lock and barrier tables read from
   stamps (equal to the registry's on real runs, and bounded by it on
   ring-capped ones), the [of_jsonl] round-trip, and TSP's bound page end
   to end (classified migratory; migrate_thread faults less on it). *)

open Dsmpm2_sim
open Dsmpm2_core
open Dsmpm2_experiments

let us = Time.of_us
let ev at ?(span = Trace.no_span) e = (us at, span, e)

let fault ~node ~page ~mode at span =
  ev at ~span (Trace.Fault { node; page; protocol = "li_hudak"; mode })

let send ~node ~page ~dst at span =
  ev at ~span
    (Trace.Page_send { node; page; protocol = "li_hudak"; dst; bytes = 4096; grant = "read" })

let pattern_of events page =
  let t = Trace.of_events events in
  match Analyze.page_profile (Analyze.analyze t) ~page with
  | Some p -> p.Telemetry.pr_pattern
  | None -> Alcotest.failf "page %d has no profile" page

let check_pattern what expected events page =
  Alcotest.(check string)
    what
    (Telemetry.pattern_to_string expected)
    (Telemetry.pattern_to_string (pattern_of events page))

(* --- classification on synthetic traces --- *)

let test_classify_private () =
  check_pattern "one accessing node is private" Telemetry.Private
    [ fault ~node:1 ~page:3 ~mode:"read" 10. 0; fault ~node:1 ~page:3 ~mode:"write" 20. 1 ]
    3

let test_classify_read_mostly () =
  check_pattern "remote readers, no writer" Telemetry.Read_mostly
    [
      fault ~node:0 ~page:5 ~mode:"read" 10. 0;
      fault ~node:1 ~page:5 ~mode:"read" 20. 1;
      fault ~node:2 ~page:5 ~mode:"read" 30. 2;
    ]
    5

let test_classify_migratory () =
  (* Write access hands off 0 -> 1 -> 2: each node write-faults the page away
     from the previous writer. *)
  check_pattern "serial write handoffs migrate" Telemetry.Migratory
    [
      fault ~node:0 ~page:7 ~mode:"write" 10. 0;
      fault ~node:1 ~page:7 ~mode:"write" 20. 1;
      send ~node:0 ~page:7 ~dst:1 25. 1;
      fault ~node:2 ~page:7 ~mode:"write" 30. 2;
      send ~node:1 ~page:7 ~dst:2 35. 2;
    ]
    7

let test_classify_false_sharing () =
  (* Two nodes' diffs land on the same page: they wrote disjoint words
     concurrently — the page itself is falsely shared. *)
  let diff ~sender at =
    ev at
      (Trace.Diff
         {
           node = 0;
           pages = 1;
           page_list = [ 9 ];
           bytes = 48;
           sender;
           release = true;
           protocol = "li_hudak";
         })
  in
  check_pattern "diffs from two nodes are false sharing" Telemetry.False_sharing
    [
      fault ~node:1 ~page:9 ~mode:"write" 10. 0;
      fault ~node:2 ~page:9 ~mode:"write" 12. 1;
      diff ~sender:1 20.;
      diff ~sender:2 21.;
    ]
    9

let test_classify_producer_consumer () =
  check_pattern "one writer, re-fetching readers" Telemetry.Producer_consumer
    [
      fault ~node:0 ~page:2 ~mode:"write" 10. 0;
      fault ~node:1 ~page:2 ~mode:"read" 20. 1;
      fault ~node:0 ~page:2 ~mode:"write" 30. 2;
      fault ~node:1 ~page:2 ~mode:"read" 40. 3;
    ]
    2

let test_classify_single_writer () =
  check_pattern "one writer, one cold reader" Telemetry.Single_writer
    [
      fault ~node:0 ~page:4 ~mode:"write" 10. 0;
      fault ~node:1 ~page:4 ~mode:"read" 20. 1;
    ]
    4

(* --- critical paths from stage stamps --- *)

let stamp ~node ?(protocol = "li_hudak") ?(obj = 1) stage us_ at span =
  ev at ~span (Trace.Stage { node; protocol; stage; obj; ns = us us_ })

let test_critical_path_stages () =
  let events =
    [
      fault ~node:0 ~page:1 ~mode:"read" 100. 7;
      ev 110. ~span:7
        (Trace.Page_request
           { node = 1; page = 1; protocol = "li_hudak"; mode = "read"; requester = 0 });
      stamp ~node:1 Instrument.stage_request 10. 110. 7;
      send ~node:1 ~page:1 ~dst:0 140. 7;
      ev 180. ~span:7
        (Trace.Page_install
           { node = 0; page = 1; protocol = "li_hudak"; sender = 1; grant = "read" });
      stamp ~node:0 Instrument.stage_transfer 40. 180. 7;
      stamp ~node:0 Instrument.stage_total 93. 190. 7;
      (* A second fault, stamped in the opposite order: the table keeps
         [Instrument.stages] order. *)
      fault ~node:2 ~page:1 ~mode:"read" 200. 8;
      stamp ~node:2 Instrument.stage_total 7. 207. 8;
      stamp ~node:1 Instrument.stage_request 20. 205. 8;
    ]
  in
  let a = Analyze.analyze (Trace.of_events events) in
  (match Analyze.chains a with
  | [ c; _ ] ->
      Alcotest.(check int) "span" 7 c.Analyze.ch_span;
      Alcotest.(check int) "hops" 1 c.Analyze.ch_hops;
      Alcotest.(check (float 0.01)) "total is the stamp, not the span's extent" 93.
        c.Analyze.ch_total_us;
      Alcotest.(check (list (pair string (float 0.01))))
        "the chain's stages are its stamps"
        [
          (Instrument.stage_request, 10.);
          (Instrument.stage_transfer, 40.);
          (Instrument.stage_total, 93.);
        ]
        c.Analyze.ch_stages;
      Alcotest.(check int) "stamps are not repeated as events" 4
        (List.length c.Analyze.ch_events)
  | cs -> Alcotest.failf "expected two fault chains, got %d" (List.length cs));
  match Analyze.stages a with
  | [ ("li_hudak", rows) ] ->
      Alcotest.(check (list (pair string int)))
        "one row per stamped stage, in Instrument order, summed exactly"
        [
          (Instrument.stage_request, 30_000);
          (Instrument.stage_transfer, 40_000);
          (Instrument.stage_total, 100_000);
        ]
        (List.map (fun s -> (s.Stats.sm_name, s.Stats.sm_total)) rows)
  | _ -> Alcotest.fail "expected one protocol"

let test_migration_stage () =
  let events =
    [
      fault ~node:0 ~page:1 ~mode:"write" 100. 3;
      ev 100. ~span:3 (Trace.Migration { thread = 5; src = 0; dst = 2 });
      stamp ~node:0 ~protocol:"migrate_thread" Instrument.stage_migration 60. 160. 3;
      stamp ~node:0 ~protocol:"migrate_thread" Instrument.stage_total 71. 171. 3;
      (* A slower fault with no total stamp (cut from the trace) ranks
         last: top-K ranks by the stamp. *)
      fault ~node:1 ~page:1 ~mode:"write" 200. 4;
      ev 900. ~span:4 (Trace.Migration { thread = 6; src = 1; dst = 2 });
    ]
  in
  let a = Analyze.analyze ~top:1 (Trace.of_events events) in
  (match Analyze.chains a with
  | [ c; cut ] ->
      Alcotest.(check (float 0.01)) "migration stage" 60.
        (List.assoc Instrument.stage_migration c.Analyze.ch_stages);
      Alcotest.(check (float 0.01)) "no stamp, no total" 0. cut.Analyze.ch_total_us
  | cs -> Alcotest.failf "expected two chains, got %d" (List.length cs));
  let top_spans =
    match Json.member "top_spans" (Analyze.to_json a) with
    | Some (Json.List l) -> List.filter_map (fun j -> Option.bind (Json.member "span" j) Json.to_int) l
    | _ -> Alcotest.fail "no top_spans"
  in
  Alcotest.(check (list int)) "slowest by stamp" [ 3 ] top_spans

(* --- lock & barrier waits, from sync stamps --- *)

let sync ~node ~obj stage us_ at = stamp ~node ~obj stage us_ at Trace.no_span

(* (series, samples, total ns, max ns) of each row of a sync table. *)
let sync_table groups =
  List.map
    (fun (id, rows) ->
      ( id,
        List.map
          (fun s -> (s.Stats.sm_name, (s.Stats.sm_samples, (s.Stats.sm_total, s.Stats.sm_max))))
          rows ))
    groups

let sync_table_t = Alcotest.(list (pair int (list (pair string (pair int (pair int int))))))

let test_lock_contention () =
  let open Instrument in
  let events =
    [
      (* Lock 0: node 1 waits 5us and holds 10us, node 2 waits 18us (the
         contended acquisition) and holds 5us.  Lock 3: one wait, its hold
         cut from the trace. *)
      sync ~node:1 ~obj:0 lock_wait 5. 15.;
      sync ~node:2 ~obj:3 lock_wait 2. 16.;
      sync ~node:1 ~obj:0 lock_hold 10. 25.;
      sync ~node:2 ~obj:0 lock_wait 18. 30.;
      sync ~node:2 ~obj:0 lock_hold 5. 35.;
      (* Neither a barrier sharing lock 0's id, nor a fault stage on page
         0, nor the managers' own events are lock waits. *)
      sync ~node:1 ~obj:0 barrier_wait 50. 60.;
      stamp ~node:1 ~obj:0 stage_total 7. 70. 9;
      ev 15. (Trace.Lock { node = 1; lock = 0; op = Trace.Acquire });
      ev 25. (Trace.Lock { node = 1; lock = 0; op = Trace.Release });
    ]
  in
  let a = Analyze.analyze (Trace.of_events events) in
  Alcotest.check sync_table_t "wait then hold rows per lock, summed exactly"
    [
      (0, [ (lock_wait, (2, (23_000, 18_000))); (lock_hold, (2, (15_000, 10_000))) ]);
      (3, [ (lock_wait, (1, (2_000, 2_000))) ]);
    ]
    (sync_table (Analyze.locks a))

let test_barrier_waits () =
  let open Instrument in
  let events =
    [
      (* Barrier 1, two rounds of three parties: each arrival's wait is its
         own stamp, so no round has to be cut out of the arrivals. *)
      sync ~node:0 ~obj:1 barrier_wait 8. 18.;
      sync ~node:1 ~obj:1 barrier_wait 6. 18.;
      sync ~node:2 ~obj:1 barrier_wait 0. 18.;
      sync ~node:2 ~obj:1 barrier_wait 2. 32.;
      sync ~node:0 ~obj:1 barrier_wait 1. 32.;
      sync ~node:1 ~obj:1 barrier_wait 0. 32.;
      (* Barrier 0, one arrival of a round the trace kept only part of. *)
      sync ~node:3 ~obj:0 barrier_wait 4. 50.;
      (* A manager-side arrival is not a wait. *)
      ev 50. (Trace.Barrier { node = 0; barrier = 0 });
    ]
  in
  let a = Analyze.analyze (Trace.of_events events) in
  Alcotest.check sync_table_t "one wait row per barrier, summed exactly"
    [
      (0, [ (barrier_wait, (1, (4_000, 4_000))) ]);
      (1, [ (barrier_wait, (6, (17_000, 8_000))) ]);
    ]
    (sync_table (Analyze.barriers a));
  Alcotest.check sync_table_t "no lock rows" [] (sync_table (Analyze.locks a))

(* --- of_jsonl round-trip over every event variant --- *)

let all_variant_events =
  [
    ev 0. ~span:0 (Trace.Fault { node = 1; page = 3; protocol = "li_hudak"; mode = "read" });
    ev 10. ~span:0
      (Trace.Page_request
         { node = 0; page = 3; protocol = "li_hudak"; mode = "write"; requester = 1 });
    ev 20. ~span:0
      (Trace.Page_send
         { node = 0; page = 3; protocol = "li_hudak"; dst = 1; bytes = 4096; grant = "RW" });
    ev 30. ~span:0
      (Trace.Page_install
         { node = 1; page = 3; protocol = "li_hudak"; sender = 0; grant = "R" });
    ev 40. (Trace.Invalidate { node = 2; page = 7; protocol = "hbrc_mw"; sender = 0 });
    ev 50.
      (Trace.Diff
         {
           node = 0;
           pages = 2;
           page_list = [ 4; 9 ];
           bytes = 96;
           sender = 3;
           release = true;
           protocol = "hbrc_mw";
         });
    ev 60. (Trace.Lock { node = 1; lock = 4; op = Trace.Acquire });
    ev 65. (Trace.Lock { node = 2; lock = 4; op = Trace.Release });
    ev 70. (Trace.Barrier { node = 2; barrier = 0 });
    ev 80. ~span:2 (Trace.Migration { thread = 9; src = 0; dst = 3 });
    ev 90.
      (Trace.Alert
         {
           severity = Trace.Warning;
           kind = "thrash.page";
           node = 1;
           detail = "page 3: \"quoted\"";
         });
    stamp ~node:1 ~obj:3 Instrument.stage_total 30. 100. 0;
    stamp ~node:2 ~obj:4 Instrument.lock_hold 12. 110. 0;
  ]

let test_of_jsonl_round_trip () =
  let t = Trace.of_events all_variant_events in
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  Trace.to_jsonl fmt t;
  Format.pp_print_flush fmt ();
  match Trace.of_jsonl (Buffer.contents buf) with
  | Error msg -> Alcotest.failf "of_jsonl failed: %s" msg
  | Ok t' ->
      Alcotest.(check int) "same length" (Trace.length t) (Trace.length t');
      Alcotest.(check bool) "every (timestamp, span, event) survives" true
        (Trace.events t = Trace.events t');
      (* Fresh spans minted after a reload must not collide with loaded ones. *)
      Trace.enable t' true;
      Alcotest.(check bool) "next span past loaded max" true (Trace.new_span t' > 2)

let test_of_jsonl_rejects_garbage () =
  let good =
    Json.to_string
      (Trace.event_to_json ~at:(us 1.) ~span:Trace.no_span
         (Trace.Barrier { node = 0; barrier = 0 }))
  in
  (match Trace.of_jsonl (good ^ "\nnot json at all\n") with
  | Error msg ->
      Alcotest.(check bool) "error names the line" true
        (String.length msg >= 6 && String.sub msg 0 6 = "line 2")
  | Ok _ -> Alcotest.fail "garbage accepted");
  (match Trace.of_jsonl "{\"kind\":\"nope\"}\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown event kind accepted");
  (* A lock line names the request its manager received: no other op is
     a lock event. *)
  let lock_line op =
    Printf.sprintf {|{"at_ns":5,"span":-1,"type":"lock","node":0,"lock":2,"op":"%s"}|} op
  in
  (match Trace.of_jsonl (lock_line "release") with
  | Ok t -> Alcotest.(check int) "a known op loads" 1 (Trace.length t)
  | Error msg -> Alcotest.failf "known op refused: %s" msg);
  match Trace.of_jsonl (good ^ "\n" ^ lock_line "granted") with
  | Error msg ->
      Alcotest.(check string) "unknown lock op refused at its line"
        "line 2: not a trace event" msg
  | Ok _ -> Alcotest.fail "unknown lock op accepted"

(* No run names a negative page or node, and telemetry indexes its tables
   by both: a hand-edited dump carrying one is refused at its line.  So
   are a stamp's negative object and negative duration, which a sketch
   would clamp to 0. *)
let test_of_jsonl_rejects_negative_ids () =
  let line ev = Json.to_string (Trace.event_to_json ~at:(us 1.) ~span:0 ev) in
  let good = line (Trace.Barrier { node = 0; barrier = 0 }) in
  List.iter
    (fun (ev, expected) ->
      match Trace.of_jsonl (String.concat "\n" [ good; ""; line ev; good ]) with
      | Error msg -> Alcotest.(check string) expected expected msg
      | Ok _ -> Alcotest.failf "accepted: %s" expected)
    [
      ( Trace.Fault { node = 1; page = -3; protocol = "li_hudak"; mode = "read" },
        "line 3: negative page id -3" );
      ( Trace.Fault { node = -1; page = 3; protocol = "li_hudak"; mode = "read" },
        "line 3: negative node id -1" );
      ( Trace.Page_send
          { node = 0; page = -7; protocol = "li_hudak"; dst = 1; bytes = 4096; grant = "RW" },
        "line 3: negative page id -7" );
      ( Trace.Page_install
          { node = 1; page = -1; protocol = "li_hudak"; sender = 0; grant = "R" },
        "line 3: negative page id -1" );
      ( Trace.Invalidate { node = 2; page = -2; protocol = "hbrc_mw"; sender = 0 },
        "line 3: negative page id -2" );
      ( Trace.Diff
          {
            node = 0;
            pages = 2;
            page_list = [ 4; -9 ];
            bytes = 96;
            sender = 3;
            release = true;
            protocol = "hbrc_mw";
          },
        "line 3: negative page id -9" );
      ( Trace.Diff
          {
            node = 0;
            pages = 1;
            page_list = [ 4 ];
            bytes = 96;
            sender = -3;
            release = true;
            protocol = "hbrc_mw";
          },
        "line 3: negative node id -3" );
      ( Trace.Stage
          { node = -2; protocol = "li_hudak"; stage = Instrument.stage_request; obj = 1; ns = 5 },
        "line 3: negative node id -2" );
      ( Trace.Stage
          { node = 1; protocol = "li_hudak"; stage = Instrument.stage_total; obj = 1; ns = -5 },
        "line 3: negative duration -5" );
      ( Trace.Stage
          { node = 1; protocol = "li_hudak"; stage = Instrument.lock_wait; obj = -4; ns = 5 },
        "line 3: negative object id -4" );
      ( Trace.Stage
          { node = 0; protocol = "hbrc_mw"; stage = Instrument.barrier_wait; obj = -1; ns = 5 },
        "line 3: negative object id -1" );
    ]

(* --- TSP's bound page end to end --- *)

(* The TSP global bound is lock-protected and bounces between workers:
   the analyzer must classify its page migratory, and moving the threads
   to the page instead (migrate_thread) must reduce faults. *)
let tsp_run protocol =
  let captured = ref None in
  let observe dsm =
    captured := Some dsm;
    Dsmpm2_core.Monitor.enable dsm true
  in
  let r =
    Dsmpm2_apps.Tsp.run
      { Dsmpm2_apps.Tsp.default with protocol; observe = Some observe }
  in
  match !captured with
  | Some dsm -> (r, dsm)
  | None -> Alcotest.fail "tsp did not expose its runtime"

let test_tsp_bound_page_end_to_end () =
  let baseline, dsm = tsp_run "li_hudak" in
  let a = Analyze.analyze (Dsmpm2_core.Monitor.trace dsm) in
  (* The bound is TSP's only allocation, so it sits on page 1. *)
  (match Analyze.page_profile a ~page:1 with
  | Some p ->
      Alcotest.(check string) "the bound page is migratory" "migratory"
        (Telemetry.pattern_to_string p.Telemetry.pr_pattern)
  | None -> Alcotest.fail "no profile for the bound page");
  let migrated, _ = tsp_run "migrate_thread" in
  let faults r = r.Dsmpm2_apps.Tsp.read_faults + r.Dsmpm2_apps.Tsp.write_faults in
  Alcotest.(check bool)
    (Printf.sprintf "migrate_thread faults less (%d < %d)" (faults migrated)
       (faults baseline))
    true
    (faults migrated < faults baseline);
  Alcotest.(check bool) "and still finds the same tour" true
    (migrated.Dsmpm2_apps.Tsp.best = baseline.Dsmpm2_apps.Tsp.best)

(* --- analysis exports --- *)

let test_json_export_parses () =
  let _, dsm = tsp_run "li_hudak" in
  let a = Analyze.analyze (Dsmpm2_core.Monitor.trace dsm) in
  match Json.of_string (Json.to_string (Analyze.to_json a)) with
  | Error msg -> Alcotest.failf "analysis JSON does not re-parse: %s" msg
  | Ok json ->
      List.iter
        (fun field ->
          Alcotest.(check bool) ("has " ^ field) true (Json.member field json <> None))
        [ "critical_path"; "top_spans"; "pages"; "locks"; "barriers" ]

let test_folded_output_shape () =
  let _, dsm = tsp_run "li_hudak" in
  let a = Analyze.analyze (Dsmpm2_core.Monitor.trace dsm) in
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  Analyze.folded fmt a;
  Format.pp_print_flush fmt ();
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (Buffer.contents buf))
  in
  Alcotest.(check bool) "has folded lines" true (lines <> []);
  List.iter
    (fun line ->
      (* flamegraph folded format: "frame;frame;frame <integer>" *)
      match String.rindex_opt line ' ' with
      | None -> Alcotest.failf "no sample count in %S" line
      | Some i ->
          let stack = String.sub line 0 i in
          let count = String.sub line (i + 1) (String.length line - i - 1) in
          Alcotest.(check bool) "stack is rooted" true
            (String.length stack > 7 && String.sub stack 0 7 = "dsmpm2;");
          Alcotest.(check bool) "count is an integer" true
            (int_of_string_opt count <> None))
    lines

(* --- one stage measurement, read twice ---

   The runtime stamps each stage once, into its registry and into the
   trace.  On an unsampled, unevicted trace, every stage the analyzer
   prints has the registry's sample count and integer-nanosecond total
   (so mean) for that protocol, and every stamped series the registry
   holds is printed. *)

let observed ?capacity run =
  let captured = ref None in
  let observe dsm =
    Monitor.enable dsm true;
    Option.iter (Trace.set_capacity (Monitor.trace dsm)) capacity;
    captured := Some dsm
  in
  run (Some observe);
  Option.get !captured

(* The registry's (samples, total) of [series] under [protocol]: its
   (node, protocol) cells, or the whole series for the run-wide
   [stage.migration] cell (each run below uses one protocol). *)
let registry stats ~protocol series =
  let sum labels =
    let s = Stats.span_summary ?labels stats series in
    (s.Stats.sm_samples, s.Stats.sm_total)
  in
  if series = Instrument.stage_migration then sum None
  else
    List.fold_left
      (fun (n, total) l ->
        if l.Stats.lbl_protocol = Some protocol then
          let n', total' = sum (Some l) in
          (n + n', total + total')
        else (n, total))
      (0, 0) (Stats.label_sets stats)

let stamped =
  Instrument.[ stage_request; stage_transfer; stage_migration; stage_total ]

let check_stages_match_registry ~protocol ~expect run () =
  let dsm = observed run in
  let trace = Monitor.trace dsm in
  Alcotest.(check int) "nothing evicted" 0 (Trace.evicted trace);
  let stats = Dsm.stats dsm in
  let rows =
    match Analyze.stages (Analyze.analyze trace) with
    | [ (p, rows) ] when p = protocol -> rows
    | ps -> Alcotest.failf "expected %s stages only, got %d protocols" protocol (List.length ps)
  in
  Alcotest.(check (list string)) "printed stages"
    expect (List.map (fun s -> s.Stats.sm_name) rows);
  Alcotest.(check (list string)) "the registry's stamped series"
    expect
    (List.filter (fun series -> fst (registry stats ~protocol series) > 0) stamped);
  List.iter
    (fun s ->
      let name = s.Stats.sm_name in
      let n, total = registry stats ~protocol name in
      Alcotest.(check int) (name ^ " count") n s.Stats.sm_samples;
      Alcotest.(check int) (name ^ " total ns") total s.Stats.sm_total;
      Alcotest.(check int) (name ^ " mean ns") (total / n) s.Stats.sm_mean)
    rows

let jacobi ?(nodes = 4) ?(size = 48) ?(iterations = 8) ?tie_seed protocol observe =
  ignore
    (Dsmpm2_apps.Jacobi.run
       {
         Dsmpm2_apps.Jacobi.default with
         protocol;
         nodes;
         size;
         iterations;
         tie_seed;
         observe;
       })

let tsp ?tie_seed protocol observe =
  ignore
    (Dsmpm2_apps.Tsp.run { Dsmpm2_apps.Tsp.default with protocol; tie_seed; observe })

let coloring protocol observe =
  ignore
    (Dsmpm2_apps.Map_coloring.run
       { Dsmpm2_apps.Map_coloring.default with protocol; observe })

let stage_runs =
  let open Instrument in
  let page = [ stage_request; stage_transfer; stage_total ] in
  [
    ("jacobi write_update, 8 nodes", "write_update", page,
      jacobi ~nodes:8 "write_update");
    ("jacobi li_hudak", "li_hudak", page, jacobi "li_hudak");
    ("jacobi hbrc_mw", "hbrc_mw", page, jacobi "hbrc_mw");
    ("jacobi sc_abd", "sc_abd", [ stage_total ],
      jacobi ~size:16 ~iterations:4 "sc_abd");
    ("tsp migrate_thread", "migrate_thread", [ stage_migration; stage_total ],
      tsp "migrate_thread");
    ("coloring java_ic", "java_ic", page, coloring "java_ic");
  ]

(* --- one sync measurement, read twice ---

   Lock and barrier waits are stamped the same way.  The registry keeps
   them per node and the analyzer per lock or barrier, so on a complete
   trace each sync series, summed over its objects, has the registry's
   sample count and integer-nanosecond total. *)

let sync_series = Instrument.[ lock_wait; lock_hold; barrier_wait ]

(* Every row of the lock and barrier tables, with its lock or barrier id. *)
let sync_rows a =
  List.concat_map
    (fun (id, rows) -> List.map (fun s -> (id, s)) rows)
    (Analyze.locks a @ Analyze.barriers a)

let check_sync_matches_registry ~expect run () =
  let dsm = observed run in
  let trace = Monitor.trace dsm in
  Alcotest.(check int) "nothing evicted" 0 (Trace.evicted trace);
  let stats = Dsm.stats dsm in
  let rows = List.map snd (sync_rows (Analyze.analyze trace)) in
  Alcotest.(check (list string)) "the registry's sync series" expect
    (List.filter
       (fun series -> (Stats.span_summary stats series).Stats.sm_samples > 0)
       sync_series);
  List.iter
    (fun series ->
      let reg = Stats.span_summary stats series in
      let mine = List.filter (fun s -> s.Stats.sm_name = series) rows in
      let sum f = List.fold_left (fun acc s -> acc + f s) 0 mine in
      Alcotest.(check int) (series ^ " count") reg.Stats.sm_samples
        (sum (fun s -> s.Stats.sm_samples));
      Alcotest.(check int) (series ^ " total ns") reg.Stats.sm_total
        (sum (fun s -> s.Stats.sm_total)))
    sync_series

let sync_runs =
  let open Instrument in
  [
    ("tsp li_hudak", [ lock_wait; lock_hold ], tsp "li_hudak");
    ("coloring java_ic", [ lock_wait; lock_hold ], coloring "java_ic");
    ("jacobi hbrc_mw", [ barrier_wait ], jacobi "hbrc_mw");
  ]

(* --- ring-capped traces ---

   A flight recorder keeps only the newest events.  A stamp carries its
   whole duration, so each row holds exactly the stamps the ring kept: no
   figure can come from a request paired with an earlier acquisition's
   grant, or from arrivals cut into the wrong rounds. *)

let check_capped_sync ~capacity ~expect run () =
  let dsm = observed ~capacity run in
  let trace = Monitor.trace dsm in
  Alcotest.(check bool) "the ring evicted" true (Trace.evicted trace > 0);
  let kept = Hashtbl.create 8 in
  Trace.iter trace (fun ~at:_ ~span:_ ev ->
      match ev with
      | Trace.Stage { stage; obj; _ } when List.mem stage sync_series ->
          let n = Option.value ~default:0 (Hashtbl.find_opt kept (stage, obj)) in
          Hashtbl.replace kept (stage, obj) (n + 1)
      | _ -> ());
  let stats = Dsm.stats dsm in
  let rows = sync_rows (Analyze.analyze trace) in
  Alcotest.(check (list string)) "kept sync series" expect
    (List.sort_uniq String.compare (List.map (fun (_, s) -> s.Stats.sm_name) rows));
  Alcotest.(check int) "one row per kept (series, object)" (Hashtbl.length kept)
    (List.length rows);
  List.iter
    (fun (id, s) ->
      let name = Printf.sprintf "%s on %d" s.Stats.sm_name id in
      Alcotest.(check int) (name ^ ": one sample per kept stamp")
        (Hashtbl.find kept (s.Stats.sm_name, id))
        s.Stats.sm_samples;
      let reg_max = (Stats.span_summary stats s.Stats.sm_name).Stats.sm_max in
      List.iter
        (fun (what, v) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s %d ns within [0, %d]" name what v reg_max)
            true
            (v >= 0 && v <= reg_max))
        Stats.
          [
            ("mean", s.sm_mean);
            ("p50", s.sm_p50);
            ("p90", s.sm_p90);
            ("p99", s.sm_p99);
            ("max", s.sm_max);
          ])
    rows

let () =
  Alcotest.run "analyze"
    [
      ( "classify",
        [
          Alcotest.test_case "private" `Quick test_classify_private;
          Alcotest.test_case "read-mostly" `Quick test_classify_read_mostly;
          Alcotest.test_case "migratory" `Quick test_classify_migratory;
          Alcotest.test_case "false sharing" `Quick test_classify_false_sharing;
          Alcotest.test_case "producer-consumer" `Quick test_classify_producer_consumer;
          Alcotest.test_case "single writer" `Quick test_classify_single_writer;
        ] );
      ( "critical-path",
        [
          Alcotest.test_case "stage arithmetic" `Quick test_critical_path_stages;
          Alcotest.test_case "migration stage" `Quick test_migration_stage;
        ] );
      ( "stages = registry",
        List.map
          (fun (name, protocol, expect, run) ->
            Alcotest.test_case name `Quick
              (check_stages_match_registry ~protocol ~expect run))
          stage_runs );
      ( "sync = registry",
        List.map
          (fun (name, expect, run) ->
            Alcotest.test_case name `Quick (check_sync_matches_registry ~expect run))
          sync_runs );
      ( "contention",
        [
          Alcotest.test_case "lock wait and hold" `Quick test_lock_contention;
          Alcotest.test_case "barrier waits" `Quick test_barrier_waits;
          Alcotest.test_case "capped tsp ring" `Quick
            (check_capped_sync ~capacity:101
               ~expect:Instrument.[ lock_hold; lock_wait ]
               (tsp ~tie_seed:3 "li_hudak"));
          Alcotest.test_case "capped jacobi ring" `Quick
            (check_capped_sync ~capacity:301 ~expect:[ Instrument.barrier_wait ]
               (jacobi ~tie_seed:3 "hbrc_mw"));
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "round-trip all variants" `Quick test_of_jsonl_round_trip;
          Alcotest.test_case "rejects garbage" `Quick test_of_jsonl_rejects_garbage;
          Alcotest.test_case "rejects negative ids" `Quick
            test_of_jsonl_rejects_negative_ids;
        ] );
      ( "tsp",
        [
          Alcotest.test_case "bound page end to end" `Quick
            test_tsp_bound_page_end_to_end;
        ] );
      ( "exports",
        [
          Alcotest.test_case "json re-parses" `Quick test_json_export_parses;
          Alcotest.test_case "folded shape" `Quick test_folded_output_shape;
        ] );
    ]
