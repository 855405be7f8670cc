(* The observability layer: typed events, JSONL round-trip, causal span
   linkage across nodes, determinism of the exported trace, and the JSON
   metrics snapshot. *)

open Dsmpm2_sim
open Dsmpm2_net
open Dsmpm2_core
open Dsmpm2_protocols

(* --- typed-event JSONL round-trip --- *)

let sample_events =
  [
    Trace.Fault { node = 1; page = 3; protocol = "li_hudak"; mode = "read" };
    Trace.Page_request
      { node = 0; page = 3; protocol = "li_hudak"; mode = "write"; requester = 1 };
    Trace.Page_send
      { node = 0; page = 3; protocol = "li_hudak"; dst = 1; bytes = 4096; grant = "RW" };
    Trace.Page_install
      { node = 1; page = 3; protocol = "li_hudak"; sender = 0; grant = "R" };
    Trace.Invalidate { node = 2; page = 7; protocol = "hbrc_mw"; sender = 0 };
    Trace.Diff
      {
        node = 0;
        pages = 2;
        page_list = [ 4; 9 ];
        bytes = 96;
        sender = 3;
        release = true;
        protocol = "hbrc_mw";
      };
    Trace.Lock { node = 1; lock = 4; op = Trace.Acquire };
    Trace.Lock { node = 2; lock = 4; op = Trace.Release };
    Trace.Barrier { node = 2; barrier = 0 };
    Trace.Migration { thread = 9; src = 0; dst = 3 };
    Trace.Alert
      {
        severity = Trace.Critical;
        kind = "deadlock.cycle";
        node = 1;
        detail = "thread 3 (node 1) waits for lock 0";
      };
    Trace.Drop { src = 0; dst = 2; kind = "msg.request" };
    Trace.Blackhole { src = 1; dst = 2; kind = "msg.bulk"; down = 2 };
    Trace.Crash { node = 2; up = Time.of_us 368. };
    Trace.Restart { node = 2 };
    Trace.Rpc_retry { service = "dsm.page_fetch"; src = 0; dst = 2; attempt = 3 };
    Trace.Stage
      { node = 1; protocol = "li_hudak"; stage = Instrument.stage_total; obj = 3; ns = 120_300 };
    Trace.Stage
      { node = 2; protocol = "hbrc_mw"; stage = Instrument.barrier_wait; obj = 0; ns = 617_000 };
  ]

let test_event_json_round_trip () =
  List.iteri
    (fun i ev ->
      let at = Time.of_us (float_of_int (i * 10)) in
      let span = if i mod 2 = 0 then i else Trace.no_span in
      let json = Trace.event_to_json ~at ~span ev in
      let line = Json.to_string json in
      match Json.of_string line with
      | Error msg -> Alcotest.failf "event %d: unparseable JSON %s: %s" i line msg
      | Ok parsed -> (
          match Trace.event_of_json parsed with
          | None -> Alcotest.failf "event %d: did not decode from %s" i line
          | Some (at', span', ev') ->
              Alcotest.(check int) "timestamp survives" at at';
              Alcotest.(check int) "span survives" span span';
              Alcotest.(check bool) "event survives" true (ev = ev')))
    sample_events

let test_jsonl_export_shape () =
  let eng = Engine.create () in
  let trace = Trace.create ~enabled:true () in
  List.iter (fun ev -> Trace.emit trace eng ev) sample_events;
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  Trace.to_jsonl fmt trace;
  Format.pp_print_flush fmt ();
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (Buffer.contents buf))
  in
  Alcotest.(check int) "one line per event" (List.length sample_events)
    (List.length lines);
  List.iter
    (fun line ->
      match Json.of_string line with
      | Error msg -> Alcotest.failf "bad JSONL line %s: %s" line msg
      | Ok json ->
          Alcotest.(check bool) "line decodes to an event" true
            (Trace.event_of_json json <> None))
    lines

(* --- watchdog alerts in the JSONL format --- *)

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let severities = Trace.[ Info; Warning; Critical ]

let test_alert_round_trip () =
  (* Every severity survives the JSONL round-trip with every field
     intact. *)
  List.iter
    (fun severity ->
      let name = Trace.severity_to_string severity in
      Alcotest.(check (option string)) "severity name parses back" (Some name)
        (Option.map Trace.severity_to_string (Trace.severity_of_string name));
      let ev =
        Trace.Alert
          { severity; kind = "invariant.owner"; node = 3; detail = "page 7: no owner" }
      in
      let json = Trace.event_to_json ~at:(Time.of_us 12.) ~span:Trace.no_span ev in
      match Json.of_string (Json.to_string json) with
      | Error msg -> Alcotest.failf "alert (%s) unparseable: %s" name msg
      | Ok parsed -> (
          match Trace.event_of_json parsed with
          | Some (at, span, (Trace.Alert a as ev')) ->
              Alcotest.(check int) "timestamp survives" (Time.of_us 12.) at;
              Alcotest.(check int) "span survives" Trace.no_span span;
              Alcotest.(check bool) "severity survives" true (a.severity = severity);
              Alcotest.(check string) "kind survives" "invariant.owner" a.kind;
              Alcotest.(check int) "node survives" 3 a.node;
              Alcotest.(check string) "detail survives" "page 7: no owner" a.detail;
              Alcotest.(check bool) "whole event equal" true (ev = ev')
          | _ -> Alcotest.failf "alert (%s) did not decode" name))
    severities

let test_alert_rejects_bad_severity () =
  let ev =
    Trace.Alert { severity = Trace.Warning; kind = "thrash.page"; node = 0; detail = "d" }
  in
  let json = Trace.event_to_json ~at:0 ~span:Trace.no_span ev in
  let patched =
    match json with
    | Json.Obj kvs ->
        Json.Obj
          (List.map
             (fun (k, v) -> if k = "severity" then (k, Json.String "fatal") else (k, v))
             kvs)
    | _ -> Alcotest.fail "alert JSON is not an object"
  in
  Alcotest.(check bool) "made-up severity rejected" true
    (Trace.event_of_json patched = None);
  match Trace.of_jsonl (Json.to_string patched) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "of_jsonl accepted an alert with a made-up severity"

(* --- QCheck: mixed event streams round-trip through JSONL --- *)

let gen_event =
  let open QCheck.Gen in
  let name = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
  let text =
    string_size ~gen:(oneofl [ 'a'; 'z'; ' '; '"'; '\\'; '/' ]) (int_range 0 12)
  in
  oneof
    [
      (let* node = int_bound 7 and* page = int_bound 99 and* protocol = name in
       let* mode = oneofl [ "read"; "write" ] in
       return (Trace.Fault { node; page; protocol; mode }));
      (let* node = int_bound 7 and* lock = int_bound 9 in
       let* op = oneofl [ Trace.Acquire; Trace.Release ] in
       return (Trace.Lock { node; lock; op }));
      (let* node = int_bound 7 and* barrier = int_bound 9 in
       return (Trace.Barrier { node; barrier }));
      (let* thread = int_bound 31 and* src = int_bound 7 and* dst = int_bound 7 in
       return (Trace.Migration { thread; src; dst }));
      (let* severity = oneofl severities in
       let* kind = name and* node = int_bound 7 and* detail = text in
       return (Trace.Alert { severity; kind; node; detail }));
      (let* src = int_bound 7 and* dst = int_bound 7 and* kind = name in
       return (Trace.Drop { src; dst; kind }));
      (let* src = int_bound 7 and* dst = int_bound 7 and* kind = name in
       let* down = int_bound 7 in
       return (Trace.Blackhole { src; dst; kind; down }));
      (let* node = int_bound 7 and* up_us = int_bound 5000 in
       return (Trace.Crash { node; up = Time.of_us (float_of_int up_us) }));
      (let* node = int_bound 7 in
       return (Trace.Restart { node }));
      (let* service = name and* src = int_bound 7 and* dst = int_bound 7 in
       let* attempt = int_range 1 9 in
       return (Trace.Rpc_retry { service; src; dst; attempt }));
      (let* node = int_bound 7 and* protocol = name in
       let* stage =
         oneofl Instrument.(lock_wait :: lock_hold :: barrier_wait :: stages)
       and* obj = int_bound 99
       and* ns = int_bound 1_000_000 in
       return (Trace.Stage { node; protocol; stage; obj; ns }));
    ]

let prop_jsonl_round_trip =
  QCheck.Test.make ~name:"mixed event streams round-trip through JSONL" ~count:100
    (QCheck.make
       ~print:(fun evs -> Printf.sprintf "<%d events>" (List.length evs))
       QCheck.Gen.(list_size (int_range 0 20) gen_event))
    (fun evs ->
      let eng = Engine.create () in
      let tr = Trace.create ~enabled:true () in
      List.iter (fun ev -> Trace.emit tr eng ev) evs;
      let buf = Buffer.create 256 in
      let fmt = Format.formatter_of_buffer buf in
      Trace.to_jsonl fmt tr;
      Format.pp_print_flush fmt ();
      match Trace.of_jsonl (Buffer.contents buf) with
      | Error _ -> false
      | Ok tr' -> Trace.events tr' = Trace.events tr)

(* --- span linkage: one cold li_hudak read fault on 2 nodes --- *)

let cold_fault_dsm () =
  let dsm = Dsm.create ~nodes:2 ~driver:Driver.bip_myrinet () in
  let ids = Builtin.register_all dsm in
  Monitor.enable dsm true;
  let x = Dsm.malloc dsm ~protocol:ids.Builtin.li_hudak ~home:(Dsm.On_node 1) 8 in
  ignore (Dsm.spawn dsm ~node:0 (fun () -> ignore (Dsm.read_int dsm x)));
  Dsm.run dsm;
  dsm

let test_span_links_cold_fault () =
  let dsm = cold_fault_dsm () in
  let trace = Monitor.trace dsm in
  (* Exactly one fault, so exactly one span; every stage of the access must
     carry it, across both nodes. *)
  let faults =
    List.filter
      (function _, _, Trace.Fault _ -> true | _ -> false)
      (Trace.events trace)
  in
  Alcotest.(check int) "one fault" 1 (List.length faults);
  let _, span, _ = List.hd faults in
  Alcotest.(check bool) "fault has a real span" true (span <> Trace.no_span);
  let chain =
    match List.assoc_opt span (Trace.spans trace) with
    | Some chain -> chain
    | None -> Alcotest.fail "the fault's span has no events"
  in
  let category (_, _, ev) = Trace.event_category ev in
  let has cat = List.exists (fun x -> category x = cat) chain in
  Alcotest.(check bool) "request in span" true (has "request");
  Alcotest.(check bool) "send in span" true (has "page.send");
  Alcotest.(check bool) "install in span" true (has "page");
  (* The request is served on node 1 while the fault is on node 0: the span
     crosses the node boundary. *)
  let nodes =
    List.sort_uniq compare
      (List.filter
         (fun n -> n >= 0)
         (List.map (fun (_, _, ev) -> Trace.event_node ev) chain))
  in
  Alcotest.(check (list int)) "span crosses nodes" [ 0; 1 ] nodes;
  (* Causal order within the span: fault <= request <= send <= install. *)
  let at cat =
    match List.find_opt (fun x -> category x = cat) chain with
    | Some (at, _, _) -> at
    | None -> Alcotest.failf "missing %s event" cat
  in
  Alcotest.(check bool) "fault before request" true (at "fault" <= at "request");
  Alcotest.(check bool) "request before send" true (at "request" <= at "page.send");
  Alcotest.(check bool) "send before install" true (at "page.send" <= at "page")

(* --- determinism: same seed, same exported trace --- *)

let exported_trace () =
  let dsm = cold_fault_dsm () in
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  Trace.to_jsonl fmt (Monitor.trace dsm);
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let test_trace_deterministic () =
  Alcotest.(check string) "same seed, same trace" (exported_trace ()) (exported_trace ())

let test_chrome_export_valid () =
  let dsm = cold_fault_dsm () in
  let json = Trace.chrome_json (Monitor.trace dsm) in
  (* The export must survive its own parser and keep the trace_event
     required fields on every event. *)
  match Json.of_string (Json.to_string json) with
  | Error msg -> Alcotest.failf "chrome export is not valid JSON: %s" msg
  | Ok parsed ->
      let events =
        match Json.member "traceEvents" parsed with
        | Some (Json.List evs) -> evs
        | _ -> Alcotest.fail "no traceEvents array"
      in
      Alcotest.(check bool) "has events" true (events <> []);
      List.iter
        (fun ev ->
          List.iter
            (fun field ->
              Alcotest.(check bool) ("event has " ^ field) true
                (Json.member field ev <> None))
            [ "name"; "ph"; "ts"; "pid"; "args" ])
        events

(* --- metrics snapshot --- *)

let test_metrics_snapshot () =
  let dsm = cold_fault_dsm () in
  let json = Monitor.to_json ~experiment:"cold_fault" dsm in
  (match Json.member "experiment" json with
  | Some (Json.String s) -> Alcotest.(check string) "experiment label" "cold_fault" s
  | _ -> Alcotest.fail "missing experiment label");
  (* The registry recorded the read fault on node 0 under li_hudak. *)
  let st = Dsm.stats dsm in
  let at node = Stats.labels ~node ~protocol:"li_hudak" () in
  Alcotest.(check int) "read fault counted" 1
    (Stats.count ~labels:(at 0) st Instrument.read_faults);
  Alcotest.(check int) "page send counted" 1
    (Stats.count ~labels:(at 1) st Instrument.pages_sent);
  Alcotest.(check bool) "fault latency observed" true
    (Sketch.percentile (Stats.span_sketch ~labels:(at 0) st Instrument.stage_total) 99. > 0);
  (* And the snapshot round-trips through the JSON printer/parser. *)
  match Json.of_string (Json.to_string json) with
  | Error msg -> Alcotest.failf "snapshot is not valid JSON: %s" msg
  | Ok _ -> ()

(* Every unlabelled total is the sum of its labelled series, in the
   runtime's registry and the network's alike. *)
let test_rollups_sum_label_sets () =
  let captured = ref None in
  ignore
    (Dsmpm2_apps.Jacobi.run
       {
         Dsmpm2_apps.Jacobi.default with
         size = 32;
         iterations = 2;
         protocol = "hbrc_mw";
         observe = Some (fun dsm -> captured := Some dsm);
       });
  let dsm = Option.get !captured in
  let st = Dsm.stats dsm in
  Alcotest.(check bool) "faults recorded" true (Stats.count st Instrument.read_faults > 0);
  List.iter
    (fun st ->
      let sets = Stats.label_sets st in
      let over f = List.fold_left (fun acc labels -> acc + f labels) 0 sets in
      List.iter
        (fun (name, total) ->
          Alcotest.(check int) name total
            (over (fun labels -> Stats.count ~labels st name)))
        (Stats.counters st);
      List.iter
        (fun s ->
          let name = s.Stats.sm_name in
          Alcotest.(check int) (name ^ " samples") s.Stats.sm_samples
            (over (fun labels -> (Stats.span_summary ~labels st name).Stats.sm_samples));
          Alcotest.(check int) (name ^ " total") s.Stats.sm_total
            (over (fun labels -> (Stats.span_summary ~labels st name).Stats.sm_total)))
        (Stats.span_summaries st))
    [ st; Network.stats (Dsmpm2_pm2.Pm2.network (Dsm.pm2 dsm)) ]

let test_prometheus_export () =
  let dsm = cold_fault_dsm () in
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  Stats.to_prometheus fmt (Dsm.stats dsm);
  Format.pp_print_flush fmt ();
  let text = Buffer.contents buf in
  let lines = String.split_on_char '\n' text in
  let has l = List.mem l lines in
  (* Counters: sanitized name, _total suffix, node/protocol labels. *)
  Alcotest.(check bool) "counter TYPE line" true
    (has "# TYPE dsm_fault_read_total counter");
  Alcotest.(check bool) "read-fault sample" true
    (has {|dsm_fault_read_total{node="0",protocol="li_hudak"} 1|});
  Alcotest.(check bool) "page-send sample" true
    (has {|dsm_page_sent_total{node="1",protocol="li_hudak"} 1|});
  (* Durations: histograms in microseconds whose cumulative buckets sit at
     the sketch's bucket edges, plus _sum/_count — histogram_quantile
     aggregates them across nodes.  The one cold fault takes 198 us (Table
     3): 198 000 ns shares its top bit (2^17) and the next 6 bits with
     196 608 .. 198 655 ns, so its bucket's edge is 198.655 us. *)
  Alcotest.(check bool) "histogram TYPE line" true
    (has "# TYPE dsm_stage_total_us histogram");
  let edge = 198.655 in
  Alcotest.(check bool) "sketch-edge bucket sample" true
    (has
       (Printf.sprintf {|dsm_stage_total_us_bucket{node="0",protocol="li_hudak",le="%g"} 1|}
          edge));
  Alcotest.(check bool) "+Inf bucket closes the histogram" true
    (has {|dsm_stage_total_us_bucket{node="0",protocol="li_hudak",le="+Inf"} 1|});
  Alcotest.(check bool) "sum sample" true
    (has {|dsm_stage_total_us_sum{node="0",protocol="li_hudak"} 198|});
  Alcotest.(check bool) "count sample" true
    (has {|dsm_stage_total_us_count{node="0",protocol="li_hudak"} 1|});
  (* Names already starting with dsm_ are not double-prefixed. *)
  Alcotest.(check bool) "no doubled dsm_ prefix" false (contains text "dsm_dsm_")

(* --- Monitor.summary: deterministic ordering on tied counts --- *)

let test_summary_tie_order () =
  let dsm = Dsm.create ~nodes:1 ~driver:Driver.bip_myrinet () in
  Monitor.enable dsm true;
  let emit ev = Monitor.emit dsm ~span:Trace.no_span ev in
  (* Three categories, one event each: a three-way tie that hashtable
     iteration order used to break arbitrarily. *)
  List.iter emit
    [
      Trace.Restart { node = 0 };
      Trace.Barrier { node = 0; barrier = 0 };
      Trace.Lock { node = 0; lock = 0; op = Trace.Acquire };
    ];
  emit (Trace.Migration { thread = 1; src = 0; dst = 0 });
  emit (Trace.Migration { thread = 2; src = 0; dst = 0 });
  let order = List.map (fun l -> l.Monitor.category) (Monitor.summary dsm) in
  Alcotest.(check (list string))
    "count descending, name ascending on ties"
    [ "migrate"; "barrier"; "lock"; "restart" ]
    order

(* --- flight recorder: bounded ring, eviction accounting, autodump --- *)

let test_ring_eviction_bounds () =
  let eng = Engine.create () in
  let tr = Trace.create ~enabled:true () in
  Trace.set_capacity tr 64;
  Alcotest.(check (option int)) "capacity readable" (Some 64) (Trace.capacity tr);
  for i = 0 to 199 do
    Trace.emit tr eng (Trace.Barrier { node = 0; barrier = i })
  done;
  Alcotest.(check int) "ring holds exactly the capacity" 64 (Trace.length tr);
  Alcotest.(check int) "every emit was recorded" 200 (Trace.recorded tr);
  Alcotest.(check int) "the rest were evicted" 136 (Trace.evicted tr);
  (* The survivors are the newest 64, still in chronological order. *)
  let barriers =
    List.filter_map
      (fun (_, _, ev) ->
        match ev with Trace.Barrier { barrier; _ } -> Some barrier | _ -> None)
      (Trace.events tr)
  in
  Alcotest.(check (list int)) "newest events kept, in order"
    (List.init 64 (fun i -> 136 + i))
    barriers

let test_ring_shrink_drops_oldest () =
  let eng = Engine.create () in
  let tr = Trace.create ~enabled:true () in
  for i = 0 to 9 do
    Trace.emit tr eng (Trace.Barrier { node = 0; barrier = i })
  done;
  Trace.set_capacity tr 3;
  Alcotest.(check int) "shrunk to the new bound" 3 (Trace.length tr);
  Alcotest.(check int) "evictions counted" 7 (Trace.evicted tr);
  let barriers =
    List.filter_map
      (fun (_, _, ev) ->
        match ev with Trace.Barrier { barrier; _ } -> Some barrier | _ -> None)
      (Trace.events tr)
  in
  Alcotest.(check (list int)) "newest three kept" [ 7; 8; 9 ] barriers

let test_recorded_counts_across_eviction () =
  let eng = Engine.create () in
  let tr = Trace.create ~enabled:true () in
  Trace.set_capacity tr 4;
  for i = 0 to 5 do
    Trace.emit tr eng (Trace.Barrier { node = 0; barrier = i })
  done;
  (* Overwritten events are gone for good: every reader sees what is
     stored, while [recorded] keeps counting every emission. *)
  Alcotest.(check int) "recorded counts evicted events" 6 (Trace.recorded tr);
  Alcotest.(check int) "clamped to what is stored" 4 (Trace.length tr);
  Alcotest.(check int) "evicted = recorded - length" 2 (Trace.evicted tr);
  let seen = ref [] in
  Trace.iter tr (fun ~at:_ ~span:_ ev ->
      match ev with
      | Trace.Barrier { barrier; _ } -> seen := barrier :: !seen
      | _ -> ());
  Alcotest.(check (list int)) "iter walks the survivors in order" [ 2; 3; 4; 5 ]
    (List.rev !seen);
  Alcotest.(check int) "events agrees with iter" 4 (List.length (Trace.events tr))

let test_iter_full_ring_allocates_nothing () =
  let eng = Engine.create () in
  let tr = Trace.create ~enabled:true () in
  Trace.set_capacity tr 128;
  for i = 0 to 499 do
    Trace.emit tr eng (Trace.Barrier { node = 0; barrier = i })
  done;
  let n = ref 0 in
  let count ~at:_ ~span:_ _ = incr n in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    Trace.iter tr count
  done;
  let after = Gc.minor_words () in
  Alcotest.(check int) "every stored event visited" (1000 * 128) !n;
  Alcotest.(check bool) "walking the ring is allocation-free" true
    (after -. before < 256.)

let test_emit_into_full_ring_allocates_nothing () =
  let eng = Engine.create () in
  let tr = Trace.create ~enabled:true () in
  Trace.set_capacity tr 64;
  let ev = Trace.Fault { node = 1; page = 3; protocol = "li_hudak"; mode = "read" } in
  for _ = 1 to 64 do
    Trace.emit tr eng ev
  done;
  let calls = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    Trace.emit tr eng ev
  done;
  let after = Gc.minor_words () in
  Alcotest.(check bool) "emit allocates < 1 word per call" true
    (after -. before < float_of_int calls)

(* A freshly built event equal to the [i]-th of 256 distinct ones: a
   [Fault] or a [Diff] over 128 (node, page) keys. *)
let fresh_dsm_event i =
  let key = (i / 2) mod 128 in
  let node = key / 16 and page = key mod 16 in
  if i land 1 = 0 then Trace.Fault { node; page; protocol = "hbrc_mw"; mode = "write" }
  else
    Trace.Diff
      { node; pages = 1; page_list = [ page ]; bytes = 64; sender = (node + 1) mod 8;
        release = true; protocol = "hbrc_mw" }

let test_full_ring_promotes_nothing () =
  (* Storing each fresh event in the long-lived ring would promote it at
     the next minor GC (8 words per event here); the ring stores the
     interned equal event instead, so the fresh one dies young. *)
  let eng = Engine.create () in
  let tr = Trace.create ~enabled:true () in
  Trace.set_capacity tr 4096;
  for i = 0 to 8191 do
    Trace.emit tr eng (fresh_dsm_event i)
  done;
  Gc.minor ();
  let promoted () = (Gc.quick_stat ()).Gc.promoted_words in
  let before = promoted () in
  let n = 100_000 in
  for i = 1 to n do
    Trace.emit tr eng (fresh_dsm_event i);
    if i mod 1000 = 0 then Gc.minor ()
  done;
  let words = (promoted () -. before) /. float_of_int n in
  Alcotest.(check int) "ring full" 4096 (Trace.length tr);
  Alcotest.(check bool) (Printf.sprintf "promoted %.3f words per event" words) true (words < 1.)

let test_equal_events_shared () =
  let eng = Engine.create () in
  let tr = Trace.create ~enabled:true () in
  for i = 0 to 511 do
    Trace.emit tr eng (fresh_dsm_event i)
  done;
  let barrier = Sys.opaque_identity 1 in
  Trace.emit tr eng (Trace.Barrier { node = 0; barrier });
  Trace.emit tr eng (Trace.Barrier { node = 0; barrier });
  let evs = Array.of_list (List.map (fun (_, _, ev) -> ev) (Trace.events tr)) in
  for i = 0 to 255 do
    Alcotest.(check bool) "equal events" true (evs.(i) = evs.(i + 256));
    Alcotest.(check bool) "stored once" true (evs.(i) == evs.(i + 256))
  done;
  Alcotest.(check bool) "other kinds stored as emitted" false (evs.(512) == evs.(513))

let test_autodump_on_critical_alert () =
  let eng = Engine.create () in
  let tr = Trace.create ~enabled:true () in
  Trace.set_capacity tr 16;
  let path = Filename.temp_file "dsm_autodump" ".jsonl" in
  Trace.set_autodump tr path;
  Alcotest.(check bool) "armed but not fired" false (Trace.autodump_fired tr);
  for i = 0 to 39 do
    Trace.emit tr eng (Trace.Barrier { node = 0; barrier = i })
  done;
  Trace.emit tr eng
    (Trace.Alert
       { severity = Trace.Warning; kind = "thrash.page"; node = 0; detail = "w" });
  Alcotest.(check bool) "warnings do not trip the recorder" false
    (Trace.autodump_fired tr);
  Trace.emit tr eng
    (Trace.Alert
       { severity = Trace.Critical; kind = "deadlock.stall"; node = 1; detail = "c" });
  Alcotest.(check bool) "critical alert dumps" true (Trace.autodump_fired tr);
  (* The dump is the ring at the instant of the alert, re-loadable, ending
     with the alert itself. *)
  (match Trace.load_jsonl path with
  | Error msg -> Alcotest.failf "autodump unreadable: %s" msg
  | Ok dumped ->
      Alcotest.(check int) "dump is the ring" 16 (Trace.length dumped);
      let last =
        match List.rev (Trace.events dumped) with
        | (_, _, ev) :: _ -> ev
        | [] -> Alcotest.fail "empty dump"
      in
      Alcotest.(check bool) "last event is the critical alert" true
        (match last with
        | Trace.Alert { severity = Trace.Critical; kind = "deadlock.stall"; _ } ->
            true
        | _ -> false));
  (* Second critical alert while fired: no re-dump (the file keeps the first
     incident). *)
  Sys.remove path;
  Trace.emit tr eng
    (Trace.Alert
       {
         severity = Trace.Critical;
         kind = "deadlock.stall";
         node = 1;
         detail = "again";
       });
  Alcotest.(check bool) "disarmed after firing" false (Sys.file_exists path)

(* --- Monitor.to_prometheus: runtime + network + derived counters --- *)

let test_monitor_prometheus_export () =
  let dsm = cold_fault_dsm () in
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  Monitor.to_prometheus fmt dsm;
  Format.pp_print_flush fmt ();
  let text = Buffer.contents buf in
  let lines = String.split_on_char '\n' text in
  let has l = List.mem l lines in
  (* The runtime registry is still there... *)
  Alcotest.(check bool) "runtime counter present" true
    (has {|dsm_fault_read_total{node="0",protocol="li_hudak"} 1|});
  (* ...plus the derived network and trace gauges of Monitor.to_json. *)
  Alcotest.(check bool) "loopback counter" true
    (List.exists (fun l -> contains l "dsm_net_loopback_total") lines);
  Alcotest.(check bool) "drop counter" true
    (List.exists (fun l -> contains l "dsm_net_dropped_total") lines);
  Alcotest.(check bool) "per-kind drop counter" true
    (List.exists (fun l -> contains l "dsm_msg_request_dropped_total") lines);
  Alcotest.(check bool) "trace eviction counter" true
    (List.exists (fun l -> contains l "dsm_trace_evicted_total") lines);
  Alcotest.(check bool) "no doubled dsm_ prefix" false (contains text "dsm_dsm_")

let test_monitor_json_network_fields () =
  let dsm = cold_fault_dsm () in
  let json = Monitor.to_json ~experiment:"cold_fault" dsm in
  let net =
    match Json.member "network" json with
    | Some n -> n
    | None -> Alcotest.fail "no network object"
  in
  List.iter
    (fun field ->
      Alcotest.(check bool) ("network has " ^ field) true
        (Json.member field net <> None))
    [ "loopback"; "dropped"; "dropped_by_kind" ];
  let tr =
    match Json.member "trace" json with
    | Some t -> t
    | None -> Alcotest.fail "no trace object"
  in
  List.iter
    (fun field ->
      Alcotest.(check bool) ("trace has " ^ field) true
        (Json.member field tr <> None))
    [ "events"; "recorded"; "evicted"; "capacity" ]

let test_disabled_monitor_no_events () =
  let dsm = Dsm.create ~nodes:2 ~driver:Driver.bip_myrinet () in
  let ids = Builtin.register_all dsm in
  let x = Dsm.malloc dsm ~protocol:ids.Builtin.li_hudak ~home:(Dsm.On_node 1) 8 in
  ignore (Dsm.spawn dsm ~node:0 (fun () -> ignore (Dsm.read_int dsm x)));
  Dsm.run dsm;
  Alcotest.(check int) "no events recorded" 0 (Trace.length (Monitor.trace dsm));
  Alcotest.(check int) "spans not minted" Trace.no_span (Monitor.new_span dsm)

let test_current_span_off_outside_threads () =
  (* With monitoring off there is no span to find, so no thread is looked
     up: outside any Marcel thread the answer is still [no_span]. *)
  let dsm = Dsm.create ~nodes:2 ~driver:Driver.bip_myrinet () in
  Alcotest.(check int) "no span" Trace.no_span (Monitor.current_span dsm)

let test_span_bookkeeping_allocates_nothing () =
  (* Two threads take turns, so each [Marcel.self] follows a fiber switch;
     it and [with_thread_span] (monitoring on) are array and field reads.
     A yield's own allocation is the same in both loops and cancels. *)
  let dsm = Dsm.create ~nodes:1 ~driver:Driver.bip_myrinet () in
  Monitor.enable dsm true;
  let marcel = Runtime.marcel dsm in
  let n = 1_000 in
  let body () = () in
  let words_of_turns ~lookups =
    let words = ref 0. in
    for i = 0 to 1 do
      ignore
        (Dsm.spawn dsm ~node:0 (fun () ->
             for _ = 1 to 16 do Dsmpm2_pm2.Marcel.yield marcel done;
             let before = Gc.minor_words () in
             for _ = 1 to n do
               Dsmpm2_pm2.Marcel.yield marcel;
               if lookups then begin
                 ignore (Sys.opaque_identity (Dsmpm2_pm2.Marcel.self marcel));
                 Monitor.with_thread_span dsm i body
               end
             done;
             words := !words +. (Gc.minor_words () -. before)))
    done;
    Dsm.run dsm;
    !words
  in
  let base = words_of_turns ~lookups:false in
  let per_call = (words_of_turns ~lookups:true -. base) /. float_of_int (2 * n) in
  Alcotest.(check bool)
    (Printf.sprintf "self + with_thread_span: %.3f words/call" per_call)
    true (per_call < 1.)

(* --- byte identity of the exported trace ---

   These digests pin every byte of the JSONL dump of a seeded, watched run,
   bounded and sampled or not: they move only when what a run records or
   how an event is exported changes. *)

let monitored_jacobi ~protocol ~bounded =
  let trace = ref None in
  let observe dsm =
    Monitor.enable dsm true;
    let tr = Monitor.trace dsm in
    if bounded then begin
      Trace.set_capacity tr 64;
      Trace.set_sampling tr ~seed:11 ~keep_pct:10.
    end;
    ignore (Watchdog.attach dsm);
    trace := Some tr
  in
  ignore
    (Dsmpm2_apps.Jacobi.run
       {
         Dsmpm2_apps.Jacobi.default with
         size = 32;
         iterations = 4;
         nodes = 4;
         protocol;
         tie_seed = Some 3;
         observe = Some observe;
       });
  match !trace with Some tr -> tr | None -> Alcotest.fail "observe not called"

let jsonl_digest tr =
  let path = Filename.temp_file "dsm_pin" ".jsonl" in
  Trace.save_jsonl path tr;
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  Digest.to_hex (Digest.string contents)

let test_rendering_pinned () =
  List.iter
    (fun (protocol, bounded, digest) ->
      let tr = monitored_jacobi ~protocol ~bounded in
      let name = Printf.sprintf "%s%s" protocol (if bounded then " ring" else "") in
      Alcotest.(check string) (name ^ " jsonl digest") digest (jsonl_digest tr))
    [
      ("write_update", false, "090e7b4e46f0071cc25ca90a7a1c1ef4");
      ("write_update", true, "7f2f5add0f42a37903b780151ff59bee");
      ("hbrc_mw", false, "60d9275c27c0009e58d740b196d0fc60");
      ("hbrc_mw", true, "9f4f172e63782207a9395aabae907b96");
    ]

let test_chrome_renders_events () =
  (* Text is made only where it is printed: the Chrome export renders each
     stored event with [event_category] and [event_message], and the stored
     triples come back exactly as emitted. *)
  let eng = Engine.create () in
  let tr = Trace.create ~enabled:true () in
  List.iter (fun ev -> Trace.emit tr eng ~span:5 ev) sample_events;
  Alcotest.(check bool) "events are the emitted triples" true
    (Trace.events tr = List.map (fun ev -> (Time.zero, 5, ev)) sample_events);
  let rendered =
    match Json.member "traceEvents" (Trace.chrome_json tr) with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "no traceEvents list"
  in
  Alcotest.(check int) "one chrome event per stored event"
    (List.length sample_events) (List.length rendered);
  List.iter2
    (fun json ev ->
      let str path =
        List.fold_left
          (fun j key -> Option.bind j (Json.member key))
          (Some json) path
        |> Fun.flip Option.bind Json.to_str
      in
      Alcotest.(check (option string)) "category" (Some (Trace.event_category ev))
        (str [ "name" ]);
      Alcotest.(check (option string)) "message" (Some (Trace.event_message ev))
        (str [ "args"; "detail" ]);
      Alcotest.(check (option int)) "span" (Some 5)
        (Option.bind (Json.member "tid" json) Json.to_int))
    rendered sample_events

let () =
  Alcotest.run "observability"
    [
      ( "jsonl",
        [
          Alcotest.test_case "event round-trip" `Quick test_event_json_round_trip;
          Alcotest.test_case "export shape" `Quick test_jsonl_export_shape;
          Alcotest.test_case "alert round-trip" `Quick test_alert_round_trip;
          Alcotest.test_case "alert rejects bad severity" `Quick
            test_alert_rejects_bad_severity;
          QCheck_alcotest.to_alcotest prop_jsonl_round_trip;
        ] );
      ( "spans",
        [
          Alcotest.test_case "cold fault linkage" `Quick test_span_links_cold_fault;
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_monitor_no_events;
          Alcotest.test_case "current span off outside threads" `Quick
            test_current_span_off_outside_threads;
          Alcotest.test_case "span bookkeeping allocates nothing" `Quick
            test_span_bookkeeping_allocates_nothing;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed same trace" `Quick test_trace_deterministic;
          Alcotest.test_case "rendering pinned" `Quick test_rendering_pinned;
          Alcotest.test_case "chrome renders events" `Quick
            test_chrome_renders_events;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "chrome trace valid" `Quick test_chrome_export_valid;
          Alcotest.test_case "metrics snapshot" `Quick test_metrics_snapshot;
          Alcotest.test_case "rollups sum the label sets" `Quick
            test_rollups_sum_label_sets;
          Alcotest.test_case "prometheus text format" `Quick test_prometheus_export;
          Alcotest.test_case "monitor prometheus export" `Quick
            test_monitor_prometheus_export;
          Alcotest.test_case "monitor json network fields" `Quick
            test_monitor_json_network_fields;
          Alcotest.test_case "summary tie order" `Quick test_summary_tie_order;
        ] );
      ( "flight recorder",
        [
          Alcotest.test_case "ring eviction bounds" `Quick test_ring_eviction_bounds;
          Alcotest.test_case "shrink drops oldest" `Quick
            test_ring_shrink_drops_oldest;
          Alcotest.test_case "recorded counts across eviction" `Quick
            test_recorded_counts_across_eviction;
          Alcotest.test_case "iter over a full ring allocates nothing" `Quick
            test_iter_full_ring_allocates_nothing;
          Alcotest.test_case "emit into a full ring allocates nothing" `Quick
            test_emit_into_full_ring_allocates_nothing;
          Alcotest.test_case "full ring promotes nothing" `Quick
            test_full_ring_promotes_nothing;
          Alcotest.test_case "equal events stored once" `Quick test_equal_events_shared;
          Alcotest.test_case "autodump on critical alert" `Quick
            test_autodump_on_critical_alert;
        ] );
    ]
