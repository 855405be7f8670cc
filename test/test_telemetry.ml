(* The online telemetry engine and its foundations: the quantile sketch's
   relative-error and merge guarantees (QCheck), the streaming classifier
   against a list model (QCheck), registry rollups,
   online/post-mortem classifier agreement across every protocol and
   conformance workload, schedule transparency of telemetry + sampling,
   the exactness of deterministic head-based span sampling against an
   unsampled reference run, bounded-trace hot-page accounting,
   [dsm watch]'s fault latency reading the registry, and the thrash.page
   alert's JSONL round trip. *)

open Dsmpm2_sim
open Dsmpm2_net
open Dsmpm2_core
open Dsmpm2_experiments

(* --- the sketch: relative-error bound on adversarial distributions --- *)

let exact_quantile sorted q =
  let n = Array.length sorted in
  sorted.(int_of_float (q *. float_of_int (n - 1)))

let quantile_ladder = [ 0.; 0.25; 0.5; 0.9; 0.99; 0.999; 1. ]

(* Integer streams chosen to stress the log-linear bucketing: uniform
   (dense mid-range buckets), heavy tails (every power of two up to
   2^61), duplicate clusters (single-bucket pileups) and the exact range
   below 128 with its edges. *)
let gen_samples =
  let open QCheck.Gen in
  let uniform = 0 -- 1_000_000 in
  let heavy = map2 (fun e r -> (1 lsl e) lor (r land ((1 lsl e) - 1))) (0 -- 61) int in
  let clustered = map (fun i -> (1 + (i mod 3)) * 1_000_000) (0 -- 1000) in
  let small = 0 -- 200 in
  let dist = oneof [ uniform; heavy; clustered; small ] in
  let chunk = list_size (1 -- 300) dist in
  oneof [ chunk; map2 ( @ ) chunk chunk ]

let arbitrary_sketch_input =
  QCheck.make gen_samples ~print:(fun xs ->
      Printf.sprintf "n=%d head=[%s]" (List.length xs)
        (String.concat "; "
           (List.map string_of_int (List.filteri (fun i _ -> i < 8) xs))))

let sketch_of xs =
  let s = Sketch.create () in
  List.iter (Sketch.add s) xs;
  s

let prop_relative_error =
  QCheck.Test.make ~name:"sketch quantiles within the relative-error bound"
    ~count:300 arbitrary_sketch_input (fun xs ->
      let s = sketch_of xs in
      let sorted = Array.of_list (List.sort compare xs) in
      List.for_all
        (fun q ->
          let exact = exact_quantile sorted q in
          128 * abs (Sketch.quantile s q - exact) <= exact)
        quantile_ladder)

let prop_merge_is_concat =
  QCheck.Test.make
    ~name:"sketch merge = sketch of the concatenated stream" ~count:300
    (QCheck.pair arbitrary_sketch_input arbitrary_sketch_input)
    (fun (xs, ys) ->
      let merged = Sketch.create () in
      Sketch.merge_into merged (sketch_of xs);
      Sketch.merge_into merged (sketch_of ys);
      let direct = sketch_of (xs @ ys) in
      let buckets s = Sketch.fold_buckets s (fun e c acc -> (e, c) :: acc) [] in
      Sketch.count merged = Sketch.count direct
      && buckets merged = buckets direct
      && Sketch.min_value merged = Sketch.min_value direct
      && Sketch.max_value merged = Sketch.max_value direct
      && List.for_all
           (fun q -> Sketch.quantile merged q = Sketch.quantile direct q)
           quantile_ladder)

(* --- Stats rollups: a label set alone is its own rollup, and a rollup
   over label sets is exactly the sketch of the concatenated samples --- *)

let test_stats_rollup_identity () =
  let s = Stats.create () in
  let c = Stats.cell s ~node:0 ~count:"faults" ~volume:"msgs" ~span:"latency" () in
  Stats.add c ~events:1 ~volume:7;
  Stats.record c (Time.of_us 3.);
  Stats.record c (Time.of_us 900.);
  let labels = Stats.labels ~node:0 () in
  let check label f =
    Alcotest.(check string) label (f None) (f (Some labels))
  in
  check "counters" (fun labels ->
      String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (Stats.counters ?labels s)));
  check "span summary" (fun labels ->
      Json.to_string (Stats.summary_to_json (Stats.span_summary ?labels s "latency")))

let test_stats_rollup_is_concatenation () =
  let s = Stats.create () in
  let a = Stats.cell s ~node:0 ~count:"c" ~span:"x" ()
  and b = Stats.cell s ~node:1 ~count:"c" ~span:"x" () in
  let xs = [ 1.; 10. ] and ys = [ 10.; 5000. ] in
  List.iter (fun us -> Stats.record a (Time.of_us us)) xs;
  List.iter (fun us -> Stats.record b (Time.of_us us)) ys;
  Stats.add a ~events:2 ~volume:0;
  Stats.add b ~events:5 ~volume:0;
  Alcotest.(check int) "counters summed" 7 (Stats.count s "c");
  let summary ?labels () = Stats.span_summary ?labels s "x" in
  let at node = (summary ~labels:(Stats.labels ~node ()) ()).Stats.sm_total in
  Alcotest.(check int) "samples summed" 4 (summary ()).Stats.sm_samples;
  Alcotest.(check int) "total summed" Time.(at 0 + at 1) (summary ()).Stats.sm_total;
  Alcotest.(check int) "max is the larger input" (Time.of_us 5000.)
    (summary ()).Stats.sm_max;
  (* Every cell shares the sketch's fixed log buckets, so the rollup's
     percentiles are those of one sketch fed both streams. *)
  let direct = Sketch.create () in
  List.iter (fun us -> Sketch.add direct (Time.of_us us)) (xs @ ys);
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "p%g of the concatenation" p)
        (Sketch.percentile direct p)
        (Stats.span_percentile s "x" p))
    [ 0.; 50.; 90.; 99.; 100. ]

(* --- online classifier = post-mortem classifier, everywhere --- *)

(* Whole records, in heatmap order: both views build the same
   [Telemetry.profile] from the same classifier. *)
let profile =
  Alcotest.testable
    (fun ppf p ->
      Fmt.pf ppf "page %d %s/%s" p.Telemetry.pr_page p.Telemetry.pr_protocol
        (Telemetry.pattern_to_string p.Telemetry.pr_pattern))
    ( = )

let online_profiles tele = Telemetry.Pages.profiles (Telemetry.pages tele)

let test_agrees_with_analyze () =
  List.iter
    (fun { Protocol.name = protocol; _ } ->
      List.iter
        (fun scenario ->
          let _, dsm =
            Conformance.run ~protocol ~driver:Driver.bip_myrinet ~scenario
              ~seed:(Some 0) ()
          in
          let tele =
            match Telemetry.find dsm with
            | Some t -> t
            | None -> Alcotest.fail "watchdog did not attach telemetry"
          in
          let label =
            Printf.sprintf "%s/%s" protocol scenario.Conformance.name
          in
          Alcotest.(check (list profile))
            (label ^ ": same profiles")
            (Analyze.pages (Analyze.analyze (Monitor.trace dsm)))
            (online_profiles tele))
        Conformance.scenarios)
    (Dsmpm2_protocols.Builtin.protocols ())

(* --- schedule transparency: telemetry + sampling never perturb a run --- *)

let jacobi ?observe seed =
  Dsmpm2_apps.Jacobi.run
    {
      Dsmpm2_apps.Jacobi.default with
      protocol = "hbrc_mw";
      nodes = 4;
      size = 16;
      iterations = 2;
      tie_seed = Some seed;
      observe;
    }

let test_schedule_transparent_25_seeds () =
  for seed = 0 to 24 do
    let bare = jacobi seed in
    let observe dsm =
      Monitor.enable dsm true;
      let tr = Monitor.trace dsm in
      Trace.set_capacity tr 128;
      Trace.set_sampling tr ~seed:1 ~keep_pct:20.;
      ignore (Telemetry.attach dsm)
    in
    let instrumented = jacobi ~observe seed in
    (* The whole result record — simulated time, checksum, fault and
       message counts — is the schedule fingerprint. *)
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: identical run" seed)
      true
      (bare = instrumented)
  done

(* --- sampling: deterministic, whole-span, exact against a reference --- *)

let sampleable = function
  | Trace.Fault _ | Trace.Page_request _ | Trace.Page_send _
  | Trace.Page_install _ | Trace.Invalidate _ | Trace.Diff _ | Trace.Lock _
  | Trace.Barrier _ | Trace.Migration _ | Trace.Stage _ ->
      true
  | _ -> false

let traced_jacobi ?sampling seed =
  let captured = ref None in
  let observe dsm =
    Monitor.enable dsm true;
    Option.iter
      (fun (sample_seed, pct) ->
        Trace.set_sampling (Monitor.trace dsm) ~seed:sample_seed ~keep_pct:pct)
      sampling;
    ignore (Telemetry.attach dsm);
    captured := Some dsm
  in
  let result = jacobi ~observe seed in
  match !captured with
  | Some dsm -> (result, dsm)
  | None -> Alcotest.fail "jacobi did not expose its runtime"

let test_sampling_keeps_whole_spans_exactly () =
  let ref_result, ref_dsm = traced_jacobi 7 in
  let ref_events = Trace.events (Monitor.trace ref_dsm) in
  let sampled_result, sampled_dsm = traced_jacobi ~sampling:(3, 30.) 7 in
  let tr = Trace.events (Monitor.trace sampled_dsm) in
  Alcotest.(check bool) "sampling does not change the run" true
    (ref_result = sampled_result);
  (* The stored trace is exactly the reference stream filtered by the pure
     per-span keep decision: whole spans survive or vanish together, and
     alert and injected-fault kinds are always kept. *)
  let expected =
    List.filter
      (fun (_, span, ev) ->
        (not (sampleable ev))
        || span = Trace.no_span
        || Trace.span_kept (Monitor.trace sampled_dsm) span)
      ref_events
  in
  Alcotest.(check int) "stored trace is the predicted subset" 0
    (compare expected tr);
  Alcotest.(check int) "sampled_out accounts for every dropped event"
    (List.length ref_events - List.length tr)
    (Trace.sampled_out (Monitor.trace sampled_dsm));
  (* Telemetry saw the full stream regardless. *)
  (match Telemetry.find sampled_dsm with
  | None -> Alcotest.fail "telemetry missing"
  | Some tele ->
      Alcotest.(check int) "telemetry saw every emission"
        (List.length ref_events) (Telemetry.events_seen tele));
  (* Same seed, same decisions: a replay stores the identical subset. *)
  let _, replay_dsm = traced_jacobi ~sampling:(3, 30.) 7 in
  Alcotest.(check int) "replay stores the identical subset" 0
    (compare tr (Trace.events (Monitor.trace replay_dsm)))

let test_sampling_telemetry_agreement () =
  (* Online classification under aggressive sampling + a tiny ring equals
     the post-mortem classification of the unsampled reference trace. *)
  let _, ref_dsm = traced_jacobi 5 in
  let post = Analyze.pages (Analyze.analyze (Monitor.trace ref_dsm)) in
  let captured = ref None in
  let observe dsm =
    Monitor.enable dsm true;
    let tr = Monitor.trace dsm in
    Trace.set_capacity tr 64;
    Trace.set_sampling tr ~seed:9 ~keep_pct:5.;
    ignore (Telemetry.attach dsm);
    captured := Some dsm
  in
  ignore (jacobi ~observe 5);
  match !captured with
  | None -> Alcotest.fail "jacobi did not expose its runtime"
  | Some dsm ->
      let tele = Option.get (Telemetry.find dsm) in
      Alcotest.(check (list profile))
        "profiles exact despite 5% sampling and a 64-event ring" post
        (online_profiles tele);
      Alcotest.(check bool) "the ring really was under pressure" true
        (Trace.length (Monitor.trace dsm) <= 64)

(* --- allocation: the observer path in steady state --- *)

(* --- the streaming classifier against a list model ---

   The model keeps every event that names a page and classifies from the
   lists after the fact, the way the heuristic is stated: node sets are
   deduplicated lists, and handoffs are counted by replaying the
   chronological write sequence. *)

let model_profiles events =
  (* (page, node, event) per page named, a Diff once per listed page. *)
  let named =
    List.concat_map
      (fun ev ->
        match ev with
        | Trace.Fault { page; _ }
        | Trace.Page_send { page; _ }
        | Trace.Page_install { page; _ }
        | Trace.Invalidate { page; _ } ->
            [ (page, ev) ]
        | Trace.Diff { page_list; _ } -> List.map (fun p -> (p, ev)) page_list
        | _ -> [])
      events
  in
  let pages = List.sort_uniq compare (List.map fst named) in
  let uniq l = List.sort_uniq compare l in
  let count f l = List.length (List.filter f l) in
  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  List.map
    (fun page ->
      let evs = List.filter_map (fun (p, ev) -> if p = page then Some ev else None) named in
      let protocol =
        List.fold_left
          (fun _ ev ->
            match ev with
            | Trace.Fault { protocol; _ }
            | Trace.Page_send { protocol; _ }
            | Trace.Page_install { protocol; _ }
            | Trace.Invalidate { protocol; _ }
            | Trace.Diff { protocol; _ } ->
                protocol
            | _ -> assert false)
          "?" evs
      in
      let faults write =
        List.filter_map
          (function
            | Trace.Fault { node; mode; _ } when (mode = "write") = write -> Some node
            | _ -> None)
          evs
      in
      let senders =
        List.filter_map (function Trace.Diff { sender; _ } -> Some sender | _ -> None) evs
      in
      (* The chronological write sequence: write faults and diffs. *)
      let write_seq =
        List.filter_map
          (function
            | Trace.Fault { node; mode = "write"; _ } -> Some node
            | Trace.Diff { sender; _ } -> Some sender
            | _ -> None)
          evs
      in
      let readers = uniq (faults false) and writers = uniq write_seq in
      let diff_senders = uniq senders in
      let read_faults = List.length (faults false)
      and write_faults = List.length (faults true) in
      let pattern =
        if List.length (uniq (readers @ writers)) <= 1 then Telemetry.Private
        else if List.length diff_senders >= 2 then Telemetry.False_sharing
        else
          match writers with
          | [] -> Telemetry.Read_mostly
          | [ w ] ->
              if
                List.exists (fun r -> r <> w) readers
                && write_faults + List.length senders >= 2
                && read_faults >= 2
              then Telemetry.Producer_consumer
              else Telemetry.Single_writer
          | _ ->
              let rec handoffs = function
                | a :: (b :: _ as rest) -> (if a <> b then 1 else 0) + handoffs rest
                | _ -> 0
              in
              if handoffs write_seq >= 2 then Telemetry.Migratory else Telemetry.Mixed
      in
      {
        Telemetry.pr_page = page;
        pr_protocol = protocol;
        pr_pattern = pattern;
        pr_read_faults = read_faults;
        pr_write_faults = write_faults;
        pr_readers = readers;
        pr_writers = writers;
        pr_diff_senders = diff_senders;
        pr_transfers = count (function Trace.Page_send _ -> true | _ -> false) evs;
        pr_bytes =
          sum
            (function
              | Trace.Page_send { bytes; _ } -> bytes
              | Trace.Diff { bytes; page_list; _ } -> bytes / max 1 (List.length page_list)
              | _ -> 0)
            evs;
        pr_invalidations = count (function Trace.Invalidate _ -> true | _ -> false) evs;
      })
    pages
  |> List.sort (fun a b ->
         compare
           (b.Telemetry.pr_read_faults + b.Telemetry.pr_write_faults, b.Telemetry.pr_bytes, a.Telemetry.pr_page)
           (a.Telemetry.pr_read_faults + a.Telemetry.pr_write_faults, a.Telemetry.pr_bytes, b.Telemetry.pr_page))

(* Pages 1-64 with a hot few, nodes 0-15, three protocol names, and an
   event with no page evidence now and then. *)
let gen_pages_event =
  let open QCheck.Gen in
  let page = oneof [ int_range 1 4; int_range 1 64 ] in
  let node = int_range 0 15 in
  let protocol = oneofl [ "li_hudak"; "hbrc_mw"; "write_update" ] in
  let bytes = int_range 0 8192 in
  frequency
    [
      ( 5,
        let+ node = node and+ page = page and+ protocol = protocol and+ write = bool in
        Trace.Fault { node; page; protocol; mode = (if write then "write" else "read") } );
      ( 2,
        let+ node = node and+ page = page and+ protocol = protocol and+ bytes = bytes in
        Trace.Page_send { node; page; protocol; dst = (node + 1) mod 16; bytes; grant = "RW" } );
      ( 2,
        let+ node = node and+ page = page and+ protocol = protocol in
        Trace.Page_install { node; page; protocol; sender = (node + 1) mod 16; grant = "R" } );
      ( 1,
        let+ node = node and+ page = page and+ protocol = protocol in
        Trace.Invalidate { node; page; protocol; sender = (node + 1) mod 16 } );
      ( 3,
        let+ sender = node
        and+ page_list = list_size (int_range 0 4) page
        and+ protocol = protocol
        and+ bytes = bytes in
        Trace.Diff
          {
            node = sender;
            pages = List.length page_list;
            page_list;
            bytes;
            sender;
            release = true;
            protocol;
          } );
      (1, map (fun node -> Trace.Barrier { node; barrier = 0 }) node);
    ]

let show_profile p =
  Json.to_string (Telemetry.profile_to_json p)

let prop_pages_match_model =
  QCheck.Test.make ~name:"Pages.profiles matches a list model" ~count:300
    QCheck.(
      make
        ~print:(fun evs ->
          String.concat "\n"
            (List.map (fun ev -> Json.to_string (Trace.event_to_json ~at:0 ~span:0 ev)) evs))
        Gen.(list_size (int_range 0 200) gen_pages_event))
    (fun events ->
      let ps = Telemetry.Pages.create () in
      List.iter (Telemetry.Pages.feed ps) events;
      let got = Telemetry.Pages.profiles ps and want = model_profiles events in
      if got <> want then
        QCheck.Test.fail_reportf "profiles:\n%s\nmodel:\n%s"
          (String.concat "\n" (List.map show_profile got))
          (String.concat "\n" (List.map show_profile want));
      List.iter
        (fun p ->
          if Telemetry.Pages.profile ps p.Telemetry.pr_page <> Some p then
            QCheck.Test.fail_reportf "profile %d" p.Telemetry.pr_page)
        want;
      Telemetry.Pages.profile ps 65 = None && Telemetry.Pages.profile ps 0 = None)

(* A resolved remote read: a fault and its install.  Once the page, the
   node sets and the per-interval tables have seen it, a pair costs only
   the optional span arguments. *)
let test_steady_pair_allocates_little () =
  let dsm = Dsm.create ~nodes:2 ~driver:Driver.bip_myrinet () in
  Monitor.enable dsm true;
  let tr = Monitor.trace dsm in
  Trace.set_capacity tr 64;
  ignore (Telemetry.attach dsm);
  let eng = Runtime.engine dsm in
  let fault = Trace.Fault { node = 1; page = 3; protocol = "li_hudak"; mode = "read" } in
  let install =
    Trace.Page_install { node = 1; page = 3; protocol = "li_hudak"; sender = 0; grant = "R" }
  in
  let pair span =
    Trace.emit tr eng ~span fault;
    Trace.emit tr eng ~span install
  in
  for span = 0 to 99 do
    pair span
  done;
  let pairs = 10_000 in
  let before = Gc.minor_words () in
  for span = 100 to 100 + pairs - 1 do
    pair span
  done;
  let per_pair = (Gc.minor_words () -. before) /. float_of_int pairs in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per fault/install pair <= 16" per_pair)
    true (per_pair <= 16.)

(* --- bounded trace, hot pages, snapshot --- *)

let test_capped_trace_hot_pages () =
  let captured = ref None in
  let wd = ref None in
  let observe dsm =
    Monitor.enable dsm true;
    let tr = Monitor.trace dsm in
    Trace.set_capacity tr 256;
    Trace.set_sampling tr ~seed:0 ~keep_pct:25.;
    wd := Some (Watchdog.attach dsm);
    captured := Some dsm
  in
  ignore
    (Dsmpm2_apps.Jacobi.run
       {
         Dsmpm2_apps.Jacobi.default with
         protocol = "li_hudak";
         nodes = 8;
         size = 32;
         iterations = 3;
         tie_seed = Some 0;
         observe = Some observe;
       });
  let dsm = Option.get !captured in
  let tele = Watchdog.telemetry (Option.get !wd) in
  let tr = Monitor.trace dsm in
  Alcotest.(check bool) "ring stays under the cap" true (Trace.length tr <= 256);
  Alcotest.(check bool) "the run emitted far more than the cap" true
    (Telemetry.events_seen tele > 256);
  let profiles = Telemetry.Pages.profiles (Telemetry.pages tele) in
  Alcotest.(check bool) "hot pages classified" true (profiles <> []);
  Alcotest.(check bool) "boundary pages are shared, not private" true
    (List.exists
       (fun p -> p.Telemetry.pr_pattern <> Telemetry.Private)
       profiles);
  (* The telemetry snapshot is valid JSON and carries the trace pressure. *)
  let json = Telemetry.to_json tele in
  (match Json.of_string (Json.to_string json) with
  | Error msg -> Alcotest.failf "snapshot is not valid JSON: %s" msg
  | Ok _ -> ());
  match Json.member "trace" json with
  | None -> Alcotest.fail "snapshot has no trace accounting"
  | Some t ->
      Alcotest.(check bool) "snapshot reports sampling pressure" true
        (match Option.bind (Json.member "sampled_out" t) Json.to_int with
        | Some n -> n > 0
        | None -> false)

(* --- watch and the registry report the same faults ---

   Telemetry times nothing itself: the cluster percentiles of its snapshot
   are the registry's whole-fault series, and its per-protocol fault count
   is that protocol's read, write and inline-check-miss faults. *)

let test_watch_agrees_with_registry () =
  let captured = ref None in
  let observe dsm =
    Monitor.enable dsm true;
    captured := Some (dsm, Watchdog.attach dsm)
  in
  ignore
    (Dsmpm2_apps.Jacobi.run
       {
         Dsmpm2_apps.Jacobi.default with
         tie_seed = Some 0;
         observe = Some observe;
       });
  let dsm, wd = Option.get !captured in
  let tele = Watchdog.telemetry wd in
  let stats = Dsm.stats dsm in
  let latency =
    match Json.member "fault_latency_us" (Telemetry.to_json tele) with
    | Some j -> j
    | None -> Alcotest.fail "snapshot has no fault_latency_us"
  in
  let field name =
    match Option.bind (Json.member name latency) Json.to_float with
    | Some v -> v
    | None -> Alcotest.failf "fault_latency_us has no %s" name
  in
  Alcotest.(check bool) "faults were timed" true (field "count" > 0.);
  List.iter
    (fun (name, p) ->
      Alcotest.(check (float 0.))
        name
        (Time.to_us (Stats.span_percentile stats Instrument.stage_total p))
        (field name))
    [ ("p50", 50.); ("p99", 99.); ("p999", 99.9) ];
  (* The run has one protocol, so its count is the cluster total. *)
  let n name = Stats.count stats name in
  Alcotest.(check (list (pair string int)))
    "per-protocol faults = read + write + check-miss"
    [
      ( "hbrc_mw",
        n Instrument.read_faults + n Instrument.write_faults
        + n Instrument.check_misses );
    ]
    (Telemetry.protocols tele)

(* --- thrash.page alerts round-trip through JSONL --- *)

let test_thrash_alert_jsonl_roundtrip () =
  let wd = ref None in
  let captured = ref None in
  let observe dsm =
    Monitor.enable dsm true;
    (* Three installs of a page from two or more nodes within 100 us raise
       [thrash.page]; under hbrc_mw jacobi's nodes fetch its boundary pages
       that close together. *)
    ignore
      (Telemetry.attach
         ~config:Telemetry.{ thrash_window = 3; thrash_span = Time.of_us 100. }
         dsm);
    wd := Some (Watchdog.attach dsm);
    captured := Some dsm
  in
  ignore
    (Dsmpm2_apps.Jacobi.run
       {
         Dsmpm2_apps.Jacobi.default with
         protocol = "hbrc_mw";
         size = 16;
         iterations = 2;
         tie_seed = Some 0;
         observe = Some observe;
       });
  let w = Option.get !wd and dsm = Option.get !captured in
  let thrash =
    List.filter (fun a -> a.Watchdog.al_kind = "thrash.page") (Watchdog.alerts w)
  in
  Alcotest.(check bool) "jacobi under hbrc_mw thrashes" true (thrash <> []);
  Alcotest.(check bool) "thrash alerts are warnings with a detail" true
    (List.for_all
       (fun a ->
         a.Watchdog.al_severity = Watchdog.Warning
         && String.length a.Watchdog.al_detail > 0)
       thrash);
  let path = Filename.temp_file "dsm_thrash" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Trace.save_jsonl path (Monitor.trace dsm);
      match Trace.load_jsonl path with
      | Error msg -> Alcotest.failf "trace dump unreadable: %s" msg
      | Ok loaded ->
          let details tr =
            List.filter_map
              (fun (_, _, ev) ->
                match ev with
                | Trace.Alert { kind = "thrash.page"; detail; _ } -> Some detail
                | _ -> None)
              (Trace.events tr)
          in
          Alcotest.(check (list string)) "the watchdog traced every alert"
            (List.map (fun a -> a.Watchdog.al_detail) thrash)
            (details (Monitor.trace dsm));
          Alcotest.(check (list string)) "thrash alerts survive the round trip"
            (details (Monitor.trace dsm))
            (details loaded))

let () =
  Alcotest.run "telemetry"
    [
      ( "sketch",
        [
          QCheck_alcotest.to_alcotest prop_relative_error;
          QCheck_alcotest.to_alcotest prop_merge_is_concat;
        ] );
      ( "stats rollup",
        [
          Alcotest.test_case "one label set is its own rollup" `Quick
            test_stats_rollup_identity;
          Alcotest.test_case "rollup = concatenated stream" `Quick
            test_stats_rollup_is_concatenation;
        ] );
      ( "agreement",
        [
          Alcotest.test_case "online = post-mortem, all protocols" `Quick
            test_agrees_with_analyze;
          Alcotest.test_case "exact under sampling + tiny ring" `Quick
            test_sampling_telemetry_agreement;
          Alcotest.test_case "watch = registry fault latency" `Quick
            test_watch_agrees_with_registry;
        ] );
      ( "transparency",
        [
          Alcotest.test_case "25-seed jacobi schedule pin" `Quick
            test_schedule_transparent_25_seeds;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "whole spans, exact subset, deterministic" `Quick
            test_sampling_keeps_whole_spans_exactly;
        ] );
      ( "hot pages",
        [
          Alcotest.test_case "capped trace still classifies" `Quick
            test_capped_trace_hot_pages;
        ] );
      ("classifier", [ QCheck_alcotest.to_alcotest prop_pages_match_model ]);
      ( "allocation",
        [
          Alcotest.test_case "steady fault/install pair" `Quick
            test_steady_pair_allocates_little;
        ] );
      ( "alerts",
        [
          Alcotest.test_case "thrash.page JSONL round trip" `Quick
            test_thrash_alert_jsonl_roundtrip;
        ] );
    ]
