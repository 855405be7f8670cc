(* Tests of the exact comparator: any change to any sample field on any
   seed, or to any field of a paper row, is a difference, so is a case or
   a row on one side only, identical runs diff clean, and incompatible
   identities or kinds are refused. *)

open Dsmpm2_sim
open Dsmpm2_core
open Dsmpm2_experiments
module B = Bench_suite

(* --- synthetic snapshots (no simulation needed) --- *)

let default_value ~seed = function
  | "time_ns" -> 1_000_000 + (10_000 * seed)
  | "messages" -> 100
  | "bytes" -> 4096
  | "read_faults" -> 10
  | "write_faults" -> 5
  | "fault_p50_ns" -> 50_000
  | "fault_p90_ns" -> 90_000
  | "fault_p99_ns" -> 99_000
  | "fault_p999_ns" -> 99_900
  | "events" -> 1000
  | _ -> 0

let sample ~seed =
  {
    B.s_seed = seed;
    s_values = Array.of_list (List.map (default_value ~seed) B.metric_names);
  }

let case_result ?(id = "app:proto:drv") ?(driver = "BIP/Myrinet") ?(seeds = [ 0; 1; 2 ]) () =
  {
    B.cr_case =
      {
        B.c_id = id;
        c_app = "app";
        c_protocol = "proto";
        c_driver = driver;
        c_nodes = 4;
        c_params = [ ("size", 16) ];
        c_quick = true;
      };
    cr_meta = Run_meta.v ~git_rev:"base" ~driver ~protocol:"proto" ~nodes:4 ~case:id ();
    cr_samples = List.map (fun seed -> sample ~seed) seeds;
  }

let snapshot results = { B.bs_meta = Run_meta.v ~git_rev:"base" (); bs_results = results }
let base_snapshot () = snapshot [ case_result () ]

(* Applies [f name value] to every sample field of the sample with [seed]
   (every seed when absent). *)
let map_values ?seed f t =
  let sample s =
    if Option.fold ~none:false ~some:(( <> ) s.B.s_seed) seed then s
    else
      {
        s with
        B.s_values =
          Array.of_list (List.map2 f B.metric_names (Array.to_list s.B.s_values));
      }
  in
  {
    t with
    B.bs_results =
      List.map
        (fun cr -> { cr with B.cr_samples = List.map sample cr.B.cr_samples })
        t.B.bs_results;
  }

let bump ~seed field = map_values ~seed (fun name v -> if name = field then v + 1 else v)

let diff_exn a b =
  match Rundiff.diff ~baseline:(Rundiff.Bench a) ~fresh:(Rundiff.Bench b) with
  | Ok d -> d
  | Error msg -> Alcotest.failf "diff refused: %s" msg

let refused a b =
  Result.is_error (Rundiff.diff ~baseline:(Rundiff.Bench a) ~fresh:(Rundiff.Bench b))

let changes d =
  List.map
    Rundiff.(fun c -> (c.ch_where, c.ch_field, c.ch_base, c.ch_fresh))
    d.Rundiff.rd_changes

let change = Alcotest.(list (pair string (pair string (pair int int))))
let flat = List.map (fun (w, f, b, n) -> (w, (f, (b, n))))

(* A small paper snapshot: rows of integer fields, matched by id. *)
let paper_rows =
  [
    ("micro/null_rpc/tcp-myrinet", [ ("ns", 30_000) ]);
    ("fig4/li_hudak/8", [ ("time_ns", 83_000_000); ("best", 189); ("migrations", 0) ]);
    ("splash/jacobi/hbrc_mw", [ ("time_ns", 6_700_000); ("correct", 1) ]);
  ]

let paper_diff a b =
  match Rundiff.diff ~baseline:(Rundiff.Paper a) ~fresh:(Rundiff.Paper b) with
  | Ok d -> d
  | Error msg -> Alcotest.failf "paper diff refused: %s" msg

let bump_row id field =
  List.map (fun (i, fs) ->
      (i, if i <> id then fs else List.map (fun (f, v) -> (f, if f = field then v + 1 else v)) fs))

(* --- verdicts --- *)

let test_identical_is_clean () =
  let t = base_snapshot () in
  let d = diff_exn t t in
  Alcotest.(check bool) "equal" false (Rundiff.differs d);
  Alcotest.(check (list string)) "no difference lines" [] (Rundiff.differences d);
  Alcotest.(check int) "the case is matched" 1 (List.length d.Rundiff.rd_cases)

(* +1 in one field of one seed's sample — a nanosecond of simulated time,
   of a fault percentile, one message — is a difference naming that case,
   seed and field, whatever the field. *)
let test_one_unit_differs () =
  let t = base_snapshot () in
  List.iter
    (fun field ->
      let d = diff_exn t (bump ~seed:1 field t) in
      let base = default_value ~seed:1 field in
      Alcotest.check change (field ^ " +1 named")
        (flat [ ("app:proto:drv seed 1", field, base, base + 1) ])
        (flat (changes d));
      Alcotest.(check bool) (field ^ " +1 differs") true (Rundiff.differs d))
    B.metric_names;
  Alcotest.(check (list string)) "time line"
    [ "app:proto:drv seed 1: time_ns 1010000 -> 1010001 (+1, +0.00%)" ]
    (Rundiff.differences (diff_exn t (bump ~seed:1 "time_ns" t)));
  Alcotest.(check (list string)) "a count from zero has no percentage"
    [ "app:proto:drv seed 2: dropped 0 -> 1 (+1)" ]
    (Rundiff.differences (diff_exn t (bump ~seed:2 "dropped" t)));
  (* the same over every field of every paper row *)
  List.iter
    (fun (id, fields) ->
      List.iter
        (fun (field, v) ->
          let d = paper_diff paper_rows (bump_row id field paper_rows) in
          Alcotest.check change
            (id ^ " " ^ field ^ " +1 named")
            (flat [ (id, field, v, v + 1) ])
            (flat (changes d));
          Alcotest.(check bool) (id ^ " " ^ field ^ " +1 differs") true (Rundiff.differs d))
        fields)
    paper_rows;
  Alcotest.(check (list string)) "paper line"
    [ "fig4/li_hudak/8: time_ns 83000000 -> 83000001 (+1, +0.00%)" ]
    (Rundiff.differences
       (paper_diff paper_rows (bump_row "fig4/li_hudak/8" "time_ns" paper_rows)));
  Alcotest.(check (list string)) "identical paper snapshots diff clean" []
    (Rundiff.differences (paper_diff paper_rows paper_rows))

(* Faster is a difference too: there is no direction and no threshold. *)
let test_every_seed_either_way () =
  let t = base_snapshot () in
  let scaled k = map_values (fun name v -> if name = "time_ns" then v * k / 2 else v) t in
  List.iter
    (fun (what, k) ->
      let d = diff_exn t (scaled k) in
      Alcotest.(check (list string)) (what ^ ": one change per seed")
        [ "app:proto:drv seed 0"; "app:proto:drv seed 1"; "app:proto:drv seed 2" ]
        (List.map (fun (w, _, _, _) -> w) (changes d)))
    [ ("slower", 3); ("faster", 1) ]

let test_one_sided_cases_differ () =
  let a = base_snapshot () in
  let b = snapshot [ case_result (); case_result ~id:"app:proto:new" () ] in
  let d = diff_exn a b in
  Alcotest.(check (list string)) "only in fresh" [ "only in fresh: app:proto:new" ]
    (Rundiff.differences d);
  Alcotest.(check bool) "differs" true (Rundiff.differs d);
  Alcotest.(check (list string)) "only in baseline" [ "only in baseline: app:proto:new" ]
    (Rundiff.differences (diff_exn b a));
  (* a paper row, or a field of a matched row, on one side only *)
  let extra = paper_rows @ [ ("fig5/java_pf/4", [ ("time_ns", 1) ]) ] in
  Alcotest.(check (list string)) "paper row only in fresh" [ "only in fresh: fig5/java_pf/4" ]
    (Rundiff.differences (paper_diff paper_rows extra));
  Alcotest.(check (list string)) "paper row only in baseline"
    [ "only in baseline: fig5/java_pf/4" ]
    (Rundiff.differences (paper_diff extra paper_rows));
  let no_best =
    List.map
      (fun (id, fs) -> (id, List.filter (fun (f, _) -> id <> "fig4/li_hudak/8" || f <> "best") fs))
      paper_rows
  in
  Alcotest.(check (list string)) "paper field only in baseline"
    [ "only in baseline: fig4/li_hudak/8 best" ]
    (Rundiff.differences (paper_diff paper_rows no_best));
  Alcotest.(check (list string)) "paper field only in fresh"
    [ "only in fresh: fig4/li_hudak/8 best" ]
    (Rundiff.differences (paper_diff no_best paper_rows))

let test_report_names_changes () =
  let t = base_snapshot () in
  let d = diff_exn t (bump ~seed:0 "fault_p99_ns" t) in
  let buf = Buffer.create 512 in
  let fmt = Format.formatter_of_buffer buf in
  Rundiff.pp_text fmt d;
  Format.pp_print_flush fmt ();
  let lines = String.split_on_char '\n' (Buffer.contents buf) in
  List.iter
    (fun line -> Alcotest.(check bool) line true (List.mem line lines))
    [
      "run diff: macro-bench mode, exact";
      "app:proto:drv seed 0: fault_p99_ns 99000 -> 99001 (+1, +0.00%)";
      "verdict: differs (1 difference)";
    ]

(* The per-case mean table stays beside the exact list: one row per
   matched case, marked by whether its samples are equal. *)
let test_mean_table_marks_cases () =
  let t = snapshot [ case_result (); case_result ~id:"app:proto:other" () ] in
  let bumped =
    {
      t with
      B.bs_results =
        List.map
          (fun cr ->
            if cr.B.cr_case.B.c_id <> "app:proto:drv" then cr
            else List.hd (bump ~seed:1 "time_ns" (snapshot [ cr ])).B.bs_results)
          t.B.bs_results;
    }
  in
  let buf = Buffer.create 512 in
  let fmt = Format.formatter_of_buffer buf in
  Rundiff.pp_text fmt (diff_exn t bumped);
  Format.pp_print_flush fmt ();
  let row cid =
    let prefix = cid ^ " " in
    let k = String.length prefix in
    List.find_opt
      (fun l -> String.length l >= k && String.sub l 0 k = prefix)
      (String.split_on_char '\n' (Buffer.contents buf))
  in
  let ends_with suffix = function
    | None -> false
    | Some l ->
        let n = String.length l and k = String.length suffix in
        n >= k && String.sub l (n - k) k = suffix
  in
  Alcotest.(check bool) "changed case marked" true (ends_with "DIFFER" (row "app:proto:drv"));
  Alcotest.(check bool) "untouched case marked" true (ends_with "equal" (row "app:proto:other"))

(* [to_json] carries the same differences and verdict as the text. *)
let test_json_report () =
  let t = base_snapshot () in
  let field name j = Option.get (Json.member name j) in
  let strings j = List.map (fun s -> Option.get (Json.to_str s)) (Option.get (Json.to_list j)) in
  let clean = Rundiff.to_json (diff_exn t t) in
  Alcotest.(check (option bool)) "equal: differs false" (Some false)
    (Json.to_bool (field "differs" clean));
  Alcotest.(check (list string)) "equal: no differences" [] (strings (field "differences" clean));
  let d = diff_exn t (bump ~seed:0 "messages" t) in
  let j = Rundiff.to_json d in
  Alcotest.(check (option bool)) "differs true" (Some true) (Json.to_bool (field "differs" j));
  Alcotest.(check (list string)) "same lines as the text" (Rundiff.differences d)
    (strings (field "differences" j));
  match Json.to_list (field "changes" j) with
  | Some [ c ] ->
      Alcotest.(check (option string)) "where" (Some "app:proto:drv seed 0")
        (Json.to_str (field "where" c));
      Alcotest.(check (option string)) "field" (Some "messages") (Json.to_str (field "field" c));
      Alcotest.(check (option int)) "base" (Some 100) (Json.to_int (field "base" c));
      Alcotest.(check (option int)) "fresh" (Some 101) (Json.to_int (field "fresh" c))
  | _ -> Alcotest.fail "expected exactly one change"

(* --- identity refusal --- *)

let test_mismatch_refused () =
  let a = base_snapshot () in
  let cr = case_result () in
  let with_case f = snapshot [ { cr with B.cr_case = f cr.B.cr_case } ] in
  let tie_seed m = { m with Run_meta.rm_tie_seed = Some 1 } in
  List.iter
    (fun (what, b) -> Alcotest.(check bool) (what ^ " refused") true (refused a b))
    [
      ("driver", snapshot [ case_result ~driver:"SISCI/SCI" () ]);
      ("seed list", snapshot [ case_result ~seeds:[ 7 ] () ]);
      ("app", with_case (fun c -> { c with B.c_app = "other" }));
      ("nodes", with_case (fun c -> { c with B.c_nodes = 8 }));
      ("quick", with_case (fun c -> { c with B.c_quick = false }));
      ("params", with_case (fun c -> { c with B.c_params = [ ("size", 32) ] }));
      (* a metadata field on one side only is a mismatch too *)
      ("case meta", snapshot [ { cr with B.cr_meta = tie_seed cr.B.cr_meta } ]);
      ("suite meta", { a with B.bs_meta = tie_seed a.B.bs_meta });
    ];
  let two = snapshot [ case_result (); case_result ~id:"app:proto:other" () ] in
  Alcotest.(check bool) "case order refused" true
    (refused two { two with B.bs_results = List.rev two.B.bs_results });
  Alcotest.(check bool) "params order is not identity" false
    (refused
       (with_case (fun c -> { c with B.c_params = [ ("a", 1); ("b", 2) ] }))
       (with_case (fun c -> { c with B.c_params = [ ("b", 2); ("a", 1) ] })))

let test_git_rev_exempt () =
  let a = base_snapshot () in
  let other m = { m with Run_meta.rm_git_rev = Some "other-revision" } in
  let cr = case_result () in
  let b =
    { (snapshot [ { cr with B.cr_meta = other cr.B.cr_meta } ]) with B.bs_meta = other a.B.bs_meta }
  in
  Alcotest.(check bool) "equal" false (Rundiff.differs (diff_exn a b))

let test_mixed_kinds_refused () =
  let macro = Rundiff.Bench (base_snapshot ()) in
  let paper = Rundiff.Paper paper_rows in
  let tr = Rundiff.Run (Analyze.analyze (Trace.create ())) in
  List.iter
    (fun (what, baseline, fresh) ->
      Alcotest.(check bool) (what ^ " refused") true
        (Result.is_error (Rundiff.diff ~baseline ~fresh)))
    [
      ("macro vs trace", macro, tr);
      ("macro vs paper", macro, paper);
      ("paper vs macro", paper, macro);
      ("paper vs trace", paper, tr);
    ]

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
  let src () = Rundiff.Run (Analyze.analyze tr) in
  match Rundiff.diff ~baseline:(src ()) ~fresh:(src ()) with
  | Error msg -> Alcotest.failf "diff refused: %s" msg
  | Ok d ->
      Alcotest.(check bool) "stages compared" true (d.Rundiff.rd_stages <> []);
      Alcotest.(check (list string)) "no difference" [] (Rundiff.differences d)

(* Same app, two protocols, watchdog attached: the diff reports each stage
   stamped on one side only, the pages whose pattern changes and the
   thrash.page alerts that vanish.  Under
   hbrc_mw several nodes fetch pages 1 and 2 within 100 us of each other;
   li_hudak hands them over one writer at a time, further apart. *)
let test_trace_protocol_switch_deltas () =
  let src protocol =
    Rundiff.Run (Analyze.analyze (jacobi_trace ~watch:true ~protocol ()))
  in
  match Rundiff.diff ~baseline:(src "hbrc_mw") ~fresh:(src "li_hudak") with
  | Error msg -> Alcotest.failf "diff refused: %s" msg
  | Ok d ->
      List.iter
        (fun sd ->
          let where = sd.Rundiff.sd_protocol ^ "/" ^ sd.Rundiff.sd_stage in
          let n = function None -> 0 | Some s -> s.Stats.sm_samples in
          Alcotest.(check bool) (where ^ " span count is a change") true
            (List.mem
               (where, "samples", n sd.Rundiff.sd_base, n sd.Rundiff.sd_fresh)
               (changes d)))
        d.Rundiff.rd_stages;
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
  | Ok _ -> Alcotest.fail "trace loaded as a snapshot"
  | Error msg -> Alcotest.failf "load_source trace: %s" msg);
  Sys.remove path;
  let bench_path = Filename.temp_file "dsm_macro" ".json" in
  Json.to_file bench_path (B.to_json (base_snapshot ()));
  (match Rundiff.load_source bench_path with
  | Ok (Rundiff.Bench _) -> ()
  | Ok _ -> Alcotest.fail "macro snapshot loaded as another kind"
  | Error msg -> Alcotest.failf "load_source bench: %s" msg);
  Sys.remove bench_path;
  let paper_path = Filename.temp_file "dsm_paper" ".json" in
  Json.to_file paper_path (Paper.to_json paper_rows);
  (match Rundiff.load_source paper_path with
  | Ok (Rundiff.Paper rows) ->
      Alcotest.(check bool) "paper rows read back" true (rows = paper_rows)
  | Ok _ -> Alcotest.fail "paper snapshot loaded as another kind"
  | Error msg -> Alcotest.failf "load_source paper: %s" msg);
  Sys.remove paper_path

(* A snapshot of an older schema cannot be compared: [load_source] refuses
   it with the file's name and the way to re-bank it. *)
let test_load_source_refuses_old_schema () =
  let v1 =
    match B.to_json (base_snapshot ()) with
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (fun (k, v) -> if k = "schema" then (k, Json.String "dsm-bench-macro/1") else (k, v))
             fields)
    | _ -> Alcotest.fail "snapshot is not an object"
  in
  let path = Filename.temp_file "dsm_macro_v1" ".json" in
  Json.to_file path v1;
  let result = Rundiff.load_source path in
  Sys.remove path;
  let contains sub s =
    let n = String.length sub and m = String.length s in
    let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
    at 0
  in
  match result with
  | Ok _ -> Alcotest.fail "a dsm-bench-macro/1 snapshot loaded"
  | Error msg ->
      Alcotest.(check bool) "names the file" true (contains path msg);
      Alcotest.(check bool) "says to re-bank" true (contains "re-bank" msg)

let () =
  Alcotest.run "rundiff"
    [
      ( "verdicts",
        [
          Alcotest.test_case "identical runs diff clean" `Quick
            test_identical_is_clean;
          Alcotest.test_case "+1 in any field differs" `Quick test_one_unit_differs;
          Alcotest.test_case "slower or faster differs" `Quick
            test_every_seed_either_way;
          Alcotest.test_case "one-sided cases differ" `Quick
            test_one_sided_cases_differ;
          Alcotest.test_case "report names each change" `Quick
            test_report_names_changes;
          Alcotest.test_case "mean table marks each case" `Quick
            test_mean_table_marks_cases;
          Alcotest.test_case "json report" `Quick test_json_report;
        ] );
      ( "metadata",
        [
          Alcotest.test_case "identity mismatch refused" `Quick
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
          Alcotest.test_case "old snapshot schema refused" `Quick
            test_load_source_refuses_old_schema;
          Alcotest.test_case "protocol switch deltas" `Quick
            test_trace_protocol_switch_deltas;
        ] );
    ]
