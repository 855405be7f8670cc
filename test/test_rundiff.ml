(* Tests of the exact comparator: any change to any field of any row — a
   macro case's sample on one seed, a paper table's cell — is a
   difference, so is a row or a field on one side only, identical runs diff
   clean, and a snapshot against a trace dump is refused. *)

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

let case_result ?(id = "app:proto:drv") ?(nodes = 4) ?(params = [ ("size", 16) ])
    ?(seeds = [ 0; 1; 2 ]) () =
  {
    B.cr_case =
      {
        B.c_id = id;
        c_app = "app";
        c_protocol = "proto";
        c_driver = Dsmpm2_net.Driver.bip_myrinet;
        c_nodes = nodes;
        c_params = params;
      };
    cr_samples =
      List.map
        (fun seed ->
          {
            B.s_seed = seed;
            s_values = Array.of_list (List.map (default_value ~seed) B.metric_names);
          })
        seeds;
  }

(* The macro suite's rows as `dsm bench --metrics-out` writes them: one
   per case and seed, [bench/app:proto:drv/seed0] and so on. *)
let base_snapshot () = B.rows [ case_result () ]
let seed_row seed = Printf.sprintf "bench/app:proto:drv/seed%d" seed

let bump_row id field =
  List.map (fun (i, fs) ->
      (i, if i <> id then fs else List.map (fun (f, v) -> (f, if f = field then v + 1 else v)) fs))

(* A small paper snapshot: rows of integer fields, matched by id. *)
let paper_rows =
  [
    ("micro/null_rpc/tcp-myrinet", [ ("ns", 30_000) ]);
    ("fig4/li_hudak/8", [ ("time_ns", 83_000_000); ("best", 189); ("migrations", 0) ]);
    ("splash/jacobi/hbrc_mw", [ ("time_ns", 6_700_000); ("correct", 1) ]);
  ]

let diff_exn a b =
  match Rundiff.diff ~baseline:(Rundiff.Rows a) ~fresh:(Rundiff.Rows b) with
  | Ok d -> d
  | Error msg -> Alcotest.failf "diff refused: %s" msg

let changes d =
  List.map
    Rundiff.(fun c -> (c.ch_where, c.ch_field, c.ch_base, c.ch_fresh))
    d.Rundiff.rd_changes

let change = Alcotest.(list (pair string (pair string (pair int int))))
let flat = List.map (fun (w, f, b, n) -> (w, (f, (b, n))))

(* --- verdicts --- *)

let test_identical_is_clean () =
  List.iter
    (fun t ->
      let d = diff_exn t t in
      Alcotest.(check bool) "equal" false (Rundiff.differs d);
      Alcotest.(check (list string)) "no difference lines" [] (Rundiff.differences d))
    [ base_snapshot (); paper_rows ]

(* +1 in one field of one row — a nanosecond of simulated time, a fault
   percentile, one message, a node of the workload, a paper cell — is a
   difference naming that row and field, whatever the field. *)
let test_one_unit_differs () =
  List.iter
    (fun t ->
      List.iter
        (fun (id, fields) ->
          List.iter
            (fun (field, v) ->
              let d = diff_exn t (bump_row id field t) in
              Alcotest.check change
                (id ^ " " ^ field ^ " +1 named")
                (flat [ (id, field, v, v + 1) ])
                (flat (changes d));
              Alcotest.(check bool) (id ^ " " ^ field ^ " +1 differs") true (Rundiff.differs d))
            fields)
        t)
    [ base_snapshot (); paper_rows ];
  let t = base_snapshot () in
  Alcotest.(check (list string)) "time line"
    [ "bench/app:proto:drv/seed1: time_ns 1010000 -> 1010001 (+1, +0.00%)" ]
    (Rundiff.differences (diff_exn t (bump_row (seed_row 1) "time_ns" t)));
  Alcotest.(check (list string)) "a count from zero has no percentage"
    [ "bench/app:proto:drv/seed2: dropped 0 -> 1 (+1)" ]
    (Rundiff.differences (diff_exn t (bump_row (seed_row 2) "dropped" t)));
  Alcotest.(check (list string)) "paper line"
    [ "fig4/li_hudak/8: time_ns 83000000 -> 83000001 (+1, +0.00%)" ]
    (Rundiff.differences (diff_exn paper_rows (bump_row "fig4/li_hudak/8" "time_ns" paper_rows)))

(* Faster is a difference too: there is no direction and no threshold. *)
let test_every_seed_either_way () =
  let t = base_snapshot () in
  let scaled k =
    List.map
      (fun (id, fs) -> (id, List.map (fun (f, v) -> (f, if f = "time_ns" then v * k / 2 else v)) fs))
      t
  in
  List.iter
    (fun (what, k) ->
      let d = diff_exn t (scaled k) in
      Alcotest.(check (list string)) (what ^ ": one change per seed")
        [ seed_row 0; seed_row 1; seed_row 2 ]
        (List.map (fun (w, _, _, _) -> w) (changes d)))
    [ ("slower", 3); ("faster", 1) ]

let test_one_sided_cases_differ () =
  let a = base_snapshot () in
  let b = B.rows [ case_result (); case_result ~id:"app:proto:new" ~seeds:[ 0 ] () ] in
  let d = diff_exn a b in
  Alcotest.(check (list string)) "only in fresh" [ "only in fresh: bench/app:proto:new/seed0" ]
    (Rundiff.differences d);
  Alcotest.(check bool) "differs" true (Rundiff.differs d);
  Alcotest.(check (list string)) "only in baseline"
    [ "only in baseline: bench/app:proto:new/seed0" ]
    (Rundiff.differences (diff_exn b a));
  (* a row, or a field of a matched row, on one side only *)
  let extra = paper_rows @ [ ("fig5/java_pf/4", [ ("time_ns", 1) ]) ] in
  Alcotest.(check (list string)) "paper row only in fresh" [ "only in fresh: fig5/java_pf/4" ]
    (Rundiff.differences (diff_exn paper_rows extra));
  Alcotest.(check (list string)) "paper row only in baseline"
    [ "only in baseline: fig5/java_pf/4" ]
    (Rundiff.differences (diff_exn extra paper_rows));
  let no_best =
    List.map
      (fun (id, fs) -> (id, List.filter (fun (f, _) -> id <> "fig4/li_hudak/8" || f <> "best") fs))
      paper_rows
  in
  Alcotest.(check (list string)) "paper field only in baseline"
    [ "only in baseline: fig4/li_hudak/8 best" ]
    (Rundiff.differences (diff_exn paper_rows no_best));
  Alcotest.(check (list string)) "paper field only in fresh"
    [ "only in fresh: fig4/li_hudak/8 best" ]
    (Rundiff.differences (diff_exn no_best paper_rows))

let test_report_names_changes () =
  let t = base_snapshot () in
  let d = diff_exn t (bump_row (seed_row 0) "fault_p99_ns" t) in
  let buf = Buffer.create 512 in
  let fmt = Format.formatter_of_buffer buf in
  Rundiff.pp_text fmt d;
  Format.pp_print_flush fmt ();
  Alcotest.(check (list string)) "report"
    [
      "run diff: rows mode, exact";
      "bench/app:proto:drv/seed0: fault_p99_ns 99000 -> 99001 (+1, +0.00%)";
      "verdict: differs (1 difference)";
      "";
    ]
    (String.split_on_char '\n' (Buffer.contents buf))

(* [to_json] carries the same differences and verdict as the text. *)
let test_json_report () =
  let t = base_snapshot () in
  let field name j = Option.get (Json.member name j) in
  let strings j = List.map (fun s -> Option.get (Json.to_str s)) (Option.get (Json.to_list j)) in
  let clean = Rundiff.to_json (diff_exn t t) in
  Alcotest.(check (option bool)) "equal: differs false" (Some false)
    (Json.to_bool (field "differs" clean));
  Alcotest.(check (list string)) "equal: no differences" [] (strings (field "differences" clean));
  let d = diff_exn t (bump_row (seed_row 0) "messages" t) in
  let j = Rundiff.to_json d in
  Alcotest.(check (option bool)) "differs true" (Some true) (Json.to_bool (field "differs" j));
  Alcotest.(check (list string)) "same lines as the text" (Rundiff.differences d)
    (strings (field "differences" j));
  match Json.to_list (field "changes" j) with
  | Some [ c ] ->
      Alcotest.(check (option string)) "where" (Some (seed_row 0))
        (Json.to_str (field "where" c));
      Alcotest.(check (option string)) "field" (Some "messages") (Json.to_str (field "field" c));
      Alcotest.(check (option int)) "base" (Some 100) (Json.to_int (field "base" c));
      Alcotest.(check (option int)) "fresh" (Some 101) (Json.to_int (field "fresh" c))
  | _ -> Alcotest.fail "expected exactly one change"

(* --- workloads and kinds --- *)

(* A macro row carries its case's workload, so a case edited in place
   differs field by field on every seed, a new parameter is a field on one
   side, and another seed list is rows on one side. *)
let test_workload_change_differs () =
  let a = base_snapshot () in
  let every_seed field x y = List.map (fun s -> (seed_row s, field, x, y)) [ 0; 1; 2 ] in
  Alcotest.check change "nodes"
    (flat (every_seed "nodes" 4 8))
    (flat (changes (diff_exn a (B.rows [ case_result ~nodes:8 () ]))));
  Alcotest.check change "params"
    (flat (every_seed "size" 16 32))
    (flat (changes (diff_exn a (B.rows [ case_result ~params:[ ("size", 32) ] () ]))));
  Alcotest.(check (list string)) "a new parameter"
    (List.map (fun s -> "only in fresh: " ^ seed_row s ^ " iterations") [ 0; 1; 2 ])
    (Rundiff.differences
       (diff_exn a (B.rows [ case_result ~params:[ ("size", 16); ("iterations", 2) ] () ])));
  Alcotest.(check (list string)) "another seed list"
    [
      "only in baseline: " ^ seed_row 0;
      "only in baseline: " ^ seed_row 1;
      "only in baseline: " ^ seed_row 2;
      "only in fresh: " ^ seed_row 7;
    ]
    (Rundiff.differences (diff_exn a (B.rows [ case_result ~seeds:[ 7 ] () ])))

let test_mixed_kinds_refused () =
  let rows = Rundiff.Rows paper_rows in
  let tr = Rundiff.Run (Analyze.analyze (Trace.create ())) in
  List.iter
    (fun (what, baseline, fresh) ->
      Alcotest.(check bool) (what ^ " refused") true
        (Result.is_error (Rundiff.diff ~baseline ~fresh)))
    [ ("rows vs trace", rows, tr); ("trace vs rows", tr, rows) ]

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
  (* a trace dump loads as Run; a macro or paper snapshot as Rows *)
  let tr = jacobi_trace ~protocol:"hbrc_mw" () in
  let path = Filename.temp_file "dsm_trace" ".jsonl" in
  Trace.save_jsonl path tr;
  (match Rundiff.load_source path with
  | Ok (Rundiff.Run _) -> ()
  | Ok _ -> Alcotest.fail "trace loaded as a snapshot"
  | Error msg -> Alcotest.failf "load_source trace: %s" msg);
  Sys.remove path;
  List.iter
    (fun (what, rows) ->
      let path = Filename.temp_file ("dsm_" ^ what) ".json" in
      Json.to_file path (Paper.to_json rows);
      (match Rundiff.load_source path with
      | Ok (Rundiff.Rows back) -> Alcotest.(check bool) (what ^ " rows read back") true (back = rows)
      | Ok _ -> Alcotest.failf "%s snapshot loaded as a trace" what
      | Error msg -> Alcotest.failf "load_source %s: %s" what msg);
      Sys.remove path)
    [ ("macro", base_snapshot ()); ("paper", paper_rows) ]

(* A snapshot of another schema — a nested per-case document, say, as
   earlier builds wrote — cannot be compared: [load_source] refuses it,
   naming the file and the schema it reads. *)
let test_load_source_refuses_old_schema () =
  let old =
    Json.Obj
      [
        ("schema", Json.String "dsm-macro/0");
        ("meta", Json.Obj []);
        ("cases", Json.List []);
      ]
  in
  let path = Filename.temp_file "dsm_macro_old" ".json" in
  Json.to_file path old;
  let result = Rundiff.load_source path in
  Sys.remove path;
  let contains sub s =
    let n = String.length sub and m = String.length s in
    let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
    at 0
  in
  match result with
  | Ok _ -> Alcotest.fail "a snapshot of another schema loaded"
  | Error msg ->
      Alcotest.(check bool) "names the file" true (contains path msg);
      Alcotest.(check bool) "names the schema it reads" true (contains Paper.schema_version msg)

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
          Alcotest.test_case "json report" `Quick test_json_report;
        ] );
      ( "metadata",
        [
          Alcotest.test_case "workload change differs" `Quick
            test_workload_change_differs;
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
