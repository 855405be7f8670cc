(* Tests of the macro-benchmark suite: determinism, the committed matrix
   and its rows, and the order of the fault percentiles.  The snapshot
   schema itself, [dsm-paper/1], is tested on {!Paper}. *)

open Dsmpm2_sim
open Dsmpm2_experiments
module B = Bench_suite

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

(* The suite's rows of the committed BENCH_paper.json (a [deps] of the
   test stanza): those of the [bench] experiment. *)
let committed () =
  match Rundiff.load_source "../BENCH_paper.json" with
  | Ok (Rundiff.Rows rows) ->
      List.filter (fun (id, _) -> String.starts_with ~prefix:"bench/" id) rows
  | Ok _ -> Alcotest.fail "BENCH_paper.json is not a row snapshot"
  | Error msg -> Alcotest.fail msg

(* The matrix's cases whose id contains [sub]. *)
let cases_matching sub = List.filter (fun c -> contains ~sub c.B.c_id) (B.cases ())

(* --- the paper snapshot (dsm-paper/1) ---

   Rows of integer fields, ids and field names distinct within their
   scope; the round trip through text is exact over the whole int
   range. *)

let gen_paper =
  let open QCheck.Gen in
  let fields =
    map (List.mapi (fun i v -> (Printf.sprintf "f%d_ns" i, v))) (list_size (0 -- 5) int)
  in
  map
    (List.mapi (fun i fs -> (Printf.sprintf "fig%d/proto/%d" (i mod 7) i, fs)))
    (list_size (0 -- 12) fields)

let prop_paper_roundtrip =
  QCheck.Test.make ~name:"BENCH_paper schema round-trips through text" ~count:200
    (QCheck.make gen_paper) (fun rows ->
      match Json.of_string (Json.to_string_pretty (Paper.to_json rows)) with
      | Error _ -> false
      | Ok j -> Paper.of_json j = Ok rows)

(* A paper snapshot holds the schema and the rows, nothing else: a
   missing or extra top-level field, a float value, a repeated id or field
   and another schema are refused. *)
let test_paper_strict () =
  let rows = [ ("fig4/li_hudak/8", [ ("time_ns", 83_000_000); ("best", 189) ]) ] in
  let doc = Paper.to_json rows in
  let top f = match doc with Json.Obj kvs -> Json.Obj (f kvs) | j -> j in
  let set key v = top (List.map (fun (k, w) -> (k, if k = key then v else w))) in
  let with_rows rs = set "rows" (Json.Obj rs) in
  let row fs = ("fig4/li_hudak/8", Json.Obj fs) in
  Alcotest.(check bool) "as written: accepted" true (Paper.of_json doc = Ok rows);
  List.iter
    (fun (what, j) -> Alcotest.(check bool) what true (Result.is_error (Paper.of_json j)))
    [
      ("missing rows refused", top (List.remove_assoc "rows"));
      ("missing schema refused", top (List.remove_assoc "schema"));
      ("extra field refused", top (fun kvs -> kvs @ [ ("git_rev", Json.String "x") ]));
      ("float value refused", with_rows [ row [ ("time_ns", Json.Float 83e6) ] ]);
      ( "repeated id refused",
        with_rows [ row [ ("best", Json.Int 1) ]; row [ ("best", Json.Int 1) ] ] );
      ("repeated field refused", with_rows [ row [ ("best", Json.Int 1); ("best", Json.Int 1) ] ]);
      ("other schema refused", set "schema" (Json.String "dsm-paper/0"));
    ]

(* --- determinism --- *)

let tiny_case =
  {
    B.c_id = "jacobi:hbrc_mw:test";
    c_app = "jacobi";
    c_protocol = "hbrc_mw";
    c_driver = Dsmpm2_net.Driver.bip_myrinet;
    c_nodes = 4;
    c_params = [ ("size", 16); ("iterations", 2) ];
  }

let test_run_case_deterministic () =
  let a = B.run_case ~seeds:[ 0; 1 ] tiny_case in
  let b = B.run_case ~seeds:[ 0; 1 ] tiny_case in
  Alcotest.(check bool) "same seeds, same samples" true
    (a.B.cr_samples = b.B.cr_samples);
  Alcotest.(check int) "one sample per seed" 2 (List.length a.B.cr_samples);
  List.iter2
    (fun seed s -> Alcotest.(check int) "seed recorded" seed s.B.s_seed)
    [ 0; 1 ] a.B.cr_samples;
  List.iter
    (fun s ->
      Alcotest.(check bool) "simulated time advanced" true (B.metric "time_ns" s > 0);
      Alcotest.(check bool) "messages flowed" true (B.metric "messages" s > 0))
    a.B.cr_samples

(* A row names its case and seed and carries the workload: the node count
   and every case parameter, before the sample fields. *)
let test_case_identity () =
  match B.rows [ B.run_case ~seeds:[ 3 ] tiny_case ] with
  | [ (id, fields) ] ->
      Alcotest.(check string) "id" "bench/jacobi:hbrc_mw:test/seed3" id;
      Alcotest.(check (list string)) "field names"
        ([ "nodes"; "size"; "iterations" ] @ B.metric_names)
        (List.map fst fields);
      Alcotest.(check (list (pair string int))) "workload"
        [ ("nodes", 4); ("size", 16); ("iterations", 2) ]
        (List.filteri (fun i _ -> i < 3) fields)
  | rows -> Alcotest.failf "%d rows for one case and one seed" (List.length rows)

(* --- the committed matrix --- *)

let test_matrix_well_formed () =
  let all = B.cases () in
  Alcotest.(check bool) "non-empty" true (all <> []);
  let ids = List.map (fun c -> c.B.c_id) all in
  Alcotest.(check int) "ids unique" (List.length ids)
    (List.length (List.sort_uniq compare ids))

(* Every case of the matrix has one committed row per default seed, in
   matrix order, holding exactly its workload and every sample field: an
   edit of the matrix that is not re-banked fails here, with no
   simulation run. *)
let test_committed_rows_match_matrix () =
  let rows = committed () in
  let expected =
    List.concat_map
      (fun c ->
        List.map
          (fun seed ->
            ( Printf.sprintf "bench/%s/seed%d" c.B.c_id seed,
              ("nodes", c.B.c_nodes) :: c.B.c_params ))
          B.default_seeds)
      (B.cases ())
  in
  Alcotest.(check (list string)) "ids are cases () x default_seeds" (List.map fst expected)
    (List.map fst rows);
  List.iter
    (fun (id, workload) ->
      let fields = List.assoc id rows in
      Alcotest.(check (list string)) (id ^ " fields")
        (List.map fst workload @ B.metric_names)
        (List.map fst fields);
      Alcotest.(check (list (pair string int))) (id ^ " workload") workload
        (List.filteri (fun i _ -> i < List.length workload) fields))
    expected

(* --- snapshot file I/O --- *)

(* What `dsm bench --metrics-out` writes loads back as the same rows. *)
let test_load_round_trip () =
  let t = List.map (B.run_case ~seeds:[ 0 ]) (cases_matching "jacobi:hbrc_mw:bip-myrinet") in
  Alcotest.(check int) "one case selected" 1 (List.length t);
  let path = Filename.temp_file "dsm_macro" ".json" in
  Json.to_file path (Paper.to_json (B.rows t));
  let back = Rundiff.load_source path in
  Sys.remove path;
  match back with
  | Ok (Rundiff.Rows rows) -> Alcotest.(check bool) (path ^ " loads back") true (rows = B.rows t)
  | Ok _ -> Alcotest.failf "%s loaded as a trace" path
  | Error msg -> Alcotest.failf "load %s: %s" path msg

(* --- fault percentiles: one series, so always ordered ---

   p50, p90, p99 and p999 all read the registry's whole-fault latency, so
   every sample is ordered, and a protocol that migrates threads instead of
   shipping pages still has a tail. *)

let check_percentiles label rows =
  List.iter
    (fun (id, fields) ->
      let name = label ^ " " ^ id in
      let p n = List.assoc (Printf.sprintf "fault_p%s_ns" n) fields in
      Alcotest.(check bool)
        (name ^ ": p50 <= p90 <= p99 <= p999")
        true
        (p "50" <= p "90" && p "90" <= p "99" && p "99" <= p "999");
      if contains ~sub:":migrate_thread:" id then
        Alcotest.(check bool) (name ^ ": p999 > 0") true (p "999" > 0))
    rows

let test_percentiles_ordered () =
  check_percentiles "committed" (committed ());
  let fresh = List.map (fun c -> B.run_case c) (cases_matching "tsp:migrate_thread") in
  Alcotest.(check int) "both migrate_thread cases" 2 (List.length fresh);
  check_percentiles "fresh" (B.rows fresh)

let () =
  Alcotest.run "bench_suite"
    [
      ( "paper",
        [
          QCheck_alcotest.to_alcotest prop_paper_roundtrip;
          Alcotest.test_case "only what to_json writes" `Quick test_paper_strict;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seeds, same samples" `Quick
            test_run_case_deterministic;
          Alcotest.test_case "case identity metadata" `Quick test_case_identity;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "well-formed" `Quick test_matrix_well_formed;
          Alcotest.test_case "committed rows match the matrix" `Quick
            test_committed_rows_match_matrix;
        ] );
      ( "io",
        [
          Alcotest.test_case "file round trip" `Quick test_load_round_trip;
        ] );
      ( "percentiles",
        [
          Alcotest.test_case "ordered, migrate_thread has a tail" `Quick
            test_percentiles_ordered;
        ] );
    ]
