(* Tests of the macro-benchmark suite: schema round-trip, determinism,
   matrix filtering and the order of the fault percentiles. *)

open Dsmpm2_sim
open Dsmpm2_experiments
module B = Bench_suite

(* --- schema round-trip ---

   Every sample field is an integer, so the round trip through text is
   exact over the whole int range. *)

let gen_t =
  let open QCheck.Gen in
  let app = oneofl [ "jacobi"; "tsp"; "coloring"; "lu"; "matmul"; "sort" ] in
  let proto = oneofl [ "hbrc_mw"; "li_hudak"; "erc_sw"; "write_update" ] in
  let driver = oneofl [ "BIP/Myrinet"; "SISCI/SCI"; "TCP/FastEthernet" ] in
  let sample =
    map
      (fun (seed, values) -> { B.s_seed = seed; s_values = Array.of_list values })
      (pair (0 -- 99) (list_repeat (List.length B.metric_names) int))
  in
  let params =
    list_size (0 -- 3)
      (pair (oneofl [ "size"; "iterations"; "cities"; "elements" ]) (1 -- 64))
  in
  let case_result =
    map
      (fun ((app, proto, driver), (nodes, quick, params), samples) ->
        let id = Printf.sprintf "%s:%s:%d" app proto nodes in
        {
          B.cr_case =
            {
              B.c_id = id;
              c_app = app;
              c_protocol = proto;
              c_driver = driver;
              c_nodes = nodes;
              c_params = params;
              c_quick = quick;
            };
          cr_meta =
            Run_meta.v ~git_rev:"deadbeef" ~driver ~protocol:proto ~nodes
              ~case:id ();
          cr_samples = samples;
        })
      (triple
         (triple app proto driver)
         (triple (1 -- 16) bool params)
         (list_size (1 -- 4) sample))
  in
  map
    (fun results ->
      { B.bs_meta = Run_meta.v ~git_rev:"deadbeef" (); bs_results = results })
    (list_size (0 -- 6) case_result)

let prop_schema_roundtrip =
  QCheck.Test.make ~name:"BENCH_macro schema round-trips through text"
    ~count:200
    (QCheck.make gen_t)
    (fun t ->
      let text = Json.to_string_pretty (B.to_json t) in
      match Json.of_string text with
      | Error _ -> false
      | Ok j -> (
          match B.of_json j with Ok t' -> t = t' | Error _ -> false))

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

let test_schema_version_rejected () =
  List.iter
    (fun schema ->
      let bad = Json.Obj [ ("schema", Json.String schema); ("cases", Json.List []) ] in
      match B.of_json bad with
      | Ok _ -> Alcotest.failf "%s accepted" schema
      | Error msg ->
          Alcotest.(check bool) "error names the schema" true (contains ~sub:schema msg);
          Alcotest.(check bool) "error says to re-bank" true (contains ~sub:"re-bank" msg))
    [ "dsm-bench-macro/1"; "dsm-bench-macro/99" ]

(* A snapshot holds exactly what [to_json] writes: a missing field, an
   extra one or a float where an integer belongs is refused, so nothing
   in the file escapes the comparison. *)
let test_snapshot_strict () =
  let t = B.run ~seeds:[ 0 ] ~filter:"jacobi:hbrc_mw:bip-myrinet" () in
  (* [f] rewrites every sample object, found by its "events" field *)
  let rec edit f = function
    | Json.Obj kvs ->
        let kvs = List.map (fun (k, v) -> (k, edit f v)) kvs in
        Json.Obj (if List.mem_assoc "events" kvs then f kvs else kvs)
    | Json.List l -> Json.List (List.map (edit f) l)
    | j -> j
  in
  let parses f = Result.is_ok (B.of_json (edit f (B.to_json t))) in
  Alcotest.(check bool) "as written: accepted" true (parses Fun.id);
  List.iter
    (fun (what, f) -> Alcotest.(check bool) what false (parses f))
    [
      ("missing field refused", List.remove_assoc "events");
      ("extra field refused", fun s -> s @ [ ("extra", Json.Int 0) ]);
      ( "float time refused",
        List.map (function
          | "time_ns", Json.Int v -> ("time_ns", Json.Float (float_of_int v))
          | kv -> kv) );
    ]

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
    c_driver = "BIP/Myrinet";
    c_nodes = 4;
    c_params = [ ("size", 16); ("iterations", 2) ];
    c_quick = true;
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

let test_case_meta () =
  let r = B.run_case ~seeds:[ 3 ] tiny_case in
  let m = r.B.cr_meta in
  Alcotest.(check (option string)) "driver" (Some "BIP/Myrinet") m.Run_meta.rm_driver;
  Alcotest.(check (option string)) "protocol" (Some "hbrc_mw") m.Run_meta.rm_protocol;
  Alcotest.(check (option int)) "nodes" (Some 4) m.Run_meta.rm_nodes;
  Alcotest.(check (option string)) "case" (Some tiny_case.B.c_id) m.Run_meta.rm_case

(* --- the committed matrix and its filters --- *)

let test_matrix_well_formed () =
  let all = B.cases () in
  Alcotest.(check bool) "non-empty" true (all <> []);
  let ids = List.map (fun c -> c.B.c_id) all in
  Alcotest.(check int) "ids unique" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  Alcotest.(check bool) "has a quick subset" true
    (List.exists (fun c -> c.B.c_quick) all);
  (* every case runs: the registered protocol and driver names must resolve *)
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (c.B.c_id ^ " driver resolves")
        true
        (Dsmpm2_net.Driver.by_name c.B.c_driver <> None))
    all

let test_filter_cases () =
  let all = B.cases () in
  let quick = B.filter_cases ~quick:true all in
  Alcotest.(check bool) "quick keeps only quick" true
    (quick <> [] && List.for_all (fun c -> c.B.c_quick) quick);
  let jacobi = B.filter_cases ~filter:"jacobi" all in
  Alcotest.(check bool) "filter keeps only matches" true
    (jacobi <> [] && List.for_all (fun c -> c.B.c_app = "jacobi") jacobi);
  let both = B.filter_cases ~filter:"jacobi" ~quick:true all in
  Alcotest.(check bool) "filters compose" true
    (both <> []
    && List.for_all (fun c -> c.B.c_quick && c.B.c_app = "jacobi") both);
  Alcotest.(check (list string)) "no match" []
    (List.map (fun c -> c.B.c_id) (B.filter_cases ~filter:"nonesuch" all))

(* --- snapshot file I/O --- *)

let test_load_round_trip () =
  let t = B.run ~seeds:[ 0 ] ~filter:"jacobi:hbrc_mw:bip-myrinet" () in
  let path = Filename.temp_file "dsm_macro" ".json" in
  Json.to_file path (B.to_json t);
  let back =
    match B.load path with
    | Ok t -> t
    | Error msg -> Alcotest.failf "load %s: %s" path msg
  in
  Sys.remove path;
  Alcotest.(check int) "filter selected one case" 1 (List.length t.B.bs_results);
  Alcotest.(check bool) (path ^ " loads back") true (back = t)

(* --- fault percentiles: one series, so always ordered ---

   p50, p90, p99 and p999 all read the registry's whole-fault latency, so
   every sample is ordered, and a protocol that migrates threads instead of
   shipping pages still has a tail. *)

let check_percentiles label (t : B.t) =
  List.iter
    (fun cr ->
      List.iter
        (fun s ->
          let name =
            Printf.sprintf "%s %s seed %d" label cr.B.cr_case.B.c_id s.B.s_seed
          in
          let p n = B.metric (Printf.sprintf "fault_p%s_ns" n) s in
          Alcotest.(check bool)
            (name ^ ": p50 <= p90 <= p99 <= p999")
            true
            (p "50" <= p "90" && p "90" <= p "99" && p "99" <= p "999");
          if cr.B.cr_case.B.c_protocol = "migrate_thread" then
            Alcotest.(check bool) (name ^ ": p999 > 0") true (p "999" > 0))
        cr.B.cr_samples)
    t.B.bs_results

let test_percentiles_ordered () =
  (match B.load "../BENCH_macro.json" with
  | Ok t -> check_percentiles "committed" t
  | Error msg -> Alcotest.failf "committed snapshot: %s" msg);
  let fresh = B.run ~filter:"tsp:migrate_thread" () in
  Alcotest.(check int) "both migrate_thread cases" 2
    (List.length fresh.B.bs_results);
  check_percentiles "fresh" fresh

let () =
  Alcotest.run "bench_suite"
    [
      ( "schema",
        [
          QCheck_alcotest.to_alcotest prop_schema_roundtrip;
          Alcotest.test_case "unknown schema rejected" `Quick
            test_schema_version_rejected;
          Alcotest.test_case "only what to_json writes" `Quick test_snapshot_strict;
        ] );
      ( "paper",
        [
          QCheck_alcotest.to_alcotest prop_paper_roundtrip;
          Alcotest.test_case "only what to_json writes" `Quick test_paper_strict;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seeds, same samples" `Quick
            test_run_case_deterministic;
          Alcotest.test_case "case identity metadata" `Quick test_case_meta;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "well-formed" `Quick test_matrix_well_formed;
          Alcotest.test_case "filtering" `Quick test_filter_cases;
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
