(* Tests of the application workloads: correctness against sequential
   oracles under every protocol, plus graph/data sanity. *)

open Dsmpm2_apps

(* --- US states graph --- *)

let test_us_states_graph_sane () =
  Alcotest.(check int) "29 states" 29 Us_states.count;
  Alcotest.(check int) "29 names" 29 (Array.length Us_states.names);
  (* adjacency is symmetric by construction; check it is loop-free, within
     range, and connected enough to be interesting *)
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool) "no self loop" true (a <> b);
      Alcotest.(check bool) "in range" true (a >= 0 && b < Us_states.count))
    Us_states.adjacency;
  Array.iteri
    (fun s _ ->
      Alcotest.(check bool)
        (Us_states.names.(s) ^ " has a neighbour")
        true
        (Us_states.neighbors s <> []))
    Us_states.names;
  (* spot-check real borders *)
  let id name =
    let rec find i = if Us_states.names.(i) = name then i else find (i + 1) in
    find 0
  in
  Alcotest.(check bool) "ME-NH" true (List.mem (id "NH") (Us_states.neighbors (id "ME")));
  Alcotest.(check bool) "FL-GA" true (List.mem (id "GA") (Us_states.neighbors (id "FL")));
  Alcotest.(check bool) "ME not adjacent to FL" false
    (List.mem (id "FL") (Us_states.neighbors (id "ME")))

let test_us_states_search_order_connected () =
  (* every state (after the first) touches at least one earlier state, the
     property the branch-and-bound ordering relies on *)
  let order = Us_states.search_order in
  Alcotest.(check (list int)) "a permutation"
    (List.init Us_states.count Fun.id)
    (List.sort compare (Array.to_list order));
  let placed = Hashtbl.create 32 in
  Hashtbl.add placed order.(0) ();
  Array.iteri
    (fun i s ->
      if i > 0 then begin
        Alcotest.(check bool)
          (Printf.sprintf "state %s touches the placed region" Us_states.names.(s))
          true
          (List.exists (Hashtbl.mem placed) (Us_states.neighbors s));
        Hashtbl.add placed s ()
      end)
    order

let test_four_colorable () =
  (* the sequential solver must find a proper colouring with 4 colours:
     cost upper bound 29 * 4 means "coloured at all" *)
  let cost = Map_coloring.solve_sequential () in
  Alcotest.(check bool) "4-colourable" true (cost <= 29 * 4);
  Alcotest.(check bool) "cost at least 29" true (cost >= 29)

(* --- TSP --- *)

let test_tsp_distances_symmetric () =
  let d = Tsp.distances ~cities:10 ~seed:5 in
  for i = 0 to 9 do
    Alcotest.(check int) "zero diagonal" 0 d.(i).(i);
    for j = 0 to 9 do
      Alcotest.(check int) "symmetric" d.(i).(j) d.(j).(i)
    done
  done

let test_tsp_deterministic_per_seed () =
  let a = Tsp.distances ~cities:8 ~seed:1 and b = Tsp.distances ~cities:8 ~seed:1 in
  Alcotest.(check bool) "same seed same matrix" true (a = b);
  let c = Tsp.distances ~cities:8 ~seed:2 in
  Alcotest.(check bool) "different seed differs" true (a <> c)

let test_tsp_every_protocol_finds_optimum () =
  let cities = 11 in
  let optimal = Tsp.solve_sequential (Tsp.distances ~cities ~seed:42) in
  List.iter
    (fun protocol ->
      let r = Tsp.run { Tsp.default with Tsp.cities; protocol; nodes = 3 } in
      Alcotest.(check int) (protocol ^ " optimal") optimal r.Tsp.best;
      Alcotest.(check bool) (protocol ^ " did work") true (r.Tsp.expansions > 0))
    [ "li_hudak"; "migrate_thread"; "erc_sw"; "hbrc_mw" ]

let test_tsp_deterministic_replay () =
  let run () = Tsp.run { Tsp.default with Tsp.cities = 10 } in
  let a = run () and b = run () in
  Alcotest.(check (float 0.)) "same virtual time" a.Tsp.time_ms b.Tsp.time_ms;
  Alcotest.(check int) "same expansions" a.Tsp.expansions b.Tsp.expansions;
  Alcotest.(check int) "same messages" a.Tsp.messages b.Tsp.messages

let test_tsp_migrate_thread_piles_up () =
  let r = Tsp.run { Tsp.default with Tsp.cities = 11; protocol = "migrate_thread" } in
  Alcotest.(check (list int)) "all workers end on node 0" [ 0; 0; 0; 0 ]
    r.Tsp.final_node_of_thread;
  Alcotest.(check bool) "migrations happened" true (r.Tsp.migrations > 0)

let test_tsp_page_protocols_beat_migration () =
  let time protocol =
    (Tsp.run { Tsp.default with Tsp.cities = 11; protocol }).Tsp.time_ms
  in
  let page = time "li_hudak" and migrate = time "migrate_thread" in
  Alcotest.(check bool)
    (Printf.sprintf "page-based (%.1fms) beats thread migration (%.1fms)" page migrate)
    true (page < migrate)

(* --- Jacobi --- *)

let test_jacobi_matches_sequential () =
  let size = 32 and iterations = 4 in
  let reference = Jacobi.checksum_sequential ~size ~iterations in
  List.iter
    (fun protocol ->
      let r = Jacobi.run { Jacobi.default with Jacobi.size; iterations; protocol; nodes = 4 } in
      Alcotest.(check int) (protocol ^ " checksum") reference r.Jacobi.checksum)
    [ "li_hudak"; "erc_sw"; "hbrc_mw"; "migrate_thread" ]

(* Eight nodes put two or more non-home writers on one hbrc_mw page: a
   write made while an invalidation's diff round trip was blocked used to
   be dropped with the copy. *)
let test_jacobi_hbrc_eight_nodes () =
  let size = 32 and iterations = 4 in
  let r =
    Jacobi.run { Jacobi.default with Jacobi.size; iterations; protocol = "hbrc_mw"; nodes = 8 }
  in
  Alcotest.(check int) "checksum"
    (Jacobi.checksum_sequential ~size ~iterations)
    r.Jacobi.checksum

let test_jacobi_hbrc_ships_diffs () =
  let r = Jacobi.run { Jacobi.default with Jacobi.protocol = "hbrc_mw" } in
  Alcotest.(check bool) "diffs were shipped" true (r.Jacobi.diff_bytes > 0);
  Alcotest.(check bool) "diffs smaller than whole-page traffic" true
    (r.Jacobi.diff_bytes < r.Jacobi.pages_transferred * 4096)

let test_jacobi_single_node_degenerate () =
  let size = 16 and iterations = 3 in
  let reference = Jacobi.checksum_sequential ~size ~iterations in
  let r = Jacobi.run { Jacobi.default with Jacobi.size; iterations; nodes = 1 } in
  Alcotest.(check int) "single node correct" reference r.Jacobi.checksum

(* --- Matmul --- *)

let test_matmul_matches_sequential () =
  let size = 16 in
  let reference = Matmul.checksum_sequential ~size ~seed:7 in
  List.iter
    (fun protocol ->
      let r = Matmul.run { Matmul.default with Matmul.size; protocol; nodes = 4 } in
      Alcotest.(check int) (protocol ^ " checksum") reference r.Matmul.checksum)
    [ "li_hudak"; "erc_sw"; "hbrc_mw"; "migrate_thread" ]

(* --- map colouring over DSM --- *)

let test_coloring_both_protocols_optimal () =
  let optimal = Map_coloring.solve_sequential () in
  List.iter
    (fun protocol ->
      let r = Map_coloring.run { Map_coloring.default with Map_coloring.protocol; nodes = 2 } in
      Alcotest.(check int) (protocol ^ " optimal cost") optimal r.Map_coloring.best_cost)
    [ "java_ic"; "java_pf" ]

(* Hyperion over a protocol outside the Java model: the set-up thread's
   main-memory update must leave sc_abd's quorum services in place. *)
let test_coloring_sc_abd_optimal () =
  let color_costs = [| 1; 1; 1; 1 |] in
  let r =
    Map_coloring.run
      { Map_coloring.default with Map_coloring.protocol = "sc_abd"; nodes = 2; color_costs }
  in
  Alcotest.(check int) "sc_abd optimal cost"
    (Map_coloring.solve_sequential ~color_costs ())
    r.Map_coloring.best_cost

let test_coloring_ic_pays_checks () =
  let ic = Map_coloring.run { Map_coloring.default with Map_coloring.protocol = "java_ic"; nodes = 2 } in
  let pf = Map_coloring.run { Map_coloring.default with Map_coloring.protocol = "java_pf"; nodes = 2 } in
  Alcotest.(check bool) "ic counts checks" true (ic.Map_coloring.inline_checks > 1000);
  Alcotest.(check int) "pf never checks" 0 pf.Map_coloring.inline_checks;
  Alcotest.(check bool) "pf faults a little" true (pf.Map_coloring.read_faults > 0);
  Alcotest.(check bool)
    (Printf.sprintf "pf (%.0fms) faster than ic (%.0fms)" pf.Map_coloring.time_ms
       ic.Map_coloring.time_ms)
    true
    (pf.Map_coloring.time_ms < ic.Map_coloring.time_ms)

(* --- the application catalog --- *)

(* The integer after [key=] in a catalog result line. *)
let field line key =
  let prefix = key ^ "=" in
  match
    List.find_opt
      (fun w -> String.starts_with ~prefix w)
      (String.split_on_char ' ' line)
  with
  | Some w ->
      let n = String.length prefix in
      String.sub w n (String.length w - n)
  | None -> Alcotest.failf "no %s in %S" prefix line

let bench_params name =
  match
    List.find_opt
      (fun c -> c.Dsmpm2_experiments.Bench_suite.c_app = name)
      (Dsmpm2_experiments.Bench_suite.cases ())
  with
  | Some c -> c.Dsmpm2_experiments.Bench_suite.c_params
  | None -> Alcotest.failf "no bench case runs %s" name

let run_entry ?(params = []) (app : Catalog.app) =
  app.run ~protocol:app.protocol ~nodes:4 ~driver:Dsmpm2_net.Driver.bip_myrinet
    ~observe:ignore params

(* Every entry, at its bench-suite parameters under its default protocol,
   agrees with its application's sequential oracle. *)
let test_catalog_entries_correct () =
  List.iter
    (fun (app : Catalog.app) ->
      let params = bench_params app.name in
      let _, line = run_entry ~params app in
      let expect key want =
        Alcotest.(check string) (app.name ^ " " ^ key) want (field line key)
      in
      match app.name with
      | "tsp" ->
          let cities = List.assoc "cities" params in
          expect "best"
            (string_of_int
               (Tsp.solve_sequential
                  (Tsp.distances ~cities ~seed:Tsp.default.Tsp.seed)))
      | "coloring" ->
          expect "cost" (string_of_int (Map_coloring.solve_sequential ()))
      | "jacobi" | "lu" | "matmul" -> expect "checksum" "OK"
      | "sort" -> expect "result" "OK"
      | name -> Alcotest.failf "no oracle for %s" name)
    Catalog.all

let test_catalog_declares_bench_params () =
  List.iter
    (fun c ->
      let open Dsmpm2_experiments.Bench_suite in
      match Catalog.find c.c_app with
      | None -> Alcotest.failf "%s: app %s is not catalogued" c.c_id c.c_app
      | Some app ->
          List.iter
            (fun (k, _) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s declares %s" app.name k)
                true
                (List.mem_assoc k app.params))
            c.c_params)
    (Dsmpm2_experiments.Bench_suite.cases ())

let test_catalog_rejects_undeclared_param () =
  let jacobi = Option.get (Catalog.find "jacobi") in
  match run_entry ~params:[ ("cities", 8) ] jacobi with
  | _ -> Alcotest.fail "an undeclared parameter must be rejected"
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        ("message names the app and its parameters: " ^ msg)
        true
        (String.starts_with ~prefix:"Catalog: jacobi has no parameter \"cities\" \
                                     (parameters: size, iterations)" msg)

let test_catalog_unknown_name () =
  Alcotest.(check bool) "unknown app" true (Catalog.find "nosuch" = None)

let () =
  Alcotest.run "apps"
    [
      ( "us_states",
        [
          Alcotest.test_case "graph sanity" `Quick test_us_states_graph_sane;
          Alcotest.test_case "search order connected" `Quick
            test_us_states_search_order_connected;
          Alcotest.test_case "four colourable" `Quick test_four_colorable;
        ] );
      ( "tsp",
        [
          Alcotest.test_case "distances symmetric" `Quick test_tsp_distances_symmetric;
          Alcotest.test_case "deterministic per seed" `Quick test_tsp_deterministic_per_seed;
          Alcotest.test_case "all protocols optimal" `Slow test_tsp_every_protocol_finds_optimum;
          Alcotest.test_case "deterministic replay" `Slow test_tsp_deterministic_replay;
          Alcotest.test_case "migrate_thread pile-up" `Slow test_tsp_migrate_thread_piles_up;
          Alcotest.test_case "page beats migration" `Slow test_tsp_page_protocols_beat_migration;
        ] );
      ( "jacobi",
        [
          Alcotest.test_case "matches sequential" `Slow test_jacobi_matches_sequential;
          Alcotest.test_case "hbrc ships diffs" `Slow test_jacobi_hbrc_ships_diffs;
          Alcotest.test_case "hbrc_mw on eight nodes" `Quick test_jacobi_hbrc_eight_nodes;
          Alcotest.test_case "single node" `Quick test_jacobi_single_node_degenerate;
        ] );
      ( "matmul",
        [ Alcotest.test_case "matches sequential" `Slow test_matmul_matches_sequential ] );
      ( "coloring",
        [
          Alcotest.test_case "both protocols optimal" `Slow test_coloring_both_protocols_optimal;
          Alcotest.test_case "ic pays checks, pf pays faults" `Slow test_coloring_ic_pays_checks;
          Alcotest.test_case "sc_abd optimal" `Slow test_coloring_sc_abd_optimal;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "entries match their oracles" `Slow
            test_catalog_entries_correct;
          Alcotest.test_case "declares bench params" `Quick
            test_catalog_declares_bench_params;
          Alcotest.test_case "rejects undeclared param" `Quick
            test_catalog_rejects_undeclared_param;
          Alcotest.test_case "unknown name" `Quick test_catalog_unknown_name;
        ] );
    ]
