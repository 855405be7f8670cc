(* Tests of the experiment harness itself: the reproduced numbers must match
   the paper where the paper gives numbers, and match its qualitative claims
   where it gives shapes. *)

open Dsmpm2_experiments

let close ?(tolerance = 0.02) name expected actual =
  let ok = Float.abs (actual -. expected) <= tolerance *. Float.abs expected in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.1f within %.0f%% of paper's %.1f" name actual
       (100. *. tolerance) expected)
    true ok

let test_table3_matches_paper () =
  let t = Fault_cost.run Fault_cost.Page_transfer in
  List.iteri
    (fun i driver ->
      close
        (driver ^ " Table 3 total")
        (Fault_cost.paper_total t ~driver:i)
        (Fault_cost.total t ~driver:i))
    t.Fault_cost.drivers

let test_table4_matches_paper () =
  let t = Fault_cost.run Fault_cost.Thread_migration in
  List.iteri
    (fun i driver ->
      close
        (driver ^ " Table 4 total")
        (Fault_cost.paper_total t ~driver:i)
        (Fault_cost.total t ~driver:i))
    t.Fault_cost.drivers

let test_table3_stage_rows_match () =
  let t = Fault_cost.run Fault_cost.Page_transfer in
  List.iter
    (fun row ->
      Array.iteri
        (fun i paper -> close (row.Fault_cost.operation ^ Printf.sprintf " col %d" i) paper row.Fault_cost.measured_us.(i))
        row.Fault_cost.paper_us)
    t.Fault_cost.rows

let test_micro_matches_paper () =
  let rows = Micro.run () in
  List.iter
    (fun r ->
      Option.iter (fun p -> close (r.Micro.driver ^ " null RPC") p r.Micro.null_rpc_us) r.Micro.paper_null_rpc_us;
      Option.iter (fun p -> close (r.Micro.driver ^ " migration") p r.Micro.migration_us) r.Micro.paper_migration_us)
    rows

let test_table2_all_registered () =
  let rows = Table2_inventory.run () in
  Alcotest.(check int) "six protocols" 6 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) (r.Table2_inventory.name ^ " registered") true
        r.Table2_inventory.registered)
    rows

(* Figure 4's qualitative claim: "all protocols based on page migration
   perform better than the protocol using thread migration". *)
let test_fig4_shape () =
  let data = Fig4_tsp.run ~cities:11 ~node_counts:[ 4 ] () in
  let time proto =
    (List.find (fun c -> c.Fig4_tsp.protocol = proto) data.Fig4_tsp.cells)
      .Fig4_tsp.time_ms
  in
  let mt = time "migrate_thread" in
  List.iter
    (fun proto ->
      Alcotest.(check bool)
        (Printf.sprintf "%s (%.1fms) beats migrate_thread (%.1fms)" proto (time proto) mt)
        true
        (time proto < mt))
    [ "li_hudak"; "erc_sw"; "hbrc_mw" ];
  Alcotest.(check bool) "everyone found the optimum" true
    (List.for_all (fun c -> c.Fig4_tsp.best = data.Fig4_tsp.sequential_best) data.Fig4_tsp.cells)

(* Figure 5's qualitative claim: java_pf outperforms java_ic. *)
let test_fig5_shape () =
  let data = Fig5_coloring.run ~node_counts:[ 2 ] () in
  let cell proto = List.find (fun c -> c.Fig5_coloring.protocol = proto) data.Fig5_coloring.cells in
  let ic = cell "java_ic" and pf = cell "java_pf" in
  Alcotest.(check bool)
    (Printf.sprintf "pf (%.1fms) beats ic (%.1fms)" pf.Fig5_coloring.time_ms
       ic.Fig5_coloring.time_ms)
    true
    (pf.Fig5_coloring.time_ms < ic.Fig5_coloring.time_ms);
  Alcotest.(check bool) "ic paid checks" true (ic.Fig5_coloring.inline_checks > 0);
  Alcotest.(check int) "pf paid none" 0 pf.Fig5_coloring.inline_checks;
  Alcotest.(check bool) "both optimal" true
    (ic.Fig5_coloring.best_cost = data.Fig5_coloring.sequential_best
    && pf.Fig5_coloring.best_cost = data.Fig5_coloring.sequential_best)

(* The ablation's crossover claim: thread migration wins for small stacks,
   page transfer wins for large ones (paper section 4 discussion). *)
let test_ablation_stack_crossover () =
  let data = Ablation.run () in
  List.iter
    (fun driver ->
      let rows =
        List.filter (fun r -> r.Ablation.driver = driver.Dsmpm2_net.Driver.name) data.Ablation.stack
      in
      let small = List.find (fun r -> r.Ablation.stack_bytes = 1024) rows in
      let large = List.find (fun r -> r.Ablation.stack_bytes = 65536) rows in
      Alcotest.(check bool)
        (driver.Dsmpm2_net.Driver.name ^ ": migration wins small stacks")
        true
        (small.Ablation.thread_migration_us < small.Ablation.page_transfer_us);
      Alcotest.(check bool)
        (driver.Dsmpm2_net.Driver.name ^ ": page transfer wins large stacks")
        true
        (large.Ablation.page_transfer_us < large.Ablation.thread_migration_us))
    Dsmpm2_net.Driver.all

(* --- litmus tests --- *)

(* Every builtin protocol, under every kind its declared model forbids:
   the expectation is the declaration (Litmus.forbidden), nothing else.
   [kinds] narrows the check to one concern; the two litmus tests below
   split the forbidden kinds between them. *)
let check_declared_models ~kinds =
  List.iter
    (fun { Dsmpm2_core.Protocol.name = protocol; model; _ } ->
      List.iter
        (fun kind ->
          if List.mem kind kinds then begin
            let c = Litmus.sweep ~protocol ~kind in
            Alcotest.(check int)
              (Printf.sprintf "%s (%s): no forbidden %s outcome" protocol
                 (Dsmpm2_core.Protocol.model_to_string model)
                 (Litmus.kind_name kind))
              0 c.Litmus.violations
          end)
        (Litmus.forbidden model))
    (Dsmpm2_protocols.Builtin.protocols ())

(* Ordering: MP and SB, which only a sequential declaration forbids. *)
let test_litmus_sc_protocols_never_violate () =
  check_declared_models ~kinds:[ Litmus.Mp; Litmus.Sb ]

(* Coherence: every model forbids CoRR, so every protocol is checked. *)
let test_litmus_coherence_holds_for_all () =
  List.iter
    (fun { Dsmpm2_core.Protocol.name; model; _ } ->
      Alcotest.(check bool)
        (Printf.sprintf "%s (%s) forbids CoRR" name
           (Dsmpm2_core.Protocol.model_to_string model))
        true
        (List.mem Litmus.Corr (Litmus.forbidden model)))
    (Dsmpm2_protocols.Builtin.protocols ());
  check_declared_models ~kinds:[ Litmus.Corr ]

let test_litmus_weak_protocols_relax () =
  (* These relaxed protocols exhibit the stale-read outcomes somewhere in
     the sweep — that IS the relaxation.  The list records what the sweep
     observes, not what a model promises: write_update declares release
     consistency yet never shows MP or SB here. *)
  List.iter
    (fun protocol ->
      let mp = Litmus.sweep ~protocol ~kind:Litmus.Mp in
      let sb = Litmus.sweep ~protocol ~kind:Litmus.Sb in
      Alcotest.(check bool) (protocol ^ " exhibits MP relaxation") true
        (mp.Litmus.violations > 0);
      Alcotest.(check bool) (protocol ^ " exhibits SB relaxation") true
        (sb.Litmus.violations > 0))
    [ "erc_sw"; "hbrc_mw"; "java_ic"; "java_pf"; "entry_ec" ]

(* The relaxed outcomes disappear once the accesses are synchronized: the
   same MP shape with a lock around each side observes only SC results,
   unperturbed and under perturbed schedules alike. *)
let locked_mp dsm ~protocol ~seed:_ =
  let module Dsm = Dsmpm2_core.Dsm in
  let x = Dsm.malloc dsm ~protocol ~home:(Dsm.On_node 0) 8 in
  let y = Dsm.malloc dsm ~protocol ~home:(Dsm.On_node 0) 8 in
  let lock = Dsm.lock_create dsm ~protocol () in
  if Dsm.protocol_name dsm protocol = "entry_ec" then begin
    Dsmpm2_protocols.Entry_ec.bind dsm ~lock ~addr:x ~size:8;
    Dsmpm2_protocols.Entry_ec.bind dsm ~lock ~addr:y ~size:8
  end;
  let r1 = ref (-1) and r2 = ref (-1) in
  ignore
    (Dsm.spawn dsm ~node:0 (fun () ->
         Dsm.compute dsm 500.;
         Dsm.with_lock dsm lock (fun () ->
             Dsm.write_int dsm x 1;
             Dsm.write_int dsm y 1)));
  ignore
    (Dsm.spawn dsm ~node:1 (fun () ->
         (* adversarial pre-caching of the payload only *)
         Dsm.with_lock dsm lock (fun () -> ignore (Dsm.read_int dsm x));
         Dsm.compute dsm 700.;
         Dsm.with_lock dsm lock (fun () ->
             r1 := Dsm.read_int dsm y;
             r2 := Dsm.read_int dsm x)));
  fun _hist ->
    if Litmus.violates Litmus.Mp { Litmus.r1 = !r1; r2 = !r2 } then
      Some "flag without payload"
    else None

let test_litmus_locks_restore_sc () =
  let scenario =
    {
      Conformance.name = "locked_mp";
      nodes = 2;
      limit_us = 100_000.;
      program = locked_mp;
      expect = Conformance.Forbidden_in (fun _ -> true);
    }
  in
  List.iter
    (fun protocol ->
      List.iter
        (fun seed ->
          let o, _ =
            Conformance.run ~protocol ~driver:Dsmpm2_net.Driver.bip_myrinet
              ~scenario ~seed ()
          in
          Alcotest.(check (option string))
            (Printf.sprintf "%s, seed %s: locked MP never shows flag without payload"
               protocol
               (Option.fold ~none:"none" ~some:string_of_int seed))
            None o.Conformance.o_wrong_result;
          Alcotest.(check bool) "run is clean" false o.Conformance.o_failed)
        [ None; Some 0; Some 1; Some 2 ])
    [ "erc_sw"; "hbrc_mw"; "java_ic"; "java_pf"; "entry_ec" ]

(* --- sharing patterns --- *)

(* One cell is known wrong: sc_abd's whole-page quorum put loses
   concurrent writes to other words of the page (ROADMAP item 1), and
   false sharing is exactly that.  Mending the defect flips this pin. *)
let known_wrong = [ ("false_sharing", "sc_abd") ]

let test_patterns_all_correct () =
  let cells = Sharing_patterns.run () in
  Alcotest.(check int) "every pattern under every builtin protocol"
    (List.length Sharing_patterns.scenarios
    * List.length (Dsmpm2_protocols.Builtin.protocols ()))
    (List.length cells);
  List.iter
    (fun { Sharing_patterns.pattern; protocol; correct; _ } ->
      Alcotest.(check bool)
        (Printf.sprintf "%s under %s" pattern protocol)
        (not (List.mem (pattern, protocol) known_wrong))
        correct)
    cells

(* The patterns under perturbed schedules: the same oracle, through the
   same sweep as [dsm check], fails only where [known_wrong] says. *)
let test_patterns_perturbed () =
  let failed = ref [] in
  let verdicts =
    Conformance.sweep ~drivers:[ Dsmpm2_net.Driver.bip_myrinet ]
      ~scenarios:Sharing_patterns.scenarios ~seeds:[ 0; 1 ]
      ~on_failure:(fun protocol o _ ->
        failed := (o.Conformance.o_workload, protocol) :: !failed)
      ()
  in
  Alcotest.(check int) "every builtin protocol swept"
    (List.length (Dsmpm2_protocols.Builtin.protocols ()))
    (List.length verdicts);
  List.iter
    (fun (pattern, protocol) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s under %s fails only if known wrong" pattern protocol)
        true
        (List.mem (pattern, protocol) known_wrong))
    !failed;
  List.iter
    (fun cell ->
      Alcotest.(check bool)
        (Printf.sprintf "known-wrong %s under %s still fails" (fst cell) (snd cell))
        true (List.mem cell !failed))
    known_wrong

let test_patterns_shapes () =
  let cells = Sharing_patterns.run () in
  let cell ~pattern ~protocol =
    List.find
      (fun c -> c.Sharing_patterns.pattern = pattern && c.protocol = protocol)
      cells
  in
  (* Multiple-writer protocols crush MRSW on false sharing. *)
  let fs_mrsw = cell ~pattern:"false_sharing" ~protocol:"li_hudak" in
  let fs_mw = cell ~pattern:"false_sharing" ~protocol:"hbrc_mw" in
  Alcotest.(check bool)
    (Printf.sprintf "false sharing: hbrc (%.1fms) beats li_hudak (%.1fms)"
       fs_mw.Sharing_patterns.time_ms fs_mrsw.Sharing_patterns.time_ms)
    true
    (fs_mw.Sharing_patterns.time_ms < 0.5 *. fs_mrsw.Sharing_patterns.time_ms);
  (* Thread migration is the natural protocol for migratory data. *)
  let mig_mt = cell ~pattern:"migratory" ~protocol:"migrate_thread" in
  let mig_li = cell ~pattern:"migratory" ~protocol:"li_hudak" in
  Alcotest.(check bool)
    (Printf.sprintf "migratory: migrate_thread (%.1fms) beats li_hudak (%.1fms)"
       mig_mt.Sharing_patterns.time_ms mig_li.Sharing_patterns.time_ms)
    true
    (mig_mt.Sharing_patterns.time_ms < mig_li.Sharing_patterns.time_ms);
  (* Replication shines on read-mostly data: the SC protocols keep their
     copies valid, the weak ones re-fetch after every acquire. *)
  let rm_li = cell ~pattern:"read_mostly" ~protocol:"li_hudak" in
  let rm_hbrc = cell ~pattern:"read_mostly" ~protocol:"hbrc_mw" in
  Alcotest.(check bool)
    (Printf.sprintf "read-mostly: li_hudak (%.1fms) beats hbrc (%.1fms)"
       rm_li.Sharing_patterns.time_ms rm_hbrc.Sharing_patterns.time_ms)
    true
    (rm_li.Sharing_patterns.time_ms < rm_hbrc.Sharing_patterns.time_ms)

(* --- the snapshot gate --- *)

let committed () =
  match Rundiff.load_source "../BENCH_paper.json" with
  | Ok (Rundiff.Rows rows) -> rows
  | Ok _ -> Alcotest.fail "BENCH_paper.json is not a paper snapshot"
  | Error msg -> Alcotest.fail msg

(* Every experiment, run fresh, gives exactly the committed rows: the
   failure lists each difference as `dsm diff` prints it.  After a
   deliberate change to simulated numbers, re-bank with
   `dsm paper --out BENCH_paper.json`. *)
let test_paper_snapshot () =
  let fresh = Paper.run (Format.make_formatter (fun _ _ _ -> ()) ignore) in
  match Rundiff.diff ~baseline:(Rundiff.Rows (committed ())) ~fresh:(Rundiff.Rows fresh) with
  | Error msg -> Alcotest.fail msg
  | Ok d ->
      Alcotest.(check (list string)) "fresh rows equal BENCH_paper.json" []
        (Rundiff.differences d)

(* --- EXPERIMENTS.md shows the snapshot --- *)

(* The body rows of every markdown table in [lines], in order: cells
   trimmed, without the * and \\ of their emphasis and footnote marks. *)
let doc_tables lines =
  let strip cell =
    String.trim (String.of_seq (Seq.filter (fun c -> c <> '*' && c <> '\\') (String.to_seq cell)))
  in
  let cells line =
    match String.split_on_char '|' line with
    | _ :: rest -> List.map strip (List.rev (List.tl (List.rev rest)))
    | [] -> []
  in
  let rec go acc current = function
    | [] -> List.rev (match current with Some t -> List.rev t :: acc | None -> acc)
    | line :: rest when String.length line > 0 && line.[0] = '|' -> (
        match current with
        | None -> go acc (Some []) rest (* the header row *)
        | Some t when String.length line > 1 && line.[1] = '-' -> go acc (Some t) rest
        | Some t -> go acc (Some (cells line :: t)) rest)
    | _ :: rest -> go (match current with Some t -> List.rev t :: acc | None -> acc) None rest
  in
  go [] None lines

let test_experiments_md () =
  let rows = committed () in
  let v id field =
    match List.assoc_opt id rows with
    | None -> Alcotest.failf "BENCH_paper.json has no row %s" id
    | Some fields -> (
        match List.assoc_opt field fields with
        | Some x -> x
        | None -> Alcotest.failf "BENCH_paper.json: %s has no %s" id field)
  in
  let dec d ns scale = Printf.sprintf "%.*f" d (float_of_int ns /. scale) in
  let ms id = dec 1 (v id "time_ns") 1e6 in
  let grouped n =
    let s = string_of_int n in
    let k = String.length s in
    String.concat ""
      (List.init k (fun i ->
           (if i > 0 && (k - i) mod 3 = 0 then " " else "") ^ String.make 1 s.[i]))
  in
  let drivers = List.map (fun d -> d.Dsmpm2_net.Driver.name) Dsmpm2_net.Driver.all in
  let slug = Dsmpm2_net.Driver.slug in
  let protocols =
    List.map (fun p -> p.Dsmpm2_core.Protocol.name) (Dsmpm2_protocols.Builtin.protocols ())
  in
  let micro d =
    let id what = Printf.sprintf "micro/%s/%s" what (slug d) in
    let paper what =
      match Option.bind (List.assoc_opt (id what) rows) (List.assoc_opt "paper_ns") with
      | Some ns -> dec 0 ns 1e3 ^ " µs"
      | None -> "(not quoted)"
    in
    let measured what = dec 1 (v (id what) "ns") 1e3 ^ " µs" in
    [ d; measured "null_rpc"; paper "null_rpc"; measured "migration"; paper "migration" ]
  in
  let fault_table table ops =
    List.map
      (fun op ->
        let op_slug = String.map (function ' ' -> '_' | c -> Char.lowercase_ascii c) op in
        let id d = Printf.sprintf "%s/%s/%s" table op_slug (slug d) in
        let cell d = dec 1 (v (id d) "ns") 1e3 ^ " / " ^ dec 0 (v (id d) "paper_ns") 1e3 in
        op :: List.map cell drivers)
      ops
  in
  let fig4 =
    List.map
      (fun p -> p :: List.map (fun n -> ms (Printf.sprintf "fig4/%s/%d" p n)) [ 1; 2; 4; 8 ])
      Fig4_tsp.protocols
  in
  let fig5 =
    List.map
      (fun p ->
        let id n = Printf.sprintf "fig5/%s/%d" p n in
        p :: List.map (fun n -> ms (id n)) [ 1; 2; 4 ]
        @ [ grouped (v (id 4) "inline_checks"); grouped (v (id 4) "read_faults") ])
      [ "java_ic"; "java_pf" ]
  in
  let splash =
    List.map
      (fun (kernel, label) ->
        label
        :: List.map
             (fun p -> ms (Printf.sprintf "splash/%s/%s" kernel p))
             [ "li_hudak"; "erc_sw"; "hbrc_mw"; "migrate_thread" ])
      [
        ("jacobi", "Jacobi 48², 8 sweeps (ms)");
        ("matmul", "Matmul 32² (ms)");
        ("lu", "LU 32² (ms)");
        ("sort", "Sort 256 elems (ms)");
      ]
  in
  let stack =
    List.map
      (fun d ->
        let id bytes = Printf.sprintf "ablation/stack/%s/%d" (slug d) bytes in
        let migrate b = dec 0 (v (id b) "thread_migration_ns") 1e3 in
        let page = dec 0 (v (id 1024) "page_transfer_ns") 1e3 in
        d :: page :: List.map migrate [ 1024; 4096; 16384; 65536 ])
      drivers
  in
  let refresh =
    List.map
      (fun p ->
        p
        :: List.map
             (fun period -> ms (Printf.sprintf "ablation/refresh/%s/%d" p period))
             [ 500; 2000; 8000 ])
      [ "li_hudak"; "erc_sw"; "hbrc_mw"; "migrate_thread" ]
  in
  let manager =
    List.map
      (fun w ->
        let cell m =
          let id = Printf.sprintf "ablation/manager/%s/%d" m w in
          let latency = dec 0 (v id "read_latency_ns") 1e3 in
          Printf.sprintf "%d / %s µs" (v id "request_messages") latency
        in
        [ string_of_int w; cell "dynamic"; cell "fixed" ])
      [ 1; 3; 6 ]
  in
  let balance =
    List.concat_map
      (fun n ->
        List.map
          (fun on ->
            let id = Printf.sprintf "ablation/balance/%d/%s" n on in
            [
              string_of_int n; on; ms id;
              string_of_int (v id "thread_migrations");
              string_of_int (v id "balancer_moves");
            ])
          [ "off"; "on" ])
      [ 4; 8 ]
  in
  let litmus =
    List.map
      (fun p ->
        p
        :: List.map
             (fun k ->
               let id = Printf.sprintf "litmus/%s/%s" p k in
               Printf.sprintf "%d/%d" (v id "violations") (v id "configurations"))
             [ "MP"; "SB"; "CoRR" ])
      protocols
  in
  let patterns =
    List.map
      (fun p ->
        p
        :: List.map
             (fun pattern ->
               let id = Printf.sprintf "patterns/%s/%s" pattern p in
               ms id ^ if v id "correct" = 1 then "" else " ✗")
             [ "migratory"; "producer_consumer"; "read_mostly"; "false_sharing" ])
      protocols
  in
  let expected =
    [
      ("Section 2.1", List.map micro drivers);
      ( "Table 3",
        fault_table "table3"
          [ "Page fault"; "Request page"; "Page transfer"; "Protocol overhead"; "Total" ] );
      ( "Table 4",
        fault_table "table4" [ "Page fault"; "Thread migration"; "Protocol overhead"; "Total" ] );
      ("Figure 4", fig4);
      ("Figure 5", fig5);
      ("SPLASH", splash);
      ("Ablation (a)", stack);
      ("Ablation (b)", refresh);
      ("Ablation (c)", manager);
      ("Ablation (d)", balance);
      ("Litmus", litmus);
      ("Sharing patterns", patterns);
    ]
  in
  let tables =
    doc_tables (In_channel.with_open_bin "../EXPERIMENTS.md" In_channel.input_lines)
  in
  Alcotest.(check int) "every table of EXPERIMENTS.md is checked" (List.length expected)
    (List.length tables);
  List.iter2
    (fun (name, want) got ->
      (* a row may carry prose after its numbers (the litmus model column) *)
      let got =
        List.mapi
          (fun i g ->
            match List.nth_opt want i with
            | Some w -> List.filteri (fun j _ -> j < List.length w) g
            | None -> g)
          got
      in
      Alcotest.(check (list (list string))) (name ^ " equals BENCH_paper.json") want got)
    expected tables

let () =
  Alcotest.run "experiments"
    [
      ( "paper-numbers",
        [
          Alcotest.test_case "Table 3 totals" `Quick test_table3_matches_paper;
          Alcotest.test_case "Table 4 totals" `Quick test_table4_matches_paper;
          Alcotest.test_case "Table 3 all stages" `Quick test_table3_stage_rows_match;
          Alcotest.test_case "micro (RPC, migration)" `Quick test_micro_matches_paper;
          Alcotest.test_case "Table 2 inventory" `Quick test_table2_all_registered;
        ] );
      ( "paper-shapes",
        [
          Alcotest.test_case "Figure 4 shape" `Slow test_fig4_shape;
          Alcotest.test_case "Figure 5 shape" `Slow test_fig5_shape;
          Alcotest.test_case "stack-size crossover" `Slow test_ablation_stack_crossover;
        ] );
      ( "litmus",
        [
          Alcotest.test_case "SC protocols never violate" `Quick
            test_litmus_sc_protocols_never_violate;
          Alcotest.test_case "weak protocols relax" `Quick
            test_litmus_weak_protocols_relax;
          Alcotest.test_case "coherence holds for all" `Quick
            test_litmus_coherence_holds_for_all;
          Alcotest.test_case "locks restore SC outcomes" `Quick
            test_litmus_locks_restore_sc;
        ] );
      ( "sharing-patterns",
        [
          Alcotest.test_case "all cells correct" `Quick test_patterns_all_correct;
          Alcotest.test_case "qualitative shapes" `Quick test_patterns_shapes;
          Alcotest.test_case "perturbed schedules" `Quick test_patterns_perturbed;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "fresh rows equal BENCH_paper.json" `Quick test_paper_snapshot;
          Alcotest.test_case "EXPERIMENTS.md equals BENCH_paper.json" `Quick
            test_experiments_md;
        ] );
    ]
