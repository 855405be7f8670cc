(* The benchmark harness: one runner per table/figure of the paper, plus a
   Bechamel suite measuring the simulator itself.

     dune exec bench/main.exe            -- everything, in paper order
     dune exec bench/main.exe -- table3  -- a single experiment
     dune exec bench/main.exe -- bechamel
     dune exec bench/main.exe -- bechamel --filter diff/  -- a subset

   Experiments: micro table2 table3 table4 fig4 fig5 splash ablation.

   Each experiment also writes its results as BENCH_<name>.json in the
   current directory, so successive runs leave a machine-readable perf
   trajectory. *)

open Dsmpm2_sim
open Dsmpm2_experiments

let ppf = Format.std_formatter

let section title f =
  Format.fprintf ppf "@.=== %s ===@." title;
  (match f () with
  | None -> ()
  | Some json ->
      let file = "BENCH_" ^ title ^ ".json" in
      Json.to_file file json;
      Format.fprintf ppf "[wrote %s]@." file);
  Format.pp_print_flush ppf ()

let run_micro () =
  let t = Micro.run () in
  Micro.print ppf t;
  Some (Micro.to_json t)

let run_table2 () =
  let t = Table2_inventory.run () in
  Table2_inventory.print ppf t;
  Some (Table2_inventory.to_json t)

let run_fault_cost policy () =
  let t = Fault_cost.run policy in
  Fault_cost.print ppf t;
  Some (Fault_cost.to_json t)

let run_table3 = run_fault_cost Fault_cost.Page_transfer
let run_table4 = run_fault_cost Fault_cost.Thread_migration

let run_fig4 () =
  let t = Fig4_tsp.run () in
  Fig4_tsp.print ppf t;
  Some (Fig4_tsp.to_json t)

let run_fig5 () =
  let t = Fig5_coloring.run () in
  Fig5_coloring.print ppf t;
  Some (Fig5_coloring.to_json t)

let run_splash () =
  let t = Splash.run () in
  Splash.print ppf t;
  Some (Splash.to_json t)

let run_ablation () =
  let t = Ablation.run () in
  Ablation.print ppf t;
  Some (Ablation.to_json t)

let run_litmus () =
  let t = Litmus.run () in
  Litmus.print ppf t;
  Some (Litmus.to_json t)

let run_patterns () =
  let t = Sharing_patterns.run () in
  Sharing_patterns.print ppf t;
  Some (Sharing_patterns.to_json t)

(* Bechamel micro-benchmarks of the simulator itself: how fast the host can
   execute one simulated cold read fault and one simulated TSP solve.  These
   measure the reproduction platform, not the paper's system. *)
let bechamel_tests ?filter () =
  let open Bechamel in
  let open Dsmpm2_net in
  let open Dsmpm2_core in
  let open Dsmpm2_protocols in
  let fault_once policy () =
    let dsm = Dsm.create ~nodes:2 ~driver:Driver.bip_myrinet () in
    let ids = Builtin.register_all dsm in
    let protocol =
      match policy with
      | `Page -> ids.Builtin.li_hudak
      | `Migrate -> ids.Builtin.migrate_thread
    in
    let x = Dsm.malloc dsm ~protocol ~home:(Dsm.On_node 1) 8 in
    ignore (Dsm.spawn dsm ~node:0 (fun () -> ignore (Dsm.read_int dsm x)));
    Dsm.run dsm
  in
  let tsp_small () =
    ignore
      (Dsmpm2_apps.Tsp.run { Dsmpm2_apps.Tsp.default with Dsmpm2_apps.Tsp.cities = 10 })
  in
  (* Monitoring-disabled overhead: the same simulated workload with the
     monitor explicitly off must cost the same as never mentioning it —
     the guarded Monitor.emit call sites are supposed to be free. *)
  let fault_once_monitored enabled () =
    let dsm = Dsm.create ~nodes:2 ~driver:Driver.bip_myrinet () in
    let ids = Builtin.register_all dsm in
    Monitor.enable dsm enabled;
    let x = Dsm.malloc dsm ~protocol:ids.Builtin.li_hudak ~home:(Dsm.On_node 1) 8 in
    ignore (Dsm.spawn dsm ~node:0 (fun () -> ignore (Dsm.read_int dsm x)));
    Dsm.run dsm
  in
  (* Hot-path kernels: diff computation (word-scan vs the byte-at-a-time
     reference), the frame-store word-access fast path, a page-table
     lookup, and a raw network send.  These are the paths the release/fault machinery hammers, so
     their host-side cost bounds how large a simulated run can get. *)
  let open Dsmpm2_mem in
  let sparse_page () =
    let twin = Bytes.make 4096 '\000' in
    let current = Bytes.copy twin in
    (* 8 single-word writes scattered across the page: the sparse-write
       shape of a release in a fine-grain-sharing application. *)
    List.iter
      (fun off -> Bytes.set_int64_le current off 0x5aL)
      [ 0; 512; 1024; 1536; 2048; 2560; 3072; 4088 ];
    (twin, current)
  in
  let twin_sparse, current_sparse = sparse_page () in
  let diff_sparse () =
    ignore (Diff.compute ~page:0 ~twin:twin_sparse ~current:current_sparse)
  in
  let diff_sparse_bytewise () =
    ignore (Diff.compute_bytewise ~page:0 ~twin:twin_sparse ~current:current_sparse)
  in
  let geo = Page.geometry ~size:4096 in
  let fs = Frame_store.create ~geometry:geo in
  Frame_store.write_int fs ~addr:0 1;
  let frame_read_hot () =
    let acc = ref 0 in
    for _ = 1 to 64 do
      acc := !acc + Frame_store.read_int fs ~addr:0
    done;
    Sys.opaque_identity !acc |> ignore
  in
  (* The DSM's per-access page lookup: 64 finds spread over 256 mapped
     pages, each on a different entry. *)
  let table = Page_table.create ~node:0 in
  for page = 1 to 256 do
    ignore
      (Page_table.declare table ~page ~home:0 ~owner:0 ~protocol:0 ~cls:0
         ~rights:Access.No_access)
  done;
  let page_table_find () =
    let acc = ref 0 in
    for i = 0 to 63 do
      acc := !acc + (Page_table.find table (1 + (i * 37 land 255))).Page_table.home
    done;
    Sys.opaque_identity !acc |> ignore
  in
  (* The DSM access hit: 64 word reads on a page homed on the reading node,
     by one held thread that sleeps 1 ns between batches, so a run is one
     engine event (the wake-up) and 64 hits.  Under li_hudak a hit is the
     rights test alone; under java_ic it also counts and charges an inline
     check. *)
  let read_hits protocol =
    let dsm = Dsm.create ~nodes:2 ~driver:Driver.bip_myrinet () in
    let ids = Builtin.register_all dsm in
    let base = Dsm.malloc dsm ~protocol:(protocol ids) ~home:(Dsm.On_node 0) 4096 in
    let eng = Dsm.engine dsm in
    ignore
      (Dsm.spawn dsm ~node:0 (fun () ->
           while true do
             for i = 0 to 63 do
               ignore (Sys.opaque_identity (Dsm.read_int dsm (base + (i * 8))))
             done;
             Engine.sleep eng (Dsmpm2_sim.Time.of_ns 1)
           done));
    fun () -> Dsm.run ~limit:Dsmpm2_sim.Time.(Engine.now eng + of_ns 1) dsm
  in
  (* The lazy CPU charge: 64 [Dsm.charge] calls by one held thread, in the
     same one-event runs.  The work is never paid, so a run is the charges
     and one wake-up. *)
  let charges () =
    let dsm = Dsm.create ~nodes:1 ~driver:Driver.bip_myrinet () in
    let eng = Dsm.engine dsm in
    ignore
      (Dsm.spawn dsm ~node:0 (fun () ->
           while true do
             for _ = 1 to 64 do
               Dsm.charge dsm 0.001
             done;
             Engine.sleep eng (Dsmpm2_sim.Time.of_ns 1)
           done));
    fun () -> Dsm.run ~limit:Dsmpm2_sim.Time.(Engine.now eng + of_ns 1) dsm
  in
  let network_send () =
    let eng = Engine.create () in
    let net = Dsmpm2_net.Network.create eng ~driver:Dsmpm2_net.Driver.bip_myrinet ~nodes:2 in
    for _ = 1 to 64 do
      Dsmpm2_net.Network.send net ~src:0 ~dst:1 ~cost:Dsmpm2_net.Driver.Request ignore
    done;
    Engine.run eng
  in
  (* The engine alone: 1 024 events from 16 self-rescheduling chains, so
     the queue stays 16 deep, each with a tie key drawn. *)
  let engine_events () =
    let eng = Engine.create ~tie_seed:1 () in
    let left = ref (1024 - 16) in
    let rec tick () =
      if !left > 0 then begin
        decr left;
        Engine.after eng (Dsmpm2_sim.Time.of_ns 1) tick
      end
    in
    for _ = 1 to 16 do Engine.after eng Dsmpm2_sim.Time.zero tick done;
    Engine.run eng
  in
  (* The now lane: 1 024 events at one instant from 16 fiber chains, each
     fiber yielding three times and then spawning its successor, so every
     event is a fiber start or a resume, with a tie key drawn. *)
  let engine_same_instant () =
    let eng = Engine.create ~tie_seed:1 () in
    let left = ref (256 - 16) in
    let rec body () =
      for _ = 1 to 3 do Engine.suspend eng (fun resume -> resume ()) done;
      if !left > 0 then begin
        decr left;
        ignore (Engine.spawn eng body)
      end
    in
    for _ = 1 to 16 do ignore (Engine.spawn eng body) done;
    Engine.run eng
  in
  (* Fiber start-up: 64 spawns in a chain, each of a body that goes 50
     frames deep, sleeps once at the bottom and spawns the next on its way
     out, as the RPC server threads of a simulation follow each other. *)
  let spawn_eng = Engine.create () in
  let left = ref 0 in
  let rec deep n =
    if n = 0 then begin
      Engine.sleep spawn_eng (Dsmpm2_sim.Time.of_ns 1);
      0
    end
    else 1 + deep (Sys.opaque_identity (n - 1))
  in
  let rec body () =
    ignore (Sys.opaque_identity (deep 50));
    if !left > 0 then begin
      decr left;
      ignore (Engine.spawn spawn_eng body)
    end
  in
  let spawn_deep () =
    left := 63;
    ignore (Engine.spawn spawn_eng body);
    Engine.run spawn_eng
  in
  (* The flight recorder at steady state: 64 freshly built fault and diff
     events over 128 (node, page) keys into a full 4 096-slot ring. *)
  let ring_eng = Engine.create () in
  let ring = Trace.create ~enabled:true () in
  Trace.set_capacity ring 4096;
  let emitted = ref 0 in
  let emit_full_ring () =
    for _ = 1 to 64 do
      let i = !emitted in
      emitted := i + 1;
      let key = (i / 2) land 127 in
      let node = key lsr 4 and page = key land 15 in
      Trace.emit ring ring_eng
        (if i land 1 = 0 then Trace.Fault { node; page; protocol = "hbrc_mw"; mode = "write" }
         else
           Trace.Diff
             { node; pages = 1; page_list = [ page ]; bytes = 64; sender = (node + 1) land 7;
               release = true; protocol = "hbrc_mw" })
    done
  in
  for _ = 1 to 64 do emit_full_ring () done;
  let named =
    [
      ("sim/engine_events", engine_events);
      ("sim/engine_same_instant", engine_same_instant);
      ("sim/spawn_deep_x64", spawn_deep);
      ("trace/emit_full_ring_x64", emit_full_ring);
      ("sim/read_fault_page_transfer", fault_once `Page);
      ("sim/read_fault_thread_migration", fault_once `Migrate);
      ("sim/read_fault_monitor_disabled", fault_once_monitored false);
      ("sim/read_fault_monitor_enabled", fault_once_monitored true);
      ("sim/tsp_10_cities_li_hudak", tsp_small);
      ("diff/compute_4k_sparse", diff_sparse);
      ("diff/compute_4k_sparse_bytewise", diff_sparse_bytewise);
      ("frame/read_int_hot_x64", frame_read_hot);
      ("core/page_table_find_x64", page_table_find);
      ("core/dsm_read_hit_x64", read_hits (fun ids -> ids.Builtin.li_hudak));
      ("core/dsm_read_hit_inline_x64", read_hits (fun ids -> ids.Builtin.java_ic));
      ("core/dsm_charge_x64", charges ());
      ("net/send_request_x64", network_send);
    ]
  in
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
    n = 0 || at 0
  in
  let selected =
    match filter with
    | None -> named
    | Some sub -> List.filter (fun (name, _) -> contains ~sub name) named
  in
  if selected = [] then begin
    Format.fprintf ppf "bechamel: no test matches the filter; known:@.";
    List.iter (fun (name, _) -> Format.fprintf ppf "  %s@." name) named;
    exit 1
  end;
  Test.make_grouped ~name:"dsmpm2"
    (List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) selected)

let run_bechamel ?filter () =
  let open Bechamel in
  let open Toolkit in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:(Some 100) () in
  let raw = Benchmark.all cfg instances (bechamel_tests ?filter ()) in
  let results =
    List.map (fun instance -> Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]) instance raw) instances
  in
  let results = Analyze.merge (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]) instances results in
  let estimates = ref [] in
  Hashtbl.iter
    (fun measure by_test ->
      Hashtbl.iter
        (fun test result ->
          match Bechamel.Analyze.OLS.estimates result with
          | Some [ est ] ->
              Format.fprintf ppf "%-40s %12.1f ns/run (%s)@." test est measure;
              estimates := (test, est) :: !estimates
          | _ -> Format.fprintf ppf "%-40s (no estimate)@." test)
        by_test)
    results;
  let estimates = List.sort (fun (a, _) (b, _) -> compare a b) !estimates in
  (* The word-scan diff kernel exists to beat the byte-scan reference on the
     sparse-write page; surface the ratio so regressions are visible in the
     committed artifact. *)
  (match
     ( List.assoc_opt "dsmpm2/diff/compute_4k_sparse" estimates,
       List.assoc_opt "dsmpm2/diff/compute_4k_sparse_bytewise" estimates )
   with
  | Some fast, Some slow when fast > 0. ->
      Format.fprintf ppf "diff word-scan speedup over bytewise: %.1fx@." (slow /. fast)
  | _ -> ());
  Some
    (Json.Obj
       [
         ("unit", Json.String "ns/run");
         ( "estimates",
           Json.Obj (List.map (fun (test, est) -> (test, Json.Float est)) estimates)
         );
       ])

let all =
  [
    ("micro", run_micro);
    ("table2", run_table2);
    ("table3", run_table3);
    ("table4", run_table4);
    ("fig4", run_fig4);
    ("fig5", run_fig5);
    ("splash", run_splash);
    ("ablation", run_ablation);
    ("litmus", run_litmus);
    ("patterns", run_patterns);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* `--filter SUBSTR` restricts the bechamel suite to matching test names
     (CI uses this to smoke the hot-path kernels without the full quota). *)
  let rec split_filter acc = function
    | [] -> (List.rev acc, None)
    | "--filter" :: sub :: rest -> (List.rev_append acc rest, Some sub)
    | "--filter" :: [] ->
        Format.fprintf ppf "--filter needs an argument@.";
        exit 1
    | a :: rest -> split_filter (a :: acc) rest
  in
  let names, filter = split_filter [] args in
  if filter <> None && not (List.mem "bechamel" names) then begin
    Format.fprintf ppf "--filter only applies to the bechamel suite@.";
    exit 1
  end;
  match names with
  | [] ->
      Format.fprintf ppf
        "DSM-PM2 reproduction bench: regenerating every table and figure@.";
      List.iter (fun (name, f) -> section name f) all
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name all with
          | Some f -> section name f
          | None when name = "bechamel" ->
              section "bechamel" (run_bechamel ?filter)
          | None ->
              Format.fprintf ppf "unknown experiment %S; known: %s bechamel@." name
                (String.concat " " (List.map fst all));
              exit 1)
        names
