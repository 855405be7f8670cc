(* The Bechamel suite: micro-benchmarks of the simulator itself.  The
   paper's tables and figures are `dsm <experiment>` and `dsm paper`.

     dune exec bench/main.exe                      -- every kernel
     dune exec bench/main.exe -- --filter diff/    -- a subset

   A count pass first prices each kernel in the words one run allocates:
   after 5 warm-up runs, 10 runs must agree, or the bench names the kernel
   and exits 1.  Then Bechamel times each kernel; its ns/run is printed
   beside the counts as advice only.  A full run writes the counts to
   BENCH_bechamel.json in the current directory, as `dsm-paper/1` rows
   [bechamel/<kernel>] that `dsm diff` compares exactly with the committed
   copy; a filtered run prints the same table and writes nothing.  The
   committed counts are the release profile's (the dev profile's -opaque
   allocates more words on some kernels), so a full run in another
   profile exits 2 before counting; a filtered run works in any. *)

open Dsmpm2_sim

(* Micro-benchmarks of the simulator itself: how much the host pays to
   execute one simulated cold read fault, one simulated TSP solve, or one
   hot-path step.  These measure the reproduction platform, not the
   paper's system. *)
let kernels ?filter () =
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
  (* The DSM access hit: 64 word accesses on a page homed on the accessing
     node, by one held thread that sleeps 1 ns between batches, so a run is
     one engine event (the wake-up) and 64 hits.  Under li_hudak a hit is
     the rights test alone; under java_ic it also counts and charges an
     inline check. *)
  let hits ~write protocol =
    let dsm = Dsm.create ~nodes:2 ~driver:Driver.bip_myrinet () in
    let ids = Builtin.register_all dsm in
    let base = Dsm.malloc dsm ~protocol:(protocol ids) ~home:(Dsm.On_node 0) 4096 in
    let eng = Dsm.engine dsm in
    ignore
      (Dsm.spawn dsm ~node:0 (fun () ->
           while true do
             if write then
               for i = 0 to 63 do
                 Dsm.write_int dsm (base + (i * 8)) (Sys.opaque_identity i)
               done
             else
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
      ("core/dsm_read_hit_x64", hits ~write:false (fun ids -> ids.Builtin.li_hudak));
      ("core/dsm_read_hit_inline_x64", hits ~write:false (fun ids -> ids.Builtin.java_ic));
      ("core/dsm_write_hit_x64", hits ~write:true (fun ids -> ids.Builtin.li_hudak));
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
    Format.printf "bench: no kernel matches the filter; known:@.";
    List.iter (fun (name, _) -> Format.printf "  %s@." name) named;
    exit 1
  end;
  selected

(* The words one run allocates: on the minor heap, and directly on the
   major heap (major words less those promoted from the minor heap).  A
   dropped engine's finaliser discontinues its pooled fibers, which
   allocates, whenever a collection finds it; the full major GC before the
   run calls those finalisers first, so the count does not depend on what
   ran before. *)
let words_of_run f =
  Gc.full_major ();
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  f ();
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  [
    ("minor_words", Float.to_int (minor1 -. minor0));
    ("major_words", Float.to_int (major1 -. promoted1 -. (major0 -. promoted0)));
  ]

let count_words name f =
  for _ = 1 to 5 do f () done;
  let words = words_of_run f in
  for _ = 2 to 10 do
    if words_of_run f <> words then begin
      Format.eprintf "bench: %s allocates a different number of words from run to run@." name;
      exit 1
    end
  done;
  words

(* Bechamel's ns/run by row id (the group name makes Bechamel's test
   names the row ids).  Host time on a shared machine is advice: it is
   printed, never stored. *)
let time_pass kernels =
  let open Bechamel in
  let test =
    Test.make_grouped ~name:"bechamel"
      (List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) kernels)
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:(Some 100) () in
  let clock = Toolkit.Instance.monotonic_clock in
  let raw = Benchmark.all cfg [ clock ] test in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  Hashtbl.fold
    (fun id result acc ->
      match Analyze.OLS.estimates result with Some [ ns ] -> (id, ns) :: acc | _ -> acc)
    (Analyze.all ols clock raw) []

let () =
  (* `--filter SUBSTR` restricts the suite to matching kernel names. *)
  let filter =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> None
    | [ "--filter"; sub ] -> Some sub
    | _ ->
        Format.printf "usage: main.exe [--filter SUBSTR]@.";
        exit 1
  in
  if filter = None && Build_profile.name <> "release" then begin
    Format.eprintf
      "bench: built in the %s profile; a full run banks the release profile's words \
       (build with --profile release, or pass --filter)@."
      Build_profile.name;
    exit 2
  end;
  let kernels = kernels ?filter () in
  (* Counted before any timing, so that Bechamel's quota-driven run counts
     cannot shift the process state the counts see. *)
  let rows = List.map (fun (name, f) -> ("bechamel/" ^ name, count_words name f)) kernels in
  let ns = time_pass kernels in
  Format.printf "%-44s %8s %8s %12s@." "kernel" "minor" "major" "ns/run";
  List.iter
    (fun (id, words) ->
      Format.printf "%-44s %8d %8d %12s@." id (List.assoc "minor_words" words)
        (List.assoc "major_words" words)
        (match List.assoc_opt id ns with Some t -> Printf.sprintf "%.1f" t | None -> "-"))
    rows;
  (* The word-scan diff kernel exists to beat the byte-scan reference on
     the sparse-write page. *)
  (match
     (List.assoc_opt "bechamel/diff/compute_4k_sparse" ns,
      List.assoc_opt "bechamel/diff/compute_4k_sparse_bytewise" ns)
   with
  | Some fast, Some slow when fast > 0. ->
      Format.printf "diff word-scan speedup over bytewise: %.1fx@." (slow /. fast)
  | _ -> ());
  if filter = None then begin
    Json.to_file "BENCH_bechamel.json" (Dsmpm2_experiments.Paper.to_json rows);
    Format.printf "[wrote BENCH_bechamel.json]@."
  end
