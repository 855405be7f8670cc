(* Tests of the generic DSM core: page table, allocation, access detection,
   synchronization objects, protocol registry. *)

open Dsmpm2_sim
open Dsmpm2_net
open Dsmpm2_mem
open Dsmpm2_core
open Dsmpm2_protocols

let access = Alcotest.testable Access.pp ( = )

let make ?(nodes = 4) ?(driver = Driver.bip_myrinet) () =
  let dsm = Dsm.create ~nodes ~driver () in
  let ids = Builtin.register_all dsm in
  (dsm, ids)

let run_one dsm ~node f =
  ignore (Dsm.spawn dsm ~node f);
  Dsm.run dsm

(* --- page table --- *)

let test_page_table_declare_find () =
  let t = Page_table.create ~node:1 in
  let e =
    Page_table.declare t ~page:7 ~home:0 ~owner:0 ~protocol:3 ~cls:0 ~rights:Access.No_access
  in
  Alcotest.(check int) "page" 7 e.Page_table.page;
  Alcotest.(check bool) "mem" true (Page_table.mem t 7);
  Alcotest.(check bool) "same entry" true (Page_table.find t 7 == e);
  Alcotest.check_raises "unmapped page" (Page_table.Not_mapped 8) (fun () ->
      ignore (Page_table.find t 8));
  Alcotest.check_raises "double declare"
    (Invalid_argument "Page_table.declare: page 7 already mapped") (fun () ->
      ignore
        (Page_table.declare t ~page:7 ~home:0 ~owner:0 ~protocol:0 ~cls:0
           ~rights:Access.No_access))

let test_page_table_copyset () =
  let t = Page_table.create ~node:0 in
  let e =
    Page_table.declare t ~page:1 ~home:0 ~owner:0 ~protocol:0 ~cls:0 ~rights:Access.Read_write
  in
  Page_table.copyset_add e 3;
  Page_table.copyset_add e 1;
  Page_table.copyset_add e 3;
  Alcotest.(check (list int)) "sorted unique" [ 1; 3 ] e.Page_table.copyset;
  Page_table.copyset_remove e 1;
  Alcotest.(check (list int)) "removed" [ 3 ] e.Page_table.copyset

let test_page_table_entries_sorted () =
  let t = Page_table.create ~node:0 in
  List.iter
    (fun p ->
      ignore
        (Page_table.declare t ~page:p ~home:0 ~owner:0 ~protocol:0 ~cls:0
           ~rights:Access.No_access))
    [ 5; 1; 3 ];
  Alcotest.(check (list int)) "sorted" [ 1; 3; 5 ]
    (List.map (fun e -> e.Page_table.page) (Page_table.entries t))

let test_page_table_int_keys () =
  (* Enough pages to grow the int-keyed table several times; keys far
     apart and negative must still miss cleanly. *)
  let t = Page_table.create ~node:0 in
  for p = 0 to 999 do
    ignore
      (Page_table.declare t ~page:(p * 17) ~home:0 ~owner:0 ~protocol:0 ~cls:0
         ~rights:Access.No_access)
  done;
  for p = 0 to 999 do
    Alcotest.(check int) "found" (p * 17) (Page_table.find t (p * 17)).Page_table.page
  done;
  List.iter
    (fun page ->
      Alcotest.check_raises "unmapped" (Page_table.Not_mapped page) (fun () ->
          ignore (Page_table.find t page)))
    [ 1; 1000 * 17; -17; 1 lsl 40 ];
  Alcotest.(check int) "all entries listed" 1000 (List.length (Page_table.entries t))

(* The protection word against the predicate it replaced: a hit needs the
   class's mode bit, rights that allow the mode and no pin. *)
let all_rights = [ Access.No_access; Access.Read_only; Access.Read_write ]
let all_modes = [ Access.Read; Access.Write ]
let mode_bit = function Access.Read -> Protocol.read_hits | Access.Write -> Protocol.write_hits

let entry_with ~cls ~rights ~pinned =
  let e =
    Page_table.declare (Page_table.create ~node:0) ~page:1 ~home:0 ~owner:0 ~protocol:0 ~cls
      ~rights
  in
  Page_table.set_pinned e pinned;
  e

let test_prot_word_matches_predicate () =
  for cls = 0 to 7 do
    List.iter
      (fun rights ->
        List.iter
          (fun pinned ->
            let e = entry_with ~cls ~rights ~pinned in
            List.iter
              (fun mode ->
                let case =
                  Printf.sprintf "class %d, %s, pinned %b, %s" cls (Access.to_string rights)
                    pinned (Access.mode_to_string mode)
                in
                Alcotest.(check bool) case
                  (cls land mode_bit mode <> 0 && Access.allows rights mode && not pinned)
                  (Page_table.hits e mode);
                Alcotest.(check bool) (case ^ ": allows") (Access.allows rights mode)
                  (Page_table.allows e mode))
              all_modes;
            Alcotest.(check bool) "inline checked"
              (cls land Protocol.inline_hits <> 0)
              (Page_table.inline_checked e))
          [ false; true ])
      all_rights
  done

let test_prot_setters_round_trip () =
  for cls = 0 to 7 do
    List.iter
      (fun rights ->
        List.iter
          (fun pinned ->
            let e = entry_with ~cls ~rights ~pinned in
            let check ~cls ~rights ~pinned =
              Alcotest.check access "rights" rights (Page_table.rights e);
              Alcotest.(check bool) "pinned" pinned (Page_table.pinned e);
              Alcotest.(check int) "class" cls (Page_table.hit_class e)
            in
            check ~cls ~rights ~pinned;
            List.iter
              (fun r ->
                Page_table.set_rights e r;
                check ~cls ~rights:r ~pinned)
              all_rights;
            Page_table.set_pinned e (not pinned);
            check ~cls ~rights:Access.Read_write ~pinned:(not pinned);
            Page_table.set_pinned e pinned;
            check ~cls ~rights:Access.Read_write ~pinned;
            Page_table.set_protocol e ~protocol:5 ~cls:(7 - cls);
            Alcotest.(check int) "protocol" 5 e.Page_table.protocol;
            check ~cls:(7 - cls) ~rights:Access.Read_write ~pinned)
          [ false; true ])
      all_rights
  done

(* Random operation sequences on a page table and a frame store, replayed
   against association-list models.  Probes and drops reach below zero and
   far past the arrays' ends, so misses are exercised; only pages 0..40
   are ever stored. *)
type table_op =
  | Declare of int
  | Probe of int
  | Frame of int
  | Install of int * char
  | Drop of int

let show_table_op = function
  | Declare p -> Printf.sprintf "declare %d" p
  | Probe p -> Printf.sprintf "probe %d" p
  | Frame p -> Printf.sprintf "frame %d" p
  | Install (p, c) -> Printf.sprintf "install %d %C" p c
  | Drop p -> Printf.sprintf "drop %d" p

let gen_table_op =
  QCheck.Gen.(
    let stored = int_range 0 40 in
    let any = oneof [ int_range (-3) 70; return (1 lsl 40); return min_int ] in
    frequency
      [
        (2, map (fun p -> Declare p) stored);
        (3, map (fun p -> Probe p) any);
        (2, map (fun p -> Frame p) stored);
        (2, map2 (fun p c -> Install (p, c)) stored (char_range 'a' 'z'));
        (2, map (fun p -> Drop p) any);
      ])

let prop_tables_match_model =
  QCheck.Test.make ~name:"page table and frame store match a model" ~count:300
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map show_table_op ops))
        Gen.(list_size (int_range 0 120) gen_table_op))
    (fun ops ->
      let geo = Page.geometry ~size:64 in
      let t = Page_table.create ~node:0 and fs = Frame_store.create ~geometry:geo in
      let pages = ref [] and frames = ref [] in
      let byte b = Bytes.get b 0 in
      let step op =
        (match op with
        | Declare p -> (
            match
              Page_table.declare t ~page:p ~home:0 ~owner:0 ~protocol:0 ~cls:0
                ~rights:Access.No_access
            with
            | e -> if List.mem p !pages || e.Page_table.page <> p then failwith "declare accepted"
            | exception Invalid_argument _ -> if not (List.mem p !pages) then failwith "declare refused");
            if not (List.mem p !pages) then pages := p :: !pages
        | Probe p ->
            let mapped = List.mem p !pages in
            if Page_table.mem t p <> mapped then failwith "mem";
            (match Page_table.find_opt t p with
            | Some e -> if not mapped || e.Page_table.page <> p then failwith "find_opt hit"
            | None -> if mapped then failwith "find_opt miss");
            (match Page_table.find t p with
            | e -> if e.Page_table.page <> p then failwith "find"
            | exception Page_table.Not_mapped q -> if mapped || q <> p then failwith "find miss");
            let model = List.assoc_opt p !frames in
            if Frame_store.has_frame fs p <> (model <> None) then failwith "has_frame";
            if Option.map byte (Frame_store.peek fs p) <> model then failwith "peek"
        | Frame p ->
            let b = Frame_store.frame fs p in
            let expected = Option.value ~default:'\000' (List.assoc_opt p !frames) in
            if byte b <> expected then failwith "frame contents";
            frames := (p, expected) :: List.remove_assoc p !frames
        | Install (p, c) ->
            Frame_store.install_owned fs p (Bytes.make (Page.size geo) c);
            frames := (p, c) :: List.remove_assoc p !frames
        | Drop p ->
            Frame_store.drop fs p;
            frames := List.remove_assoc p !frames);
        let sorted = List.sort compare !pages in
        let visited = ref [] in
        Page_table.iter t (fun e -> visited := e.Page_table.page :: !visited);
        Page_table.length t = List.length sorted
        && List.map (fun e -> e.Page_table.page) (Page_table.entries t) = sorted
        && List.rev !visited = sorted
        && Frame_store.frame_count fs = List.length !frames
      in
      List.for_all step ops)

(* --- batched invalidations and diffs: one grouping --- *)

(* The grouping [invalidate_copies_many] and [send_diffs_grouped] did with
   per-call hash tables, kept as the model: the batches, their order and
   so the RPC order must not move. *)
let model_invalidation_batches ~self pages_by_target =
  let merged = Hashtbl.create 8 in
  List.iter
    (fun (target, pages) ->
      if target <> self then
        Hashtbl.replace merged target
          (List.rev_append pages (Option.value ~default:[] (Hashtbl.find_opt merged target))))
    pages_by_target;
  Hashtbl.fold
    (fun target pages acc ->
      match List.sort_uniq Int.compare pages with [] -> acc | pages -> (target, pages) :: acc)
    merged []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let model_group_by_key pairs =
  let by_key = Hashtbl.create 4 in
  List.iter
    (fun (k, v) ->
      Hashtbl.replace by_key k (v :: Option.value ~default:[] (Hashtbl.find_opt by_key k)))
    pairs;
  Hashtbl.fold (fun k vs acc -> (k, List.rev vs) :: acc) by_key []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let gen_pairs = QCheck.(list_of_size Gen.(int_range 0 40) (pair (int_range 0 5) (int_range 0 12)))

let prop_invalidation_batches =
  QCheck.Test.make ~name:"invalidation batches match the hash-table grouping" ~count:300
    QCheck.(pair (int_range 0 5) gen_pairs)
    (fun (self, copies) ->
      Protocol_lib.invalidation_batches ~self copies
      = model_invalidation_batches ~self (List.map (fun (t, p) -> (t, [ p ])) copies))

let prop_group_by_key =
  QCheck.Test.make ~name:"diff batches match the hash-table grouping" ~count:300 gen_pairs
    (fun pairs -> Protocol_lib.group_by_key pairs = model_group_by_key pairs)

let test_batches_example () =
  Alcotest.(check (list (pair int (list int)))) "targets ascending, pages sorted, self dropped"
    [ (0, [ 3; 5 ]); (2, [ 1; 4 ]) ]
    (Protocol_lib.invalidation_batches ~self:1
       [ (2, 4); (0, 5); (1, 9); (2, 1); (0, 3); (2, 4) ]);
  Alcotest.(check (list (pair int (list string)))) "values in input order"
    [ (0, [ "b"; "d" ]); (3, [ "a"; "c" ]) ]
    (Protocol_lib.group_by_key [ (3, "a"); (0, "b"); (3, "c"); (0, "d") ])

(* --- allocation --- *)

let test_malloc_round_robin_homes () =
  let dsm, _ = make () in
  let addr = Dsm.malloc dsm ~home:Dsm.Round_robin (4 * 4096) in
  let pages = Dsm.region_pages dsm ~addr ~size:(4 * 4096) in
  Alcotest.(check int) "four pages" 4 (List.length pages);
  List.iteri
    (fun i page ->
      let e = Runtime.entry dsm ~node:0 ~page in
      Alcotest.(check int) "home round robin" (i mod 4) e.Page_table.home)
    pages

let test_malloc_on_node_rights () =
  let dsm, _ = make () in
  let addr = Dsm.malloc dsm ~home:(Dsm.On_node 2) 8 in
  Alcotest.check access "home gets RW" Access.Read_write (Dsm.unsafe_rights dsm ~node:2 ~addr);
  Alcotest.check access "others get nothing" Access.No_access (Dsm.unsafe_rights dsm ~node:0 ~addr)

let test_malloc_block_homes_monotone () =
  let dsm, _ = make () in
  let size = 10 * 4096 in
  let addr = Dsm.malloc dsm ~home:Dsm.Block size in
  let homes =
    List.map
      (fun page -> (Runtime.entry dsm ~node:0 ~page).Page_table.home)
      (Dsm.region_pages dsm ~addr ~size)
  in
  Alcotest.(check bool) "monotone" true (List.sort compare homes = homes);
  Alcotest.(check int) "starts at node 0" 0 (List.hd homes);
  Alcotest.(check int) "ends at last node" 3 (List.nth homes 9)

let test_malloc_regions_never_share_pages () =
  let dsm, _ = make () in
  let a = Dsm.malloc dsm 100 in
  let b = Dsm.malloc dsm 100 in
  let pa = Dsm.region_pages dsm ~addr:a ~size:100 in
  let pb = Dsm.region_pages dsm ~addr:b ~size:100 in
  List.iter (fun p -> Alcotest.(check bool) "disjoint" false (List.mem p pb)) pa

let test_malloc_rejects_bad_input () =
  let dsm, _ = make () in
  Alcotest.check_raises "size positive" (Invalid_argument "Dsm.malloc: size must be positive")
    (fun () -> ignore (Dsm.malloc dsm 0));
  Alcotest.check_raises "home in range"
    (Invalid_argument "Dsm.malloc: home node out of range") (fun () ->
      ignore (Dsm.malloc dsm ~home:(Dsm.On_node 9) 8))

let test_unmapped_access_fails () =
  let dsm, _ = make () in
  let failed = ref false in
  run_one dsm ~node:0 (fun () ->
      try ignore (Dsm.read_int dsm 123456888) with
      | Page_table.Not_mapped _ -> failed := true);
  Alcotest.(check bool) "segfault equivalent" true !failed

(* --- access detection --- *)

let test_local_access_costs_nothing () =
  let dsm, _ = make () in
  let x = Dsm.malloc dsm ~home:(Dsm.On_node 0) 8 in
  let took = ref 1. in
  run_one dsm ~node:0 (fun () ->
      let t0 = Dsm.now_us dsm in
      Dsm.write_int dsm x 5;
      ignore (Dsm.read_int dsm x);
      took := Dsm.now_us dsm -. t0);
  Alcotest.(check (float 0.001)) "free" 0. !took;
  Alcotest.(check int) "no faults" 0 (Stats.count (Dsm.stats dsm) Instrument.read_faults)

let test_remote_read_costs_paper_total () =
  let dsm, _ = make ~nodes:2 () in
  let x = Dsm.malloc dsm ~home:(Dsm.On_node 1) 8 in
  let took = ref 0. in
  run_one dsm ~node:0 (fun () ->
      let t0 = Dsm.now_us dsm in
      ignore (Dsm.read_int dsm x);
      took := Dsm.now_us dsm -. t0);
  (* Table 3, BIP/Myrinet column: 198 us *)
  Alcotest.(check (float 0.5)) "198us" 198. !took

let test_fault_counters () =
  let dsm, _ = make ~nodes:2 () in
  let x = Dsm.malloc dsm ~home:(Dsm.On_node 1) 8 in
  run_one dsm ~node:0 (fun () ->
      ignore (Dsm.read_int dsm x);
      Dsm.write_int dsm x 1;
      ignore (Dsm.read_int dsm x));
  let stats = Dsm.stats dsm in
  Alcotest.(check int) "one read fault" 1 (Stats.count stats Instrument.read_faults);
  Alcotest.(check int) "one write fault" 1 (Stats.count stats Instrument.write_faults)

let test_byte_accessors () =
  let dsm, _ = make ~nodes:2 () in
  let x = Dsm.malloc dsm ~home:(Dsm.On_node 0) 16 in
  run_one dsm ~node:0 (fun () ->
      Dsm.write_byte dsm (x + 3) 200;
      Alcotest.(check int) "byte round trip" 200 (Dsm.read_byte dsm (x + 3)))

(* Minor words allocated per call by [n] calls of [f i] (after a warm-up),
   measured inside a Marcel thread of [dsm]. *)
let words_per_call dsm ~node ~n f =
  let words = ref infinity in
  run_one dsm ~node (fun () ->
      for i = 1 to 16 do f i done;
      let before = Gc.minor_words () in
      for i = 1 to n do f i done;
      words := (Gc.minor_words () -. before) /. float_of_int n);
  !words

(* Word and byte hits, reads and writes, allocate not one word, with or
   without cross-module inlining. *)
let test_hit_path_allocates_nothing () =
  let n = 10_000 in
  let dsm, ids = make ~nodes:2 () in
  let x = Dsm.malloc dsm ~protocol:ids.Builtin.hbrc_mw ~home:(Dsm.On_node 0) 4096 in
  let word i = x + ((i land 511) * 8) in
  let byte i = x + (i land 4095) in
  List.iter
    (fun (name, f) ->
      let words = words_per_call dsm ~node:0 ~n f in
      Alcotest.(check (float 0.)) ("hbrc_mw " ^ name ^ " hit: words per call") 0. words)
    [
      ("read_int", fun i -> ignore (Dsm.read_int dsm (word i)));
      ("write_int", fun i -> Dsm.write_int dsm (word i) i);
      ("read_byte", fun i -> ignore (Dsm.read_byte dsm (byte i)));
      ("write_byte", fun i -> Dsm.write_byte dsm (byte i) (i land 255));
    ]

(* The pending work is unboxed: 10 000 charges allocate not one word. *)
let test_charge_allocates_nothing () =
  let dsm, _ = make ~nodes:2 () in
  let words = ref nan and paid = ref nan in
  run_one dsm ~node:0 (fun () ->
      for _ = 1 to 16 do Dsm.charge dsm 0.001 done;
      let before = Gc.minor_words () in
      for _ = 1 to 10_000 do Dsm.charge dsm 0.001 done;
      let after = Gc.minor_words () in
      words := after -. before;
      Dsm.compute dsm 0.;
      paid := Dsm.now_us dsm);
  Alcotest.(check (float 0.)) "words over 10 000 charges" 0. !words;
  Alcotest.(check (float 1e-6)) "every charge paid" 10.016 !paid

let test_inline_check_hit_allocates_nothing () =
  let n = 10_000 in
  let dsm, ids = make ~nodes:2 () in
  let x = Dsm.malloc dsm ~protocol:ids.Builtin.java_ic ~home:(Dsm.On_node 0) 4096 in
  let checks () = Stats.count (Dsm.stats dsm) Instrument.inline_checks in
  let reads =
    words_per_call dsm ~node:0 ~n (fun i -> ignore (Dsm.read_int dsm (x + ((i land 511) * 8))))
  in
  let ensures =
    words_per_call dsm ~node:0 ~n (fun i ->
        Dsm.ensure_access dsm ~addr:(x + ((i land 511) * 8)) ~mode:Access.Read)
  in
  (* Node 0 is the home: its writes are hits too. *)
  let writes =
    words_per_call dsm ~node:0 ~n (fun i -> Dsm.write_int dsm (x + ((i land 511) * 8)) i)
  in
  Alcotest.(check bool) (Printf.sprintf "java_ic read hit: %.2f words" reads) true (reads < 1.);
  Alcotest.(check bool) (Printf.sprintf "java_ic ensure_access hit: %.2f words" ensures) true
    (ensures < 1.);
  Alcotest.(check bool) (Printf.sprintf "java_ic home write hit: %.2f words" writes) true
    (writes < 1.);
  Alcotest.(check int) "one inline check per access" (3 * (16 + n)) (checks ());
  (* The deferred check ticks are paid in full: every check is charged. *)
  Alcotest.(check (float 1e-6)) "checks charged"
    (float_of_int (3 * (16 + n)) *. Runtime.default_costs.Runtime.inline_check_us)
    (Dsm.now_us dsm)

(* --- the hit test: every access it refuses takes the general path --- *)

let count dsm name = Stats.count (Dsm.stats dsm) name
let page_of dsm addr = Page.page_of_addr (dsm : Dsm.t).Runtime.geo addr

(* [f]'s simulated duration, run in a thread on [node]. *)
let timed dsm ~node f =
  let took = ref nan in
  run_one dsm ~node (fun () ->
      let t0 = Dsm.now_us dsm in
      f ();
      took := Dsm.now_us dsm -. t0);
  !took

let test_hit_class_bits () =
  let dsm, ids = make () in
  let extras = Builtin.register_extras dsm in
  let cls id = Protocol.hit_class dsm.Runtime.registry id in
  let both = Protocol.read_hits lor Protocol.write_hits in
  Alcotest.(check int) "li_hudak" both (cls ids.Builtin.li_hudak);
  Alcotest.(check int) "hbrc_mw" both (cls ids.Builtin.hbrc_mw);
  Alcotest.(check int) "java_ic: reads, inline" (Protocol.read_hits lor Protocol.inline_hits)
    (cls ids.Builtin.java_ic);
  Alcotest.(check int) "java_pf: reads" Protocol.read_hits (cls ids.Builtin.java_pf);
  Alcotest.(check int) "write_update: reads" Protocol.read_hits
    (cls extras.Builtin.write_update);
  Alcotest.(check int) "sc_abd: none" 0 (cls extras.Builtin.sc_abd);
  Alcotest.check_raises "unknown id"
    (Invalid_argument "Protocol.find: unknown protocol id 99") (fun () ->
      ignore (cls 99))

let test_write_to_read_only_faults () =
  let dsm, _ = make ~nodes:2 () in
  let x = Dsm.malloc dsm ~home:(Dsm.On_node 1) 8 in
  run_one dsm ~node:1 (fun () -> Dsm.write_int dsm x 3);
  Alcotest.(check (float 0.5)) "read fault: Table 3 total" 198.
    (timed dsm ~node:0 (fun () -> Alcotest.(check int) "read" 3 (Dsm.read_int dsm x)));
  Alcotest.check access "read copy" Access.Read_only (Dsm.unsafe_rights dsm ~node:0 ~addr:x);
  let write = timed dsm ~node:0 (fun () -> Dsm.write_int dsm x 4) in
  Alcotest.(check bool) (Printf.sprintf "write faults: %.1f us" write) true (write > 11.);
  Alcotest.(check int) "one read fault" 1 (count dsm Instrument.read_faults);
  Alcotest.(check int) "one write fault" 1 (count dsm Instrument.write_faults);
  Alcotest.(check int) "written" 4 (Dsm.unsafe_peek dsm ~node:0 x);
  Alcotest.(check (float 0.)) "then a hit" 0.
    (timed dsm ~node:0 (fun () -> Alcotest.(check int) "read back" 4 (Dsm.read_int dsm x)));
  Alcotest.(check int) "no more faults" 2
    (count dsm Instrument.read_faults + count dsm Instrument.write_faults)

let test_invalidated_page_faults () =
  let dsm, _ = make ~nodes:2 () in
  let x = Dsm.malloc dsm ~home:(Dsm.On_node 1) 8 in
  run_one dsm ~node:0 (fun () -> ignore (Dsm.read_int dsm x));
  Alcotest.(check (float 0.)) "cached read hits" 0.
    (timed dsm ~node:0 (fun () -> ignore (Dsm.read_int dsm x)));
  run_one dsm ~node:1 (fun () -> Dsm.write_int dsm x 9);
  Alcotest.check access "invalidated" Access.No_access (Dsm.unsafe_rights dsm ~node:0 ~addr:x);
  Alcotest.(check (float 0.5)) "the next read faults" 198.
    (timed dsm ~node:0 (fun () -> Alcotest.(check int) "fresh value" 9 (Dsm.read_int dsm x)));
  Alcotest.(check int) "two read faults" 2 (count dsm Instrument.read_faults)

let test_access_after_fault_unpins () =
  let dsm, _ = make ~nodes:2 () in
  let x = Dsm.malloc dsm ~home:(Dsm.On_node 0) 8 in
  let e = Runtime.entry dsm ~node:0 ~page:(page_of dsm x) in
  (* A remote fault's retry unpins the page it fetched. *)
  let y = Dsm.malloc dsm ~home:(Dsm.On_node 1) 8 in
  run_one dsm ~node:0 (fun () -> ignore (Dsm.read_int dsm y));
  Alcotest.(check bool) "fetched page unpinned" false
    (Page_table.pinned (Runtime.entry dsm ~node:0 ~page:(page_of dsm y)));
  (* A fault that just completed on [x] leaves it pinned, with the rights
     granted: a server waits until the first access. *)
  run_one dsm ~node:0 (fun () -> Dsm.write_int dsm x 6);
  e.Page_table.faulting <- true;
  Protocol_lib.complete_fault dsm e;
  Alcotest.(check bool) "pinned" true (Page_table.pinned e);
  let woke = ref nan and read = ref 0 in
  ignore
    (Dsm.spawn dsm ~node:0 (fun () ->
         Protocol_lib.with_entry dsm e (fun () ->
             Protocol_lib.wait_for_service dsm e;
             woke := Dsm.now_us dsm)));
  ignore
    (Dsm.spawn dsm ~node:0 (fun () ->
         Dsm.compute dsm 5.;
         read := Dsm.read_int dsm x));
  let t0 = Dsm.now_us dsm in
  Dsm.run dsm;
  Alcotest.(check int) "value" 6 !read;
  Alcotest.(check bool) "unpinned" false (Page_table.pinned e);
  Alcotest.(check (float 1e-6)) "server woken by the access" 5. (!woke -. t0);
  Alcotest.(check int) "no fault on x" 1 (count dsm Instrument.read_faults);
  Alcotest.(check int) "no write fault" 0 (count dsm Instrument.write_faults)

let test_write_update_owner_pushes () =
  let dsm, _ = make ~nodes:2 () in
  let wu = (Builtin.register_extras dsm).Builtin.write_update in
  let x = Dsm.malloc dsm ~protocol:wu ~home:(Dsm.On_node 0) 8 in
  run_one dsm ~node:1 (fun () -> ignore (Dsm.read_int dsm x));
  Alcotest.(check (list int)) "copyset" [ 1 ]
    (Runtime.entry dsm ~node:0 ~page:(page_of dsm x)).Page_table.copyset;
  Alcotest.check access "owner writable" Access.Read_write (Dsm.unsafe_rights dsm ~node:0 ~addr:x);
  let push = timed dsm ~node:0 (fun () -> Dsm.write_int dsm x 11) in
  Alcotest.(check bool) (Printf.sprintf "the push blocks: %.1f us" push) true (push > 0.);
  Alcotest.(check int) "replica updated" 11 (Dsm.unsafe_peek dsm ~node:1 x);
  Alcotest.check access "replica kept" Access.Read_only (Dsm.unsafe_rights dsm ~node:1 ~addr:x);
  Alcotest.(check int) "no write fault" 0 (count dsm Instrument.write_faults)

let test_sc_abd_read_runs_hook () =
  let dsm, _ = make ~nodes:3 () in
  let abd = (Builtin.register_extras dsm).Builtin.sc_abd in
  let x = Dsm.malloc dsm ~protocol:abd ~home:(Dsm.On_node 0) 8 in
  (* Rights the protocol has granted and not yet revoked: the read needs
     no fault, but its hook must still revoke them. *)
  Page_table.set_rights (Runtime.entry dsm ~node:0 ~page:(page_of dsm x)) Access.Read_only;
  Alcotest.(check (float 0.)) "no fault" 0.
    (timed dsm ~node:0 (fun () -> Alcotest.(check int) "value" 0 (Dsm.read_int dsm x)));
  Alcotest.check access "revoked by on_local_read" Access.No_access
    (Dsm.unsafe_rights dsm ~node:0 ~addr:x);
  Alcotest.(check int) "no read fault" 0 (count dsm Instrument.read_faults);
  let again = timed dsm ~node:0 (fun () -> ignore (Dsm.read_int dsm x)) in
  Alcotest.(check bool) (Printf.sprintf "next read runs a round: %.1f us" again) true
    (again > 0.);
  Alcotest.(check int) "one read fault" 1 (count dsm Instrument.read_faults)

let test_java_ic_checks_counted () =
  let dsm, ids = make ~nodes:2 () in
  let x = Dsm.malloc dsm ~protocol:ids.Builtin.java_ic ~home:(Dsm.On_node 0) 64 in
  let n = 100 in
  run_one dsm ~node:0 (fun () ->
      for i = 0 to n - 1 do
        Dsm.write_int dsm (x + (i land 7 * 8)) i;
        ignore (Dsm.read_int dsm (x + (i land 7 * 8)))
      done);
  let check_us = Runtime.default_costs.Runtime.inline_check_us in
  Alcotest.(check int) "one check per access" (2 * n) (count dsm Instrument.inline_checks);
  Alcotest.(check (float 1e-6)) "each check charged" (float_of_int (2 * n) *. check_us)
    (Dsm.now_us dsm);
  Alcotest.(check int) "no misses" 0 (count dsm Instrument.check_misses);
  Alcotest.(check int) "last value" 99 (Dsm.unsafe_peek dsm ~node:0 (x + 24));
  (* A miss checks once per attempt: the refused one and the retry. *)
  run_one dsm ~node:1 (fun () -> ignore (Dsm.read_int dsm x));
  Alcotest.(check int) "one miss" 1 (count dsm Instrument.check_misses);
  Alcotest.(check int) "two more checks" ((2 * n) + 2) (count dsm Instrument.inline_checks)

let test_switch_protocol_hooks () =
  let dsm, ids = make ~nodes:2 () in
  let wu = (Builtin.register_extras dsm).Builtin.write_update in
  let x = Dsm.malloc dsm ~protocol:ids.Builtin.li_hudak ~home:(Dsm.On_node 0) 8 in
  (* Node 1 holds a copy, then node 0 writes. *)
  let round v =
    run_one dsm ~node:1 (fun () -> ignore (Dsm.read_int dsm x));
    run_one dsm ~node:0 (fun () -> Dsm.write_int dsm x v)
  in
  (* Every node's entry takes the class of the protocol it moves to; a
     Java protocol adds write hits on the home (node 0) only. *)
  let classes_follow ?(home_grant = 0) protocol =
    for node = 0 to 1 do
      Alcotest.(check int)
        (Printf.sprintf "node %d: entry class" node)
        (Protocol.hit_class dsm.Runtime.registry protocol
        lor if node = 0 then home_grant else 0)
        (Page_table.hit_class (Runtime.entry dsm ~node ~page:(page_of dsm x)))
    done
  in
  classes_follow ids.Builtin.li_hudak;
  Dsm.switch_protocol dsm ~addr:x ~size:8 ~protocol:wu;
  classes_follow wu;
  round 1;
  Alcotest.(check int) "write_update: the hook pushes" 1 (Dsm.unsafe_peek dsm ~node:1 x);
  Alcotest.check access "copy kept" Access.Read_only (Dsm.unsafe_rights dsm ~node:1 ~addr:x);
  Dsm.switch_protocol dsm ~addr:x ~size:8 ~protocol:ids.Builtin.li_hudak;
  classes_follow ids.Builtin.li_hudak;
  round 2;
  Alcotest.check access "li_hudak: the copy is invalidated" Access.No_access
    (Dsm.unsafe_rights dsm ~node:1 ~addr:x);
  Alcotest.(check int) "one write fault (the upgrade)" 1 (count dsm Instrument.write_faults);
  (* No copies left: the owner's next write is a hit. *)
  Alcotest.(check (float 0.)) "then a hit" 0.
    (timed dsm ~node:0 (fun () -> Dsm.write_int dsm x 3));
  Alcotest.(check int) "value" 3 (Dsm.unsafe_peek dsm ~node:0 x);
  (* Under java_ic the home's writes are hits; the grant goes with the
     protocol when the area moves back. *)
  Dsm.switch_protocol dsm ~addr:x ~size:8 ~protocol:ids.Builtin.java_ic;
  classes_follow ~home_grant:Protocol.write_hits ids.Builtin.java_ic;
  Alcotest.(check (float 0.)) "java_ic: the home write is a hit" 0.
    (timed dsm ~node:0 (fun () -> Dsm.write_int dsm x 4));
  Alcotest.(check (list (pair int int))) "java_ic: nothing recorded on the home" []
    (Java_common.recorded_words dsm ~node:0 ~page:(page_of dsm x));
  run_one dsm ~node:1 (fun () ->
      Alcotest.(check int) "java_ic: node 1 reads the home's value" 4 (Dsm.read_int dsm x));
  Dsm.switch_protocol dsm ~addr:x ~size:8 ~protocol:ids.Builtin.li_hudak;
  classes_follow ids.Builtin.li_hudak;
  Alcotest.(check int) "value kept" 4 (Dsm.unsafe_peek dsm ~node:0 x)

(* A Java home write is a hit: its [on_local_write] would record nothing
   there.  Elsewhere the write still takes the hook and is recorded. *)
let test_java_ic_home_write_hits () =
  let dsm, ids = make ~nodes:2 () in
  let hist = Dsm.enable_history dsm in
  let x = Dsm.malloc dsm ~protocol:ids.Builtin.java_ic ~home:(Dsm.On_node 0) 8 in
  let page = page_of dsm x in
  let home = Runtime.entry dsm ~node:0 ~page in
  Alcotest.(check bool) "home entry grants write hits" true (Page_table.hits home Access.Write);
  Alcotest.(check (float 0.)) "no simulated time" 0.
    (timed dsm ~node:0 (fun () -> Dsm.write_int dsm x 7));
  Alcotest.(check int) "one check" 1 (count dsm Instrument.inline_checks);
  Alcotest.(check (float 1e-6)) "one tick charged"
    Runtime.default_costs.Runtime.inline_check_us (Dsm.now_us dsm);
  Alcotest.(check int) "written" 7 (Dsm.unsafe_peek dsm ~node:0 x);
  Alcotest.(check (list (pair int int))) "nothing recorded on the home" []
    (Java_common.recorded_words dsm ~node:0 ~page);
  (match History.ops hist with
  | [ op ] ->
      Alcotest.(check bool) "recorded once, as the write" true
        (op.History.kind = History.Write { addr = x; value = 7 });
      Alcotest.(check bool) "at one instant" true (op.History.start = op.History.finish)
  | ops -> Alcotest.failf "expected 1 op, got %d" (List.length ops));
  (* Node 1 caches the page read-write; each of its writes is recorded,
     the one after the fetch included. *)
  Alcotest.(check int) "no grant on node 1"
    (Protocol.hit_class dsm.Runtime.registry ids.Builtin.java_ic)
    (Page_table.hit_class (Runtime.entry dsm ~node:1 ~page));
  run_one dsm ~node:1 (fun () ->
      Dsm.write_int dsm x 8;
      Dsm.write_int dsm x 9);
  Alcotest.check access "cached read-write" Access.Read_write
    (Dsm.unsafe_rights dsm ~node:1 ~addr:x);
  Alcotest.(check (list (pair int int))) "non-home writes recorded" [ (0, 8); (0, 9) ]
    (Java_common.recorded_words dsm ~node:1 ~page)

let test_java_page_fault_home_writes_hit () =
  let dsm, ids = make ~nodes:2 () in
  let entry_ec = (Builtin.register_extras dsm).Builtin.entry_ec in
  List.iter
    (fun (name, protocol) ->
      let x = Dsm.malloc dsm ~protocol ~home:(Dsm.On_node 1) 8 in
      let page = page_of dsm x in
      Alcotest.(check bool) (name ^ ": home grants write hits") true
        (Page_table.hits (Runtime.entry dsm ~node:1 ~page) Access.Write);
      Alcotest.(check int) (name ^ ": node 0 does not")
        (Protocol.hit_class dsm.Runtime.registry protocol)
        (Page_table.hit_class (Runtime.entry dsm ~node:0 ~page));
      Alcotest.(check (float 0.)) (name ^ ": home write takes no time") 0.
        (timed dsm ~node:1 (fun () -> Dsm.write_int dsm x 5));
      Alcotest.(check int) (name ^ ": written") 5 (Dsm.unsafe_peek dsm ~node:1 x);
      Alcotest.(check (list (pair int int))) (name ^ ": nothing recorded") []
        (Java_common.recorded_words dsm ~node:1 ~page))
    [ ("java_pf", ids.Builtin.java_pf); ("entry_ec", entry_ec) ];
  Alcotest.(check int) "no fault" 0
    (count dsm Instrument.read_faults + count dsm Instrument.write_faults)

let test_history_records_hits_once () =
  let dsm, _ = make ~nodes:2 () in
  let hist = Dsm.enable_history dsm in
  let x = Dsm.malloc dsm ~home:(Dsm.On_node 0) 16 in
  run_one dsm ~node:0 (fun () ->
      Dsm.compute dsm 3.;
      Dsm.write_int dsm x 5;
      ignore (Dsm.read_int dsm x);
      Dsm.write_byte dsm (x + 9) 2;
      ignore (Dsm.read_byte dsm (x + 9)));
  run_one dsm ~node:1 (fun () -> ignore (Dsm.read_int dsm x));
  let word = function
    | History.Read { addr; value } -> (false, addr, value)
    | History.Write { addr; value } -> (true, addr, value)
    | _ -> Alcotest.fail "not a word access"
  in
  match History.ops hist with
  | [ w; r; wb; rb; miss ] ->
      List.iter
        (fun op ->
          Alcotest.(check (float 1e-9)) "hit: start = finish = now" 3.
            (Time.to_us op.History.start);
          Alcotest.(check (float 1e-9)) "hit: finish" 3. (Time.to_us op.History.finish))
        [ w; r; wb; rb ];
      Alcotest.(check (triple bool int int)) "write" (true, x, 5) (word w.History.kind);
      Alcotest.(check (triple bool int int)) "read" (false, x, 5) (word r.History.kind);
      Alcotest.(check (triple bool int int)) "byte write: its word" (true, x + 8, 0x200)
        (word wb.History.kind);
      Alcotest.(check (triple bool int int)) "byte read: its word" (false, x + 8, 0x200)
        (word rb.History.kind);
      Alcotest.(check bool) "a miss spans its fault" true
        (Time.to_us miss.History.finish -. Time.to_us miss.History.start > 100.)
  | ops -> Alcotest.failf "expected 5 ops, got %d" (List.length ops)

let test_migrated_thread_hits_on_new_node () =
  (* Both nodes hold the page writable, so a hit read from a stale node
     would land, silently, in the source frame. *)
  let dsm, ids = make ~nodes:2 () in
  let x = Dsm.malloc dsm ~protocol:ids.Builtin.hbrc_mw ~home:(Dsm.On_node 1) 8 in
  let faults () = count dsm Instrument.read_faults + count dsm Instrument.write_faults in
  let before = ref 0 and took = ref nan and read = ref 0 in
  run_one dsm ~node:0 (fun () ->
      Dsm.write_int dsm x 1;
      Alcotest.check access "source copy writable" Access.Read_write
        (Dsm.unsafe_rights dsm ~node:0 ~addr:x);
      Dsmpm2_pm2.Pm2.migrate (Dsm.pm2 dsm) ~dst:1;
      before := faults ();
      let t0 = Dsm.now_us dsm in
      Dsm.write_int dsm x 2;
      read := Dsm.read_int dsm x;
      took := Dsm.now_us dsm -. t0);
  Alcotest.(check (float 0.)) "hits: no time" 0. !took;
  Alcotest.(check int) "hits: no fault" !before (faults ());
  Alcotest.(check int) "read back on the new node" 2 !read;
  Alcotest.(check int) "written on the new node" 2 (Dsm.unsafe_peek dsm ~node:1 x);
  Alcotest.(check int) "source frame untouched" 1 (Dsm.unsafe_peek dsm ~node:0 x)

let test_access_outside_thread_fails () =
  let dsm, _ = make ~nodes:2 () in
  let x = Dsm.malloc dsm ~home:(Dsm.On_node 0) 8 in
  let fails name f =
    Alcotest.check_raises name (Failure "Marcel.self: not running inside a Marcel thread") f
  in
  let ran = ref false in
  Engine.at (Dsm.engine dsm) (Time.of_us 1.) (fun () ->
      fails "read_int" (fun () -> ignore (Dsm.read_int dsm x));
      fails "write_int" (fun () -> Dsm.write_int dsm x 1);
      fails "read_byte" (fun () -> ignore (Dsm.read_byte dsm x));
      fails "write_byte" (fun () -> Dsm.write_byte dsm x 1);
      fails "ensure_access" (fun () -> Dsm.ensure_access dsm ~addr:x ~mode:Access.Read);
      ran := true);
  Dsm.run dsm;
  Alcotest.(check bool) "checked from a plain event" true !ran;
  Alcotest.(check int) "nothing written" 0 (Dsm.unsafe_peek dsm ~node:0 x);
  fails "read_int outside run" (fun () -> ignore (Dsm.read_int dsm x))

(* [Dsm.hit_frame] against the predicate it replaced: a node tag of 0 or
   more, a fault-loop limit of 0 or more, and [Page_table.hits], i.e. the
   class's mode bit, rights that allow the mode and no pin.  A refusal
   counts no inline check; a hit counts one iff the class says so, and
   returns the node's own frame for the page. *)
let test_hit_frame_matches_predicate () =
  let dsm, ids = make ~nodes:2 () in
  let x = Dsm.malloc dsm ~protocol:ids.Builtin.hbrc_mw ~home:(Dsm.On_node 0) 4096 in
  let page = page_of dsm x in
  let checks () = count dsm Instrument.inline_checks in
  let everything = Protocol.read_hits lor Protocol.write_hits lor Protocol.inline_hits in
  run_one dsm ~node:0 (fun () ->
      let refused name ~node ~addr ~mode =
        let before = checks () in
        Alcotest.(check bool) name true
          (Dsm.hit_frame dsm ~node ~addr ~mode == Bytes.empty);
        Alcotest.(check int) (name ^ ": no check counted") before (checks ())
      in
      for node = 0 to 1 do
        let e = Runtime.entry dsm ~node ~page in
        for cls = 0 to 7 do
          List.iter
            (fun rights ->
              List.iter
                (fun pinned ->
                  Page_table.set_protocol e ~protocol:e.Page_table.protocol ~cls;
                  Page_table.set_rights e rights;
                  Page_table.set_pinned e pinned;
                  List.iter
                    (fun mode ->
                      let case =
                        Printf.sprintf "node %d, class %d, %s, pinned %b, %s" node cls
                          (Access.to_string rights) pinned (Access.mode_to_string mode)
                      in
                      let addr = x + 8 in
                      let before = checks () in
                      let frame = Dsm.hit_frame dsm ~node ~addr ~mode in
                      let hit =
                        cls land mode_bit mode <> 0 && Access.allows rights mode && not pinned
                      in
                      Alcotest.(check bool) case hit (frame != Bytes.empty);
                      Alcotest.(check int) (case ^ ": checks")
                        (if hit && cls land Protocol.inline_hits <> 0 then before + 1
                         else before)
                        (checks ());
                      if hit then
                        Alcotest.(check bool) (case ^ ": the node's frame") true
                          (match Frame_store.peek (Runtime.store dsm node) page with
                          | Some own -> own == frame
                          | None -> false))
                    all_modes)
                [ false; true ])
            all_rights
        done;
        (* Every bit set, so only the tag, the limit or the page refuses. *)
        Page_table.set_protocol e ~protocol:e.Page_table.protocol ~cls:everything;
        Page_table.set_rights e Access.Read_write;
        Page_table.set_pinned e false;
        List.iter
          (fun mode ->
            let name what =
              Printf.sprintf "node %d, %s: %s" node (Access.mode_to_string mode) what
            in
            refused (name "tag -1") ~node:(-1) ~addr:x ~mode;
            dsm.Runtime.fault_loop_limit <- -1;
            refused (name "limit -1") ~node ~addr:x ~mode;
            dsm.Runtime.fault_loop_limit <- 0;
            refused (name "unmapped page") ~node ~addr:(x + (1 lsl 30)) ~mode;
            refused (name "negative page") ~node ~addr:(-4096) ~mode)
          all_modes
      done;
      Alcotest.(check bool) "the two nodes' frames differ" true
        (Dsm.hit_frame dsm ~node:0 ~addr:x ~mode:Access.Read
        != Dsm.hit_frame dsm ~node:1 ~addr:x ~mode:Access.Read))

(* An unaligned word access raises the same error whether the node holds
   the page (a hit) or has to fetch it first (the general path). *)
let test_unaligned_word_access () =
  List.iter
    (fun protocol_of ->
      let dsm, ids = make ~nodes:2 () in
      let x = Dsm.malloc dsm ~protocol:(protocol_of ids) ~home:(Dsm.On_node 0) 4096 in
      let expect =
        Invalid_argument (Printf.sprintf "Frame_store: unaligned word access at %#x" (x + 4))
      in
      let raised = ref [] in
      let attempt name f =
        raised := (name, try f (); None with e -> Some e) :: !raised
      in
      List.iter
        (fun node ->
          run_one dsm ~node (fun () ->
              let name what =
                Printf.sprintf "%s, node %d: %s"
                  (Dsm.protocol_name dsm (protocol_of ids))
                  node what
              in
              attempt (name "read_int") (fun () -> ignore (Dsm.read_int dsm (x + 4)));
              attempt (name "write_int") (fun () -> Dsm.write_int dsm (x + 4) 1)))
        [ 0; 1 ];
      List.iter
        (fun (name, e) ->
          Alcotest.(check (option string)) name (Some (Printexc.to_string expect))
            (Option.map Printexc.to_string e))
        (List.rev !raised))
    [ (fun ids -> ids.Builtin.hbrc_mw); (fun ids -> ids.Builtin.java_ic) ]

(* --- single access path: equivalences --- *)

let test_migrating_read_records_new_node () =
  (* A faulting read under migrate_thread moves the thread to the owner;
     the value and the history must come from the post-migration node. *)
  let dsm, ids = make () in
  let hist = Dsm.enable_history dsm in
  let x = Dsm.malloc dsm ~protocol:ids.Builtin.migrate_thread ~home:(Dsm.On_node 3) 8 in
  run_one dsm ~node:3 (fun () -> Dsm.write_int dsm x 42);
  let got = ref 0 in
  run_one dsm ~node:0 (fun () -> got := Dsm.read_int dsm x);
  Alcotest.(check int) "owner's value" 42 !got;
  match
    List.filter_map
      (fun op ->
        match op.History.kind with
        | History.Read { addr; value } when addr = x -> Some (op.History.node, value)
        | _ -> None)
      (History.ops hist)
  with
  | [ (node, value) ] ->
      Alcotest.(check int) "recorded at the owner" 3 node;
      Alcotest.(check int) "recorded value" 42 value
  | reads -> Alcotest.failf "expected one read, got %d" (List.length reads)

let test_history_is_observation_only () =
  let names =
    let dsm, _ = make () in
    ignore (Builtin.register_extras dsm);
    List.map (fun (_, p) -> p.Protocol.name) (Protocol.all dsm.Runtime.registry)
  in
  List.iter
    (fun protocol ->
      let run observe =
        Dsmpm2_apps.Jacobi.run
          {
            Dsmpm2_apps.Jacobi.default with
            size = 16;
            iterations = 2;
            nodes = 2;
            protocol;
            observe;
          }
      in
      let off = run None in
      let on = run (Some (fun dsm -> ignore (Dsm.enable_history dsm))) in
      Alcotest.(check (float 0.)) (protocol ^ " time_ms") off.time_ms on.time_ms;
      Alcotest.(check int) (protocol ^ " messages") off.messages on.messages;
      Alcotest.(check int) (protocol ^ " checksum") off.checksum on.checksum)
    names

(* --- locks --- *)

let test_lock_mutual_exclusion () =
  let dsm, _ = make () in
  let lock = Dsm.lock_create dsm () in
  let inside = ref 0 and max_inside = ref 0 in
  let threads =
    List.init 4 (fun node ->
        Dsm.spawn dsm ~node (fun () ->
            for _ = 1 to 3 do
              Dsm.with_lock dsm lock (fun () ->
                  incr inside;
                  max_inside := max !max_inside !inside;
                  Dsm.compute dsm 50.;
                  decr inside)
            done))
  in
  Dsm.run dsm;
  ignore threads;
  Alcotest.(check int) "mutual exclusion" 1 !max_inside;
  Alcotest.(check int) "12 grants" 12 (Dsm_sync.lock_acquisitions dsm lock)

let test_lock_release_by_other_thread_fails () =
  (* The manager rejects the bad release over the RPC reply: the offending
     thread gets Lock_error in its own fiber, the holder is undisturbed, and
     the rest of the cluster keeps running. *)
  let dsm, _ = make ~nodes:3 () in
  let lock = Dsm.lock_create dsm () in
  let caught = ref None in
  let holder_released = ref false and bystander_done = ref false in
  ignore
    (Dsm.spawn dsm ~node:0 (fun () ->
         Dsm.lock_acquire dsm lock;
         Dsm.compute dsm 5_000.;
         Dsm.lock_release dsm lock;
         holder_released := true));
  ignore
    (Dsm.spawn dsm ~node:1 (fun () ->
         Dsm.compute dsm 1_000.;
         try Dsm.lock_release dsm lock
         with Dsm_sync.Lock_error msg -> caught := Some msg));
  ignore
    (Dsm.spawn dsm ~node:2 (fun () ->
         Dsm.compute dsm 2_000.;
         (* Queues behind the holder and still gets the lock afterwards. *)
         Dsm.with_lock dsm lock (fun () -> ());
         bystander_done := true));
  Dsm.run dsm;
  (match !caught with
  | Some msg ->
      Alcotest.(check bool) "names the real holder" true
        (String.length msg > 0
        && String.sub msg 0 8 = "DSM lock")
  | None -> Alcotest.fail "bad release was not rejected");
  Alcotest.(check bool) "holder released normally" true !holder_released;
  Alcotest.(check bool) "other nodes keep running" true !bystander_done;
  Alcotest.(check int) "both legitimate grants happened" 2
    (Dsm_sync.lock_acquisitions dsm lock)

let test_lock_release_while_free_fails () =
  let dsm, _ = make ~nodes:2 () in
  let lock = Dsm.lock_create dsm () in
  let caught = ref false and other_ran = ref false in
  ignore
    (Dsm.spawn dsm ~node:0 (fun () ->
         try Dsm.lock_release dsm lock
         with Dsm_sync.Lock_error _ -> caught := true));
  ignore
    (Dsm.spawn dsm ~node:1 (fun () ->
         Dsm.compute dsm 2_000.;
         Dsm.with_lock dsm lock (fun () -> ());
         other_ran := true));
  Dsm.run dsm;
  Alcotest.(check bool) "release-while-free rejected" true !caught;
  Alcotest.(check bool) "simulation survives" true !other_ran

let test_lock_survives_migration () =
  (* A thread acquires on one node, migrates, and releases from another. *)
  let dsm, ids = make () in
  let x = Dsm.malloc dsm ~protocol:ids.Builtin.migrate_thread ~home:(Dsm.On_node 3) 8 in
  let lock = Dsm.lock_create dsm () in
  run_one dsm ~node:0 (fun () ->
      Dsm.lock_acquire dsm lock;
      Dsm.write_int dsm x 1;
      (* now on node 3 *)
      Alcotest.(check int) "migrated" 3 (Dsm.self_node dsm);
      Dsm.lock_release dsm lock)

(* --- barriers --- *)

let test_barrier_gathers_all () =
  let dsm, _ = make () in
  let barrier = Dsm.barrier_create dsm ~parties:4 () in
  let after = Array.make 4 0. in
  let threads =
    List.init 4 (fun node ->
        Dsm.spawn dsm ~node (fun () ->
            Dsm.compute dsm (float_of_int (100 * (node + 1)));
            Dsm.barrier_wait dsm barrier;
            after.(node) <- Dsm.now_us dsm))
  in
  Dsm.run dsm;
  ignore threads;
  (* Nobody passes before the slowest (400us) arrives. *)
  Array.iter (fun t -> Alcotest.(check bool) "gated by slowest" true (t >= 400.)) after

let test_barrier_reusable_across_generations () =
  let dsm, _ = make ~nodes:2 () in
  let barrier = Dsm.barrier_create dsm ~parties:2 () in
  let rounds = Array.make 2 0 in
  let threads =
    List.init 2 (fun node ->
        Dsm.spawn dsm ~node (fun () ->
            for _ = 1 to 5 do
              Dsm.barrier_wait dsm barrier;
              rounds.(node) <- rounds.(node) + 1
            done))
  in
  Dsm.run dsm;
  ignore threads;
  Alcotest.(check (list int)) "five rounds each" [ 5; 5 ] (Array.to_list rounds)

let test_barrier_rejects_zero_parties () =
  let dsm, _ = make () in
  Alcotest.check_raises "parties > 0"
    (Invalid_argument "Dsm_sync.barrier_create: parties must be positive") (fun () ->
      ignore (Dsm.barrier_create dsm ~parties:0 ()))

(* --- protocol registry --- *)

let test_registry_lookup () =
  let dsm, ids = make () in
  Alcotest.(check (option int)) "by name" (Some ids.Builtin.hbrc_mw)
    (Dsm.protocol_by_name dsm "hbrc_mw");
  Alcotest.(check (option int)) "unknown" None (Dsm.protocol_by_name dsm "nope");
  Alcotest.(check string) "name" "java_pf" (Dsm.protocol_name dsm ids.Builtin.java_pf);
  Alcotest.(check int) "li_hudak is the default" ids.Builtin.li_hudak
    (Dsm.default_protocol dsm)

let test_registry_user_protocol () =
  let dsm, ids = make () in
  let clone = { Li_hudak.protocol with Protocol.name = "my_proto" } in
  let id = Dsm.create_protocol dsm clone in
  Alcotest.(check bool) "new id" true (id <> ids.Builtin.li_hudak);
  Dsm.set_default_protocol dsm id;
  Alcotest.(check int) "default switched" id (Dsm.default_protocol dsm);
  (* the user protocol actually drives memory *)
  let x = Dsm.malloc dsm ~home:(Dsm.On_node 1) 8 in
  run_one dsm ~node:0 (fun () ->
      Dsm.write_int dsm x 5;
      Alcotest.(check int) "works" 5 (Dsm.read_int dsm x))

let test_set_default_validates () =
  let dsm, _ = make () in
  Alcotest.check_raises "unknown id"
    (Invalid_argument "Protocol.find: unknown protocol id 99") (fun () ->
      Dsm.set_default_protocol dsm 99)

(* --- different protocols per lock --- *)

let test_lock_protocol_hooks_fire () =
  let dsm, _ = make ~nodes:2 () in
  let acquires = ref 0 and releases = ref 0 in
  let spy =
    {
      Li_hudak.protocol with
      Protocol.name = "spy";
      lock_acquire = (fun _ ~node:_ ~lock:_ -> incr acquires);
      lock_release = (fun _ ~node:_ ~lock:_ -> incr releases);
    }
  in
  let id = Dsm.create_protocol dsm spy in
  let lock = Dsm.lock_create dsm ~protocol:id () in
  let barrier = Dsm.barrier_create dsm ~protocol:id ~parties:1 () in
  run_one dsm ~node:0 (fun () ->
      Dsm.with_lock dsm lock (fun () -> ());
      Dsm.barrier_wait dsm barrier);
  Alcotest.(check int) "acquire hooks (lock + barrier)" 2 !acquires;
  Alcotest.(check int) "release hooks (lock + barrier)" 2 !releases

(* --- cost model and diagnostics --- *)

let test_custom_costs () =
  (* Doubling the fault cost must show up in the measured total. *)
  let costs = { Runtime.default_costs with Runtime.page_fault_us = 22. } in
  let dsm = Dsm.create ~costs ~nodes:2 ~driver:Driver.bip_myrinet () in
  ignore (Builtin.register_all dsm);
  let x = Dsm.malloc dsm ~home:(Dsm.On_node 1) 8 in
  let took = ref 0. in
  run_one dsm ~node:0 (fun () ->
      let t0 = Dsm.now_us dsm in
      ignore (Dsm.read_int dsm x);
      took := Dsm.now_us dsm -. t0);
  Alcotest.(check (float 0.5)) "11us extra fault cost" 209. !took

let test_fault_storm_guard () =
  let dsm, _ = make ~nodes:2 () in
  (* A protocol whose fault handler never grants anything must be caught by
     the retry guard rather than looping forever. *)
  let broken =
    {
      Li_hudak.protocol with
      Protocol.name = "broken";
      read_fault = (fun _rt ~node:_ ~page:_ -> ());
    }
  in
  let id = Dsm.create_protocol dsm broken in
  let x = Dsm.malloc dsm ~protocol:id ~home:(Dsm.On_node 1) 8 in
  (dsm : Dsm.t).Runtime.fault_loop_limit <- 5;
  let stormed = ref false in
  run_one dsm ~node:0 (fun () ->
      try ignore (Dsm.read_int dsm x)
      with Dsm.Fault_storm { attempts; _ } ->
        stormed := true;
        Alcotest.(check int) "caught at the limit" 6 attempts);
  Alcotest.(check bool) "storm detected" true !stormed

let test_fault_limit_before_rights () =
  (* Each attempt checks the limit before the rights: with a negative
     limit even a hit on a page the node holds is refused, and before any
     fault is taken or any inline check counted. *)
  List.iter
    (fun protocol_of ->
      let dsm, ids = make ~nodes:2 () in
      let protocol = protocol_of ids in
      let name = Dsm.protocol_name dsm protocol in
      let x = Dsm.malloc dsm ~protocol ~home:(Dsm.On_node 0) 8 in
      (dsm : Dsm.t).Runtime.fault_loop_limit <- -1;
      let refused access =
        let attempts = ref None in
        run_one dsm ~node:0 (fun () ->
            try access () with Dsm.Fault_storm { attempts = a; _ } -> attempts := Some a);
        Alcotest.(check (option int)) (name ^ ": refused at the first attempt") (Some 0)
          !attempts
      in
      refused (fun () -> ignore (Dsm.read_int dsm x));
      refused (fun () -> Dsm.ensure_access dsm ~addr:x ~mode:Access.Read);
      Alcotest.(check int) (name ^ ": nothing counted") 0
        (count dsm Instrument.inline_checks + count dsm Instrument.read_faults))
    [ (fun ids -> ids.Builtin.li_hudak); (fun ids -> ids.Builtin.java_ic) ]

let test_ensure_access_public_path () =
  (* The compiler-target entry point: after ensure_access, the access is
     local and free. *)
  let dsm, _ = make ~nodes:2 () in
  let x = Dsm.malloc dsm ~home:(Dsm.On_node 1) 8 in
  run_one dsm ~node:0 (fun () ->
      Dsm.ensure_access dsm ~addr:x ~mode:Access.Read;
      let t0 = Dsm.now_us dsm in
      ignore (Dsm.read_int dsm x);
      Alcotest.(check (float 0.001)) "read after ensure is free" 0.
        (Dsm.now_us dsm -. t0))

let test_lock_manager_placement () =
  let dsm, _ = make () in
  let l0 = Dsm.lock_create dsm () in
  let l1 = Dsm.lock_create dsm () in
  Alcotest.(check int) "round robin managers" 0 (Runtime.lock_state dsm l0).Runtime.lock_manager;
  Alcotest.(check int) "second lock on node 1" 1 (Runtime.lock_state dsm l1).Runtime.lock_manager;
  let l9 = Dsm.lock_create dsm ~manager:3 () in
  Alcotest.(check int) "explicit manager" 3 (Runtime.lock_state dsm l9).Runtime.lock_manager

let test_monitor_summary_counts () =
  let dsm, _ = make ~nodes:2 () in
  Monitor.enable dsm true;
  let x = Dsm.malloc dsm ~home:(Dsm.On_node 1) 8 in
  run_one dsm ~node:0 (fun () -> ignore (Dsm.read_int dsm x));
  let faults =
    List.find (fun l -> l.Monitor.category = "fault") (Monitor.summary dsm)
  in
  Alcotest.(check int) "one fault event" 1 faults.Monitor.events

let () =
  Alcotest.run "core"
    [
      ( "page_table",
        [
          Alcotest.test_case "declare/find" `Quick test_page_table_declare_find;
          Alcotest.test_case "copyset" `Quick test_page_table_copyset;
          Alcotest.test_case "entries sorted" `Quick test_page_table_entries_sorted;
          Alcotest.test_case "int keys" `Quick test_page_table_int_keys;
          Alcotest.test_case "protection word = hit predicate" `Quick
            test_prot_word_matches_predicate;
          Alcotest.test_case "protection setters round-trip" `Quick
            test_prot_setters_round_trip;
          QCheck_alcotest.to_alcotest prop_tables_match_model;
        ] );
      ( "malloc",
        [
          Alcotest.test_case "round robin homes" `Quick test_malloc_round_robin_homes;
          Alcotest.test_case "on-node rights" `Quick test_malloc_on_node_rights;
          Alcotest.test_case "block homes" `Quick test_malloc_block_homes_monotone;
          Alcotest.test_case "regions never share pages" `Quick
            test_malloc_regions_never_share_pages;
          Alcotest.test_case "input validation" `Quick test_malloc_rejects_bad_input;
          Alcotest.test_case "unmapped access" `Quick test_unmapped_access_fails;
        ] );
      ( "access",
        [
          Alcotest.test_case "local access free" `Quick test_local_access_costs_nothing;
          Alcotest.test_case "remote read = Table 3 total" `Quick
            test_remote_read_costs_paper_total;
          Alcotest.test_case "fault counters" `Quick test_fault_counters;
          Alcotest.test_case "byte accessors" `Quick test_byte_accessors;
          Alcotest.test_case "hit path allocates nothing" `Quick test_hit_path_allocates_nothing;
          Alcotest.test_case "charge allocates nothing" `Quick test_charge_allocates_nothing;
          Alcotest.test_case "inline-check hit allocates nothing" `Quick
            test_inline_check_hit_allocates_nothing;
          Alcotest.test_case "migrating read records new node" `Quick
            test_migrating_read_records_new_node;
          Alcotest.test_case "history is observation-only" `Quick
            test_history_is_observation_only;
        ] );
      ( "hit test",
        [
          Alcotest.test_case "hit class bits" `Quick test_hit_class_bits;
          Alcotest.test_case "write to read-only faults" `Quick test_write_to_read_only_faults;
          Alcotest.test_case "invalidated page faults" `Quick test_invalidated_page_faults;
          Alcotest.test_case "access after fault unpins" `Quick test_access_after_fault_unpins;
          Alcotest.test_case "write_update owner pushes" `Quick test_write_update_owner_pushes;
          Alcotest.test_case "sc_abd read runs its hook" `Quick test_sc_abd_read_runs_hook;
          Alcotest.test_case "java_ic checks counted" `Quick test_java_ic_checks_counted;
          Alcotest.test_case "java_ic home write hits" `Quick test_java_ic_home_write_hits;
          Alcotest.test_case "java_pf and entry_ec home writes hit" `Quick
            test_java_page_fault_home_writes_hit;
          Alcotest.test_case "switch_protocol hooks" `Quick test_switch_protocol_hooks;
          Alcotest.test_case "history records hits once" `Quick
            test_history_records_hits_once;
          Alcotest.test_case "migrated thread hits on its new node" `Quick
            test_migrated_thread_hits_on_new_node;
          Alcotest.test_case "access outside a thread fails" `Quick
            test_access_outside_thread_fails;
          Alcotest.test_case "hit frame = hit predicate" `Quick
            test_hit_frame_matches_predicate;
          Alcotest.test_case "unaligned word access" `Quick test_unaligned_word_access;
        ] );
      ( "batches",
        [
          Alcotest.test_case "example" `Quick test_batches_example;
          QCheck_alcotest.to_alcotest prop_invalidation_batches;
          QCheck_alcotest.to_alcotest prop_group_by_key;
        ] );
      ( "locks",
        [
          Alcotest.test_case "mutual exclusion" `Quick test_lock_mutual_exclusion;
          Alcotest.test_case "foreign release detected" `Quick
            test_lock_release_by_other_thread_fails;
          Alcotest.test_case "release while free detected" `Quick
            test_lock_release_while_free_fails;
          Alcotest.test_case "survives migration" `Quick test_lock_survives_migration;
        ] );
      ( "barriers",
        [
          Alcotest.test_case "gathers all parties" `Quick test_barrier_gathers_all;
          Alcotest.test_case "reusable" `Quick test_barrier_reusable_across_generations;
          Alcotest.test_case "zero parties rejected" `Quick test_barrier_rejects_zero_parties;
        ] );
      ( "registry",
        [
          Alcotest.test_case "lookup" `Quick test_registry_lookup;
          Alcotest.test_case "user protocol" `Quick test_registry_user_protocol;
          Alcotest.test_case "set default validates" `Quick test_set_default_validates;
          Alcotest.test_case "lock hooks fire" `Quick test_lock_protocol_hooks_fire;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "custom cost model" `Quick test_custom_costs;
          Alcotest.test_case "fault-storm guard" `Quick test_fault_storm_guard;
          Alcotest.test_case "limit checked before rights" `Quick
            test_fault_limit_before_rights;
          Alcotest.test_case "public ensure_access" `Quick test_ensure_access_public_path;
          Alcotest.test_case "lock manager placement" `Quick test_lock_manager_placement;
          Alcotest.test_case "monitor summary counts" `Quick test_monitor_summary_counts;
        ] );
    ]
