(* Tests of the Hyperion object runtime over the Java protocols. *)

open Dsmpm2_net
open Dsmpm2_core
open Dsmpm2_protocols
module H = Dsmpm2_hyperion.Hyperion

let make ?(nodes = 3) ?(protocol = `Pf) () =
  let dsm = Dsm.create ~nodes ~driver:Driver.sisci_sci () in
  let ids = Builtin.register_all dsm in
  let proto =
    match protocol with `Pf -> ids.Builtin.java_pf | `Ic -> ids.Builtin.java_ic
  in
  (dsm, H.create dsm ~protocol:proto)

let run_one dsm ~node f =
  ignore (Dsm.spawn dsm ~node f);
  Dsm.run dsm

let test_objects_pack_per_home () =
  let dsm, hyp = make () in
  let a = H.new_obj hyp ~home:1 ~fields:4 () in
  let b = H.new_obj hyp ~home:1 ~fields:4 () in
  let c = H.new_obj hyp ~home:2 ~fields:4 () in
  let page_of o = List.hd (Dsm.region_pages dsm ~addr:(H.addr o) ~size:8) in
  Alcotest.(check int) "same home shares a page" (page_of a) (page_of b);
  Alcotest.(check bool) "different homes, different pages" true (page_of a <> page_of c);
  Alcotest.(check int) "home recorded" 1 (H.home hyp a);
  Alcotest.(check int) "field count" 4 (H.field_count a)

let test_get_put_local () =
  let dsm, hyp = make () in
  let o = H.new_obj hyp ~home:0 ~fields:2 () in
  run_one dsm ~node:0 (fun () ->
      H.put hyp o 0 10;
      H.put hyp o 1 20;
      Alcotest.(check int) "field 0" 10 (H.get hyp o 0);
      Alcotest.(check int) "field 1" 20 (H.get hyp o 1))

let test_field_bounds_checked () =
  let dsm, hyp = make () in
  let o = H.new_obj hyp ~home:0 ~fields:2 () in
  run_one dsm ~node:0 (fun () ->
      Alcotest.check_raises "out of bounds"
        (Invalid_argument "Hyperion: field 2 out of range (object has 2 fields)")
        (fun () -> ignore (H.get hyp o 2)))

let test_monitor_publishes_to_main_memory () =
  let dsm, hyp = make () in
  let o = H.new_obj hyp ~home:0 ~fields:1 () in
  let m = H.new_monitor hyp () in
  run_one dsm ~node:1 (fun () ->
      H.synchronized hyp m (fun () -> H.put hyp o 0 777));
  Alcotest.(check int) "main memory updated on exit" 777 (H.peek_main_memory hyp o 0)

let test_writes_cached_until_exit () =
  let dsm, hyp = make () in
  let o = H.new_obj hyp ~home:0 ~fields:1 () in
  let m = H.new_monitor hyp () in
  let main_before = ref (-1) in
  run_one dsm ~node:1 (fun () ->
      H.monitor_enter hyp m;
      H.put hyp o 0 5;
      main_before := H.peek_main_memory hyp o 0;
      H.monitor_exit hyp m);
  Alcotest.(check int) "main memory unchanged inside monitor" 0 !main_before;
  Alcotest.(check int) "flushed at exit" 5 (H.peek_main_memory hyp o 0)

let test_cache_flushed_on_enter () =
  let dsm, hyp = make ~nodes:2 () in
  let o = H.new_obj hyp ~home:0 ~fields:1 () in
  let m = H.new_monitor hyp () in
  let stale = ref (-1) and fresh = ref (-1) in
  ignore
    (Dsm.spawn dsm ~node:1 (fun () ->
         ignore (H.get hyp o 0);
         (* cache a copy *)
         Dsm.compute dsm 5_000.;
         stale := H.get hyp o 0;
         (* plain read: may be stale *)
         Dsm.compute dsm 5_000.;
         H.synchronized hyp m (fun () -> fresh := H.get hyp o 0)));
  ignore
    (Dsm.spawn dsm ~node:0 (fun () ->
         Dsm.compute dsm 1_000.;
         H.synchronized hyp m (fun () -> H.put hyp o 0 9)));
  Dsm.run dsm;
  Alcotest.(check int) "unsynchronized read stale" 0 !stale;
  Alcotest.(check int) "monitor entry flushes the cache" 9 !fresh

let test_counter_through_monitors () =
  List.iter
    (fun protocol ->
      let dsm, hyp = make ~nodes:4 ~protocol () in
      let o = H.new_obj hyp ~home:0 ~fields:1 () in
      let m = H.new_monitor hyp () in
      let threads =
        List.init 4 (fun node ->
            Dsm.spawn dsm ~node (fun () ->
                for _ = 1 to 5 do
                  H.synchronized hyp m (fun () -> H.put hyp o 0 (H.get hyp o 0 + 1))
                done))
      in
      Dsm.run dsm;
      ignore threads;
      Alcotest.(check int) "4x5 increments" 20 (H.peek_main_memory hyp o 0))
    [ `Pf; `Ic ]

let test_arrays () =
  let dsm, hyp = make () in
  let arr = H.new_array hyp ~home:2 ~len:10 () in
  run_one dsm ~node:2 (fun () ->
      for i = 0 to 9 do
        H.put hyp arr i (i * i)
      done;
      let sum = ref 0 in
      for i = 0 to 9 do
        sum := !sum + H.get hyp arr i
      done;
      Alcotest.(check int) "sum of squares" 285 !sum)

let test_explicit_main_memory_update () =
  let dsm, hyp = make () in
  let o = H.new_obj hyp ~home:0 ~fields:1 () in
  run_one dsm ~node:1 (fun () ->
      H.put hyp o 0 31;
      Alcotest.(check int) "not yet in main memory" 0 (H.peek_main_memory hyp o 0);
      H.main_memory_update hyp;
      Alcotest.(check int) "pushed explicitly" 31 (H.peek_main_memory hyp o 0))

let test_object_too_large_rejected () =
  let _, hyp = make () in
  Alcotest.check_raises "page-sized max"
    (Invalid_argument "Hyperion: object larger than a page is not supported")
    (fun () -> ignore (H.new_obj hyp ~home:0 ~fields:513 ()))

let test_default_home_is_allocating_node () =
  let dsm, hyp = make () in
  let homes = Array.make 3 (-1) in
  for node = 0 to 2 do
    ignore
      (Dsm.spawn dsm ~node (fun () ->
           let o = H.new_obj hyp ~fields:1 () in
           homes.(node) <- H.home hyp o))
  done;
  Dsm.run dsm;
  Alcotest.(check (list int)) "objects live where they were created" [ 0; 1; 2 ]
    (Array.to_list homes)

let test_arena_rolls_to_new_page () =
  let dsm, hyp = make () in
  (* 512 words per page: two 300-word arrays cannot share one. *)
  let a = H.new_array hyp ~home:1 ~len:300 () in
  let b = H.new_array hyp ~home:1 ~len:300 () in
  let page_of o = List.hd (Dsm.region_pages dsm ~addr:(H.addr o) ~size:8) in
  Alcotest.(check bool) "second array on a fresh page" true (page_of a <> page_of b)

let test_records_visible_through_api () =
  let dsm, hyp = make () in
  let o = H.new_obj hyp ~home:0 ~fields:2 () in
  run_one dsm ~node:1 (fun () ->
      H.put hyp o 0 1;
      H.put hyp o 1 2;
      let page = List.hd (Dsm.region_pages dsm ~addr:(H.addr o) ~size:8) in
      Alcotest.(check int) "two pending records" 2
        (List.length (Java_common.recorded_words dsm ~node:1 ~page));
      H.main_memory_update hyp;
      Alcotest.(check int) "cleared after update" 0
        (List.length (Java_common.recorded_words dsm ~node:1 ~page)))

let test_get_hit_allocates_nothing () =
  (* Hyperion.get on a local object under java_ic: the inline check is
     counted and charged on every call, and the call allocates nothing. *)
  let n = 10_000 in
  let dsm, hyp = make ~nodes:2 ~protocol:`Ic () in
  let arr = H.new_array hyp ~home:0 ~len:512 () in
  let checks () = Dsmpm2_sim.Stats.count (Dsm.stats dsm) Instrument.inline_checks in
  let words = ref infinity and per_get = ref 0 in
  run_one dsm ~node:0 (fun () ->
      for i = 0 to 15 do ignore (H.get hyp arr i) done;
      let checks0 = checks () in
      let before = Gc.minor_words () in
      for i = 1 to n do ignore (Sys.opaque_identity (H.get hyp arr (i land 511))) done;
      words := (Gc.minor_words () -. before) /. float_of_int n;
      per_get := (checks () - checks0) / n);
  Alcotest.(check bool) (Printf.sprintf "get hit: %.2f words" !words) true (!words < 1.);
  Alcotest.(check int) "one inline check per get" 1 !per_get

let () =
  Alcotest.run "hyperion"
    [
      ( "objects",
        [
          Alcotest.test_case "packing per home" `Quick test_objects_pack_per_home;
          Alcotest.test_case "get/put local" `Quick test_get_put_local;
          Alcotest.test_case "field bounds" `Quick test_field_bounds_checked;
          Alcotest.test_case "arrays" `Quick test_arrays;
          Alcotest.test_case "oversized rejected" `Quick test_object_too_large_rejected;
          Alcotest.test_case "default home" `Quick test_default_home_is_allocating_node;
          Alcotest.test_case "arena rolls pages" `Quick test_arena_rolls_to_new_page;
          Alcotest.test_case "get hit allocates nothing" `Quick test_get_hit_allocates_nothing;
        ] );
      ( "jmm",
        [
          Alcotest.test_case "monitor exit publishes" `Quick
            test_monitor_publishes_to_main_memory;
          Alcotest.test_case "writes cached until exit" `Quick test_writes_cached_until_exit;
          Alcotest.test_case "cache flushed on enter" `Quick test_cache_flushed_on_enter;
          Alcotest.test_case "counter through monitors" `Quick test_counter_through_monitors;
          Alcotest.test_case "explicit main-memory update" `Quick
            test_explicit_main_memory_update;
          Alcotest.test_case "records API" `Quick test_records_visible_through_api;
        ] );
    ]
