(* Tests of the paged-memory substrate: geometry, rights, frames, diffs. *)

open Dsmpm2_mem

let geo = Page.geometry ~size:4096

(* --- Page --- *)

let test_page_geometry () =
  Alcotest.(check int) "size" 4096 (Page.size geo);
  Alcotest.(check int) "page of addr" 2 (Page.page_of_addr geo 8192);
  Alcotest.(check int) "offset" 100 (Page.offset_of_addr geo 4196);
  Alcotest.(check int) "base" 8192 (Page.base_of_page geo 2);
  Alcotest.(check (list int)) "range within page" [ 1 ] (Page.pages_of_range geo ~addr:4096 ~len:4096);
  Alcotest.(check (list int)) "straddling range" [ 1; 2 ]
    (Page.pages_of_range geo ~addr:8000 ~len:400)

let test_page_rejects_bad_size () =
  Alcotest.check_raises "power of two"
    (Invalid_argument "Page.geometry: size must be a power of two") (fun () ->
      ignore (Page.geometry ~size:3000))

(* --- Access --- *)

let test_access_lattice () =
  Alcotest.(check bool) "none denies read" false (Access.allows Access.No_access Access.Read);
  Alcotest.(check bool) "ro allows read" true (Access.allows Access.Read_only Access.Read);
  Alcotest.(check bool) "ro denies write" false (Access.allows Access.Read_only Access.Write);
  Alcotest.(check bool) "rw allows write" true (Access.allows Access.Read_write Access.Write);
  Alcotest.(check bool) "rw includes ro" true (Access.includes Access.Read_write Access.Read_only);
  Alcotest.(check bool) "ro excludes rw" false (Access.includes Access.Read_only Access.Read_write)

let access_gen =
  QCheck.Gen.oneofl [ Access.No_access; Access.Read_only; Access.Read_write ]

let prop_access_merge_is_lub =
  QCheck.Test.make ~name:"merge is least upper bound" ~count:100
    (QCheck.make (QCheck.Gen.pair access_gen access_gen))
    (fun (a, b) ->
      let m = Access.merge a b in
      Access.includes m a && Access.includes m b
      && (m = a || m = b))

(* --- Frame_store --- *)

let test_frame_store_rw () =
  let fs = Frame_store.create ~geometry:geo in
  Frame_store.write_int fs ~addr:4096 123456789;
  Alcotest.(check int) "read back" 123456789 (Frame_store.read_int fs ~addr:4096);
  Alcotest.(check int) "negative values" (-42)
    (Frame_store.write_int fs ~addr:4104 (-42);
     Frame_store.read_int fs ~addr:4104);
  Frame_store.write_byte fs ~addr:8192 200;
  Alcotest.(check int) "byte" 200 (Frame_store.read_byte fs ~addr:8192);
  Alcotest.(check int) "two frames" 2 (Frame_store.frame_count fs)

let test_frame_store_unaligned_rejected () =
  let fs = Frame_store.create ~geometry:geo in
  Alcotest.check_raises "unaligned word"
    (Invalid_argument "Frame_store: unaligned word access at 0x1001") (fun () ->
      ignore (Frame_store.read_int fs ~addr:4097))

let test_frame_store_install_copies () =
  let fs = Frame_store.create ~geometry:geo in
  let data = Bytes.make 4096 'x' in
  Frame_store.install fs 7 data;
  Bytes.set data 0 'y';
  (* mutation of the source must not leak into the store *)
  Alcotest.(check int) "deep copy" (Char.code 'x') (Frame_store.read_byte fs ~addr:(7 * 4096));
  Frame_store.drop fs 7;
  Alcotest.(check bool) "dropped" false (Frame_store.has_frame fs 7)

let test_frame_store_install_wrong_size () =
  let fs = Frame_store.create ~geometry:geo in
  Alcotest.check_raises "length checked"
    (Invalid_argument "Frame_store.install: wrong page length") (fun () ->
      Frame_store.install fs 1 (Bytes.create 100))

let test_frame_store_install_owned_adopts () =
  let fs = Frame_store.create ~geometry:geo in
  let data = Bytes.make 4096 'x' in
  Frame_store.install_owned fs 7 data;
  (* Ownership transferred: the store's frame IS the caller's buffer (the
     whole point — one copy per page transfer, not two). *)
  Alcotest.(check bool) "no copy made" true (Frame_store.frame fs 7 == data);
  Alcotest.check_raises "length still checked"
    (Invalid_argument "Frame_store.install_owned: wrong page length") (fun () ->
      Frame_store.install_owned fs 1 (Bytes.create 100))

(* The word accessors read and write without a bounds check, which is safe
   only while every frame in a store is exactly one page of at least one
   word: every way a frame enters a store checks its length, a wrong one
   leaves the store as it was, and a store of pages shorter than a word
   cannot be made. *)
let test_frame_store_frames_are_one_page () =
  List.iter
    (fun size ->
      Alcotest.check_raises (Printf.sprintf "%d-byte pages" size)
        (Invalid_argument "Frame_store.create: a page must hold a word") (fun () ->
          ignore (Frame_store.create ~geometry:(Page.geometry ~size))))
    [ 1; 2; 4 ];
  let small = Frame_store.create ~geometry:(Page.geometry ~size:8) in
  Frame_store.write_int small ~addr:(3 * 8) (-5);
  Alcotest.(check int) "a one-word page" (-5) (Frame_store.read_int small ~addr:(3 * 8));
  let fs = Frame_store.create ~geometry:geo in
  Frame_store.write_int fs ~addr:4096 7;
  let kept = Frame_store.frame fs 1 in
  List.iter
    (fun len ->
      List.iter
        (fun (what, install) ->
          List.iter
            (fun page ->
              Alcotest.check_raises
                (Printf.sprintf "%s of %d bytes on page %d" what len page)
                (Invalid_argument (what ^ ": wrong page length"))
                (fun () -> install fs page (Bytes.make len 'x')))
            [ 1; 2 ];
          Alcotest.(check bool) (what ^ ": frame kept") true (Frame_store.frame fs 1 == kept);
          Alcotest.(check bool) (what ^ ": no frame added") false (Frame_store.has_frame fs 2))
        [
          ("Frame_store.install", Frame_store.install);
          ("Frame_store.install_owned", Frame_store.install_owned);
        ])
    [ 0; 8; 4095; 4097; 8192 ];
  Alcotest.(check int) "still one frame" 1 (Frame_store.frame_count fs);
  Alcotest.(check int) "word kept" 7 (Frame_store.read_int fs ~addr:4096);
  (* Every way in gives a one-page frame: materialised, installed, adopted,
     and a copy written into a retired frame. *)
  ignore (Frame_store.frame fs 3);
  Frame_store.install fs 4 (Bytes.make 4096 'a');
  Frame_store.install_owned fs 5 (Bytes.make 4096 'b');
  Frame_store.drop fs 5;
  Frame_store.install_owned fs 6 (Frame_store.copy_out fs 4);
  List.iter
    (fun page ->
      match Frame_store.peek fs page with
      | Some b ->
          Alcotest.(check int) (Printf.sprintf "page %d: length" page) 4096 (Bytes.length b)
      | None -> Alcotest.failf "page %d: no frame" page)
    [ 1; 3; 4; 6 ];
  Alcotest.(check int) "last word of a page" 0
    (Frame_store.read_int fs ~addr:((3 * 4096) + 4088))

let test_frame_store_copy_out_reuses_retired () =
  let fs = Frame_store.create ~geometry:geo in
  Frame_store.write_int fs ~addr:4096 7;
  let old = Frame_store.frame fs 1 in
  Frame_store.drop fs 1;
  Frame_store.write_int fs ~addr:(2 * 4096) 9;
  let copy = Frame_store.copy_out fs 2 in
  Alcotest.(check bool) "dropped frame reused" true (copy == old);
  Alcotest.(check int64) "copy holds the page" 9L (Bytes.get_int64_le copy 0);
  Bytes.set_int64_le copy 0 1L;
  Alcotest.(check int) "frame independent of the copy" 9
    (Frame_store.read_int fs ~addr:(2 * 4096));
  (* Re-installing a frame's own buffer must not retire it. *)
  let live = Frame_store.frame fs 2 in
  Frame_store.install_owned fs 2 live;
  Alcotest.(check bool) "live frame not reused" false (Frame_store.copy_out fs 2 == live)

let test_frame_store_cache_tracks_drop_and_install () =
  let fs = Frame_store.create ~geometry:geo in
  Frame_store.write_int fs ~addr:(7 * 4096) 11;
  (* Page 7 is now the cached hot entry; a drop must invalidate the cache. *)
  Frame_store.drop fs 7;
  Alcotest.(check bool) "dropped" false (Frame_store.has_frame fs 7);
  Alcotest.(check int) "re-created zeroed" 0 (Frame_store.read_int fs ~addr:(7 * 4096));
  (* An install over the hot page must serve the new data, not the stale
     cached frame. *)
  Frame_store.write_int fs ~addr:(3 * 4096) 5;
  let fresh = Bytes.make 4096 '\000' in
  Bytes.set_int64_le fresh 0 99L;
  Frame_store.install fs 3 fresh;
  Alcotest.(check int) "install visible through cache" 99
    (Frame_store.read_int fs ~addr:(3 * 4096));
  (* peek must also agree with the cache. *)
  (match Frame_store.peek fs 3 with
  | Some f -> Alcotest.(check int64) "peek sees install" 99L (Bytes.get_int64_le f 0)
  | None -> Alcotest.fail "frame missing after install")

(* --- Diff --- *)

let test_diff_compute_apply_roundtrip () =
  let twin = Bytes.make 4096 '\000' in
  let current = Bytes.copy twin in
  Bytes.set current 10 'a';
  Bytes.set current 11 'b';
  Bytes.set current 100 'c';
  let diff = Diff.compute ~page:0 ~twin ~current in
  Alcotest.(check int) "two ranges" 2 (Diff.range_count diff);
  Alcotest.(check int) "payload" 3 (Diff.payload_bytes diff);
  Alcotest.(check int) "wire includes headers" (3 + 16) (Diff.wire_bytes diff);
  let target = Bytes.copy twin in
  Diff.apply diff target;
  Alcotest.(check bytes) "apply reproduces" current target

let test_diff_empty () =
  let twin = Bytes.make 64 'z' in
  let diff = Diff.compute ~page:0 ~twin ~current:(Bytes.copy twin) in
  Alcotest.(check bool) "no changes, empty" true (Diff.is_empty diff)

let prop_diff_roundtrip =
  QCheck.Test.make ~name:"diff(twin, current) applied to twin = current" ~count:200
    QCheck.(small_list (pair (int_bound 255) (int_bound 255)))
    (fun writes ->
      let twin = Bytes.make 256 '\000' in
      let current = Bytes.copy twin in
      List.iter (fun (off, v) -> Bytes.set current off (Char.chr v)) writes;
      let diff = Diff.compute ~page:0 ~twin ~current in
      let target = Bytes.copy twin in
      Diff.apply diff target;
      Bytes.equal target current)

let prop_diff_merge_composes =
  QCheck.Test.make ~name:"merge d1 d2 = apply d1 then d2" ~count:200
    QCheck.(
      pair
        (small_list (pair (int_bound 127) (int_bound 255)))
        (small_list (pair (int_bound 127) (int_bound 255))))
    (fun (w1, w2) ->
      let base = Bytes.make 128 '\000' in
      let v1 = Bytes.copy base in
      List.iter (fun (o, v) -> Bytes.set v1 o (Char.chr v)) w1;
      let d1 = Diff.compute ~page:3 ~twin:base ~current:v1 in
      let v2 = Bytes.copy v1 in
      List.iter (fun (o, v) -> Bytes.set v2 o (Char.chr v)) w2;
      let d2 = Diff.compute ~page:3 ~twin:v1 ~current:v2 in
      let merged = Diff.merge d1 d2 in
      let sequential = Bytes.copy base in
      Diff.apply d1 sequential;
      Diff.apply d2 sequential;
      let at_once = Bytes.copy base in
      Diff.apply merged at_once;
      Bytes.equal sequential at_once)

(* The word-scan kernel must produce byte-identical diffs to the
   byte-at-a-time reference — same ranges, same offsets, not just the same
   applied result. *)
let prop_diff_compute_matches_bytewise =
  QCheck.Test.make ~name:"compute = compute_bytewise (exact ranges)" ~count:300
    QCheck.(small_list (pair (int_bound 511) (int_bound 255)))
    (fun writes ->
      let twin = Bytes.make 512 '\000' in
      let current = Bytes.copy twin in
      List.iter (fun (off, v) -> Bytes.set current off (Char.chr v)) writes;
      let fast = Diff.compute ~page:0 ~twin ~current in
      let slow = Diff.compute_bytewise ~page:0 ~twin ~current in
      fast.Diff.page = slow.Diff.page && fast.Diff.ranges = slow.Diff.ranges)

(* Edges the word scan must get right: changes straddling a word boundary,
   in the unaligned tail of a page whose size is not a multiple of 8, and
   the full-page change. *)
let test_diff_compute_word_edges () =
  let check_equal name twin current =
    let fast = Diff.compute ~page:0 ~twin ~current in
    let slow = Diff.compute_bytewise ~page:0 ~twin ~current in
    Alcotest.(check bool) (name ^ ": matches reference") true
      (fast.Diff.ranges = slow.Diff.ranges);
    let target = Bytes.copy twin in
    Diff.apply fast target;
    Alcotest.(check bytes) (name ^ ": applies") current target
  in
  let twin = Bytes.make 64 '\000' in
  let straddle = Bytes.copy twin in
  Bytes.set straddle 7 'a';
  Bytes.set straddle 8 'b';
  check_equal "straddles word boundary" twin straddle;
  let tail = Bytes.make 61 '\000' in
  let tail_hit = Bytes.copy tail in
  Bytes.set tail_hit 60 'z';
  check_equal "last byte of unaligned tail" tail tail_hit;
  let all = Bytes.make 64 '\001' in
  check_equal "full-page change" twin all;
  let full_diff = Diff.compute ~page:0 ~twin ~current:all in
  Alcotest.(check int) "full change is one range" 1 (Diff.range_count full_diff);
  Alcotest.(check int) "full payload" 64 (Diff.payload_bytes full_diff);
  (* Sparse far-apart single words stay separate ranges. *)
  let sparse = Bytes.make 4096 '\000' in
  let sparse_hit = Bytes.copy sparse in
  Bytes.set_int64_le sparse_hit 0 1L;
  Bytes.set_int64_le sparse_hit 2048 1L;
  Bytes.set_int64_le sparse_hit 4088 1L;
  check_equal "sparse words" sparse sparse_hit;
  Alcotest.(check int) "three sparse ranges" 3
    (Diff.range_count (Diff.compute ~page:0 ~twin:sparse ~current:sparse_hit))

let test_diff_of_words () =
  let diff = Diff.of_words ~geometry:geo ~page:5 [ (0, 42); (16, 7); (8, 9) ] in
  Alcotest.(check int) "coalesced adjacent words" 1 (Diff.range_count diff);
  let target = Bytes.make 4096 '\000' in
  Diff.apply diff target;
  Alcotest.(check int64) "word 0" 42L (Bytes.get_int64_le target 0);
  Alcotest.(check int64) "word 1" 9L (Bytes.get_int64_le target 8);
  Alcotest.(check int64) "word 2" 7L (Bytes.get_int64_le target 16)

let test_diff_of_words_last_wins () =
  let diff = Diff.of_words ~geometry:geo ~page:0 [ (0, 1); (0, 2); (0, 3) ] in
  let target = Bytes.make 4096 '\000' in
  Diff.apply diff target;
  Alcotest.(check int64) "last record wins" 3L (Bytes.get_int64_le target 0)

(* Last-write-wins must hold per offset even when duplicates interleave with
   records for other (possibly overlapping-range) offsets. *)
let test_diff_of_words_interleaved_duplicates () =
  let diff =
    Diff.of_words ~geometry:geo ~page:0
      [ (0, 1); (8, 10); (0, 2); (16, 20); (8, 11); (0, 3) ]
  in
  let target = Bytes.make 4096 '\000' in
  Diff.apply diff target;
  Alcotest.(check int64) "offset 0 last" 3L (Bytes.get_int64_le target 0);
  Alcotest.(check int64) "offset 8 last" 11L (Bytes.get_int64_le target 8);
  Alcotest.(check int64) "offset 16 only" 20L (Bytes.get_int64_le target 16);
  (* The three adjacent words coalesce into a single normalised range. *)
  Alcotest.(check int) "coalesced" 1 (Diff.range_count diff)

let test_diff_of_words_validation () =
  Alcotest.check_raises "unaligned offset" (Invalid_argument "Diff.of_words: bad offset")
    (fun () -> ignore (Diff.of_words ~geometry:geo ~page:0 [ (3, 1) ]));
  Alcotest.check_raises "out of page" (Invalid_argument "Diff.of_words: bad offset")
    (fun () -> ignore (Diff.of_words ~geometry:geo ~page:0 [ (4096, 1) ]))

let test_diff_merge_page_mismatch () =
  let d1 = Diff.of_words ~geometry:geo ~page:1 [ (0, 1) ] in
  let d2 = Diff.of_words ~geometry:geo ~page:2 [ (0, 1) ] in
  Alcotest.check_raises "page mismatch" (Invalid_argument "Diff.merge: page mismatch")
    (fun () -> ignore (Diff.merge d1 d2))

let prop_pages_cover_range =
  QCheck.Test.make ~name:"pages_of_range covers every byte" ~count:200
    QCheck.(pair (int_range 0 100_000) (int_range 1 20_000))
    (fun (addr, len) ->
      let pages = Page.pages_of_range geo ~addr ~len in
      let covers a = List.mem (Page.page_of_addr geo a) pages in
      covers addr && covers (addr + len - 1)
      && List.length pages = List.length (List.sort_uniq compare pages))

let prop_word_roundtrip =
  QCheck.Test.make ~name:"frame word write/read round trip" ~count:200
    QCheck.(pair (int_range 0 511) int)
    (fun (word, v) ->
      let fs = Frame_store.create ~geometry:geo in
      let addr = word * 8 in
      Frame_store.write_int fs ~addr v;
      Frame_store.read_int fs ~addr = v)

let prop_diff_wire_accounting =
  QCheck.Test.make ~name:"wire bytes = payload + 8 per range" ~count:200
    QCheck.(small_list (pair (int_bound 255) (int_bound 255)))
    (fun writes ->
      let twin = Bytes.make 256 '\000' in
      let current = Bytes.copy twin in
      List.iter (fun (o, v) -> Bytes.set current o (Char.chr v)) writes;
      let d = Diff.compute ~page:0 ~twin ~current in
      Diff.wire_bytes d = Diff.payload_bytes d + (8 * Diff.range_count d))

let () =
  Alcotest.run "mem"
    [
      ( "page",
        [
          Alcotest.test_case "geometry" `Quick test_page_geometry;
          Alcotest.test_case "bad size" `Quick test_page_rejects_bad_size;
        ] );
      ( "access",
        [
          Alcotest.test_case "lattice" `Quick test_access_lattice;
          QCheck_alcotest.to_alcotest prop_access_merge_is_lub;
        ] );
      ( "frame_store",
        [
          Alcotest.test_case "read/write" `Quick test_frame_store_rw;
          Alcotest.test_case "unaligned rejected" `Quick test_frame_store_unaligned_rejected;
          Alcotest.test_case "frames are one page" `Quick test_frame_store_frames_are_one_page;
          Alcotest.test_case "install copies" `Quick test_frame_store_install_copies;
          Alcotest.test_case "install size checked" `Quick test_frame_store_install_wrong_size;
          Alcotest.test_case "install_owned adopts" `Quick
            test_frame_store_install_owned_adopts;
          Alcotest.test_case "copy_out reuses retired frames" `Quick
            test_frame_store_copy_out_reuses_retired;
          Alcotest.test_case "hot-page cache coherent" `Quick
            test_frame_store_cache_tracks_drop_and_install;
        ] );
      ( "diff",
        [
          Alcotest.test_case "compute/apply" `Quick test_diff_compute_apply_roundtrip;
          Alcotest.test_case "empty" `Quick test_diff_empty;
          QCheck_alcotest.to_alcotest prop_diff_roundtrip;
          QCheck_alcotest.to_alcotest prop_diff_merge_composes;
          QCheck_alcotest.to_alcotest prop_diff_compute_matches_bytewise;
          Alcotest.test_case "word-scan edges" `Quick test_diff_compute_word_edges;
          Alcotest.test_case "of_words" `Quick test_diff_of_words;
          Alcotest.test_case "of_words last wins" `Quick test_diff_of_words_last_wins;
          Alcotest.test_case "of_words interleaved duplicates" `Quick
            test_diff_of_words_interleaved_duplicates;
          Alcotest.test_case "of_words validation" `Quick test_diff_of_words_validation;
          Alcotest.test_case "merge page mismatch" `Quick test_diff_merge_page_mismatch;
          QCheck_alcotest.to_alcotest prop_diff_wire_accounting;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_pages_cover_range;
          QCheck_alcotest.to_alcotest prop_word_roundtrip;
        ] );
    ]
