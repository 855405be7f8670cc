type t = { page : int; ranges : (int * bytes) list }

let make_twin = Bytes.copy

(* Reference kernel: byte-at-a-time scan for maximal runs of differing
   bytes.  Kept as the executable specification of [compute] (property
   tests assert equivalence) and as the baseline of the Bechamel
   diff-compute case. *)
let compute_bytewise ~page ~twin ~current =
  let n = Bytes.length twin in
  if Bytes.length current <> n then invalid_arg "Diff.compute: length mismatch";
  let rec scan i acc =
    if i >= n then List.rev acc
    else if Bytes.get twin i = Bytes.get current i then scan (i + 1) acc
    else begin
      let j = ref i in
      while !j < n && Bytes.get twin !j <> Bytes.get current !j do incr j done;
      let data = Bytes.sub current i (!j - i) in
      scan !j ((i, data) :: acc)
    end
  in
  { page; ranges = scan 0 [] }

(* Word-granular kernel: equal regions — the overwhelming majority of a
   page under sparse writes — are skipped 8 bytes per compare via
   [Bytes.get_int64_le]; byte granularity is only paid inside and at the
   edges of a differing word.  Semantics are identical to
   [compute_bytewise]: maximal runs of differing bytes. *)
let compute ~page ~twin ~current =
  let n = Bytes.length twin in
  if Bytes.length current <> n then invalid_arg "Diff.compute: length mismatch";
  let word_limit = n - 7 in
  (* First index >= i where the bytes differ, or n. *)
  let rec skip_equal i =
    if i < word_limit then
      if Int64.equal (Bytes.get_int64_le twin i) (Bytes.get_int64_le current i)
      then skip_equal (i + 8)
      else first_diff i
    else tail_skip i
  and first_diff i =
    (* A differing byte is guaranteed in [i, i+8). *)
    if Bytes.get twin i = Bytes.get current i then first_diff (i + 1) else i
  and tail_skip i =
    if i >= n then n
    else if Bytes.get twin i = Bytes.get current i then tail_skip (i + 1)
    else i
  in
  (* First index >= i where the bytes are equal again, or n. *)
  let rec run_end i =
    if i >= n then n
    else if Bytes.get twin i = Bytes.get current i then i
    else run_end (i + 1)
  in
  let rec scan i acc =
    let i = skip_equal i in
    if i >= n then List.rev acc
    else begin
      let j = run_end (i + 1) in
      scan j ((i, Bytes.sub current i (j - i)) :: acc)
    end
  in
  { page; ranges = scan 0 [] }

(* Normalises a list of (offset, data) patches into sorted, coalesced,
   non-overlapping ranges; later patches win where they overlap earlier
   ones.  Run-merge over a sorted segment list: memory is proportional to
   the patch data, never to the spanned width (the previous implementation
   allocated a [bytes] + [bool array] scratch pair covering the whole
   min..max extent, pathological for two distant one-byte patches).  One
   non-empty patch is already normal and comes back as it is. *)
let normalise = function
  | [ (_, d) ] as one when Bytes.length d > 0 -> one
  | patches ->
      let patches = List.filter (fun (_, d) -> Bytes.length d > 0) patches in
      (* Insert a patch into a sorted list of disjoint segments, trimming the
         overlapped parts of existing (earlier, hence losing) segments. *)
      let insert segs (o, d) =
        let e = o + Bytes.length d in
        let rec go = function
          | [] -> [ (o, d) ]
          | ((o', d') as seg) :: rest ->
              let e' = o' + Bytes.length d' in
              if e' <= o then seg :: go rest
              else if e <= o' then (o, d) :: seg :: rest
              else begin
                (* Overlap: keep the old segment's non-overlapped flanks. *)
                let rest =
                  if e < e' then (e, Bytes.sub d' (e - o') (e' - e)) :: rest else rest
                in
                let tail = go rest in
                if o' < o then (o', Bytes.sub d' 0 (o - o')) :: tail else tail
              end
        in
        go segs
      in
      let segs = List.fold_left insert [] patches in
      (* Merge adjacent segments into maximal runs. *)
      match segs with
      | [] -> []
      | [ _ ] as one -> one
      | (o0, d0) :: rest ->
          let buf = Buffer.create (Bytes.length d0) in
          Buffer.add_bytes buf d0;
          let rec go start acc = function
            | [] -> List.rev ((start, Buffer.to_bytes buf) :: acc)
            | (o, d) :: rest ->
                if o = start + Buffer.length buf then begin
                  Buffer.add_bytes buf d;
                  go start acc rest
                end
                else begin
                  let finished = (start, Buffer.to_bytes buf) in
                  Buffer.clear buf;
                  Buffer.add_bytes buf d;
                  go o (finished :: acc) rest
                end
          in
          go o0 [] rest

let of_words ~geometry ~page words =
  let size = Page.size geometry in
  let patches =
    List.map
      (fun (off, v) ->
        if off land 7 <> 0 || off < 0 || off + 8 > size then
          invalid_arg "Diff.of_words: bad offset";
        let d = Bytes.create 8 in
        Bytes.set_int64_le d 0 (Int64.of_int v);
        (off, d))
      words
  in
  { page; ranges = normalise patches }

let apply t target =
  List.iter
    (fun (off, data) ->
      if off < 0 || off + Bytes.length data > Bytes.length target then
        invalid_arg "Diff.apply: range out of bounds";
      Bytes.blit data 0 target off (Bytes.length data))
    t.ranges

let merge older newer =
  if older.page <> newer.page then invalid_arg "Diff.merge: page mismatch";
  { page = older.page; ranges = normalise (older.ranges @ newer.ranges) }

let is_empty t = t.ranges = []
let range_count t = List.length t.ranges
let payload_bytes t = List.fold_left (fun a (_, d) -> a + Bytes.length d) 0 t.ranges
let wire_bytes t = payload_bytes t + (8 * range_count t)

let pp ppf t =
  Format.fprintf ppf "diff(page %d:" t.page;
  List.iter (fun (o, d) -> Format.fprintf ppf " %d+%d" o (Bytes.length d)) t.ranges;
  Format.fprintf ppf ")"
