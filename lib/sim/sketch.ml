(* DDSketch-style log-bucketed quantile summary.  A positive value v maps
   to bucket ceil(ln v / ln gamma); every value in bucket i lies in
   (gamma^(i-1), gamma^i], and the bucket midpoint estimate
   2*gamma^i/(gamma+1) is within relative error (gamma-1)/(gamma+1) = alpha
   of any of them.  Counts live in a dense array over the occupied index
   range, so memory tracks the data's dynamic range, not the sample count,
   a sample is an array increment, and merging is bucket-wise addition —
   exactly the stream-concatenation semantics the property tests pin. *)

(* Values at or below this threshold are counted exactly in a dedicated
   zero bucket: the log mapping cannot represent 0, and latencies this far
   below one nanosecond are noise. *)
let zero_threshold = 1e-9

type t = {
  a_alpha : float;
  gamma : float;
  inv_log_gamma : float;
  mutable n : int;
  mutable zeros : int; (* samples in [0, zero_threshold] *)
  range : float array;
      (* [| sum; min; max; last |]: unboxed, so updates allocate nothing.
         [last] is the most recent value that took a log bucket, and
         [last_bucket] its bucket index: a latency stream repeats values
         often, and a repeat skips the [log]. *)
  mutable last_bucket : int;
  mutable base : int; (* log-bucket index of counts.(0) *)
  mutable counts : int array; (* log-bucket index base + k -> samples *)
}

let create ?(alpha = 0.01) () =
  if not (alpha > 0. && alpha < 1.) then
    invalid_arg "Sketch.create: alpha must be in (0, 1)";
  let gamma = (1. +. alpha) /. (1. -. alpha) in
  {
    a_alpha = alpha;
    gamma;
    inv_log_gamma = 1. /. log gamma;
    n = 0;
    zeros = 0;
    range = [| 0.; infinity; neg_infinity; nan |];
    last_bucket = 0;
    base = 0;
    counts = [||];
  }

(* Widens [counts] to hold bucket [i].  Lengths are powers of two: growth
   is amortised O(1), and the arrays fall into a handful of heap size
   classes — odd lengths would each claim a size class of their own. *)
let cover t i =
  let len = Array.length t.counts in
  if len = 0 || i < t.base || i >= t.base + len then begin
    let lo = if len = 0 then i else Stdlib.min i t.base in
    let hi = if len = 0 then i + 1 else Stdlib.max (i + 1) (t.base + len) in
    let size = ref (Stdlib.max 8 (2 * len)) in
    while !size < hi - lo do
      size := 2 * !size
    done;
    (* Spare room goes on the side that grew. *)
    let base = if len > 0 && i < t.base then hi - !size else lo in
    let counts = Array.make !size 0 in
    if len > 0 then Array.blit t.counts 0 counts (t.base - base) len;
    t.base <- base;
    t.counts <- counts
  end

let[@inline] insert t v =
  let v = if v > 0. then v else 0. in
  t.n <- t.n + 1;
  t.range.(0) <- t.range.(0) +. v;
  if v < t.range.(1) then t.range.(1) <- v;
  if v > t.range.(2) then t.range.(2) <- v;
  if v <= zero_threshold then t.zeros <- t.zeros + 1
  else begin
    let i =
      if v = t.range.(3) then t.last_bucket
      else begin
        let i = int_of_float (Float.ceil (log v *. t.inv_log_gamma)) in
        t.range.(3) <- v;
        t.last_bucket <- i;
        i
      end
    in
    if i < t.base || i >= t.base + Array.length t.counts then cover t i;
    let k = i - t.base in
    t.counts.(k) <- t.counts.(k) + 1
  end

let add t v = insert t v
let add_int t v = insert t (float_of_int v)
let count t = t.n
let sum t = t.range.(0)
let min_value t = if t.n = 0 then 0. else t.range.(1)
let max_value t = if t.n = 0 then 0. else t.range.(2)

let buckets t =
  Array.fold_left (fun acc c -> if c > 0 then acc + 1 else acc) 0 t.counts
  + if t.zeros > 0 then 1 else 0

(* The value estimate for bucket i: the point whose relative distance to
   both bucket edges is alpha. *)
let estimate t i =
  2. *. exp (float_of_int i *. log t.gamma) /. (t.gamma +. 1.)

let quantile t q =
  if t.n = 0 then 0.
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    (* Lower nearest-rank: the exact answer is the rank-th smallest sample
       (0-based); the zero bucket sorts below every log bucket. *)
    let rank = int_of_float (Float.floor (q *. float_of_int (t.n - 1))) in
    let lo = t.range.(1) and hi = t.range.(2) in
    if rank < t.zeros then lo
    else begin
      let rec walk k seen =
        if k >= Array.length t.counts then hi
        else
          let seen = seen + t.counts.(k) in
          if seen > rank - t.zeros then estimate t (t.base + k) else walk (k + 1) seen
      in
      (* Clamping to the observed range only ever moves the estimate toward
         the exact sample, so the alpha bound survives. *)
      Float.max lo (Float.min hi (walk 0 0))
    end
  end

let percentile t p = quantile t (p /. 100.)

let fold_buckets t f acc =
  let acc = if t.zeros > 0 then f 0. t.zeros acc else acc in
  let acc = ref acc in
  Array.iteri
    (fun k c ->
      if c > 0 then acc := f (exp (float_of_int (t.base + k) *. log t.gamma)) c !acc)
    t.counts;
  !acc

let merge_into dst src =
  if dst.a_alpha <> src.a_alpha then
    invalid_arg "Sketch.merge: accuracy targets differ";
  dst.n <- dst.n + src.n;
  dst.zeros <- dst.zeros + src.zeros;
  dst.range.(0) <- dst.range.(0) +. src.range.(0);
  if src.range.(1) < dst.range.(1) then dst.range.(1) <- src.range.(1);
  if src.range.(2) > dst.range.(2) then dst.range.(2) <- src.range.(2);
  let len = Array.length src.counts in
  if len > 0 then begin
    cover dst src.base;
    cover dst (src.base + len - 1);
    Array.iteri
      (fun k c ->
        let j = src.base + k - dst.base in
        dst.counts.(j) <- dst.counts.(j) + c)
      src.counts
  end

let merge a b =
  let t = create ~alpha:a.a_alpha () in
  merge_into t a;
  merge_into t b;
  t
