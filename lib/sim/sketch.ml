(* Integer log-linear histogram.  A value v < 128 is its own bucket
   index; a larger one with top set bit e and shift s = e - 6 is bucket
   (s lsl 6) + (v lsr s), whose 2^s values start at (v lsr s) lsl s >=
   64 * 2^s.  The indices are dense and ascend with the value, so counts
   live in one array over the occupied index range: memory tracks the
   data's dynamic range, not the sample count, a sample is an array
   increment, and merging is bucket-wise addition — exactly the
   stream-concatenation semantics the property tests pin. *)

let sub_bits = 6

type t = {
  mutable n : int;
  mutable lo : int; (* smallest sample; max_int when empty *)
  mutable hi : int; (* largest sample; 0 when empty *)
  mutable base : int; (* bucket index of counts.(0) *)
  mutable counts : int array; (* bucket index base + k -> samples *)
}

let create () = { n = 0; lo = max_int; hi = 0; base = 0; counts = [||] }

(* The position of the top set bit of [v > 0], by halving. *)
let top_bit v =
  let e = ref 0 and v = ref v in
  if !v lsr 32 <> 0 then begin e := 32; v := !v lsr 32 end;
  if !v lsr 16 <> 0 then begin e := !e + 16; v := !v lsr 16 end;
  if !v lsr 8 <> 0 then begin e := !e + 8; v := !v lsr 8 end;
  if !v lsr 4 <> 0 then begin e := !e + 4; v := !v lsr 4 end;
  if !v lsr 2 <> 0 then begin e := !e + 2; v := !v lsr 2 end;
  if !v lsr 1 <> 0 then !e + 1 else !e

let[@inline] index v =
  if v < 2 lsl sub_bits then v
  else
    let s = top_bit v - sub_bits in
    (s lsl sub_bits) + (v lsr s)

(* Bucket [i] holds [lower i .. lower i + (1 lsl shift i) - 1]. *)
let shift i = Stdlib.max 0 ((i lsr sub_bits) - 1)
let lower i = (i - (shift i lsl sub_bits)) lsl shift i
let upper i = lower i + (1 lsl shift i) - 1
let midpoint i = lower i + (((1 lsl shift i) - 1) / 2)

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

let add t v =
  let v = if v > 0 then v else 0 in
  t.n <- t.n + 1;
  if v < t.lo then t.lo <- v;
  if v > t.hi then t.hi <- v;
  let i = index v in
  if i < t.base || i >= t.base + Array.length t.counts then cover t i;
  let k = i - t.base in
  t.counts.(k) <- t.counts.(k) + 1

let count t = t.n
let min_value t = if t.n = 0 then 0 else t.lo
let max_value t = t.hi

let quantile t q =
  if t.n = 0 then 0
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    (* Lower nearest-rank: the exact answer is the rank-th smallest sample
       (0-based). *)
    let rank = int_of_float (Float.floor (q *. float_of_int (t.n - 1))) in
    let rec walk k seen =
      let seen = seen + t.counts.(k) in
      if seen > rank then midpoint (t.base + k) else walk (k + 1) seen
    in
    (* Clamping to the observed range only ever moves the estimate toward
       the exact sample, so the error bound survives. *)
    Stdlib.max t.lo (Stdlib.min t.hi (walk 0 0))
  end

let percentile t p = quantile t (p /. 100.)

let fold_buckets t f acc =
  let acc = ref acc in
  Array.iteri (fun k c -> if c > 0 then acc := f (upper (t.base + k)) c !acc) t.counts;
  !acc

let merge_into dst src =
  let len = Array.length src.counts in
  if src.n > 0 then begin
    dst.n <- dst.n + src.n;
    if src.lo < dst.lo then dst.lo <- src.lo;
    if src.hi > dst.hi then dst.hi <- src.hi;
    cover dst src.base;
    cover dst (src.base + len - 1);
    Array.iteri
      (fun k c ->
        let j = src.base + k - dst.base in
        dst.counts.(j) <- dst.counts.(j) + c)
      src.counts
  end
