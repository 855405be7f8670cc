type t = int

let zero = 0
let ( + ) = Stdlib.( + )
let ( - ) = Stdlib.( - )
(* Int comparisons: the polymorphic [Stdlib.max]/[min] would call
   [compare_val] on every send and CPU slice. *)
let[@inline] max (a : t) b = if a >= b then a else b
let[@inline] min (a : t) b = if a <= b then a else b
(* [Float.round] is a C call, and every CPU charge converts its price.
   Truncating and testing the exact remainder rounds half away from zero
   as it does, for every [x] whose nanoseconds fit an int. *)
let[@inline] of_us x =
  let ns = x *. 1_000. in
  let t = int_of_float ns in
  let rest = ns -. float_of_int t in
  if rest >= 0.5 then t + 1 else if rest <= -0.5 then t - 1 else t
let of_ns n = n
let to_us t = float_of_int t /. 1_000.
let to_ms t = float_of_int t /. 1_000_000.

let pp ppf t =
  if t >= 1_000_000_000 then Format.fprintf ppf "%.3fs" (float_of_int t /. 1e9)
  else if t >= 1_000_000 then Format.fprintf ppf "%.3fms" (to_ms t)
  else Format.fprintf ppf "%.1fus" (to_us t)
