type t = int

let zero = 0
let ( + ) = Stdlib.( + )
let ( - ) = Stdlib.( - )
(* Int comparisons: the polymorphic [Stdlib.max]/[min] would call
   [compare_val] on every send and CPU slice. *)
let[@inline] max (a : t) b = if a >= b then a else b
let[@inline] min (a : t) b = if a <= b then a else b
let of_us x = int_of_float (Float.round (x *. 1_000.))
let of_ns n = n
let to_us t = float_of_int t /. 1_000.
let to_ms t = float_of_int t /. 1_000_000.

let pp ppf t =
  if t >= 1_000_000_000 then Format.fprintf ppf "%.3fs" (float_of_int t /. 1e9)
  else if t >= 1_000_000 then Format.fprintf ppf "%.3fms" (to_ms t)
  else Format.fprintf ppf "%.1fus" (to_us t)
