type t = No_access | Read_only | Read_write
type mode = Read | Write

let[@inline] allows t mode =
  match (t, mode) with
  | No_access, (Read | Write) -> false
  | Read_only, Read -> true
  | Read_only, Write -> false
  | Read_write, (Read | Write) -> true

let rank = function No_access -> 0 | Read_only -> 1 | Read_write -> 2
let includes a b = rank a >= rank b
let merge a b = if rank a >= rank b then a else b

let to_string = function
  | No_access -> "none"
  | Read_only -> "read"
  | Read_write -> "read-write"

let mode_to_string = function Read -> "read" | Write -> "write"
let pp ppf t = Format.pp_print_string ppf (to_string t)
