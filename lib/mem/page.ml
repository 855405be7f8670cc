let default_size = 4096
let word_bytes = 8

type geometry = { size : int; shift : int; mask : int }

let geometry ~size =
  if size <= 0 || size land (size - 1) <> 0 then
    invalid_arg "Page.geometry: size must be a power of two";
  let rec log2 n acc = if n = 1 then acc else log2 (n lsr 1) (acc + 1) in
  { size; shift = log2 size 0; mask = size - 1 }

let size g = g.size
let[@inline] page_of_addr g addr = addr asr g.shift
let[@inline] offset_of_addr g addr = addr land g.mask
let base_of_page g page = page lsl g.shift

let pages_of_range g ~addr ~len =
  if len <= 0 then invalid_arg "Page.pages_of_range: len must be positive";
  let first = page_of_addr g addr and last = page_of_addr g (addr + len - 1) in
  List.init (last - first + 1) (fun i -> first + i)
