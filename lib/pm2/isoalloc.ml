type t = { page : int; mutable next : int; mutable total : int }

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let create ?base ~page_size () =
  if not (is_power_of_two page_size) then
    invalid_arg "Isoalloc.create: page_size must be a power of two";
  let base = match base with Some b -> b | None -> page_size in
  if base <= 0 then invalid_arg "Isoalloc.create: base must be positive";
  { page = page_size; next = base; total = 0 }

let page_size t = t.page

let align_up addr a = (addr + a - 1) land lnot (a - 1)

let alloc t n =
  if n <= 0 then invalid_arg "Isoalloc.alloc: size must be positive";
  let addr = align_up t.next 8 in
  t.next <- addr + n;
  t.total <- t.total + n;
  addr

let alloc_pages t n =
  if n <= 0 then invalid_arg "Isoalloc.alloc_pages: count must be positive";
  let addr = align_up t.next t.page in
  t.next <- addr + (n * t.page);
  t.total <- t.total + (n * t.page);
  addr

let allocated_bytes t = t.total
