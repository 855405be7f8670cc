type t = {
  geo : Page.geometry;
  mutable frames : bytes array;
      (* page -> frame, [absent] where the node holds no frame: page numbers
         are dense, so the word-access fast path is one array read *)
  mutable count : int;
  (* Frames that left the store (dropped, or replaced by an install), kept
     to be overwritten by [copy_out].  A 4 KiB buffer is allocated straight
     on the major heap, so a page transfer that reuses one costs the GC
     nothing.  Bounded, so a node that only receives keeps at most
     [max_spares] dead frames alive. *)
  spares : bytes array;
  mutable nspares : int;
}

let max_spares = 2

(* No frame is empty: [install_owned] checks the page length. *)
let absent = Bytes.empty

let create ~geometry =
  {
    geo = geometry;
    frames = [||];
    count = 0;
    spares = Array.make max_spares Bytes.empty;
    nspares = 0;
  }

let retire t b =
  if t.nspares < max_spares then begin
    t.spares.(t.nspares) <- b;
    t.nspares <- t.nspares + 1
  end

let geometry t = t.geo

(* The frame of [page], or [absent]; a page outside the array is a miss and
   leaves the store as it is. *)
let[@inline] get t page =
  if page >= 0 && page < Array.length t.frames then Array.unsafe_get t.frames page
  else absent

let has_frame t page = get t page != absent

(* Stores [b] as [page]'s frame, growing the array to reach [page]. *)
let set t page b =
  t.frames <- Dsmpm2_sim.Dense.ensure t.frames page absent;
  let old = t.frames.(page) in
  if old == absent then t.count <- t.count + 1 else if old != b then retire t old;
  t.frames.(page) <- b

let materialise t page =
  let b = Bytes.make (Page.size t.geo) '\000' in
  set t page b;
  b

(* Inlined into the word accessors: a present frame costs them one array
   read and no call. *)
let[@inline] frame t page =
  let b = get t page in
  if b != absent then b else materialise t page

let peek t page =
  let b = get t page in
  if b == absent then None else Some b

let install_owned t page data =
  if Bytes.length data <> Page.size t.geo then
    invalid_arg "Frame_store.install_owned: wrong page length";
  set t page data

let install t page data =
  if Bytes.length data <> Page.size t.geo then
    invalid_arg "Frame_store.install: wrong page length";
  install_owned t page (Bytes.copy data)

let drop t page =
  let old = get t page in
  if old != absent then begin
    retire t old;
    t.frames.(page) <- absent;
    t.count <- t.count - 1
  end

let copy_out t page =
  let src = frame t page in
  if t.nspares = 0 then Bytes.copy src
  else begin
    t.nspares <- t.nspares - 1;
    let b = t.spares.(t.nspares) in
    t.spares.(t.nspares) <- Bytes.empty;
    Bytes.blit src 0 b 0 (Bytes.length src);
    b
  end

let frame_count t = t.count

let[@inline never] unaligned addr =
  invalid_arg (Printf.sprintf "Frame_store: unaligned word access at %#x" addr)

let[@inline] check_word_aligned addr = if addr land 7 <> 0 then unaligned addr

let[@inline] read_int t ~addr =
  check_word_aligned addr;
  let b = frame t (Page.page_of_addr t.geo addr) in
  Int64.to_int (Bytes.get_int64_le b (Page.offset_of_addr t.geo addr))

let[@inline] write_int t ~addr v =
  check_word_aligned addr;
  let b = frame t (Page.page_of_addr t.geo addr) in
  Bytes.set_int64_le b (Page.offset_of_addr t.geo addr) (Int64.of_int v)

let read_byte t ~addr =
  let b = frame t (Page.page_of_addr t.geo addr) in
  Char.code (Bytes.get b (Page.offset_of_addr t.geo addr))

let write_byte t ~addr v =
  if v < 0 || v > 255 then invalid_arg "Frame_store.write_byte: out of range";
  let b = frame t (Page.page_of_addr t.geo addr) in
  Bytes.set b (Page.offset_of_addr t.geo addr) (Char.chr v)
