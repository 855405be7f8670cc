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

(* No frame is empty: [set] checks the page length. *)
let absent = Bytes.empty

let create ~geometry =
  if Page.size geometry < Page.word_bytes then
    invalid_arg "Frame_store.create: a page must hold a word";
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

(* Stores [b] as [page]'s frame, growing the array to reach [page].  The
   only way into [frames], so every frame there is exactly one page long:
   the word accessors rely on it to skip [Bytes]' bounds check.  [what]
   names the caller in the error. *)
let set ~what t page b =
  if Bytes.length b <> Page.size t.geo then invalid_arg (what ^ ": wrong page length");
  if page >= Array.length t.frames then t.frames <- Dsmpm2_sim.Dense.ensure t.frames page absent;
  let old = t.frames.(page) in
  if old == absent then t.count <- t.count + 1 else if old != b then retire t old;
  t.frames.(page) <- b

let[@inline never] materialise t page =
  let b = Bytes.make (Page.size t.geo) '\000' in
  set ~what:"Frame_store.frame" t page b;
  b

(* Inlined into the word accessors: a present frame costs them one array
   read and no call. *)
let[@inline] frame t page =
  let b = get t page in
  if b != absent then b else materialise t page

let peek t page =
  let b = get t page in
  if b == absent then None else Some b

let install_owned t page data = set ~what:"Frame_store.install_owned" t page data

let install t page data = set ~what:"Frame_store.install" t page (Bytes.copy data)

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

external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap64 : int64 -> int64 = "%bswap_int64"

(* The one word decoder, which every word access ends in.  An 8-aligned
   word lies inside its page (a page is a power of two of at least a word,
   [create]), and a frame is exactly one page ([set]), so the word is read
   and written without [Bytes]' bounds check. *)
let[@inline] unsafe_get_word frame ~addr ~off =
  check_word_aligned addr;
  let w = get64u frame off in
  Int64.to_int (if Sys.big_endian then swap64 w else w)

let[@inline] unsafe_set_word frame ~addr ~off v =
  check_word_aligned addr;
  let w = Int64.of_int v in
  set64u frame off (if Sys.big_endian then swap64 w else w)

let[@inline] get_byte frame ~off = Char.code (Bytes.get frame off)

let[@inline] set_byte frame ~off v =
  if v < 0 || v > 255 then invalid_arg "Frame_store.write_byte: out of range";
  Bytes.set frame off (Char.chr v)

let[@inline] read_int t ~addr =
  let b = frame t (Page.page_of_addr t.geo addr) in
  unsafe_get_word b ~addr ~off:(Page.offset_of_addr t.geo addr)

let[@inline] write_int t ~addr v =
  let b = frame t (Page.page_of_addr t.geo addr) in
  unsafe_set_word b ~addr ~off:(Page.offset_of_addr t.geo addr) v

let read_byte t ~addr =
  let b = frame t (Page.page_of_addr t.geo addr) in
  get_byte b ~off:(Page.offset_of_addr t.geo addr)

let write_byte t ~addr v =
  let b = frame t (Page.page_of_addr t.geo addr) in
  set_byte b ~off:(Page.offset_of_addr t.geo addr) v
