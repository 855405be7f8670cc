open Dsmpm2_sim

type t = {
  geo : Page.geometry;
  frames : bytes Int_table.t;
  (* One-entry cache over [frames]: the word-access fast path hits the same
     page repeatedly (array sweeps, spin loops), so the common case skips
     the table probe entirely.  [last_page = -1] means empty. *)
  mutable last_page : int;
  mutable last_frame : bytes;
  (* Frames that left the store (dropped, or replaced by an install), kept
     to be overwritten by [copy_out].  A 4 KiB buffer is allocated straight
     on the major heap, so a page transfer that reuses one costs the GC
     nothing.  Bounded, so a node that only receives keeps at most
     [max_spares] dead frames alive. *)
  spares : bytes array;
  mutable nspares : int;
}

let max_spares = 2

let create ~geometry =
  {
    geo = geometry;
    frames = Int_table.create 64;
    last_page = -1;
    last_frame = Bytes.empty;
    spares = Array.make max_spares Bytes.empty;
    nspares = 0;
  }

let retire t b =
  if t.nspares < max_spares then begin
    t.spares.(t.nspares) <- b;
    t.nspares <- t.nspares + 1
  end

let geometry t = t.geo
let has_frame t page = Int_table.mem t.frames page

let frame t page =
  if t.last_page = page then t.last_frame
  else begin
    let b =
      match Int_table.find t.frames page with
      | b -> b
      | exception Not_found ->
          let b = Bytes.make (Page.size t.geo) '\000' in
          Int_table.add t.frames page b;
          b
    in
    t.last_page <- page;
    t.last_frame <- b;
    b
  end

let peek t page =
  if t.last_page = page then Some t.last_frame else Int_table.find_opt t.frames page

(* Installing takes over as the cached entry: the next access is almost
   always to the page that just arrived. *)
let install_owned t page data =
  if Bytes.length data <> Page.size t.geo then
    invalid_arg "Frame_store.install_owned: wrong page length";
  (match Int_table.find t.frames page with
  | old -> if old != data then retire t old
  | exception Not_found -> ());
  Int_table.replace t.frames page data;
  t.last_page <- page;
  t.last_frame <- data

let install t page data =
  if Bytes.length data <> Page.size t.geo then
    invalid_arg "Frame_store.install: wrong page length";
  install_owned t page (Bytes.copy data)

let drop t page =
  (match Int_table.find t.frames page with
  | old -> retire t old
  | exception Not_found -> ());
  Int_table.remove t.frames page;
  if t.last_page = page then begin
    t.last_page <- -1;
    t.last_frame <- Bytes.empty
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

let frame_count t = Int_table.length t.frames

let check_word_aligned addr =
  if addr land 7 <> 0 then
    invalid_arg (Printf.sprintf "Frame_store: unaligned word access at %#x" addr)

let read_int t ~addr =
  check_word_aligned addr;
  let b = frame t (Page.page_of_addr t.geo addr) in
  Int64.to_int (Bytes.get_int64_le b (Page.offset_of_addr t.geo addr))

let write_int t ~addr v =
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
