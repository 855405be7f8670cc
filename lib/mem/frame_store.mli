(** Per-node physical page frames.

    Each node materialises frames lazily (a frame appears the first time the
    node touches or receives the page) and reads/writes DSM words — 8-byte
    little-endian integers — at byte offsets inside them.  Dropping a frame
    models an invalidation that discards the local copy. *)

type t

val create : geometry:Page.geometry -> t
(** Raises [Invalid_argument] if a page is shorter than a word. *)

val geometry : t -> Page.geometry

val has_frame : t -> int -> bool
val frame : t -> int -> bytes
(** Returns the frame for the page, creating a zeroed one if absent.  The
    store is an array indexed by page number, so a present frame costs one
    array read.  Raises [Invalid_argument] on a negative page. *)

val peek : t -> int -> bytes option
(** The frame if present, without creating it.  {!has_frame} and [peek]
    miss cleanly on any page, negative or beyond every frame, and never
    grow the store: only {!frame}, {!install}, {!install_owned} and
    {!copy_out} do. *)

val install : t -> int -> bytes -> unit
(** Replaces (or creates) the frame with a copy of [bytes] (which must have
    page length: otherwise it raises [Invalid_argument] and leaves the
    store as it was).  Use when the caller keeps or may mutate [bytes]. *)

val install_owned : t -> int -> bytes -> unit
(** Ownership-transferring install: the store adopts [bytes] as the frame
    without copying, after the same length check as {!install}.  The
    caller must not retain or mutate [bytes] afterwards.  This is the
    simulated-wire fast path — a page message's payload is exclusively
    owned by the receiver on delivery, so a transfer costs one copy (at
    send) instead of two. *)

val copy_out : t -> int -> bytes
(** A copy of the page's frame (created if absent) for a page transfer.
    The copy is written into a frame the store dropped or replaced earlier
    when one is kept, so steady page traffic does not allocate; the store
    never touches the returned buffer again.  A frame returned by {!frame}
    or {!peek} must therefore not be used after its page is dropped or
    re-installed. *)

val drop : t -> int -> unit
val frame_count : t -> int

val unsafe_get_word : bytes -> addr:int -> off:int -> int
(** [unsafe_get_word frame ~addr ~off] decodes the 8-byte little-endian
    word at byte [off] of [frame], which holds [addr] at that offset.  The
    one decoder of page words: {!read_int} and [Dsm]'s access hit both call
    it.  Raises [Invalid_argument "Frame_store: unaligned word access at
    0x..."] unless [addr] is 8-aligned.

    It reads without a bounds check, so [frame] must be a frame of a store
    (from {!frame}) and [off] [addr]'s offset in that store's pages.  Then
    the word lies inside the frame: every frame in a store is exactly one
    page long, since each way in ({!frame}, {!install}, {!install_owned})
    checks the length, and a page is a power of two of at least one word
    ({!create}). *)

val unsafe_set_word : bytes -> addr:int -> off:int -> int -> unit
(** Encodes a word as {!unsafe_get_word} decodes it, with the same check
    and under the same conditions. *)

val get_byte : bytes -> off:int -> int

val set_byte : bytes -> off:int -> int -> unit
(** Raises [Invalid_argument "Frame_store.write_byte: out of range"]
    unless the value is in 0..255. *)

val read_int : t -> addr:int -> int
(** Reads the 8-byte word at [addr] ([addr] must be 8-aligned) from the
    page's frame, creating it if absent. *)

val write_int : t -> addr:int -> int -> unit

val read_byte : t -> addr:int -> int
val write_byte : t -> addr:int -> int -> unit
