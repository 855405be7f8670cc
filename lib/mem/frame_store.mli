(** Per-node physical page frames.

    Each node materialises frames lazily (a frame appears the first time the
    node touches or receives the page) and reads/writes DSM words — 8-byte
    little-endian integers — at byte offsets inside them.  Dropping a frame
    models an invalidation that discards the local copy. *)

type t

val create : geometry:Page.geometry -> t
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
    page length).  Use when the caller keeps or may mutate [bytes]. *)

val install_owned : t -> int -> bytes -> unit
(** Ownership-transferring install: the store adopts [bytes] as the frame
    without copying.  The caller must not retain or mutate [bytes]
    afterwards.  This is the simulated-wire fast path — a page message's
    payload is exclusively owned by the receiver on delivery, so a transfer
    costs one copy (at send) instead of two. *)

val copy_out : t -> int -> bytes
(** A copy of the page's frame (created if absent) for a page transfer.
    The copy is written into a frame the store dropped or replaced earlier
    when one is kept, so steady page traffic does not allocate; the store
    never touches the returned buffer again.  A frame returned by {!frame}
    or {!peek} must therefore not be used after its page is dropped or
    re-installed. *)

val drop : t -> int -> unit
val frame_count : t -> int

val read_int : t -> addr:int -> int
(** Reads the 8-byte word at [addr] ([addr] must be 8-aligned). *)

val write_int : t -> addr:int -> int -> unit

val read_byte : t -> addr:int -> int
val write_byte : t -> addr:int -> int -> unit
