(** Iso-address allocation (PM2's [isomalloc]).

    The allocator hands out ranges of a single global virtual address space;
    because every node draws from the same allocator state, an address range
    allocated anywhere is by construction free — and means the same thing —
    on every other node.  This is the property that makes thread migration
    transparent in the paper (Section 2.1): a migrated thread retries its
    access at the same address and finds the same datum.

    Addresses are plain integers (byte addresses); there is no real memory
    behind them — the frame stores of [Dsmpm2_mem] provide backing on demand. *)

type t

val create : ?base:int -> page_size:int -> unit -> t
(** [base] defaults to one page (so that address 0 is never valid and can
    serve as a null pointer). [page_size] must be a power of two. *)

val page_size : t -> int

val alloc : t -> int -> int
(** [alloc t n] reserves [n] bytes ([n > 0]) and returns the start address.
    Allocations never overlap and are aligned to 8 bytes. *)

val alloc_pages : t -> int -> int
(** [alloc_pages t n] reserves [n] whole pages, page-aligned; returns the
    start address.  Used by [dsm_malloc] so that distinct shared regions
    never share a page (and hence can carry distinct protocols). *)

val allocated_bytes : t -> int
