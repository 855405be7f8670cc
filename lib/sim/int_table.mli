(** A hash table keyed by ints that hashes with integer arithmetic.

    [Hashtbl.Make (Int)] is not this: [Int.hash] is the generic
    [caml_hash], the same C call as the polymorphic [Hashtbl].  Its only
    user is [Telemetry], whose per-page and per-node sets are sparse.  The
    per-access tables (page table, frame store, fiber -> thread map) are
    arrays indexed by their dense ids instead: a probe here is still a
    closure call for [hash] and one for [equal]. *)

include Hashtbl.S with type key = int
