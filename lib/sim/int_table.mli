(** A hash table keyed by ints that hashes with integer arithmetic.

    [Hashtbl.Make (Int)] is not this: [Int.hash] is the generic
    [caml_hash], the same C call as the polymorphic [Hashtbl].  The DSM's
    per-access tables (page table, frame store, fiber -> thread map) use
    this one, and [find] (raising [Not_found]) rather than [find_opt], so a
    lookup allocates nothing. *)

include Hashtbl.S with type key = int
