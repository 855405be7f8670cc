(** Growing arrays indexed by dense ids.

    Pages, fiber ids, lock and barrier ids and protocol ids are all small
    counters, so the tables keyed by them are plain arrays: a lookup is one
    bounds check and one read.  This is the one place such an array grows. *)

val ensure : 'a array -> int -> 'a -> 'a array
(** [ensure a i fill] is [a] when [i] is an index of [a]; otherwise a copy
    of [a] long enough to hold [i] (at least twice as long), its new slots
    set to [fill].  Raises [Invalid_argument] on a negative [i].  A caller
    that keeps the array in a mutable field reassigns that field only when
    [i] is past the end, so a hit writes no heap field. *)
