(** Mergeable integer latency histogram with a guaranteed relative-error
    bound.

    A log-linear histogram in the style of HdrHistogram over non-negative
    integer samples (nanosecond durations): a value below 128 has a
    bucket of its own, and a larger value shares its bucket with the
    values that agree with it on its top set bit and the 6 bits below it.
    Every bucket is at most 1/64 of its lower edge wide, so the bucket's
    midpoint is within [1/128] (about 0.78%) of every sample in it.  The
    bucket of a value is found with integer shifts alone.  The structure
    is fully deterministic and bucket counts are insertion-order
    independent, so {!merge_into} is observationally identical to feeding
    the concatenated stream, and a histogram built across nodes equals the
    histogram of the cluster-wide stream.

    Memory is bounded by the data's dynamic range: 64 buckets per
    power of two, independent of the number of samples.  Once the buckets
    a stream needs exist, adding a sample allocates nothing.  This is the
    only quantile type in the stack: every duration series of the
    {!Stats} registry is one (so the fault percentiles of [dsm watch] and
    [dsm bench] are too), and so are the post-mortem analyzer's stage,
    lock and barrier distributions. *)

type t

val create : unit -> t
(** An empty histogram; it allocates no bucket array until a sample
    arrives. *)

val add : t -> int -> unit
(** Adds one sample.  Negative values count as 0. *)

val count : t -> int

val min_value : t -> int
val max_value : t -> int
(** The exact extremes; 0 when empty. *)

val quantile : t -> float -> int
(** [quantile t q] with [q] in [[0, 1]] (clamped): the midpoint [x] of the
    bucket holding the sample [v] at rank [floor (q * (count - 1))],
    clamped to the observed [[min, max]], so [|x - v| * 128 <= v].  0 when
    empty. *)

val percentile : t -> float -> int
(** [percentile t p] is [quantile t (p /. 100.)] — the convention used by
    the rest of the metrics stack ([p = 99.9] for p999). *)

val merge_into : t -> t -> unit
(** [merge_into dst src] folds [src]'s samples into [dst] in place. *)

val fold_buckets : t -> (int -> int -> 'a -> 'a) -> 'a -> 'a
(** [fold_buckets t f init] folds [f upper count] over the occupied
    buckets in ascending order: [upper] is the bucket's largest value, so
    every sample in it is [<= upper].  Cumulating [count] gives Prometheus
    [le] buckets. *)
