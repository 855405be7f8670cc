(** Mergeable quantile sketch with a guaranteed relative-error bound.

    A DDSketch-style log-bucketed summary of a non-negative sample stream:
    each positive value lands in the bucket [i = ceil (log_gamma v)] with
    [gamma = (1 + alpha) / (1 - alpha)], so any quantile estimate is within
    relative error [alpha] of the exact sample at that rank.  The structure
    is fully deterministic — no randomness, and bucket counts are
    insertion-order independent — so {!merge} of two sketches is
    observationally identical to feeding the concatenated stream, and a
    sketch built across nodes equals the sketch of the cluster-wide stream.
    These are the two properties the QCheck suite pins.

    Memory is bounded by the dynamic range of the data: roughly
    [ln (max/min) / ln gamma] buckets (about 115 per decade at the default
    [alpha = 0.01]), independent of the number of samples.  Once the
    buckets a stream needs exist, inserting a sample allocates nothing.
    This is the only quantile type in the stack: every duration series of
    the {!Stats} registry is a sketch (so the fault percentiles of
    [dsm watch] and [dsm bench] are too), and so are the post-mortem
    analyzer's stage, lock and barrier distributions. *)

type t

val create : ?alpha:float -> unit -> t
(** A fresh sketch with relative-accuracy target [alpha] (default [0.01],
    i.e. 1%).  Raises [Invalid_argument] unless [0 < alpha < 1]. *)

val add : t -> float -> unit
(** Inserts one sample.  Negative values are clamped to zero; values below
    [1e-9] are counted exactly in a dedicated zero bucket. *)

val add_int : t -> int -> unit
(** [add_int t v] is [add t (float_of_int v)] without boxing the float:
    the allocation-free entry point for integer streams (nanosecond
    durations). *)

val count : t -> int
val sum : t -> float

val min_value : t -> float
val max_value : t -> float
(** 0 when empty. *)

val quantile : t -> float -> float
(** [quantile t q] with [q] in [[0, 1]] (clamped): an estimate [x] of the
    exact sample [v] at rank [floor (q * (count - 1))] with
    [|x - v| <= alpha * v] for positive [v].  Estimates are clamped to the
    observed [[min, max]].  0 when empty. *)

val percentile : t -> float -> float
(** [percentile t p] is [quantile t (p /. 100.)] — the convention used by
    the rest of the metrics stack ([p = 99.9] for p999). *)

val merge : t -> t -> t
(** A fresh sketch holding both inputs' samples; neither input is
    modified.  Observationally equivalent to feeding the concatenated
    streams into one sketch.  Raises [Invalid_argument] when the two
    accuracy targets differ. *)

val merge_into : t -> t -> unit
(** [merge_into dst src] folds [src]'s samples into [dst] in place. *)

val buckets : t -> int
(** Number of occupied log buckets — the memory bound, for tests and
    accounting. *)

val fold_buckets : t -> (float -> int -> 'a -> 'a) -> 'a -> 'a
(** [fold_buckets t f init] folds [f upper count] over the occupied
    buckets in ascending order: [upper] is the bucket's upper edge
    [gamma^i] (every sample in it is [<= upper]), and the zero bucket comes
    first with edge [0].  Cumulating [count] gives Prometheus [le]
    buckets. *)
