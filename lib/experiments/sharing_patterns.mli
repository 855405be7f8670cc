(** Canonical sharing-pattern micro-applications across all protocols.

    The paper's evaluation ends: "a more complete analysis is necessary to
    study the behavior of the DSM-PM2 protocols with respect to different
    classes of applications illustrating various sharing patterns, access
    patterns, synchronization methods, etc.  This is part of our current
    work."  This experiment is that analysis, on four canonical patterns
    from the DSM literature:

    - {b migratory}: one datum read-modify-written by each node in turn
      under a lock (the classic ownership-chasing pattern);
    - {b producer/consumer}: one node writes a block each phase, every
      other node reads it after a barrier;
    - {b read-mostly}: everybody reads hot data continuously; a rare writer
      updates it;
    - {b false-sharing}: nodes concurrently write disjoint words of the
      same page (the multiple-writer protocols' home turf).

    For each (pattern, protocol) the harness reports simulated time,
    faults, page traffic and diff bytes — and checks the final memory
    against the pattern's oracle, so the matrix doubles as a correctness
    sweep. *)

type cell = {
  pattern : string;
  protocol : string;
  time_ms : float;
  correct : bool;
  read_faults : int;
  write_faults : int;
  pages_sent : int;
  diff_bytes : int;
  messages : int;
}

val scenarios : Conformance.scenario list
(** The four patterns on 4 nodes, expecting correct final memory. *)

val run : unit -> cell list
(** Every pattern under every builtin protocol, in registry id order, run
    unperturbed through {!Conformance.run}; [time_ms] is its [o_end_us]. *)

val print : Format.formatter -> cell list -> unit

val rows : cell list -> (string * (string * int) list) list
(** [patterns/<pattern>/<protocol>]: the cell's fields, [time_ns], [correct] 0/1. *)
