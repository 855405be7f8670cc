(** Memory-model litmus tests, run against every protocol.

    The platform's purpose is to let protocol designers "compare their
    protocols within a common environment"; litmus tests are the sharpest
    such comparison.  Three classics, each swept over thread start offsets
    and initial cache states (a deterministic simulator explores one
    interleaving per configuration, so the sweep is what surfaces
    relaxations):

    - {b MP} (message passing): T0 writes [x:=1] then [flag:=1]; T1 reads
      [flag] then [x].  Sequential consistency forbids seeing [flag = 1]
      with [x = 0]; protocols that defer invalidation (eager/lazy release
      consistency, Java consistency) exhibit it when T1 holds a stale cached
      copy of [x].
    - {b SB} (store buffering): T0 does [x:=1; r1:=y], T1 does [y:=1;
      r2:=x].  SC forbids [r1 = r2 = 0]; stale caches allow it.
    - {b CoRR} (coherence of read-read): T1 reads [x] twice while T0 writes
      it; no protocol may let the two reads go backwards ([r1 = 1] then
      [r2 = 0]) — per-location coherence holds even for the weak models.

    [x] and [flag]/[y] live on different pages so the per-page protocols
    treat them independently. *)

type kind = Mp | Sb | Corr

val kind_name : kind -> string
(** ["MP"], ["SB"] or ["CoRR"]. *)

type observation = { r1 : int; r2 : int }

val violates : kind -> observation -> bool
(** Whether the observation is forbidden under sequential consistency (MP,
    SB) or under cache coherence (CoRR). *)

val forbidden : Dsmpm2_core.Protocol.model -> kind list
(** The kinds a protocol declaring this model must never violate: all
    three under [Sequential], only CoRR under [Release] and [Java]. *)

type cell = {
  protocol : string;
  kind : kind;
  configurations : int;  (** sweep size *)
  violations : int;  (** configurations whose observation was forbidden *)
}

val sweep : protocol:string -> kind:kind -> cell
(** Runs the 18 configurations (3 choices of what the observer caches
    before the writer starts x observer delays of 0..1000 us) as
    {!Conformance} scenarios, unperturbed.  Each result check names a
    {!violates} observation, which fails the run where {!forbidden} has
    the kind. *)

val run : unit -> cell list
(** Every kind under every builtin protocol, in registry id order. *)

val print : Format.formatter -> cell list -> unit
(** One row per builtin protocol, noted with what its model {!forbidden}. *)

val rows : cell list -> (string * (string * int) list) list
(** [litmus/<protocol>/<kind name>]: [configurations], [violations]. *)
