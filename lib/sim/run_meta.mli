(** Self-describing run metadata for exported JSON artifacts.

    Every exporter ({!Dsmpm2_core.Monitor.to_json}, the telemetry
    snapshot, the watchdog health report, [dsm analyze --out]) embeds one
    of these under a ["meta"] key: the git revision the binary was built
    from (best effort), the engine tie seed, the network driver, the
    protocol, the cluster size and a free-form case identifier.  It is
    written for readers of those files; nothing reads it back, and the
    row snapshots [dsm diff] compares carry none. *)

type t = {
  rm_git_rev : string option;
  rm_tie_seed : int option;
  rm_driver : string option;
  rm_protocol : string option;
  rm_nodes : int option;
  rm_case : string option;
}

val empty : t

val v :
  ?git_rev:string ->
  ?tie_seed:int ->
  ?driver:string ->
  ?protocol:string ->
  ?nodes:int ->
  ?case:string ->
  unit ->
  t

val current_git_rev : unit -> string option
(** The commit the working tree points at, found by walking up from the
    current directory to [.git/HEAD] (one level of [ref:] indirection
    resolved); the [DSM_GIT_REV] environment variable overrides.  Cached
    after the first call. *)

val with_git : t -> t
(** Fills [rm_git_rev] from {!current_git_rev} when unset. *)

val to_json : t -> Json.t
(** An object holding only the fields that are set. *)
