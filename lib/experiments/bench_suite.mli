(** The macro-benchmark observatory ([dsm bench]).

    Runs every application kernel under a fixed matrix of consistency
    protocols and network drivers, once per engine tie seed, and records
    what the {e simulated} system did: virtual-time wall clock, message and
    byte counts, fault counts, and the fault-latency tail (p50/p90/p99/p999
    from the runtime's {!Dsmpm2_sim.Stats} histograms).  Because the
    simulation is deterministic given a tie seed, every number is
    bit-reproducible on any host — the committed [BENCH_macro.json]
    baseline is a statement about the system, not about CI hardware.

    Every sample field is an integer (times in ns).  [dsm bench --out]
    writes the results as {!Paper} rows ({!rows}), so {!Rundiff} compares
    two snapshots exactly, row by row and field by field.  A row carries
    its case's node count and parameters: a case id should mean the same
    workload forever, so grow the matrix by adding cases rather than
    editing existing ones, and an edit shows as a field difference. *)

val default_seeds : int list
(** The tie seeds each case runs under ([[0; 1; 2]]). *)

(** {2 Cases} *)

type case = {
  c_id : string;  (** ["app:protocol:driver-slug"], stable forever *)
  c_app : string;  (** a {!Dsmpm2_apps.Catalog} application name *)
  c_protocol : string;
  c_driver : string;  (** the driver's full name, e.g. ["BIP/Myrinet"] *)
  c_nodes : int;
  c_params : (string * int) list;
      (** parameters the catalog entry declares; part of the schema *)
  c_quick : bool;
      (** member of the quick subset [dsm bench --quick] runs, for fast
          local runs *)
}

val cases : unit -> case list
(** The committed matrix, in stable order. *)

val filter_cases : ?filter:string -> ?quick:bool -> case list -> case list
(** [filter] keeps cases whose id contains the substring; [quick] keeps
    only the quick-marked cases.  Both compose. *)

(** {2 Measurements} *)

type sample = {
  s_seed : int;
  s_values : int array;
      (** one value per {!metric_names} member, in that order *)
}

type case_result = {
  cr_case : case;
  cr_samples : sample list;  (** one per seed, in seed order *)
}

type t = case_result list

val run_case : ?seeds:int list -> case -> case_result
(** Runs one case under each seed.  Deterministic: the same case and seeds
    reproduce the same samples exactly. *)

val run :
  ?seeds:int list ->
  ?filter:string ->
  ?quick:bool ->
  ?progress:(case_result -> unit) ->
  unit ->
  t
(** The sweep over {!cases} (after {!filter_cases}); [progress] fires after
    each case completes. *)

(** {2 Aggregates} *)

val metric_names : string list
(** Every per-sample metric, in row order: [time_ns] (simulated wall
    clock of the whole run), [messages], [bytes], [read_faults],
    [write_faults], [dropped] (messages lost to fault injection),
    [rpc_retries] (RPC retransmissions after deadline expiry),
    [fault_p50_ns], [fault_p90_ns], [fault_p99_ns], [fault_p999_ns] and
    [events] (engine events executed: a deterministic count of the host
    work, identical on every OCaml version, unlike GC words).  The four
    fault percentiles all read one series, the registry's whole-fault
    latency ({!Dsmpm2_core.Instrument.stage_total}), so p50 <= p90 <= p99
    <= p999. *)

val metric : string -> sample -> int
(** A sample's value for a {!metric_names} member. *)

(** {2 Output} *)

val rows : t -> Paper.row list
(** The [BENCH_macro.json] rows: one per case and tie seed, in run order,
    with id [macro/<case id>/seed<N>] (e.g.
    [macro/jacobi:hbrc_mw:bip-myrinet/seed0]) and fields [nodes], each
    case parameter, then every {!metric_names} value.  Repeated seeds
    would repeat a row id, which {!Paper.of_json} refuses. *)

val print : Format.formatter -> t -> unit
(** A per-case summary table: means over seeds in µs, and the spread of
    the simulated time across seeds. *)
