(** The paper's evaluation: one list of experiments, one snapshot.

    Every experiment runs, prints its table and returns its results as
    rows [(id, fields)]: a stable id, e.g. [fig4/li_hudak/8], and integer
    fields (ns, counts, [correct] as 0 or 1, and [paper_ns] where the paper
    gives a number), so two runs compare exactly.  [dsm paper --out]
    writes every row to [BENCH_paper.json]; [dsm diff] compares two such
    snapshots ({!Rundiff}).  Two other snapshots share the schema:
    [dsm bench --out] writes the macro suite's samples, rows
    [macro/<case>/seed<N>] ({!Bench_suite.rows}), and [bench/main.exe] its
    kernels' words per run, rows [bechamel/<kernel>]. *)

type row = string * (string * int) list

type body =
  | Text of (Format.formatter -> unit)  (** Table 2, which has no number *)
  | Rows of (Format.formatter -> row list)

type experiment = {
  name : string;  (** the [dsm] subcommand *)
  doc : string;
  body : body;
}

val experiments : experiment list
(** In paper order. *)

val run : Format.formatter -> row list
(** Every experiment in order, each table under a [=== name ===] header. *)

val schema_version : string

val to_json : row list -> Dsmpm2_sim.Json.t
(** The schema and the rows, nothing else (no host or revision field). *)

val of_json : Dsmpm2_sim.Json.t -> (row list, string) result
(** Accepts exactly what {!to_json} writes, with no id or field twice. *)
