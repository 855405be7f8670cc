(* The paper's evaluation as one list of experiments and one snapshot.

   Each experiment keeps its typed result and its printer; what it
   measures leaves it as integer rows, so the committed BENCH_paper.json
   compares exactly under `dsm diff`.  The macro suite is one more
   experiment; BENCH_bechamel.json is rows of the same schema. *)

open Dsmpm2_sim

type row = string * (string * int) list
type body = Text of (Format.formatter -> unit) | Rows of (Format.formatter -> row list)
type experiment = { name : string; doc : string; body : body }

let numbered name doc run print rows =
  { name; doc; body = Rows (fun ppf -> let t = run () in print ppf t; rows t) }

let experiments =
  [
    numbered "micro" "PM2 micro-benchmarks (paper section 2.1)." Micro.run Micro.print Micro.rows;
    {
      name = "table2";
      doc = "Protocol inventory (paper Table 2).";
      body = Text (fun ppf -> Table2_inventory.(print ppf (run ())));
    };
    numbered "table3" "Read-fault breakdown, page transfer (paper Table 3)."
      (fun () -> Fault_cost.run Page_transfer)
      Fault_cost.print Fault_cost.rows;
    numbered "table4" "Read-fault breakdown, thread migration (paper Table 4)."
      (fun () -> Fault_cost.run Thread_migration)
      Fault_cost.print Fault_cost.rows;
    numbered "fig4" "TSP protocol comparison (paper Figure 4)." (fun () -> Fig4_tsp.run ())
      Fig4_tsp.print Fig4_tsp.rows;
    numbered "fig5" "Java consistency comparison (paper Figure 5)." (fun () -> Fig5_coloring.run ())
      Fig5_coloring.print Fig5_coloring.rows;
    numbered "splash" "SPLASH-style kernel study (paper section 5)." Splash.run Splash.print
      Splash.rows;
    numbered "ablation" "Stack-size and sync-frequency ablations." Ablation.run Ablation.print
      Ablation.rows;
    numbered "litmus" "Memory-model litmus tests across all protocols." Litmus.run Litmus.print
      Litmus.rows;
    numbered "patterns" "Sharing-pattern study across all protocols." Sharing_patterns.run
      Sharing_patterns.print Sharing_patterns.rows;
    numbered "bench" "Macro-benchmark suite: every app under a protocol/driver matrix."
      Bench_suite.run Bench_suite.print Bench_suite.rows;
  ]

let run ppf =
  List.concat_map
    (fun e ->
      Format.fprintf ppf "@.=== %s ===@." e.name;
      match e.body with Text print -> print ppf; [] | Rows run -> run ppf)
    experiments

(* --- snapshot I/O --- *)

let schema_version = "dsm-paper/1"

let to_json rows =
  let fields fs = Json.Obj (List.map (fun (f, v) -> (f, Json.Int v)) fs) in
  Json.Obj
    [
      ("schema", Json.String schema_version);
      ("rows", Json.Obj (List.map (fun (id, fs) -> (id, fields fs)) rows));
    ]

(* Exactly the shape {!to_json} writes: integer values only, and no id or
   field twice, so the comparator's lookups by name see every value. *)
let of_json j =
  let distinct kvs = List.length (List.sort_uniq compare (List.map fst kvs)) = List.length kvs in
  let fields = function
    | Json.Obj fs when distinct fs ->
        List.map (function f, Json.Int v -> (f, v) | _ -> raise_notrace Exit) fs
    | _ -> raise_notrace Exit
  in
  let malformed = "not a " ^ schema_version ^ " row snapshot" in
  match j with
  | Json.Obj [ ("schema", Json.String s); ("rows", Json.Obj rows) ]
    when s = schema_version && distinct rows -> (
      try Ok (List.map (fun (id, r) -> (id, fields r)) rows) with Exit -> Error malformed)
  | _ -> Error malformed
