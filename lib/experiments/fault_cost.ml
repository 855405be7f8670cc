open Dsmpm2_sim
open Dsmpm2_net
open Dsmpm2_core
open Dsmpm2_protocols

type policy = Page_transfer | Thread_migration

type row = {
  operation : string;
  measured_us : float array;
  paper_us : float array;
}

type table = { policy : policy; drivers : string list; rows : row list }

(* One cold read fault: the page lives on node 1, a thread on node 0 reads
   it.  Returns each table operation's mean span (in us). *)
let one_fault ~driver ~policy =
  let dsm = Dsm.create ~nodes:2 ~driver () in
  let ids = Builtin.register_all dsm in
  let protocol =
    match policy with
    | Page_transfer -> ids.Builtin.li_hudak
    | Thread_migration -> ids.Builtin.migrate_thread
  in
  let x = Dsm.malloc dsm ~protocol ~home:(Dsm.On_node 1) 8 in
  ignore (Dsm.spawn dsm ~node:0 ~stack_bytes:1024 (fun () -> ignore (Dsm.read_int dsm x)));
  Dsm.run dsm;
  let stats = Dsm.stats dsm in
  let mean key = Time.to_us (Stats.span_mean stats key) in
  function
  | "Page fault" -> mean Instrument.stage_fault
  | "Request page" -> mean Instrument.stage_request
  | "Page transfer" -> mean Instrument.stage_transfer
  | "Thread migration" -> mean Instrument.stage_migration
  | "Protocol overhead" ->
      mean Instrument.stage_overhead_server +. mean Instrument.stage_overhead_client
  | "Total" -> mean Instrument.stage_total
  | op -> invalid_arg ("Fault_cost: no operation " ^ op)

(* The paper's Tables 3 and 4, in the same column order as Driver.all. *)
let paper_page_transfer =
  [
    ("Page fault", [| 11.; 11.; 11.; 11. |]);
    ("Request page", [| 23.; 220.; 220.; 38. |]);
    ("Page transfer", [| 138.; 343.; 736.; 119. |]);
    ("Protocol overhead", [| 26.; 26.; 26.; 26. |]);
    ("Total", [| 198.; 600.; 993.; 194. |]);
  ]

let paper_thread_migration =
  [
    ("Page fault", [| 11.; 11.; 11.; 11. |]);
    ("Thread migration", [| 75.; 280.; 373.; 62. |]);
    ("Protocol overhead", [| 1.; 1.; 1.; 1. |]);
    ("Total", [| 87.; 292.; 385.; 74. |]);
  ]

let run policy =
  let columns = List.map (fun driver -> one_fault ~driver ~policy) Driver.all in
  let paper =
    match policy with
    | Page_transfer -> paper_page_transfer
    | Thread_migration -> paper_thread_migration
  in
  let measured operation = Array.of_list (List.map (fun m -> m operation) columns) in
  {
    policy;
    drivers = List.map (fun d -> d.Driver.name) Driver.all;
    rows =
      List.map
        (fun (operation, paper_us) -> { operation; measured_us = measured operation; paper_us })
        paper;
  }

let print ppf t =
  let title =
    match t.policy with
    | Page_transfer ->
        "Table 3: read fault under page-migration policy (us, measured / paper)"
    | Thread_migration ->
        "Table 4: read fault under thread-migration policy (us, measured / paper)"
  in
  Format.fprintf ppf "%s@." title;
  Format.fprintf ppf "%-20s" "Operation";
  List.iter (fun d -> Format.fprintf ppf " %18s" d) t.drivers;
  Format.fprintf ppf "@.";
  List.iter
    (fun row ->
      Format.fprintf ppf "%-20s" row.operation;
      Array.iteri
        (fun i m -> Format.fprintf ppf " %9.1f /%7.1f" m row.paper_us.(i))
        row.measured_us;
      Format.fprintf ppf "@.")
    t.rows

let rows t =
  let table = match t.policy with Page_transfer -> "table3" | Thread_migration -> "table4" in
  let slug = String.map (function ' ' -> '_' | c -> Char.lowercase_ascii c) in
  List.concat_map
    (fun row ->
      List.mapi
        (fun i driver ->
          ( Printf.sprintf "%s/%s/%s" table (slug row.operation) (Driver.slug driver),
            [ ("ns", Time.of_us row.measured_us.(i)); ("paper_ns", Time.of_us row.paper_us.(i)) ]
          ))
        t.drivers)
    t.rows

let last_row t =
  match List.rev t.rows with
  | row :: _ -> row
  | [] -> invalid_arg "Fault_cost: empty table"

let total t ~driver = (last_row t).measured_us.(driver)
let paper_total t ~driver = (last_row t).paper_us.(driver)
