open Dsmpm2_apps

type cell = {
  protocol : string;
  nodes : int;
  time_ms : float;
  best : int;
  migrations : int;
  workers_on_node0 : int;
}

type data = { cities : int; seed : int; sequential_best : int; cells : cell list }

let protocols = [ "li_hudak"; "migrate_thread"; "erc_sw"; "hbrc_mw" ]

let run ?(cities = 14) ?(seed = 42) ?(node_counts = [ 1; 2; 4; 8 ]) () =
  let sequential_best = Tsp.solve_sequential (Tsp.distances ~cities ~seed) in
  let cells =
    List.concat_map
      (fun protocol ->
        List.map
          (fun nodes ->
            let r = Tsp.run { Tsp.default with Tsp.cities; seed; nodes; protocol } in
            {
              protocol;
              nodes;
              time_ms = r.Tsp.time_ms;
              best = r.Tsp.best;
              migrations = r.Tsp.migrations;
              workers_on_node0 =
                List.length (List.filter (fun n -> n = 0) r.Tsp.final_node_of_thread);
            })
          node_counts)
      protocols
  in
  { cities; seed; sequential_best; cells }

let print ppf data =
  Format.fprintf ppf
    "Figure 4: TSP, %d cities (seed %d), BIP/Myrinet, 1 thread/node; run time (ms)@."
    data.cities data.seed;
  let node_counts =
    List.sort_uniq compare (List.map (fun c -> c.nodes) data.cells)
  in
  Format.fprintf ppf "%-16s" "Protocol";
  List.iter (fun n -> Format.fprintf ppf " %7d-node" n) node_counts;
  Format.fprintf ppf "@.";
  List.iter
    (fun proto ->
      Format.fprintf ppf "%-16s" proto;
      List.iter
        (fun n ->
          let c = List.find (fun c -> c.protocol = proto && c.nodes = n) data.cells in
          Format.fprintf ppf " %12.1f" c.time_ms)
        node_counts;
      Format.fprintf ppf "@.")
    protocols;
  let check =
    List.for_all (fun c -> c.best = data.sequential_best) data.cells
  in
  Format.fprintf ppf "All runs found the optimal tour (%d): %b@." data.sequential_best
    check;
  let mt =
    List.filter (fun c -> c.protocol = "migrate_thread" && c.nodes > 1) data.cells
  in
  List.iter
    (fun c ->
      Format.fprintf ppf
        "migrate_thread, %d nodes: %d migrations, %d/%d workers ended on node 0@."
        c.nodes c.migrations c.workers_on_node0 c.nodes)
    mt

let rows d =
  ("fig4/sequential", [ ("best", d.sequential_best) ])
  :: List.map
       (fun c ->
         ( Printf.sprintf "fig4/%s/%d" c.protocol c.nodes,
           [
             ("time_ns", Dsmpm2_sim.Time.of_us (c.time_ms *. 1000.));
             ("best", c.best);
             ("migrations", c.migrations);
             ("workers_on_node0", c.workers_on_node0);
           ] ))
       d.cells
