open Dsmpm2_apps

type cell = {
  protocol : string;
  nodes : int;
  time_ms : float;
  best_cost : int;
  gets : int;
  inline_checks : int;
  read_faults : int;
}

type data = { sequential_best : int; cells : cell list }

let run ?(node_counts = [ 1; 2; 4 ]) () =
  let sequential_best = Map_coloring.solve_sequential () in
  let cells =
    List.concat_map
      (fun protocol ->
        List.map
          (fun nodes ->
            let r = Map_coloring.run { Map_coloring.default with protocol; nodes } in
            {
              protocol;
              nodes;
              time_ms = r.Map_coloring.time_ms;
              best_cost = r.Map_coloring.best_cost;
              gets = r.Map_coloring.gets;
              inline_checks = r.Map_coloring.inline_checks;
              read_faults = r.Map_coloring.read_faults;
            })
          node_counts)
      [ "java_ic"; "java_pf" ]
  in
  { sequential_best; cells }

let print ppf data =
  Format.fprintf ppf
    "Figure 5: minimal-cost map colouring (29 eastern US states, 4 colours), \
     SISCI/SCI; run time (ms)@.";
  let node_counts = List.sort_uniq compare (List.map (fun c -> c.nodes) data.cells) in
  Format.fprintf ppf "%-10s" "Protocol";
  List.iter (fun n -> Format.fprintf ppf " %7d-node" n) node_counts;
  Format.fprintf ppf "  %12s %12s@." "checks" "faults";
  List.iter
    (fun proto ->
      Format.fprintf ppf "%-10s" proto;
      List.iter
        (fun n ->
          let c = List.find (fun c -> c.protocol = proto && c.nodes = n) data.cells in
          Format.fprintf ppf " %12.1f" c.time_ms)
        node_counts;
      let last =
        List.find
          (fun c -> c.protocol = proto && c.nodes = List.fold_left max 0 node_counts)
          data.cells
      in
      Format.fprintf ppf "  %12d %12d@." last.inline_checks last.read_faults)
    [ "java_ic"; "java_pf" ];
  let check = List.for_all (fun c -> c.best_cost = data.sequential_best) data.cells in
  Format.fprintf ppf "All runs found the optimal colouring cost (%d): %b@."
    data.sequential_best check

let rows d =
  ("fig5/sequential", [ ("best_cost", d.sequential_best) ])
  :: List.map
       (fun c ->
         ( Printf.sprintf "fig5/%s/%d" c.protocol c.nodes,
           [
             ("time_ns", Dsmpm2_sim.Time.of_us (c.time_ms *. 1000.));
             ("best_cost", c.best_cost);
             ("gets", c.gets);
             ("inline_checks", c.inline_checks);
             ("read_faults", c.read_faults);
           ] ))
       d.cells
