open Dsmpm2_sim
open Dsmpm2_net
open Dsmpm2_core

type config = {
  nodes : int;
  driver : Driver.t;
  protocol : string;
  color_costs : int array;
  refresh_period : int;
  expand_us : float;
  tie_seed : int option;  (* seeded engine tie-breaking, replayable *)
  observe : (Dsm.t -> unit) option;
      (* called with the runtime before any thread starts, so callers can
         enable monitoring or keep a handle for post-run export *)
}

let default =
  {
    nodes = 4;
    driver = Driver.sisci_sci;
    protocol = "java_pf";
    color_costs = [| 1; 2; 3; 4 |];
    refresh_period = 4000;
    expand_us = Workloads.coloring_expand_us;
    tie_seed = None;
    observe = None;
  }

type result = {
  time_ms : float;
  best_cost : int;
  expansions : int;
  gets : int;
  inline_checks : int;
  read_faults : int;
  write_faults : int;
  messages : int;
}

let order = Us_states.search_order

let rank =
  let r = Array.make Us_states.count 0 in
  Array.iteri (fun i s -> r.(s) <- i) order;
  r

(* Neighbors already coloured when a state is reached in search order. *)
let earlier_neighbors =
  Array.init Us_states.count (fun s ->
      List.filter (fun n -> rank.(n) < rank.(s)) (Us_states.neighbors s))

let upper_bound color_costs =
  (Us_states.count * Array.fold_left max 0 color_costs) + 1

let solve_sequential ?(color_costs = default.color_costs) () =
  let ncolors = Array.length color_costs in
  let assign = Array.make Us_states.count (-1) in
  let best = ref (upper_bound color_costs) in
  let rec dfs i cost =
    if i = Us_states.count then best := min !best cost
    else begin
      let s = order.(i) in
      let remaining = Us_states.count - i in
      if cost + remaining < !best then
        for c = 0 to ncolors - 1 do
          let feasible =
            List.for_all (fun n -> assign.(n) <> c) earlier_neighbors.(s)
          in
          if feasible then begin
            assign.(s) <- c;
            dfs (i + 1) (cost + color_costs.(c));
            assign.(s) <- -1
          end
        done
    end
  in
  dfs 0 0;
  !best

let run config =
  let dsm, proto =
    Workloads.start ~app:"Map_coloring" ?tie_seed:config.tie_seed ~nodes:config.nodes
      ~driver:config.driver ~observe:config.observe config.protocol
  in
  let hyp = Dsmpm2_hyperion.Hyperion.create dsm ~protocol:proto in
  let module H = Dsmpm2_hyperion.Hyperion in
  let ncolors = Array.length config.color_costs in
  let nstates = Us_states.count in
  (* Shared objects: the graph (read-mostly, spread over the nodes), the
     colour costs, and the current best cost under its monitor. *)
  let adj_counts = H.new_array hyp ~home:0 ~len:nstates () in
  let adj_flat_len = max 1 (List.fold_left (fun a s -> a + List.length earlier_neighbors.(s)) 0 (Array.to_list order)) in
  let adj_flat = H.new_array hyp ~home:(min 1 (config.nodes - 1)) ~len:adj_flat_len () in
  let adj_offsets = H.new_array hyp ~home:0 ~len:nstates () in
  let costs_obj = H.new_array hyp ~home:(min 2 (config.nodes - 1)) ~len:ncolors () in
  let best_obj = H.new_obj hyp ~home:0 ~fields:1 () in
  let monitor = H.new_monitor hyp ~manager:0 () in
  let gets = ref 0 in
  let expansions = ref 0 in
  (* A setup thread fills main memory through the ordinary put path. *)
  ignore
    (Dsm.spawn dsm ~node:0 (fun () ->
         let off = ref 0 in
         Array.iter
           (fun s ->
             H.put hyp adj_offsets rank.(s) !off;
             H.put hyp adj_counts rank.(s) (List.length earlier_neighbors.(s));
             List.iter
               (fun n ->
                 H.put hyp adj_flat !off rank.(n);
                 incr off)
               earlier_neighbors.(s))
           order;
         Array.iteri (fun c v -> H.put hyp costs_obj c v) config.color_costs;
         H.put hyp best_obj 0 (upper_bound config.color_costs);
         H.main_memory_update hyp));
  Dsm.run dsm;
  (* Worker threads: one per node, Hyperion-compiled Java style. *)
  let worker node () =
    let get o i =
      incr gets;
      H.get hyp o i
    in
    (* The worker's own assignment array lives on its node: intensive local
       object usage (rank-indexed; value = colour + 1, 0 = unassigned). *)
    let assign = H.new_array hyp ~home:node ~len:nstates () in
    for i = 0 to nstates - 1 do
      H.put hyp assign i 0
    done;
    let local_best = ref (H.synchronized hyp monitor (fun () -> get best_obj 0)) in
    let since_refresh = ref 0 in
    let pending = ref 0 in
    let expand () =
      incr expansions;
      incr pending;
      incr since_refresh;
      if !pending >= 256 then begin
        Workloads.charge_batched dsm config.expand_us !pending;
        pending := 0
      end;
      if !since_refresh >= config.refresh_period then begin
        since_refresh := 0;
        Workloads.charge_batched dsm config.expand_us !pending;
        pending := 0;
        local_best := H.synchronized hyp monitor (fun () -> get best_obj 0)
      end
    in
    let publish cost =
      Workloads.charge_batched dsm config.expand_us !pending;
      pending := 0;
      H.synchronized hyp monitor (fun () ->
          let g = get best_obj 0 in
          if cost < g then H.put hyp best_obj 0 cost;
          local_best := min g cost)
    in
    let feasible i c =
      let off = get adj_offsets i and cnt = get adj_counts i in
      let rec check k =
        if k >= cnt then true
        else begin
          incr gets;
          if H.get hyp assign (H.get hyp adj_flat (off + k)) = c + 1 then false
          else check (k + 1)
        end
      in
      check 0
    in
    let rec dfs i cost =
      expand ();
      if i = nstates then begin
        if cost < !local_best then publish cost
      end
      else if cost + (nstates - i) < !local_best then
        for c = 0 to ncolors - 1 do
          if feasible i c then begin
            H.put hyp assign i (c + 1);
            dfs (i + 1) (cost + get costs_obj c);
            H.put hyp assign i 0
          end
        done
    in
    (* Static partitioning on the colours of the first two states in search
       order: 16 subtrees, round-robin over the workers. *)
    let combo = ref 0 in
    for c0 = 0 to ncolors - 1 do
      for c1 = 0 to ncolors - 1 do
        if !combo mod config.nodes = node then
          if feasible 0 c0 then begin
            H.put hyp assign 0 (c0 + 1);
            if feasible 1 c1 then begin
              H.put hyp assign 1 (c1 + 1);
              dfs 2 (get costs_obj c0 + get costs_obj c1);
              H.put hyp assign 1 0
            end;
            H.put hyp assign 0 0
          end;
        incr combo
      done
    done;
    Workloads.charge_batched dsm config.expand_us !pending;
    Dsm.compute dsm 0.1
  in
  for node = 0 to config.nodes - 1 do
    ignore (Dsm.spawn dsm ~node (worker node))
  done;
  Dsm.run dsm;
  let stats = Dsm.stats dsm in
  {
    time_ms = Dsm.now_us dsm /. 1000.;
    best_cost = H.peek_main_memory hyp best_obj 0;
    expansions = !expansions;
    gets = !gets;
    inline_checks = Stats.count stats Instrument.inline_checks;
    read_faults = Stats.count stats Instrument.read_faults;
    write_faults = Stats.count stats Instrument.write_faults;
    messages = Network.messages_sent (Dsmpm2_pm2.Pm2.network (Dsm.pm2 dsm));
  }
