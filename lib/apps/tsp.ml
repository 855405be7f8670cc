open Dsmpm2_sim
open Dsmpm2_net
open Dsmpm2_core

type config = {
  cities : int;
  seed : int;
  nodes : int;
  driver : Driver.t;
  protocol : string;
  refresh_period : int;
  expand_us : float;
  balance : bool;  (* run the PM2 load balancer alongside the workers *)
  tie_seed : int option;  (* seeded engine tie-breaking, replayable *)
  observe : (Dsm.t -> unit) option;
      (* called with the runtime before any thread starts, so callers can
         enable monitoring or keep a handle for post-run export *)
}

let default =
  {
    cities = 14;
    seed = 42;
    nodes = 4;
    driver = Driver.bip_myrinet;
    protocol = "li_hudak";
    refresh_period = 2000;
    expand_us = Workloads.tsp_expand_us;
    balance = false;
    tie_seed = None;
    observe = None;
  }

type result = {
  time_ms : float;
  best : int;
  expansions : int;
  migrations : int;
  read_faults : int;
  write_faults : int;
  messages : int;
  final_node_of_thread : int list;
  balancer_moves : int;
}

let distances ~cities ~seed =
  let rng = Rng.create ~seed in
  let d = Array.make_matrix cities cities 0 in
  for i = 0 to cities - 1 do
    for j = i + 1 to cities - 1 do
      let v = 1 + Rng.int rng 99 in
      d.(i).(j) <- v;
      d.(j).(i) <- v
    done
  done;
  d

let min_outgoing d =
  Array.map
    (fun row ->
      Array.fold_left (fun acc v -> if v > 0 && v < acc then v else acc) max_int row)
    d

(* A greedy nearest-neighbour tour provides the initial bound. *)
let greedy_bound d =
  let n = Array.length d in
  let visited = Array.make n false in
  visited.(0) <- true;
  let total = ref 0 in
  let current = ref 0 in
  for _ = 1 to n - 1 do
    let next = ref (-1) in
    for j = 0 to n - 1 do
      if (not visited.(j)) && (!next < 0 || d.(!current).(j) < d.(!current).(!next))
      then next := j
    done;
    total := !total + d.(!current).(!next);
    visited.(!next) <- true;
    current := !next
  done;
  !total + d.(!current).(0)

(* Sequential exact branch-and-bound: the oracle for the DSM runs. *)
let solve_sequential d =
  let n = Array.length d in
  let mins = min_outgoing d in
  let best = ref (greedy_bound d) in
  let visited = Array.make n false in
  visited.(0) <- true;
  let rec dfs current len count remaining_min =
    if count = n then begin
      let total = len + d.(current).(0) in
      if total < !best then best := total
    end
    else if len + remaining_min < !best then
      for next = 1 to n - 1 do
        if not visited.(next) then begin
          visited.(next) <- true;
          dfs next (len + d.(current).(next)) (count + 1) (remaining_min - mins.(next));
          visited.(next) <- false
        end
      done
  in
  let all_min = Array.fold_left ( + ) 0 mins - mins.(0) in
  dfs 0 0 1 all_min;
  !best

let run config =
  let dsm, proto =
    Workloads.start ~app:"Tsp" ?tie_seed:config.tie_seed ~nodes:config.nodes
      ~driver:config.driver ~observe:config.observe config.protocol
  in
  let d = distances ~cities:config.cities ~seed:config.seed in
  let n = config.cities in
  let mins = min_outgoing d in
  let all_min = Array.fold_left ( + ) 0 mins - mins.(0) in
  (* The shared shortest-path variable: one word, page on node 0, always
     accessed under the lock (as in the paper's program). *)
  let best_addr = Dsm.malloc dsm ~protocol:proto ~home:(Dsm.On_node 0) 8 in
  let best_lock = Dsm.lock_create dsm ~protocol:proto ~manager:0 () in
  let expansions = ref 0 in
  let final_nodes = Array.make config.nodes (-1) in
  let worker node () =
    (* Initial bound: each thread starts from the greedy tour. *)
    Dsm.with_lock dsm best_lock (fun () ->
        if Dsm.read_int dsm best_addr = 0 then
          Dsm.write_int dsm best_addr (greedy_bound d));
    let local_best = ref (Dsm.with_lock dsm best_lock (fun () -> Dsm.read_int dsm best_addr)) in
    let since_refresh = ref 0 in
    let visited = Array.make n false in
    visited.(0) <- true;
    let pending_work = ref 0 in
    let expand () =
      incr expansions;
      incr pending_work;
      incr since_refresh;
      if !pending_work >= 256 then begin
        Workloads.charge_batched dsm config.expand_us !pending_work;
        pending_work := 0
      end;
      if !since_refresh >= config.refresh_period then begin
        since_refresh := 0;
        Workloads.charge_batched dsm config.expand_us !pending_work;
        pending_work := 0;
        Dsm.with_lock dsm best_lock (fun () ->
            local_best := Dsm.read_int dsm best_addr)
      end
    in
    let publish total =
      Workloads.charge_batched dsm config.expand_us !pending_work;
      pending_work := 0;
      Dsm.with_lock dsm best_lock (fun () ->
          let global = Dsm.read_int dsm best_addr in
          if total < global then Dsm.write_int dsm best_addr total;
          local_best := min global total)
    in
    let rec dfs current len count remaining_min =
      expand ();
      if count = n then begin
        let total = len + d.(current).(0) in
        if total < !local_best then publish total
      end
      else if len + remaining_min < !local_best then
        for next = 1 to n - 1 do
          if not visited.(next) then begin
            visited.(next) <- true;
            dfs next (len + d.(current).(next)) (count + 1) (remaining_min - mins.(next));
            visited.(next) <- false
          end
        done
    in
    (* Static partitioning: branch on the second city, round-robin. *)
    for second = 1 to n - 1 do
      if (second - 1) mod config.nodes = node then begin
        visited.(second) <- true;
        dfs second d.(0).(second) 2 (all_min - mins.(second));
        visited.(second) <- false
      end
    done;
    Workloads.charge_batched dsm config.expand_us !pending_work;
    Dsm.compute dsm 0.1;
    final_nodes.(node) <- Dsm.self_node dsm
  in
  for node = 0 to config.nodes - 1 do
    ignore (Dsm.spawn dsm ~migratable:true ~node (worker node))
  done;
  let balancer =
    if config.balance then Some (Dsmpm2_pm2.Balancer.start (Dsm.pm2 dsm)) else None
  in
  Dsm.run dsm;
  let stats = Dsm.stats dsm in
  let owner_best =
    (* The authoritative copy is wherever write access lives (the MRSW
       owner); home-based protocols keep it on the home, node 0. *)
    let rec find node =
      if node >= config.nodes then Dsm.unsafe_peek dsm ~node:0 best_addr
      else if Dsm.unsafe_rights dsm ~node ~addr:best_addr = Dsmpm2_mem.Access.Read_write
      then Dsm.unsafe_peek dsm ~node best_addr
      else find (node + 1)
    in
    find 0
  in
  {
    time_ms = Dsm.now_us dsm /. 1000.;
    best = owner_best;
    expansions = !expansions;
    migrations = Dsmpm2_pm2.Pm2.migrations (Dsm.pm2 dsm);
    read_faults = Stats.count stats Instrument.read_faults;
    write_faults = Stats.count stats Instrument.write_faults;
    messages = Network.messages_sent (Dsmpm2_pm2.Pm2.network (Dsm.pm2 dsm));
    final_node_of_thread = Array.to_list final_nodes;
    balancer_moves =
      (match balancer with
      | Some b -> Dsmpm2_pm2.Balancer.moves_requested b
      | None -> 0);
  }
