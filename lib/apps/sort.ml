open Dsmpm2_sim
open Dsmpm2_net
open Dsmpm2_core

type config = {
  elements_per_node : int;
  nodes : int;
  driver : Driver.t;
  protocol : string;
  compare_us : float;
  seed : int;
  tie_seed : int option;  (* seeded engine tie-breaking, replayable *)
  observe : (Dsm.t -> unit) option;
      (* called with the runtime before any thread starts, so callers can
         enable monitoring or keep a handle for post-run export *)
}

let default =
  {
    elements_per_node = 64;
    nodes = 4;
    driver = Driver.bip_myrinet;
    protocol = "li_hudak";
    compare_us = Workloads.matmul_inner_us;
    seed = 23;
    tie_seed = None;
    observe = None;
  }

type result = {
  time_ms : float;
  sorted : bool;
  correct : bool;
  read_faults : int;
  write_faults : int;
  pages_transferred : int;
  messages : int;
}

let run config =
  let n = config.nodes * config.elements_per_node in
  let dsm, proto =
    Workloads.start ~app:"Sort" ?tie_seed:config.tie_seed ~nodes:config.nodes
      ~driver:config.driver ~observe:config.observe config.protocol
  in
  (* One page-aligned block per node, so block exchanges are page
     exchanges. *)
  let block_bytes = ((config.elements_per_node * 8 / 4096) + 1) * 4096 in
  let blocks =
    Array.init config.nodes (fun node ->
        Dsm.malloc dsm ~protocol:proto ~home:(Dsm.On_node node) block_bytes)
  in
  let addr block i = blocks.(block) + (i * 8) in
  let rng = Rng.create ~seed:config.seed in
  let input = Array.init n (fun _ -> Rng.int rng 100_000) in
  let barrier = Dsm.barrier_create dsm ~protocol:proto ~parties:config.nodes () in
  let k = config.elements_per_node in
  let worker node () =
    (* each node seeds its own block locally *)
    for i = 0 to k - 1 do
      Dsm.write_int dsm (addr node i) input.((node * k) + i)
    done;
    Dsm.barrier_wait dsm barrier;
    for phase = 0 to (2 * config.nodes) - 1 do
      (* the left partner of each adjacent pair does the merge-split *)
      let left = if phase land 1 = 0 then node - (node land 1) else node - ((node + 1) land 1) in
      let right = left + 1 in
      if node = left && right < config.nodes && left >= 0 then begin
        let merged = Array.make (2 * k) 0 in
        for i = 0 to k - 1 do
          merged.(i) <- Dsm.read_int dsm (addr left i);
          merged.(k + i) <- Dsm.read_int dsm (addr right i);
          Dsm.charge dsm config.compare_us
        done;
        Array.sort compare merged;
        Workloads.charge_batched dsm config.compare_us (2 * k * 8);
        for i = 0 to k - 1 do
          Dsm.write_int dsm (addr left i) merged.(i);
          Dsm.write_int dsm (addr right i) merged.(k + i)
        done
      end;
      Dsm.barrier_wait dsm barrier
    done
  in
  for node = 0 to config.nodes - 1 do
    ignore (Dsm.spawn dsm ~node (worker node))
  done;
  Dsm.run dsm;
  let time_ms = Dsm.now_us dsm /. 1000. in
  (* Read the result back through the DSM from node 0. *)
  let output = Array.make n 0 in
  ignore
    (Dsm.spawn dsm ~node:0 (fun () ->
         for i = 0 to n - 1 do
           output.(i) <- Dsm.read_int dsm (addr (i / k) (i mod k))
         done));
  Dsm.run dsm;
  let sorted = ref true in
  for i = 1 to n - 1 do
    if output.(i - 1) > output.(i) then sorted := false
  done;
  let correct =
    List.sort compare (Array.to_list input) = List.sort compare (Array.to_list output)
  in
  let stats = Dsm.stats dsm in
  {
    time_ms;
    sorted = !sorted;
    correct;
    read_faults = Stats.count stats Instrument.read_faults;
    write_faults = Stats.count stats Instrument.write_faults;
    pages_transferred = Stats.count stats Instrument.pages_sent;
    messages = Network.messages_sent (Dsmpm2_pm2.Pm2.network (Dsm.pm2 dsm));
  }
