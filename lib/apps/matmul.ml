open Dsmpm2_sim
open Dsmpm2_net
open Dsmpm2_core

type config = {
  size : int;
  nodes : int;
  driver : Driver.t;
  protocol : string;
  inner_us : float;
  seed : int;
  tie_seed : int option;  (* seeded engine tie-breaking, replayable *)
  observe : (Dsm.t -> unit) option;
      (* called with the runtime before any thread starts, so callers can
         enable monitoring or keep a handle for post-run export *)
}

let default =
  {
    size = 32;
    nodes = 4;
    driver = Driver.bip_myrinet;
    protocol = "li_hudak";
    inner_us = Workloads.matmul_inner_us;
    seed = 7;
    tie_seed = None;
    observe = None;
  }

type result = {
  time_ms : float;
  checksum : int;
  read_faults : int;
  write_faults : int;
  pages_transferred : int;
  messages : int;
}

let element ~seed i j = ((i * 31) + (j * 17) + seed) mod 10

let checksum_sequential ~size ~seed =
  let c = ref 0 in
  for i = 0 to size - 1 do
    for j = 0 to size - 1 do
      let acc = ref 0 in
      for k = 0 to size - 1 do
        acc := !acc + (element ~seed i k * element ~seed k j)
      done;
      c := !c + !acc
    done
  done;
  !c

let row_range ~size ~nodes node =
  let rows = size / nodes in
  let lo = node * rows in
  let hi = if node = nodes - 1 then size - 1 else lo + rows - 1 in
  (lo, hi)

let run config =
  let size = config.size in
  let dsm, proto =
    Workloads.start ~app:"Matmul" ?tie_seed:config.tie_seed ~nodes:config.nodes
      ~driver:config.driver ~observe:config.observe config.protocol
  in
  let bytes = size * size * 8 in
  let a = Dsm.malloc dsm ~protocol:proto ~home:Dsm.Block bytes in
  let b = Dsm.malloc dsm ~protocol:proto ~home:Dsm.Block bytes in
  let c = Dsm.malloc dsm ~protocol:proto ~home:Dsm.Block bytes in
  let addr m i j = m + (((i * size) + j) * 8) in
  let barrier = Dsm.barrier_create dsm ~protocol:proto ~parties:config.nodes () in
  let time_after_solve = ref 0. in
  let worker node () =
    let lo, hi = row_range ~size ~nodes:config.nodes node in
    (* Everybody initialises its own block of A and B locally. *)
    for i = lo to hi do
      for j = 0 to size - 1 do
        Dsm.write_int dsm (addr a i j) (element ~seed:config.seed i j);
        Dsm.write_int dsm (addr b i j) (element ~seed:config.seed i j)
      done
    done;
    Dsm.barrier_wait dsm barrier;
    for i = lo to hi do
      for j = 0 to size - 1 do
        let acc = ref 0 in
        for k = 0 to size - 1 do
          acc := !acc + (Dsm.read_int dsm (addr a i k) * Dsm.read_int dsm (addr b k j));
          Dsm.charge dsm config.inner_us
        done;
        Dsm.write_int dsm (addr c i j) !acc
      done
    done;
    Dsm.barrier_wait dsm barrier;
    if node = 0 then time_after_solve := Dsm.now_us dsm /. 1000.
  in
  for node = 0 to config.nodes - 1 do
    ignore (Dsm.spawn dsm ~node (worker node))
  done;
  Dsm.run dsm;
  let checksum = ref 0 in
  ignore
    (Dsm.spawn dsm ~node:0 (fun () ->
         for i = 0 to size - 1 do
           for j = 0 to size - 1 do
             checksum := !checksum + Dsm.read_int dsm (addr c i j)
           done
         done));
  Dsm.run dsm;
  let stats = Dsm.stats dsm in
  {
    time_ms = !time_after_solve;
    checksum = !checksum;
    read_faults = Stats.count stats Instrument.read_faults;
    write_faults = Stats.count stats Instrument.write_faults;
    pages_transferred = Stats.count stats Instrument.pages_sent;
    messages = Network.messages_sent (Dsmpm2_pm2.Pm2.network (Dsm.pm2 dsm));
  }
