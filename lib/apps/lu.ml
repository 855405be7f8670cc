open Dsmpm2_sim
open Dsmpm2_net
open Dsmpm2_core

type config = {
  size : int;
  nodes : int;
  driver : Driver.t;
  protocol : string;
  op_us : float;
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
    op_us = Workloads.matmul_inner_us;
    seed = 11;
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

let ring = 1_000_003

let initial ~seed i j = (((i * 73) + (j * 37) + seed) mod 97) + 1

(* One elimination step on the ring; shared by the DSM and sequential
   versions so their results agree bit for bit. *)
let eliminate ~pivot ~pivot_row_j ~own_ik ~a_ij =
  let factor = own_ik * 1000 / max 1 pivot in
  (((a_ij * 1000) - (factor * pivot_row_j)) / 1000) mod ring

let checksum_sequential ~size ~seed =
  let a = Array.init size (fun i -> Array.init size (fun j -> initial ~seed i j)) in
  for k = 0 to size - 2 do
    for i = k + 1 to size - 1 do
      let own_ik = a.(i).(k) in
      for j = k to size - 1 do
        a.(i).(j) <- eliminate ~pivot:a.(k).(k) ~pivot_row_j:a.(k).(j) ~own_ik ~a_ij:a.(i).(j)
      done
    done
  done;
  Array.fold_left (fun acc row -> Array.fold_left ( + ) acc row) 0 a

let run config =
  let size = config.size in
  let dsm, proto =
    Workloads.start ~app:"Lu" ?tie_seed:config.tie_seed ~nodes:config.nodes
      ~driver:config.driver ~observe:config.observe config.protocol
  in
  let a = Dsm.malloc dsm ~protocol:proto ~home:Dsm.Block (size * size * 8) in
  let addr i j = a + (((i * size) + j) * 8) in
  let barrier = Dsm.barrier_create dsm ~protocol:proto ~parties:config.nodes () in
  (* Rows are dealt to nodes in contiguous blocks, matching the Block page
     placement. *)
  let owner_of_row i = min (config.nodes - 1) (i * config.nodes / size) in
  let time_after_solve = ref 0. in
  let worker node () =
    for i = 0 to size - 1 do
      if owner_of_row i = node then
        for j = 0 to size - 1 do
          Dsm.write_int dsm (addr i j) (initial ~seed:config.seed i j)
        done
    done;
    Dsm.barrier_wait dsm barrier;
    for k = 0 to size - 2 do
      (* Everyone reads the pivot row (one-to-all), owners update their
         rows below it. *)
      let pivot = Dsm.read_int dsm (addr k k) in
      for i = k + 1 to size - 1 do
        if owner_of_row i = node then begin
          let own_ik = Dsm.read_int dsm (addr i k) in
          for j = k to size - 1 do
            let updated =
              eliminate ~pivot ~pivot_row_j:(Dsm.read_int dsm (addr k j)) ~own_ik
                ~a_ij:(Dsm.read_int dsm (addr i j))
            in
            Dsm.write_int dsm (addr i j) updated;
            Dsm.charge dsm config.op_us
          done
        end
      done;
      Dsm.barrier_wait dsm barrier
    done;
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
             checksum := !checksum + Dsm.read_int dsm (addr i j)
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
