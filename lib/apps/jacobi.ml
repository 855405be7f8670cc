open Dsmpm2_sim
open Dsmpm2_net
open Dsmpm2_core

type config = {
  size : int;
  iterations : int;
  nodes : int;
  driver : Driver.t;
  protocol : string;
  point_us : float;
  tie_seed : int option;
      (* seeded engine tie-breaking: [Some s] perturbs (deterministically)
         the legal interleaving, the macro-bench suite's repeat knob *)
  observe : (Dsm.t -> unit) option;
      (* called with the runtime before any thread starts, so callers can
         enable monitoring or keep a handle for post-run export *)
}

let default =
  {
    size = 48;
    iterations = 8;
    nodes = 4;
    driver = Driver.bip_myrinet;
    protocol = "hbrc_mw";
    point_us = Workloads.jacobi_point_us;
    tie_seed = None;
    observe = None;
  }

type result = {
  time_ms : float;
  checksum : int;
  read_faults : int;
  write_faults : int;
  pages_transferred : int;
  diff_bytes : int;
  messages : int;
}

(* A hot top edge over a deterministic pseudo-random interior, so every page
   changes on every sweep (and the multiple-writer protocols have real diffs
   to ship).  All arithmetic is integral so the DSM and sequential versions
   agree bit for bit. *)
let initial ~size:_ i j =
  if i = 0 then 1_000_000 else ((i * 131) + (j * 17)) mod 1_000

let checksum_sequential ~size ~iterations =
  let g = Array.init 2 (fun _ -> Array.make_matrix size size 0) in
  for i = 0 to size - 1 do
    for j = 0 to size - 1 do
      g.(0).(i).(j) <- initial ~size i j;
      g.(1).(i).(j) <- initial ~size i j
    done
  done;
  for it = 0 to iterations - 1 do
    let src = g.(it land 1) and dst = g.(1 - (it land 1)) in
    for i = 1 to size - 2 do
      for j = 1 to size - 2 do
        dst.(i).(j) <- (src.(i - 1).(j) + src.(i + 1).(j) + src.(i).(j - 1) + src.(i).(j + 1)) / 4
      done
    done
  done;
  let final = g.(iterations land 1) in
  Array.fold_left (fun acc row -> Array.fold_left ( + ) acc row) 0 final

(* Rows [lo, hi] (inclusive) handled by a worker. *)
let row_range ~size ~nodes node =
  let rows = size / nodes in
  let lo = node * rows in
  let hi = if node = nodes - 1 then size - 1 else lo + rows - 1 in
  (lo, hi)

let run config =
  let size = config.size in
  let dsm, proto =
    Workloads.start ~app:"Jacobi" ?tie_seed:config.tie_seed ~nodes:config.nodes
      ~driver:config.driver ~observe:config.observe config.protocol
  in
  let bytes = size * size * 8 in
  let grid = [| Dsm.malloc dsm ~protocol:proto ~home:Dsm.Block bytes;
                Dsm.malloc dsm ~protocol:proto ~home:Dsm.Block bytes |] in
  let addr g i j = grid.(g) + (((i * size) + j) * 8) in
  let barrier = Dsm.barrier_create dsm ~protocol:proto ~parties:config.nodes () in
  let time_after_solve = ref 0. in
  let worker node () =
    let lo, hi = row_range ~size ~nodes:config.nodes node in
    (* Each worker initialises its own rows: local writes only. *)
    for g = 0 to 1 do
      for i = lo to hi do
        for j = 0 to size - 1 do
          Dsm.write_int dsm (addr g i j) (initial ~size i j)
        done
      done
    done;
    Dsm.barrier_wait dsm barrier;
    for it = 0 to config.iterations - 1 do
      let src = it land 1 and dst = 1 - (it land 1) in
      for i = max 1 lo to min (size - 2) hi do
        for j = 1 to size - 2 do
          let v =
            (Dsm.read_int dsm (addr src (i - 1) j)
            + Dsm.read_int dsm (addr src (i + 1) j)
            + Dsm.read_int dsm (addr src i (j - 1))
            + Dsm.read_int dsm (addr src i (j + 1)))
            / 4
          in
          Dsm.write_int dsm (addr dst i j) v;
          Dsm.charge dsm config.point_us
        done
      done;
      Dsm.barrier_wait dsm barrier
    done;
    if node = 0 then time_after_solve := Dsm.now_us dsm /. 1000.
  in
  for node = 0 to config.nodes - 1 do
    ignore (Dsm.spawn dsm ~node (worker node))
  done;
  Dsm.run dsm;
  (* A fresh reader computes the checksum through the DSM from node 0: the
     protocols must deliver a coherent final grid. *)
  let checksum = ref 0 in
  let final = config.iterations land 1 in
  ignore
    (Dsm.spawn dsm ~node:0 (fun () ->
         for i = 0 to size - 1 do
           for j = 0 to size - 1 do
             checksum := !checksum + Dsm.read_int dsm (addr final i j)
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
    diff_bytes = Stats.count stats Instrument.diff_bytes;
    messages = Network.messages_sent (Dsmpm2_pm2.Pm2.network (Dsm.pm2 dsm));
  }
