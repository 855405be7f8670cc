open Dsmpm2_sim
open Dsmpm2_net
open Dsmpm2_core
open Dsmpm2_protocols

type cell = {
  pattern : string;
  protocol : string;
  time_ms : float;
  correct : bool;
  read_faults : int;
  write_faults : int;
  pages_sent : int;
  diff_bytes : int;
  messages : int;
}

let rounds = 20

(* One datum bounced around under a lock: each node increments it [rounds]
   times; the final count is the oracle. *)
let migratory dsm ~protocol ~seed:_ =
  let nodes = Dsm.nodes dsm in
  let x = Dsm.malloc dsm ~protocol ~home:(Dsm.On_node 0) 8 in
  let lock = Dsm.lock_create dsm ~protocol () in
  for node = 0 to nodes - 1 do
    ignore
      (Dsm.spawn dsm ~node (fun () ->
           for _ = 1 to rounds do
             Dsm.with_lock dsm lock (fun () ->
                 Dsm.write_int dsm x (Dsm.read_int dsm x + 1));
             Dsm.compute dsm 100.
           done))
  done;
  fun hist -> Conformance.check_word dsm hist ~what:"count" x ~expected:(nodes * rounds)

(* Node 0 produces a 16-word block each phase; consumers read and sum it
   after the barrier. *)
let producer_consumer dsm ~protocol ~seed:_ =
  let nodes = Dsm.nodes dsm and words = 16 in
  let block = Dsm.malloc dsm ~protocol ~home:(Dsm.On_node 0) (words * 8) in
  let barrier = Dsm.barrier_create dsm ~protocol ~parties:nodes () in
  let ok = ref true in
  for node = 0 to nodes - 1 do
    ignore
      (Dsm.spawn dsm ~node (fun () ->
           for phase = 1 to rounds do
             if node = 0 then
               for w = 0 to words - 1 do
                 Dsm.write_int dsm (block + (w * 8)) ((phase * 100) + w)
               done;
             Dsm.barrier_wait dsm barrier;
             if node <> 0 then begin
               let sum = ref 0 in
               for w = 0 to words - 1 do
                 sum := !sum + Dsm.read_int dsm (block + (w * 8))
               done;
               let expected = (words * phase * 100) + (words * (words - 1) / 2) in
               if !sum <> expected then ok := false
             end;
             Dsm.barrier_wait dsm barrier
           done))
  done;
  fun _hist -> if !ok then None else Some "a consumer summed a stale block"

(* Everybody hammers reads; node 0 writes occasionally under a lock. *)
let read_mostly dsm ~protocol ~seed:_ =
  let x = Dsm.malloc dsm ~protocol ~home:(Dsm.On_node 0) 8 in
  let lock = Dsm.lock_create dsm ~protocol () in
  let monotone = ref true in
  for node = 0 to Dsm.nodes dsm - 1 do
    ignore
      (Dsm.spawn dsm ~node (fun () ->
           let last = ref 0 in
           for round = 1 to rounds * 4 do
             if node = 0 && round mod 16 = 0 then
               Dsm.with_lock dsm lock (fun () ->
                   Dsm.write_int dsm x (Dsm.read_int dsm x + 1))
             else begin
               let v = Dsm.with_lock dsm lock (fun () -> Dsm.read_int dsm x) in
               if v < !last then monotone := false;
               last := v
             end;
             Dsm.compute dsm 50.
           done))
  done;
  fun hist ->
    if not !monotone then Some "a locked read went backwards"
    else Conformance.check_word dsm hist ~what:"count" x ~expected:(rounds * 4 / 16)

(* Disjoint words of one page written concurrently by all nodes: page-level
   false sharing, variable-level race freedom. *)
let false_sharing dsm ~protocol ~seed:_ =
  let nodes = Dsm.nodes dsm in
  let page_addr = Dsm.malloc dsm ~protocol ~home:(Dsm.On_node 0) 4096 in
  let barrier = Dsm.barrier_create dsm ~protocol ~parties:nodes () in
  for node = 0 to nodes - 1 do
    ignore
      (Dsm.spawn dsm ~node (fun () ->
           let addr = page_addr + (node * 8) in
           for round = 1 to rounds do
             Dsm.write_int dsm addr ((node * 1000) + round);
             Dsm.compute dsm 100.
           done;
           Dsm.barrier_wait dsm barrier))
  done;
  (* after the final barrier every node's slot holds its last write *)
  fun hist ->
    List.find_map
      (fun node ->
        Conformance.check_word dsm hist ~what:(Printf.sprintf "node %d's word" node)
          (page_addr + (node * 8)) ~expected:((node * 1000) + rounds))
      (List.init nodes Fun.id)

(* sc_abd's quorum puts take producer_consumer to 1.7 s on TCP/FastEthernet
   under perturbation (300 ms unperturbed on BIP/Myrinet): the limit is 5 s. *)
let scenarios =
  List.map
    (fun (name, program) ->
      { Conformance.name; nodes = 4; limit_us = 5e6; program; expect = Final_memory })
    [
      ("migratory", migratory);
      ("producer_consumer", producer_consumer);
      ("read_mostly", read_mostly);
      ("false_sharing", false_sharing);
    ]

let run () =
  List.concat_map
    (fun scenario ->
      List.map
        (fun { Protocol.name = protocol; _ } ->
          let o, dsm =
            Conformance.run ~protocol ~driver:Driver.bip_myrinet ~scenario ~seed:None ()
          in
          let stats = Dsm.stats dsm in
          {
            pattern = scenario.name;
            protocol;
            time_ms = o.o_end_us /. 1000.;
            correct = not o.o_failed;
            read_faults = Stats.count stats Instrument.read_faults;
            write_faults = Stats.count stats Instrument.write_faults;
            pages_sent = Stats.count stats Instrument.pages_sent;
            diff_bytes = Stats.count stats Instrument.diff_bytes;
            messages = Network.messages_sent (Dsmpm2_pm2.Pm2.network (Dsm.pm2 dsm));
          })
        (Builtin.protocols ()))
    scenarios

let print ppf cells =
  Format.fprintf ppf
    "Sharing-pattern study (4 nodes, BIP/Myrinet, %d rounds per node)@." rounds;
  List.iter
    (fun { Conformance.name = pattern; _ } ->
      Format.fprintf ppf "@.%s:@." pattern;
      Format.fprintf ppf "  %-16s %10s %8s %8s %8s %8s %10s@." "protocol" "time(ms)"
        "correct" "rfaults" "wfaults" "pages" "diffbytes";
      List.iter
        (fun c ->
          if c.pattern = pattern then
            Format.fprintf ppf "  %-16s %10.1f %8b %8d %8d %8d %10d@." c.protocol
              c.time_ms c.correct c.read_faults c.write_faults c.pages_sent
              c.diff_bytes)
        cells)
    scenarios

let rows cells =
  List.map
    (fun c ->
      ( Printf.sprintf "patterns/%s/%s" c.pattern c.protocol,
        [
          ("time_ns", Time.of_us (c.time_ms *. 1000.));
          ("correct", Bool.to_int c.correct);
          ("read_faults", c.read_faults);
          ("write_faults", c.write_faults);
          ("pages_sent", c.pages_sent);
          ("diff_bytes", c.diff_bytes);
          ("messages", c.messages);
        ] ))
    cells
