open Dsmpm2_sim

let stage_fault = "stage.fault"
let stage_request = "stage.request"
let stage_transfer = "stage.transfer"
let stage_overhead_server = "stage.overhead_server"
let stage_overhead_client = "stage.overhead_client"
let stage_migration = "stage.migration"
let stage_total = "stage.total"
let read_faults = "fault.read"
let write_faults = "fault.write"
let pages_sent = "page.sent"
let pages_mapped = "page.mapped"
let invalidations = "invalidate.sent"
let invalidate_rpcs = "invalidate.rpc"
let diffs_sent = "diff.sent"
let diff_bytes = "diff.bytes"
let check_misses = "check.miss"
let inline_checks = "check.count"
let lock_wait = "sync.lock.wait"
let lock_hold = "sync.lock.hold"
let barrier_wait = "sync.barrier.wait"

type proto_cells = {
  read : Stats.cell;
  write : Stats.cell;
  miss : Stats.cell;
  detect : Stats.cell;
  request : Stats.cell;
  send : Stats.cell;
  transfer : Stats.cell;
}

type node_cells = {
  invalidate : Stats.cell;
  diff : Stats.cell;
  lock : Stats.cell;
  hold : Stats.cell;
  barrier : Stats.cell;
  mapped : Stats.cell;
}

type t = {
  stats : Stats.t;
  protocol_name : int -> string;
  nodes : node_cells array;
  mutable protos : proto_cells array array; (* by protocol id, then node *)
  checks : Stats.cell;
  server : Stats.cell;
  client : Stats.cell;
  migrate : Stats.cell;
}

let create stats ~nodes ~protocol_name =
  let cell = Stats.cell stats in
  {
    stats;
    protocol_name;
    nodes =
      Array.init nodes (fun node ->
          {
            invalidate = cell ~node ~count:invalidate_rpcs ~volume:invalidations ();
            diff = cell ~node ~count:diffs_sent ~volume:diff_bytes ();
            lock = cell ~node ~span:lock_wait ();
            hold = cell ~node ~span:lock_hold ();
            barrier = cell ~node ~span:barrier_wait ();
            mapped = cell ~node ~count:pages_mapped ();
          });
    protos = [||];
    checks = cell ~count:inline_checks ();
    server = cell ~span:stage_overhead_server ();
    client = cell ~span:stage_overhead_client ();
    migrate = cell ~span:stage_migration ();
  }

(* A protocol's cells are created for every node the first time any node
   touches them: protocols register after the runtime is built. *)
let add_protocol t protocol =
  if protocol >= Array.length t.protos then begin
    let grown = Array.make (protocol + 1) [||] in
    Array.blit t.protos 0 grown 0 (Array.length t.protos);
    t.protos <- grown
  end;
  let name = t.protocol_name protocol in
  t.protos.(protocol) <-
    Array.init (Array.length t.nodes) (fun node ->
        let cell = Stats.cell t.stats ~node ~protocol:name in
        {
          read = cell ~count:read_faults ~span:stage_total ();
          write = cell ~count:write_faults ~span:stage_total ();
          miss = cell ~count:check_misses ~span:stage_total ();
          detect = cell ~span:stage_fault ();
          request = cell ~span:stage_request ();
          send = cell ~count:pages_sent ();
          transfer = cell ~span:stage_transfer ();
        })

let faults c = Stats.events c.read + Stats.events c.write + Stats.events c.miss

let proto t ~node ~protocol =
  if protocol >= Array.length t.protos || Array.length t.protos.(protocol) = 0 then
    add_protocol t protocol;
  t.protos.(protocol).(node)

let stages =
  [
    stage_fault;
    stage_request;
    stage_transfer;
    stage_overhead_server;
    stage_overhead_client;
    stage_migration;
    stage_total;
  ]
