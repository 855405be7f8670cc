open Dsmpm2_core

(* On a write fault the thread first joins the data on the owning node; if
   reader replicas exist the owner holds only read rights there, and
   li_hudak's upgrade path invalidates the copyset before granting write
   access (preserving sequential consistency). *)
let write_fault rt ~node ~page =
  Migrate_thread.migrate_on_fault rt ~node ~page;
  let here = Runtime.self_node rt in
  let e = Runtime.entry rt ~node:here ~page in
  if e.Page_table.prob_owner = here then
    Li_hudak.protocol.Protocol.write_fault rt ~node:here ~page

let protocol =
  {
    Li_hudak.protocol with
    Protocol.name = "hybrid_rw";
    (* Sequential, like both halves: reads take li_hudak's path and writes
       migrate the thread to the owner, whose upgrade invalidates the
       copyset first. *)
    model = Protocol.Sequential;
    write_fault;
    (* Reads replicate (and downgrade the owner) exactly as in li_hudak;
       write requests never arrive because write faults migrate instead. *)
    write_server = Migrate_thread.protocol.Protocol.write_server;
  }
