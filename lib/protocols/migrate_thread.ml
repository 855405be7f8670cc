open Dsmpm2_sim
open Dsmpm2_pm2
open Dsmpm2_core

let migrate_on_fault rt ~node ~page =
  let e = Runtime.entry rt ~node ~page in
  let dst = e.Page_table.prob_owner in
  let started = Engine.now (Runtime.engine rt) in
  Pm2.migrate rt.Runtime.pm2 ~dst;
  Monitor.stamp rt ~node ~protocol:e.Page_table.protocol ~obj:page
    rt.Runtime.cells.Instrument.migrate
    Time.(Engine.now (Runtime.engine rt) - started);
  Protocol_lib.migration_overhead rt

(* Read service kept identical to li_hudak's owner-side replication (without
   downgrading the owner, whose write access is permanent here) so that
   hybrid protocols can replicate on read. *)
let read_server rt ~node ~page ~requester =
  if requester <> node then begin
    let e = Runtime.entry rt ~node ~page in
    Protocol_lib.with_entry rt e (fun () ->
        if e.Page_table.prob_owner = node then
          Li_hudak.serve_read rt ~node ~page ~requester ~grant_downgrades_owner:false
        else
          Dsm_comm.send_request rt ~to_:e.Page_table.prob_owner ~page
            ~mode:Dsmpm2_mem.Access.Read ~requester)
  end

let write_server _rt ~node ~page ~requester =
  failwith
    (Printf.sprintf
       "migrate_thread: node %d received a write request for page %d from %d \
        (pages never migrate under this protocol)"
       node page requester)

let invalidate_server rt ~node ~page ~sender:_ =
  let e = Runtime.entry rt ~node ~page in
  Protocol_lib.with_entry rt e (fun () ->
      if e.Page_table.prob_owner <> node then Protocol_lib.drop_copy rt ~node ~page)

let receive_page_server rt ~node ~msg =
  let e = Runtime.entry rt ~node ~page:msg.Protocol.page in
  Protocol_lib.with_entry rt e (fun () ->
      Protocol_lib.install_page rt ~node msg;
      Protocol_lib.client_overhead rt;
      Protocol_lib.complete_fault rt e)

let protocol =
  {
    Protocol.name = "migrate_thread";
    detection = Protocol.Page_fault;
    model = Protocol.Sequential;
    read_fault = migrate_on_fault;
    write_fault = migrate_on_fault;
    read_server;
    write_server;
    invalidate_server;
    receive_page_server;
    lock_acquire = Protocol.no_action;
    lock_release = Protocol.no_action;
    on_local_write = None;
    on_local_read = None;
    on_page_init = None;
  }
