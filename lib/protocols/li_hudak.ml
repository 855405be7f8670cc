open Dsmpm2_mem
open Dsmpm2_core

let read_fault rt ~node ~page =
  let e = Runtime.entry rt ~node ~page in
  Protocol_lib.fetch_page rt ~node ~page ~mode:Access.Read ~from:e.Page_table.prob_owner

let write_fault rt ~node ~page =
  let e = Runtime.entry rt ~node ~page in
  (* Ownership must be validated *under* the entry mutex: a concurrent
     server thread may be shipping the page (and ownership) away while we
     block on the mutex, and upgrading a page we no longer hold would
     resurrect a stale (or empty) frame with write rights — a lost-update
     bug.  If ownership is gone by the time we hold the mutex, fall back to
     the ordinary fetch. *)
  let action =
    Protocol_lib.with_entry rt e (fun () ->
        if e.Page_table.faulting then begin
          Protocol_lib.wait_while_faulting rt e;
          `Retry
        end
        else if Page_table.allows e Access.Write then `Done
        else if e.Page_table.prob_owner = node then begin
          (* We own the page but readers hold copies: upgrade in place after
             invalidating every copy (sequential consistency).  The mutex is
             held throughout, so ownership cannot move under us. *)
          e.Page_table.faulting <- true;
          Protocol_lib.invalidate_copies rt ~page ~targets:e.Page_table.copyset;
          e.Page_table.copyset <- [];
          Page_table.set_rights e Access.Read_write;
          Protocol_lib.complete_fault rt e;
          `Done
        end
        else `Fetch)
  in
  match action with
  | `Done | `Retry -> () (* ensure_access re-checks the rights either way *)
  | `Fetch ->
      Protocol_lib.fetch_page rt ~node ~page ~mode:Access.Write
        ~from:e.Page_table.prob_owner

let serve_read rt ~node ~page ~requester ~grant_downgrades_owner =
  let e = Runtime.entry rt ~node ~page in
  Protocol_lib.server_overhead rt;
  if grant_downgrades_owner then Page_table.set_rights e Access.Read_only;
  Page_table.copyset_add e requester;
  Dsm_comm.send_page rt ~to_:requester ~page ~grant:Access.Read_only ~ownership:false
    ~copyset:[] ~req_mode:Access.Read

let read_server rt ~node ~page ~requester =
  if requester <> node then begin
    let e = Runtime.entry rt ~node ~page in
    Protocol_lib.with_entry rt e (fun () ->
        Protocol_lib.wait_for_service rt e;
        if e.Page_table.prob_owner = node then
          serve_read rt ~node ~page ~requester ~grant_downgrades_owner:true
        else
          (* Not the owner: forward along the probable-owner chain (the
             owner is unchanged by reads, so no path compression here). *)
          Dsm_comm.send_request rt ~to_:e.Page_table.prob_owner ~page
            ~mode:Access.Read ~requester)
  end

let write_server rt ~node ~page ~requester =
  if requester <> node then begin
    let e = Runtime.entry rt ~node ~page in
    Protocol_lib.with_entry rt e (fun () ->
        Protocol_lib.wait_for_service rt e;
        if e.Page_table.prob_owner = node then begin
          Protocol_lib.server_overhead rt;
          (* Invalidate every copy except the requester's own, then ship the
             page together with ownership. *)
          let targets =
            List.filter (fun n -> n <> requester) e.Page_table.copyset
          in
          Protocol_lib.invalidate_copies rt ~page ~targets;
          Dsm_comm.send_page rt ~to_:requester ~page ~grant:Access.Read_write
            ~ownership:true ~copyset:[] ~req_mode:Access.Write;
          e.Page_table.prob_owner <- requester;
          e.Page_table.copyset <- [];
          Protocol_lib.drop_copy rt ~node ~page
        end
        else begin
          (* Forward and compress the path: the requester is about to become
             the owner. *)
          Dsm_comm.send_request rt ~to_:e.Page_table.prob_owner ~page
            ~mode:Access.Write ~requester;
          e.Page_table.prob_owner <- requester
        end)
  end

let invalidate_server rt ~node ~page ~sender:_ =
  let e = Runtime.entry rt ~node ~page in
  Protocol_lib.with_entry rt e (fun () ->
      (* Never wait on an in-flight fault here (the owner blocks on our ack
         while our fault waits on the owner), and ignore stale invalidations
         that raced with an ownership grant to this node. *)
      if e.Page_table.prob_owner <> node then
        Protocol_lib.drop_copy rt ~node ~page)

let receive_page_server rt ~node ~msg =
  let e = Runtime.entry rt ~node ~page:msg.Protocol.page in
  Protocol_lib.with_entry rt e (fun () ->
      Protocol_lib.install_page rt ~node msg;
      if msg.Protocol.ownership then begin
        e.Page_table.prob_owner <- node;
        e.Page_table.copyset <- msg.Protocol.copyset
      end
      else e.Page_table.prob_owner <- msg.Protocol.sender;
      Protocol_lib.client_overhead rt;
      Protocol_lib.complete_fault rt e)

let protocol =
  {
    Protocol.name = "li_hudak";
    detection = Protocol.Page_fault;
    model = Protocol.Sequential;
    read_fault;
    write_fault;
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
