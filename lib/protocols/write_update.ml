open Dsmpm2_mem
open Dsmpm2_core

(* Fault handling shares erc_sw's shape: replication on reads (owner keeps
   write access), ownership-plus-copyset migration on writes, previous
   owner demoted to a reader.  The difference is all in [on_local_write]:
   committed words are pushed to the copyset instead of copies being
   invalidated at synchronization points. *)

let read_fault rt ~node ~page =
  let e = Runtime.entry rt ~node ~page in
  Protocol_lib.fetch_page rt ~node ~page ~mode:Access.Read ~from:e.Page_table.prob_owner

let write_fault rt ~node ~page =
  let e = Runtime.entry rt ~node ~page in
  let action =
    Protocol_lib.with_entry rt e (fun () ->
        if e.Page_table.faulting then begin
          Protocol_lib.wait_while_faulting rt e;
          `Retry
        end
        else if Page_table.allows e Access.Write then `Done
        else if e.Page_table.prob_owner = node then begin
          (* owner demoted to reader never happens here (reads don't
             downgrade), but ownership received with a read grant does *)
          Page_table.set_rights e Access.Read_write;
          `Done
        end
        else `Fetch)
  in
  match action with
  | `Done | `Retry -> ()
  | `Fetch ->
      Protocol_lib.fetch_page rt ~node ~page ~mode:Access.Write
        ~from:e.Page_table.prob_owner

let read_server rt ~node ~page ~requester =
  if requester <> node then begin
    let e = Runtime.entry rt ~node ~page in
    Protocol_lib.with_entry rt e (fun () ->
        Protocol_lib.wait_for_service rt e;
        if e.Page_table.prob_owner = node then
          (* the owner keeps writing; the new reader will be kept current
             by the update pushes *)
          Li_hudak.serve_read rt ~node ~page ~requester ~grant_downgrades_owner:false
        else
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
          let copyset =
            List.sort_uniq Int.compare
              (node :: List.filter (fun n -> n <> requester) e.Page_table.copyset)
          in
          Dsm_comm.send_page rt ~to_:requester ~page ~grant:Access.Read_write
            ~ownership:true ~copyset ~req_mode:Access.Write;
          e.Page_table.prob_owner <- requester;
          e.Page_table.copyset <- [];
          Page_table.set_rights e Access.Read_only
        end
        else begin
          Dsm_comm.send_request rt ~to_:e.Page_table.prob_owner ~page
            ~mode:Access.Write ~requester;
          e.Page_table.prob_owner <- requester
        end)
  end

let invalidate_server rt ~node ~page ~sender:_ =
  let e = Runtime.entry rt ~node ~page in
  Protocol_lib.with_entry rt e (fun () ->
      if e.Page_table.prob_owner <> node then Protocol_lib.drop_copy rt ~node ~page)

let receive_page_server rt ~node ~msg =
  let e = Runtime.entry rt ~node ~page:msg.Protocol.page in
  Protocol_lib.with_entry rt e (fun () ->
      Protocol_lib.install_page rt ~node msg;
      if msg.Protocol.ownership then begin
        e.Page_table.prob_owner <- node;
        e.Page_table.copyset <- List.filter (fun n -> n <> node) msg.Protocol.copyset
      end
      else e.Page_table.prob_owner <- msg.Protocol.sender;
      Protocol_lib.client_overhead rt;
      Protocol_lib.complete_fault rt e)

(* The update push: every committed word goes to every copy holder, and the
   writer blocks until all acknowledged — writes by one node are therefore
   seen everywhere in program order (FIFO links do the rest). *)
let on_local_write rt ~node ~page ~offset ~value =
  let e = Runtime.entry rt ~node ~page in
  if e.Page_table.prob_owner = node && e.Page_table.copyset <> [] then begin
    let diff = Diff.of_words ~geometry:rt.Runtime.geo ~page [ (offset, value) ] in
    Protocol_lib.push_diffs rt ~targets:e.Page_table.copyset ~diffs:[ diff ]
      ~release:false
  end

let protocol =
  {
    Protocol.name = "write_update";
    detection = Protocol.Page_fault;
    (* Processor consistency, checked under the release/happens-before rule:
       a remote replica serves (program-order-consistent) stale reads during
       the synchronous update push, so the per-location real-time rule of
       [Sequential] does not hold — see the litmus sweep, where MP is
       forbidden but SB is observable. *)
    model = Protocol.Release;
    read_fault;
    write_fault;
    read_server;
    write_server;
    invalidate_server;
    receive_page_server;
    lock_acquire = Protocol.no_action;
    lock_release = Protocol.no_action;
    on_local_write = Some on_local_write;
    on_local_read = None;
    on_page_init = None;
  }
