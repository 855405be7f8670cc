open Dsmpm2_mem
open Dsmpm2_core

type erc_state = { mutable written : int list }
type Page_table.ext += Erc_state of erc_state

let protocol_id rt =
  match Protocol.find_by_name rt.Runtime.registry "erc_sw" with
  | Some (id, _) -> id
  | None -> failwith "erc_sw: protocol not registered"

let state rt ~node =
  let table = Runtime.table rt node in
  let id = protocol_id rt in
  match Page_table.node_ext table ~protocol:id with
  | Erc_state s -> s
  | _ ->
      let s = { written = [] } in
      Page_table.set_node_ext table ~protocol:id (Erc_state s);
      s

let mark_written rt ~node ~page =
  let s = state rt ~node in
  if not (List.mem page s.written) then s.written <- page :: s.written

let pending_writes rt ~node = List.sort Int.compare (state rt ~node).written

let read_fault rt ~node ~page =
  let e = Runtime.entry rt ~node ~page in
  Protocol_lib.fetch_page rt ~node ~page ~mode:Access.Read ~from:e.Page_table.prob_owner

let write_fault rt ~node ~page =
  let e = Runtime.entry rt ~node ~page in
  (* As in li_hudak, ownership is only trustworthy under the entry mutex:
     it may be shipped away while we block on it. *)
  let action =
    Protocol_lib.with_entry rt e (fun () ->
        if e.Page_table.faulting then begin
          Protocol_lib.wait_while_faulting rt e;
          `Retry
        end
        else if Page_table.allows e Access.Write then `Done
        else if e.Page_table.prob_owner = node then begin
          (* Upgrade in place without invalidating readers: their copies
             stay valid (stale) until our next release. *)
          Page_table.set_rights e Access.Read_write;
          mark_written rt ~node ~page;
          `Done
        end
        else `Fetch)
  in
  match action with
  | `Done | `Retry -> ()
  | `Fetch ->
      Protocol_lib.fetch_page rt ~node ~page ~mode:Access.Write
        ~from:e.Page_table.prob_owner;
      if Page_table.allows e Access.Write then
        mark_written rt ~node ~page

let read_server rt ~node ~page ~requester =
  if requester <> node then begin
    let e = Runtime.entry rt ~node ~page in
    Protocol_lib.with_entry rt e (fun () ->
        Protocol_lib.wait_for_service rt e;
        if e.Page_table.prob_owner = node then begin
          (* The owner keeps its write access under release consistency: the
             new reader sees the page as of now and is invalidated at the
             owner's next release. *)
          Li_hudak.serve_read rt ~node ~page ~requester ~grant_downgrades_owner:false;
          if Page_table.allows e Access.Write then
            mark_written rt ~node ~page
        end
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
          (* Ownership migrates with write access; no invalidations now.
             The copyset travels with the page, extended with ourselves —
             we keep a (possibly staling) read-only copy.  If we dirtied
             the page under a lock we have not released yet, we must also
             RETAIN the copyset: our release is still obliged to invalidate
             every copy that predates our writes, and the new owner's
             release may come too late for the next acquirer of our lock.
             Both sides flushing the same holder is harmless — a stale
             invalidation at a node that re-fetched (or became owner) is
             ignored or just forces a re-fetch. *)
          let others = List.filter (fun n -> n <> requester) e.Page_table.copyset in
          let copyset = List.sort_uniq Int.compare (node :: others) in
          Dsm_comm.send_page rt ~to_:requester ~page ~grant:Access.Read_write
            ~ownership:true ~copyset ~req_mode:Access.Write;
          e.Page_table.prob_owner <- requester;
          e.Page_table.copyset <-
            (if List.mem page (state rt ~node).written then others else []);
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
        (* Merge rather than overwrite: a copyset retained across an
           ownership migration (dirty page, see [write_server]) must not be
           dropped when ownership bounces back before our release. *)
        e.Page_table.copyset <-
          List.sort_uniq Int.compare
            (List.filter (fun n -> n <> node) msg.Protocol.copyset
            @ e.Page_table.copyset)
      end
      else e.Page_table.prob_owner <- msg.Protocol.sender;
      Protocol_lib.client_overhead rt;
      Protocol_lib.complete_fault rt e)

(* Release: flush the eager invalidations for every page written since the
   previous release.  Pages whose ownership has since moved on still carry
   the copyset we retained at migration time (see [write_server]), so our
   release invalidates every copy that predates our writes even when we are
   no longer the owner — the current owner simply ignores a stale
   invalidation.  The per-page copysets are collected under the entry
   mutexes first, then the whole release goes out as one batched
   invalidation RPC per copy holder — O(copyset) messages, not
   O(pages x copyset). *)
let lock_release rt ~node ~lock:_ =
  let s = state rt ~node in
  let written = List.sort Int.compare s.written in
  let copies =
    List.concat_map
      (fun page ->
        let e = Runtime.entry rt ~node ~page in
        Protocol_lib.with_entry rt e (fun () ->
            let copies = List.map (fun target -> (target, page)) e.Page_table.copyset in
            e.Page_table.copyset <- [];
            copies))
      written
  in
  (* Cleared only after the collection loop: a server fiber migrating one of
     these pages away mid-release must still see it as written so it retains
     the copyset (see [write_server]) instead of shipping our invalidation
     obligation to the new owner. *)
  s.written <- List.filter (fun p -> not (List.mem p written)) s.written;
  Protocol_lib.invalidate_copies_many rt ~copies

let protocol =
  {
    Protocol.name = "erc_sw";
    detection = Protocol.Page_fault;
    model = Protocol.Release;
    read_fault;
    write_fault;
    read_server;
    write_server;
    invalidate_server;
    receive_page_server;
    lock_acquire = Protocol.no_action;
    lock_release;
    on_local_write = None;
    on_local_read = None;
    on_page_init = None;
  }
