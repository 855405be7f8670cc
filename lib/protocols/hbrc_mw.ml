open Dsmpm2_mem
open Dsmpm2_core

type hbrc_state = { mutable dirty : int list }
type Page_table.ext += Hbrc_state of hbrc_state

let protocol_id rt =
  match Protocol.find_by_name rt.Runtime.registry "hbrc_mw" with
  | Some (id, _) -> id
  | None -> failwith "hbrc_mw: protocol not registered"

let state rt ~node =
  let table = Runtime.table rt node in
  let id = protocol_id rt in
  match Page_table.node_ext table ~protocol:id with
  | Hbrc_state s -> s
  | _ ->
      let s = { dirty = [] } in
      Page_table.set_node_ext table ~protocol:id (Hbrc_state s);
      s

let mark_dirty rt ~node ~page =
  let s = state rt ~node in
  if not (List.mem page s.dirty) then s.dirty <- page :: s.dirty

let clear_dirty rt ~node ~page =
  let s = state rt ~node in
  s.dirty <- List.filter (fun p -> p <> page) s.dirty

let dirty_pages rt ~node = List.sort Int.compare (state rt ~node).dirty

let read_fault rt ~node ~page =
  let e = Runtime.entry rt ~node ~page in
  Protocol_lib.fetch_page rt ~node ~page ~mode:Access.Read ~from:e.Page_table.home

let write_fault rt ~node ~page =
  let e = Runtime.entry rt ~node ~page in
  if node = e.Page_table.home then
    failwith "hbrc_mw: write fault on the home node (home always has write access)";
  (* The local-copy check is only trustworthy under the entry mutex: an
     invalidation may drop the copy while we block on it, and twinning a
     vanished frame would manufacture a page of zeroes. *)
  let action =
    Protocol_lib.with_entry rt e (fun () ->
        if e.Page_table.faulting then begin
          Protocol_lib.wait_while_faulting rt e;
          `Retry
        end
        else if Page_table.allows e Access.Write then `Done
        else if Page_table.allows e Access.Read then begin
          (* A clean local copy: twin it and upgrade in place (multiple
             writers may do this concurrently on distinct nodes). *)
          Protocol_lib.make_twin rt ~node e;
          Page_table.set_rights e Access.Read_write;
          mark_dirty rt ~node ~page;
          `Done
        end
        else `Fetch)
  in
  match action with
  | `Done | `Retry -> ()
  | `Fetch ->
      (* No copy at all: fetch one from the home; the receive action twins
         it when the fault was for write. *)
      Protocol_lib.fetch_page rt ~node ~page ~mode:Access.Write
        ~from:e.Page_table.home

(* The home serves every request (fixed distributed manager). *)
let serve_at_home rt ~node ~page ~requester ~mode =
  let e = Runtime.entry rt ~node ~page in
  Protocol_lib.with_entry rt e (fun () ->
      if node <> e.Page_table.home then
        Dsm_comm.send_request rt ~to_:e.Page_table.home ~page ~mode ~requester
      else begin
        Protocol_lib.server_overhead rt;
        Page_table.copyset_add e requester;
        let grant =
          match mode with
          | Access.Read -> Access.Read_only
          | Access.Write -> Access.Read_write
        in
        Dsm_comm.send_page rt ~to_:requester ~page ~grant ~ownership:false
          ~copyset:[] ~req_mode:mode
      end)

let read_server rt ~node ~page ~requester =
  if requester <> node then serve_at_home rt ~node ~page ~requester ~mode:Access.Read

let write_server rt ~node ~page ~requester =
  if requester <> node then serve_at_home rt ~node ~page ~requester ~mode:Access.Write

(* Flush this node's modifications of [page] to the home (if dirty) and
   forget the local copy.  Entry mutex must be held.  The copy drops to
   read-only before the diff round trip: a local write made while the RPC
   blocks would land after the diff was computed and vanish with the copy,
   so it must fault (and wait on the entry mutex) instead. *)
let flush_and_drop rt ~node (e : Page_table.entry) =
  let page = e.Page_table.page in
  if Page_table.rights e = Access.Read_write then Page_table.set_rights e Access.Read_only;
  (match Protocol_lib.diff_against_twin rt ~node e with
  | Some diff -> Dsm_comm.call_diffs rt ~to_:e.Page_table.home ~diffs:[ diff ] ~release:false
  | None -> ());
  clear_dirty rt ~node ~page;
  Protocol_lib.drop_copy rt ~node ~page

let invalidate_server rt ~node ~page ~sender:_ =
  let e = Runtime.entry rt ~node ~page in
  Protocol_lib.with_entry rt e (fun () ->
      if node <> e.Page_table.home then flush_and_drop rt ~node e)

let receive_page_server rt ~node ~msg =
  let e = Runtime.entry rt ~node ~page:msg.Protocol.page in
  Protocol_lib.with_entry rt e (fun () ->
      Protocol_lib.install_page rt ~node msg;
      (match msg.Protocol.req_mode with
      | Access.Write ->
          Protocol_lib.make_twin rt ~node e;
          mark_dirty rt ~node ~page:msg.Protocol.page
      | Access.Read -> ());
      Protocol_lib.client_overhead rt;
      Protocol_lib.complete_fault rt e)

(* Release: compute diffs of every dirty page and push them to the homes
   (release-tagged, so each home then invalidates third-party copies); keep
   our copy read-only with a fresh fault required before the next write. *)
let lock_release rt ~node ~lock:_ =
  let s = state rt ~node in
  let dirty = List.sort Int.compare s.dirty in
  s.dirty <- [];
  let diffs_with_home =
    List.filter_map
      (fun page ->
        let e = Runtime.entry rt ~node ~page in
        Protocol_lib.with_entry rt e (fun () ->
            let diff = Protocol_lib.diff_against_twin rt ~node e in
            e.Page_table.twin <- None;
            if node <> e.Page_table.home then Page_table.set_rights e Access.Read_only;
            Option.map (fun d -> (e.Page_table.home, d)) diff))
      dirty
  in
  Protocol_lib.send_diffs_grouped rt ~release:true diffs_with_home

(* Acquire: conservatively forget every cached hbrc page so the next access
   refetches the post-release reference copy from the home. *)
let lock_acquire rt ~node ~lock:_ =
  let id = protocol_id rt in
  Page_table.iter (Runtime.table rt node) (fun e ->
      if
        e.Page_table.protocol = id
        && node <> e.Page_table.home
        && Page_table.rights e <> Access.No_access
        && not e.Page_table.faulting
      then Protocol_lib.with_entry rt e (fun () -> flush_and_drop rt ~node e))

(* Home-side processing of release-tagged diff batches: apply every diff,
   then invalidate third-party copies (each of which flushes its own diffs
   back first).  The invalidations of the whole batch are coalesced into one
   RPC per copyset node — O(copyset) messages per release, not
   O(pages x copyset). *)
let on_diffs_batch rt ~node ~diffs ~sender ~release =
  List.iter (fun diff -> Dsm_comm.apply_diff_locally rt ~node diff) diffs;
  if release then begin
    let copies =
      List.concat_map
        (fun diff ->
          let page = diff.Diff.page in
          let e = Runtime.entry rt ~node ~page in
          Protocol_lib.with_entry rt e (fun () ->
              let targets =
                List.filter (fun n -> n <> sender && n <> node) e.Page_table.copyset
              in
              e.Page_table.copyset <-
                (if List.mem sender e.Page_table.copyset then [ sender ] else []);
              List.map (fun target -> (target, page)) targets))
        diffs
    in
    Protocol_lib.invalidate_copies_many rt ~copies
  end

let register_diff_handler rt ~protocol =
  Dsm_comm.set_diffs_handler rt ~protocol on_diffs_batch

let protocol =
  {
    Protocol.name = "hbrc_mw";
    detection = Protocol.Page_fault;
    model = Protocol.Release;
    read_fault;
    write_fault;
    read_server;
    write_server;
    invalidate_server;
    receive_page_server;
    lock_acquire;
    lock_release;
    on_local_write = None;
    on_local_read = None;
    on_page_init = None;
  }
