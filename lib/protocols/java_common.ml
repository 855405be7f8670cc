open Dsmpm2_mem
open Dsmpm2_core

(* Per-node on-the-fly modification log: page -> (offset, value) records,
   newest first. *)
type java_state = { records : (int, (int * int) list) Hashtbl.t }
type Page_table.ext += Java_state of java_state

let state rt ~node ~protocol =
  let table = Runtime.table rt node in
  match Page_table.node_ext table ~protocol with
  | Java_state s -> s
  | Page_table.No_ext ->
      let s = { records = Hashtbl.create 16 } in
      Page_table.set_node_ext table ~protocol (Java_state s);
      s
  | _ ->
      invalid_arg
        (Printf.sprintf
           "Java_common: protocol %d keeps its own state on node %d, not Java records"
           protocol node)

let id_of rt name =
  match Protocol.find_by_name rt.Runtime.registry name with
  | Some (id, _) -> id
  | None -> failwith (name ^ ": protocol not registered")

let recorded_words rt ~node ~page =
  (* Works for whichever java variant owns the page. *)
  let e = Runtime.entry rt ~node ~page in
  let s = state rt ~node ~protocol:e.Page_table.protocol in
  List.rev (Option.value ~default:[] (Hashtbl.find_opt s.records page))

let record_write rt ~node ~page ~offset ~value =
  let e = Runtime.entry rt ~node ~page in
  if node <> e.Page_table.home then begin
    let s = state rt ~node ~protocol:e.Page_table.protocol in
    let existing = Option.value ~default:[] (Hashtbl.find_opt s.records page) in
    Hashtbl.replace s.records page ((offset, value) :: existing)
  end

let flush_selected rt ~node ~protocol ~only =
  let s = state rt ~node ~protocol in
  let selected page =
    match only with None -> true | Some pages -> List.mem page pages
  in
  let pages =
    Hashtbl.fold
      (fun page records acc ->
        if selected page then (page, List.rev records) :: acc else acc)
      s.records []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  List.iter (fun (page, _) -> Hashtbl.remove s.records page) pages;
  let diffs_with_home =
    List.filter_map
      (fun (page, words) ->
        let diff = Diff.of_words ~geometry:rt.Runtime.geo ~page words in
        if Diff.is_empty diff then None
        else
          let e = Runtime.entry rt ~node ~page in
          Some (e.Page_table.home, diff))
      pages
  in
  Protocol_lib.send_diffs_grouped rt ~release:false diffs_with_home

let flush_records rt ~node ~protocol = flush_selected rt ~node ~protocol ~only:None

let drop_selected rt ~node ~protocol ~only =
  flush_selected rt ~node ~protocol ~only;
  let selected page =
    match only with None -> true | Some pages -> List.mem page pages
  in
  Page_table.iter (Runtime.table rt node) (fun e ->
      if
        e.Page_table.protocol = protocol
        && node <> e.Page_table.home
        && Page_table.rights e <> Access.No_access
        && (not e.Page_table.faulting)
        && selected e.Page_table.page
      then
        Protocol_lib.with_entry rt e (fun () ->
            Protocol_lib.drop_copy rt ~node ~page:e.Page_table.page))

let fetch rt ~node ~page ~mode =
  let e = Runtime.entry rt ~node ~page in
  Protocol_lib.fetch_page rt ~node ~page ~mode ~from:e.Page_table.home

let read_fault rt ~node ~page = fetch rt ~node ~page ~mode:Access.Read
let write_fault rt ~node ~page = fetch rt ~node ~page ~mode:Access.Write

(* The home manages the reference copy and serves every request.  Caches are
   granted read-write: writes to cached objects are legal under the JMM and
   are captured by the modification log, not by further faults. *)
let serve rt ~node ~page ~requester ~mode =
  let e = Runtime.entry rt ~node ~page in
  Protocol_lib.with_entry rt e (fun () ->
      if node <> e.Page_table.home then
        Dsm_comm.send_request rt ~to_:e.Page_table.home ~page ~mode ~requester
      else begin
        Protocol_lib.server_overhead rt;
        Page_table.copyset_add e requester;
        Dsm_comm.send_page rt ~to_:requester ~page ~grant:Access.Read_write
          ~ownership:false ~copyset:[] ~req_mode:mode
      end)

let read_server rt ~node ~page ~requester =
  if requester <> node then serve rt ~node ~page ~requester ~mode:Access.Read

let write_server rt ~node ~page ~requester =
  if requester <> node then serve rt ~node ~page ~requester ~mode:Access.Write

let invalidate_server rt ~node ~page ~sender:_ =
  let e = Runtime.entry rt ~node ~page in
  Protocol_lib.with_entry rt e (fun () ->
      if node <> e.Page_table.home then Protocol_lib.drop_copy rt ~node ~page)

let receive_page_server rt ~node ~msg =
  let e = Runtime.entry rt ~node ~page:msg.Protocol.page in
  Protocol_lib.with_entry rt e (fun () ->
      Protocol_lib.install_page rt ~node msg;
      Protocol_lib.client_overhead rt;
      Protocol_lib.complete_fault rt e)

(* Monitor exit: transmit local modifications to main memory. *)
let lock_release ~name rt ~node ~lock:_ =
  flush_records rt ~node ~protocol:(id_of rt name)

(* Monitor entry: flush the node's object cache so subsequent accesses
   reload from main memory.  Pending records (writes performed outside any
   monitor) are transmitted first rather than lost. *)
let lock_acquire ~name rt ~node ~lock:_ =
  drop_selected rt ~node ~protocol:(id_of rt name) ~only:None

let on_local_write rt ~node ~page ~offset ~value =
  record_write rt ~node ~page ~offset ~value

(* The home holds main memory and records nothing ([record_write]), so a
   write there the rights allow is a hit: the hook it skips would do
   nothing. *)
let on_page_init rt ~node ~page =
  let e = Runtime.entry rt ~node ~page in
  if node = e.Page_table.home then Page_table.grant_write_hits e

let keeps_records (p : Runtime.t Protocol.t) =
  match p.Protocol.on_local_write with
  | Some hook -> hook == on_local_write
  | None -> false

let make ~name ~detection =
  {
    Protocol.name;
    detection;
    model = Protocol.Java;
    read_fault;
    write_fault;
    read_server;
    write_server;
    invalidate_server;
    receive_page_server;
    lock_acquire = lock_acquire ~name;
    lock_release = lock_release ~name;
    on_local_write = Some on_local_write;
    on_local_read = None;
    on_page_init = Some on_page_init;
  }
