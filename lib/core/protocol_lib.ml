open Dsmpm2_sim
open Dsmpm2_pm2
open Dsmpm2_mem

let charge_span rt cell us =
  Marcel.compute (Runtime.marcel rt) us;
  Stats.record cell (Time.of_us us)

let server_overhead rt =
  charge_span rt rt.Runtime.cells.Instrument.server rt.Runtime.costs.protocol_server_us

let client_overhead rt =
  charge_span rt rt.Runtime.cells.Instrument.client rt.Runtime.costs.protocol_client_us

let migration_overhead rt =
  charge_span rt rt.Runtime.cells.Instrument.client rt.Runtime.costs.migration_protocol_us

let with_entry rt (e : Page_table.entry) f =
  let marcel = Runtime.marcel rt in
  Marcel.Mutex.lock marcel e.entry_mutex;
  match f () with
  | v -> Marcel.Mutex.unlock marcel e.entry_mutex; v
  | exception ex -> Marcel.Mutex.unlock marcel e.entry_mutex; raise ex

let wait_while_faulting rt (e : Page_table.entry) =
  let marcel = Runtime.marcel rt in
  while e.faulting do
    Marcel.Cond.wait marcel e.fault_done e.entry_mutex
  done

let complete_fault rt (e : Page_table.entry) =
  (* Pin the page until the faulting thread has retried its access, so a
     queued remote request cannot snatch the page first (the retry happens
     inside the fault handler in a SIGSEGV-based implementation). *)
  if e.faulting then e.pinned <- true;
  e.faulting <- false;
  Marcel.Cond.broadcast (Runtime.marcel rt) e.fault_done

let wait_for_service rt (e : Page_table.entry) =
  let marcel = Runtime.marcel rt in
  while e.faulting || e.pinned do
    Marcel.Cond.wait marcel e.fault_done e.entry_mutex
  done

let[@inline] unpin rt (e : Page_table.entry) =
  if e.pinned then begin
    e.pinned <- false;
    Marcel.Cond.broadcast (Runtime.marcel rt) e.fault_done
  end

let fetch_page rt ~node ~page ~mode ~from =
  let e = Runtime.entry rt ~node ~page in
  with_entry rt e (fun () ->
      if e.faulting then
        (* Coalesce with the in-flight fault; the caller re-checks rights. *)
        wait_while_faulting rt e
      else begin
        e.faulting <- true;
        Dsm_comm.send_request rt ~to_:from ~page ~mode ~requester:node;
        wait_while_faulting rt e
      end)

let install_page rt ~node (msg : Protocol.page_message) =
  (* The message's [data] was copied out of the sender's frame at send time
     and is read nowhere else, so the receiver adopts it instead of copying
     again: one copy per transfer, not two. *)
  Frame_store.install_owned (Runtime.store rt node) msg.Protocol.page
    msg.Protocol.data;
  let e = Runtime.entry rt ~node ~page:msg.Protocol.page in
  e.rights <- msg.Protocol.grant

let invalidate_copies_many rt ~pages_by_target =
  let node = Runtime.self_node rt in
  let marcel = Runtime.marcel rt in
  let merged = Hashtbl.create 8 in
  List.iter
    (fun (target, pages) ->
      if target <> node then
        Hashtbl.replace merged target
          (List.rev_append pages
             (Option.value ~default:[] (Hashtbl.find_opt merged target))))
    pages_by_target;
  let batches =
    Hashtbl.fold
      (fun target pages acc ->
        match List.sort_uniq Int.compare pages with
        | [] -> acc
        | pages -> (target, pages) :: acc)
      merged []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  (* Helper threads have their own tids, so the caller's span would be lost;
     capture it here and thread it through explicitly. *)
  let span = Monitor.current_span rt in
  match batches with
  | [] -> ()
  | [ (target, pages) ] -> Dsm_comm.call_invalidate_batch rt ~span ~to_:target ~pages ()
  | batches ->
      let helpers =
        List.map
          (fun (target, pages) ->
            Marcel.spawn marcel ~node (fun () ->
                Dsm_comm.call_invalidate_batch rt ~span ~to_:target ~pages ()))
          batches
      in
      List.iter (fun th -> Marcel.join marcel th) helpers

let invalidate_copies rt ~page ~targets =
  invalidate_copies_many rt
    ~pages_by_target:
      (List.map (fun target -> (target, [ page ])) (List.sort_uniq Int.compare targets))

let send_diffs_grouped rt ~release diffs_with_home =
  let node = Runtime.self_node rt in
  let marcel = Runtime.marcel rt in
  let by_home = Hashtbl.create 4 in
  List.iter
    (fun (home, d) ->
      Hashtbl.replace by_home home
        (d :: Option.value ~default:[] (Hashtbl.find_opt by_home home)))
    diffs_with_home;
  let batches =
    Hashtbl.fold (fun home diffs acc -> (home, List.rev diffs) :: acc) by_home []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  match batches with
  | [] -> ()
  | [ (home, diffs) ] -> Dsm_comm.call_diffs rt ~to_:home ~diffs ~release
  | batches ->
      let helpers =
        List.map
          (fun (home, diffs) ->
            Marcel.spawn marcel ~node (fun () ->
                Dsm_comm.call_diffs rt ~to_:home ~diffs ~release))
          batches
      in
      List.iter (fun th -> Marcel.join marcel th) helpers

let push_diffs rt ~targets ~diffs ~release =
  let node = Runtime.self_node rt in
  let marcel = Runtime.marcel rt in
  let targets =
    match targets with
    | [ target ] -> if target = node then [] else targets
    | _ -> List.sort_uniq Int.compare (List.filter (fun n -> n <> node) targets)
  in
  match targets with
  | [] -> ()
  | [ target ] -> Dsm_comm.call_diffs rt ~to_:target ~diffs ~release
  | targets ->
      let helpers =
        List.map
          (fun target ->
            Marcel.spawn marcel ~node (fun () ->
                Dsm_comm.call_diffs rt ~to_:target ~diffs ~release))
          targets
      in
      List.iter (fun th -> Marcel.join marcel th) helpers

let drop_copy rt ~node ~page =
  let e = Runtime.entry rt ~node ~page in
  e.rights <- Access.No_access;
  e.twin <- None;
  Frame_store.drop (Runtime.store rt node) page

let make_twin rt ~node (e : Page_table.entry) =
  e.twin <- Some (Diff.make_twin (Frame_store.frame (Runtime.store rt node) e.page))

let diff_against_twin rt ~node (e : Page_table.entry) =
  match e.twin with
  | None -> None
  | Some twin ->
      let current = Frame_store.frame (Runtime.store rt node) e.page in
      let diff = Diff.compute ~page:e.page ~twin ~current in
      if Diff.is_empty diff then None else Some diff
