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
  if e.faulting then Page_table.set_pinned e true;
  e.faulting <- false;
  Marcel.Cond.broadcast (Runtime.marcel rt) e.fault_done

let wait_for_service rt (e : Page_table.entry) =
  let marcel = Runtime.marcel rt in
  while e.faulting || Page_table.pinned e do
    Marcel.Cond.wait marcel e.fault_done e.entry_mutex
  done

let[@inline] unpin rt (e : Page_table.entry) =
  if Page_table.pinned e then begin
    Page_table.set_pinned e false;
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
  Page_table.set_rights e msg.Protocol.grant

(* The runs of equal keys in [sorted], a key-sorted pair list, as
   [(key, values)] with the values in list order. *)
let runs sorted =
  let rec run key vs = function
    | (k, v) :: rest when Int.equal k key -> run key (v :: vs) rest
    | rest -> ((key, List.rev vs), rest)
  in
  let rec go acc = function
    | [] -> List.rev acc
    | (key, v) :: rest ->
        let batch, rest = run key [ v ] rest in
        go (batch :: acc) rest
  in
  go [] sorted

let compare_pair (t1, p1) (t2, p2) =
  let c = Int.compare t1 t2 in
  if c <> 0 then c else Int.compare p1 p2

let invalidation_batches ~self copies =
  runs (List.sort_uniq compare_pair (List.filter (fun (target, _) -> target <> self) copies))

let group_by_key pairs = runs (List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) pairs)

(* Sends every batch with [send]: one batch from the calling thread,
   several from helper threads on [node], spawned in batch order, then
   waits for them all. *)
let fan_out rt ~node send = function
  | [] -> ()
  | [ batch ] -> send batch
  | batches ->
      let marcel = Runtime.marcel rt in
      let helpers =
        List.map (fun batch -> Marcel.spawn marcel ~node (fun () -> send batch)) batches
      in
      List.iter (fun th -> Marcel.join marcel th) helpers

let invalidate_copies_many rt ~copies =
  let node = Runtime.self_node rt in
  (* Helper threads have their own tids, so the caller's span would be lost;
     capture it here and thread it through explicitly. *)
  let span = Monitor.current_span rt in
  fan_out rt ~node
    (fun (target, pages) -> Dsm_comm.call_invalidate_batch rt ~span ~to_:target ~pages ())
    (invalidation_batches ~self:node copies)

let invalidate_copies rt ~page ~targets =
  invalidate_copies_many rt ~copies:(List.map (fun target -> (target, page)) targets)

let send_diffs_grouped rt ~release diffs_with_home =
  fan_out rt ~node:(Runtime.self_node rt)
    (fun (home, diffs) -> Dsm_comm.call_diffs rt ~to_:home ~diffs ~release)
    (group_by_key diffs_with_home)

(* Whether [targets] is strictly increasing and leaves out [node], as the
   copysets [Page_table.copyset_add] keeps sorted are. *)
let rec sorted_without node = function
  | [] -> true
  | [ n ] -> n <> node
  | n :: (m :: _ as rest) -> n <> node && n < m && sorted_without node rest

let push_diffs rt ~targets ~diffs ~release =
  let node = Runtime.self_node rt in
  let targets =
    if sorted_without node targets then targets
    else List.sort_uniq Int.compare (List.filter (fun n -> n <> node) targets)
  in
  fan_out rt ~node (fun target -> Dsm_comm.call_diffs rt ~to_:target ~diffs ~release) targets

let drop_copy rt ~node ~page =
  let e = Runtime.entry rt ~node ~page in
  Page_table.set_rights e Access.No_access;
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
