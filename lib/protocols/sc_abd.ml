(* sc_abd: sequentially consistent pages by majority quorum (ABD).

   The Attiya–Bar-Noy–Dolev register emulation, applied per page: every
   replica keeps the page data plus a tag (a Lamport timestamp broken by the
   writer's node id), reads collect tags from a majority and write the
   winning value back to a majority before returning it, writes bump the
   winning tag and install the new value at a majority.  Because any two
   majorities intersect, the protocol stays sequentially consistent (in
   fact atomic) while any minority of nodes is crashed or partitioned —
   the first protocol in this code base that survives the fault plans of
   [Dsm.inject_faults], where the ownership-chain family stalls.

   The price is a quorum round per access: rights are revoked after every
   read ([on_local_read]) and every write ([on_local_write]), so each shared
   access faults and re-runs its round.  This is the classic
   replication/latency trade and the reason the paper's protocols chase
   ownership instead; sc_abd is here for what it tolerates, not its speed. *)

open Dsmpm2_sim
open Dsmpm2_net
open Dsmpm2_pm2
open Dsmpm2_mem
open Dsmpm2_core

(* (ts, origin), compared lexicographically: a writer picks ts one above the
   largest it saw at a majority, so tags totally order writes. *)
type tag = { mutable ts : int; mutable origin : int }
type Page_table.ext += Abd_tag of tag

(* The two quorum services, registered once per runtime by [register] and
   stashed in the per-(node 0, protocol) extension slot. *)
type services = { srv_get : Rpc.service; srv_put : Rpc.service }
type Page_table.ext += Abd_services of services

type Rpc.payload +=
  | Get of { page : int; requester : int }
  | Tag_val of { page : int; ts : int; origin : int; data : bytes }
  | Put of { page : int; ts : int; origin : int; data : bytes; requester : int }

exception
  Quorum_unreachable of { page : int; node : int; got : int; need : int }

let protocol_id rt =
  match Protocol.find_by_name rt.Runtime.registry "sc_abd" with
  | Some (id, _) -> id
  | None -> failwith "sc_abd: protocol not registered"

let services rt =
  match Page_table.node_ext (Runtime.table rt 0) ~protocol:(protocol_id rt) with
  | Abd_services s -> s
  | _ -> failwith "sc_abd: services not registered (use Sc_abd.register)"

let tag_of (e : Page_table.entry) =
  match e.Page_table.ext with
  | Abd_tag t -> t
  | _ ->
      let t = { ts = 0; origin = 0 } in
      e.Page_table.ext <- Abd_tag t;
      t

let quorum rt = (Runtime.nodes rt / 2) + 1

(* --- replica servers (run in a fresh Marcel thread on the replica) --- *)

let handler_node rt = Marcel.node (Marcel.self (Runtime.marcel rt))

(* A quorum message that carries the page counts as a page sent by
   [node]: a replica's [Tag_val] reply and a writer's [Put]. *)
let count_page_sent rt ~node (e : Page_table.entry) =
  Stats.bump
    (Instrument.proto rt.Runtime.cells ~node ~protocol:e.Page_table.protocol)
      .Instrument.send

(* A get never blocks: two nodes with rounds in flight on the same page must
   still answer each other's collect phases, or neither round finishes. *)
let on_get rt ~src:_ payload =
  match payload with
  | Get { page; requester = _ } ->
      let node = handler_node rt in
      let e = Runtime.entry rt ~node ~page in
      Protocol_lib.server_overhead rt;
      Protocol_lib.with_entry rt e (fun () ->
          let t = tag_of e in
          let data =
            Bytes.copy (Frame_store.frame (Runtime.store rt node) page)
          in
          count_page_sent rt ~node e;
          ( Tag_val { page; ts = t.ts; origin = t.origin; data },
            Driver.Bulk (Bytes.length data) ))
  | _ -> invalid_arg "sc_abd: bad payload for get service"

(* A put is delayed only while a retry pin is in flight: between a fault
   completing and the faulting thread performing its access, the settled
   frame must not change under it.  The pin window contains no quorum
   traffic (it closes at the next local rights check), so this wait is
   bounded by local scheduling and can never join a distributed cycle.
   Crucially a put does NOT wait out a whole round ([e.faulting]): two
   nodes with rounds in flight on the same page must accept each other's
   propagate phases, or — with a third replica crashed — neither round
   could ever finish.  Installs are tag-guarded, hence monotone: applying
   them in any order leaves the maximum. *)
let on_put rt ~src:_ payload =
  match payload with
  | Put { page; ts; origin; data; requester = _ } ->
      let node = handler_node rt in
      let e = Runtime.entry rt ~node ~page in
      Protocol_lib.server_overhead rt;
      Protocol_lib.with_entry rt e (fun () ->
          let marcel = Runtime.marcel rt in
          while e.Page_table.pinned do
            Marcel.Cond.wait marcel e.Page_table.fault_done
              e.Page_table.entry_mutex
          done;
          let t = tag_of e in
          if (ts, origin) > (t.ts, t.origin) then begin
            Frame_store.install (Runtime.store rt node) page data;
            t.ts <- ts;
            t.origin <- origin
          end);
      (Rpc.Unit, Driver.Request)
  | _ -> invalid_arg "sc_abd: bad payload for put service"

(* --- quorum rounds (run in the faulting/writing thread) --- *)

(* Fans [make_call] out to every other node in parallel helper threads and
   blocks until [need] successes counting the local replica, or until too
   many helpers failed for [need] to remain reachable.  Helpers absorb
   {!Rpc.Timeout} (armed by [Dsm.inject_faults]); without a fault plan no
   reply is ever lost and every helper succeeds. *)
let quorum_round rt ~node ~page make_call =
  let n = Runtime.nodes rt in
  let need = quorum rt in
  let got = ref 1 (* the local replica *) in
  let failed = ref 0 in
  if !got < need then begin
    let eng = Runtime.engine rt in
    let marcel = Runtime.marcel rt in
    Engine.suspend eng (fun resume ->
        let settled = ref false in
        let check () =
          if
            (not !settled)
            && (!got >= need || !failed > n - need)
          then begin
            settled := true;
            resume ()
          end
        in
        for dst = 0 to n - 1 do
          if dst <> node then
            ignore
              (Marcel.spawn marcel ~node (fun () ->
                   (match make_call dst with
                   | true -> incr got
                   | false -> incr failed);
                   check ()))
        done)
  end;
  if !got < need then
    raise (Quorum_unreachable { page; node; got = !got; need })

(* Collect phase: the highest (tag, value) among a majority.  Replies land
   in helper threads; [best] is folded under the entry mutex of nobody —
   plain mutation is safe because the simulation is cooperative and each
   helper updates it in one slice. *)
let quorum_get rt ~node ~page =
  let srv = (services rt).srv_get in
  let e = Runtime.entry rt ~node ~page in
  let local = tag_of e in
  let best_ts = ref local.ts
  and best_origin = ref local.origin
  and best_data = ref None in
  quorum_round rt ~node ~page (fun dst ->
      match
        (try
           Some
             (Rpc.call (Runtime.rpc rt) ~dst ~service:srv ~cost:Driver.Request
                (Get { page; requester = node }))
         with Rpc.Timeout _ -> None)
      with
      | Some (Tag_val { ts; origin; data; _ }) ->
          if (ts, origin) > (!best_ts, !best_origin) then begin
            best_ts := ts;
            best_origin := origin;
            best_data := Some data
          end;
          true
      | Some _ -> false
      | None -> false);
  (!best_ts, !best_origin, !best_data)

(* Propagate phase: install (tag, value) at a majority.  The local replica
   is the caller's responsibility (it holds the entry mutex context). *)
let quorum_put rt ~node ~page ~ts ~origin ~data =
  let srv = (services rt).srv_put in
  let e = Runtime.entry rt ~node ~page in
  quorum_round rt ~node ~page (fun dst ->
      count_page_sent rt ~node e;
      try
        ignore
          (Rpc.call (Runtime.rpc rt) ~dst ~service:srv
             ~cost:(Driver.Bulk (Bytes.length data))
             (Put { page; ts; origin; data; requester = node }));
        true
      with Rpc.Timeout _ -> false)

(* Applies a collect result to the local replica (entry mutex held). *)
let adopt rt ~node (e : Page_table.entry) ~ts ~origin ~data =
  let t = tag_of e in
  if (ts, origin) > (t.ts, t.origin) then begin
    (match data with
    | Some d -> Frame_store.install (Runtime.store rt node) e.Page_table.page d
    | None -> ());
    t.ts <- ts;
    t.origin <- origin
  end

(* One coalesced fault transaction: collect from a majority, write the
   winner back to a majority (the ABD read's second phase — without it two
   successive reads could observe new-then-old), then grant [rights]. *)
let fault rt ~node ~page ~rights =
  let e = Runtime.entry rt ~node ~page in
  let action =
    Protocol_lib.with_entry rt e (fun () ->
        if e.Page_table.faulting then begin
          Protocol_lib.wait_while_faulting rt e;
          `Retry
        end
        else begin
          e.Page_table.faulting <- true;
          `Round
        end)
  in
  match action with
  | `Retry -> ()
  | `Round -> (
      let marcel = Runtime.marcel rt in
      let abort exn =
        Marcel.Mutex.lock marcel e.Page_table.entry_mutex;
        e.Page_table.faulting <- false;
        Marcel.Cond.broadcast marcel e.Page_table.fault_done;
        Marcel.Mutex.unlock marcel e.Page_table.entry_mutex;
        raise exn
      in
      match
        let ts, origin, data = quorum_get rt ~node ~page in
        (* Adopt before the writeback so the local replica counts toward
           the writeback majority with the winning value already in place. *)
        Protocol_lib.with_entry rt e (fun () -> adopt rt ~node e ~ts ~origin ~data);
        Protocol_lib.client_overhead rt;
        (* Propagate-until-stable: between the collect and the grant, a
           concurrent writer's put may install a newer tag in our frame.
           The access about to be granted will return whatever the frame
           holds at grant time, and ABD's guarantee is exactly that a read
           returns nothing it has not made majority-durable first.  So
           snapshot (tag, data) under the mutex, write that back to a
           majority, and grant only if the tag is still the one we
           propagated — otherwise write back the newer one and re-check.
           Each iteration propagates a strictly larger tag, so this
           terminates once writers quiesce. *)
        let rec stabilise () =
          let ts, origin, data =
            Protocol_lib.with_entry rt e (fun () ->
                let t = tag_of e in
                ( t.ts,
                  t.origin,
                  Bytes.copy (Frame_store.frame (Runtime.store rt node) page) ))
          in
          quorum_put rt ~node ~page ~ts ~origin ~data;
          let stable =
            Protocol_lib.with_entry rt e (fun () ->
                let t = tag_of e in
                if (t.ts, t.origin) = (ts, origin) then begin
                  e.Page_table.rights <- rights;
                  Protocol_lib.complete_fault rt e;
                  true
                end
                else false)
          in
          if not stable then stabilise ()
        in
        stabilise ()
      with
      | () -> ()
      | exception exn -> abort exn)

let read_fault rt ~node ~page = fault rt ~node ~page ~rights:Access.Read_only
let write_fault rt ~node ~page = fault rt ~node ~page ~rights:Access.Read_write

(* After the read lands, revoke: the next read must run its own round. *)
let on_local_read rt ~node ~page =
  let e = Runtime.entry rt ~node ~page in
  Protocol_lib.with_entry rt e (fun () ->
      e.Page_table.rights <- Access.No_access)

(* After the write lands in the local frame, stamp it one above the tag the
   write fault collected and install it at a majority; then revoke. *)
let on_local_write rt ~node ~page ~offset ~value =
  let e = Runtime.entry rt ~node ~page in
  let ts, origin, data =
    Protocol_lib.with_entry rt e (fun () ->
        let t = tag_of e in
        t.ts <- t.ts + 1;
        t.origin <- node;
        (* A concurrent writer's put may have replaced the frame between
           the word landing and this critical section; re-assert the word
           so the value this write propagates (and the frame it leaves
           behind, now bearing the higher tag) always contains it. *)
        Frame_store.write_int (Runtime.store rt node)
          ~addr:(Page.base_of_page rt.Runtime.geo page + offset)
          value;
        ( t.ts,
          node,
          Bytes.copy (Frame_store.frame (Runtime.store rt node) page) ))
  in
  quorum_put rt ~node ~page ~ts ~origin ~data;
  Protocol_lib.with_entry rt e (fun () ->
      e.Page_table.rights <- Access.No_access)

(* Fresh custody: no node holds standing rights (every access must run a
   round).  The quorum-intersection argument requires every tag a round can
   return to be held by a majority, so the initial state must be too: every
   replica receives a copy of the home's frame — zeroes at malloc, the
   consolidated area after a protocol switch — under the same tag (1, home).
   Init runs at a globally quiescent instant (malloc, or switch_protocol
   after its quiescence pass), so the copy is setup, not protocol traffic. *)
let on_page_init rt ~node ~page =
  let e = Runtime.entry rt ~node ~page in
  e.Page_table.rights <- Access.No_access;
  let home = e.Page_table.home in
  if node <> home then
    Frame_store.install (Runtime.store rt node) page
      (Bytes.copy (Frame_store.frame (Runtime.store rt home) page));
  e.Page_table.ext <- Abd_tag { ts = 1; origin = home }

let unused_server _ ~node:_ ~page:_ ~requester:_ =
  failwith "sc_abd: ownership request services are never used"

let protocol =
  {
    Protocol.name = "sc_abd";
    detection = Protocol.Page_fault;
    model = Protocol.Sequential;
    read_fault;
    write_fault;
    read_server = unused_server;
    write_server = unused_server;
    invalidate_server =
      (fun _ ~node:_ ~page:_ ~sender:_ ->
        failwith "sc_abd: invalidations are never used");
    receive_page_server =
      (fun _ ~node:_ ~msg:_ -> failwith "sc_abd: page pushes are never used");
    lock_acquire = Protocol.no_action;
    lock_release = Protocol.no_action;
    on_local_write = Some on_local_write;
    on_local_read = Some on_local_read;
    on_page_init = Some on_page_init;
  }

let register rt =
  let id = Dsm.create_protocol rt protocol in
  let rpc = Runtime.rpc rt in
  let srv_get = Rpc.register rpc ~name:"abd.get" (on_get rt) in
  let srv_put = Rpc.register rpc ~name:"abd.put" (on_put rt) in
  Page_table.set_node_ext (Runtime.table rt 0) ~protocol:id
    (Abd_services { srv_get; srv_put });
  id
