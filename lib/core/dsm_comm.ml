open Dsmpm2_sim
open Dsmpm2_net
open Dsmpm2_pm2
open Dsmpm2_mem

type Rpc.payload +=
  | Page_request of {
      page : int;
      mode : Access.mode;
      requester : int;
      sent_at : Time.t;
      span : int;
    }
  | Page_data of Protocol.page_message
  | Invalidate of { page : int; sender : int; span : int }
  | Invalidate_batch of { pages : int list; sender : int; span : int }
  | Diffs of { diffs : Diff.t list; sender : int; release : bool }
  | Lock_op of { lock : int; node : int; tid : int }
  | Barrier_wait of { barrier : int; node : int }
  | Ack
  | Lock_error of string

type diffs_handler =
  Runtime.t -> node:int -> diffs:Diff.t list -> sender:int -> release:bool -> unit

let set_diffs_handler (rt : Runtime.t) ~protocol handler =
  rt.diffs_batch_handlers <- Dense.ensure rt.diffs_batch_handlers protocol None;
  rt.diffs_batch_handlers.(protocol) <- Some handler

let diffs_handler (rt : Runtime.t) ~protocol =
  let handlers = rt.diffs_batch_handlers in
  if protocol >= 0 && protocol < Array.length handlers then handlers.(protocol) else None

let apply_diff_locally (rt : Runtime.t) ~node (diff : Diff.t) =
  let e = Runtime.entry rt ~node ~page:diff.Diff.page in
  let marcel = Runtime.marcel rt in
  Marcel.Mutex.lock marcel e.Page_table.entry_mutex;
  Diff.apply diff (Frame_store.frame (Runtime.store rt node) diff.Diff.page);
  Marcel.Mutex.unlock marcel e.Page_table.entry_mutex

let rec apply_diffs_locally rt ~node = function
  | [] -> ()
  | diff :: rest ->
      apply_diff_locally rt ~node diff;
      apply_diffs_locally rt ~node rest

let proto_name rt (e : Page_table.entry) =
  (Runtime.proto rt e.Page_table.protocol).Protocol.name

(* --- service handlers (each runs in a fresh Marcel thread on the
   destination node) --- *)

let handler_node rt = Marcel.node (Marcel.self (Runtime.marcel rt))

let on_request rt ~src:_ payload =
  match payload with
  | Page_request { page; mode; requester; sent_at; span } ->
      let node = handler_node rt in
      Monitor.with_thread_span rt span (fun () ->
          let e = Runtime.entry rt ~node ~page in
          if Monitor.enabled rt then
            Monitor.emit rt ~span
              (Trace.Page_request
                 {
                   node;
                   page;
                   protocol = proto_name rt e;
                   mode = Access.mode_to_string mode;
                   requester;
                 });
          (* Stamp the request-propagation stage when this node is (likely)
             the final server; forwarded requests are re-stamped per hop. *)
          if e.Page_table.prob_owner = node || e.Page_table.home = node then
            Monitor.stamp rt ~span ~node ~protocol:e.Page_table.protocol ~obj:page
              (Instrument.proto rt.Runtime.cells ~node ~protocol:e.Page_table.protocol)
                .Instrument.request
              Time.(Engine.now (Runtime.engine rt) - sent_at);
          let proto = Runtime.proto rt e.Page_table.protocol in
          (match mode with
          | Access.Read -> proto.Protocol.read_server rt ~node ~page ~requester
          | Access.Write -> proto.Protocol.write_server rt ~node ~page ~requester);
          (Ack, Driver.Request))
  | _ -> invalid_arg "Dsm_comm: bad payload for request service"

let on_send_page rt ~src:_ payload =
  match payload with
  | Page_data msg ->
      let node = handler_node rt in
      Monitor.with_thread_span rt msg.Protocol.span (fun () ->
          let e = Runtime.entry rt ~node ~page:msg.Protocol.page in
          let protocol = proto_name rt e in
          if Monitor.enabled rt then
            Monitor.emit rt ~span:msg.Protocol.span
              (Trace.Page_install
                 {
                   node;
                   page = msg.Protocol.page;
                   protocol;
                   sender = msg.Protocol.sender;
                   grant = Access.to_string msg.Protocol.grant;
                 });
          Monitor.stamp rt ~span:msg.Protocol.span ~node ~protocol:e.Page_table.protocol
            ~obj:msg.Protocol.page
            (Instrument.proto rt.Runtime.cells ~node ~protocol:e.Page_table.protocol)
              .Instrument.transfer
            Time.(Engine.now (Runtime.engine rt) - msg.Protocol.sent_at);
          let proto = Runtime.proto rt e.Page_table.protocol in
          proto.Protocol.receive_page_server rt ~node ~msg;
          (Ack, Driver.Request))
  | _ -> invalid_arg "Dsm_comm: bad payload for send_page service"

let invalidate_one rt ~node ~span ~sender page =
  let e = Runtime.entry rt ~node ~page in
  if Monitor.enabled rt then
    Monitor.emit rt ~span
      (Trace.Invalidate { node; page; protocol = proto_name rt e; sender });
  let proto = Runtime.proto rt e.Page_table.protocol in
  proto.Protocol.invalidate_server rt ~node ~page ~sender

let on_invalidate rt ~src:_ payload =
  match payload with
  | Invalidate { page; sender; span } ->
      let node = handler_node rt in
      Monitor.with_thread_span rt span (fun () ->
          invalidate_one rt ~node ~span ~sender page;
          (Ack, Driver.Request))
  | Invalidate_batch { pages; sender; span } ->
      let node = handler_node rt in
      Monitor.with_thread_span rt span (fun () ->
          List.iter (invalidate_one rt ~node ~span ~sender) pages;
          (Ack, Driver.Request))
  | _ -> invalid_arg "Dsm_comm: bad payload for invalidate service"

(* Hands one protocol's diffs, in message order, to its batch handler, or
   applies them.  One trace event per call, with the page list, so the
   post-mortem analyzer can attribute diff traffic per page and per
   protocol. *)
let deliver_diffs rt ~node ~sender ~release protocol ds =
  if Monitor.enabled rt then
    Monitor.emit rt
      (Trace.Diff
         {
           node;
           pages = List.length ds;
           page_list = List.map (fun d -> d.Diff.page) ds;
           bytes = List.fold_left (fun acc d -> acc + Diff.wire_bytes d) 0 ds;
           sender;
           release;
           protocol = (Runtime.proto rt protocol).Protocol.name;
         });
  match diffs_handler rt ~protocol with
  | Some handler -> handler rt ~node ~diffs:ds ~sender ~release
  | None -> apply_diffs_locally rt ~node ds

let diff_protocol rt ~node (diff : Diff.t) =
  (Runtime.entry rt ~node ~page:diff.Diff.page).Page_table.protocol

let rec all_of_protocol rt ~node protocol = function
  | [] -> true
  | d :: rest -> diff_protocol rt ~node d = protocol && all_of_protocol rt ~node protocol rest

let on_diffs rt ~src:_ payload =
  match payload with
  | Diffs { diffs; sender; release } ->
      let node = handler_node rt in
      (match diffs with
      | [] -> ()
      | d :: rest ->
          let protocol = diff_protocol rt ~node d in
          if all_of_protocol rt ~node protocol rest then
            deliver_diffs rt ~node ~sender ~release protocol diffs
          else begin
            (* Cut a mixed batch into one group per protocol, each in
               message order, so a protocol's batch handler sees all its
               pages at once: that is what lets a home coalesce the
               resulting third-party invalidations into one RPC per
               copyset node instead of one per page. *)
            let rec groups = function
              | [] -> ()
              | d :: _ as ds ->
                  let protocol = diff_protocol rt ~node d in
                  let mine, others =
                    List.partition (fun d -> diff_protocol rt ~node d = protocol) ds
                  in
                  deliver_diffs rt ~node ~sender ~release protocol mine;
                  groups others
            in
            groups diffs
          end);
      (Ack, Driver.Request)
  | _ -> invalid_arg "Dsm_comm: bad payload for diffs service"

let on_lock_acquire rt ~src:_ payload =
  match payload with
  | Lock_op { lock; node; tid } ->
      if Monitor.enabled rt then
        Monitor.emit rt (Trace.Lock { node; lock; op = Trace.Acquire });
      let ls = Runtime.lock_state rt lock in
      let marcel = Runtime.marcel rt in
      Marcel.Mutex.lock marcel ls.Runtime.lock_mutex;
      while ls.Runtime.lock_held do
        Marcel.Cond.wait marcel ls.Runtime.lock_queue ls.Runtime.lock_mutex
      done;
      ls.Runtime.lock_held <- true;
      ls.Runtime.lock_holder <- tid;
      ls.Runtime.lock_acquisitions <- ls.Runtime.lock_acquisitions + 1;
      Marcel.Mutex.unlock marcel ls.Runtime.lock_mutex;
      (Ack, Driver.Request)
  | _ -> invalid_arg "Dsm_comm: bad payload for lock_acquire service"

let on_lock_release rt ~src:_ payload =
  match payload with
  | Lock_op { lock; node; tid } ->
      if Monitor.enabled rt then
        Monitor.emit rt (Trace.Lock { node; lock; op = Trace.Release });
      let ls = Runtime.lock_state rt lock in
      let marcel = Runtime.marcel rt in
      Marcel.Mutex.lock marcel ls.Runtime.lock_mutex;
      (* A bad release is the releasing thread's bug, not the cluster's:
         report it back over the RPC instead of killing the manager node
         (and with it the whole simulation).  The lock state is untouched,
         so every other thread keeps running. *)
      let error =
        if not ls.Runtime.lock_held then
          Some (Printf.sprintf "DSM lock %d: release while free" lock)
        else if ls.Runtime.lock_holder <> tid then
          Some
            (Printf.sprintf "DSM lock %d: thread %d released a lock held by thread %d"
               lock tid ls.Runtime.lock_holder)
        else None
      in
      (match error with
      | Some _ -> ()
      | None ->
          ls.Runtime.lock_held <- false;
          ls.Runtime.lock_holder <- -1;
          Marcel.Cond.signal marcel ls.Runtime.lock_queue);
      Marcel.Mutex.unlock marcel ls.Runtime.lock_mutex;
      (match error with
      | Some msg -> (Lock_error msg, Driver.Request)
      | None -> (Ack, Driver.Request))
  | _ -> invalid_arg "Dsm_comm: bad payload for lock_release service"

let on_barrier rt ~src:_ payload =
  match payload with
  | Barrier_wait { barrier; node } ->
      if Monitor.enabled rt then Monitor.emit rt (Trace.Barrier { node; barrier });
      let bs = Runtime.barrier_state rt barrier in
      let marcel = Runtime.marcel rt in
      Marcel.Mutex.lock marcel bs.Runtime.barrier_mutex;
      let generation = bs.Runtime.barrier_generation in
      bs.Runtime.barrier_arrived <- bs.Runtime.barrier_arrived + 1;
      if bs.Runtime.barrier_arrived = bs.Runtime.barrier_parties then begin
        bs.Runtime.barrier_arrived <- 0;
        bs.Runtime.barrier_generation <- generation + 1;
        Marcel.Cond.broadcast marcel bs.Runtime.barrier_cond
      end
      else
        while bs.Runtime.barrier_generation = generation do
          Marcel.Cond.wait marcel bs.Runtime.barrier_cond bs.Runtime.barrier_mutex
        done;
      Marcel.Mutex.unlock marcel bs.Runtime.barrier_mutex;
      (Ack, Driver.Request)
  | _ -> invalid_arg "Dsm_comm: bad payload for barrier service"

let init (rt : Runtime.t) =
  (match rt.Runtime.services with
  | Some _ -> invalid_arg "Dsm_comm.init: already initialised"
  | None -> ());
  let rpc = Runtime.rpc rt in
  let services =
    {
      Runtime.srv_request = Rpc.register rpc ~name:"dsm.request" (on_request rt);
      srv_send_page = Rpc.register rpc ~name:"dsm.send_page" (on_send_page rt);
      srv_invalidate = Rpc.register rpc ~name:"dsm.invalidate" (on_invalidate rt);
      srv_diffs = Rpc.register rpc ~name:"dsm.diffs" (on_diffs rt);
      srv_lock_acquire = Rpc.register rpc ~name:"dsm.lock_acquire" (on_lock_acquire rt);
      srv_lock_release = Rpc.register rpc ~name:"dsm.lock_release" (on_lock_release rt);
      srv_barrier = Rpc.register rpc ~name:"dsm.barrier" (on_barrier rt);
    }
  in
  rt.Runtime.services <- Some services

(* --- senders --- *)

let send_request rt ~to_ ~page ~mode ~requester =
  let srv = (Runtime.services rt).Runtime.srv_request in
  Rpc.oneway (Runtime.rpc rt) ~dst:to_ ~service:srv ~cost:Driver.Request
    (Page_request
       {
         page;
         mode;
         requester;
         sent_at = Engine.now (Runtime.engine rt);
         span = Monitor.current_span rt;
       })

let send_page rt ~to_ ~page ~grant ~ownership ~copyset ~req_mode =
  let node = Runtime.self_node rt in
  let data = Frame_store.copy_out (Runtime.store rt node) page in
  let span = Monitor.current_span rt in
  let msg =
    {
      Protocol.page;
      data;
      grant;
      ownership;
      copyset;
      sender = node;
      req_mode;
      sent_at = Engine.now (Runtime.engine rt);
      span;
    }
  in
  let e = Runtime.entry rt ~node ~page in
  Stats.bump
    (Instrument.proto rt.Runtime.cells ~node ~protocol:e.Page_table.protocol)
      .Instrument.send;
  let protocol = proto_name rt e in
  if Monitor.enabled rt then
    Monitor.emit rt ~span
      (Trace.Page_send
         {
           node;
           page;
           protocol;
           dst = to_;
           bytes = Bytes.length data;
           grant = Access.to_string grant;
         });
  let srv = (Runtime.services rt).Runtime.srv_send_page in
  Rpc.oneway (Runtime.rpc rt) ~dst:to_ ~service:srv
    ~cost:(Driver.Bulk (Bytes.length data))
    (Page_data msg)

let call_invalidate rt ?span ~to_ ~page () =
  let node = Runtime.self_node rt in
  let span = match span with Some s -> s | None -> Monitor.current_span rt in
  Stats.add rt.Runtime.cells.Instrument.nodes.(node).Instrument.invalidate ~events:1
    ~volume:1;
  let srv = (Runtime.services rt).Runtime.srv_invalidate in
  ignore
    (Rpc.call (Runtime.rpc rt) ~dst:to_ ~service:srv ~cost:Driver.Request
       (Invalidate { page; sender = node; span }))

let call_invalidate_batch rt ?span ~to_ ~pages () =
  match pages with
  | [] -> ()
  | [ page ] -> call_invalidate rt ?span ~to_ ~page ()
  | pages ->
      let node = Runtime.self_node rt in
      let span = match span with Some s -> s | None -> Monitor.current_span rt in
      Stats.add rt.Runtime.cells.Instrument.nodes.(node).Instrument.invalidate ~events:1
        ~volume:(List.length pages);
      let srv = (Runtime.services rt).Runtime.srv_invalidate in
      ignore
        (Rpc.call (Runtime.rpc rt) ~dst:to_ ~service:srv ~cost:Driver.Request
           (Invalidate_batch { pages; sender = node; span }))

(* Adds the number of [diffs] and their wire bytes to [cell] in one pass,
   and returns the bytes. *)
let rec count_diffs cell n bytes = function
  | [] ->
      Stats.add cell ~events:n ~volume:bytes;
      bytes
  | d :: rest -> count_diffs cell (n + 1) (bytes + Diff.wire_bytes d) rest

let call_diffs rt ~to_ ~diffs ~release =
  let node = Runtime.self_node rt in
  let bytes = count_diffs rt.Runtime.cells.Instrument.nodes.(node).Instrument.diff 0 0 diffs in
  let srv = (Runtime.services rt).Runtime.srv_diffs in
  ignore
    (Rpc.call (Runtime.rpc rt) ~dst:to_ ~service:srv ~cost:(Driver.Bulk bytes)
       (Diffs { diffs; sender = node; release }))
