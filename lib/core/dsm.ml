open Dsmpm2_sim
open Dsmpm2_pm2
open Dsmpm2_mem

type t = Runtime.t

exception Fault_storm of { addr : int; mode : Access.mode; attempts : int }

let create ?costs ?tie_seed ?jitter ?page_size ~nodes ~driver () =
  let pm2 = Pm2.create ?tie_seed ?jitter ?page_size ~nodes ~driver () in
  let rt = Runtime.create ?costs pm2 in
  Dsm_comm.init rt;
  rt

let pm2 (rt : t) = rt.Runtime.pm2
let nodes = Runtime.nodes
let stats (rt : t) = rt.Runtime.stats
let engine = Runtime.engine

(* --- protocols --- *)

let create_protocol (rt : t) proto = Protocol.register rt.Runtime.registry proto

let set_default_protocol (rt : t) id =
  ignore (Runtime.proto rt id);
  rt.Runtime.default_protocol <- id

let default_protocol (rt : t) = rt.Runtime.default_protocol

let protocol_by_name (rt : t) name =
  Option.map fst (Protocol.find_by_name rt.Runtime.registry name)

let protocol_name (rt : t) id = (Runtime.proto rt id).Protocol.name

(* --- shared memory --- *)

type home_policy = Round_robin | On_node of int | Block

let malloc (rt : t) ?protocol ?(home = Round_robin) size =
  if size <= 0 then invalid_arg "Dsm.malloc: size must be positive";
  let protocol =
    match protocol with Some p -> p | None -> rt.Runtime.default_protocol
  in
  ignore (Runtime.proto rt protocol);
  let cls = Protocol.hit_class rt.Runtime.registry protocol in
  let n = Runtime.nodes rt in
  let page_size = Page.size rt.Runtime.geo in
  let npages = (size + page_size - 1) / page_size in
  let addr = Isoalloc.alloc_pages (Pm2.iso rt.Runtime.pm2) npages in
  let first_page = Page.page_of_addr rt.Runtime.geo addr in
  for i = 0 to npages - 1 do
    let page = first_page + i in
    let home_node =
      match home with
      | Round_robin -> i mod n
      | On_node node ->
          if node < 0 || node >= n then invalid_arg "Dsm.malloc: home node out of range";
          node
      | Block -> min (n - 1) (i * n / npages)
    in
    for node = 0 to n - 1 do
      let rights = if node = home_node then Access.Read_write else Access.No_access in
      ignore
        (Page_table.declare rt.Runtime.mem.(node).Runtime.table ~page ~home:home_node
           ~owner:home_node ~protocol ~cls ~rights)
    done;
    (* Materialise the reference copy eagerly so sends always find a frame. *)
    ignore (Frame_store.frame rt.Runtime.mem.(home_node).Runtime.store page);
    (match (Runtime.proto rt protocol).Protocol.on_page_init with
    | None -> ()
    | Some init -> for node = 0 to n - 1 do init rt ~node ~page done)
  done;
  addr

let region_pages (rt : t) ~addr ~size =
  Page.pages_of_range rt.Runtime.geo ~addr ~len:size

type attr = { attr_protocol : int option; attr_home : home_policy }

let attr ?protocol ?(home = Round_robin) () =
  { attr_protocol = protocol; attr_home = home }

let malloc_attr rt a size = malloc rt ?protocol:a.attr_protocol ~home:a.attr_home size

let switch_protocol (rt : t) ~addr ~size ~protocol =
  ignore (Runtime.proto rt protocol);
  let cls = Protocol.hit_class rt.Runtime.registry protocol in
  let pages = region_pages rt ~addr ~size in
  let n = Runtime.nodes rt in
  (* Pass 1: the area must be quiescent on every node. *)
  List.iter
    (fun page ->
      for node = 0 to n - 1 do
        let e = Runtime.entry rt ~node ~page in
        if e.Page_table.faulting || Page_table.pinned e then
          invalid_arg
            (Printf.sprintf
               "Dsm.switch_protocol: page %d has a fault in flight on node %d" page
               node);
        if e.Page_table.twin <> None then
          invalid_arg
            (Printf.sprintf
               "Dsm.switch_protocol: page %d has an unflushed twin on node %d \
                (release enclosing locks first)"
               page node)
      done)
    pages;
  (* Pass 2: consolidate the authoritative copy on the home and reset the
     distributed table to the post-allocation state under the new id. *)
  List.iter
    (fun page ->
      let home = (Runtime.entry rt ~node:0 ~page).Page_table.home in
      let authoritative =
        let rec find node =
          if node >= n then home
          else if Page_table.rights (Runtime.entry rt ~node ~page) = Access.Read_write
          then node
          else find (node + 1)
        in
        find 0
      in
      if authoritative <> home then
        Frame_store.install (Runtime.store rt home) page
          (Frame_store.frame (Runtime.store rt authoritative) page);
      for node = 0 to n - 1 do
        let e = Runtime.entry rt ~node ~page in
        Page_table.set_protocol e ~protocol ~cls;
        e.Page_table.prob_owner <- home;
        e.Page_table.copyset <- [];
        Page_table.set_rights e
          (if node = home then Access.Read_write else Access.No_access);
        if node <> home then Frame_store.drop (Runtime.store rt node) page
      done;
      match (Runtime.proto rt protocol).Protocol.on_page_init with
      | None -> ()
      | Some init -> for node = 0 to n - 1 do init rt ~node ~page done)
    pages

(* --- access detection ---

   DSM-PM2 detects accesses with the MMU: a hit costs nothing and only a
   fault reaches the protocol.  Here a software check replaces the MMU on
   every access, so a hit is kept to one test on the entry [Dsm] has to
   look up anyway.  [hit_frame] finds [addr]'s entry on the caller's node,
   which it reads from the engine's node tag without looking the calling
   thread up, and hands back that node's frame for the page when the
   fault-loop limit is not negative and the entry's protection word
   allows the mode ({!Page_table.hits}: the protocol's hit class has the
   mode's bit, the rights allow it and the page is not pinned); under an
   inline-check class it counts and charges the check.  It resolves the
   page once: one read of the node's record, one page/offset split, and
   the entry and the frame from the same record.
   A hit then reads or writes the frame and, with history on, records the
   op at the current instant: no simulated time passes on a hit.

   Everything the test refuses takes the general path, the [_general]
   accessors below, whose behaviour is the whole access protocol: the
   fault loop, unpinning the page after a fault, the protocol's access
   hooks and the history window.  There is one way to decide a hit, and
   conformance runs (history on) take it too.  The general path is kept
   out of line, so a hit runs through a few lines of straight code. *)

let fault (rt : t) ~node ~page ~mode ~protocol proto =
  let cells = Instrument.proto rt.Runtime.cells ~node ~protocol in
  let started = Engine.now (Runtime.engine rt) in
  (* One cell per fault: counted when it starts, its latency recorded when
     it ends. *)
  let cell =
    match proto.Protocol.detection with
    | Protocol.Page_fault ->
        let cell =
          match mode with
          | Access.Read -> cells.Instrument.read
          | Access.Write -> cells.Instrument.write
        in
        Stats.bump cell;
        Marcel.compute (Runtime.marcel rt) rt.Runtime.costs.page_fault_us;
        Stats.record cells.Instrument.detect (Time.of_us rt.Runtime.costs.page_fault_us);
        cell
    | Protocol.Inline_check ->
        Stats.bump cells.Instrument.miss;
        cells.Instrument.miss
  in
  (* Each fault is the root of a causal span: the request, transfer and
     install events it triggers — locally and on remote nodes — carry the
     same id. *)
  let span = Monitor.new_span rt in
  if Monitor.enabled rt then
    Monitor.emit rt ~span
      (Trace.Fault
         { node; page; protocol = proto.Protocol.name; mode = Access.mode_to_string mode });
  Monitor.with_thread_span rt span (fun () ->
      match mode with
      | Access.Read -> proto.Protocol.read_fault rt ~node ~page
      | Access.Write -> proto.Protocol.write_fault rt ~node ~page);
  Monitor.stamp rt ~span ~node ~protocol ~obj:page cell
    Time.(Engine.now (Runtime.engine rt) - started)

let[@inline never] fault_storm ~addr ~mode ~attempts =
  raise (Fault_storm { addr; mode; attempts })

(* Counts and charges one inline check to the calling thread, by its
   fiber id: the caller is known to run in a live Marcel thread. *)
let[@inline] check (rt : t) =
  Stats.bump rt.Runtime.cells.Instrument.checks;
  Marcel.charge_tick (Runtime.marcel rt) (Engine.current_fiber (Runtime.engine rt))

(* The first two steps of an attempt to access [addr], [faults] faults
   in: the fault-loop limit, then [addr]'s entry on [th]'s node, with an
   inline check counted and charged.  The caller tests the rights. *)
let[@inline] lookup (rt : t) th ~addr ~mode faults =
  if faults > rt.Runtime.fault_loop_limit then fault_storm ~addr ~mode ~attempts:faults;
  let e =
    Page_table.find
      rt.Runtime.mem.(Marcel.node th).Runtime.table
      (Page.page_of_addr rt.Runtime.geo addr)
  in
  if Page_table.inline_checked e then check rt;
  e

(* Faults on [e], which does not grant [mode], and retries until [th]'s
   node holds the rights; returns the granting entry. *)
let[@inline never] rec miss (rt : t) th ~addr ~mode (e : Page_table.entry) faults =
  let protocol = e.Page_table.protocol in
  fault rt ~node:(Marcel.node th) ~page:e.Page_table.page ~mode ~protocol
    (Protocol.find rt.Runtime.registry protocol);
  let faults = faults + 1 in
  let e = lookup rt th ~addr ~mode faults in
  if Page_table.allows e mode then e else miss rt th ~addr ~mode e faults

(* The general path's access: returns the protocol of [addr]'s page once
   [th]'s node holds rights for [mode] on it, and unpins the page. *)
let[@inline] access (rt : t) th ~addr ~mode =
  let e = lookup rt th ~addr ~mode 0 in
  let e = if Page_table.allows e mode then e else miss rt th ~addr ~mode e 0 in
  Protocol_lib.unpin rt e;
  Protocol.find rt.Runtime.registry e.Page_table.protocol

(* The caller's node, or -1 outside a Marcel thread: Marcel keeps it in
   the running fiber's engine tag.  A hit reads it and never looks the
   calling thread up, which [self] does. *)
let[@inline] node_tag (rt : t) = Engine.current_tag (Runtime.engine rt)
let[@inline] self (rt : t) = Marcel.self (Runtime.marcel rt)

(* The frame [hit_frame] returns for an access it refuses: no frame is empty. *)
let refused = Bytes.empty

(* The hit test, which resolves [addr]'s page once: [node]'s frame for the
   page when a thread on [node], the caller's node tag
   ({!Engine.current_tag}), may complete a [mode] access to [addr] without
   the protocol, in which case an inline check has been counted and
   charged; [refused] otherwise, having counted nothing.  A tag below 0 (no
   Marcel thread) is refused.  It reads [node]'s record once, bounds-checked
   since any fiber's tag can be set ({!Engine.set_tag}), and takes [addr]'s
   page from [rt.geo] once (the accessor takes the offset, [offset]); an
   unmapped page reads as an entry whose protection word is 0, which the
   masked test refuses, and the general path then raises [Not_mapped].
   The check comes before the frame lookup, so the entry is dead by the
   time a first touch may materialise the frame (a call) and is never
   spilled.  A tag of 0 or more proves the running fiber is a live Marcel
   thread, so the check charges its tick by fiber id and a hit never looks
   the thread up; only [record_hit] (history on) does. *)
let[@inline] hit_frame (rt : t) ~node ~addr ~mode =
  if node >= 0 && rt.Runtime.fault_loop_limit >= 0 then begin
    let m = rt.Runtime.mem.(node) in
    let page = Page.page_of_addr rt.Runtime.geo addr in
    let e = Page_table.get m.Runtime.table page in
    if Page_table.hits e mode then begin
      if Page_table.inline_checked e then check rt;
      Frame_store.frame m.Runtime.store page
    end
    else refused
  end
  else refused

(* [addr]'s offset in the frame [hit_frame] returned. *)
let[@inline] offset (rt : t) addr = Page.offset_of_addr rt.Runtime.geo addr

let ensure_access (rt : t) ~addr ~mode =
  if hit_frame rt ~node:(node_tag rt) ~addr ~mode == refused then
    ignore (access rt (self rt) ~addr ~mode : t Protocol.t)

(* The start of an access's real-time window: only the history reads it. *)
let history_start (rt : t) =
  match rt.Runtime.history with
  | None -> Time.zero
  | Some _ -> Engine.now (Runtime.engine rt)

(* Logs a word access in the conformance history.  The record is built
   only when history is on, so an unobserved access allocates nothing. *)
let record_access (rt : t) th ~start ~write ~addr ~value =
  match rt.Runtime.history with
  | None -> ()
  | Some h ->
      History.record h ~tid:(Marcel.tid th) ~node:(Marcel.node th) ~start
        ~finish:(Engine.now (Runtime.engine rt))
        (if write then History.Write { addr; value } else History.Read { addr; value })

(* Logs a hit on [addr] as an access to its containing word, whose value
   it reads back from the caller's node.  History works at word
   granularity.  A hit takes no simulated time, so its window is the
   current instant. *)
let[@inline never] record_hit (rt : t) ~write ~addr =
  let th = self rt in
  let addr = addr land lnot 7 in
  let value = Frame_store.read_int rt.Runtime.mem.(Marcel.node th).Runtime.store ~addr in
  record_access rt th ~start:(Engine.now (Runtime.engine rt)) ~write ~addr ~value

let read_hook (rt : t) th proto ~addr =
  match proto.Protocol.on_local_read with
  | None -> ()
  | Some hook ->
      hook rt ~node:(Marcel.node th) ~page:(Page.page_of_addr rt.Runtime.geo addr)

let write_hook (rt : t) th proto ~addr ~value =
  (match proto.Protocol.on_local_write with
  | None -> ()
  | Some hook ->
      let geo = rt.Runtime.geo in
      hook rt ~node:(Marcel.node th) ~page:(Page.page_of_addr geo addr)
        ~offset:(Page.offset_of_addr geo addr) ~value);
  (* A blocking hook (the quorum protocols' put round) means the write only
     takes effect now; widen its recorded real-time window to match. *)
  match rt.Runtime.history with
  | None -> ()
  | Some h -> History.extend_finish h ~tid:(Marcel.tid th) (Engine.now (Runtime.engine rt))

let[@inline never] read_int_general rt th addr =
  let start = history_start rt in
  let proto = access rt th ~addr ~mode:Access.Read in
  let value = Frame_store.read_int rt.Runtime.mem.(Marcel.node th).Runtime.store ~addr in
  record_access rt th ~start ~write:false ~addr ~value;
  read_hook rt th proto ~addr;
  value

let[@inline never] write_int_general rt th addr value =
  let start = history_start rt in
  let proto = access rt th ~addr ~mode:Access.Write in
  Frame_store.write_int rt.Runtime.mem.(Marcel.node th).Runtime.store ~addr value;
  (* Record before the hook: propagation (update pushes, diff flushes) may
     block, and a remote read of the propagated value must find this write
     already in the history. *)
  record_access rt th ~start ~write:true ~addr ~value;
  write_hook rt th proto ~addr ~value

(* History works at word granularity: a byte access reports its containing
   word. *)
let[@inline never] read_byte_general rt th addr =
  let start = history_start rt in
  let proto = access rt th ~addr ~mode:Access.Read in
  let store = rt.Runtime.mem.(Marcel.node th).Runtime.store in
  let b = Frame_store.read_byte store ~addr in
  let word_addr = addr land lnot 7 in
  let value = Frame_store.read_int store ~addr:word_addr in
  record_access rt th ~start ~write:false ~addr:word_addr ~value;
  read_hook rt th proto ~addr:word_addr;
  b

let[@inline never] write_byte_general rt th addr value =
  let start = history_start rt in
  let proto = access rt th ~addr ~mode:Access.Write in
  let store = rt.Runtime.mem.(Marcel.node th).Runtime.store in
  Frame_store.write_byte store ~addr value;
  let word_addr = addr land lnot 7 in
  let value = Frame_store.read_int store ~addr:word_addr in
  record_access rt th ~start ~write:true ~addr:word_addr ~value;
  write_hook rt th proto ~addr:word_addr ~value

let read_int rt addr =
  let frame = hit_frame rt ~node:(node_tag rt) ~addr ~mode:Access.Read in
  if frame != refused then begin
    let value = Frame_store.unsafe_get_word frame ~addr ~off:(offset rt addr) in
    (match rt.Runtime.history with None -> () | Some _ -> record_hit rt ~write:false ~addr);
    value
  end
  else read_int_general rt (self rt) addr

let write_int rt addr value =
  let frame = hit_frame rt ~node:(node_tag rt) ~addr ~mode:Access.Write in
  if frame != refused then begin
    Frame_store.unsafe_set_word frame ~addr ~off:(offset rt addr) value;
    match rt.Runtime.history with None -> () | Some _ -> record_hit rt ~write:true ~addr
  end
  else write_int_general rt (self rt) addr value

let read_byte rt addr =
  let frame = hit_frame rt ~node:(node_tag rt) ~addr ~mode:Access.Read in
  if frame != refused then begin
    let b = Frame_store.get_byte frame ~off:(offset rt addr) in
    (match rt.Runtime.history with None -> () | Some _ -> record_hit rt ~write:false ~addr);
    b
  end
  else read_byte_general rt (self rt) addr

let write_byte rt addr value =
  let frame = hit_frame rt ~node:(node_tag rt) ~addr ~mode:Access.Write in
  if frame != refused then begin
    Frame_store.set_byte frame ~off:(offset rt addr) value;
    match rt.Runtime.history with None -> () | Some _ -> record_hit rt ~write:true ~addr
  end
  else write_byte_general rt (self rt) addr value

let unsafe_peek (rt : t) ~node addr =
  Frame_store.read_int (Runtime.store rt node) ~addr

let unsafe_rights (rt : t) ~node ~addr =
  let page = Page.page_of_addr rt.Runtime.geo addr in
  Page_table.rights (Runtime.entry rt ~node ~page)

(* --- conformance history --- *)

let enable_history (rt : t) =
  match rt.Runtime.history with
  | Some h -> h
  | None ->
      let h = History.create () in
      rt.Runtime.history <- Some h;
      h

let history (rt : t) = rt.Runtime.history

(* --- synchronization --- *)

let lock_create = Dsm_sync.lock_create
let lock_acquire = Dsm_sync.lock_acquire
let lock_release = Dsm_sync.lock_release
let with_lock = Dsm_sync.with_lock
let barrier_create = Dsm_sync.barrier_create
let barrier_wait = Dsm_sync.barrier_wait

(* --- threads and execution --- *)

let spawn (rt : t) ?stack_bytes ?attached_bytes ?migratable ~node f =
  Pm2.spawn rt.Runtime.pm2 ?stack_bytes ?attached_bytes ?migratable ~node f

let join rt th = Marcel.join (Runtime.marcel rt) th
let self_node = Runtime.self_node
let charge rt us =
  let marcel = Runtime.marcel rt in
  let th = Marcel.self marcel in
  Marcel.charge_thread marcel th us;
  Pm2.honour_move rt.Runtime.pm2 th

let compute rt us =
  Marcel.compute (Runtime.marcel rt) us;
  Pm2.migrate_if_requested rt.Runtime.pm2
(* --- fault injection --- *)

let inject_faults (rt : t) ?(retry = Rpc.default_retry) plan =
  let net = Pm2.network rt.Runtime.pm2 in
  Dsmpm2_net.Network.set_fault_plan net plan;
  if Fault_plan.has_faults plan then begin
    let marcel = Runtime.marcel rt in
    (* The gate is consulted at fiber-slice execution time: a slice about to
       run on a crashed node is parked (re-queued at the window's end)
       instead of executing — freeze-and-resume crash semantics.  Fibers
       that are not Marcel threads (drivers, observers) keep running. *)
    Engine.set_gate (Runtime.engine rt) (fun fid now ->
        match Marcel.node_of_fiber marcel fid with
        | None -> None
        | Some node ->
            if Fault_plan.is_down plan ~node now then
              Some (Fault_plan.up_at plan ~node ~now)
            else None);
    Rpc.set_retry (Runtime.rpc rt) ~seed:(Fault_plan.seed plan) (Some retry);
    (* Make the crash windows first-class in the trace: a Crash event when
       each window opens (carrying its scheduled end) and a Restart when it
       closes.  Scheduled as observer events — no tie-key draws — so the
       seeded schedule is bit-for-bit identical with or without them, and
       only when tracing is already on so unmonitored runs gain no events
       at all (their end times must not move). *)
    let eng = Runtime.engine rt in
    let tr = Pm2.trace rt.Runtime.pm2 in
    if Trace.enabled tr then
      List.iter
        (fun w ->
          let node = w.Fault_plan.w_node in
          if w.Fault_plan.w_down >= Engine.now eng then
            Engine.at_observer eng w.Fault_plan.w_down (fun () ->
                if Trace.enabled tr then
                  Trace.emit tr eng
                    (Trace.Crash { node; up = w.Fault_plan.w_up }));
          if w.Fault_plan.w_up >= Engine.now eng then
            Engine.at_observer eng w.Fault_plan.w_up (fun () ->
                if Trace.enabled tr then Trace.emit tr eng (Trace.Restart { node })))
        (Fault_plan.windows plan)
  end
  else begin
    (* An empty plan must leave every schedule bit-for-bit intact: no gate
       (zero extra tie draws) and no reply deadlines (zero extra events). *)
    Engine.clear_gate (Runtime.engine rt);
    Rpc.set_retry (Runtime.rpc rt) None
  end

let fault_plan (rt : t) =
  Dsmpm2_net.Network.fault_plan (Pm2.network rt.Runtime.pm2)

let run ?limit (rt : t) =
  (* An attached watchdog stops its timer when a run drains; re-arm it for
     this run (no-op without a watcher). *)
  Runtime.notify_rearm rt;
  Pm2.run ?limit rt.Runtime.pm2
let now_us (rt : t) = Pm2.now_us rt.Runtime.pm2
