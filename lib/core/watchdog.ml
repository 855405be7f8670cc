open Dsmpm2_sim
open Dsmpm2_net
open Dsmpm2_pm2
open Dsmpm2_mem

type severity = Trace.severity = Info | Warning | Critical

type alert = {
  al_at_us : float;
  al_severity : severity;
  al_kind : string;
  al_node : int;
  al_detail : string;
}

let alert_of_event ~at = function
  | Trace.Alert { severity; kind; node; detail } ->
      Some
        {
          al_at_us = Time.to_us at;
          al_severity = severity;
          al_kind = kind;
          al_node = node;
          al_detail = detail;
        }
  | _ -> None

type node_rates = {
  nr_node : int;
  nr_faults_s : float;
  nr_msgs_s : float;
  nr_bytes_s : float;
}

type sample = {
  sp_at_us : float;
  sp_events : int;
  sp_live_fibers : int;
  sp_rates : node_rates array;
  sp_proto_faults : (string * int) list;
  sp_hot_pages : (int * int) list;
  sp_alerts : int;
}

type config = {
  interval : Time.t;
  stall : Time.t;
  ring_capacity : int;
}

let default_config =
  { interval = Time.of_us 200.; stall = Time.of_us 20_000.; ring_capacity = 64 }

(* RPC retransmissions within one interval above which an
   "rpc.retry_storm" warning fires. *)
let retry_storm = 8

(* A blocked thread: what it waits for ([target] as in
   Runtime.watch_hooks), since when and on which node.  [wt_checked] is
   set once the stall of this wait has been checked against the dedup
   keys, so later ticks skip it. *)
type waiter = {
  wt_target : int;
  wt_since : Time.t;
  wt_node : int;
  mutable wt_checked : bool;
}

type t = {
  rt : Runtime.t;
  cfg : config;
  tele : Telemetry.t;
      (* the online telemetry engine: thrash detection, per-page
         classification and hot-page accounting all come from it *)
  waiters : (int, waiter) Hashtbl.t;  (* blocked tid -> its wait *)
  thread_node : (int, int) Hashtbl.t;  (* last known node of a tid *)
  reported : (string, unit) Hashtbl.t;  (* alert dedup keys *)
  mutable alerts_rev : alert list;  (* newest first *)
  mutable alert_count : int;
  mutable crit_count : int;
  mutable warn_count : int;
  mutable info_count : int;
  mutable prev_alerts : int;  (* alert_count at the previous sample *)
  (* The sample ring, unboxed: slot [i] of a sample is stride [i] of each
     array (see [floats_per_slot], [ints_per_slot]).  The arrays are
     allocated on the first tick, so attaching costs nothing. *)
  mutable ring_floats : float array;  (* at_us, then 3 rates per node *)
  mutable ring_ints : int array;  (* events, fibers, alerts, hot pages *)
  mutable ring_protos : int array;  (* interval faults by protocol id *)
  mutable proto_stride : int;  (* protocol ids per slot of [ring_protos] *)
  mutable ring_len : int;
  mutable ring_next : int;
  mutable prev_at : Time.t;
  prev_node_faults : int array;
  prev_node_msgs : int array;
  prev_node_bytes : int array;
  node_faults : int array;  (* scratch: this tick's per-node fault totals *)
  mutable prev_proto_faults : int array;  (* by protocol id, cumulative *)
  mutable audit_rows : Page_table.entry option array array;
      (* per page of node 0's table, in page order: every node's entry *)
  mutable audit_mapped : int;  (* total entries when [audit_rows] was built *)
  mutable samples_taken : int;
  mutable pages_audited : int;
  mutable armed : bool;
  mutable on_sample : (sample -> unit) option;
  prev_down : bool array;  (* per node: was inside a crash window last tick *)
  mutable prev_dropped : int;  (* network drop count at the previous tick *)
  mutable prev_retrans : int;  (* RPC retransmissions at the previous tick *)
}

(* --- alerts --- *)

(* The one choke point through which watchdog findings reach the trace.
   The [Monitor.enabled] guard means the [Trace.Alert] value is never even
   allocated while monitoring is off (pinned by the allocation smoke test);
   the explicit [no_span] matters because the watchdog runs in plain event
   context, where the default thread-span lookup would fault. *)
let forward_alert rt a =
  if Monitor.enabled rt then
    Monitor.emit rt ~span:Trace.no_span
      (Trace.Alert
         {
           severity = a.al_severity;
           kind = a.al_kind;
           node = a.al_node;
           detail = a.al_detail;
         })

let raise_alert w ?(node = -1) ~severity ~kind detail =
  let a =
    {
      al_at_us = Pm2.now_us w.rt.Runtime.pm2;
      al_severity = severity;
      al_kind = kind;
      al_node = node;
      al_detail = detail;
    }
  in
  w.alerts_rev <- a :: w.alerts_rev;
  w.alert_count <- w.alert_count + 1;
  (match severity with
  | Critical -> w.crit_count <- w.crit_count + 1
  | Warning -> w.warn_count <- w.warn_count + 1
  | Info -> w.info_count <- w.info_count + 1);
  forward_alert w.rt a

(* Raise each distinct finding once: the sampler would otherwise repeat a
   persistent violation every tick. *)
let once w key f =
  if not (Hashtbl.mem w.reported key) then begin
    Hashtbl.add w.reported key ();
    f ()
  end

let alerts w = List.rev w.alerts_rev
let telemetry w = w.tele
let alert_counts w = (w.info_count, w.warn_count, w.crit_count)
let samples_taken w = w.samples_taken
let pages_audited w = w.pages_audited
let set_on_sample w f = w.on_sample <- Some f

(* --- the sample ring --- *)

let hot_pages = 5
let floats_per_slot nodes = 1 + (3 * nodes)
let ints_per_slot = 4 + (2 * hot_pages)

(* Interval faults per protocol name, in name order, named on read: ids
   sharing a name count as one protocol, and protocols without a fault
   are left out. *)
let proto_faults w slot =
  let cells = w.rt.Runtime.cells in
  let protos = cells.Instrument.protos in
  let rec group = function
    | (a, x) :: (b, y) :: rest when String.equal a b -> group ((a, x + y) :: rest)
    | (a, x) :: rest -> if x > 0 then (a, x) :: group rest else group rest
    | [] -> []
  in
  List.init w.proto_stride Fun.id
  |> List.filter (fun p -> Array.length protos.(p) > 0)
  |> List.map (fun p ->
         (cells.Instrument.protocol_name p, w.ring_protos.((slot * w.proto_stride) + p)))
  |> List.stable_sort (fun (a, _) (b, _) -> String.compare a b)
  |> group

let decode w slot =
  let nodes = Array.length w.node_faults in
  let fl = w.ring_floats and fb = slot * floats_per_slot nodes in
  let it = w.ring_ints and ib = slot * ints_per_slot in
  {
    sp_at_us = fl.(fb);
    sp_events = it.(ib);
    sp_live_fibers = it.(ib + 1);
    sp_rates =
      Array.init nodes (fun nd ->
          let b = fb + 1 + (3 * nd) in
          {
            nr_node = nd;
            nr_faults_s = fl.(b);
            nr_msgs_s = fl.(b + 1);
            nr_bytes_s = fl.(b + 2);
          });
    sp_proto_faults = proto_faults w slot;
    sp_hot_pages =
      List.init it.(ib + 3) (fun k -> (it.(ib + 4 + (2 * k)), it.(ib + 5 + (2 * k))));
    sp_alerts = it.(ib + 2);
  }

let samples w =
  let cap = w.cfg.ring_capacity in
  let start = (w.ring_next - w.ring_len + cap) mod cap in
  List.init w.ring_len (fun i -> decode w ((start + i) mod cap))

(* --- wait-for graph --- *)

let on_wait w ~node ~tid ~target =
  Hashtbl.replace w.thread_node tid node;
  Hashtbl.replace w.waiters tid
    {
      wt_target = target;
      wt_since = Engine.now (Runtime.engine w.rt);
      wt_node = node;
      wt_checked = false;
    }

let on_wake w ~node ~tid ~target:_ =
  Hashtbl.replace w.thread_node tid node;
  Hashtbl.remove w.waiters tid

let target_name target =
  match Dsm_sync.hook_target target with
  | `Lock l -> Printf.sprintf "lock %d" l
  | `Barrier b -> Printf.sprintf "barrier %d" b

let node_of_tid w tid =
  Option.value ~default:(-1) (Hashtbl.find_opt w.thread_node tid)

(* [chain] is [(tid, lock); ...]: each thread waits for its lock, whose
   holder is the next thread (cyclically).  Named in full — both locks and
   both waiting nodes — because the deadlock regression asserts on them. *)
let report_cycle w chain =
  let locks = List.sort_uniq Int.compare (List.map snd chain) in
  let key =
    "deadlock:" ^ String.concat "," (List.map string_of_int locks)
  in
  once w key (fun () ->
      let desc =
        String.concat " -> "
          (List.map
             (fun (tid, lock) ->
               Printf.sprintf "thread %d (node %d) waits for lock %d" tid
                 (node_of_tid w tid) lock)
             chain)
      in
      raise_alert w ~severity:Critical ~kind:"deadlock.cycle"
        (Printf.sprintf "%s -> back to thread %d" desc (fst (List.hd chain))))

(* Follow waiting-thread -> wanted-lock -> holding-thread edges.  Client
   wait hooks provide the first kind of edge, the managers' [lock_state]
   directories the second; barrier waits have no single holder and end a
   chain.  A self-edge (a thread "holding" the lock it waits for) is the
   grant-in-flight transient, not a deadlock, and cycles are only reported
   through two or more threads. *)
let detect_cycles w =
  let rt = w.rt in
  let next tid =
    match Hashtbl.find_opt w.waiters tid with
    | Some { wt_target = lock; _ } when lock >= 0 && lock < rt.Runtime.next_lock ->
        let ls = Runtime.lock_state rt lock in
        if ls.Runtime.lock_held && ls.Runtime.lock_holder >= 0 then
          Some (lock, ls.Runtime.lock_holder)
        else None
    | _ -> None
  in
  Hashtbl.iter
    (fun tid0 _ ->
      let rec follow tid path steps =
        if steps <= 64 then
          match next tid with
          | None -> ()
          | Some (lock, holder) ->
              if holder = tid then ()
              else if holder = tid0 && path <> [] then
                report_cycle w (List.rev ((tid, lock) :: path))
              else if List.exists (fun (t, _) -> t = holder) ((tid, lock) :: path)
              then () (* a cycle not through tid0: found from its own start *)
              else follow holder ((tid, lock) :: path) (steps + 1)
      in
      follow tid0 [] 0)
    w.waiters

(* A wait past the stall bound is checked against its dedup key once:
   the key is reported at most once across all waits, so a later tick of
   the same wait would find it reported. *)
let check_stalls w now =
  Hashtbl.iter
    (fun tid wt ->
      if not wt.wt_checked then begin
        let waited = Time.(now - wt.wt_since) in
        if waited >= w.cfg.stall then begin
          wt.wt_checked <- true;
          let target = wt.wt_target and node = wt.wt_node in
          let kind = if target < 0 then "stall.barrier" else "stall.lock" in
          once w (Printf.sprintf "%s:%d:%d" kind tid target) (fun () ->
              raise_alert w ~node ~severity:Warning ~kind
                (Printf.sprintf "thread %d on node %d blocked on %s for %.0f us"
                   tid node (target_name target) (Time.to_us waited)))
        end
      end)
    w.waiters

(* --- telemetry drain ---

   Thrash detection and hot-page accounting come from the telemetry
   engine, which observes every trace emission at the source (before
   sampling and ring eviction) instead of rescanning stored events: the
   findings stay exact on runs where the flight recorder or the sampler
   would have starved a trace-scanning loop.  The watchdog's job is
   reduced to turning interval findings into alerts. *)

let drain_telemetry w =
  let iv = Telemetry.end_interval w.tele in
  List.iter
    (fun (r : Telemetry.thrash_report) ->
      raise_alert w ~severity:Warning ~kind:"thrash.page"
        (Printf.sprintf
           "page %d ping-ponged %d times across nodes [%s] within %.0f us"
           r.Telemetry.th_page r.Telemetry.th_count
           (String.concat "," (List.map string_of_int r.Telemetry.th_nodes))
           (Time.to_us r.Telemetry.th_span)))
    iv.Telemetry.iv_thrash;
  iv

(* --- page-table invariant audits ---

   A tick audits every page of node 0's table.  The audit reads a cached
   row per page holding every node's entry, rebuilt only when some table
   maps a new page (pages are never unmapped); with no violation to report
   it allocates nothing, so its cost is one pass over pages x nodes. *)

let audit_rows w =
  let rt = w.rt in
  let n = Runtime.nodes rt in
  let mapped = ref 0 in
  for node = 0 to n - 1 do
    mapped := !mapped + Page_table.length (Runtime.table rt node)
  done;
  if !mapped <> w.audit_mapped then begin
    let table0 = Runtime.table rt 0 in
    let rows = Array.make (Page_table.length table0) [||] in
    let i = ref 0 in
    Page_table.iter table0 (fun e0 ->
        let page = e0.Page_table.page in
        rows.(!i) <- Array.init n (fun node -> Page_table.find_opt (Runtime.table rt node) page);
        incr i);
    w.audit_rows <- rows;
    w.audit_mapped <- !mapped
  end;
  w.audit_rows

let entry_of row node =
  match row.(node) with Some e -> e | None -> assert false

(* A page with a fault in flight anywhere is mid-transition: every legal
   protocol transient (ownership transfer, invalidation sweep, copyset
   update) happens under some node's faulting/pinned flag, so skipping
   those pages makes the audit transient-free. *)
let rec transient row node =
  node < Array.length row
  && ((match row.(node) with
      | Some (e : Page_table.entry) -> e.Page_table.faulting || Page_table.pinned e
      | None -> false)
     || transient row (node + 1))

let audit_agreement w ~page (e0 : Page_table.entry) row =
  for node = 0 to Array.length row - 1 do
    match row.(node) with
    | None -> ()
    | Some (e : Page_table.entry) ->
        if e.Page_table.protocol <> e0.Page_table.protocol then
          once w (Printf.sprintf "inv.proto:%d:%d" page node) (fun () ->
              raise_alert w ~node ~severity:Critical ~kind:"invariant.protocol"
                (Printf.sprintf
                   "page %d: node %d maps protocol %d but node 0 maps %d" page
                   node e.Page_table.protocol e0.Page_table.protocol));
        if e.Page_table.home <> e0.Page_table.home then
          once w (Printf.sprintf "inv.home:%d:%d" page node) (fun () ->
              raise_alert w ~node ~severity:Critical ~kind:"invariant.home"
                (Printf.sprintf
                   "page %d: node %d believes home is %d but node 0 says %d"
                   page node e.Page_table.home e0.Page_table.home))
  done

let self_owned row node =
  match row.(node) with
  | Some (e : Page_table.entry) -> e.Page_table.prob_owner = node
  | None -> false

let rec audit_copyset w ~page ~owner row = function
  | [] -> ()
  | c :: rest ->
      (if c <> owner && c >= 0 && c < Array.length row then
         match row.(c) with
         | Some (e : Page_table.entry) ->
             let has_frame = Frame_store.has_frame (Runtime.store w.rt c) page in
             if (not (Page_table.allows e Access.Read)) || not has_frame
             then
               once w (Printf.sprintf "inv.copyset:%d:%d" page c) (fun () ->
                   raise_alert w ~node:c ~severity:Critical
                     ~kind:"invariant.copyset"
                     (Printf.sprintf
                        "page %d: node %d is in the owner's copyset but holds \
                         %s rights%s"
                        page c
                        (Access.to_string (Page_table.rights e))
                        (if has_frame then "" else " and no frame")))
         | None -> ());
      audit_copyset w ~page ~owner row rest

let audit_owner w ~page ~owner row =
  let n = Array.length row in
  let oe = entry_of row owner in
  for node = 0 to n - 1 do
    match row.(node) with
    | Some (e : Page_table.entry) when node <> owner ->
        if Page_table.allows e Access.Write then
          once w (Printf.sprintf "inv.owner.w:%d:%d" page node) (fun () ->
              raise_alert w ~node ~severity:Critical ~kind:"invariant.owner"
                (Printf.sprintf
                   "page %d: node %d holds a writable frame but the owner is \
                    node %d"
                   page node owner))
        else if
          Page_table.rights oe = Access.Read_write
          && Page_table.rights e <> Access.No_access
        then
          once w (Printf.sprintf "inv.owner.x:%d:%d" page node) (fun () ->
              raise_alert w ~node ~severity:Critical ~kind:"invariant.owner"
                (Printf.sprintf
                   "page %d: owner %d is in write mode but node %d still has \
                    %s rights"
                   page owner node
                   (Access.to_string (Page_table.rights e))))
    | _ -> ()
  done;
  audit_copyset w ~page ~owner row oe.Page_table.copyset

let audit_page w row =
  let e0 = entry_of row 0 in
  let page = e0.Page_table.page in
  if not (transient row 0) then begin
    w.pages_audited <- w.pages_audited + 1;
    audit_agreement w ~page e0 row;
    let proto = Runtime.proto w.rt e0.Page_table.protocol in
    (* The MRSW invariants below assume ownership-based coherence.  A
       per-access protocol (one that revokes rights after every read, i.e.
       [on_local_read] is set — the quorum family) enforces its model by
       majority intersection instead: there is no standing owner, and a
       writer briefly holds a writable frame away from the nominal owner
       while its propagation round is in flight.  Those are legal states,
       so such protocols are exempt. *)
    if
      Protocol.strict_coherence proto.Protocol.model
      && proto.Protocol.on_local_read = None
    then begin
      let owners = ref 0 and owner = ref (-1) in
      for node = 0 to Array.length row - 1 do
        if self_owned row node then begin
          incr owners;
          if !owner < 0 then owner := node
        end
      done;
      match !owners with
      | 1 -> audit_owner w ~page ~owner:!owner row
      | 0 ->
          once w (Printf.sprintf "inv.owner0:%d" page) (fun () ->
              raise_alert w ~severity:Critical ~kind:"invariant.owner"
                (Printf.sprintf "page %d: no node believes it is the owner" page))
      | _ ->
          once w (Printf.sprintf "inv.ownerN:%d" page) (fun () ->
              let many =
                List.filter (self_owned row)
                  (List.init (Array.length row) Fun.id)
              in
              raise_alert w ~severity:Critical ~kind:"invariant.owner"
                (Printf.sprintf "page %d: multiple self-owners: [%s]" page
                   (String.concat "," (List.map string_of_int many))))
    end
  end

let audit w =
  let rows = audit_rows w in
  for i = 0 to Array.length rows - 1 do
    audit_page w rows.(i)
  done

(* --- fault-plan health (only active when a plan is installed) --- *)

let check_faults w now =
  let rt = w.rt in
  let net = Pm2.network rt.Runtime.pm2 in
  let plan = Network.fault_plan net in
  if Fault_plan.has_faults plan then begin
    for node = 0 to Runtime.nodes rt - 1 do
      let down = Fault_plan.is_down plan ~node now in
      if down && not w.prev_down.(node) then
        raise_alert w ~node ~severity:Warning ~kind:"node.dead"
          (Printf.sprintf "node %d entered a crash window (restarts at %.1f us)"
             node
             (Time.to_us (Fault_plan.up_at plan ~node ~now)))
      else if (not down) && w.prev_down.(node) then
        raise_alert w ~node ~severity:Info ~kind:"node.restart"
          (Printf.sprintf "node %d restarted" node);
      w.prev_down.(node) <- down
    done;
    let dropped = Network.messages_dropped net in
    if dropped > w.prev_dropped then
      once w "fault.partition" (fun () ->
          raise_alert w ~severity:Info ~kind:"node.partitioned"
            (Printf.sprintf
               "fault plan is dropping traffic (%d messages so far: %d seeded \
                losses, %d crash blackholes)"
               dropped
               (Fault_plan.messages_lost plan)
               (Fault_plan.messages_blackholed plan)));
    w.prev_dropped <- dropped;
    let retrans = Rpc.retransmissions (Runtime.rpc rt) in
    if retrans - w.prev_retrans > retry_storm then
      once w "fault.retry_storm" (fun () ->
          raise_alert w ~severity:Warning ~kind:"rpc.retry_storm"
            (Printf.sprintf
               "%d RPC retransmissions within one %.0f us interval (threshold \
                %d): calls are hammering an unreachable node"
               (retrans - w.prev_retrans)
               (Time.to_us w.cfg.interval)
               retry_storm));
    w.prev_retrans <- retrans
  end

(* --- interval rates --- *)

(* The fault counters are read straight from the runtime's fault cells
   ({!Instrument.proto_cells}), protocol by protocol, and every figure of
   the sample is written into the ring's arrays: a quiet tick allocates
   nothing here. *)

let alloc_ring w =
  let cap = w.cfg.ring_capacity and nodes = Array.length w.node_faults in
  w.ring_floats <- Array.make (cap * floats_per_slot nodes) 0.;
  w.ring_ints <- Array.make (cap * ints_per_slot) 0

(* Protocols register after the runtime is built: a new protocol id widens
   every slot of [ring_protos], the recorded slots keeping their counts. *)
let widen_protos w n =
  let cap = w.cfg.ring_capacity and old = w.proto_stride in
  let grown = Array.make (cap * n) 0 in
  for slot = 0 to cap - 1 do
    Array.blit w.ring_protos (slot * old) grown (slot * n) old
  done;
  w.ring_protos <- grown;
  w.proto_stride <- n;
  w.prev_proto_faults <- Dense.ensure w.prev_proto_faults (n - 1) 0

(* Adds protocol [p]'s faults ({!Instrument.faults}) into [node_faults],
   node by node, and returns their sum. *)
let add_faults (cells : Instrument.t) node_faults p =
  let row = cells.Instrument.protos.(p) in
  let total = ref 0 in
  for nd = 0 to Array.length row - 1 do
    let f = Instrument.faults row.(nd) in
    node_faults.(nd) <- node_faults.(nd) + f;
    total := !total + f
  done;
  !total

(* [installs] arrives sorted (most active first) from the telemetry
   interval; the first [hot_pages] are kept, as (page, transfers) pairs
   after their count. *)
let rec put_hot it ib k = function
  | (page, c) :: rest when k < hot_pages ->
      it.(ib + 4 + (2 * k)) <- page;
      it.(ib + 5 + (2 * k)) <- c;
      put_hot it ib (k + 1) rest
  | _ -> it.(ib + 3) <- k

(* Records this tick's sample in ring slot [ring_next] and returns the
   slot. *)
let snapshot w now ~installs =
  let rt = w.rt in
  let cells = rt.Runtime.cells in
  let nodes = Array.length w.node_faults in
  let dt_s = Time.to_us Time.(now - w.prev_at) /. 1e6 in
  if Array.length w.ring_ints = 0 then alloc_ring w;
  let n_protos = Array.length cells.Instrument.protos in
  if n_protos > w.proto_stride then widen_protos w n_protos;
  let slot = w.ring_next in
  let node_faults = w.node_faults in
  Array.fill node_faults 0 nodes 0;
  let pb = slot * w.proto_stride in
  for p = 0 to n_protos - 1 do
    let cur = add_faults cells node_faults p in
    w.ring_protos.(pb + p) <- cur - w.prev_proto_faults.(p);
    w.prev_proto_faults.(p) <- cur
  done;
  let net = Pm2.network rt.Runtime.pm2 in
  let fl = w.ring_floats and fb = slot * floats_per_slot nodes in
  fl.(fb) <- Time.to_us now;
  for nd = 0 to nodes - 1 do
    let msgs = Network.messages_from net nd
    and bytes = Network.bytes_from net nd in
    let b = fb + 1 + (3 * nd) in
    (* Written out rather than through a helper, which would box [dt_s]
       at every call. *)
    if dt_s <= 0. then Array.fill fl b 3 0.
    else begin
      fl.(b) <- float_of_int (node_faults.(nd) - w.prev_node_faults.(nd)) /. dt_s;
      fl.(b + 1) <- float_of_int (msgs - w.prev_node_msgs.(nd)) /. dt_s;
      fl.(b + 2) <- float_of_int (bytes - w.prev_node_bytes.(nd)) /. dt_s
    end;
    w.prev_node_faults.(nd) <- node_faults.(nd);
    w.prev_node_msgs.(nd) <- msgs;
    w.prev_node_bytes.(nd) <- bytes
  done;
  w.prev_at <- now;
  let eng = Runtime.engine rt in
  let it = w.ring_ints and ib = slot * ints_per_slot in
  it.(ib) <- Engine.events_executed eng;
  it.(ib + 1) <- Engine.live_fibers eng;
  it.(ib + 2) <- w.alert_count - w.prev_alerts;
  put_hot it ib 0 installs;
  w.prev_alerts <- w.alert_count;
  let cap = w.cfg.ring_capacity in
  w.ring_next <- (slot + 1) mod cap;
  if w.ring_len < cap then w.ring_len <- w.ring_len + 1;
  slot

(* --- the sampler --- *)

let tick w =
  let rt = w.rt in
  let eng = Runtime.engine rt in
  let now = Engine.now eng in
  w.samples_taken <- w.samples_taken + 1;
  let iv = drain_telemetry w in
  if Hashtbl.length w.waiters > 0 then begin
    check_stalls w now;
    detect_cycles w
  end;
  check_faults w now;
  audit w;
  let slot = snapshot w now ~installs:iv.Telemetry.iv_installs in
  (match w.on_sample with Some f -> f (decode w slot) | None -> ());
  let live = Engine.live_fibers eng in
  let pending = Engine.pending_events eng in
  if pending = 0 && live > 0 then begin
    (* Nothing left in the queue but fibers remain: the exact condition
       under which [Engine.run] raises [Stalled] once we step aside.  Name
       what we know, then stop re-arming so the stall surfaces. *)
    if
      not
        (List.exists
           (fun a -> a.al_kind = "deadlock.cycle")
           w.alerts_rev)
    then begin
      let blocked =
        Hashtbl.fold
          (fun tid wt acc ->
            Printf.sprintf "thread %d (node %d) on %s" tid wt.wt_node
              (target_name wt.wt_target)
            :: acc)
          w.waiters []
      in
      let detail =
        if blocked = [] then
          Printf.sprintf "%d fibers blocked outside DSM synchronization" live
        else
          Printf.sprintf "%d fibers blocked: %s" live
            (String.concat "; " (List.sort String.compare blocked))
      in
      raise_alert w ~severity:Critical ~kind:"deadlock.stall" detail
    end;
    w.armed <- false;
    false
  end
  else if pending = 0 && live = 0 then begin
    (* Run drained; [Dsm.run] re-arms us if another phase starts. *)
    w.armed <- false;
    false
  end
  else true

let arm w =
  if not w.armed then begin
    w.armed <- true;
    Engine.periodic (Runtime.engine w.rt) ~interval:w.cfg.interval (fun () ->
        tick w)
  end

let attach ?(config = default_config) rt =
  (match rt.Runtime.watch with
  | Some _ -> invalid_arg "Watchdog.attach: a watchdog is already attached"
  | None -> ());
  if config.ring_capacity <= 0 then
    invalid_arg "Watchdog.attach: ring_capacity must be positive";
  let nodes = Runtime.nodes rt in
  (* The watchdog consumes an attached telemetry engine rather than
     scanning the trace itself; reuse one if present (keeping whatever
     config it was given), otherwise attach one with the defaults. *)
  let tele =
    match Telemetry.find rt with Some t -> t | None -> Telemetry.attach rt
  in
  let w =
    {
      rt;
      cfg = config;
      tele;
      waiters = Hashtbl.create 32;
      thread_node = Hashtbl.create 32;
      reported = Hashtbl.create 32;
      alerts_rev = [];
      alert_count = 0;
      crit_count = 0;
      warn_count = 0;
      info_count = 0;
      prev_alerts = 0;
      ring_floats = [||];
      ring_ints = [||];
      ring_protos = [||];
      proto_stride = 0;
      ring_len = 0;
      ring_next = 0;
      prev_at = Engine.now (Runtime.engine rt);
      prev_node_faults = Array.make nodes 0;
      prev_node_msgs = Array.make nodes 0;
      prev_node_bytes = Array.make nodes 0;
      node_faults = Array.make nodes 0;
      prev_proto_faults = [||];
      audit_rows = [||];
      audit_mapped = -1;
      samples_taken = 0;
      pages_audited = 0;
      armed = false;
      on_sample = None;
      prev_down = Array.make nodes false;
      prev_dropped = 0;
      prev_retrans = 0;
    }
  in
  rt.Runtime.watch <-
    Some
      {
        Runtime.wh_wait = (fun ~node ~tid ~target -> on_wait w ~node ~tid ~target);
        wh_wake = (fun ~node ~tid ~target -> on_wake w ~node ~tid ~target);
        wh_rearm = (fun () -> arm w);
      };
  arm w;
  w

(* --- reports --- *)

let alert_to_json a =
  Json.Obj
    [
      ("at_us", Json.Float a.al_at_us);
      ("severity", Json.String (Trace.severity_to_string a.al_severity));
      ("kind", Json.String a.al_kind);
      ("node", Json.Int a.al_node);
      ("detail", Json.String a.al_detail);
    ]

let sample_to_json s =
  Json.Obj
    [
      ("at_us", Json.Float s.sp_at_us);
      ("events", Json.Int s.sp_events);
      ("live_fibers", Json.Int s.sp_live_fibers);
      ( "nodes",
        Json.List
          (Array.to_list
             (Array.map
                (fun r ->
                  Json.Obj
                    [
                      ("node", Json.Int r.nr_node);
                      ("faults_s", Json.Float r.nr_faults_s);
                      ("msgs_s", Json.Float r.nr_msgs_s);
                      ("bytes_s", Json.Float r.nr_bytes_s);
                    ])
                s.sp_rates)) );
      ( "protocol_faults",
        Json.Obj (List.map (fun (p, c) -> (p, Json.Int c)) s.sp_proto_faults) );
      ( "hot_pages",
        Json.List
          (List.map
             (fun (p, c) ->
               Json.Obj [ ("page", Json.Int p); ("transfers", Json.Int c) ])
             s.sp_hot_pages) );
      ("alerts", Json.Int s.sp_alerts);
    ]

let health_json w =
  Json.Obj
    [
      ("meta", Run_meta.to_json (Monitor.run_meta w.rt));
      ("sim_time_us", Json.Float (Pm2.now_us w.rt.Runtime.pm2));
      ("samples", Json.Int w.samples_taken);
      ("pages_audited", Json.Int w.pages_audited);
      ("healthy", Json.Bool (w.crit_count = 0));
      ( "alert_counts",
        Json.Obj
          [
            ("info", Json.Int w.info_count);
            ("warning", Json.Int w.warn_count);
            ("critical", Json.Int w.crit_count);
            ("total", Json.Int w.alert_count);
          ] );
      ("alerts", Json.List (List.rev_map alert_to_json w.alerts_rev));
      ("timeseries", Json.List (List.map sample_to_json (samples w)));
      ("telemetry", Telemetry.to_json w.tele);
    ]

let pp_sample ppf (w, s) =
  Format.fprintf ppf "t=%10.1f us  events=%-9d live=%-4d alerts=%d@."
    s.sp_at_us s.sp_events s.sp_live_fibers w.alert_count;
  Format.fprintf ppf "  %-6s %12s %12s %14s@." "node" "faults/s" "msgs/s"
    "bytes/s";
  Array.iter
    (fun r ->
      Format.fprintf ppf "  %-6d %12.0f %12.0f %14.0f@." r.nr_node
        r.nr_faults_s r.nr_msgs_s r.nr_bytes_s)
    s.sp_rates;
  if s.sp_proto_faults <> [] then
    Format.fprintf ppf "  interval faults: %s@."
      (String.concat ", "
         (List.map
            (fun (p, c) -> Printf.sprintf "%s=%d" p c)
            s.sp_proto_faults));
  if s.sp_hot_pages <> [] then
    Format.fprintf ppf "  hot pages: %s@."
      (String.concat ", "
         (List.map
            (fun (p, c) -> Printf.sprintf "%d (%d transfers)" p c)
            s.sp_hot_pages))

let pp_summary ppf w =
  Format.fprintf ppf "Watchdog: %d samples, %d page audits, %d alerts@."
    w.samples_taken w.pages_audited w.alert_count;
  if w.alert_count = 0 then Format.fprintf ppf "  no findings: run is healthy@."
  else
    List.iter
      (fun a ->
        Format.fprintf ppf "  [%-8s] %8.1f us  %-18s %s@."
          (Trace.severity_to_string a.al_severity)
          a.al_at_us a.al_kind a.al_detail)
      (alerts w)
