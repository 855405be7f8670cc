open Dsmpm2_sim
open Dsmpm2_pm2
open Dsmpm2_mem

type costs = {
  page_fault_us : float;
  protocol_server_us : float;
  protocol_client_us : float;
  migration_protocol_us : float;
  inline_check_us : float;
}

let default_costs =
  {
    page_fault_us = 11.;
    protocol_server_us = 13.;
    protocol_client_us = 13.;
    migration_protocol_us = 1.;
    inline_check_us = 0.05;
  }

type lock_state = {
  lock_id : int;
  lock_manager : int;
  mutable lock_protocol : int;
  mutable lock_held : bool;
  mutable lock_holder : int;
  lock_queue : Marcel.Cond.t;
  lock_mutex : Marcel.Mutex.t;
  mutable lock_acquisitions : int;
  mutable lock_ext : Page_table.ext;
}

type barrier_state = {
  barrier_id : int;
  barrier_manager : int;
  barrier_parties : int;
  mutable barrier_protocol : int;
  mutable barrier_arrived : int;
  mutable barrier_generation : int;
  barrier_cond : Marcel.Cond.t;
  barrier_mutex : Marcel.Mutex.t;
}

type services = {
  srv_request : Rpc.service;
  srv_send_page : Rpc.service;
  srv_invalidate : Rpc.service;
  srv_diffs : Rpc.service;
  srv_lock_acquire : Rpc.service;
  srv_lock_release : Rpc.service;
  srv_barrier : Rpc.service;
}

(* Open slot for layers above the runtime (Telemetry) to park per-DSM
   state without a dependency from [Runtime] on them: each layer extends
   the variant with its own constructor and pattern-matches it back out. *)
type attachment = ..

type t = {
  pm2 : Pm2.t;
  geo : Page.geometry;
  tables : Page_table.t array;
  stores : Frame_store.t array;
  registry : t Protocol.registry;
  mutable default_protocol : int;
  costs : costs;
  stats : Stats.t;
  cells : Instrument.t;
  mutable services : services option;
  mutable locks : lock_state array; (* by id; slots from [next_lock] on are filler *)
  mutable next_lock : int;
  mutable barriers : barrier_state array; (* by id, as [locks] *)
  mutable next_barrier : int;
  mutable fault_loop_limit : int;
  mutable diffs_batch_handlers : diffs_handler option array; (* by protocol id *)
  mutable history : History.t option;
  mutable watch : watch_hooks option;
  mutable telemetry : attachment option;
}

and diffs_handler =
  t -> node:int -> diffs:Diff.t list -> sender:int -> release:bool -> unit

and watch_hooks = {
  wh_wait : node:int -> tid:int -> target:int -> unit;
  wh_wake : node:int -> tid:int -> target:int -> unit;
  wh_rearm : unit -> unit;
}

let create ?(costs = default_costs) pm2 =
  let n = Pm2.nodes pm2 in
  let geo = Page.geometry ~size:(Isoalloc.page_size (Pm2.iso pm2)) in
  let stats = Stats.create () in
  let registry = Protocol.create_registry () in
  let cells =
    Instrument.create stats ~nodes:n ~protocol_name:(fun id ->
        (Protocol.find registry id).Protocol.name)
  in
  (* Inline access checks are charged as Marcel ticks (see [Dsm]). *)
  Marcel.set_tick_us (Pm2.marcel pm2) costs.inline_check_us;
  {
    pm2;
    geo;
    tables =
      Array.init n (fun node ->
          let table = Page_table.create ~node in
          Page_table.count_mapped table cells.Instrument.nodes.(node).Instrument.mapped;
          table);
    stores = Array.init n (fun _ -> Frame_store.create ~geometry:geo);
    registry;
    default_protocol = 0;
    costs;
    stats;
    cells;
    services = None;
    locks = [||];
    next_lock = 0;
    barriers = [||];
    next_barrier = 0;
    fault_loop_limit = 1000;
    diffs_batch_handlers = [||];
    history = None;
    watch = None;
    telemetry = None;
  }

(* The notify helpers take unboxed labeled ints, so a call site costs one
   option match and nothing else while no watcher is attached. *)
let notify_wait t ~node ~tid ~target =
  match t.watch with None -> () | Some w -> w.wh_wait ~node ~tid ~target

let notify_wake t ~node ~tid ~target =
  match t.watch with None -> () | Some w -> w.wh_wake ~node ~tid ~target

let notify_rearm t =
  match t.watch with None -> () | Some w -> w.wh_rearm ()

let nodes t = Pm2.nodes t.pm2
let[@inline] marcel t = Pm2.marcel t.pm2
let[@inline] engine t = Pm2.engine t.pm2
let rpc t = Pm2.rpc t.pm2
let self_node t = Pm2.self_node t.pm2
let table t node = t.tables.(node)
let store t node = t.stores.(node)
let proto t id = Protocol.find t.registry id

let services t =
  match t.services with
  | Some s -> s
  | None -> failwith "Runtime.services: Dsm_comm.init has not run"

let entry t ~node ~page = Page_table.find t.tables.(node) page

let lock_state t id =
  if id >= 0 && id < t.next_lock then t.locks.(id)
  else invalid_arg (Printf.sprintf "Runtime.lock_state: unknown lock %d" id)

let barrier_state t id =
  if id >= 0 && id < t.next_barrier then t.barriers.(id)
  else invalid_arg (Printf.sprintf "Runtime.barrier_state: unknown barrier %d" id)

let record_history t ~start kind =
  match t.history with
  | None -> ()
  | Some h ->
      History.record h
        ~tid:(Marcel.tid (Marcel.self (marcel t)))
        ~node:(self_node t) ~start
        ~finish:(Engine.now (engine t))
        kind
