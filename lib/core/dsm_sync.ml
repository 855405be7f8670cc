open Dsmpm2_sim
open Dsmpm2_net
open Dsmpm2_pm2

exception Lock_error of string

(* Barrier hooks borrow the lock-hook entry points with a synthetic id from
   a disjoint namespace: real lock ids are non-negative, barrier hook ids are
   strictly negative, so the two can never collide in a protocol's
   hook-state tables. *)
let barrier_hook_id bid = -bid - 1
let hook_target id = if id < 0 then `Barrier (-id - 1) else `Lock id

let lock_create (rt : Runtime.t) ?protocol ?manager () =
  let id = rt.next_lock in
  rt.next_lock <- id + 1;
  let lock =
    {
      Runtime.lock_id = id;
      lock_manager = (match manager with Some m -> m | None -> id mod Runtime.nodes rt);
      lock_protocol =
        (match protocol with Some p -> p | None -> rt.Runtime.default_protocol);
      lock_held = false;
      lock_holder = -1;
      lock_queue = Marcel.Cond.create ();
      lock_mutex = Marcel.Mutex.create ();
      lock_acquisitions = 0;
      lock_ext = Page_table.No_ext;
      lock_granted = Time.zero;
    }
  in
  rt.locks <- Dense.ensure rt.locks id lock;
  rt.locks.(id) <- lock;
  id

let lock_acquire rt id =
  let ls = Runtime.lock_state rt id in
  let node = Runtime.self_node rt in
  let tid = Marcel.tid (Marcel.self (Runtime.marcel rt)) in
  let services = Runtime.services rt in
  let started = Engine.now (Runtime.engine rt) in
  Runtime.notify_wait rt ~node ~tid ~target:id;
  ignore
    (Rpc.call (Runtime.rpc rt) ~dst:ls.Runtime.lock_manager
       ~service:services.Runtime.srv_lock_acquire ~cost:Driver.Request
       (Dsm_comm.Lock_op { lock = id; node; tid }));
  Runtime.notify_wake rt ~node ~tid ~target:id;
  (* One holder at a time, so the lock record can carry its hold's start. *)
  ls.Runtime.lock_granted <- Engine.now (Runtime.engine rt);
  let proto = Runtime.proto rt ls.Runtime.lock_protocol in
  proto.Protocol.lock_acquire rt ~node ~lock:id;
  Runtime.record_history rt ~start:started (History.Acquire { lock = id });
  Monitor.stamp rt ~node ~protocol:ls.Runtime.lock_protocol ~obj:id
    rt.Runtime.cells.Instrument.nodes.(node).Instrument.lock
    Time.(Engine.now (Runtime.engine rt) - started)

let lock_release rt id =
  let ls = Runtime.lock_state rt id in
  let node = Runtime.self_node rt in
  let started = Engine.now (Runtime.engine rt) in
  (* The hold ends when release processing starts (the protocol's flush
     runs on the holder's time, not the next waiter's). *)
  let held = Time.(started - ls.Runtime.lock_granted) in
  let proto = Runtime.proto rt ls.Runtime.lock_protocol in
  proto.Protocol.lock_release rt ~node ~lock:id;
  (* Record before the manager round-trip: the release's place in the
     history must precede the acquire of whoever the manager grants the
     lock to next (the grant can overtake our reply on the wire). *)
  Runtime.record_history rt ~start:started (History.Release { lock = id });
  let tid = Marcel.tid (Marcel.self (Runtime.marcel rt)) in
  let services = Runtime.services rt in
  match
    Rpc.call (Runtime.rpc rt) ~dst:ls.Runtime.lock_manager
      ~service:services.Runtime.srv_lock_release ~cost:Driver.Request
      (Dsm_comm.Lock_op { lock = id; node; tid })
  with
  | Dsm_comm.Lock_error msg -> raise (Lock_error msg)
  | _ ->
      Monitor.stamp rt ~node ~protocol:ls.Runtime.lock_protocol ~obj:id
        rt.Runtime.cells.Instrument.nodes.(node).Instrument.hold held

let with_lock rt id f =
  lock_acquire rt id;
  Fun.protect ~finally:(fun () -> lock_release rt id) f

let lock_acquisitions rt id = (Runtime.lock_state rt id).Runtime.lock_acquisitions

let barrier_create (rt : Runtime.t) ?protocol ?manager ~parties () =
  if parties <= 0 then invalid_arg "Dsm_sync.barrier_create: parties must be positive";
  let id = rt.next_barrier in
  rt.next_barrier <- id + 1;
  let barrier =
    {
      Runtime.barrier_id = id;
      barrier_manager = (match manager with Some m -> m | None -> id mod Runtime.nodes rt);
      barrier_parties = parties;
      barrier_protocol =
        (match protocol with Some p -> p | None -> rt.Runtime.default_protocol);
      barrier_arrived = 0;
      barrier_generation = 0;
      barrier_cond = Marcel.Cond.create ();
      barrier_mutex = Marcel.Mutex.create ();
    }
  in
  rt.barriers <- Dense.ensure rt.barriers id barrier;
  rt.barriers.(id) <- barrier;
  id

let barrier_wait rt id =
  let bs = Runtime.barrier_state rt id in
  let node = Runtime.self_node rt in
  let proto = Runtime.proto rt bs.Runtime.barrier_protocol in
  let hook = barrier_hook_id id in
  proto.Protocol.lock_release rt ~node ~lock:hook;
  let services = Runtime.services rt in
  let started = Engine.now (Runtime.engine rt) in
  let tid = Marcel.tid (Marcel.self (Runtime.marcel rt)) in
  Runtime.notify_wait rt ~node ~tid ~target:hook;
  ignore
    (Rpc.call (Runtime.rpc rt) ~dst:bs.Runtime.barrier_manager
       ~service:services.Runtime.srv_barrier ~cost:Driver.Request
       (Dsm_comm.Barrier_wait { barrier = id; node }));
  Runtime.notify_wake rt ~node ~tid ~target:hook;
  Monitor.stamp rt ~node ~protocol:bs.Runtime.barrier_protocol ~obj:id
    rt.Runtime.cells.Instrument.nodes.(node).Instrument.barrier
    Time.(Engine.now (Runtime.engine rt) - started);
  proto.Protocol.lock_acquire rt ~node ~lock:hook;
  Runtime.record_history rt ~start:started
    (History.Barrier { barrier = id; parties = bs.Runtime.barrier_parties })
