open Dsmpm2_sim

let descriptor_bytes = 256

type thread = {
  tid : int;
  mutable fid : int; (* its engine fiber, whose tag mirrors [node] *)
  mutable node : int;
  mutable stack_bytes : int;
  attached_bytes : int;
  mutable alive : bool;
  mutable joiners : (unit -> unit) list;
  migratable : bool;
  mutable requested_node : int option;
      (* set by the load balancer; honoured at the next safe point *)
  mutable span : int; (* the trace span the thread is working on *)
}

type t = {
  eng : Engine.t;
  cpus : Cpu.t array;
  mutable next_tid : int;
  mutable by_fiber : thread array;
      (* fiber id -> its thread, [no_thread] where the fiber is not a live
         Marcel thread.  The engine reuses the ids of ended fibers, so the
         array is as long as the peak number of live fibers. *)
  mutable pending : Float.Array.t;
      (* fiber id -> its thread's pending CPU work in us, 0 where no
         thread is live; as long as [by_fiber].  Unboxed, so a charge
         allocates nothing. *)
  mutable ticks : int array;
      (* fiber id -> its thread's [charge_tick]s not yet added into the
         pending work (see [settle]), 0 where no thread is live; as long
         as [by_fiber] *)
  mutable tick_us : float;
  mutable last_exit : Time.t;  (* when the most recent thread ended *)
}

let no_thread =
  {
    tid = -1;
    fid = -1;
    node = 0;
    stack_bytes = 0;
    attached_bytes = 0;
    alive = false;
    joiners = [];
    migratable = false;
    requested_node = None;
    span = Trace.no_span;
  }

let create eng ~nodes =
  if nodes <= 0 then invalid_arg "Marcel.create: nodes must be positive";
  {
    eng;
    cpus = Array.init nodes (fun i -> Cpu.create ~name:(Printf.sprintf "node%d" i) ());
    next_tid = 0;
    by_fiber = [||];
    pending = Float.Array.create 0;
    ticks = [||];
    tick_us = 0.;
    last_exit = Time.zero;
  }

let engine t = t.eng
let node_count t = Array.length t.cpus
let cpu t i = t.cpus.(i)

(* The thread of fiber [fid], or [no_thread] for fibers that are not
   Marcel threads (and for [-1], plain event context). *)
let[@inline] thread_of_fiber t fid =
  if fid >= 0 && fid < Array.length t.by_fiber then Array.unsafe_get t.by_fiber fid
  else no_thread

let[@inline never] not_in_thread () =
  failwith "Marcel.self: not running inside a Marcel thread"

let[@inline] self t =
  let th = thread_of_fiber t (Engine.current_fiber t.eng) in
  if th == no_thread then not_in_thread ();
  th

let self_opt t =
  let th = thread_of_fiber t (Engine.current_fiber t.eng) in
  if th == no_thread then None else Some th

let node_of_fiber t fid =
  let th = thread_of_fiber t fid in
  if th == no_thread then None else Some th.node

let tid_of_fiber t fid =
  let th = thread_of_fiber t fid in
  if th == no_thread then None else Some th.tid

let tid th = th.tid
let[@inline] node th = th.node
let is_migratable th = th.migratable
let request_move th ~dst = if th.migratable then th.requested_node <- Some dst
let pending_move th = th.requested_node
let clear_move th = th.requested_node <- None

let span th = th.span
let set_span th span = th.span <- span

let live_threads t ~node =
  Array.fold_left
    (fun acc th -> if th.alive && th.node = node then th :: acc else acc)
    [] t.by_fiber
  |> List.sort (fun a b -> Int.compare a.tid b.tid)
let stack_bytes th = th.stack_bytes
let attached_bytes th = th.attached_bytes
let footprint_bytes th = th.stack_bytes + descriptor_bytes + th.attached_bytes
let is_alive th = th.alive

(* The pending work of a live thread [th], whose fiber id indexes
   [t.pending]. *)
let[@inline] pending t th = Float.Array.unsafe_get t.pending th.fid
let[@inline] set_pending t th us = Float.Array.unsafe_set t.pending th.fid us

(* Adds [th]'s counted ticks into its pending work, one addition per
   tick.  Every other change to the pending work settles first, so the
   additions happen in the order of the calls that made them and the sum
   is bit-identical to charging each tick as it happened. *)
let settle t th =
  let ticks = Array.unsafe_get t.ticks th.fid in
  if ticks > 0 then begin
    let us = ref (pending t th) in
    for _ = 1 to ticks do
      us := !us +. t.tick_us
    done;
    Array.unsafe_set t.ticks th.fid 0;
    set_pending t th !us
  end

(* Pays all of [th]'s pending work as one [Cpu.compute]. *)
let pay_pending t th =
  settle t th;
  let us = pending t th in
  if us > 0. then begin
    set_pending t th 0.;
    Cpu.compute t.eng t.cpus.(th.node) (Time.of_us us)
  end

(* The end of thread [th], run in its own fiber however its body ended: pay
   any outstanding lazily-charged CPU work before dying so accounting is
   complete (paying may suspend, so the thread stays mapped until then),
   then wake the joiners. *)
let finish t th =
  pay_pending t th;
  th.alive <- false;
  t.last_exit <- Engine.now t.eng;
  (* The engine hands this fiber's id to a later spawn. *)
  t.by_fiber.(th.fid) <- no_thread;
  let joiners = th.joiners in
  th.joiners <- [];
  List.iter (fun resume -> resume ()) joiners

let spawn t ?(stack_bytes = 1024) ?(attached_bytes = 0) ?(migratable = false) ~node f =
  if node < 0 || node >= Array.length t.cpus then
    invalid_arg "Marcel.spawn: node out of range";
  let th =
    {
      tid = t.next_tid;
      fid = -1;
      node;
      stack_bytes;
      attached_bytes;
      alive = true;
      joiners = [];
      migratable;
      requested_node = None;
      span = Trace.no_span;
    }
  in
  t.next_tid <- t.next_tid + 1;
  let fid =
    Engine.spawn t.eng (fun () ->
        match f () with
        | () -> finish t th
        | exception e ->
            finish t th;
            raise e)
  in
  if fid >= Array.length t.by_fiber then begin
    t.by_fiber <- Dense.ensure t.by_fiber fid no_thread;
    t.pending <- Dense.ensure_float t.pending (Array.length t.by_fiber - 1) 0.;
    t.ticks <- Dense.ensure t.ticks (Array.length t.by_fiber - 1) 0
  end;
  t.by_fiber.(fid) <- th;
  th.fid <- fid;
  set_pending t th 0.;
  t.ticks.(fid) <- 0;
  Engine.set_tag t.eng fid node;
  th

let last_exit t = t.last_exit

let join t th =
  if th.alive then
    Engine.suspend t.eng (fun resume -> th.joiners <- resume :: th.joiners)

let yield t = Engine.suspend t.eng (fun resume -> resume ())

let compute t us =
  if us < 0. then invalid_arg "Marcel.compute: negative duration";
  let th = self t in
  settle t th;
  let total = us +. pending t th in
  set_pending t th 0.;
  if total > 0. then Cpu.compute t.eng t.cpus.(th.node) (Time.of_us total)

let[@inline] charge_thread t th us =
  if us < 0. then invalid_arg "Marcel.charge: negative duration";
  settle t th;
  set_pending t th (pending t th +. us)

let charge t us = charge_thread t (self t) us
(* Bounds-checked: [fid] comes from the caller, not from a thread. *)
let[@inline] charge_tick t fid = t.ticks.(fid) <- t.ticks.(fid) + 1

let set_tick_us t us =
  if us < 0. then invalid_arg "Marcel.set_tick_us: negative duration";
  t.tick_us <- us

let flush_charges t =
  let th = thread_of_fiber t (Engine.current_fiber t.eng) in
  if th != no_thread then pay_pending t th

let set_node t th node =
  if node < 0 || node >= Array.length t.cpus then
    invalid_arg "Marcel.set_node: node out of range";
  (* A dead thread's fiber id may belong to another thread. *)
  if th.alive then begin
    settle t th;
    if pending t th > 0. then
      invalid_arg "Marcel.set_node: thread has unflushed CPU charges"
  end;
  th.node <- node;
  if th.alive then Engine.set_tag t.eng th.fid node

module Mutex = struct
  type marcel = t
  type t = { mutable locked : bool; waiting : (unit -> unit) Queue.t }

  let create () = { locked = false; waiting = Queue.create () }

  let lock (m : marcel) t =
    if t.locked then Engine.suspend m.eng (fun resume -> Queue.add resume t.waiting)
    else t.locked <- true

  let try_lock (_ : marcel) t =
    if t.locked then false
    else begin
      t.locked <- true;
      true
    end

  let unlock (_ : marcel) t =
    if not t.locked then invalid_arg "Marcel.Mutex.unlock: not locked";
    match Queue.take_opt t.waiting with
    | None -> t.locked <- false
    | Some resume -> resume () (* ownership passes directly to the waiter *)

  let locked t = t.locked
end

module Cond = struct
  type marcel = t
  type t = { waiting : (unit -> unit) Queue.t }

  let create () = { waiting = Queue.create () }

  let wait (m : marcel) t mutex =
    Engine.suspend m.eng (fun resume ->
        Queue.add resume t.waiting;
        Mutex.unlock m mutex);
    Mutex.lock m mutex

  let signal (_ : marcel) t =
    match Queue.take_opt t.waiting with None -> () | Some resume -> resume ()

  let broadcast (_ : marcel) t =
    let rec drain () =
      match Queue.take_opt t.waiting with
      | None -> ()
      | Some resume ->
          resume ();
          drain ()
    in
    drain ()
end

module Sem = struct
  type marcel = t
  type t = { mutable value : int; waiting : (unit -> unit) Queue.t }

  let create n =
    if n < 0 then invalid_arg "Marcel.Sem.create: negative initial value";
    { value = n; waiting = Queue.create () }

  let acquire (m : marcel) t =
    if t.value > 0 then t.value <- t.value - 1
    else Engine.suspend m.eng (fun resume -> Queue.add resume t.waiting)

  let release (_ : marcel) t =
    match Queue.take_opt t.waiting with
    | None -> t.value <- t.value + 1
    | Some resume -> resume ()

  let value t = t.value
end
