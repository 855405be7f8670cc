type _ Effect.t +=
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t
  | Park : (unit -> unit) Effect.t

let nop () = ()

type t = {
  mutable clock : Time.t;
  (* The event queue is two binary min-heaps over int arrays, so a sift
     moves ints only.  The now lane ([now_ties], [now_seqs], [now_slots],
     [now_size]) holds every event due at [clock] and orders by (tie, seq);
     the future lane ([times], [slots], [size]) holds every later event and
     orders by time alone, its events' (tie, seq) waiting in the
     slot-indexed [ties] and [seqs].  [pop] takes the now-lane top and, when
     the now lane is empty, advances the clock to the future top, runs the
     least of the events due then and moves the others into the now lane,
     so the global order is (time, tie, seq).  Entry [i] of either lane
     runs what slot [slots.(i)] (or [now_slots.(i)]) of
     [actions]/[conts]/[fids] holds.  A slot with [fids = -1] is a plain
     event running [actions]; otherwise it is a slice of that fiber, which
     resumes the continuation in [conts] or, if there is none, starts the
     body in [actions].  Queuing writes one of [actions]/[conts] (both for
     a fiber start) and running clears neither: a slot keeps its last
     closure until it is reused. *)
  mutable times : int array;
  mutable slots : int array;
  mutable size : int;
  mutable now_ties : int array;
  mutable now_seqs : int array;
  mutable now_slots : int array;
  mutable now_size : int;
  mutable ties : int array;
  mutable seqs : int array;
  mutable actions : (unit -> unit) array;
  mutable conts : (unit, unit) Effect.Deep.continuation option array;
  mutable fids : int array;
  mutable spare : int array;
  mutable nspare : int;
      (* unused slots, a stack in [spare.(0 .. nspare - 1)]: the slot freed
         last is reused first *)
  mutable seq : int;
  mutable live : int;
  mutable executed : int;
  mutable next_fiber : int;
  mutable free : int array;
  mutable nfree : int;
      (* ids of ended fibers, a stack in [free.(0 .. nfree - 1)]: [spawn]
         reuses them before taking [next_fiber], so tables indexed by fiber
         id stay as short as the peak number of live fibers *)
  mutable current : int; (* -1 outside any fiber *)
  mutable tags : int array;
      (* fiber id -> the tag set on it, -1 where none is: [release] resets
         an ended fiber's slot, so a reused id starts at -1 *)
  mutable current_tag : int; (* [tags.(current)], -1 outside any fiber *)
  mutable pool : (unit -> unit, unit) Effect.Deep.continuation array;
  mutable npool : int;
      (* parked fibers, a stack in [pool.(0 .. npool - 1)]: each waits
         in [worker] for the next body to run, on a stack that has already
         grown to what earlier bodies needed *)
  mutable handler : (unit, unit) Effect.Deep.handler;
  mutable register : (unit -> unit) -> unit;
      (* what the last [Suspend] asked to register its resumer with *)
  tie_rng : Rng.t option;
      (* schedule perturbation: when set, same-time events are ordered by a
         seed-driven tie key instead of insertion order *)
  tie_seed : int option;
  mutable gate : (int -> Time.t -> Time.t option) option;
      (* fault injection: consulted at execution time before each fiber
         slice; [Some until] parks the slice until that instant *)
  mutable parked : int;
}

exception Stalled of int

let now t = t.clock
let live_fibers t = t.live
let pooled_fibers t = t.npool
let events_executed t = t.executed
let[@inline] current_fiber t = t.current
let[@inline] current_tag t = t.current_tag
let tie_seed t = t.tie_seed
let pending_events t = t.size + t.now_size

(* --- the queue --- *)

let extend a cap fill = Array.append a (Array.make (cap - Array.length a) fill)
let grown_cap a = max 16 (2 * Array.length a)

let grow_future t =
  let cap = grown_cap t.times in
  t.times <- extend t.times cap 0;
  t.slots <- extend t.slots cap 0

let grow_now t =
  let cap = grown_cap t.now_ties in
  t.now_ties <- extend t.now_ties cap 0;
  t.now_seqs <- extend t.now_seqs cap 0;
  t.now_slots <- extend t.now_slots cap 0

(* Called with every slot in use: the new slots become the spare ones,
   the lowest on top. *)
let grow_slots t =
  let old = Array.length t.fids in
  let cap = grown_cap t.fids in
  t.actions <- extend t.actions cap nop;
  t.conts <- extend t.conts cap None;
  t.fids <- extend t.fids cap (-1);
  t.ties <- extend t.ties cap 0;
  t.seqs <- extend t.seqs cap 0;
  t.spare <- Array.init cap (fun i -> cap - 1 - i);
  t.nspare <- cap - old

(* Heap indices stay below the lane's size and slots below the slot
   tables' length, within every array's capacity. *)
external ( .!() ) : int array -> int -> int = "%array_unsafe_get"
external ( .!()<- ) : int array -> int -> int -> unit = "%array_unsafe_set"

let[@inline] set t i time slot =
  t.times.!(i) <- time;
  t.slots.!(i) <- slot

let rec sift_up t i time slot =
  let p = (i - 1) / 2 in
  if i > 0 && t.times.!(p) > time then begin
    set t i t.times.!(p) t.slots.!(p);
    sift_up t p time slot
  end
  else set t i time slot

let rec sift_down t i time slot n =
  let l = (2 * i) + 1 in
  let c = if l + 1 < n && t.times.!(l + 1) < t.times.!(l) then l + 1 else l in
  if c < n && t.times.!(c) < time then begin
    set t i t.times.!(c) t.slots.!(c);
    sift_down t c time slot n
  end
  else set t i time slot

(* The now lane: ordered by (tie, seq), its time being [clock]. *)
let[@inline] now_before t i tie seq =
  let ki = t.now_ties.!(i) in
  ki < tie || (ki = tie && t.now_seqs.!(i) < seq)

let[@inline] now_set t i tie seq slot =
  t.now_ties.!(i) <- tie;
  t.now_seqs.!(i) <- seq;
  t.now_slots.!(i) <- slot

let[@inline] now_move t ~from i = now_set t i t.now_ties.!(from) t.now_seqs.!(from) t.now_slots.!(from)

let rec now_sift_up t i tie seq slot =
  let p = (i - 1) / 2 in
  if i > 0 && not (now_before t p tie seq) then begin
    now_move t ~from:p i;
    now_sift_up t p tie seq slot
  end
  else now_set t i tie seq slot

let rec now_sift_down t i tie seq slot n =
  let l = (2 * i) + 1 in
  let c = if l + 1 < n && now_before t (l + 1) t.now_ties.!(l) t.now_seqs.!(l) then l + 1 else l in
  if c < n && now_before t c tie seq then begin
    now_move t ~from:c i;
    now_sift_down t c tie seq slot n
  end
  else now_set t i tie seq slot

let[@inline] now_add t tie seq slot =
  let n = t.now_size in
  if n = Array.length t.now_ties then grow_now t;
  t.now_size <- n + 1;
  now_sift_up t n tie seq slot

(* Queues an event in a spare slot, writing one closure field: a plain
   event ([fid < 0]) its action, a resume ([k <> None]) its continuation,
   and a fiber start both, the [None] overwriting an earlier resume's. *)
let push t time tie fid action k =
  if t.nspare = 0 then grow_slots t;
  let slot = t.spare.!(t.nspare - 1) in
  t.nspare <- t.nspare - 1;
  t.fids.!(slot) <- fid;
  if k == None then Array.unsafe_set t.actions slot action;
  if fid >= 0 then Array.unsafe_set t.conts slot k;
  let seq = t.seq in
  t.seq <- seq + 1;
  if time = t.clock then now_add t tie seq slot
  else begin
    t.ties.!(slot) <- tie;
    t.seqs.!(slot) <- seq;
    let n = t.size in
    if n = Array.length t.times then grow_future t;
    t.size <- n + 1;
    sift_up t n time slot
  end

let[@inline] now_take t =
  let slot = t.now_slots.!(0) in
  let n = t.now_size - 1 in
  t.now_size <- n;
  if n > 0 then now_sift_down t 0 t.now_ties.!(n) t.now_seqs.!(n) t.now_slots.!(n) n;
  slot

let[@inline] future_take t =
  let slot = t.slots.!(0) in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then sift_down t 0 t.times.!(n) t.slots.!(n) n;
  slot

(* Removes the earliest event and returns its slot, still in use: the
   caller hands it back to [spare].  With the now lane empty, the clock
   advances to the future top, the least (tie, seq) of the events due then
   runs at once, and the others join the now lane. *)
let pop t =
  if t.now_size > 0 then now_take t
  else begin
    let time = t.times.!(0) in
    t.clock <- time;
    let least = ref (future_take t) in
    while t.size > 0 && t.times.!(0) = time do
      let slot = future_take t and m = !least in
      let k = t.ties.!(slot) and km = t.ties.!(m) in
      if k < km || (k = km && t.seqs.!(slot) < t.seqs.!(m)) then least := slot;
      let later = if !least = slot then m else slot in
      now_add t t.ties.!(later) t.seqs.!(later) later
    done;
    !least
  end

(* The tie key is drawn in scheduling order, so a given seed always maps
   the same (deterministic) sequence of scheduling calls to the same
   ordering: every perturbed run replays exactly from its seed. *)
let schedule t time fid action k =
  let tie = match t.tie_rng with None -> 0 | Some rng -> Rng.int rng 0x40000000 in
  push t time tie fid action k

let check_future fn t time =
  if time < t.clock then
    invalid_arg (Printf.sprintf "Engine.%s: time %d is in the past (now %d)" fn time t.clock)

let at t time action =
  check_future "at" t time;
  schedule t time (-1) action None

let after t dt action = at t Time.(t.clock + dt) action

(* Observer events: scheduled with the maximal tie key and without drawing
   from the perturbation RNG, so they run after every same-time workload
   event and attaching them leaves a seeded schedule bit-for-bit intact
   (the tie-key stream only advances for workload events). *)
let at_observer t time action =
  check_future "at_observer" t time;
  push t time max_int (-1) action None

let periodic t ~interval tick =
  if interval <= Time.zero then
    invalid_arg "Engine.periodic: interval must be positive";
  let rec arm () =
    at_observer t Time.(t.clock + interval) (fun () -> if tick () then arm ())
  in
  arm ()

(* --- fault gate --- *)

let set_gate t g = t.gate <- Some g
let clear_gate t = t.gate <- None
let parked_count t = t.parked

(* --- fibers --- *)

(* The thunk handed to a suspended fiber's waker.  Calling it queues the
   continuation at the current time; the cell forgets the continuation so
   that a second call is caught. *)
let resumer t fid k =
  let cell = ref (Some k) in
  fun () ->
    match !cell with
    | None -> invalid_arg "Engine: fiber resumed twice"
    | k ->
        cell := None;
        schedule t t.clock fid nop k

(* A fiber's body returned or raised: its id is free for the next [spawn],
   with its tag back at -1.  This runs inside the fiber's last slice, so
   [current] is the ending fiber. *)
let release t =
  if t.nfree = Array.length t.free then t.free <- Dense.ensure t.free t.nfree 0;
  t.free.(t.nfree) <- t.current;
  t.tags.!(t.current) <- -1;
  t.nfree <- t.nfree + 1;
  t.live <- t.live - 1

exception Retired

(* The loop every OCaml fiber of the engine runs: park, then run the body
   it is handed, release the body's id, and park again.  A body that
   raises unwinds the loop, so its fiber dies instead of returning to the
   pool; a parked fiber that is [Retired] returns, which frees its
   stack. *)
let rec worker t =
  match Effect.perform Park with
  | body ->
      body ();
      release t;
      worker t
  | exception Retired -> ()

(* Ends the parked fibers.  OCaml frees a fiber's stack only when the
   fiber ends, never when its continuation is dropped, so [run] retires
   the pool when the queue drains, and the first park registers a
   finaliser that retires it for an engine dropped before that.  Retiring
   at the drain, not only in the finaliser, hands the stacks back to the
   runtime at once, for the next simulation to reuse. *)
let retire t =
  let n = t.npool in
  t.npool <- 0;
  for i = 0 to n - 1 do
    Effect.Deep.discontinue t.pool.(i) Retired
  done

let park t k =
  if t.npool = Array.length t.pool then begin
    if t.npool = 0 then Gc.finalise retire t;
    t.pool <- Array.append t.pool (Array.make (max 8 t.npool) k)
  end;
  t.pool.(t.npool) <- k;
  t.npool <- t.npool + 1

(* One handler serves every fiber of the engine.  A fiber performs
   [Suspend] only while one of its slices runs, so [current] names it.
   The fiber accounting ([live]) brackets the whole body lifetime: a
   suspended body remains live until it returns or raises, and a parked
   fiber is not live.  The handler allocates nothing: [Suspend] leaves its
   register function in [register] and returns the one closure that hands
   it the resumer, as [Park] returns [on_park]. *)
let create ?tie_seed () =
  let t =
    {
      clock = Time.zero;
      times = [||];
      slots = [||];
      size = 0;
      now_ties = [||];
      now_seqs = [||];
      now_slots = [||];
      now_size = 0;
      ties = [||];
      seqs = [||];
      actions = [||];
      conts = [||];
      fids = [||];
      spare = [||];
      nspare = 0;
      seq = 0;
      live = 0;
      executed = 0;
      next_fiber = 0;
      free = [||];
      nfree = 0;
      current = -1;
      tags = [||];
      current_tag = -1;
      pool = [||];
      npool = 0;
      handler = { retc = ignore; exnc = raise; effc = (fun _ -> None) };
      register = ignore;
      tie_rng = Option.map (fun seed -> Rng.create ~seed) tie_seed;
      tie_seed;
      gate = None;
      parked = 0;
    }
  in
  (* Set once the record exists: building it as a recursive value made
     [create] measurably slower. *)
  let on_park = Some (park t)
  and on_suspend = Some (fun k -> t.register (resumer t t.current k)) in
  t.handler <-
    {
      retc = ignore;
      exnc = (fun e -> release t; raise e);
      effc =
        (fun (type a) (eff : a Effect.t) : ((a, unit) Effect.Deep.continuation -> unit) option ->
          match eff with
          | Suspend register ->
              t.register <- register;
              on_suspend
          | Park -> on_park
          | _ -> None);
    };
  t

(* Starts [body] on a parked fiber, parking a fresh one first when the
   pool is empty. *)
let start t body =
  if t.npool = 0 then Effect.Deep.match_with worker t t.handler;
  t.npool <- t.npool - 1;
  Effect.Deep.continue t.pool.(t.npool) body

(* Runs a slice of fiber [fid]: its [body] or the continuation [k], with
   [current] and [current_tag] set for the duration so that thread
   packages built on top can implement "self". *)
let enter t fid body k =
  let prev = t.current and prev_tag = t.current_tag in
  t.current <- fid;
  t.current_tag <- t.tags.!(fid);
  match
    match k with
    | None -> start t body
    | Some k -> Effect.Deep.continue k ()
  with
  | () ->
      t.current <- prev;
      t.current_tag <- prev_tag
  | exception e ->
      t.current <- prev;
      t.current_tag <- prev_tag;
      raise e

(* The gate is consulted at *execution* time, when the fiber's host node is
   known to whoever installed it.  On [None] the slice runs untouched — the
   no-fault path draws nothing, so an installed but empty plan is
   bit-for-bit schedule-neutral.  On [Some until] the slice is re-scheduled
   at [until] (and re-checked there, in case windows chain), which is
   exactly "fibers on a crashed node are parked and respawned on restart". *)
let slice t fid body k =
  match match t.gate with None -> None | Some g -> g fid t.clock with
  | None -> enter t fid body k
  | Some until ->
      t.parked <- t.parked + 1;
      let until = if until <= t.clock then Time.(t.clock + Time.of_ns 1) else until in
      schedule t until fid body k

let spawn t f =
  let fid =
    if t.nfree > 0 then begin
      t.nfree <- t.nfree - 1;
      t.free.(t.nfree)
    end
    else begin
      let fid = t.next_fiber in
      t.next_fiber <- fid + 1;
      if fid >= Array.length t.tags then t.tags <- Dense.ensure t.tags fid (-1);
      fid
    end
  in
  t.live <- t.live + 1;
  schedule t t.clock fid f None;
  fid

let set_tag t fid tag =
  if fid < 0 || fid >= t.next_fiber then
    invalid_arg (Printf.sprintf "Engine.set_tag: no fiber %d" fid);
  t.tags.!(fid) <- tag;
  if fid = t.current then t.current_tag <- tag

let suspend _t register = Effect.perform (Suspend register)
let sleep t dt = suspend t (fun resume -> after t dt resume)

(* The next event is due at [clock] while the now lane holds one, so a
   [limit] already behind the clock stops the run at once. *)
let run ?(limit = max_int) t =
  while if t.now_size > 0 then t.clock <= limit else t.size > 0 && t.times.!(0) <= limit do
    let slot = pop t in
    t.executed <- t.executed + 1;
    (* The slot is spare again before its event runs, which may queue
       another event in it: read what it holds first. *)
    t.spare.!(t.nspare) <- slot;
    t.nspare <- t.nspare + 1;
    let fid = t.fids.!(slot) and action = Array.unsafe_get t.actions slot in
    if fid < 0 then action () else slice t fid action (Array.unsafe_get t.conts slot)
  done;
  if pending_events t = 0 then begin
    retire t;
    if t.live > 0 then raise (Stalled t.live)
  end
