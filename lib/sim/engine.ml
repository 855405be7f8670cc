type _ Effect.t += Suspend : ((unit -> unit) -> unit) -> unit Effect.t

let nop () = ()

type t = {
  mutable clock : Time.t;
  (* The event queue: a binary min-heap over (time, tie, seq) held in
     parallel int arrays, so a sift moves ints only.  Entry [i] runs what
     slot [slots.(i)] of [actions]/[conts]/[fids] holds; a slot is written
     when its event is queued and cleared when it runs.  A slot with
     [fids = -1] is a plain event; otherwise it is a slice of that fiber,
     which resumes the continuation in [conts] or, if there is none, starts
     the body in [actions].  Past the heap, [slots.(size ..)] lists the
     unused slots. *)
  mutable times : int array;
  mutable ties : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable size : int;
  mutable actions : (unit -> unit) array;
  mutable conts : (unit, unit) Effect.Deep.continuation option array;
  mutable fids : int array;
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
  mutable handler : (unit, unit) Effect.Deep.handler;
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
let events_executed t = t.executed
let[@inline] current_fiber t = t.current
let tie_seed t = t.tie_seed
let pending_events t = t.size

(* --- the queue --- *)

let grow t =
  let cap = Array.length t.times in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let extend a fill = Array.append a (Array.make (ncap - cap) fill) in
  t.times <- extend t.times 0;
  t.ties <- extend t.ties 0;
  t.seqs <- extend t.seqs 0;
  t.slots <- Array.append t.slots (Array.init (ncap - cap) (fun i -> cap + i));
  t.actions <- extend t.actions nop;
  t.conts <- extend t.conts None;
  t.fids <- extend t.fids (-1)

(* Heap indices stay below [size], within every array's capacity. *)
external ( .!() ) : int array -> int -> int = "%array_unsafe_get"
external ( .!()<- ) : int array -> int -> int -> unit = "%array_unsafe_set"

(* Whether entry [i] orders before the key (time, tie, seq). *)
let[@inline] before t i time tie seq =
  let ti = t.times.!(i) in
  ti < time
  || ti = time
     && (let ki = t.ties.!(i) in
         ki < tie || (ki = tie && t.seqs.!(i) < seq))

let[@inline] set t i time tie seq slot =
  t.times.!(i) <- time;
  t.ties.!(i) <- tie;
  t.seqs.!(i) <- seq;
  t.slots.!(i) <- slot

let[@inline] move t ~from i = set t i t.times.!(from) t.ties.!(from) t.seqs.!(from) t.slots.!(from)

let rec sift_up t i time tie seq slot =
  let p = (i - 1) / 2 in
  if i > 0 && not (before t p time tie seq) then begin
    move t ~from:p i;
    sift_up t p time tie seq slot
  end
  else set t i time tie seq slot

let rec sift_down t i time tie seq slot n =
  let l = (2 * i) + 1 in
  let c = if l + 1 < n && before t (l + 1) t.times.!(l) t.ties.!(l) t.seqs.!(l) then l + 1 else l in
  if c < n && before t c time tie seq then begin
    move t ~from:c i;
    sift_down t c time tie seq slot n
  end
  else set t i time tie seq slot

let push t time tie fid action k =
  if t.size = Array.length t.times then grow t;
  let n = t.size in
  let slot = t.slots.(n) in
  t.actions.(slot) <- action;
  if k != None then t.conts.(slot) <- k;
  t.fids.(slot) <- fid;
  let seq = t.seq in
  t.seq <- seq + 1;
  t.size <- n + 1;
  sift_up t n time tie seq slot

(* Removes the earliest event, advances the clock to it and returns its
   slot, already back among the unused ones: read it before the next
   [push]. *)
let pop t =
  let slot = t.slots.(0) in
  t.clock <- t.times.(0);
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then sift_down t 0 t.times.(n) t.ties.(n) t.seqs.(n) t.slots.(n) n;
  t.slots.(n) <- slot;
  slot

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

(* A fiber's body returned or raised: its id is free for the next [spawn].
   The handler runs this inside the fiber's last slice, so [current] is the
   ending fiber. *)
let release t =
  t.free <- Dense.ensure t.free t.nfree 0;
  t.free.(t.nfree) <- t.current;
  t.nfree <- t.nfree + 1;
  t.live <- t.live - 1

(* One handler serves every fiber of the engine.  A fiber performs
   [Suspend] only while one of its slices runs, so [current] names it.
   The fiber accounting ([live]) brackets the whole fiber lifetime: a
   suspended fiber remains live until its continuation terminates. *)
let create ?tie_seed () =
  let t =
    {
      clock = Time.zero;
      times = [||];
      ties = [||];
      seqs = [||];
      slots = [||];
      size = 0;
      actions = [||];
      conts = [||];
      fids = [||];
      seq = 0;
      live = 0;
      executed = 0;
      next_fiber = 0;
      free = [||];
      nfree = 0;
      current = -1;
      handler = { retc = ignore; exnc = raise; effc = (fun _ -> None) };
      tie_rng = Option.map (fun seed -> Rng.create ~seed) tie_seed;
      tie_seed;
      gate = None;
      parked = 0;
    }
  in
  (* Set once the record exists: building it as a recursive value made
     [create] measurably slower. *)
  t.handler <-
    {
      retc = (fun () -> release t);
      exnc = (fun e -> release t; raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend register ->
              Some (fun (k : (a, unit) Effect.Deep.continuation) -> register (resumer t t.current k))
          | _ -> None);
    };
  t

(* Runs a slice of fiber [fid]: its [body] or the continuation [k], with
   [current] set for the duration so that thread packages built on top can
   implement "self". *)
let enter t fid body k =
  let prev = t.current in
  t.current <- fid;
  match
    match k with
    | None -> Effect.Deep.match_with body () t.handler
    | Some k -> Effect.Deep.continue k ()
  with
  | () -> t.current <- prev
  | exception e ->
      t.current <- prev;
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
      fid
    end
  in
  t.live <- t.live + 1;
  schedule t t.clock fid f None;
  fid

let suspend _t register = Effect.perform (Suspend register)
let sleep t dt = suspend t (fun resume -> after t dt resume)

let run ?(limit = max_int) t =
  while t.size > 0 && t.times.(0) <= limit do
    let slot = pop t in
    t.executed <- t.executed + 1;
    let action = t.actions.(slot) and fid = t.fids.(slot) and k = t.conts.(slot) in
    t.actions.(slot) <- nop;
    if k != None then t.conts.(slot) <- None;
    if fid < 0 then action () else slice t fid action k
  done;
  if t.size = 0 && t.live > 0 then raise (Stalled t.live)
