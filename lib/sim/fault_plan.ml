(* Seeded fault schedules: node crash/restart windows plus per-message loss.

   The plan is decided up front (windows) or drawn in send order from a
   private salted stream (loss), exactly like Network.seeded_jitter: a given
   seed always replays the identical failure schedule, so `dsm check` can
   sweep failure schedules the way it sweeps tie seeds.  A plan with no
   windows and zero loss never touches its RNG, which keeps the no-fault
   path bit-for-bit schedule-neutral. *)

type window = { w_node : int; w_down : Time.t; w_up : Time.t }

type t = {
  seed : int;
  windows : window list;  (* sorted by w_down *)
  loss_pct : float;
  loss_rng : Rng.t;  (* drawn once per cross-node send, in send order *)
  mutable dropped_by_loss : int;
  mutable dropped_by_crash : int;
}

(* Salt the seed (differently from seeded_jitter's 0x5bd1) so the loss
   stream never correlates with a tie-break or jitter stream built from the
   same user-level seed. *)
let salted seed = Rng.int (Rng.create ~seed) 0x3FFFFFFF + 0x7f4a

let create ?(windows = []) ?(loss_pct = 0.) ?(seed = 0) () =
  if loss_pct < 0. || loss_pct > 100. then
    invalid_arg "Fault_plan.create: loss_pct must be in [0, 100]";
  List.iter
    (fun w ->
      if w.w_up <= w.w_down then
        invalid_arg "Fault_plan.create: window must end after it starts")
    windows;
  {
    seed;
    windows = List.sort (fun a b -> compare a.w_down b.w_down) windows;
    loss_pct;
    loss_rng = Rng.create ~seed:(salted seed);
    dropped_by_loss = 0;
    dropped_by_crash = 0;
  }

let none = create ()

let seeded ~nodes ~seed ?(crashes = 2) ?(loss_pct = 0.) ?(protect = [])
    ?(down_us = 300.) ?(horizon_us = 4000.) () =
  if nodes <= 0 then invalid_arg "Fault_plan.seeded: nodes must be positive";
  if crashes < 0 then invalid_arg "Fault_plan.seeded: negative crash count";
  if down_us <= 0. || horizon_us <= 0. then
    invalid_arg "Fault_plan.seeded: durations must be positive";
  let victims =
    List.filter (fun n -> not (List.mem n protect)) (List.init nodes Fun.id)
  in
  if crashes > 0 && victims = [] then
    invalid_arg "Fault_plan.seeded: every node is protected";
  (* Windows are drawn from their own salted stream (double salt so it also
     differs from the loss stream) and never overlap in time: at most one
     node is down at any instant, which keeps every schedule within the
     minority-crash budget a quorum protocol tolerates (for nodes >= 3). *)
  let rng = Rng.create ~seed:(salted (salted seed)) in
  let slice = horizon_us /. float_of_int (max 1 crashes) in
  let windows =
    List.init crashes (fun i ->
        let node = List.nth victims (Rng.int rng (List.length victims)) in
        let lo = float_of_int i *. slice in
        let start = lo +. Rng.float rng (Stdlib.max 1. (slice -. down_us)) in
        {
          w_node = node;
          w_down = Time.of_us start;
          w_up = Time.of_us (start +. down_us);
        })
  in
  create ~windows ~loss_pct ~seed ()

let seed t = t.seed
let windows t = t.windows
let loss_pct t = t.loss_pct
let has_faults t = t.windows <> [] || t.loss_pct > 0.
let messages_lost t = t.dropped_by_loss
let messages_blackholed t = t.dropped_by_crash

(* Matched on the empty list first: the closure would cost every send of a
   plan without windows an allocation. *)
let is_down t ~node time =
  match t.windows with
  | [] -> false
  | windows ->
      List.exists (fun w -> w.w_node = node && time >= w.w_down && time < w.w_up) windows

let up_at t ~node ~now =
  List.fold_left
    (fun acc w ->
      if w.w_node = node && now >= w.w_down && now < w.w_up then
        Time.max acc w.w_up
      else acc)
    now t.windows

(* One draw per call, in call order — callers must only consult this when
   loss is actually enabled so a lossless plan stays draw-free. *)
let loses_message t =
  t.loss_pct > 0. && Rng.float t.loss_rng 100. < t.loss_pct

let note_loss t = t.dropped_by_loss <- t.dropped_by_loss + 1
let note_blackhole t = t.dropped_by_crash <- t.dropped_by_crash + 1

let window_to_string w =
  Printf.sprintf "node %d down %.0f..%.0fus" w.w_node (Time.to_us w.w_down)
    (Time.to_us w.w_up)

let to_string t =
  if not (has_faults t) then "no faults"
  else
    Printf.sprintf "loss=%.1f%% windows=[%s]" t.loss_pct
      (String.concat "; " (List.map window_to_string t.windows))
