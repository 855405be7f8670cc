open Dsmpm2_sim

type t = {
  eng : Engine.t;
  net_driver : Driver.t;
  nnodes : int;
  last_delivery : Time.t array;
      (* index src*nnodes+dst: latest delivery time scheduled on that link *)
  loop_last : Time.t array;
      (* per node: latest loopback delivery, for the same FIFO clamp *)
  jitter : (src:int -> dst:int -> Time.t -> Time.t) option;
  mutable plan : Fault_plan.t;
  mutable net_trace : Trace.t option;
      (* fault forensics: dropped messages become typed trace events *)
  mutable span_source : unit -> int;
      (* the active span of whoever is sending, resolved at drop time; wired
         by the PM2 layer which knows the fiber -> thread -> span chain *)
  net_stats : Stats.t;
  msgs : Stats.cell array;
      (* index src*kinds+kind: one cell per message put on the wire — its
         count, its wire bytes and, once delivery is scheduled, its delay.
         Only delivered messages record a delay, so a cell's dropped
         messages are its events less its samples. *)
  loopback : Stats.cell array; (* per node: "net.loopback" *)
}

let kind_names = [| "msg.null_rpc"; "msg.request"; "msg.bulk"; "msg.migration" |]
let kinds = Array.length kind_names

let kind_index = function
  | Driver.Null_rpc -> 0
  | Driver.Request -> 1
  | Driver.Bulk _ -> 2
  | Driver.Migration _ -> 3

let create ?jitter eng ~driver ~nodes =
  if nodes <= 0 then invalid_arg "Network.create: nodes must be positive";
  let net_stats = Stats.create () in
  {
    eng;
    net_driver = driver;
    nnodes = nodes;
    last_delivery = Array.make (nodes * nodes) Time.zero;
    (* Initialised one tick below zero so the first self-send still delivers
       at the current instant (loopback stays "free"), while later same-time
       self-sends are clamped strictly after it. *)
    loop_last = Array.make nodes (Time.of_ns (-1));
    jitter;
    plan = Fault_plan.none;
    net_trace = None;
    span_source = (fun () -> Trace.no_span);
    net_stats;
    msgs =
      Array.init (nodes * kinds) (fun i ->
          Stats.cell net_stats ~node:(i / kinds) ~count:kind_names.(i mod kinds)
            ~volume:"net.bytes" ~span:"net.delay" ());
    loopback =
      Array.init nodes (fun node -> Stats.cell net_stats ~node ~count:"net.loopback" ());
  }

let sum f cells = Array.fold_left (fun acc c -> acc + f c) 0 cells
let dropped c = Stats.events c - Stats.samples c

let driver t = t.net_driver
let nodes t = t.nnodes
let messages_sent t = sum Stats.events t.msgs
let bytes_sent t = sum Stats.volume t.msgs
let loopback_sent t = sum Stats.events t.loopback
let messages_dropped t = sum dropped t.msgs
let stats t = t.net_stats
let set_fault_plan t plan = t.plan <- plan
let fault_plan t = t.plan

let set_trace t trace ~span =
  t.net_trace <- Some trace;
  t.span_source <- span

let dropped_by_kind t =
  Array.to_list
    (Array.mapi
       (fun k name ->
         (name, sum dropped (Array.init t.nnodes (fun n -> t.msgs.((n * kinds) + k)))))
       kind_names)

let sum_node f t node =
  let acc = ref 0 in
  for k = 0 to kinds - 1 do
    acc := !acc + f t.msgs.((node * kinds) + k)
  done;
  !acc

let messages_from t node = sum_node Stats.events t node
let bytes_from t node = sum_node Stats.volume t node

(* Seeded fault-injection jitter: every message pays a bounded random extra
   latency, and a small fraction take a much larger "spike" (a retransmission,
   a switch hiccup).  The stream is drawn from its own Rng in send order —
   deterministic for a given schedule, so a perturbed run replays exactly.
   Delays only grow, and the per-link arrival clamp in [send] preserves FIFO
   regardless, so this never reorders a link. *)
let seeded_jitter ?(extra_us = 40.) ?(spike_us = 400.) ?(spike_pct = 2) ~seed () =
  if extra_us < 0. || spike_us < 0. then
    invalid_arg "Network.seeded_jitter: bounds must be non-negative";
  if spike_pct < 0 || spike_pct > 100 then
    invalid_arg "Network.seeded_jitter: spike_pct must be in [0, 100]";
  (* Salt the seed so the jitter stream differs from an engine tie-break
     stream built from the same user-level seed. *)
  let rng = Rng.create ~seed:(Rng.int (Rng.create ~seed) 0x3FFFFFFF + 0x5bd1) in
  fun ~src:_ ~dst:_ delay ->
    let extra = Time.of_us (Rng.float rng extra_us) in
    let spike =
      if spike_pct > 0 && Rng.int rng 100 < spike_pct then Time.of_us spike_us
      else Time.zero
    in
    Time.(delay + extra + spike)

(* Every drop is first-class in the trace: the event carries the link, the
   message kind and the sending operation's span, so the blame engine can
   walk from a stale read back to the exact loss.  [ev] is built lazily —
   the no-trace path allocates nothing. *)
let drop t ev =
  match t.net_trace with
  | Some tr when Trace.enabled tr -> Trace.emit tr t.eng ~span:(t.span_source ()) (ev ())
  | _ -> ()

let send t ~src ~dst ~cost k =
  if src < 0 || src >= t.nnodes || dst < 0 || dst >= t.nnodes then
    invalid_arg "Network.send: node id out of range";
  if src = dst then begin
    (* Loopback never touches the wire: it is counted separately (the
       [messages_sent]/[bytes_sent] columns feed bench and app summaries as
       network traffic) and goes through the same monotonic-arrival clamp as
       a real link, so two same-time self-sends can never be reordered by an
       adversarial tie seed. *)
    Stats.bump t.loopback.(src);
    let arrival =
      Time.max (Engine.now t.eng) Time.(t.loop_last.(src) + Time.of_ns 1)
    in
    t.loop_last.(src) <- arrival;
    Engine.at t.eng arrival k
  end
  else begin
    let kind = kind_index cost in
    let cell = t.msgs.((src * kinds) + kind) in
    Stats.add cell ~events:1 ~volume:(Driver.wire_bytes cost);
    let kind_name = kind_names.(kind) in
    (* A crashed sender's traffic dies on the host; this is checked before
       the loss draw so blackholed messages never consume loss stream
       entropy a later run-with-different-windows would miss. *)
    if Fault_plan.is_down t.plan ~node:src (Engine.now t.eng) then begin
      Fault_plan.note_blackhole t.plan;
      drop t (fun () -> Trace.Blackhole { src; dst; kind = kind_name; down = src })
    end
    else if Fault_plan.loses_message t.plan then begin
      Fault_plan.note_loss t.plan;
      drop t (fun () -> Trace.Drop { src; dst; kind = kind_name })
    end
    else begin
      let delay = Driver.delay t.net_driver cost in
      let delay =
        match t.jitter with
        | None -> delay
        | Some f ->
            (* Clamp rather than raise: a buggy (or adversarial
               fault-injection) jitter function must never be able to
               schedule a delivery in the past and trip the engine's
               at-in-the-past assertion mid-run. *)
            Time.max (f ~src ~dst delay) Time.zero
      in
      let link = (src * t.nnodes) + dst in
      let arrival =
        Time.max
          Time.(Engine.now t.eng + delay)
          Time.(t.last_delivery.(link) + Time.of_ns 1)
      in
      if Fault_plan.is_down t.plan ~node:dst arrival then begin
        (* Delivered into a down window: the NIC is dead, the message is
           gone.  The link slot is not consumed by a vanished message. *)
        Fault_plan.note_blackhole t.plan;
        drop t (fun () -> Trace.Blackhole { src; dst; kind = kind_name; down = dst })
      end
      else begin
        t.last_delivery.(link) <- arrival;
        (* The wire-plus-queueing latency this message actually experiences:
           the tail of this series is where link contention shows up. *)
        Stats.record cell Time.(arrival - Engine.now t.eng);
        Engine.at t.eng arrival k
      end
    end
  end
