open Dsmpm2_sim
open Dsmpm2_net

type payload = ..
type payload += Unit

type handler = src:int -> payload -> payload * Driver.cost
type service = int

type retry_policy = {
  timeout_us : float;
  retries : int;
  backoff : float;
  jitter_us : float;
}

let default_retry =
  { timeout_us = 600.; retries = 3; backoff = 2.; jitter_us = 40. }

exception Timeout of { service : string; dst : int; attempts : int }

(* Server-side memory of one request id: [Running] while the handler thread
   is still executing (a duplicate arriving now is satisfied by the reply the
   original will send), [Done] afterwards (a duplicate triggers a cached
   resend without re-running the handler).  This is what makes every service
   — including the non-idempotent lock/barrier managers — safe under
   at-least-once retransmission. *)
type seen = Running | Done of payload * Driver.cost

type t = {
  marcel : Marcel.t;
  net : Network.t;
  mutable services : (string * handler) array;
  mutable calls : int;
  mutable retry : retry_policy option;
  mutable retry_rng : Rng.t;
  mutable rpc_trace : Trace.t option;
      (* fault forensics: retransmissions become typed trace events *)
  mutable duplicates : int;
  mutable next_rid : int;
  seen : (int, seen) Hashtbl.t;
  seen_order : int Queue.t; (* FIFO eviction of settled request ids *)
  retries : Stats.cell;
      (* "rpc.retry.delay" on the network stats: one sample per
         retransmission, the time the call had already waited *)
}

let seen_cap = 4096

let create marcel net =
  {
    marcel;
    net;
    services = [||];
    calls = 0;
    retry = None;
    retry_rng = Rng.create ~seed:0;
    rpc_trace = None;
    duplicates = 0;
    next_rid = 0;
    seen = Hashtbl.create 64;
    seen_order = Queue.create ();
    retries = Stats.cell (Network.stats net) ~span:"rpc.retry.delay" ();
  }

let marcel t = t.marcel
let network t = t.net
let calls_made t = t.calls
let retransmissions t = Stats.samples t.retries
let duplicates_served t = t.duplicates
let retry t = t.retry
let set_trace t trace = t.rpc_trace <- Some trace

let set_retry t ?(seed = 0) policy =
  (match policy with
  | Some p ->
      if p.timeout_us <= 0. then invalid_arg "Rpc.set_retry: timeout_us <= 0";
      if p.retries < 0 then invalid_arg "Rpc.set_retry: negative retries";
      if p.backoff < 1. then invalid_arg "Rpc.set_retry: backoff < 1";
      if p.jitter_us < 0. then invalid_arg "Rpc.set_retry: negative jitter_us"
  | None -> ());
  (* Same salting discipline as Network.seeded_jitter, with its own constant,
     so the deadline stream is independent of tie/jitter/loss streams built
     from the same user seed. *)
  t.retry_rng <- Rng.create ~seed:(Rng.int (Rng.create ~seed) 0x3FFFFFFF + 0x2e1b);
  t.retry <- policy

let register t ~name handler =
  let id = Array.length t.services in
  t.services <- Array.append t.services [| (name, handler) |];
  id

let service_name t s = fst t.services.(s)

let remember t rid state =
  (if not (Hashtbl.mem t.seen rid) then begin
     Queue.add rid t.seen_order;
     if Queue.length t.seen_order > seen_cap then
       Hashtbl.remove t.seen (Queue.pop t.seen_order)
   end);
  Hashtbl.replace t.seen rid state

(* Delivers the request on [dst]: a fresh handler thread runs the service
   body, then sends the reply back (or drops it for one-way requests).
   [rid], present on retryable calls, keys the duplicate-suppression cache:
   at-least-once delivery needs at-most-once execution on the server. *)
let serve t ?rid ~src ~dst ~service ~reply payload =
  let _, handler = t.services.(service) in
  let run () =
    ignore
      (Marcel.spawn t.marcel ~node:dst (fun () ->
           let result, reply_cost = handler ~src payload in
           Marcel.flush_charges t.marcel;
           (match rid with
           | Some rid -> remember t rid (Done (result, reply_cost))
           | None -> ());
           match reply with
           | None -> ()
           | Some k ->
               Network.send t.net ~src:dst ~dst:src ~cost:reply_cost (fun () ->
                   k result)))
  in
  match rid with
  | None -> run ()
  | Some rid -> (
      match Hashtbl.find_opt t.seen rid with
      | None ->
          remember t rid Running;
          run ()
      | Some Running ->
          (* The original handler is still executing (perhaps blocked inside
             a lock manager); its completion will answer this duplicate. *)
          t.duplicates <- t.duplicates + 1
      | Some (Done (result, cost)) -> (
          t.duplicates <- t.duplicates + 1;
          match reply with
          | None -> ()
          | Some k ->
              Network.send t.net ~src:dst ~dst:src ~cost (fun () -> k result)))

let call t ~dst ~service ~cost payload =
  let th = Marcel.self t.marcel in
  let src = Marcel.node th in
  Marcel.flush_charges t.marcel;
  t.calls <- t.calls + 1;
  match t.retry with
  | None ->
      (* The historical path: no timers, no request ids, no extra events —
         a run without a retry policy is bit-for-bit the run this module
         always produced. *)
      let result = ref Unit in
      Engine.suspend (Marcel.engine t.marcel) (fun resume ->
          Network.send t.net ~src ~dst ~cost (fun () ->
              serve t ~src ~dst ~service
                ~reply:
                  (Some
                     (fun reply ->
                       result := reply;
                       resume ()))
                payload));
      !result
  | Some pol ->
      let eng = Marcel.engine t.marcel in
      (* The caller's operation span, captured now while still in fiber
         context: the retransmission timer below fires in plain event
         context, where the sending thread's span is unreachable. *)
      let span =
        match t.rpc_trace with
        | Some tr when Trace.enabled tr -> Marcel.span th
        | _ -> Trace.no_span
      in
      let rid = t.next_rid in
      t.next_rid <- rid + 1;
      let status = ref `Pending in
      let attempts = ref 0 in
      let started = Engine.now eng in
      Engine.suspend eng (fun resume ->
          let rec attempt () =
            incr attempts;
            Network.send t.net ~src ~dst ~cost (fun () ->
                serve t ~rid ~src ~dst ~service
                  ~reply:
                    (Some
                       (fun reply ->
                         match !status with
                         | `Pending ->
                             status := `Reply reply;
                             resume ()
                         | _ -> () (* late duplicate reply: drop *)))
                  payload);
            let deadline =
              pol.timeout_us
              *. (pol.backoff ** float_of_int (!attempts - 1))
              +. (if pol.jitter_us > 0. then Rng.float t.retry_rng pol.jitter_us
                  else 0.)
            in
            Engine.after eng (Time.of_us deadline) (fun () ->
                match !status with
                | `Pending ->
                    if !attempts > pol.retries then begin
                      status := `Timed_out;
                      resume ()
                    end
                    else begin
                      (* How long this call has already waited when the
                         retransmission goes out: the latency penalty the
                         fault is costing us, fed to bench/analyze. *)
                      Stats.record t.retries Time.(Engine.now eng - started);
                      (match t.rpc_trace with
                      | Some tr when Trace.enabled tr ->
                          Trace.emit tr eng ~span
                            (Trace.Rpc_retry
                               {
                                 service = service_name t service;
                                 src;
                                 dst;
                                 attempt = !attempts;
                               })
                      | _ -> ());
                      attempt ()
                    end
                | _ -> ())
          in
          attempt ());
      (match !status with
      | `Reply r -> r
      | `Timed_out ->
          raise
            (Timeout { service = service_name t service; dst; attempts = !attempts })
      | `Pending -> assert false)

let oneway_from t ~src ~dst ~service ~cost payload =
  t.calls <- t.calls + 1;
  Network.send t.net ~src ~dst ~cost (fun () ->
      serve t ~src ~dst ~service ~reply:None payload)

let oneway t ~dst ~service ~cost payload =
  let th = Marcel.self t.marcel in
  Marcel.flush_charges t.marcel;
  oneway_from t ~src:(Marcel.node th) ~dst ~service ~cost payload
