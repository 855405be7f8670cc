open Dsmpm2_sim
open Dsmpm2_net

type t = {
  eng : Engine.t;
  marcel : Marcel.t;
  rpc : Rpc.t;
  net : Network.t;
  iso : Isoalloc.t;
  pm2_trace : Trace.t;
  mutable migrations : int;
}

let create ?tie_seed ?jitter ?(page_size = 4096) ~nodes ~driver () =
  let eng = Engine.create ?tie_seed () in
  let marcel = Marcel.create eng ~nodes in
  let net = Network.create ?jitter eng ~driver ~nodes in
  let rpc = Rpc.create marcel net in
  let pm2_trace = Trace.create () in
  (* Fault forensics: the network and RPC layers emit Drop/Blackhole and
     Rpc_retry events into the shared trace.  The span source reads the
     sending Marcel thread's active span, so a message dropped while an
     operation's thread is sending lands in that operation's span. *)
  Network.set_trace net pm2_trace ~span:(fun () ->
      match Marcel.self_opt marcel with
      | None -> Trace.no_span
      | Some th -> Marcel.span th);
  Rpc.set_trace rpc pm2_trace;
  {
    eng;
    marcel;
    rpc;
    net;
    iso = Isoalloc.create ~page_size ();
    pm2_trace;
    migrations = 0;
  }

let engine t = t.eng
let marcel t = t.marcel
let rpc t = t.rpc
let network t = t.net
let iso t = t.iso
let nodes t = Marcel.node_count t.marcel
let driver t = Network.driver t.net
let trace t = t.pm2_trace
let migrations t = t.migrations

let spawn t ?stack_bytes ?attached_bytes ?migratable ~node f =
  Marcel.spawn t.marcel ?stack_bytes ?attached_bytes ?migratable ~node f

let self_node t = Marcel.node (Marcel.self t.marcel)

let migrate t ~dst =
  let th = Marcel.self t.marcel in
  let src = Marcel.node th in
  if src <> dst then begin
    Marcel.flush_charges t.marcel;
    t.migrations <- t.migrations + 1;
    if Trace.enabled t.pm2_trace then
      Trace.emit t.pm2_trace t.eng
        ~span:(Marcel.span th)
        (Trace.Migration { thread = Marcel.tid th; src; dst });
    Engine.suspend t.eng (fun resume ->
        Network.send t.net ~src ~dst
          ~cost:(Driver.Migration (Marcel.footprint_bytes th))
          (fun () ->
            Marcel.set_node t.marcel th dst;
            resume ()))
  end

let honour_move t th =
  match Marcel.pending_move th with
  | Some dst ->
      Marcel.clear_move th;
      if dst <> Marcel.node th then migrate t ~dst
  | None -> ()

let migrate_if_requested t = honour_move t (Marcel.self t.marcel)

let run ?limit t = Engine.run ?limit t.eng
let now_us t = Time.to_us (Engine.now t.eng)
