open Dsmpm2_sim
open Dsmpm2_net
open Dsmpm2_pm2

let trace rt = Pm2.trace rt.Runtime.pm2
let enable rt on = Trace.enable (trace rt) on
let enabled rt = Trace.enabled (trace rt)

(* --- spans ---

   The span of the operation a Marcel thread is currently working on; set
   by the fault path and by the RPC handlers from the span carried in the
   incoming message, so one remote access keeps one id across nodes.  It
   is a field of the thread, and only read or written while tracing is
   on. *)

let new_span rt = Trace.new_span (trace rt)

let current_span rt =
  if Trace.enabled (trace rt) then Marcel.span (Marcel.self (Runtime.marcel rt))
  else Trace.no_span

let with_thread_span rt span f =
  if not (Trace.enabled (trace rt)) then f ()
  else begin
    let th = Marcel.self (Runtime.marcel rt) in
    let previous = Marcel.span th in
    Marcel.set_span th span;
    match f () with
    | v ->
        Marcel.set_span th previous;
        v
    | exception e ->
        Marcel.set_span th previous;
        raise e
  end

let emit rt ?span event =
  let tr = trace rt in
  if Trace.enabled tr then
    let span = match span with Some s -> s | None -> current_span rt in
    Trace.emit tr (Runtime.engine rt) ~span event

(* The one place a stage or sync duration is recorded: the registry
   sample, and the same value as a trace stamp named after the cell's
   series. *)
let stamp rt ?span ~node ~protocol ~obj cell ns =
  Stats.record cell ns;
  if enabled rt then
    emit rt ?span
      (Trace.Stage
         {
           node;
           protocol = (Runtime.proto rt protocol).Protocol.name;
           stage = Stats.span_name cell;
           obj;
           ns;
         })

type summary_line = {
  category : string;
  events : int;
  first_us : float;
  last_us : float;
}

let summary rt =
  let tbl = Hashtbl.create 16 in
  Trace.iter (trace rt) (fun ~at ~span:_ ev ->
      let cat = Trace.event_category ev in
      let first, last, n =
        match Hashtbl.find_opt tbl cat with
        | Some (f, l, n) -> (min f at, max l at, n + 1)
        | None -> (at, at, 1)
      in
      Hashtbl.replace tbl cat (first, last, n));
  Hashtbl.fold
    (fun category (first, last, events) acc ->
      { category; events; first_us = Time.to_us first; last_us = Time.to_us last } :: acc)
    tbl []
  (* Count descending, then category name ascending: ties used to fall back
     to hashtable iteration order, which is seed-dependent. *)
  |> List.sort (fun a b ->
         let c = compare b.events a.events in
         if c <> 0 then c else String.compare a.category b.category)

let report ppf rt =
  Format.fprintf ppf "Post-mortem monitoring report@.";
  Format.fprintf ppf "%-16s %8s %12s %12s@." "category" "events" "first(us)" "last(us)";
  List.iter
    (fun l ->
      Format.fprintf ppf "%-16s %8d %12.1f %12.1f@." l.category l.events l.first_us
        l.last_us)
    (summary rt);
  Format.fprintf ppf "@.Duration series:@.";
  Stats.pp_span_table ppf ~key:"labels"
    (List.filter_map
       (fun s -> if s.Stats.sm_samples > 0 then Some ("all", s) else None)
       (Stats.span_summaries rt.Runtime.stats))

(* --- JSON snapshot --- *)

(* The run's identity, embedded in every export so baselines are
   self-describing and `dsm diff` can refuse apples-to-oranges
   comparisons.  Everything but the protocol and case id is read off the
   runtime; those two are properties of what the caller ran, not of the
   stack, so they are parameters. *)
let run_meta ?protocol ?case rt =
  Run_meta.with_git
    (Run_meta.v
       ?tie_seed:(Engine.tie_seed (Runtime.engine rt))
       ~driver:(Pm2.driver rt.Runtime.pm2).Dsmpm2_net.Driver.name
       ?protocol
       ~nodes:(Runtime.nodes rt)
       ?case ())

let to_json ?experiment ?meta rt =
  let net = Pm2.network rt.Runtime.pm2 in
  let tr = trace rt in
  let meta =
    match meta with Some m -> m | None -> run_meta ?case:experiment rt
  in
  Json.Obj
    (List.concat
       [
         (match experiment with
         | Some e -> [ ("experiment", Json.String e) ]
         | None -> []);
         [ ("meta", Run_meta.to_json meta) ];
         [
           ("sim_time_us", Json.Float (Pm2.now_us rt.Runtime.pm2));
           ("nodes", Json.Int (Runtime.nodes rt));
           ("migrations", Json.Int (Pm2.migrations rt.Runtime.pm2));
           ("stats", Stats.to_json rt.Runtime.stats);
           ( "network",
             Json.Obj
               [
                 ("messages", Json.Int (Network.messages_sent net));
                 ("bytes", Json.Int (Network.bytes_sent net));
                 ("loopback", Json.Int (Network.loopback_sent net));
                 ("dropped", Json.Int (Network.messages_dropped net));
                 ( "dropped_by_kind",
                   Json.Obj
                     (List.map
                        (fun (kind, n) -> (kind, Json.Int n))
                        (Network.dropped_by_kind net)) );
                 ("stats", Stats.to_json (Network.stats net));
               ] );
           ("trace_events", Json.Int (Trace.length tr));
           ( "trace",
             Json.Obj
               [
                 ("events", Json.Int (Trace.length tr));
                 ("recorded", Json.Int (Trace.recorded tr));
                 ("evicted", Json.Int (Trace.evicted tr));
                 ( "capacity",
                   match Trace.capacity tr with
                   | Some c -> Json.Int c
                   | None -> Json.Null );
                 ("sampled_out", Json.Int (Trace.sampled_out tr));
               ] );
         ];
       ])

(* --- Prometheus text exposition --- *)

let to_prometheus ppf rt =
  let net = Pm2.network rt.Runtime.pm2 in
  Stats.to_prometheus ppf rt.Runtime.stats;
  Stats.to_prometheus ppf (Network.stats net);
  Stats.prometheus_counter ppf "net.dropped" (Network.messages_dropped net);
  List.iter
    (fun (kind, n) -> Stats.prometheus_counter ppf (kind ^ ".dropped") n)
    (Network.dropped_by_kind net);
  Stats.prometheus_counter ppf "trace.evicted" (Trace.evicted (trace rt))
