open Dsmpm2_sim

(* Post-mortem trace analyzer: turns a run's typed event trace (live
   [Monitor.trace] or a re-loaded [Trace.of_jsonl] dump) into the reports
   the paper attributes to PM2's "very precise post-mortem monitoring
   tools" — per-fault critical paths, per-page sharing-pattern profiles,
   lock/barrier contention and the watchdog's findings. *)

module Instrument = Dsmpm2_core.Instrument

(* Every lock and barrier distribution here is a [Sketch] of microsecond
   samples, the same quantile type the registry keeps. *)
let sketch_of us =
  let sk = Sketch.create () in
  List.iter (Sketch.add sk) us;
  sk

(* --- critical paths ---

   The analyzer measures no stage itself.  The runtime stamps each stage
   once, into its registry and, as a [Stage] event, into the trace
   ([Monitor.stamp]); a stage table is a fold of those stamps, and a fault
   chain's stages are the stamps in its span. *)

type chain = {
  ch_span : int;
  ch_node : int;
  ch_page : int;
  ch_protocol : string;
  ch_mode : string;
  ch_start_us : float;
  ch_total_us : float;
  ch_stages : (string * float) list;
  ch_hops : int;
  ch_events : (Time.t * int * Trace.event) list;
}

let us_of t = Time.to_us t

let chain_of_span (span, evs) =
  List.find_map
    (fun (at, _, ev) ->
      match ev with
      | Trace.Fault { node; page; protocol; mode } ->
          let stages, others =
            List.partition_map
              (fun ((_, _, ev) as x) ->
                match ev with
                | Trace.Stage { stage; ns; _ } -> Left (stage, us_of ns)
                | _ -> Right x)
              evs
          in
          Some
            {
              ch_span = span;
              ch_node = node;
              ch_page = page;
              ch_protocol = protocol;
              ch_mode = mode;
              ch_start_us = us_of at;
              ch_total_us =
                Option.value ~default:0. (List.assoc_opt Instrument.stage_total stages);
              ch_stages = stages;
              ch_hops =
                List.length
                  (List.filter
                     (function _, _, Trace.Page_request _ -> true | _ -> false)
                     others);
              ch_events = others;
            }
      | _ -> None)
    evs

(* Per protocol, the registry summary of each stamped stage, in
   [Instrument.stages] order: the stamps are folded into a registry of
   their own, so every figure is computed as the runtime's is. *)
let stage_table events =
  let stats = Stats.create () in
  let cells = Hashtbl.create 16 in
  List.iter
    (fun (_, _, ev) ->
      match ev with
      | Trace.Stage { protocol; stage; ns; _ } ->
          let cell =
            match Hashtbl.find_opt cells (protocol, stage) with
            | Some c -> c
            | None ->
                let c = Stats.cell stats ~protocol ~span:stage () in
                Hashtbl.add cells (protocol, stage) c;
                c
          in
          Stats.record cell ns
      | _ -> ())
    events;
  Hashtbl.fold (fun (protocol, _) _ acc -> protocol :: acc) cells []
  |> List.sort_uniq String.compare
  |> List.map (fun protocol ->
         let labels = Stats.labels ~protocol () in
         ( protocol,
           List.filter_map
             (fun stage ->
               let s = Stats.span_summary ~labels stats stage in
               if s.Stats.sm_samples > 0 then Some s else None)
             Instrument.stages ))

(* --- per-page sharing patterns ---

   The classifier lives in [Telemetry], shared with the online engine
   behind [dsm watch]: one implementation backs both views, so the
   post-mortem heatmap and the live classification agree by
   construction. *)

module Tele = Dsmpm2_core.Telemetry
module Watchdog = Dsmpm2_core.Watchdog

let page_profiles events =
  let ps = Tele.Pages.create () in
  List.iter (fun (_, _, ev) -> Tele.Pages.feed ps ev) events;
  (* [profiles] already ranks by (faults, bytes) descending, the heatmap
     order. *)
  Tele.Pages.profiles ps

(* --- lock & barrier contention --- *)

type lock_profile = {
  lk_lock : int;
  lk_nodes : int;
  lk_acquisitions : int;
  lk_wait : Sketch.t;
  lk_hold : Sketch.t;
}

let lock_profiles events =
  (* Per (lock, node): chronological request / granted / released series;
     position i of each pairs into one acquisition. *)
  let series : (int * int, Time.t list ref * Time.t list ref * Time.t list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (at, _, ev) ->
      match ev with
      | Trace.Lock { node; lock; op } when op = "request" || op = "granted" || op = "released" ->
          let req, grant, rel =
            match Hashtbl.find_opt series (lock, node) with
            | Some s -> s
            | None ->
                let s = (ref [], ref [], ref []) in
                Hashtbl.add series (lock, node) s;
                s
          in
          let cell =
            match op with "request" -> req | "granted" -> grant | _ -> rel
          in
          cell := at :: !cell
      | _ -> ())
    events;
  let by_lock : (int, float list ref * float list ref * int ref * int ref) Hashtbl.t =
    Hashtbl.create 16
  in
  Hashtbl.iter
    (fun (lock, _node) (req, grant, rel) ->
      let waits, holds, acquisitions, nodes =
        match Hashtbl.find_opt by_lock lock with
        | Some x -> x
        | None ->
            let x = (ref [], ref [], ref 0, ref 0) in
            Hashtbl.add by_lock lock x;
            x
      in
      incr nodes;
      let rec pair f xs ys =
        match (xs, ys) with
        | x :: xs, y :: ys ->
            f x y;
            pair f xs ys
        | _ -> ()
      in
      let req = List.rev !req and grant = List.rev !grant and rel = List.rev !rel in
      acquisitions := !acquisitions + List.length grant;
      pair (fun r g -> waits := us_of Time.(g - r) :: !waits) req grant;
      pair (fun g r -> holds := us_of Time.(r - g) :: !holds) grant rel)
    series;
  Hashtbl.fold
    (fun lock (waits, holds, acquisitions, nodes) acc ->
      {
        lk_lock = lock;
        lk_nodes = !nodes;
        lk_acquisitions = !acquisitions;
        lk_wait = sketch_of !waits;
        lk_hold = sketch_of !holds;
      }
      :: acc)
    by_lock []
  |> List.sort (fun a b ->
         compare (Sketch.sum b.lk_wait, a.lk_lock) (Sketch.sum a.lk_wait, b.lk_lock))

type barrier_profile = {
  br_barrier : int;
  br_parties : int;
  br_rounds : int;
  br_imbalance : Sketch.t;  (* last-minus-first arrival per completed round *)
}

let barrier_profiles events =
  let arrivals : (int, (Time.t * int) list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (at, _, ev) ->
      match ev with
      | Trace.Barrier { node; barrier } ->
          let cell =
            match Hashtbl.find_opt arrivals barrier with
            | Some c -> c
            | None ->
                let c = ref [] in
                Hashtbl.add arrivals barrier c;
                c
          in
          cell := (at, node) :: !cell
      | _ -> ())
    events;
  Hashtbl.fold
    (fun barrier cell acc ->
      let arr = List.rev !cell in
      let parties =
        List.length (List.sort_uniq compare (List.map snd arr))
      in
      let rec rounds acc = function
        | [] -> List.rev acc
        | l ->
            let rec take n acc = function
              | rest when n = 0 -> (List.rev acc, rest)
              | [] -> (List.rev acc, [])
              | x :: rest -> take (n - 1) (x :: acc) rest
            in
            let round, rest = take parties [] l in
            if List.length round = parties then rounds (round :: acc) rest
            else List.rev acc
      in
      let complete = if parties = 0 then [] else rounds [] arr in
      let imbalances =
        List.map
          (fun round ->
            let ats = List.map fst round in
            let first = List.fold_left min (List.hd ats) ats in
            let last = List.fold_left max (List.hd ats) ats in
            us_of Time.(last - first))
          complete
      in
      {
        br_barrier = barrier;
        br_parties = parties;
        br_rounds = List.length complete;
        br_imbalance = sketch_of imbalances;
      }
      :: acc)
    arrivals []
  |> List.sort (fun a b -> compare a.br_barrier b.br_barrier)

(* Injected-fault footprint: how much the fault layer interfered with the
   run — the quick "was this run clean?" check before reaching for the
   blame engine. *)
type fault_summary = {
  fs_drops : int;  (* seeded per-message losses *)
  fs_blackholes : int;  (* messages swallowed by crash windows *)
  fs_crash_windows : int;
  fs_restarts : int;
  fs_rpc_retries : int;
}

let fault_summary events =
  let count kind = List.length (List.filter (fun (_, _, ev) -> kind ev) events) in
  {
    fs_drops = count (function Trace.Drop _ -> true | _ -> false);
    fs_blackholes = count (function Trace.Blackhole _ -> true | _ -> false);
    fs_crash_windows = count (function Trace.Crash _ -> true | _ -> false);
    fs_restarts = count (function Trace.Restart _ -> true | _ -> false);
    fs_rpc_retries = count (function Trace.Rpc_retry _ -> true | _ -> false);
  }

(* --- the analysis --- *)

type t = {
  an_events : int;
  an_spans : int;
  an_duration_us : float;
  an_chains : chain list;  (* all fault chains, chronological *)
  an_stages : (string * Stats.span_summary list) list;
  an_top : chain list;  (* top-K slowest, slowest first *)
  an_pages : Tele.profile list;  (* ranked by (faults, bytes) desc *)
  an_locks : lock_profile list;
  an_barriers : barrier_profile list;
  an_alerts : Watchdog.alert list;  (* watchdog findings, chronological *)
  an_faults : fault_summary;  (* injected-fault footprint *)
}

let analyze ?(top = 5) trace =
  let events = Trace.events trace in
  let span_groups = Trace.spans trace in
  let chains = List.filter_map chain_of_span span_groups in
  let top_chains =
    List.stable_sort (fun a b -> compare b.ch_total_us a.ch_total_us) chains
    |> List.filteri (fun i _ -> i < top)
  in
  let duration =
    List.fold_left (fun acc (at, _, _) -> Time.max acc at) Time.zero events
  in
  {
    an_events = List.length events;
    an_spans = List.length span_groups;
    an_duration_us = us_of duration;
    an_chains = chains;
    an_stages = stage_table events;
    an_top = top_chains;
    an_pages = page_profiles events;
    an_locks = lock_profiles events;
    an_barriers = barrier_profiles events;
    an_alerts =
      List.filter_map
        (fun (at, _, ev) -> Watchdog.alert_of_event ~at ev)
        events;
    an_faults = fault_summary events;
  }

let pages t = t.an_pages
let locks t = t.an_locks
let barriers t = t.an_barriers
let chains t = t.an_chains
let stages t = t.an_stages
let alerts t = t.an_alerts
let faults t = t.an_faults

let page_profile t ~page =
  List.find_opt (fun (p : Tele.profile) -> p.Tele.pr_page = page) t.an_pages

(* --- text report --- *)

let nodes_str nodes =
  "[" ^ String.concat ";" (List.map string_of_int nodes) ^ "]"

let report
    ?(sections =
      [ `Alerts; `Faults; `Critical; `Pages; `Locks; `Barriers ]) ppf
    t =
  let want s = List.mem s sections in
  Format.fprintf ppf "Trace analysis: %d events, %d spans, %.1f us@." t.an_events
    t.an_spans t.an_duration_us;
  if want `Faults && t.an_faults <> fault_summary [] then begin
    let f = t.an_faults in
    Format.fprintf ppf "@.== Injected faults ==@.";
    Format.fprintf ppf
      "  %d message(s) lost, %d blackholed; %d crash window(s), %d \
       restart(s); %d rpc retransmission(s)@."
      f.fs_drops f.fs_blackholes f.fs_crash_windows f.fs_restarts
      f.fs_rpc_retries
  end;
  if want `Alerts && t.an_alerts <> [] then begin
    Format.fprintf ppf "@.== Watchdog alerts ==@.";
    List.iter
      (fun a ->
        Format.fprintf ppf "  [%-8s] %10.1f us  %-18s %s@."
          (Trace.severity_to_string a.Watchdog.al_severity)
          a.Watchdog.al_at_us a.Watchdog.al_kind a.Watchdog.al_detail)
      t.an_alerts
  end;
  if want `Critical then begin
    Format.fprintf ppf "@.== Fault critical paths ==@.";
    Format.fprintf ppf "%-16s %-16s %7s %9s %9s %9s %9s %9s@." "protocol" "stage"
      "samples" "mean(us)" "p50(us)" "p90(us)" "p99(us)" "max(us)";
    List.iter
      (fun (proto, rows) ->
        List.iter
          (fun s ->
            Format.fprintf ppf "%-16s %-16s %7d %9.1f %9.1f %9.1f %9.1f %9.1f@." proto
              s.Stats.sm_name s.Stats.sm_samples (us_of s.Stats.sm_mean)
              (us_of s.Stats.sm_p50) (us_of s.Stats.sm_p90) (us_of s.Stats.sm_p99)
              (us_of s.Stats.sm_max))
          rows)
      t.an_stages;
    if t.an_top <> [] then begin
      Format.fprintf ppf "@.Top %d slowest faults:@." (List.length t.an_top);
      List.iter
        (fun c ->
          Format.fprintf ppf
            "  span %d: %s %s fault on page %d by node %d, %.1f us (%d hop%s)@."
            c.ch_span c.ch_protocol c.ch_mode c.ch_page c.ch_node c.ch_total_us
            c.ch_hops
            (if c.ch_hops = 1 then "" else "s");
          List.iter
            (fun (stage, us) -> Format.fprintf ppf "    %-16s %9.1f us@." stage us)
            c.ch_stages;
          List.iter
            (fun (at, _, ev) ->
              Format.fprintf ppf "    [%a] %-12s %s@." Time.pp at
                (Trace.event_category ev) (Trace.event_message ev))
            c.ch_events)
        t.an_top
    end
  end;
  if want `Pages then begin
    Format.fprintf ppf "@.== Page heatmap (by faults, bytes) ==@.";
    Format.fprintf ppf "%-6s %-16s %-17s %6s %6s %6s %9s %6s %-10s %-10s@." "page"
      "protocol" "pattern" "rf" "wf" "xfers" "bytes" "inval" "readers" "writers";
    List.iter
      (fun (p : Tele.profile) ->
        Format.fprintf ppf "%-6d %-16s %-17s %6d %6d %6d %9d %6d %-10s %-10s@."
          p.Tele.pr_page p.Tele.pr_protocol
          (Tele.pattern_to_string p.Tele.pr_pattern)
          p.Tele.pr_read_faults p.Tele.pr_write_faults p.Tele.pr_transfers
          p.Tele.pr_bytes p.Tele.pr_invalidations (nodes_str p.Tele.pr_readers)
          (nodes_str p.Tele.pr_writers))
      t.an_pages
  end;
  if want `Locks && t.an_locks <> [] then begin
    Format.fprintf ppf "@.== Lock contention ==@.";
    Format.fprintf ppf "%-6s %6s %6s %9s %9s %9s %9s %9s@." "lock" "nodes" "acq"
      "wait p50" "wait p99" "wait max" "hold p50" "hold max";
    List.iter
      (fun l ->
        Format.fprintf ppf "%-6d %6d %6d %9.1f %9.1f %9.1f %9.1f %9.1f@."
          l.lk_lock l.lk_nodes l.lk_acquisitions
          (Sketch.percentile l.lk_wait 50.)
          (Sketch.percentile l.lk_wait 99.)
          (Sketch.max_value l.lk_wait)
          (Sketch.percentile l.lk_hold 50.)
          (Sketch.max_value l.lk_hold))
      t.an_locks
  end;
  if want `Barriers && t.an_barriers <> [] then begin
    Format.fprintf ppf "@.== Barrier imbalance ==@.";
    Format.fprintf ppf "%-8s %8s %7s %10s %10s@." "barrier" "parties" "rounds"
      "mean(us)" "max(us)";
    List.iter
      (fun b ->
        Format.fprintf ppf "%-8d %8d %7d %10.1f %10.1f@." b.br_barrier
          b.br_parties b.br_rounds (Sketch.mean b.br_imbalance)
          (Sketch.max_value b.br_imbalance))
      t.an_barriers
  end

(* --- stable JSON --- *)

let chain_to_json c =
  Json.Obj
    [
      ("span", Json.Int c.ch_span);
      ("node", Json.Int c.ch_node);
      ("page", Json.Int c.ch_page);
      ("protocol", Json.String c.ch_protocol);
      ("mode", Json.String c.ch_mode);
      ("start_us", Json.Float c.ch_start_us);
      ("total_us", Json.Float c.ch_total_us);
      ("hops", Json.Int c.ch_hops);
      ( "stages",
        Json.Obj (List.map (fun (s, us) -> (s, Json.Float us)) c.ch_stages) );
      ( "events",
        Json.List
          (List.map
             (fun (at, span, ev) -> Trace.event_to_json ~at ~span ev)
             c.ch_events) );
    ]

let to_json ?meta t =
  Json.Obj
    [
      ( "meta",
        Run_meta.to_json
          (Run_meta.with_git (Option.value meta ~default:Run_meta.empty)) );
      ("events", Json.Int t.an_events);
      ("spans", Json.Int t.an_spans);
      ("duration_us", Json.Float t.an_duration_us);
      ( "critical_path",
        Json.Obj
          (List.map
             (fun (proto, rows) ->
               (proto, Json.List (List.map Stats.summary_to_json rows)))
             t.an_stages) );
      ("top_spans", Json.List (List.map chain_to_json t.an_top));
      ("pages", Json.List (List.map Tele.profile_to_json t.an_pages));
      ( "locks",
        Json.List
          (List.map
             (fun l ->
               Json.Obj
                 [
                   ("lock", Json.Int l.lk_lock);
                   ("nodes", Json.Int l.lk_nodes);
                   ("acquisitions", Json.Int l.lk_acquisitions);
                   ("wait", Sketch.to_json l.lk_wait);
                   ("hold", Sketch.to_json l.lk_hold);
                 ])
             t.an_locks) );
      ( "barriers",
        Json.List
          (List.map
             (fun b ->
               Json.Obj
                 [
                   ("barrier", Json.Int b.br_barrier);
                   ("parties", Json.Int b.br_parties);
                   ("rounds", Json.Int b.br_rounds);
                   ("imbalance", Sketch.to_json b.br_imbalance);
                 ])
             t.an_barriers) );
      ("alerts", Json.List (List.map Watchdog.alert_to_json t.an_alerts));
      ( "faults",
        Json.Obj
          [
            ("drops", Json.Int t.an_faults.fs_drops);
            ("blackholes", Json.Int t.an_faults.fs_blackholes);
            ("crash_windows", Json.Int t.an_faults.fs_crash_windows);
            ("restarts", Json.Int t.an_faults.fs_restarts);
            ("rpc_retries", Json.Int t.an_faults.fs_rpc_retries);
          ] );
    ]

(* --- folded stacks (flamegraph.pl / speedscope input) --- *)

(* One line per (protocol, stage) with the total time stamped, plus the
   whole-fault time no other stage accounts for as [other]; values in
   integer microseconds as flamegraph folded format expects. *)
let folded ppf t =
  let us ns = int_of_float (Float.round (us_of ns)) in
  List.iter
    (fun (proto, rows) ->
      let accounted = ref Time.zero and total = ref Time.zero in
      List.iter
        (fun s ->
          if s.Stats.sm_name = Instrument.stage_total then total := s.Stats.sm_total
          else begin
            accounted := Time.(!accounted + s.Stats.sm_total);
            Format.fprintf ppf "dsmpm2;%s;fault;%s %d@." proto s.Stats.sm_name
              (us s.Stats.sm_total)
          end)
        rows;
      let other = Time.(!total - !accounted) in
      if us other > 0 then Format.fprintf ppf "dsmpm2;%s;fault;other %d@." proto (us other))
    t.an_stages;
  List.iter
    (fun l ->
      if Sketch.sum l.lk_wait >= 0.5 then
        Format.fprintf ppf "dsmpm2;locks;lock_%d;wait %d@." l.lk_lock
          (int_of_float (Float.round (Sketch.sum l.lk_wait)));
      if Sketch.sum l.lk_hold >= 0.5 then
        Format.fprintf ppf "dsmpm2;locks;lock_%d;hold %d@." l.lk_lock
          (int_of_float (Float.round (Sketch.sum l.lk_hold))))
    t.an_locks;
  List.iter
    (fun b ->
      if Sketch.sum b.br_imbalance >= 0.5 then
        Format.fprintf ppf "dsmpm2;barriers;barrier_%d;imbalance %d@." b.br_barrier
          (int_of_float (Float.round (Sketch.sum b.br_imbalance))))
    t.an_barriers
