open Dsmpm2_sim

(* Post-mortem trace analyzer: turns a run's typed event trace (live
   [Monitor.trace] or a re-loaded [Trace.of_jsonl] dump) into the reports
   the paper attributes to PM2's "very precise post-mortem monitoring
   tools" — per-fault critical paths, per-page sharing-pattern profiles,
   lock and barrier waits and the watchdog's findings. *)

module Instrument = Dsmpm2_core.Instrument

(* --- critical paths ---

   The analyzer measures no duration itself.  The runtime stamps each
   fault stage and each lock or barrier wait once, into its registry and,
   as a [Stage] event, into the trace ([Monitor.stamp]); every table is a
   fold of those stamps, and a fault chain's stages are the stamps in its
   span. *)

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

(* The stamps folded into a registry of the analyzer's own, so every
   figure is computed as the runtime's is.  A fault stage's cell is
   labelled with its protocol; a sync stamp's with its lock or barrier id,
   which this registry keeps in the node label (a lock and a barrier may
   share an id: their series names tell them apart). *)
let sync_series = Instrument.[ lock_wait; lock_hold; barrier_wait ]

let stamp_registry events =
  let stats = Stats.create () in
  let cells = Hashtbl.create 16 in
  List.iter
    (fun (_, _, ev) ->
      match ev with
      | Trace.Stage { protocol; stage; obj; ns; _ } ->
          let node, protocol =
            if List.mem stage sync_series then (Some obj, None) else (None, Some protocol)
          in
          let cell =
            match Hashtbl.find_opt cells (node, protocol, stage) with
            | Some c -> c
            | None ->
                let c = Stats.cell stats ?node ?protocol ~span:stage () in
                Hashtbl.add cells (node, protocol, stage) c;
                c
          in
          Stats.record cell ns
      | _ -> ())
    events;
  stats

(* Per label set that [key] names (in label-set order), the summary of
   each of [series] it has samples of, in [series] order. *)
let table stats ~key series =
  List.filter_map
    (fun labels ->
      Option.bind (key labels) (fun k ->
          match
            List.filter
              (fun s -> s.Stats.sm_samples > 0)
              (List.map (Stats.span_summary ~labels stats) series)
          with
          | [] -> None
          | rows -> Some (k, rows)))
    (Stats.label_sets stats)

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
  an_stages : (string * Stats.span_summary list) list;  (* by protocol *)
  an_top : chain list;  (* top-K slowest, slowest first *)
  an_pages : Tele.profile list;  (* ranked by (faults, bytes) desc *)
  an_locks : (int * Stats.span_summary list) list;  (* by lock id *)
  an_barriers : (int * Stats.span_summary list) list;  (* by barrier id *)
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
  let stamps = stamp_registry events in
  let by_obj labels = labels.Stats.lbl_node in
  {
    an_events = List.length events;
    an_spans = List.length span_groups;
    an_duration_us = us_of duration;
    an_chains = chains;
    an_stages =
      table stamps ~key:(fun l -> l.Stats.lbl_protocol) Instrument.stages;
    an_top = top_chains;
    an_pages = page_profiles events;
    an_locks = table stamps ~key:by_obj Instrument.[ lock_wait; lock_hold ];
    an_barriers = table stamps ~key:by_obj [ Instrument.barrier_wait ];
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

(* A table's [(key, summaries)] groups as printer rows. *)
let rows key_to_string groups =
  List.concat_map (fun (k, ss) -> List.map (fun s -> (key_to_string k, s)) ss) groups

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
    Stats.pp_span_table ppf ~key:"protocol" (rows Fun.id t.an_stages);
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
    Format.fprintf ppf "@.== Lock waits and holds ==@.";
    Stats.pp_span_table ppf ~key:"lock" (rows string_of_int t.an_locks)
  end;
  if want `Barriers && t.an_barriers <> [] then begin
    Format.fprintf ppf "@.== Barrier waits ==@.";
    Stats.pp_span_table ppf ~key:"barrier" (rows string_of_int t.an_barriers)
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

(* A table as [{key: [summary, ...]}], in the registry's encoding. *)
let table_to_json key_to_string groups =
  Json.Obj
    (List.map
       (fun (k, ss) -> (key_to_string k, Json.List (List.map Stats.summary_to_json ss)))
       groups)

let to_json ?meta t =
  Json.Obj
    [
      ( "meta",
        Run_meta.to_json
          (Run_meta.with_git (Option.value meta ~default:Run_meta.empty)) );
      ("events", Json.Int t.an_events);
      ("spans", Json.Int t.an_spans);
      ("duration_us", Json.Float t.an_duration_us);
      ("critical_path", table_to_json Fun.id t.an_stages);
      ("top_spans", Json.List (List.map chain_to_json t.an_top));
      ("pages", Json.List (List.map Tele.profile_to_json t.an_pages));
      ("locks", table_to_json string_of_int t.an_locks);
      ("barriers", table_to_json string_of_int t.an_barriers);
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
   whole-fault time no other stage accounts for as [other], then one line
   per (lock, series) and (barrier, series); values in integer
   microseconds as flamegraph folded format expects. *)
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
  let sync frame groups =
    List.iter
      (fun (id, s) ->
        if us s.Stats.sm_total > 0 then
          Format.fprintf ppf "dsmpm2;%ss;%s_%s;%s %d@." frame frame id s.Stats.sm_name
            (us s.Stats.sm_total))
      (rows string_of_int groups)
  in
  sync "lock" t.an_locks;
  sync "barrier" t.an_barriers
