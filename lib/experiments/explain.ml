(* Causal forensics: slice a trace backward from a violating read or a
   critical alert to the injected faults that explain it.

   The trace already carries everything needed: protocol events share a
   span id per logical operation (carried across nodes inside the
   messages), dropped messages are typed [Drop]/[Blackhole] events stamped
   with the sending operation's span, crash windows appear as
   [Crash]/[Restart] pairs, and retransmissions as [Rpc_retry].  The blame
   engine stitches those into a causal DAG and extracts the minimal
   explanation: which concrete injected fault let this read return a stale
   value. *)

open Dsmpm2_sim

type target = {
  t_kind : string;
  t_node : int;
  t_page : int;
  t_at : Time.t;
  t_detail : string;
}

type cause =
  | Dropped_message of {
      c_at : Time.t;
      c_src : int;
      c_dst : int;
      c_kind : string;
      c_span : int;
      c_blackhole : bool;
      c_down : int;
    }
  | Crash_window of { c_node : int; c_down : Time.t; c_up : Time.t }
  | Retry_storm of {
      c_service : string;
      c_src : int;
      c_dst : int;
      c_attempts : int;
      c_last : Time.t;
    }

type explanation = {
  x_target : target;
  x_causes : cause list;
  x_spans : int list;
  x_slice : (Time.t * int * Trace.event) list;
}

let causes x = x.x_causes
let target x = x.x_target

(* The pages an event talks about; [] when it has none. *)
let event_pages = function
  | Trace.Fault { page; _ }
  | Trace.Page_request { page; _ }
  | Trace.Page_send { page; _ }
  | Trace.Page_install { page; _ }
  | Trace.Invalidate { page; _ } -> [ page ]
  | Trace.Diff { page_list; _ } -> page_list
  | _ -> []

(* Both endpoints of a message-shaped event, for the involved-node set. *)
let event_endpoints = function
  | Trace.Page_send { node; dst; _ } -> [ node; dst ]
  | Trace.Page_install { node; sender; _ } -> [ node; sender ]
  | Trace.Page_request { node; requester; _ } -> [ node; requester ]
  | Trace.Invalidate { node; sender; _ } -> [ node; sender ]
  | Trace.Diff { node; sender; _ } -> [ node; sender ]
  | Trace.Drop { src; dst; _ } | Trace.Blackhole { src; dst; _ } -> [ src; dst ]
  | Trace.Rpc_retry { src; dst; _ } -> [ src; dst ]
  | ev ->
      let n = Trace.event_node ev in
      if n < 0 then [] else [ n ]

module Int_set = Set.Make (Int)

(* "... page 7 ..." inside an alert detail string, or -1.  Good enough to
   focus an alert-seeded slice on the page the watchdog complained about. *)
let page_in_detail detail =
  let len = String.length detail in
  let needle = "page " in
  let rec find i =
    if i + String.length needle > len then -1
    else if String.sub detail i (String.length needle) = needle then begin
      let j = ref (i + String.length needle) in
      let v = ref 0 and seen = ref false in
      while !j < len && detail.[!j] >= '0' && detail.[!j] <= '9' do
        seen := true;
        v := (!v * 10) + (Char.code detail.[!j] - Char.code '0');
        incr j
      done;
      if !seen then !v else find (i + 1)
    end
    else find (i + 1)
  in
  find 0

let explain ~trace tgt =
  let evs = Trace.events trace in
  (* A target with neither a page nor a node (a system-wide alert like
     deadlock.stall) slices from the injected faults themselves: the spans
     they starved are the operations worth showing. *)
  let global = tgt.t_page < 0 && tgt.t_node < 0 in
  let is_fault_event = function
    | Trace.Drop _ | Trace.Blackhole _ | Trace.Crash _ | Trace.Restart _
    | Trace.Rpc_retry _ -> true
    | _ -> false
  in
  (* Pass 1 — seed spans: every span that touches the target page (or, with
     no page, the target node) at or before the target instant.  These are
     the logical operations the violating read causally depends on. *)
  let interesting ev =
    if global then is_fault_event ev
    else if tgt.t_page >= 0 then List.mem tgt.t_page (event_pages ev)
    else List.mem tgt.t_node (event_endpoints ev)
  in
  let seed_spans =
    List.fold_left
      (fun acc (at, span, ev) ->
        if at <= tgt.t_at && span <> Trace.no_span && interesting ev
        then Int_set.add span acc
        else acc)
      Int_set.empty evs
  in
  (* Pass 2 — involved nodes: every endpoint of a seed-span event, plus the
     target's own node.  Crash windows on these nodes are causal suspects
     even though a frozen node emits nothing while it is down. *)
  let involved =
    List.fold_left
      (fun acc (at, span, ev) ->
        if
          (span <> Trace.no_span && Int_set.mem span seed_spans)
          || (global && at <= tgt.t_at && is_fault_event ev)
        then List.fold_left (fun a n -> Int_set.add n a) acc (event_endpoints ev)
        else acc)
      (if tgt.t_node < 0 then Int_set.empty else Int_set.singleton tgt.t_node)
      evs
  in
  let in_seed span = Int_set.mem span seed_spans in
  (* Pass 3 — the slice: seed-span events, page-matching span-less events,
     and Crash/Restart markers for involved nodes, all at or before the
     target. *)
  let slice =
    List.filter
      (fun (at, span, ev) ->
        at <= tgt.t_at
        &&
        match ev with
        | Trace.Crash { node; _ } | Trace.Restart { node } ->
            Int_set.mem node involved
        | _ -> in_seed span || (span = Trace.no_span && interesting ev))
      evs
  in
  (* Pass 4 — causes.  Primary: drops inside a seed span (the message the
     operation lost).  Fallback: drops on a link between involved nodes —
     retransmitted requests go out in timer context where no span is
     attached, so their losses are span-less but still on-link. *)
  let drop_cause (at, span, ev) =
    match ev with
    | Trace.Drop { src; dst; kind } ->
        Some
          (Dropped_message
             {
               c_at = at;
               c_src = src;
               c_dst = dst;
               c_kind = kind;
               c_span = span;
               c_blackhole = false;
               c_down = -1;
             })
    | Trace.Blackhole { src; dst; kind; down } ->
        Some
          (Dropped_message
             {
               c_at = at;
               c_src = src;
               c_dst = dst;
               c_kind = kind;
               c_span = span;
               c_blackhole = true;
               c_down = down;
             })
    | _ -> None
  in
  let before at = at <= tgt.t_at in
  let span_drops =
    List.filter_map
      (fun ((at, span, _) as x) ->
        if before at && in_seed span then drop_cause x else None)
      evs
  in
  let drops =
    if span_drops <> [] then span_drops
    else
      List.filter_map
        (fun ((at, _, ev) as x) ->
          match ev with
          | Trace.Drop { src; dst; _ } | Trace.Blackhole { src; dst; _ }
            when before at && Int_set.mem src involved && Int_set.mem dst involved
            -> drop_cause x
          | _ -> None)
        evs
  in
  let crash_windows =
    List.filter_map
      (fun (at, _, ev) ->
        match ev with
        | Trace.Crash { node; up }
          when before at && Int_set.mem node involved ->
            Some (Crash_window { c_node = node; c_down = at; c_up = up })
        | _ -> None)
      evs
  in
  (* Retransmission storms, aggregated per (service, link): the symptom of
     a drop or crash, kept as supporting evidence. *)
  let retries = Hashtbl.create 8 in
  let retry_order = ref [] in
  List.iter
    (fun (at, span, ev) ->
      match ev with
      | Trace.Rpc_retry { service; src; dst; attempt }
        when before at
             && (in_seed span || (Int_set.mem src involved && Int_set.mem dst involved))
        -> (
          let key = (service, src, dst) in
          match Hashtbl.find_opt retries key with
          | Some (attempts, _) ->
              Hashtbl.replace retries key (max attempts attempt, at)
          | None ->
              retry_order := key :: !retry_order;
              Hashtbl.replace retries key (attempt, at))
      | _ -> ())
    evs;
  let retry_causes =
    List.rev_map
      (fun ((service, src, dst) as key) ->
        let attempts, last = Hashtbl.find retries key in
        Retry_storm
          {
            c_service = service;
            c_src = src;
            c_dst = dst;
            c_attempts = attempts;
            c_last = last;
          })
      !retry_order
  in
  {
    x_target = tgt;
    x_causes = drops @ crash_windows @ retry_causes;
    x_spans = Int_set.elements seed_spans;
    x_slice = slice;
  }

let explain_violation ~trace ~node ~page ~at ~detail =
  explain ~trace
    { t_kind = "violation"; t_node = node; t_page = page; t_at = at; t_detail = detail }

let explain_alert ~trace ~kind ~node ~at ~detail =
  explain ~trace
    {
      t_kind = "alert:" ^ kind;
      t_node = node;
      t_page = page_in_detail detail;
      t_at = at;
      t_detail = detail;
    }

let explain_result ~trace ~at ~detail =
  explain ~trace
    {
      t_kind = "wrong_result";
      t_node = -1;
      t_page = page_in_detail detail;
      t_at = at;
      t_detail = detail;
    }

(* One explanation per critical alert in the dump — the `dsm explain
   trace.jsonl` entry point, where no checker verdicts are available. *)
let explain_trace trace =
  let open Dsmpm2_core.Watchdog in
  List.filter_map
    (fun (at, _, ev) ->
      match alert_of_event ~at ev with
      | Some { al_severity = Critical; al_kind; al_node; al_detail; _ } ->
          Some
            (explain_alert ~trace ~kind:al_kind ~node:al_node ~at
               ~detail:al_detail)
      | _ -> None)
    (Trace.events trace)

(* --- rendering --- *)

let cause_to_string = function
  | Dropped_message { c_at; c_src; c_dst; c_kind; c_span; c_blackhole; c_down } ->
      if c_blackhole then
        Printf.sprintf
          "%s on link %d->%d blackholed at t=%.0fus (node %d was crashed)%s"
          c_kind c_src c_dst (Time.to_us c_at) c_down
          (if c_span = Trace.no_span then ""
           else Printf.sprintf " [span %d]" c_span)
      else
        Printf.sprintf "%s on link %d->%d dropped at t=%.0fus (seeded loss)%s"
          c_kind c_src c_dst (Time.to_us c_at)
          (if c_span = Trace.no_span then ""
           else Printf.sprintf " [span %d]" c_span)
  | Crash_window { c_node; c_down; c_up } ->
      Printf.sprintf "node %d was crashed t=[%.0fus, %.0fus]" c_node
        (Time.to_us c_down) (Time.to_us c_up)
  | Retry_storm { c_service; c_src; c_dst; c_attempts; c_last } ->
      Printf.sprintf
        "rpc %s on link %d->%d needed %d attempts (last retransmission at \
         t=%.0fus)"
        c_service c_src c_dst c_attempts (Time.to_us c_last)

let to_text ppf x =
  let t = x.x_target in
  Format.fprintf ppf "%s on node %d%s at t=%.0fus: %s@." t.t_kind t.t_node
    (if t.t_page < 0 then "" else Printf.sprintf " (page %d)" t.t_page)
    (Time.to_us t.t_at) t.t_detail;
  (match x.x_causes with
  | [] ->
      Format.fprintf ppf
        "  no injected cause found in the causal slice (%d events, %d spans)@."
        (List.length x.x_slice) (List.length x.x_spans)
  | causes ->
      Format.fprintf ppf "  because:@.";
      List.iter (fun c -> Format.fprintf ppf "    - %s@." (cause_to_string c)) causes);
  Format.fprintf ppf "  causal slice (%d events across %d spans):@."
    (List.length x.x_slice) (List.length x.x_spans);
  List.iter
    (fun (at, span, ev) ->
      Format.fprintf ppf "    [%a] s%-4d %-12s %s@." Time.pp at span
        (Trace.event_category ev) (Trace.event_message ev))
    x.x_slice

let cause_to_json = function
  | Dropped_message { c_at; c_src; c_dst; c_kind; c_span; c_blackhole; c_down } ->
      Json.Obj
        [
          ("type", Json.String "dropped_message");
          ("at_ns", Json.Int c_at);
          ("src", Json.Int c_src);
          ("dst", Json.Int c_dst);
          ("kind", Json.String c_kind);
          ("span", Json.Int c_span);
          ("blackhole", Json.Bool c_blackhole);
          ("down", Json.Int c_down);
        ]
  | Crash_window { c_node; c_down; c_up } ->
      Json.Obj
        [
          ("type", Json.String "crash_window");
          ("node", Json.Int c_node);
          ("down_ns", Json.Int c_down);
          ("up_ns", Json.Int c_up);
        ]
  | Retry_storm { c_service; c_src; c_dst; c_attempts; c_last } ->
      Json.Obj
        [
          ("type", Json.String "retry_storm");
          ("service", Json.String c_service);
          ("src", Json.Int c_src);
          ("dst", Json.Int c_dst);
          ("attempts", Json.Int c_attempts);
          ("last_ns", Json.Int c_last);
        ]

let to_json x =
  let t = x.x_target in
  Json.Obj
    [
      ( "target",
        Json.Obj
          [
            ("kind", Json.String t.t_kind);
            ("node", Json.Int t.t_node);
            ("page", Json.Int t.t_page);
            ("at_ns", Json.Int t.t_at);
            ("detail", Json.String t.t_detail);
          ] );
      ("causes", Json.List (List.map cause_to_json x.x_causes));
      ("spans", Json.List (List.map (fun s -> Json.Int s) x.x_spans));
      ( "slice",
        Json.List
          (List.map
             (fun (at, span, ev) -> Trace.event_to_json ~at ~span ev)
             x.x_slice) );
    ]

(* Graphviz rendering of the slice: one box per event, program-order edges
   inside each span, dashed red edges from each cause event to the target.
   Causes that have no slice event of their own (crash windows) get
   synthetic nodes. *)

let dot_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_dot ppf x =
  let t = x.x_target in
  Format.fprintf ppf "digraph explanation {@.";
  Format.fprintf ppf "  rankdir=LR;@.";
  Format.fprintf ppf "  node [shape=box, fontsize=9, fontname=\"monospace\"];@.";
  Format.fprintf ppf
    "  target [label=\"%s\\nnode %d%s\\nt=%.0fus\", color=red, penwidth=2];@."
    (dot_escape t.t_kind) t.t_node
    (if t.t_page < 0 then "" else Printf.sprintf " page %d" t.t_page)
    (Time.to_us t.t_at);
  let is_cause_event (at, _, ev) =
    match ev with
    | Trace.Drop _ | Trace.Blackhole _ | Trace.Crash _ | Trace.Rpc_retry _ ->
        List.exists
          (function
            | Dropped_message { c_at; _ }
            | Retry_storm { c_last = c_at; _ }
            | Crash_window { c_down = c_at; _ } -> c_at = at)
          x.x_causes
    | _ -> false
  in
  List.iteri
    (fun i ((at, _, ev) as ent) ->
      Format.fprintf ppf "  e%d [label=\"t=%.0fus %s\\n%s\"%s];@." i
        (Time.to_us at) (dot_escape (Trace.event_category ev))
        (dot_escape (Trace.event_message ev))
        (if is_cause_event ent then ", color=red, penwidth=2" else ""))
    x.x_slice;
  (* Program-order edges within each span. *)
  let last_in_span = Hashtbl.create 16 in
  List.iteri
    (fun i (_, span, _) ->
      if span <> Trace.no_span then begin
        (match Hashtbl.find_opt last_in_span span with
        | Some j -> Format.fprintf ppf "  e%d -> e%d;@." j i
        | None -> ());
        Hashtbl.replace last_in_span span i
      end)
    x.x_slice;
  (* Cause edges into the target. *)
  List.iteri
    (fun i ent ->
      if is_cause_event ent then
        Format.fprintf ppf "  e%d -> target [style=dashed, color=red];@." i)
    x.x_slice;
  (* Crash windows have no slice event when the node crashed outside the
     slice horizon; give them synthetic nodes so every cause is visible. *)
  let slice_crash_ats =
    List.filter_map
      (fun (at, _, ev) -> match ev with Trace.Crash _ -> Some at | _ -> None)
      x.x_slice
  in
  List.iteri
    (fun i c ->
      match c with
      | Crash_window { c_node; c_down; c_up }
        when not (List.mem c_down slice_crash_ats) ->
          Format.fprintf ppf
            "  c%d [label=\"node %d crashed\\nt=[%.0fus, %.0fus]\", color=red, \
             penwidth=2];@."
            i c_node (Time.to_us c_down) (Time.to_us c_up);
          Format.fprintf ppf "  c%d -> target [style=dashed, color=red];@." i
      | _ -> ())
    x.x_causes;
  Format.fprintf ppf "}@."
