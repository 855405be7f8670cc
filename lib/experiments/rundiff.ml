(* Exact run comparison (`dsm diff`).

   Every value compared is an integer that a deterministic run reproduces
   bit for bit, so the comparison has no tolerance: it lists each
   difference.  Snapshots are rows of integers — a macro case's sample per
   seed, a paper table's cell, a Bechamel kernel's words per run — compared
   by row id and field; trace dumps through Analyze — the same stage
   stamps, page classification and alert extraction the post-mortem report
   uses — so `dsm analyze` and `dsm diff` never disagree about what a stage
   or a pattern is. *)

open Dsmpm2_sim
module Tele = Dsmpm2_core.Telemetry
module Watchdog = Dsmpm2_core.Watchdog

(* --- sources --- *)

type source = Rows of Paper.row list | Run of Analyze.t

let load_source path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg (* already names the path *)
  | contents -> (
      (* A snapshot is one JSON document with a schema field; a trace dump
         is JSONL whose lines have no schema.  Sniff, don't trust
         extensions. *)
      match Json.of_string contents with
      | Ok j when Json.member "schema" j <> None ->
          Result.map_error (Printf.sprintf "%s: %s" path)
            (Result.map (fun rows -> Rows rows) (Paper.of_json j))
      | _ -> (
          match Trace.of_jsonl contents with
          | Ok tr -> Ok (Run (Analyze.analyze tr))
          | Error msg ->
              Error
                (Printf.sprintf
                   "%s: neither a row snapshot nor a trace dump (%s)"
                   path msg)))

(* --- differences --- *)

type change = {
  ch_where : string;
  ch_field : string;
  ch_base : int;
  ch_fresh : int;
}

type stage = {
  sd_protocol : string;
  sd_stage : string;
  sd_base : Stats.span_summary option;
  sd_fresh : Stats.span_summary option;
}

type pattern_drift = { pd_page : int; pd_base : string; pd_fresh : string }

type alert_delta = {
  al_severity : Watchdog.severity;
  al_kind : string;
  al_base : int;
  al_fresh : int;
}

type t = {
  rd_mode : [ `Rows | `Trace ];
  rd_only_baseline : string list;
  rd_only_fresh : string list;
  rd_stages : stage list;
  rd_changes : change list;
  rd_patterns : pattern_drift list;
  rd_alerts : alert_delta list;
}

(* Rows [(id, fields)] are matched by id and fields by name: one change per
   field whose values differ, in [a]'s order, and one line per row of [x]
   with no counterpart in [y] (["id"]) or field of a matched row with none
   (["id field"]). *)
let row_changes a b =
  List.concat_map
    (fun (where, fa) ->
      List.filter_map
        (fun (field, x) ->
          match Option.bind (List.assoc_opt where b) (List.assoc_opt field) with
          | Some y when y <> x ->
              Some { ch_where = where; ch_field = field; ch_base = x; ch_fresh = y }
          | _ -> None)
        fa)
    a

let only x y =
  List.concat_map
    (fun (id, fx) ->
      match List.assoc_opt id y with
      | None -> [ id ]
      | Some fy ->
          List.filter_map
            (fun (f, _) -> if List.mem_assoc f fy then None else Some (id ^ " " ^ f))
            fx)
    x

let diff_rows ~mode a b =
  {
    rd_mode = mode;
    rd_only_baseline = only a b;
    rd_only_fresh = only b a;
    rd_stages = [];
    rd_changes = row_changes a b;
    rd_patterns = [];
    rd_alerts = [];
  }

(* --- trace mode --- *)

let stage_rank stage =
  Option.value ~default:max_int
    (List.find_index (String.equal stage) Dsmpm2_core.Instrument.stages)

let diff_stages base fresh =
  let rows a =
    List.concat_map
      (fun (protocol, rows) -> List.map (fun s -> ((protocol, s.Stats.sm_name), s)) rows)
      (Analyze.stages a)
  in
  let tb = rows base and tf = rows fresh in
  List.sort_uniq
    (fun (pa, sa) (pb, sb) -> compare (pa, stage_rank sa, sa) (pb, stage_rank sb, sb))
    (List.map fst tb @ List.map fst tf)
  |> List.map (fun ((sd_protocol, sd_stage) as key) ->
         let sd_base = List.assoc_opt key tb and sd_fresh = List.assoc_opt key tf in
         { sd_protocol; sd_stage; sd_base; sd_fresh })

let stage_row sd s =
  let mean, p90, n =
    match s with None -> (0, 0, 0) | Some s -> Stats.(s.sm_mean, s.sm_p90, s.sm_samples)
  in
  (sd.sd_protocol ^ "/" ^ sd.sd_stage, [ ("mean_ns", mean); ("p90_ns", p90); ("samples", n) ])

let diff_patterns base fresh =
  let patterns a =
    List.map
      (fun (p : Tele.profile) ->
        (p.Tele.pr_page, Tele.pattern_to_string p.Tele.pr_pattern))
      (Analyze.pages a)
  in
  let pf = patterns fresh in
  List.filter_map
    (fun (page, pb) ->
      match List.assoc_opt page pf with
      | Some p when p <> pb -> Some { pd_page = page; pd_base = pb; pd_fresh = p }
      | _ -> None)
    (patterns base)
  |> List.sort (fun a b -> compare a.pd_page b.pd_page)

let diff_alerts base fresh =
  let keys a =
    List.map (fun al -> Watchdog.(al.al_severity, al.al_kind)) (Analyze.alerts a)
  in
  let in_base = keys base and in_fresh = keys fresh in
  let count k l = List.length (List.filter (( = ) k) l) in
  (* critical first in reports, then by kind *)
  List.sort_uniq
    (fun (sa, ka) (sb, kb) -> compare (sb, ka) (sa, kb))
    (in_base @ in_fresh)
  |> List.filter_map (fun ((al_severity, al_kind) as k) ->
         let al_base = count k in_base and al_fresh = count k in_fresh in
         if al_base = al_fresh then None
         else Some { al_severity; al_kind; al_base; al_fresh })

(* A stage is the row [protocol/stage], zero on a side without stamps. *)
let diff_trace base fresh =
  let stages = diff_stages base fresh in
  let rows side = List.map (fun sd -> stage_row sd (side sd)) stages in
  {
    (diff_rows ~mode:`Trace (rows (fun sd -> sd.sd_base)) (rows (fun sd -> sd.sd_fresh)))
    with
    rd_stages = stages;
    rd_patterns = diff_patterns base fresh;
    rd_alerts = diff_alerts base fresh;
  }

(* --- entry point and verdict --- *)

let kind = function Rows _ -> "row snapshot" | Run _ -> "trace dump"

let diff ~baseline ~fresh =
  match (baseline, fresh) with
  | Rows a, Rows b -> Ok (diff_rows ~mode:`Rows a b)
  | Run a, Run b -> Ok (diff_trace a b)
  | _ -> Error (Printf.sprintf "cannot compare a %s with a %s" (kind baseline) (kind fresh))

let change_line c =
  let delta = c.ch_fresh - c.ch_base in
  Printf.sprintf "%s: %s %d -> %d (%+d%s)" c.ch_where c.ch_field c.ch_base c.ch_fresh delta
    (if c.ch_base = 0 then ""
     else Printf.sprintf ", %+.2f%%" (100. *. float_of_int delta /. float_of_int c.ch_base))

let differences t =
  List.concat
    [
      List.map change_line t.rd_changes;
      List.map (fun cid -> "only in baseline: " ^ cid) t.rd_only_baseline;
      List.map (fun cid -> "only in fresh: " ^ cid) t.rd_only_fresh;
      List.map
        (fun pd -> Printf.sprintf "page %d: %s -> %s" pd.pd_page pd.pd_base pd.pd_fresh)
        t.rd_patterns;
      List.map
        (fun al ->
          Printf.sprintf "alert %s %s: %d -> %d"
            (Trace.severity_to_string al.al_severity)
            al.al_kind al.al_base al.al_fresh)
        t.rd_alerts;
    ]

let differs t = differences t <> []

(* --- rendering --- *)

let mode_str = function `Rows -> "rows" | `Trace -> "trace"

let pp_text ppf t =
  Format.fprintf ppf "run diff: %s mode, exact@." (mode_str t.rd_mode);
  if t.rd_stages <> [] then
    Stats.pp_span_table ppf ~key:"protocol side"
      (List.concat_map
         (fun sd ->
           List.filter_map
             (fun (side, s) -> Option.map (fun s -> (sd.sd_protocol ^ " " ^ side, s)) s)
             [ ("base", sd.sd_base); ("fresh", sd.sd_fresh) ])
         t.rd_stages);
  let ds = differences t in
  List.iter (Format.fprintf ppf "%s@.") ds;
  match List.length ds with
  | 0 -> Format.fprintf ppf "verdict: equal@."
  | n -> Format.fprintf ppf "verdict: differs (%d difference%s)@." n (if n = 1 then "" else "s")

let to_json t =
  let strings l = Json.List (List.map (fun s -> Json.String s) l) in
  let summary = function None -> Json.Null | Some s -> Stats.summary_to_json s in
  Json.Obj
    [
      ("mode", Json.String (mode_str t.rd_mode));
      ( "changes",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("where", Json.String c.ch_where);
                   ("field", Json.String c.ch_field);
                   ("base", Json.Int c.ch_base);
                   ("fresh", Json.Int c.ch_fresh);
                 ])
             t.rd_changes) );
      ("only_baseline", strings t.rd_only_baseline);
      ("only_fresh", strings t.rd_only_fresh);
      ( "stages",
        Json.List
          (List.map
             (fun sd ->
               Json.Obj
                 [
                   ("protocol", Json.String sd.sd_protocol);
                   ("stage", Json.String sd.sd_stage);
                   ("base", summary sd.sd_base);
                   ("fresh", summary sd.sd_fresh);
                 ])
             t.rd_stages) );
      ( "patterns",
        Json.List
          (List.map
             (fun pd ->
               Json.Obj
                 [
                   ("page", Json.Int pd.pd_page);
                   ("base", Json.String pd.pd_base);
                   ("fresh", Json.String pd.pd_fresh);
                 ])
             t.rd_patterns) );
      ( "alerts",
        Json.List
          (List.map
             (fun al ->
               Json.Obj
                 [
                   ("severity", Json.String (Trace.severity_to_string al.al_severity));
                   ("kind", Json.String al.al_kind);
                   ("base", Json.Int al.al_base);
                   ("fresh", Json.Int al.al_fresh);
                 ])
             t.rd_alerts) );
      ("differences", strings (differences t));
      ("differs", Json.Bool (differs t));
    ]
