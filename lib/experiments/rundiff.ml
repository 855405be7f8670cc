(* Differential run comparison (`dsm diff`).

   The macro-bench suite gives every case a repeated-seed spread; this
   module turns that spread into a noise bound so a delta between two
   snapshots only reads as signal when it clears both noise_sigma·σ and a
   relative threshold.  Trace dumps are compared through Analyze — the same
   stage stamps, page classification and alert extraction the post-mortem
   report uses — so `dsm analyze` and `dsm diff` never disagree about what
   a stage or a pattern is. *)

open Dsmpm2_sim
module B = Bench_suite
module Tele = Dsmpm2_core.Telemetry
module Watchdog = Dsmpm2_core.Watchdog

let default_threshold_pct = 2.0
let noise_sigma = 3.0

(* --- sources --- *)

type source = Bench of B.t | Run of Run_meta.t * Analyze.t

let load_source path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error (Printf.sprintf "%s: %s" path msg)
  | contents -> (
      (* A macro-bench snapshot is one JSON document with a schema field; a
         trace dump is JSONL whose lines have no schema.  Sniff, don't
         trust extensions. *)
      let as_bench =
        match Json.of_string contents with
        | Ok j when Json.member "schema" j <> None -> Some (B.of_json j)
        | _ -> None
      in
      match as_bench with
      | Some (Ok t) -> Ok (Bench t)
      | Some (Error msg) -> Error (Printf.sprintf "%s: %s" path msg)
      | None -> (
          match Trace.of_jsonl contents with
          | Ok tr -> Ok (Run (Run_meta.empty, Analyze.analyze tr))
          | Error msg ->
              Error
                (Printf.sprintf
                   "%s: neither a macro-bench snapshot nor a trace dump (%s)"
                   path msg)))

(* --- deltas --- *)

type direction = Better | Worse | Same

type metric_delta = {
  md_metric : string;
  md_base : float;
  md_fresh : float;
  md_delta : float;
  md_pct : float;
  md_noise : float;
  md_significant : bool;
  md_direction : direction;
}

type case_delta = { cd_id : string; cd_metrics : metric_delta list }

type stage_delta = {
  sd_protocol : string;
  sd_stage : string;
  sd_base_mean_us : float;
  sd_fresh_mean_us : float;
  sd_base_p90_us : float;
  sd_fresh_p90_us : float;
  sd_base_samples : int;
  sd_fresh_samples : int;
  sd_pct : float;
  sd_significant : bool;
  sd_direction : direction;
}

type pattern_drift = { pd_page : int; pd_base : string; pd_fresh : string }

type alert_delta = {
  al_severity : Watchdog.severity;
  al_kind : string;
  al_base : int;
  al_fresh : int;
}

type t = {
  rd_mode : [ `Bench | `Trace ];
  rd_threshold_pct : float;
  rd_cases : case_delta list;
  rd_only_baseline : string list;
  rd_only_fresh : string list;
  rd_stages : stage_delta list;
  rd_patterns : pattern_drift list;
  rd_alerts : alert_delta list;
}

let direction_of delta =
  if delta > 0. then Worse else if delta < 0. then Better else Same

let pct_of ~base delta = if base = 0. then 0. else 100. *. delta /. base

(* Signal = clears the seed-noise bound AND the relative threshold.  With a
   zero base the relative term vanishes, so any above-noise delta counts
   (a metric appearing from nothing is always news). *)
let clears ~threshold_pct ~noise ~base delta =
  delta <> 0.
  && Float.abs delta > noise
  && Float.abs delta >= threshold_pct /. 100. *. Float.abs base

(* --- bench mode --- *)

let case_delta ~threshold_pct base fresh =
  let metrics =
    List.map
      (fun name ->
        let b = B.metric_mean base name and f = B.metric_mean fresh name in
        let sb = B.metric_stddev base name
        and sf = B.metric_stddev fresh name in
        let delta = f -. b in
        let noise = noise_sigma *. Float.max sb sf in
        {
          md_metric = name;
          md_base = b;
          md_fresh = f;
          md_delta = delta;
          md_pct = pct_of ~base:b delta;
          md_noise = noise;
          md_significant = clears ~threshold_pct ~noise ~base:b delta;
          md_direction = direction_of delta;
        })
      B.metric_names
  in
  { cd_id = base.B.cr_case.B.c_id; cd_metrics = metrics }

let find_case t id =
  List.find_opt (fun cr -> cr.B.cr_case.B.c_id = id) t.B.bs_results

let seeds_of cr = List.map (fun s -> s.B.s_seed) cr.B.cr_samples

let seeds_str seeds =
  "[" ^ String.concat " " (List.map string_of_int seeds) ^ "]"

(* Apples-to-oranges detection: suite metadata, then per matched case the
   full identity — Run_meta (driver/protocol/nodes/case; git exempt), the
   workload parameters, and the tie-seed list (the noise bound is only
   meaningful over the same seeds). *)
let bench_compat a b =
  let errs = ref [] in
  let push e = errs := e :: !errs in
  (match Run_meta.compatible ~baseline:a.B.bs_meta ~fresh:b.B.bs_meta with
  | Ok () -> ()
  | Error m -> push m);
  List.iter
    (fun cra ->
      let id = cra.B.cr_case.B.c_id in
      match find_case b id with
      | None -> ()
      | Some crb ->
          (match
             Run_meta.compatible ~baseline:cra.B.cr_meta ~fresh:crb.B.cr_meta
           with
          | Ok () -> ()
          | Error m -> push (Printf.sprintf "%s: %s" id m));
          let pa = List.sort compare cra.B.cr_case.B.c_params
          and pb = List.sort compare crb.B.cr_case.B.c_params in
          if pa <> pb then push (id ^ ": case parameters differ");
          let sa = seeds_of cra and sb = seeds_of crb in
          if sa <> sb then
            push
              (Printf.sprintf "%s: tie seeds differ (%s vs %s)" id
                 (seeds_str sa) (seeds_str sb)))
    a.B.bs_results;
  match List.rev !errs with
  | [] -> Ok ()
  | es -> Error (String.concat "; " es)

let diff_bench ~threshold_pct a b =
  let matched, only_baseline =
    List.fold_left
      (fun (m, o) cra ->
        let id = cra.B.cr_case.B.c_id in
        match find_case b id with
        | Some crb -> (case_delta ~threshold_pct cra crb :: m, o)
        | None -> (m, id :: o))
      ([], []) a.B.bs_results
  in
  let only_fresh =
    List.filter_map
      (fun crb ->
        let id = crb.B.cr_case.B.c_id in
        match find_case a id with None -> Some id | Some _ -> None)
      b.B.bs_results
  in
  {
    rd_mode = `Bench;
    rd_threshold_pct = threshold_pct;
    rd_cases = List.rev matched;
    rd_only_baseline = List.rev only_baseline;
    rd_only_fresh = only_fresh;
    rd_stages = [];
    rd_patterns = [];
    rd_alerts = [];
  }

(* --- trace mode --- *)

(* Per (protocol, stage) summaries, straight from the analyzer's fold of
   the runtime's stage stamps. *)
let stage_rows a =
  List.concat_map
    (fun (protocol, rows) -> List.map (fun s -> ((protocol, s.Stats.sm_name), s)) rows)
    (Analyze.stages a)

let stage_rank stage =
  Option.value ~default:max_int
    (List.find_index (String.equal stage) Dsmpm2_core.Instrument.stages)

let diff_stages ~threshold_pct base fresh =
  let tb = stage_rows base and tf = stage_rows fresh in
  List.sort_uniq
    (fun (pa, sa) (pb, sb) -> compare (pa, stage_rank sa, sa) (pb, stage_rank sb, sb))
    (List.map fst tb @ List.map fst tf)
  |> List.map (fun ((protocol, stage) as key) ->
         let stats rows =
           match List.assoc_opt key rows with
           | None -> (0., 0., 0)
           | Some s ->
               ( Time.to_us s.Stats.sm_mean,
                 Time.to_us s.Stats.sm_p90,
                 s.Stats.sm_samples )
         in
         let bm, bp90, bn = stats tb and fm, fp90, fn = stats tf in
         let delta = fm -. bm in
         let pct = pct_of ~base:bm delta in
         {
           sd_protocol = protocol;
           sd_stage = stage;
           sd_base_mean_us = bm;
           sd_fresh_mean_us = fm;
           sd_base_p90_us = bp90;
           sd_fresh_p90_us = fp90;
           sd_base_samples = bn;
           sd_fresh_samples = fn;
           sd_pct = pct;
           (* No repeat spread in a single trace, so the threshold alone
              separates signal from float dust; one-sided stages are
              reported but never gate. *)
           sd_significant =
             bn > 0 && fn > 0
             && clears ~threshold_pct ~noise:0. ~base:bm delta;
           sd_direction = direction_of delta;
         })

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

let diff_trace ~threshold_pct base fresh =
  {
    rd_mode = `Trace;
    rd_threshold_pct = threshold_pct;
    rd_cases = [];
    rd_only_baseline = [];
    rd_only_fresh = [];
    rd_stages = diff_stages ~threshold_pct base fresh;
    rd_patterns = diff_patterns base fresh;
    rd_alerts = diff_alerts base fresh;
  }

(* --- entry point --- *)

let diff ?(threshold_pct = default_threshold_pct) ?(force = false) ~baseline
    ~fresh () =
  let checked compat result =
    if force then Ok result
    else
      match compat with
      | Ok () -> Ok result
      | Error m ->
          Error
            (Printf.sprintf "refusing apples-to-oranges comparison: %s" m)
  in
  match (baseline, fresh) with
  | Bench a, Bench b ->
      checked (bench_compat a b) (diff_bench ~threshold_pct a b)
  | Run (ma, aa), Run (mb, ab) ->
      checked
        (Run_meta.compatible ~baseline:ma ~fresh:mb)
        (diff_trace ~threshold_pct aa ab)
  | Bench _, Run _ | Run _, Bench _ ->
      Error "cannot compare a macro-bench snapshot with a trace dump"

(* --- verdict --- *)

let time_delta cd = List.find_opt (fun m -> m.md_metric = "time_us") cd.cd_metrics

(* The gated metrics: the simulated clock, and the engine events executed —
   the deterministic count of what simulating the case costs the host. *)
let gated = [ "time_us"; "events" ]

let gate_cases dir t =
  List.concat_map
    (fun cd ->
      List.filter_map
        (fun m -> if List.mem m.md_metric gated && m.md_significant && m.md_direction = dir then Some (cd, m) else None)
        cd.cd_metrics)
    t.rd_cases

let gate_stages dir t =
  List.filter
    (fun sd -> sd.sd_significant && sd.sd_direction = dir)
    t.rd_stages

let describe dir t =
  List.map
    (fun (cd, m) ->
      let name, u = if m.md_metric = "time_us" then ("time", "us") else (m.md_metric, "") in
      Printf.sprintf "%s: %s %.1f%s -> %.1f%s (%+.1f%%, noise ±%.1f)" cd.cd_id name
        m.md_base u m.md_fresh u m.md_pct m.md_noise)
    (gate_cases dir t)
  @ List.map
      (fun sd ->
        Printf.sprintf "%s/%s: stage mean %.1fus -> %.1fus (%+.1f%%)"
          sd.sd_protocol sd.sd_stage sd.sd_base_mean_us sd.sd_fresh_mean_us
          sd.sd_pct)
      (gate_stages dir t)

let regressions t = describe Worse t
let improvements t = describe Better t
let significant_regression t = regressions t <> []

(* --- rendering --- *)

let mode_str = function `Bench -> "macro-bench" | `Trace -> "trace"

let verdict_str m =
  if not m.md_significant then "ok"
  else match m.md_direction with
    | Worse -> "REGRESSED"
    | Better -> "improved"
    | Same -> "ok"

let alert_note al =
  if al.al_base = 0 then "new"
  else if al.al_fresh = 0 then "vanished"
  else Printf.sprintf "%+d" (al.al_fresh - al.al_base)

let summary_line t =
  let r = List.length (regressions t)
  and i = List.length (improvements t) in
  if r > 0 then
    Printf.sprintf "%d significant regression%s, %d improvement%s" r
      (if r = 1 then "" else "s")
      i
      (if i = 1 then "" else "s")
  else if i > 0 then
    Printf.sprintf "no regressions, %d significant improvement%s" i
      (if i = 1 then "" else "s")
  else "no significant change"

let pp_text ppf t =
  Format.fprintf ppf "run diff: %s mode, threshold %.1f%%%s@."
    (mode_str t.rd_mode) t.rd_threshold_pct
    (match t.rd_mode with
    | `Bench -> Printf.sprintf " + %.0f sigma seed noise" noise_sigma
    | `Trace -> "");
  if t.rd_cases <> [] then begin
    Format.fprintf ppf "%-38s %12s %12s %9s  %s@." "case" "base(us)"
      "fresh(us)" "time Δ" "verdict";
    List.iter
      (fun cd ->
        (match time_delta cd with
        | Some m ->
            Format.fprintf ppf "%-38s %12.1f %12.1f %+8.1f%%  %s@." cd.cd_id
              m.md_base m.md_fresh m.md_pct (verdict_str m)
        | None -> Format.fprintf ppf "%-38s (no time metric)@." cd.cd_id);
        List.iter
          (fun m ->
            if m.md_significant && m.md_metric <> "time_us" then
              Format.fprintf ppf "    ! %-14s %.1f -> %.1f (%+.1f%%, noise ±%.1f)@."
                m.md_metric m.md_base m.md_fresh m.md_pct m.md_noise)
          cd.cd_metrics)
      t.rd_cases
  end;
  if t.rd_only_baseline <> [] then
    Format.fprintf ppf "only in baseline: %s@."
      (String.concat ", " t.rd_only_baseline);
  if t.rd_only_fresh <> [] then
    Format.fprintf ppf "only in fresh: %s@." (String.concat ", " t.rd_only_fresh);
  if t.rd_stages <> [] then begin
    Format.fprintf ppf "critical-path stages (mean us):@.";
    List.iter
      (fun sd ->
        Format.fprintf ppf "  %-28s %10.1f -> %-10.1f %+7.1f%%  p90 %.1f -> %.1f (%d/%d spans)%s@."
          (sd.sd_protocol ^ "/" ^ sd.sd_stage)
          sd.sd_base_mean_us sd.sd_fresh_mean_us sd.sd_pct sd.sd_base_p90_us
          sd.sd_fresh_p90_us sd.sd_base_samples sd.sd_fresh_samples
          (if sd.sd_significant then
             match sd.sd_direction with
             | Worse -> "  REGRESSED"
             | Better -> "  improved"
             | Same -> ""
           else ""))
      t.rd_stages
  end;
  if t.rd_patterns <> [] then begin
    Format.fprintf ppf "page sharing-pattern drift:@.";
    List.iter
      (fun pd ->
        Format.fprintf ppf "  page %d: %s -> %s@." pd.pd_page pd.pd_base
          pd.pd_fresh)
      t.rd_patterns
  end;
  if t.rd_alerts <> [] then begin
    Format.fprintf ppf "watchdog alerts:@.";
    List.iter
      (fun al ->
        Format.fprintf ppf "  %-8s %-20s %d -> %d (%s)@."
          (Trace.severity_to_string al.al_severity)
          al.al_kind al.al_base al.al_fresh (alert_note al))
      t.rd_alerts
  end;
  Format.fprintf ppf "verdict: %s@." (summary_line t)

let pp_markdown ppf t =
  Format.fprintf ppf "## Run diff (%s mode, threshold %.1f%%)@.@."
    (mode_str t.rd_mode) t.rd_threshold_pct;
  if t.rd_cases <> [] then begin
    Format.fprintf ppf "| case | base time (us) | fresh time (us) | Δ | verdict |@.";
    Format.fprintf ppf "|---|---:|---:|---:|---|@.";
    List.iter
      (fun cd ->
        match time_delta cd with
        | Some m ->
            Format.fprintf ppf "| %s | %.1f | %.1f | %+.1f%% | %s |@." cd.cd_id
              m.md_base m.md_fresh m.md_pct (verdict_str m)
        | None -> ())
      t.rd_cases;
    Format.fprintf ppf "@.";
    let extras =
      List.concat_map
        (fun cd ->
          List.filter_map
            (fun m ->
              if m.md_significant && m.md_metric <> "time_us" then
                Some (cd.cd_id, m)
              else None)
            cd.cd_metrics)
        t.rd_cases
    in
    if extras <> [] then begin
      Format.fprintf ppf "Other significant metric shifts:@.@.";
      List.iter
        (fun (id, m) ->
          Format.fprintf ppf "- `%s` %s: %.1f -> %.1f (%+.1f%%)@." id
            m.md_metric m.md_base m.md_fresh m.md_pct)
        extras;
      Format.fprintf ppf "@."
    end
  end;
  if t.rd_only_baseline <> [] || t.rd_only_fresh <> [] then begin
    List.iter
      (fun id -> Format.fprintf ppf "- only in baseline: `%s`@." id)
      t.rd_only_baseline;
    List.iter
      (fun id -> Format.fprintf ppf "- only in fresh: `%s`@." id)
      t.rd_only_fresh;
    Format.fprintf ppf "@."
  end;
  if t.rd_stages <> [] then begin
    Format.fprintf ppf "| protocol/stage | base mean (us) | fresh mean (us) | Δ | spans |@.";
    Format.fprintf ppf "|---|---:|---:|---:|---|@.";
    List.iter
      (fun sd ->
        Format.fprintf ppf "| %s/%s | %.1f | %.1f | %+.1f%% | %d/%d |@."
          sd.sd_protocol sd.sd_stage sd.sd_base_mean_us sd.sd_fresh_mean_us
          sd.sd_pct sd.sd_base_samples sd.sd_fresh_samples)
      t.rd_stages;
    Format.fprintf ppf "@."
  end;
  if t.rd_patterns <> [] then begin
    Format.fprintf ppf "Pattern drift:@.@.";
    List.iter
      (fun pd ->
        Format.fprintf ppf "- page %d: %s -> %s@." pd.pd_page pd.pd_base
          pd.pd_fresh)
      t.rd_patterns;
    Format.fprintf ppf "@."
  end;
  if t.rd_alerts <> [] then begin
    Format.fprintf ppf "Alert changes:@.@.";
    List.iter
      (fun al ->
        Format.fprintf ppf "- **%s** `%s`: %d -> %d (%s)@."
          (Trace.severity_to_string al.al_severity)
          al.al_kind al.al_base al.al_fresh (alert_note al))
      t.rd_alerts;
    Format.fprintf ppf "@."
  end;
  Format.fprintf ppf "**Verdict:** %s@." (summary_line t)

(* --- JSON --- *)

let direction_to_string = function
  | Better -> "better"
  | Worse -> "worse"
  | Same -> "same"

let metric_delta_to_json m =
  Json.Obj
    [
      ("metric", Json.String m.md_metric);
      ("base", Json.Float m.md_base);
      ("fresh", Json.Float m.md_fresh);
      ("delta", Json.Float m.md_delta);
      ("pct", Json.Float m.md_pct);
      ("noise", Json.Float m.md_noise);
      ("significant", Json.Bool m.md_significant);
      ("direction", Json.String (direction_to_string m.md_direction));
    ]

let stage_delta_to_json sd =
  Json.Obj
    [
      ("protocol", Json.String sd.sd_protocol);
      ("stage", Json.String sd.sd_stage);
      ("base_mean_us", Json.Float sd.sd_base_mean_us);
      ("fresh_mean_us", Json.Float sd.sd_fresh_mean_us);
      ("base_p90_us", Json.Float sd.sd_base_p90_us);
      ("fresh_p90_us", Json.Float sd.sd_fresh_p90_us);
      ("base_samples", Json.Int sd.sd_base_samples);
      ("fresh_samples", Json.Int sd.sd_fresh_samples);
      ("pct", Json.Float sd.sd_pct);
      ("significant", Json.Bool sd.sd_significant);
      ("direction", Json.String (direction_to_string sd.sd_direction));
    ]

let to_json t =
  Json.Obj
    [
      ("mode", Json.String (mode_str t.rd_mode));
      ("threshold_pct", Json.Float t.rd_threshold_pct);
      ( "cases",
        Json.List
          (List.map
             (fun cd ->
               Json.Obj
                 [
                   ("id", Json.String cd.cd_id);
                   ( "metrics",
                     Json.List (List.map metric_delta_to_json cd.cd_metrics) );
                 ])
             t.rd_cases) );
      ( "only_baseline",
        Json.List (List.map (fun s -> Json.String s) t.rd_only_baseline) );
      ( "only_fresh",
        Json.List (List.map (fun s -> Json.String s) t.rd_only_fresh) );
      ("stages", Json.List (List.map stage_delta_to_json t.rd_stages));
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
                   ( "severity",
                     Json.String (Trace.severity_to_string al.al_severity) );
                   ("kind", Json.String al.al_kind);
                   ("base", Json.Int al.al_base);
                   ("fresh", Json.Int al.al_fresh);
                 ])
             t.rd_alerts) );
      ("regressions", Json.List (List.map (fun s -> Json.String s) (regressions t)));
      ( "improvements",
        Json.List (List.map (fun s -> Json.String s) (improvements t)) );
      ("significant_regression", Json.Bool (significant_regression t));
    ]
