open Dsmpm2_sim
open Dsmpm2_pm2

(* --- sharing patterns --- *)

type pattern =
  | Private
  | Read_mostly
  | Single_writer
  | Producer_consumer
  | Migratory
  | False_sharing
  | Mixed

let pattern_to_string = function
  | Private -> "private"
  | Read_mostly -> "read-mostly"
  | Single_writer -> "single-writer"
  | Producer_consumer -> "producer-consumer"
  | Migratory -> "migratory"
  | False_sharing -> "false-sharing"
  | Mixed -> "mixed"

(* Pattern -> built-in protocol, following the paper's Table 2 roles:
   migratory data wants the accessing thread moved to it; false sharing
   wants a multiple-writer diff protocol; read-mostly and producer-consumer
   pages want updates pushed instead of replicas invalidated; a single
   writer with a private working set fits eager release consistency. *)
let recommended_protocol = function
  | Migratory -> Some "migrate_thread"
  | False_sharing -> Some "hbrc_mw"
  | Read_mostly -> Some "write_update"
  | Producer_consumer -> Some "write_update"
  | Single_writer -> Some "erc_sw"
  | Private | Mixed -> None

type profile = {
  pr_page : int;
  pr_protocol : string;
  pr_pattern : pattern;
  pr_read_faults : int;
  pr_write_faults : int;
  pr_readers : int list;
  pr_writers : int list;
  pr_diff_senders : int list;
  pr_transfers : int;
  pr_bytes : int;
  pr_invalidations : int;
}

type advice = {
  av_page : int;
  av_pattern : pattern;
  av_current : string;
  av_recommended : string;
}

(* The advisor's one rule: a page deserves advice when the protocol its
   pattern recommends differs from the one it runs.  Returns the matched
   option itself, so the per-tick drain allocates nothing here. *)
let recommendation pattern ~protocol =
  match recommended_protocol pattern with
  | Some r as advised when not (String.equal r protocol) -> advised
  | _ -> None

let advise p =
  Option.map
    (fun r ->
      {
        av_page = p.pr_page;
        av_pattern = p.pr_pattern;
        av_current = p.pr_protocol;
        av_recommended = r;
      })
    (recommendation p.pr_pattern ~protocol:p.pr_protocol)

(* --- the streaming classifier --- *)

module Pages = struct
  (* The accumulator keeps exactly the evidence the post-mortem heuristic
     needs, in streaming form: reader/writer/differ node {e sets} instead
     of occurrence lists, and the write sequence reduced to its last
     writer plus a running handoff count — a transition [n <> last] in the
     chronological write sequence is counted the moment it happens, which
     is precisely what replaying the sequence afterwards would count.  The
     size of the reader/writer union is kept as the sets grow, so
     classifying a page reads counters and builds nothing. *)
  type acc = {
    mutable c_protocol : string;
    mutable c_read_faults : int;
    mutable c_write_faults : int;
    c_readers : unit Int_table.t;
    c_writers : unit Int_table.t;
    mutable c_accessors : int; (* |readers| + |writers \ readers| *)
    c_differs : unit Int_table.t;
    mutable c_diffs : int; (* diffs received (one per Diff per page) *)
    mutable c_transfers : int;
    mutable c_send_bytes : int;
    mutable c_diff_bytes : int;
    mutable c_invalidations : int;
    mutable c_last_writer : int; (* -1 before the first write *)
    mutable c_handoffs : int; (* writer changes in the chronological order *)
  }

  type t = { tbl : acc Int_table.t }

  let create () = { tbl = Int_table.create 64 }

  let acc t page =
    match Int_table.find t.tbl page with
    | a -> a
    | exception Not_found ->
        let a =
          {
            c_protocol = "?";
            c_read_faults = 0;
            c_write_faults = 0;
            c_readers = Int_table.create 4;
            c_writers = Int_table.create 4;
            c_accessors = 0;
            c_differs = Int_table.create 4;
            c_diffs = 0;
            c_transfers = 0;
            c_send_bytes = 0;
            c_diff_bytes = 0;
            c_invalidations = 0;
            c_last_writer = -1;
            c_handoffs = 0;
          }
        in
        Int_table.add t.tbl page a;
        a

  let note_read a node =
    if not (Int_table.mem a.c_readers node) then begin
      if not (Int_table.mem a.c_writers node) then
        a.c_accessors <- a.c_accessors + 1;
      Int_table.add a.c_readers node ()
    end

  let note_write a node =
    if not (Int_table.mem a.c_writers node) then begin
      if not (Int_table.mem a.c_readers node) then
        a.c_accessors <- a.c_accessors + 1;
      Int_table.add a.c_writers node ()
    end;
    if a.c_last_writer >= 0 && node <> a.c_last_writer then
      a.c_handoffs <- a.c_handoffs + 1;
    a.c_last_writer <- node

  let feed t ev =
    match ev with
    | Trace.Fault { node; page; protocol; mode } ->
        let a = acc t page in
        a.c_protocol <- protocol;
        if mode = "write" then begin
          a.c_write_faults <- a.c_write_faults + 1;
          note_write a node
        end
        else begin
          a.c_read_faults <- a.c_read_faults + 1;
          note_read a node
        end
    | Trace.Page_send { page; protocol; bytes; _ } ->
        let a = acc t page in
        a.c_protocol <- protocol;
        a.c_transfers <- a.c_transfers + 1;
        a.c_send_bytes <- a.c_send_bytes + bytes
    | Trace.Page_install { page; protocol; _ } ->
        (* No classification evidence, but the protocol name is fresher. *)
        (acc t page).c_protocol <- protocol
    | Trace.Invalidate { page; protocol; _ } ->
        let a = acc t page in
        a.c_protocol <- protocol;
        a.c_invalidations <- a.c_invalidations + 1
    | Trace.Diff { page_list; bytes; sender; protocol; _ } ->
        let n = max 1 (List.length page_list) in
        List.iter
          (fun page ->
            let a = acc t page in
            a.c_protocol <- protocol;
            Int_table.replace a.c_differs sender ();
            a.c_diffs <- a.c_diffs + 1;
            a.c_diff_bytes <- a.c_diff_bytes + (bytes / n);
            note_write a sender)
          page_list
    | _ -> ()

  (* The classification heuristic, identical to the post-mortem analyzer's
     (in evidence-strength order):
     - one accessing node: private;
     - diffs from >= 2 nodes: tolerated false sharing;
     - no writers: read-mostly replication;
     - single writer with remote readers that repeatedly re-fetch:
       producer-consumer; single writer otherwise;
     - >= 2 writers: migratory when write access demonstrably hands off
       between nodes at least twice, otherwise mixed.
     Allocation-free: with exactly one writer, that writer is the last one,
     and some reader is remote unless the only reader is the writer. *)
  let classify_acc a =
    if a.c_accessors <= 1 then Private
    else if Int_table.length a.c_differs >= 2 then False_sharing
    else
      match Int_table.length a.c_writers with
      | 0 -> Read_mostly
      | 1 ->
          let w = a.c_last_writer in
          let remote_readers =
            match Int_table.length a.c_readers with
            | 0 -> false
            | 1 -> not (Int_table.mem a.c_readers w)
            | _ -> true
          in
          let produces = a.c_write_faults + a.c_diffs in
          if remote_readers && produces >= 2 && a.c_read_faults >= 2 then
            Producer_consumer
          else Single_writer
      | _ -> if a.c_handoffs >= 2 then Migratory else Mixed

  let sorted_keys tbl =
    Int_table.fold (fun k () acc -> k :: acc) tbl [] |> List.sort compare

  let profile_acc page a =
    {
      pr_page = page;
      pr_protocol = a.c_protocol;
      pr_pattern = classify_acc a;
      pr_read_faults = a.c_read_faults;
      pr_write_faults = a.c_write_faults;
      pr_readers = sorted_keys a.c_readers;
      pr_writers = sorted_keys a.c_writers;
      pr_diff_senders = sorted_keys a.c_differs;
      pr_transfers = a.c_transfers;
      pr_bytes = a.c_send_bytes + a.c_diff_bytes;
      pr_invalidations = a.c_invalidations;
    }

  let profile t page =
    Option.map (profile_acc page) (Int_table.find_opt t.tbl page)

  let profiles t =
    Int_table.fold (fun page a acc -> profile_acc page a :: acc) t.tbl []
    |> List.sort (fun a b ->
           compare
             (b.pr_read_faults + b.pr_write_faults, b.pr_bytes, a.pr_page)
             (a.pr_read_faults + a.pr_write_faults, a.pr_bytes, b.pr_page))
end

(* --- the attached engine --- *)

type config = {
  thrash_window : int;
  thrash_span : Time.t;
  advice_min_faults : int;
}

let default_config =
  { thrash_window = 8; thrash_span = Time.of_us 300.; advice_min_faults = 4 }

type thrash_report = {
  th_page : int;
  th_count : int;
  th_nodes : int list;
  th_span : Time.t;
}

type interval = {
  iv_installs : (int * int) list;
  iv_reclassified : int;
  iv_thrash : thrash_report list;
  iv_advice : advice list;
}

(* The last [thrash_window] installs of one page, as a fixed ring of
   (at, node) pairs: [w_next] is the slot the next install overwrites,
   which once the ring is full holds the oldest install. *)
type window = {
  w_at : Time.t array;
  w_node : int array;
  mutable w_next : int;
  mutable w_len : int;
}

type t = {
  rt : Runtime.t;
  cfg : config;
  pgs : Pages.t;
  mutable seen : int; (* events observed, pre-sampling *)
  class_cache : pattern Int_table.t; (* last known pattern per page *)
  mutable reclass_total : int;
  windows : window Int_table.t; (* page -> its recent installs *)
  thrash_last : Time.t Int_table.t; (* page -> last thrash report *)
  mutable pending_thrash : thrash_report list; (* newest first *)
  advised : string Int_table.t; (* page -> recommendation issued *)
  interval_touched : unit Int_table.t;
  interval_installs : int Int_table.t;
  mutable interval_count : int;
}

(* Thrashing: the same windowed ping-pong detector the watchdog used to run
   over stored trace events, now fed from the live stream — [thrash_window]
   installs of one page within [thrash_span] across >= 2 nodes, re-reported
   only after a quiet period longer than the span. *)
let window t page =
  match Int_table.find t.windows page with
  | w -> w
  | exception Not_found ->
      let n = max 1 t.cfg.thrash_window in
      let w =
        { w_at = Array.make n Time.zero; w_node = Array.make n 0; w_next = 0; w_len = 0 }
      in
      Int_table.add t.windows page w;
      w

let rec mixed_nodes nodes i =
  i < Array.length nodes && (nodes.(i) <> nodes.(0) || mixed_nodes nodes (i + 1))

let note_install t ~page ~node at =
  (match Int_table.find t.interval_installs page with
  | c -> Int_table.replace t.interval_installs page (c + 1)
  | exception Not_found -> Int_table.add t.interval_installs page 1);
  let win = window t page in
  let n = Array.length win.w_at in
  win.w_at.(win.w_next) <- at;
  win.w_node.(win.w_next) <- node;
  win.w_next <- (win.w_next + 1) mod n;
  if win.w_len < n then win.w_len <- win.w_len + 1;
  if win.w_len >= t.cfg.thrash_window then begin
    (* Full ring: [w_next] now indexes the oldest install. *)
    let span = Time.(at - win.w_at.(win.w_next)) in
    let quiet_enough =
      match Int_table.find t.thrash_last page with
      | last -> Time.(at - last) > t.cfg.thrash_span
      | exception Not_found -> true
    in
    if span <= t.cfg.thrash_span && mixed_nodes win.w_node 1 && quiet_enough
    then begin
      Int_table.replace t.thrash_last page at;
      t.pending_thrash <-
        {
          th_page = page;
          th_count = win.w_len;
          th_nodes = List.sort_uniq compare (Array.to_list win.w_node);
          th_span = span;
        }
        :: t.pending_thrash
    end
  end

let touch t page = Int_table.replace t.interval_touched page ()

(* The observer callback: pure bookkeeping, O(1) amortized per event.  No
   engine interaction, no shared RNG — attaching telemetry cannot perturb a
   seeded schedule. *)
let on_event t ~at ~span:_ ev =
  t.seen <- t.seen + 1;
  Pages.feed t.pgs ev;
  match ev with
  | Trace.Fault { page; _ } -> touch t page
  | Trace.Page_install { node; page; _ } ->
      touch t page;
      note_install t ~page ~node at
  | Trace.Page_send { page; _ } | Trace.Invalidate { page; _ } ->
      touch t page
  | Trace.Diff { page_list; _ } -> List.iter (touch t) page_list
  | _ -> ()

(* --- attachment --- *)

type Runtime.attachment += Tele of t

let attach ?(config = default_config) rt =
  (match rt.Runtime.telemetry with
  | Some _ -> invalid_arg "Telemetry.attach: telemetry is already attached"
  | None -> ());
  let t =
    {
      rt;
      cfg = config;
      pgs = Pages.create ();
      seen = 0;
      class_cache = Int_table.create 64;
      reclass_total = 0;
      windows = Int_table.create 64;
      thrash_last = Int_table.create 16;
      pending_thrash = [];
      advised = Int_table.create 16;
      interval_touched = Int_table.create 64;
      interval_installs = Int_table.create 64;
      interval_count = 0;
    }
  in
  Trace.set_observer (Monitor.trace rt) (on_event t);
  rt.Runtime.telemetry <- Some (Tele t);
  t

let find rt =
  match rt.Runtime.telemetry with Some (Tele t) -> Some t | _ -> None

let events_seen t = t.seen
let pages t = t.pgs

(* Fault counts and latencies come from the runtime's fault cells: each
   (node, protocol) cell counts its faults ({!Instrument.faults}) and times
   them from detection to resumed access ([stage_total]). *)
let fold_faults t f acc =
  let cells = t.rt.Runtime.cells in
  let acc = ref acc in
  Array.iteri
    (fun p row ->
      Array.iteri
        (fun node c ->
          let n = Instrument.faults c in
          if n > 0 then
            acc := f ~protocol:(cells.Instrument.protocol_name p) ~node n !acc)
        row)
    cells.Instrument.protos;
  !acc

let protocols t =
  fold_faults t
    (fun ~protocol ~node:_ n acc ->
      let prev = Option.value (List.assoc_opt protocol acc) ~default:0 in
      (protocol, prev + n) :: List.remove_assoc protocol acc)
    []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let node_faults t =
  let counts = Array.make (Runtime.nodes t.rt) 0 in
  fold_faults t
    (fun ~protocol:_ ~node n () -> counts.(node) <- counts.(node) + n)
    ();
  counts

let fault_percentiles = [ ("p50", 50.); ("p90", 90.); ("p99", 99.); ("p999", 99.9) ]

let fault_latency t =
  let stats = t.rt.Runtime.stats in
  ( (Stats.span_summary stats Instrument.stage_total).Stats.sm_samples,
    List.map
      (fun (name, p) ->
        (name, Time.to_us (Stats.span_percentile stats Instrument.stage_total p)))
      fault_percentiles )

(* --- interval drain --- *)

let advised_as t page r =
  match Int_table.find t.advised page with
  | prev -> String.equal prev r
  | exception Not_found -> false

let end_interval t =
  t.interval_count <- t.interval_count + 1;
  (* Classification churn and fresh advice, over the pages touched this
     interval only. *)
  let reclass = ref 0 in
  let fresh_advice = ref [] in
  Int_table.iter
    (fun page () ->
      match Int_table.find t.pgs.Pages.tbl page with
      | exception Not_found -> ()
      | a ->
          let pattern = Pages.classify_acc a in
          (match Int_table.find t.class_cache page with
          | old ->
              if old <> pattern then begin
                incr reclass;
                Int_table.replace t.class_cache page pattern
              end
          | exception Not_found -> Int_table.add t.class_cache page pattern);
          if a.Pages.c_read_faults + a.Pages.c_write_faults >= t.cfg.advice_min_faults
          then
            match recommendation pattern ~protocol:a.Pages.c_protocol with
            | Some r when not (advised_as t page r) ->
                Int_table.replace t.advised page r;
                fresh_advice :=
                  {
                    av_page = page;
                    av_pattern = pattern;
                    av_current = a.Pages.c_protocol;
                    av_recommended = r;
                  }
                  :: !fresh_advice
            | _ -> ())
    t.interval_touched;
  t.reclass_total <- t.reclass_total + !reclass;
  let installs =
    Int_table.fold (fun p c acc -> (p, c) :: acc) t.interval_installs []
    |> List.sort (fun (pa, ca) (pb, cb) ->
           let c = compare cb ca in
           if c <> 0 then c else compare pa pb)
  in
  let iv =
    {
      iv_installs = installs;
      iv_reclassified = !reclass;
      iv_thrash = List.rev t.pending_thrash;
      iv_advice =
        List.sort (fun a b -> compare a.av_page b.av_page) !fresh_advice;
    }
  in
  t.pending_thrash <- [];
  Int_table.reset t.interval_touched;
  Int_table.reset t.interval_installs;
  iv

(* --- snapshots --- *)

let advice_list t =
  Int_table.fold
    (fun page r acc ->
      match Pages.profile t.pgs page with
      | Some pr ->
          {
            av_page = page;
            av_pattern = pr.pr_pattern;
            av_current = pr.pr_protocol;
            av_recommended = r;
          }
          :: acc
      | None -> acc)
    t.advised []
  |> List.sort (fun a b -> compare a.av_page b.av_page)

let profile_to_json p =
  Json.Obj
    [
      ("page", Json.Int p.pr_page);
      ("protocol", Json.String p.pr_protocol);
      ("pattern", Json.String (pattern_to_string p.pr_pattern));
      ("read_faults", Json.Int p.pr_read_faults);
      ("write_faults", Json.Int p.pr_write_faults);
      ("readers", Json.List (List.map (fun n -> Json.Int n) p.pr_readers));
      ("writers", Json.List (List.map (fun n -> Json.Int n) p.pr_writers));
      ( "diff_senders",
        Json.List (List.map (fun n -> Json.Int n) p.pr_diff_senders) );
      ("transfers", Json.Int p.pr_transfers);
      ("bytes", Json.Int p.pr_bytes);
      ("invalidations", Json.Int p.pr_invalidations);
    ]

let advice_to_json a =
  Json.Obj
    [
      ("page", Json.Int a.av_page);
      ("pattern", Json.String (pattern_to_string a.av_pattern));
      ("current", Json.String a.av_current);
      ("recommended", Json.String a.av_recommended);
    ]

let to_json ?meta t =
  let rt = t.rt in
  let tr = Monitor.trace rt in
  let meta = match meta with Some m -> m | None -> Monitor.run_meta rt in
  Json.Obj
    [
      ("meta", Run_meta.to_json meta);
      ("sim_time_us", Json.Float (Pm2.now_us rt.Runtime.pm2));
      ("events_seen", Json.Int t.seen);
      ("intervals", Json.Int t.interval_count);
      ("reclassifications", Json.Int t.reclass_total);
      ( "node_faults",
        Json.List
          (Array.to_list (Array.map (fun n -> Json.Int n) (node_faults t))) );
      ( "protocols",
        Json.List
          (List.map
             (fun (name, faults) ->
               Json.Obj
                 [ ("protocol", Json.String name); ("faults", Json.Int faults) ])
             (protocols t)) );
      ( "fault_latency_us",
        let count, pcts = fault_latency t in
        Json.Obj
          (("count", Json.Int count)
          :: List.map (fun (name, us) -> (name, Json.Float us)) pcts) );
      ("pages", Json.List (List.map profile_to_json (Pages.profiles t.pgs)));
      ("advice", Json.List (List.map advice_to_json (advice_list t)));
      ( "trace",
        Json.Obj
          [
            ("recorded", Json.Int (Trace.recorded tr));
            ("stored", Json.Int (Trace.length tr));
            ("evicted", Json.Int (Trace.evicted tr));
            ( "capacity",
              match Trace.capacity tr with
              | Some c -> Json.Int c
              | None -> Json.Null );
            ("sampled_out", Json.Int (Trace.sampled_out tr));
          ] );
    ]

let pp_top ?(top = 10) ppf t =
  let rt = t.rt in
  let tr = Monitor.trace rt in
  Format.fprintf ppf "t=%10.1f us  events=%-9d pages=%-5d reclass=%d@."
    (Pm2.now_us rt.Runtime.pm2) t.seen
    (Int_table.length t.pgs.Pages.tbl)
    t.reclass_total;
  let count, pcts = fault_latency t in
  if count > 0 then begin
    Format.fprintf ppf "cluster faults: %d done" count;
    List.iter (fun (name, us) -> Format.fprintf ppf "  %s %8.1f" name us) pcts;
    Format.fprintf ppf " us@."
  end;
  List.iter
    (fun (name, faults) -> Format.fprintf ppf "  %-16s faults=%d@." name faults)
    (protocols t);
  Format.fprintf ppf "node faults:";
  Array.iteri (fun nd f -> Format.fprintf ppf " %d:%d" nd f) (node_faults t);
  Format.fprintf ppf "@.";
  let hot = Pages.profiles t.pgs in
  if hot <> [] then begin
    Format.fprintf ppf "hot pages:@.";
    List.iteri
      (fun i p ->
        if i < top then
          Format.fprintf ppf
            "  page %-5d %-17s rf=%-6d wf=%-6d xfers=%-6d bytes=%-9d%s@."
            p.pr_page
            (pattern_to_string p.pr_pattern)
            p.pr_read_faults p.pr_write_faults p.pr_transfers p.pr_bytes
            (match advise p with
            | Some a -> " -> " ^ a.av_recommended
            | None -> ""))
      hot
  end;
  Format.fprintf ppf "trace: recorded=%d stored=%d evicted=%d sampled_out=%d%s@."
    (Trace.recorded tr) (Trace.length tr) (Trace.evicted tr)
    (Trace.sampled_out tr)
    (match Trace.capacity tr with
    | Some c -> Printf.sprintf " cap=%d" c
    | None -> "")
