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

(* --- the streaming classifier --- *)

module Pages = struct
  (* The accumulator keeps exactly the evidence the post-mortem heuristic
     needs, in streaming form: reader/writer/differ node {e sets} instead
     of occurrence lists, and the write sequence reduced to its last
     writer plus a running handoff count — a transition [n <> last] in the
     chronological write sequence is counted the moment it happens, which
     is precisely what replaying the sequence afterwards would count.  The
     sets are one flag byte per node, and each set's size (and the size of
     the reader/writer union) is kept as the sets grow, so classifying a
     page reads counters and builds nothing. *)
  type acc = {
    mutable c_protocol : string;
    mutable c_read_faults : int;
    mutable c_write_faults : int;
    mutable c_nodes : Bytes.t; (* by node: [reader] lor [writer] lor [differ] *)
    mutable c_readers : int; (* nodes flagged [reader] *)
    mutable c_writers : int; (* nodes flagged [writer] *)
    mutable c_differs : int; (* nodes flagged [differ] *)
    mutable c_accessors : int; (* |readers| + |writers \ readers| *)
    mutable c_diffs : int; (* diffs received (one per Diff per page) *)
    mutable c_transfers : int;
    mutable c_send_bytes : int;
    mutable c_diff_bytes : int;
    mutable c_invalidations : int;
    mutable c_last_writer : int; (* -1 before the first write *)
    mutable c_handoffs : int; (* writer changes in the chronological order *)
  }

  let reader = 1
  let writer = 2
  let differ = 4

  let fresh () =
    {
      c_protocol = "?";
      c_read_faults = 0;
      c_write_faults = 0;
      c_nodes = Bytes.empty;
      c_readers = 0;
      c_writers = 0;
      c_differs = 0;
      c_accessors = 0;
      c_diffs = 0;
      c_transfers = 0;
      c_send_bytes = 0;
      c_diff_bytes = 0;
      c_invalidations = 0;
      c_last_writer = -1;
      c_handoffs = 0;
    }

  (* Pages are dense from 1 ({!Page_table}): the accumulators are an array
     indexed by page, [absent] where no event named the page yet. *)
  type t = { mutable accs : acc array; mutable count : int }

  let absent = fresh ()
  let create () = { accs = [||]; count = 0 }

  let find t page =
    if page >= 0 && page < Array.length t.accs then t.accs.(page) else absent

  let acc t page =
    let a = find t page in
    if a != absent then a
    else begin
      let a = fresh () in
      t.accs <- Dense.ensure t.accs page absent;
      t.accs.(page) <- a;
      t.count <- t.count + 1;
      a
    end

  let flags a node =
    if node < Bytes.length a.c_nodes then Char.code (Bytes.get a.c_nodes node)
    else 0

  let set_flag a node bit =
    let n = Bytes.length a.c_nodes in
    if node >= n then begin
      let grown = Bytes.make (max (2 * n) (node + 1)) '\000' in
      Bytes.blit a.c_nodes 0 grown 0 n;
      a.c_nodes <- grown
    end;
    Bytes.set a.c_nodes node (Char.chr (flags a node lor bit))

  let note_read a node =
    let f = flags a node in
    if f land reader = 0 then begin
      if f land writer = 0 then a.c_accessors <- a.c_accessors + 1;
      a.c_readers <- a.c_readers + 1;
      set_flag a node reader
    end

  let note_write a node =
    let f = flags a node in
    if f land writer = 0 then begin
      if f land reader = 0 then a.c_accessors <- a.c_accessors + 1;
      a.c_writers <- a.c_writers + 1;
      set_flag a node writer
    end;
    if a.c_last_writer >= 0 && node <> a.c_last_writer then
      a.c_handoffs <- a.c_handoffs + 1;
    a.c_last_writer <- node

  let note_differ a node =
    if flags a node land differ = 0 then begin
      a.c_differs <- a.c_differs + 1;
      set_flag a node differ
    end

  (* One Diff names several pages; each is credited an equal [share] of
     its bytes. *)
  let rec feed_diff t ~protocol ~sender ~share = function
    | [] -> ()
    | page :: rest ->
        let a = acc t page in
        a.c_protocol <- protocol;
        note_differ a sender;
        a.c_diffs <- a.c_diffs + 1;
        a.c_diff_bytes <- a.c_diff_bytes + share;
        note_write a sender;
        feed_diff t ~protocol ~sender ~share rest

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
        let share = bytes / max 1 (List.length page_list) in
        feed_diff t ~protocol ~sender ~share page_list
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
    else if a.c_differs >= 2 then False_sharing
    else
      match a.c_writers with
      | 0 -> Read_mostly
      | 1 ->
          let w = a.c_last_writer in
          let remote_readers =
            match a.c_readers with
            | 0 -> false
            | 1 -> flags a w land reader = 0
            | _ -> true
          in
          let produces = a.c_write_faults + a.c_diffs in
          if remote_readers && produces >= 2 && a.c_read_faults >= 2 then
            Producer_consumer
          else Single_writer
      | _ -> if a.c_handoffs >= 2 then Migratory else Mixed

  (* The nodes carrying [bit], ascending. *)
  let nodes_with a bit =
    let l = ref [] in
    for node = Bytes.length a.c_nodes - 1 downto 0 do
      if flags a node land bit <> 0 then l := node :: !l
    done;
    !l

  let profile_acc page a =
    {
      pr_page = page;
      pr_protocol = a.c_protocol;
      pr_pattern = classify_acc a;
      pr_read_faults = a.c_read_faults;
      pr_write_faults = a.c_write_faults;
      pr_readers = nodes_with a reader;
      pr_writers = nodes_with a writer;
      pr_diff_senders = nodes_with a differ;
      pr_transfers = a.c_transfers;
      pr_bytes = a.c_send_bytes + a.c_diff_bytes;
      pr_invalidations = a.c_invalidations;
    }

  let profile t page =
    let a = find t page in
    if a == absent then None else Some (profile_acc page a)

  let profiles t =
    let l = ref [] in
    Array.iteri
      (fun page a -> if a != absent then l := profile_acc page a :: !l)
      t.accs;
    List.sort (fun a b ->
           compare
             (b.pr_read_faults + b.pr_write_faults, b.pr_bytes, a.pr_page)
             (a.pr_read_faults + a.pr_write_faults, a.pr_bytes, b.pr_page))
         !l
end

(* --- the attached engine --- *)

type config = { thrash_window : int; thrash_span : Time.t }

let default_config = { thrash_window = 8; thrash_span = Time.of_us 300. }

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
}

(* What the engine keeps per page.  A page belongs to the interval's
   touched set when its stamp is the current interval, so the set empties
   by moving to the next interval: nothing is cleared.  The page's last
   [thrash_window] installs are a fixed ring of (at, node) pairs:
   [ps_next] is the slot the next install overwrites, which once the ring
   is full holds the oldest install. *)
type page_state = {
  mutable ps_stamp : int; (* the last interval that touched the page *)
  mutable ps_installs : int; (* installs during interval [ps_stamp] *)
  mutable ps_pattern : pattern option; (* last known classification *)
  mutable ps_thrash_last : Time.t option; (* last thrash report *)
  ps_at : Time.t array;
  ps_node : int array;
  mutable ps_next : int;
  mutable ps_len : int;
}

type t = {
  rt : Runtime.t;
  cfg : config;
  pgs : Pages.t;
  mutable seen : int; (* events observed, pre-sampling *)
  mutable states : page_state array; (* by page, [no_state] if untouched *)
  mutable touched : int array; (* the pages touched this interval, a stack *)
  mutable n_touched : int;
  mutable reclass_total : int;
  mutable pending_thrash : thrash_report list; (* newest first *)
  mutable interval_count : int;
}

let new_state n =
  {
    ps_stamp = -1;
    ps_installs = 0;
    ps_pattern = None;
    ps_thrash_last = None;
    ps_at = Array.make n Time.zero;
    ps_node = Array.make n 0;
    ps_next = 0;
    ps_len = 0;
  }

let no_state = new_state 0

(* Marks [page] touched this interval and returns its state. *)
let touch t page =
  let s =
    if page < Array.length t.states && t.states.(page) != no_state then
      t.states.(page)
    else begin
      let s = new_state (max 1 t.cfg.thrash_window) in
      t.states <- Dense.ensure t.states page no_state;
      t.states.(page) <- s;
      s
    end
  in
  if s.ps_stamp <> t.interval_count then begin
    s.ps_stamp <- t.interval_count;
    s.ps_installs <- 0;
    if t.n_touched = Array.length t.touched then t.touched <- Dense.ensure t.touched t.n_touched 0;
    t.touched.(t.n_touched) <- page;
    t.n_touched <- t.n_touched + 1
  end;
  s

let rec touch_all t = function
  | [] -> ()
  | page :: rest ->
      ignore (touch t page);
      touch_all t rest

(* Thrashing: the same windowed ping-pong detector the watchdog used to run
   over stored trace events, now fed from the live stream — [thrash_window]
   installs of one page within [thrash_span] across >= 2 nodes, re-reported
   only after a quiet period longer than the span. *)
let rec mixed_nodes nodes i =
  i < Array.length nodes && (nodes.(i) <> nodes.(0) || mixed_nodes nodes (i + 1))

let note_install t s ~page ~node at =
  s.ps_installs <- s.ps_installs + 1;
  let n = Array.length s.ps_at in
  s.ps_at.(s.ps_next) <- at;
  s.ps_node.(s.ps_next) <- node;
  s.ps_next <- (s.ps_next + 1) mod n;
  if s.ps_len < n then s.ps_len <- s.ps_len + 1;
  if s.ps_len >= t.cfg.thrash_window then begin
    (* Full ring: [ps_next] now indexes the oldest install. *)
    let span = Time.(at - s.ps_at.(s.ps_next)) in
    let quiet_enough =
      match s.ps_thrash_last with
      | Some last -> Time.(at - last) > t.cfg.thrash_span
      | None -> true
    in
    if span <= t.cfg.thrash_span && mixed_nodes s.ps_node 1 && quiet_enough
    then begin
      s.ps_thrash_last <- Some at;
      t.pending_thrash <-
        {
          th_page = page;
          th_count = s.ps_len;
          th_nodes = List.sort_uniq Int.compare (Array.to_list s.ps_node);
          th_span = span;
        }
        :: t.pending_thrash
    end
  end

(* The observer callback: pure bookkeeping, O(1) amortized per event.  No
   engine interaction, no shared RNG — attaching telemetry cannot perturb a
   seeded schedule. *)
let on_event t ~at ~span:_ ev =
  t.seen <- t.seen + 1;
  Pages.feed t.pgs ev;
  match ev with
  | Trace.Fault { page; _ } -> ignore (touch t page)
  | Trace.Page_install { node; page; _ } ->
      note_install t (touch t page) ~page ~node at
  | Trace.Page_send { page; _ } | Trace.Invalidate { page; _ } ->
      ignore (touch t page)
  | Trace.Diff { page_list; _ } -> touch_all t page_list
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
      states = [||];
      touched = [||];
      n_touched = 0;
      reclass_total = 0;
      pending_thrash = [];
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
  let sk = Stats.span_sketch t.rt.Runtime.stats Instrument.stage_total in
  ( Sketch.count sk,
    List.map (fun (name, p) -> (name, Time.to_us (Sketch.percentile sk p))) fault_percentiles )

(* --- interval drain --- *)

let quiet = { iv_installs = []; iv_reclassified = 0; iv_thrash = [] }

let end_interval t =
  (* Classification churn, over the pages touched this interval only. *)
  let reclass = ref 0 in
  let installs = ref [] in
  for i = 0 to t.n_touched - 1 do
    let page = t.touched.(i) in
    let s = t.states.(page) in
    if s.ps_installs > 0 then installs := (page, s.ps_installs) :: !installs;
    let a = Pages.find t.pgs page in
    if a != Pages.absent then begin
      let pattern = Pages.classify_acc a in
      match s.ps_pattern with
      | Some old when old = pattern -> ()
      | Some _ ->
          incr reclass;
          s.ps_pattern <- Some pattern
      | None -> s.ps_pattern <- Some pattern
    end
  done;
  t.n_touched <- 0;
  t.interval_count <- t.interval_count + 1;
  t.reclass_total <- t.reclass_total + !reclass;
  match (!installs, t.pending_thrash) with
  | [], [] when !reclass = 0 -> quiet
  | _ ->
      let iv =
        {
          iv_installs =
            List.sort
              (fun (pa, ca) (pb, cb) ->
                let c = Int.compare cb ca in
                if c <> 0 then c else Int.compare pa pb)
              !installs;
          iv_reclassified = !reclass;
          iv_thrash = List.rev t.pending_thrash;
        }
      in
      t.pending_thrash <- [];
      iv

(* --- snapshots --- *)

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
    t.pgs.Pages.count
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
            "  page %-5d %-17s rf=%-6d wf=%-6d xfers=%-6d bytes=%-9d@."
            p.pr_page
            (pattern_to_string p.pr_pattern)
            p.pr_read_faults p.pr_write_faults p.pr_transfers p.pr_bytes)
      hot
  end;
  Format.fprintf ppf "trace: recorded=%d stored=%d evicted=%d sampled_out=%d%s@."
    (Trace.recorded tr) (Trace.length tr) (Trace.evicted tr)
    (Trace.sampled_out tr)
    (match Trace.capacity tr with
    | Some c -> Printf.sprintf " cap=%d" c
    | None -> "")
