type severity = Info | Warning | Critical

let severity_to_string = function
  | Info -> "info"
  | Warning -> "warning"
  | Critical -> "critical"

let severity_of_string = function
  | "info" -> Some Info
  | "warning" -> Some Warning
  | "critical" -> Some Critical
  | _ -> None

type lock_op = Acquire | Release

let lock_op_to_string = function Acquire -> "acquire" | Release -> "release"

let lock_op_of_string s = List.find_opt (fun op -> lock_op_to_string op = s) [ Acquire; Release ]

type event =
  | Fault of { node : int; page : int; protocol : string; mode : string }
  | Page_request of {
      node : int;
      page : int;
      protocol : string;
      mode : string;
      requester : int;
    }
  | Page_send of {
      node : int;
      page : int;
      protocol : string;
      dst : int;
      bytes : int;
      grant : string;
    }
  | Page_install of {
      node : int;
      page : int;
      protocol : string;
      sender : int;
      grant : string;
    }
  | Invalidate of { node : int; page : int; protocol : string; sender : int }
  | Diff of {
      node : int;
      pages : int;
      page_list : int list;
      bytes : int;
      sender : int;
      release : bool;
      protocol : string;
    }
  | Lock of { node : int; lock : int; op : lock_op }
  | Barrier of { node : int; barrier : int }
  | Migration of { thread : int; src : int; dst : int }
  | Alert of { severity : severity; kind : string; node : int; detail : string }
  | Drop of { src : int; dst : int; kind : string }
  | Blackhole of { src : int; dst : int; kind : string; down : int }
  | Crash of { node : int; up : Time.t }
  | Restart of { node : int }
  | Rpc_retry of { service : string; src : int; dst : int; attempt : int }
  | Stage of { node : int; protocol : string; stage : string; obj : int; ns : Time.t }

let no_span = -1

let event_category = function
  | Fault _ -> "fault"
  | Page_request _ -> "request"
  | Page_send _ -> "page.send"
  | Page_install _ -> "page"
  | Invalidate _ -> "invalidate"
  | Diff _ -> "diff"
  | Lock _ -> "lock"
  | Barrier _ -> "barrier"
  | Migration _ -> "migrate"
  | Alert _ -> "alert"
  | Drop _ -> "drop"
  | Blackhole _ -> "blackhole"
  | Crash _ -> "crash"
  | Restart _ -> "restart"
  | Rpc_retry _ -> "rpc.retry"
  | Stage _ -> "stage"

let event_message = function
  | Fault { node; page; protocol; mode } ->
      Printf.sprintf "node %d: %s fault on page %d (%s)" node mode page protocol
  | Page_request { node; page; mode; requester; protocol = _ } ->
      Printf.sprintf "node %d: %s request for page %d from %d" node mode page
        requester
  | Page_send { node; page; dst; bytes; grant; protocol = _ } ->
      Printf.sprintf "node %d: page %d sent to %d (%s, %d bytes)" node page dst
        grant bytes
  | Page_install { node; page; sender; grant; protocol = _ } ->
      Printf.sprintf "node %d: page %d received from %d (%s)" node page sender grant
  | Invalidate { node; page; sender; protocol = _ } ->
      Printf.sprintf "node %d: invalidate page %d (from %d)" node page sender
  | Lock { node; lock; op } ->
      Printf.sprintf "lock %d: %s by node %d" lock (lock_op_to_string op) node
  | Barrier { node; barrier } ->
      Printf.sprintf "barrier %d: node %d arrived" barrier node
  | Diff { node; pages; bytes; sender; release; protocol; page_list = _ } ->
      Printf.sprintf "node %d: %d %s diff(s) from %d (%d bytes)%s" node pages
        protocol sender bytes
        (if release then " (release)" else "")
  | Migration { thread; src; dst } ->
      Printf.sprintf "thread %d: node %d -> %d" thread src dst
  | Alert { severity; kind; node; detail } ->
      Printf.sprintf "ALERT[%s] %s%s: %s" (severity_to_string severity) kind
        (if node < 0 then "" else Printf.sprintf " (node %d)" node)
        detail
  | Drop { src; dst; kind } ->
      Printf.sprintf "link %d->%d: %s dropped (seeded loss)" src dst kind
  | Blackhole { src; dst; kind; down } ->
      Printf.sprintf "link %d->%d: %s blackholed (node %d down)" src dst kind down
  | Crash { node; up } ->
      Printf.sprintf "node %d: crashed (down until %.0fus)" node (Time.to_us up)
  | Restart { node } -> Printf.sprintf "node %d: restarted" node
  | Rpc_retry { service; src; dst; attempt } ->
      Printf.sprintf "rpc %s: retransmission #%d on link %d->%d" service attempt
        src dst
  | Stage { node; protocol; stage; ns; obj = _ } ->
      Printf.sprintf "node %d: %s %.1f us (%s)" node stage (Time.to_us ns) protocol

(* The node a trace event belongs to, for the Chrome exporter's process
   lanes; -1 for a run-wide alert. *)
let event_node = function
  | Fault { node; _ }
  | Page_request { node; _ }
  | Page_send { node; _ }
  | Page_install { node; _ }
  | Invalidate { node; _ }
  | Diff { node; _ }
  | Lock { node; _ }
  | Barrier { node; _ }
  | Stage { node; _ } -> node
  | Migration { src; _ } -> src
  | Alert { node; _ } -> node
  | Drop { src; _ } -> src
  | Blackhole { down; _ } -> down
  | Crash { node; _ } -> node
  | Restart { node } -> node
  | Rpc_retry { src; _ } -> src

(* Storage is a growable circular buffer of three parallel arrays — the
   timestamp, the span id and the typed event of each stored emission — so
   recording writes two ints and one pointer and builds nothing; readers
   get the same typed triples back, and only the printers render text, with
   the pure [event_category]/[event_message].  The flight recorder
   ([set_capacity]) overwrites the oldest slot in O(1) while the unbounded
   default keeps amortized O(1) appends.  [total] counts every event ever
   recorded (monotonic, survives eviction): the base of the [evicted]
   accounting.

   The event slot holds an interned copy of each DSM event ([intern]): a
   run emits the same fault, transfer and diff events over and over, and
   storing a fresh event in a long-lived array makes the minor GC promote
   it, to be overwritten a ring lap later.  An equal event already in the
   table is stored instead, so the fresh one dies young. *)
type t = {
  mutable on : bool;
  mutable ats : Time.t array;
  mutable span_ids : int array;
  mutable evs : event array;
  mutable start : int; (* index of the oldest stored entry *)
  mutable len : int; (* number of stored entries *)
  mutable total : int; (* events ever recorded, monotonic *)
  mutable cap : int option; (* flight-recorder bound; [None] = unbounded *)
  mutable next_span : int;
  mutable autodump : string option; (* dump target armed on critical alerts *)
  mutable autodump_fired : bool;
  mutable observer : (at:Time.t -> span:int -> event -> unit) option;
      (* sees every emission, before sampling and before ring eviction *)
  mutable sampling : (int * float) option; (* (seed, keep percentage) *)
  mutable sampled_out : int; (* events dropped by the sampler, monotonic *)
  mutable interned : event array;
      (* [intern_sets] sets of [intern_ways] events, most recent first;
         empty until the first push *)
}

let dummy_event = Restart { node = -1 }

(* --- interning --- *)

let intern_ways = 4
let intern_sets = 512

(* The set an event interns into, from (kind, node, page, peer); -1 for
   the kinds that are stored as emitted.  A [Diff] keys on its first
   page; a [Stage] on its duration, with its object and its series name's
   length as the peer. *)
let intern_set ev =
  let[@inline] mix kind node page peer =
    let h = (((((kind * 0x3B9ACA07) + node) * 0x5BD1E995) + page) * 0x2545F491) + peer in
    let h = h * 0x9E3779B1 in
    (h lxor (h lsr 32)) land (intern_sets - 1)
  in
  match ev with
  | Fault { node; page; _ } -> mix 1 node page 0
  | Page_request { node; page; requester; _ } -> mix 2 node page requester
  | Page_send { node; page; dst; _ } -> mix 3 node page dst
  | Page_install { node; page; sender; _ } -> mix 4 node page sender
  | Invalidate { node; page; sender; _ } -> mix 5 node page sender
  | Diff { node; page_list; sender; _ } ->
      mix 6 node (match page_list with p :: _ -> p | [] -> -1) sender
  | Stage { node; stage; obj; ns; _ } -> mix 7 node ns ((obj * 32) + String.length stage)
  | Lock _ | Barrier _ | Migration _ | Alert _ | Drop _ | Blackhole _ | Crash _
  | Restart _ | Rpc_retry _ ->
      -1

let[@inline] same_string a b = a == b || String.equal a b

let rec same_ints a b =
  a == b || match (a, b) with x :: a, y :: b -> x = y && same_ints a b | _ -> false

(* Field-by-field equality of two events of the interned kinds. *)
let same_event a b =
  match (a, b) with
  | Fault a, Fault b ->
      a.node = b.node && a.page = b.page && same_string a.mode b.mode
      && same_string a.protocol b.protocol
  | Page_request a, Page_request b ->
      a.node = b.node && a.page = b.page && a.requester = b.requester
      && same_string a.mode b.mode && same_string a.protocol b.protocol
  | Page_send a, Page_send b ->
      a.node = b.node && a.page = b.page && a.dst = b.dst && a.bytes = b.bytes
      && same_string a.grant b.grant && same_string a.protocol b.protocol
  | Page_install a, Page_install b ->
      a.node = b.node && a.page = b.page && a.sender = b.sender
      && same_string a.grant b.grant && same_string a.protocol b.protocol
  | Invalidate a, Invalidate b ->
      a.node = b.node && a.page = b.page && a.sender = b.sender
      && same_string a.protocol b.protocol
  | Diff a, Diff b ->
      a.node = b.node && a.sender = b.sender && a.pages = b.pages && a.bytes = b.bytes
      && a.release = b.release && same_ints a.page_list b.page_list
      && same_string a.protocol b.protocol
  | Stage a, Stage b ->
      a.node = b.node && a.ns = b.ns && a.obj = b.obj && same_string a.stage b.stage
      && same_string a.protocol b.protocol
  | _ -> false

let rec find_way tbl base w ev =
  if w = intern_ways then begin
    Array.blit tbl base tbl (base + 1) (intern_ways - 1);
    tbl.(base) <- ev;
    ev
  end
  else
    let e = tbl.(base + w) in
    if same_event e ev then e else find_way tbl base (w + 1) ev

(* The stored copy of [ev]: the equal event already in its set, or [ev]
   itself, which then enters the set and pushes out its oldest way. *)
let intern t ev =
  let set = intern_set ev in
  if set < 0 then ev
  else begin
    if Array.length t.interned = 0 then
      t.interned <- Array.make (intern_sets * intern_ways) dummy_event;
    find_way t.interned (set * intern_ways) 0 ev
  end

let create ?(enabled = false) () =
  {
    on = enabled;
    ats = [||];
    span_ids = [||];
    evs = [||];
    start = 0;
    len = 0;
    total = 0;
    cap = None;
    next_span = 0;
    autodump = None;
    autodump_fired = false;
    observer = None;
    sampling = None;
    sampled_out = 0;
    interned = [||];
  }

let enable t b = t.on <- b
let enabled t = t.on

(* --- flight recorder --- *)

let capacity t = t.cap
let recorded t = t.total
let evicted t = t.total - t.len

(* Copies the stored entries [skip .. len-1] to the front of fresh arrays
   of size [n]. *)
let relayout t ~skip n =
  let old_n = Array.length t.evs in
  let ats = Array.make n Time.zero in
  let span_ids = Array.make n no_span in
  let evs = Array.make n dummy_event in
  for i = 0 to t.len - skip - 1 do
    let k = (t.start + skip + i) mod old_n in
    ats.(i) <- t.ats.(k);
    span_ids.(i) <- t.span_ids.(k);
    evs.(i) <- t.evs.(k)
  done;
  t.ats <- ats;
  t.span_ids <- span_ids;
  t.evs <- evs;
  t.start <- 0;
  t.len <- t.len - skip

(* The arrays start empty and grow by doubling up to the bound ([grow]),
   so a ring holds exactly [n] slots once it is full, and neither an
   unused trace nor a freshly armed large recorder costs anything until
   events arrive. *)
let set_capacity t n =
  if n <= 0 then invalid_arg "Trace.set_capacity: capacity must be positive";
  (* Keep the newest entries: a shrinking recorder forgets the oldest
     history first, exactly as steady-state eviction would. *)
  if Array.length t.evs > n then relayout t ~skip:(t.len - min t.len n) n;
  t.cap <- Some n

let set_autodump t path =
  t.autodump <- Some path;
  t.autodump_fired <- false

let autodump_path t = t.autodump
let autodump_fired t = t.autodump_fired

(* --- observer & head-based sampling ---

   The single observer slot sees every emission at emit time, before the
   sampler's keep/drop decision and before the flight recorder evicts
   anything: a subscriber (Telemetry) gets the complete event stream while
   storage stays bounded.  Observers must be passive — no engine events, no
   shared RNG draws — so attaching one never perturbs a seeded schedule.

   Sampling is head-based per span: one seeded draw on the span id decides
   the whole operation's fate, so a kept span is kept with every event and
   [dsm explain] still sees whole causal chains.  The draw is a pure
   function of (sampling seed, span id) — independent of emission order,
   wall clock and engine state — so sampled runs stay replayable.  Rare,
   high-signal kinds (alerts, fault-plan events, RPC retries) always keep;
   events outside any span ([no_span]) always keep. *)

let set_observer t f =
  match t.observer with
  | Some _ -> invalid_arg "Trace.set_observer: an observer is already attached"
  | None -> t.observer <- Some f

let set_sampling t ~seed ~keep_pct =
  if not (keep_pct >= 0. && keep_pct <= 100.) then
    invalid_arg "Trace.set_sampling: keep_pct must be within [0, 100]";
  t.sampling <- Some (seed, keep_pct)

let sampled_out t = t.sampled_out

let always_keep = function
  | Alert _ | Drop _ | Blackhole _ | Crash _ | Restart _ | Rpc_retry _ -> true
  | Fault _ | Page_request _ | Page_send _ | Page_install _ | Invalidate _
  | Diff _ | Lock _ | Barrier _ | Migration _ | Stage _ -> false

let span_kept t span =
  match t.sampling with
  | None -> true
  | Some (seed, keep_pct) ->
      span = no_span
      || Rng.float (Rng.create ~seed:(Hashtbl.hash (seed, span))) 100. < keep_pct

let sample_keep t span ev = always_keep ev || span_kept t span

(* Forward reference to [save_jsonl], which needs the exporters defined
   below; resolved at module initialization.  Keeps the autodump trigger
   inside [push] without reordering the whole file. *)
let autodump_impl : (string -> t -> unit) ref = ref (fun _ _ -> ())

(* The storage slot of the [i]-th stored entry, oldest first. *)
let slot t i = (t.start + i) mod Array.length t.evs

let grow t =
  let n = Array.length t.evs in
  let n' = max 16 (2 * n) in
  let n' = match t.cap with Some c -> min n' c | None -> n' in
  if n' > n then relayout t ~skip:0 n'

let push t at span ev =
  let k =
    match t.cap with
    | Some cap when t.len >= cap ->
        (* Full ring: overwrite the oldest entry in place. *)
        let k = t.start in
        t.start <- (k + 1) mod Array.length t.evs;
        k
    | _ ->
        if t.len = Array.length t.evs then grow t;
        let k = slot t t.len in
        t.len <- t.len + 1;
        k
  in
  t.ats.(k) <- at;
  t.span_ids.(k) <- span;
  t.evs.(k) <- intern t ev;
  t.total <- t.total + 1;
  (* Flight-recorder dump: the first critical alert freezes the evidence
     to disk while the ring still holds the events leading up to it. *)
  match t.autodump with
  | Some path when not t.autodump_fired -> (
      match ev with
      | Alert { severity = Critical; _ } ->
          t.autodump_fired <- true;
          !autodump_impl path t
      | _ -> ())
  | _ -> ()

(* --- span context ---

   Span ids link the events of one logical operation (a remote access
   followed from fault detection through request, transfer and install).
   The id is carried across nodes inside protocol messages and, within a
   node, attached to the Marcel thread doing the work.  All bookkeeping is
   skipped while the trace is disabled so the hot paths stay free. *)

let new_span t =
  if not t.on then no_span
  else begin
    let s = t.next_span in
    t.next_span <- s + 1;
    s
  end

(* --- recording --- *)

(* The single choke point of live recording: the observer sees the event
   unconditionally, then the sampler decides whether storage does. *)
let submit t at span ev =
  (match t.observer with Some f -> f ~at ~span ev | None -> ());
  if sample_keep t span ev then push t at span ev
  else t.sampled_out <- t.sampled_out + 1

let emit t eng ?(span = no_span) ev =
  if t.on then submit t (Engine.now eng) span ev

(* --- inspection: the stored typed events, as recorded --- *)

let length t = t.len

let iter t f =
  for i = 0 to t.len - 1 do
    let k = slot t i in
    f ~at:t.ats.(k) ~span:t.span_ids.(k) t.evs.(k)
  done

let events t =
  let rec build i acc =
    if i < 0 then acc
    else
      let k = slot t i in
      build (i - 1) ((t.ats.(k), t.span_ids.(k), t.evs.(k)) :: acc)
  in
  build (t.len - 1) []

(* Every span's events grouped together (chronological inside each group),
   ordered by each span's first event — the analyzer's raw material. *)
let spans t =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun ((_, span, _) as x) ->
      if span <> no_span then
        match Hashtbl.find_opt tbl span with
        | Some rev -> Hashtbl.replace tbl span (x :: rev)
        | None ->
            order := span :: !order;
            Hashtbl.replace tbl span [ x ])
    (events t);
  List.rev_map (fun s -> (s, List.rev (Hashtbl.find tbl s))) !order

(* Rebuild a trace from typed events, e.g. re-loaded from a JSONL dump.
   The result is a disabled (post-mortem) trace: inspection and export work,
   recording would need [enable]. *)
let of_events evs =
  let t = create ~enabled:false () in
  let max_span = ref (-1) in
  List.iter
    (fun (at, span, ev) ->
      if span > !max_span then max_span := span;
      push t at span ev)
    evs;
  t.next_span <- !max_span + 1;
  t

(* --- JSON export --- *)

let event_fields = function
  | Fault { node; page; protocol; mode } ->
      [
        ("type", Json.String "fault");
        ("node", Json.Int node);
        ("page", Json.Int page);
        ("protocol", Json.String protocol);
        ("mode", Json.String mode);
      ]
  | Page_request { node; page; protocol; mode; requester } ->
      [
        ("type", Json.String "page_request");
        ("node", Json.Int node);
        ("page", Json.Int page);
        ("protocol", Json.String protocol);
        ("mode", Json.String mode);
        ("requester", Json.Int requester);
      ]
  | Page_send { node; page; protocol; dst; bytes; grant } ->
      [
        ("type", Json.String "page_send");
        ("node", Json.Int node);
        ("page", Json.Int page);
        ("protocol", Json.String protocol);
        ("dst", Json.Int dst);
        ("bytes", Json.Int bytes);
        ("grant", Json.String grant);
      ]
  | Page_install { node; page; protocol; sender; grant } ->
      [
        ("type", Json.String "page_install");
        ("node", Json.Int node);
        ("page", Json.Int page);
        ("protocol", Json.String protocol);
        ("sender", Json.Int sender);
        ("grant", Json.String grant);
      ]
  | Invalidate { node; page; protocol; sender } ->
      [
        ("type", Json.String "invalidate");
        ("node", Json.Int node);
        ("page", Json.Int page);
        ("protocol", Json.String protocol);
        ("sender", Json.Int sender);
      ]
  | Diff { node; pages; page_list; bytes; sender; release; protocol } ->
      [
        ("type", Json.String "diff");
        ("node", Json.Int node);
        ("pages", Json.Int pages);
        ("page_list", Json.List (List.map (fun p -> Json.Int p) page_list));
        ("bytes", Json.Int bytes);
        ("sender", Json.Int sender);
        ("release", Json.Bool release);
        ("protocol", Json.String protocol);
      ]
  | Lock { node; lock; op } ->
      [
        ("type", Json.String "lock");
        ("node", Json.Int node);
        ("lock", Json.Int lock);
        ("op", Json.String (lock_op_to_string op));
      ]
  | Barrier { node; barrier } ->
      [
        ("type", Json.String "barrier");
        ("node", Json.Int node);
        ("barrier", Json.Int barrier);
      ]
  | Migration { thread; src; dst } ->
      [
        ("type", Json.String "migration");
        ("thread", Json.Int thread);
        ("src", Json.Int src);
        ("dst", Json.Int dst);
      ]
  | Alert { severity; kind; node; detail } ->
      [
        ("type", Json.String "alert");
        ("severity", Json.String (severity_to_string severity));
        ("kind", Json.String kind);
        ("node", Json.Int node);
        ("detail", Json.String detail);
      ]
  | Drop { src; dst; kind } ->
      [
        ("type", Json.String "drop");
        ("src", Json.Int src);
        ("dst", Json.Int dst);
        ("kind", Json.String kind);
      ]
  | Blackhole { src; dst; kind; down } ->
      [
        ("type", Json.String "blackhole");
        ("src", Json.Int src);
        ("dst", Json.Int dst);
        ("kind", Json.String kind);
        ("down", Json.Int down);
      ]
  | Crash { node; up } ->
      [
        ("type", Json.String "crash");
        ("node", Json.Int node);
        ("up_ns", Json.Int up);
      ]
  | Restart { node } ->
      [ ("type", Json.String "restart"); ("node", Json.Int node) ]
  | Rpc_retry { service; src; dst; attempt } ->
      [
        ("type", Json.String "rpc_retry");
        ("service", Json.String service);
        ("src", Json.Int src);
        ("dst", Json.Int dst);
        ("attempt", Json.Int attempt);
      ]
  | Stage { node; protocol; stage; obj; ns } ->
      [
        ("type", Json.String "stage");
        ("node", Json.Int node);
        ("protocol", Json.String protocol);
        ("stage", Json.String stage);
        ("obj", Json.Int obj);
        ("ns", Json.Int ns);
      ]

let event_to_json ~at ~span ev =
  Json.Obj (("at_ns", Json.Int at) :: ("span", Json.Int span) :: event_fields ev)

let event_of_json j =
  let int name = Json.member name j |> Option.map (fun v -> Json.to_int v) in
  let geti name = Option.join (int name) in
  let gets name = Option.join (Json.member name j |> Option.map Json.to_str) in
  let getb name = Option.join (Json.member name j |> Option.map Json.to_bool) in
  let ( let* ) = Option.bind in
  let ( and* ) a b = match (a, b) with Some a, Some b -> Some (a, b) | _ -> None in
  let* at = geti "at_ns" and* span = geti "span" and* ty = gets "type" in
  let* ev =
    match ty with
    | "fault" ->
        let* node = geti "node" and* page = geti "page" and* protocol = gets "protocol"
        and* mode = gets "mode" in
        Some (Fault { node; page; protocol; mode })
    | "page_request" ->
        let* node = geti "node" and* page = geti "page" and* protocol = gets "protocol"
        and* mode = gets "mode" and* requester = geti "requester" in
        Some (Page_request { node; page; protocol; mode; requester })
    | "page_send" ->
        let* node = geti "node" and* page = geti "page" and* protocol = gets "protocol"
        and* dst = geti "dst" and* bytes = geti "bytes" and* grant = gets "grant" in
        Some (Page_send { node; page; protocol; dst; bytes; grant })
    | "page_install" ->
        let* node = geti "node" and* page = geti "page" and* protocol = gets "protocol"
        and* sender = geti "sender" and* grant = gets "grant" in
        Some (Page_install { node; page; protocol; sender; grant })
    | "invalidate" ->
        let* node = geti "node" and* page = geti "page" and* protocol = gets "protocol"
        and* sender = geti "sender" in
        Some (Invalidate { node; page; protocol; sender })
    | "diff" ->
        let* node = geti "node" and* pages = geti "pages" and* bytes = geti "bytes"
        and* sender = geti "sender" and* release = getb "release"
        and* protocol = gets "protocol"
        and* page_list =
          let* items = Option.join (Json.member "page_list" j |> Option.map Json.to_list) in
          List.fold_right
            (fun item acc ->
              let* acc = acc and* p = Json.to_int item in
              Some (p :: acc))
            items (Some [])
        in
        Some (Diff { node; pages; page_list; bytes; sender; release; protocol })
    | "lock" ->
        let* node = geti "node" and* lock = geti "lock"
        and* op = Option.bind (gets "op") lock_op_of_string in
        Some (Lock { node; lock; op })
    | "barrier" ->
        let* node = geti "node" and* barrier = geti "barrier" in
        Some (Barrier { node; barrier })
    | "migration" ->
        let* thread = geti "thread" and* src = geti "src" and* dst = geti "dst" in
        Some (Migration { thread; src; dst })
    | "alert" ->
        let* severity = Option.bind (gets "severity") severity_of_string
        and* kind = gets "kind" and* node = geti "node" and* detail = gets "detail" in
        Some (Alert { severity; kind; node; detail })
    | "drop" ->
        let* src = geti "src" and* dst = geti "dst" and* kind = gets "kind" in
        Some (Drop { src; dst; kind })
    | "blackhole" ->
        let* src = geti "src" and* dst = geti "dst" and* kind = gets "kind"
        and* down = geti "down" in
        Some (Blackhole { src; dst; kind; down })
    | "crash" ->
        let* node = geti "node" and* up = geti "up_ns" in
        Some (Crash { node; up })
    | "restart" ->
        let* node = geti "node" in
        Some (Restart { node })
    | "rpc_retry" ->
        let* service = gets "service" and* src = geti "src" and* dst = geti "dst"
        and* attempt = geti "attempt" in
        Some (Rpc_retry { service; src; dst; attempt })
    | "stage" ->
        let* node = geti "node" and* protocol = gets "protocol" and* stage = gets "stage"
        and* obj = geti "obj" and* ns = geti "ns" in
        Some (Stage { node; protocol; stage; obj; ns })
    | _ -> None
  in
  Some (at, span, ev)

let to_jsonl ppf t =
  iter t (fun ~at ~span ev ->
      Format.fprintf ppf "%s@." (Json.to_string (event_to_json ~at ~span ev)))

(* No run names a negative page ([Page_table.declare] raises on one) or a
   negative node, and the telemetry tables a loaded dump feeds are arrays
   indexed by both: a hand-edited line with one is refused at load.  So
   are a stamp's negative object (page, lock or barrier id) and negative
   duration, which a sketch would silently clamp to 0. *)
let negative_field = function
  | Fault { node; page; _ } ->
      if page < 0 then Some ("page id", page)
      else if node < 0 then Some ("node id", node)
      else None
  | Page_request { page; _ }
  | Page_send { page; _ }
  | Page_install { page; _ }
  | Invalidate { page; _ } ->
      if page < 0 then Some ("page id", page) else None
  | Diff { page_list; sender; _ } -> (
      match List.find_opt (fun p -> p < 0) page_list with
      | Some p -> Some ("page id", p)
      | None -> if sender < 0 then Some ("node id", sender) else None)
  | Stage { node; obj; ns; _ } ->
      if node < 0 then Some ("node id", node)
      else if obj < 0 then Some ("object id", obj)
      else if ns < 0 then Some ("duration", ns)
      else None
  | _ -> None

(* Inverse of [to_jsonl] over a whole dump (the file's contents, one JSON
   object per line).  Blank lines are skipped; the first malformed line
   aborts the load with its line number. *)
let of_jsonl contents =
  let rec parse acc lineno = function
    | [] -> Ok (of_events (List.rev acc))
    | line :: rest -> (
        if String.trim line = "" then parse acc (lineno + 1) rest
        else
          match Json.of_string (String.trim line) with
          | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
          | Ok j -> (
              match event_of_json j with
              | None -> Error (Printf.sprintf "line %d: not a trace event" lineno)
              | Some (at, span, ev) -> (
                  match negative_field ev with
                  | Some (what, v) ->
                      Error (Printf.sprintf "line %d: negative %s %d" lineno what v)
                  | None -> parse ((at, span, ev) :: acc) (lineno + 1) rest)))
  in
  parse [] 1 (String.split_on_char '\n' contents)

(* Chrome trace_event format (chrome://tracing, Perfetto): one instant
   event per trace entry, with the simulated node as the process lane and
   the span id as the thread lane so causally linked events line up. *)
let chrome_json t =
  let trace_events = ref [] in
  iter t (fun ~at ~span ev ->
      let node = event_node ev in
      trace_events :=
        Json.Obj
          [
            ("name", Json.String (event_category ev));
            ("ph", Json.String "i");
            ("s", Json.String "t");
            ("ts", Json.Float (Time.to_us at));
            ("pid", Json.Int (if node < 0 then 0 else node));
            ("tid", Json.Int (if span = no_span then 0 else span));
            ( "args",
              Json.Obj
                (("span", Json.Int span)
                :: ("detail", Json.String (event_message ev))
                :: event_fields ev) );
          ]
        :: !trace_events);
  Json.Obj
    [
      ("traceEvents", Json.List (List.rev !trace_events));
      ("displayTimeUnit", Json.String "ms");
    ]

let to_chrome ppf t = Format.fprintf ppf "%s@." (Json.to_string (chrome_json t))

(* --- file round trip --- *)

let save_jsonl path t =
  Out_channel.with_open_bin path (fun oc ->
      let ppf = Format.formatter_of_out_channel oc in
      to_jsonl ppf t;
      Format.pp_print_flush ppf ())

let () = autodump_impl := save_jsonl

let load_jsonl path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error (Printf.sprintf "%s: %s" path msg)
  | contents -> (
      match of_jsonl contents with
      | Ok t -> Ok t
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg))
