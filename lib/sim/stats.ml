type labels = { lbl_node : int option; lbl_protocol : string option }

let labels ?node ?protocol () = { lbl_node = node; lbl_protocol = protocol }

let compare_labels a b =
  let c = Option.compare Int.compare a.lbl_node b.lbl_node in
  if c <> 0 then c else Option.compare String.compare a.lbl_protocol b.lbl_protocol

(* A cell is one event site under one label set.  Its event count, volume
   and duration series each answer to a series name ([""] when the cell
   does not feed that field), so one update per event feeds every view:
   a delivered message bumps one cell that is at once "msg.<kind>" (count),
   "net.bytes" (volume) and "net.delay" (span). *)
type cell = {
  c_labels : labels;
  count_name : string;
  volume_name : string;
  span_name : string;
  mutable events : int;
  mutable volume : int;
  mutable total : Time.t;
  mutable max : Time.t;
  sketch : Sketch.t;
}

type t = { mutable cells : cell list (* newest first *) }

let create () = { cells = [] }

let cell t ?node ?protocol ?(count = "") ?(volume = "") ?(span = "") () =
  let c =
    {
      c_labels = labels ?node ?protocol ();
      count_name = count;
      volume_name = volume;
      span_name = span;
      events = 0;
      volume = 0;
      total = Time.zero;
      max = Time.zero;
      sketch = Sketch.create ();
    }
  in
  t.cells <- c :: t.cells;
  c

let[@inline] bump c = c.events <- c.events + 1

let add c ~events ~volume =
  c.events <- c.events + events;
  c.volume <- c.volume + volume

let record c dt =
  c.total <- c.total + dt;
  if dt > c.max then c.max <- dt;
  Sketch.add_int c.sketch dt

let events c = c.events
let volume c = c.volume
let samples c = Sketch.count c.sketch

(* --- views: rollups over the cells a name and label set select --- *)

let selected labels c =
  match labels with None -> true | Some l -> compare_labels l c.c_labels = 0

(* What [c] contributes to the counter [name]. *)
let counted name c =
  (if String.equal c.count_name name then c.events else 0)
  + if String.equal c.volume_name name then c.volume else 0

let count ?labels t name =
  List.fold_left
    (fun acc c -> if selected labels c then acc + counted name c else acc)
    0 t.cells

let span_cells ?labels t name =
  List.filter (fun c -> String.equal c.span_name name && selected labels c) t.cells

let total_of cells = List.fold_left (fun acc c -> Time.(acc + c.total)) Time.zero cells
let max_of cells = List.fold_left (fun acc c -> Time.max acc c.max) Time.zero cells
let samples_of cells = List.fold_left (fun acc c -> acc + samples c) 0 cells

let sketch_of cells =
  let sk = Sketch.create () in
  List.iter (fun c -> Sketch.merge_into sk c.sketch) cells;
  sk

let span_mean ?labels t name =
  let cells = span_cells ?labels t name in
  let n = samples_of cells in
  if n = 0 then Time.zero else total_of cells / n

let percentile_of sk p = int_of_float (Float.round (Sketch.percentile sk p))

let span_percentile ?labels t name p =
  percentile_of (sketch_of (span_cells ?labels t name)) p

type span_summary = {
  sm_name : string;
  sm_samples : int;
  sm_total : Time.t;
  sm_mean : Time.t;
  sm_p50 : Time.t;
  sm_p90 : Time.t;
  sm_p99 : Time.t;
  sm_max : Time.t;
}

let span_summary ?labels t name =
  let cells = span_cells ?labels t name in
  let sk = sketch_of cells in
  let n = Sketch.count sk and total = total_of cells in
  {
    sm_name = name;
    sm_samples = n;
    sm_total = total;
    sm_mean = (if n = 0 then Time.zero else total / n);
    sm_p50 = percentile_of sk 50.;
    sm_p90 = percentile_of sk 90.;
    sm_p99 = percentile_of sk 99.;
    sm_max = max_of cells;
  }

let names ?labels t fields =
  List.concat_map
    (fun c -> if selected labels c then List.filter (( <> ) "") (fields c) else [])
    t.cells
  |> List.sort_uniq String.compare

let counter_names ?labels t = names ?labels t (fun c -> [ c.count_name; c.volume_name ])
let span_names ?labels t = names ?labels t (fun c -> [ c.span_name ])

let counters ?labels t =
  List.map (fun name -> (name, count ?labels t name)) (counter_names ?labels t)

let span_summaries ?labels t = List.map (span_summary ?labels t) (span_names ?labels t)

let label_sets t =
  List.sort_uniq compare_labels (List.map (fun c -> c.c_labels) t.cells)

(* --- exports --- *)

let summary_to_json s =
  Json.Obj
    [
      ("name", Json.String s.sm_name);
      ("samples", Json.Int s.sm_samples);
      ("total_us", Json.Float (Time.to_us s.sm_total));
      ("mean_us", Json.Float (Time.to_us s.sm_mean));
      ("p50_us", Json.Float (Time.to_us s.sm_p50));
      ("p90_us", Json.Float (Time.to_us s.sm_p90));
      ("p99_us", Json.Float (Time.to_us s.sm_p99));
      ("max_us", Json.Float (Time.to_us s.sm_max));
    ]

let labels_to_json l =
  Json.Obj
    (List.concat
       [
         (match l.lbl_node with Some n -> [ ("node", Json.Int n) ] | None -> []);
         (match l.lbl_protocol with
         | Some p -> [ ("protocol", Json.String p) ]
         | None -> []);
       ])

let view_to_json ?labels t =
  [
    ( "counters",
      Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters ?labels t)) );
    ("spans", Json.List (List.map summary_to_json (span_summaries ?labels t)));
  ]

let to_json t =
  Json.Obj
    (view_to_json t
    @ [
        ( "labelled",
          Json.List
            (List.map
               (fun l ->
                 Json.Obj (("labels", labels_to_json l) :: view_to_json ~labels:l t))
               (label_sets t)) );
      ])

(* --- Prometheus text exposition ---

   Counters become [dsm_<name>_total] (counter type); duration series
   become histograms in microseconds whose cumulative [_bucket{le=...}]
   lines sit at the upper edges of the occupied sketch buckets, closed by
   [le="+Inf"], [_sum] and [_count].  Every series shares the sketch's
   fixed edges, so scrapes aggregate across nodes with histogram_quantile.
   The node and protocol labels map straight onto Prometheus labels. *)

let prom_name name =
  let b = Bytes.of_string name in
  Bytes.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> ()
      | _ -> Bytes.set b i '_')
    b;
  let s = Bytes.to_string b in
  if String.length s >= 4 && String.sub s 0 4 = "dsm_" then s else "dsm_" ^ s

let prom_labels ?le l =
  let parts =
    List.concat
      [
        (match l.lbl_node with
        | Some n -> [ Printf.sprintf "node=\"%d\"" n ]
        | None -> []);
        (match l.lbl_protocol with
        | Some p -> [ Printf.sprintf "protocol=\"%s\"" p ]
        | None -> []);
        (match le with
        | Some b -> [ Printf.sprintf "le=\"%s\"" b ]
        | None -> []);
      ]
  in
  match parts with [] -> "" | _ -> "{" ^ String.concat "," parts ^ "}"

let prom_counter_header ppf name =
  let metric = prom_name name ^ "_total" in
  Format.fprintf ppf "# HELP %s Events counted under %S.@." metric name;
  Format.fprintf ppf "# TYPE %s counter@." metric;
  metric

let prometheus_counter ppf name v =
  Format.fprintf ppf "%s %d@." (prom_counter_header ppf name) v

let to_prometheus ppf t =
  let sets = label_sets t in
  List.iter
    (fun name ->
      let metric = prom_counter_header ppf name in
      List.iter
        (fun l ->
          if List.mem name (counter_names ~labels:l t) then
            Format.fprintf ppf "%s%s %d@." metric (prom_labels l) (count ~labels:l t name))
        sets)
    (counter_names t);
  List.iter
    (fun name ->
      let metric = prom_name name ^ "_us" in
      Format.fprintf ppf "# HELP %s Duration of %S in microseconds.@." metric name;
      Format.fprintf ppf "# TYPE %s histogram@." metric;
      List.iter
        (fun l ->
          let cells = span_cells ~labels:l t name in
          let sk = sketch_of cells in
          if Sketch.count sk > 0 then begin
            let bucket le n =
              Format.fprintf ppf "%s_bucket%s %d@." metric (prom_labels ~le l) n
            in
            ignore
              (Sketch.fold_buckets sk
                 (fun upper c cum ->
                   bucket (Printf.sprintf "%g" (upper /. 1e3)) (cum + c);
                   cum + c)
                 0);
            bucket "+Inf" (Sketch.count sk);
            Format.fprintf ppf "%s_sum%s %g@." metric (prom_labels l)
              (Time.to_us (total_of cells));
            Format.fprintf ppf "%s_count%s %d@." metric (prom_labels l) (Sketch.count sk)
          end)
        sets)
    (span_names t)
