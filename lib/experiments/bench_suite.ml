(* The macro-benchmark observatory (`dsm bench`).

   Where the bechamel suite measures the *host* cost of simulator kernels,
   this suite measures the *simulated* systems themselves: every
   application kernel under a matrix of protocols and drivers, with fixed
   engine tie seeds so the numbers are bit-reproducible on any machine.
   Each (app, protocol, driver) case runs once per seed and records the
   virtual-time wall clock, message/byte counts, fault counts and the
   fault-latency tail from the runtime's Stats registry; the repeated-seed
   spread is the noise bound `dsm diff` uses to decide whether a delta is
   signal.  The whole result serializes to the stable, self-describing
   BENCH_macro.json schema (see {!schema_version}). *)

open Dsmpm2_sim
open Dsmpm2_net
open Dsmpm2_core

let schema_version = "dsm-bench-macro/1"
let default_seeds = [ 0; 1; 2 ]

(* --- cases --- *)

type case = {
  c_id : string;
  c_app : string;
  c_protocol : string;
  c_driver : string;
  c_nodes : int;
  c_params : (string * int) list;
  c_quick : bool;
}

type sample = {
  s_seed : int;
  s_time_us : float;
  s_messages : int;
  s_bytes : int;
  s_read_faults : int;
  s_write_faults : int;
  s_dropped : int;  (* messages lost to fault injection *)
  s_rpc_retries : int;  (* RPC retransmissions after deadline expiry *)
  s_events : int;  (* engine events executed: the host work, counted *)
  s_fault_p50_us : float;
  s_fault_p90_us : float;
  s_fault_p99_us : float;
  s_fault_p999_us : float;
}

type case_result = {
  cr_case : case;
  cr_meta : Run_meta.t;
  cr_samples : sample list;
}

type t = { bs_meta : Run_meta.t; bs_results : case_result list }

(* Driver names contain '/' (e.g. "BIP/Myrinet"); flatten them so case ids
   stay filesystem- and filter-friendly. *)
let slug s =
  String.map (fun c -> if c = '/' then '-' else Char.lowercase_ascii c) s

let make_id ~app ~protocol ~driver = Printf.sprintf "%s:%s:%s" app protocol (slug driver)

let case ?(nodes = 4) ?(params = []) ?(quick = false) ~app ~protocol driver =
  {
    c_id = make_id ~app ~protocol ~driver:driver.Driver.name;
    c_app = app;
    c_protocol = protocol;
    c_driver = driver.Driver.name;
    c_nodes = nodes;
    c_params = params;
    c_quick = quick;
  }

(* The committed matrix.  Sizes are deliberately small — a full sweep is a
   couple of minutes of host time — and FIXED: the same case id must mean
   the same workload forever, or baselines silently stop being comparable.
   Grow the matrix by adding cases, not by editing existing ones.

   jacobi and tsp run on two drivers (they are the ROADMAP's scale-out and
   adaptivity yardsticks); the rest pin one driver each to bound suite
   time.  `quick = true` marks the CI smoke subset. *)
let cases () =
  let j = [ ("size", 32); ("iterations", 4) ] in
  let t = [ ("cities", 12) ] in
  List.concat
    [
      List.map
        (fun (protocol, quick) ->
          case ~app:"jacobi" ~params:j ~quick ~protocol Driver.bip_myrinet)
        [ ("hbrc_mw", true); ("li_hudak_fixed", true); ("write_update", false);
          ("erc_sw", false) ];
      List.map
        (fun protocol -> case ~app:"jacobi" ~params:j ~protocol Driver.sisci_sci)
        [ "hbrc_mw"; "li_hudak_fixed"; "write_update"; "erc_sw" ];
      List.map
        (fun (protocol, quick) ->
          case ~app:"tsp" ~params:t ~quick ~protocol Driver.bip_myrinet)
        [ ("li_hudak", true); ("migrate_thread", true); ("hbrc_mw", false) ];
      List.map
        (fun protocol -> case ~app:"tsp" ~params:t ~protocol Driver.sisci_sci)
        [ "li_hudak"; "migrate_thread"; "hbrc_mw" ];
      List.map
        (fun protocol -> case ~app:"coloring" ~protocol Driver.sisci_sci)
        [ "java_pf"; "java_ic" ];
      List.map
        (fun protocol ->
          case ~app:"lu" ~params:[ ("size", 24) ] ~protocol Driver.bip_myrinet)
        [ "li_hudak_fixed"; "hbrc_mw" ];
      List.map
        (fun protocol ->
          case ~app:"matmul" ~params:[ ("size", 16) ] ~protocol Driver.bip_myrinet)
        [ "li_hudak"; "write_update" ];
      List.map
        (fun protocol ->
          case
            ~app:"sort"
            ~params:[ ("elements_per_node", 48) ]
            ~protocol Driver.tcp_fast_ethernet)
        [ "li_hudak_fixed"; "erc_sw" ];
    ]

(* --- running one case --- *)

let driver_of case =
  match Driver.by_name case.c_driver with
  | Some d -> d
  | None -> invalid_arg (Printf.sprintf "Bench_suite: unknown driver %S" case.c_driver)

(* Runs the case's app once under one tie seed, returning the finished
   runtime. *)
let run_app case ~seed =
  let app =
    match Dsmpm2_apps.Catalog.find case.c_app with
    | Some app -> app
    | None -> invalid_arg (Printf.sprintf "Bench_suite: unknown app %S" case.c_app)
  in
  fst
    (app.run ~protocol:case.c_protocol ~nodes:case.c_nodes ~driver:(driver_of case)
       ~tie_seed:seed ~observe:ignore case.c_params)

let measure case ~seed =
  let dsm = run_app case ~seed in
  let stats = Dsm.stats dsm in
  let net = Dsmpm2_pm2.Pm2.network (Dsm.pm2 dsm) in
  let pct p = Time.to_us (Stats.span_percentile stats Instrument.stage_total p) in
  {
    s_seed = seed;
    s_time_us = Dsm.now_us dsm;
    s_messages = Network.messages_sent net;
    s_bytes = Network.bytes_sent net;
    s_read_faults = Stats.count stats Instrument.read_faults;
    s_write_faults = Stats.count stats Instrument.write_faults;
    s_dropped = Network.messages_dropped net;
    s_rpc_retries = Dsmpm2_pm2.Rpc.retransmissions (Dsmpm2_pm2.Pm2.rpc (Dsm.pm2 dsm));
    s_events = Engine.events_executed (Dsm.engine dsm);
    s_fault_p50_us = pct 50.;
    s_fault_p90_us = pct 90.;
    s_fault_p99_us = pct 99.;
    s_fault_p999_us = pct 99.9;
  }

let case_meta case =
  Run_meta.with_git
    (Run_meta.v ~driver:case.c_driver ~protocol:case.c_protocol
       ~nodes:case.c_nodes ~case:case.c_id ())

let run_case ?(seeds = default_seeds) case =
  {
    cr_case = case;
    cr_meta = case_meta case;
    cr_samples = List.map (fun seed -> measure case ~seed) seeds;
  }

(* --- the sweep --- *)

let filter_cases ?filter ?(quick = false) all =
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
    n = 0 || at 0
  in
  List.filter
    (fun c ->
      ((not quick) || c.c_quick)
      && match filter with None -> true | Some sub -> contains ~sub c.c_id)
    all

let run ?(seeds = default_seeds) ?filter ?(quick = false)
    ?(progress = fun _ -> ()) () =
  let selected = filter_cases ?filter ~quick (cases ()) in
  let results =
    List.map
      (fun c ->
        let r = run_case ~seeds c in
        progress r;
        r)
      selected
  in
  { bs_meta = Run_meta.with_git (Run_meta.v ()); bs_results = results }

(* --- aggregates (shared with the differ) --- *)

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.
  | xs ->
      let m = mean xs in
      sqrt (mean (List.map (fun x -> (x -. m) ** 2.) xs))

let metric_names =
  [
    "time_us"; "messages"; "bytes"; "read_faults"; "write_faults";
    "dropped"; "rpc_retries";
    "fault_p50_us"; "fault_p90_us"; "fault_p99_us"; "fault_p999_us"; "events";
  ]

let metric name s =
  match name with
  | "time_us" -> s.s_time_us
  | "messages" -> float_of_int s.s_messages
  | "bytes" -> float_of_int s.s_bytes
  | "read_faults" -> float_of_int s.s_read_faults
  | "write_faults" -> float_of_int s.s_write_faults
  | "dropped" -> float_of_int s.s_dropped
  | "rpc_retries" -> float_of_int s.s_rpc_retries
  | "fault_p50_us" -> s.s_fault_p50_us
  | "fault_p90_us" -> s.s_fault_p90_us
  | "fault_p99_us" -> s.s_fault_p99_us
  | "fault_p999_us" -> s.s_fault_p999_us
  | "events" -> float_of_int s.s_events
  | _ -> invalid_arg (Printf.sprintf "Bench_suite.metric: unknown metric %S" name)

let metric_mean cr name = mean (List.map (metric name) cr.cr_samples)
let metric_stddev cr name = stddev (List.map (metric name) cr.cr_samples)

(* --- JSON --- *)

let sample_to_json s =
  Json.Obj
    [
      ("seed", Json.Int s.s_seed);
      ("time_us", Json.Float s.s_time_us);
      ("messages", Json.Int s.s_messages);
      ("bytes", Json.Int s.s_bytes);
      ("read_faults", Json.Int s.s_read_faults);
      ("write_faults", Json.Int s.s_write_faults);
      ("dropped", Json.Int s.s_dropped);
      ("rpc_retries", Json.Int s.s_rpc_retries);
      ("fault_p50_us", Json.Float s.s_fault_p50_us);
      ("fault_p90_us", Json.Float s.s_fault_p90_us);
      ("fault_p99_us", Json.Float s.s_fault_p99_us);
      ("fault_p999_us", Json.Float s.s_fault_p999_us);
      ("events", Json.Int s.s_events);
    ]

let case_result_to_json cr =
  let c = cr.cr_case in
  Json.Obj
    [
      ("id", Json.String c.c_id);
      ("app", Json.String c.c_app);
      ("protocol", Json.String c.c_protocol);
      ("driver", Json.String c.c_driver);
      ("nodes", Json.Int c.c_nodes);
      ("quick", Json.Bool c.c_quick);
      ("params", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) c.c_params));
      ("meta", Run_meta.to_json cr.cr_meta);
      ("samples", Json.List (List.map sample_to_json cr.cr_samples));
    ]

let to_json t =
  Json.Obj
    [
      ("schema", Json.String schema_version);
      ("meta", Run_meta.to_json t.bs_meta);
      ("cases", Json.List (List.map case_result_to_json t.bs_results));
    ]

(* --- parsing (the differ loads baselines through this) --- *)

let ( let* ) = Option.bind

let sample_of_json j =
  let int name = Option.bind (Json.member name j) Json.to_int in
  let flt name = Option.bind (Json.member name j) Json.to_float in
  let* s_seed = int "seed" in
  let* s_time_us = flt "time_us" in
  let* s_messages = int "messages" in
  let* s_bytes = int "bytes" in
  let* s_read_faults = int "read_faults" in
  let* s_write_faults = int "write_faults" in
  (* Fault counters joined the schema after the first baselines were
     committed; absent means a fault-free run, so default to zero. *)
  let s_dropped = Option.value (int "dropped") ~default:0 in
  let s_rpc_retries = Option.value (int "rpc_retries") ~default:0 in
  let* s_fault_p50_us = flt "fault_p50_us" in
  let* s_fault_p90_us = flt "fault_p90_us" in
  let* s_fault_p99_us = flt "fault_p99_us" in
  (* p99.9 and the event count joined after the first baselines; absent
     means zero. *)
  let s_fault_p999_us = Option.value (flt "fault_p999_us") ~default:0. in
  let s_events = Option.value (int "events") ~default:0 in
  Some
    {
      s_seed;
      s_time_us;
      s_messages;
      s_bytes;
      s_read_faults;
      s_write_faults;
      s_dropped;
      s_rpc_retries;
      s_events;
      s_fault_p50_us;
      s_fault_p90_us;
      s_fault_p99_us;
      s_fault_p999_us;
    }

let case_result_of_json j =
  let str name = Option.bind (Json.member name j) Json.to_str in
  let int name = Option.bind (Json.member name j) Json.to_int in
  let* c_id = str "id" in
  let* c_app = str "app" in
  let* c_protocol = str "protocol" in
  let* c_driver = str "driver" in
  let* c_nodes = int "nodes" in
  let c_quick =
    match Option.bind (Json.member "quick" j) Json.to_bool with
    | Some b -> b
    | None -> false
  in
  let* c_params =
    match Json.member "params" j with
    | Some (Json.Obj kvs) ->
        List.fold_left
          (fun acc (k, v) ->
            let* acc = acc in
            let* v = Json.to_int v in
            Some ((k, v) :: acc))
          (Some []) kvs
        |> Option.map List.rev
    | _ -> Some []
  in
  let* meta_json = Json.member "meta" j in
  let* cr_meta = Result.to_option (Run_meta.of_json meta_json) in
  let* samples_json = Option.bind (Json.member "samples" j) Json.to_list in
  let* cr_samples =
    List.fold_left
      (fun acc sj ->
        let* acc = acc in
        let* s = sample_of_json sj in
        Some (s :: acc))
      (Some []) samples_json
    |> Option.map List.rev
  in
  Some
    {
      cr_case =
        { c_id; c_app; c_protocol; c_driver; c_nodes; c_params; c_quick };
      cr_meta;
      cr_samples;
    }

let of_json j =
  match Option.bind (Json.member "schema" j) Json.to_str with
  | None -> Error "not a macro-bench snapshot (no schema field)"
  | Some s when s <> schema_version ->
      Error
        (Printf.sprintf "unsupported schema %S (this build reads %S)" s
           schema_version)
  | Some _ -> (
      let meta =
        match Json.member "meta" j with
        | Some mj -> Run_meta.of_json mj
        | None -> Ok Run_meta.empty
      in
      match meta with
      | Error msg -> Error msg
      | Ok bs_meta -> (
          match Option.bind (Json.member "cases" j) Json.to_list with
          | None -> Error "no cases array"
          | Some cs -> (
              let rec parse acc i = function
                | [] -> Ok { bs_meta; bs_results = List.rev acc }
                | cj :: rest -> (
                    match case_result_of_json cj with
                    | Some cr -> parse (cr :: acc) (i + 1) rest
                    | None -> Error (Printf.sprintf "malformed case at index %d" i))
              in
              parse [] 0 cs)))

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error (Printf.sprintf "%s: %s" path msg)
  | contents -> (
      match Json.of_string contents with
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
      | Ok j -> (
          match of_json j with
          | Ok t -> Ok t
          | Error msg -> Error (Printf.sprintf "%s: %s" path msg)))

(* --- report --- *)

let print ppf t =
  Format.fprintf ppf "%-38s %5s %12s %10s %10s %8s %12s@." "case" "runs"
    "time(us)" "±σ" "msgs" "faults" "fault p99(us)";
  List.iter
    (fun cr ->
      let faults =
        metric_mean cr "read_faults" +. metric_mean cr "write_faults"
      in
      Format.fprintf ppf "%-38s %5d %12.1f %10.1f %10.0f %8.0f %12.1f@."
        cr.cr_case.c_id
        (List.length cr.cr_samples)
        (metric_mean cr "time_us")
        (metric_stddev cr "time_us")
        (metric_mean cr "messages")
        faults
        (metric_mean cr "fault_p99_us"))
    t.bs_results
