(* The macro-benchmark observatory: the `bench` entry of Paper.experiments.

   Where the bechamel suite measures the *host* cost of simulator kernels,
   this suite measures the *simulated* systems themselves: every
   application kernel under a matrix of protocols and drivers, with fixed
   engine tie seeds so the numbers are bit-reproducible on any machine.
   Each (app, protocol, driver) case runs once per seed and records the
   virtual-time wall clock, message/byte counts, fault counts and the
   fault-latency tail from the runtime's Stats registry, every one an
   integer (times in ns).  The results leave as rows, one per case and
   seed (see {!rows}), in BENCH_paper.json beside every other
   experiment's. *)

open Dsmpm2_sim
open Dsmpm2_net
open Dsmpm2_core

let default_seeds = [ 0; 1; 2 ]

(* --- cases --- *)

type case = {
  c_id : string;
  c_app : string;
  c_protocol : string;
  c_driver : Driver.t;
  c_nodes : int;
  c_params : (string * int) list;
}

type sample = { s_seed : int; s_values : int array }

type case_result = { cr_case : case; cr_samples : sample list }
type t = case_result list

let case ?(nodes = 4) ?(params = []) ~app ~protocol driver =
  {
    c_id = Printf.sprintf "%s:%s:%s" app protocol (Driver.slug driver.Driver.name);
    c_app = app;
    c_protocol = protocol;
    c_driver = driver;
    c_nodes = nodes;
    c_params = params;
  }

(* The committed matrix.  Sizes are deliberately small — the whole sweep,
   every case under every default seed, takes about 1.5 s of host time —
   and FIXED: the same case id must mean the same workload forever, or
   baselines silently stop being comparable.  Grow the matrix by adding
   cases, not by editing existing ones.

   jacobi and tsp run on two drivers (they are the ROADMAP's scale-out and
   adaptivity yardsticks); the rest pin one driver each to bound suite
   time. *)
let cases () =
  let j = [ ("size", 32); ("iterations", 4) ] in
  let t = [ ("cities", 12) ] in
  List.concat
    [
      List.map
        (fun protocol -> case ~app:"jacobi" ~params:j ~protocol Driver.bip_myrinet)
        [ "hbrc_mw"; "li_hudak_fixed"; "write_update"; "erc_sw" ];
      List.map
        (fun protocol -> case ~app:"jacobi" ~params:j ~protocol Driver.sisci_sci)
        [ "hbrc_mw"; "li_hudak_fixed"; "write_update"; "erc_sw" ];
      List.map
        (fun protocol -> case ~app:"tsp" ~params:t ~protocol Driver.bip_myrinet)
        [ "li_hudak"; "migrate_thread"; "hbrc_mw" ];
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

(* Runs the case's app once under one tie seed, returning the finished
   runtime. *)
let run_app case ~seed =
  let app =
    match Dsmpm2_apps.Catalog.find case.c_app with
    | Some app -> app
    | None -> invalid_arg (Printf.sprintf "Bench_suite: unknown app %S" case.c_app)
  in
  fst
    (app.run ~protocol:case.c_protocol ~nodes:case.c_nodes ~driver:case.c_driver
       ~tie_seed:seed ~observe:ignore case.c_params)

(* Every sample field with its reader over the finished runtime and its
   whole-fault latency histogram, in row order: the one place the field
   list is written. *)
let metrics : (string * (Dsm.t -> Sketch.t -> int)) list =
  let net dsm = Dsmpm2_pm2.Pm2.network (Dsm.pm2 dsm) in
  let count name dsm _ = Stats.count (Dsm.stats dsm) name in
  let pct p _ faults = Sketch.percentile faults p in
  [
    ("time_ns", fun dsm _ -> Engine.now (Dsm.engine dsm));
    ("messages", fun dsm _ -> Network.messages_sent (net dsm));
    ("bytes", fun dsm _ -> Network.bytes_sent (net dsm));
    ("read_faults", count Instrument.read_faults);
    ("write_faults", count Instrument.write_faults);
    ("dropped", fun dsm _ -> Network.messages_dropped (net dsm));
    ( "rpc_retries",
      fun dsm _ -> Dsmpm2_pm2.Rpc.retransmissions (Dsmpm2_pm2.Pm2.rpc (Dsm.pm2 dsm)) );
    ("fault_p50_ns", pct 50.);
    ("fault_p90_ns", pct 90.);
    ("fault_p99_ns", pct 99.);
    ("fault_p999_ns", pct 99.9);
    ("events", fun dsm _ -> Engine.events_executed (Dsm.engine dsm));
  ]

let metric_names = List.map fst metrics

(* The registry's fault histogram is merged across its cells once per
   sample, not once per percentile. *)
let measure case ~seed =
  let dsm = run_app case ~seed in
  let faults = Stats.span_sketch (Dsm.stats dsm) Instrument.stage_total in
  { s_seed = seed; s_values = Array.of_list (List.map (fun (_, read) -> read dsm faults) metrics) }

let run_case ?(seeds = default_seeds) case =
  { cr_case = case; cr_samples = List.map (fun seed -> measure case ~seed) seeds }

let run () = List.map (fun c -> run_case c) (cases ())

(* --- aggregates --- *)

let metric name s =
  match List.find_index (String.equal name) metric_names with
  | Some i -> s.s_values.(i)
  | None -> invalid_arg (Printf.sprintf "Bench_suite.metric: unknown metric %S" name)

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let values cr name = List.map (fun s -> float_of_int (metric name s)) cr.cr_samples
let metric_mean cr name = mean (values cr name)

(* --- rows --- *)

let rows t =
  List.concat_map
    (fun cr ->
      let c = cr.cr_case in
      List.map
        (fun s ->
          ( Printf.sprintf "bench/%s/seed%d" c.c_id s.s_seed,
            (("nodes", c.c_nodes) :: c.c_params)
            @ List.combine metric_names (Array.to_list s.s_values) ))
        cr.cr_samples)
    t

(* --- report --- *)

let print ppf t =
  Format.fprintf ppf "%-38s %5s %12s %10s %10s %8s %12s@." "case" "runs"
    "time(us)" "±σ" "msgs" "faults" "fault p99(us)";
  List.iter
    (fun cr ->
      let time = List.map (fun ns -> ns /. 1000.) (values cr "time_ns") in
      let m = mean time in
      Format.fprintf ppf "%-38s %5d %12.1f %10.1f %10.0f %8.0f %12.1f@."
        cr.cr_case.c_id
        (List.length cr.cr_samples)
        m
        (sqrt (mean (List.map (fun x -> (x -. m) ** 2.) time)))
        (metric_mean cr "messages")
        (metric_mean cr "read_faults" +. metric_mean cr "write_faults")
        (metric_mean cr "fault_p99_ns" /. 1000.))
    t
