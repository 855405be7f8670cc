(* End-to-end benchmark of the simulator's host cost, one workload per
   process.

     dune exec bench/e2e/e2e.exe -- --workload jacobi-hbrc --seed 0
     dune exec bench/e2e/e2e.exe -- --workload jacobi-wu --trace 1 --trace-out spans.json

   A run builds the workload's runtime many times to price set-up, then
   runs the whole application ([App.run]) in a closed loop for [--seconds]
   of wall time, one simulation at a time, cycling through the tie seeds
   [--seed] picks.  Every run is checked against the application's
   sequential oracle, and every repeat at a tie seed must reproduce that
   seed's first run's simulated metrics exactly.

   [--trace 0] reports the end-to-end metrics on two clocks: host (CPU
   time per run, set-up time, peak memory) and simulated (completion time,
   messages).  [--trace 1] reports per-layer metrics instead: the layer
   counters of one traced run, the per-call prices of a ladder of public
   functions, and an attribution of host time to layers (count x price).

   The benchmark only calls public functions and measures every layer from
   outside.  The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}. *)

open Dsmpm2_sim
open Dsmpm2_net
open Dsmpm2_pm2
open Dsmpm2_mem
open Dsmpm2_core
open Dsmpm2_protocols
open Dsmpm2_apps
module Hyperion = Dsmpm2_hyperion.Hyperion

(* Every host time is process CPU time (user + system).  The simulation is
   single-threaded and does no I/O, so on an idle core this is its wall
   time; unlike wall time it leaves out the time the process waited for a
   core other processes held, the main run-to-run noise on a shared
   machine.  Run budgets ([--seconds]) are wall time. *)
let now = Sys.time
let wall = Unix.gettimeofday

(* --- host speed ---

   The shared host the benchmark was sized on changes speed by up to 20%
   over minutes, CPU time included: two consecutive processes ran
   jacobi-wu in a median 0.61 s and 0.84 s.  So every host time is set
   against a fixed reference computation timed just before it, and is
   reported scaled to a host on which that computation takes
   [reference_s].  The computation is the benchmark's own code and calls
   no library code, so a change to the simulator moves only the time set
   against it.  Over ten jacobi-wu processes this cut the interquartile
   range of host_s from 6.4% to 3.0% of the median. *)

let reference_s = 0.05

let reference_table = Array.make 4096 0

(* Fills, sorts and walks a small table.  It allocates nothing, so its
   time does not depend on the garbage the simulation left behind. *)
let reference_work () =
  let a = reference_table and x = ref 12345 and acc = ref 0 in
  for _ = 1 to 40 do
    for i = 0 to 4095 do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      a.(i) <- !x
    done;
    Array.sort compare a;
    let j = ref 0 in
    for _ = 0 to 4095 do
      j := a.(!j) land 4095;
      acc := !acc + !j
    done
  done;
  ignore (Sys.opaque_identity !acc)

(* The factor that scales a host time measured now to the reference host. *)
let speed () =
  let t0 = now () in
  reference_work ();
  reference_s /. (now () -. t0)

(* --- statistics --- *)

(* Linear interpolation between closest ranks; [xs] must be non-empty. *)
let quantile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let pos = p *. float_of_int (Array.length a - 1) in
  let i = int_of_float pos in
  if i + 1 >= Array.length a then a.(i)
  else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* --- workloads --- *)

type app = Jacobi of Jacobi.config | Coloring of Map_coloring.config

type workload = { name : string; app : app; observed : bool }

type sizes = {
  hbrc_size : int;
  hbrc_iterations : int;
  wu_size : int;
  wu_iterations : int;
  color_costs : int array;
}

(* One [App.run] takes about a second of host time at these sizes, so a
   run of the benchmark holds enough repeats for a steady median.  The
   colour costs shrink the branch-and-bound search of the paper's
   1-2-3-4 costs (about 6 s per run) to the same scale. *)
let full =
  {
    hbrc_size = 200;
    hbrc_iterations = 16;
    wu_size = 48;
    wu_iterations = 16;
    color_costs = [| 1; 2; 3; 6 |];
  }

let quick =
  {
    hbrc_size = 40;
    hbrc_iterations = 2;
    wu_size = 16;
    wu_iterations = 2;
    color_costs = [| 1; 1; 1; 1 |];
  }

let workloads s =
  let wu =
    Jacobi
      {
        Jacobi.default with
        size = s.wu_size;
        iterations = s.wu_iterations;
        nodes = 8;
        driver = Driver.bip_myrinet;
        protocol = "write_update";
      }
  in
  [
    {
      name = "jacobi-hbrc";
      observed = false;
      app =
        Jacobi
          {
            Jacobi.default with
            size = s.hbrc_size;
            iterations = s.hbrc_iterations;
            nodes = 4;
            driver = Driver.bip_myrinet;
            protocol = "hbrc_mw";
          };
    };
    {
      name = "coloring-java-ic";
      observed = false;
      app =
        Coloring
          {
            Map_coloring.default with
            nodes = 4;
            driver = Driver.sisci_sci;
            protocol = "java_ic";
            color_costs = s.color_costs;
          };
    };
    { name = "jacobi-wu"; observed = false; app = wu };
    { name = "jacobi-wu-observed"; observed = true; app = wu };
  ]

(* A run of the benchmark samples several legal interleavings of its
   workload: the tie seeds [seed * interleavings + k].  Its simulated
   metrics are their means, so that how far one schedule falls from the
   typical one stays out of the spread between runs (coloring-java-ic's
   messages range from 518 to 550 over tie seeds 0 to 47). *)
let interleavings = 4
let tie_seeds seed = Array.init interleavings (fun k -> (seed * interleavings) + k)

let app_nodes = function Jacobi c -> c.Jacobi.nodes | Coloring c -> c.Map_coloring.nodes

let app_driver = function
  | Jacobi c -> c.Jacobi.driver
  | Coloring c -> c.Map_coloring.driver

let oracle = function
  | Jacobi c -> Jacobi.checksum_sequential ~size:c.Jacobi.size ~iterations:c.Jacobi.iterations
  | Coloring c -> Map_coloring.solve_sequential ~color_costs:c.Map_coloring.color_costs ()

(* The stack `dsm watch` and `dsm top` run: monitoring on, a bounded
   flight-recorder ring, online telemetry and the watchdog. *)
let trace_ring = 4096

let attach_observability dsm =
  Monitor.enable dsm true;
  Trace.set_capacity (Monitor.trace dsm) trace_ring;
  ignore (Telemetry.attach dsm);
  Watchdog.attach dsm

(* --- one application run --- *)

type answer = { sim_ms : float; messages : int; value : int; gets : int }

type run = {
  host_s : float;
  setup_s : float;  (** [App.run] entry to the [observe] hook *)
  outcome : (answer, string) result;
  dsm : Dsm.t option;
  watchdog : Watchdog.t option;
  minor_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

let run_app ~seed ~observed app =
  let hooked = ref 0. and captured = ref None and wd = ref None in
  let observe dsm =
    hooked := now ();
    captured := Some dsm;
    if observed then wd := Some (attach_observability dsm)
  in
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let outcome =
    match app with
    | Jacobi c -> (
        match Jacobi.run { c with tie_seed = Some seed; observe = Some observe } with
        | r ->
            Ok
              {
                sim_ms = r.Jacobi.time_ms;
                messages = r.Jacobi.messages;
                value = r.Jacobi.checksum;
                gets = 0;
              }
        | exception e -> Error (Printexc.to_string e))
    | Coloring c -> (
        match
          Map_coloring.run { c with tie_seed = Some seed; observe = Some observe }
        with
        | r ->
            Ok
              {
                sim_ms = r.Map_coloring.time_ms;
                messages = r.Map_coloring.messages;
                value = r.Map_coloring.best_cost;
                gets = r.Map_coloring.gets;
              }
        | exception e -> Error (Printexc.to_string e))
  in
  let t1 = now () in
  let g1 = Gc.quick_stat () in
  {
    host_s = t1 -. t0;
    setup_s = (if !hooked > 0. then !hooked -. t0 else 0.);
    outcome;
    dsm = !captured;
    watchdog = !wd;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major_words = g1.Gc.major_words -. g0.Gc.major_words;
    minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
  }

(* The simulated counters of the [core] and [net] layers: deterministic for
   a seed, and untouched by attaching observability. *)
let sim_counts dsm =
  let st = Dsm.stats dsm in
  let net = Pm2.network (Dsm.pm2 dsm) in
  let nst = Network.stats net in
  [
    ("core.read_faults", Stats.count st Instrument.read_faults);
    ("core.write_faults", Stats.count st Instrument.write_faults);
    ("core.pages_sent", Stats.count st Instrument.pages_sent);
    ("core.invalidations", Stats.count st Instrument.invalidations);
    ("core.invalidate_rpcs", Stats.count st Instrument.invalidate_rpcs);
    ("core.inline_checks", Stats.count st Instrument.inline_checks);
    ("core.check_misses", Stats.count st Instrument.check_misses);
    ("mem.diffs", Stats.count st Instrument.diffs_sent);
    ("mem.diff_bytes", Stats.count st Instrument.diff_bytes);
    ("net.messages", Network.messages_sent net);
    ("net.bytes", Network.bytes_sent net);
    ("net.loopback", Network.loopback_sent net);
    ("net.dropped", Network.messages_dropped net);
    ("net.msg.null_rpc", Stats.count nst "msg.null_rpc");
    ("net.msg.request", Stats.count nst "msg.request");
    ("net.msg.bulk", Stats.count nst "msg.bulk");
    ("net.msg.migration", Stats.count nst "msg.migration");
  ]

type fingerprint = { fp_sim_ms : float; fp_messages : int; fp_counts : (string * int) list }

let fingerprint run =
  match (run.outcome, run.dsm) with
  | Ok a, Some dsm ->
      Some { fp_sim_ms = a.sim_ms; fp_messages = a.messages; fp_counts = sim_counts dsm }
  | _ -> None

(* Why a run failed, or [None]: it raised (Rpc.Timeout, Engine.Stalled,
   Dsm.Fault_storm, ...), disagreed with the oracle, or did not reproduce
   the reference run's simulated metrics. *)
let check ~expected ~reference run =
  match run.outcome with
  | Error e -> Some ("raised " ^ e)
  | Ok a when a.value <> expected ->
      Some (Printf.sprintf "result %d, sequential oracle %d" a.value expected)
  | Ok _ -> (
      match (reference, fingerprint run) with
      | Some r, Some fp when r <> fp ->
          let differing =
            List.filter_map
              (fun ((k, v), (_, v')) -> if v <> v' then Some k else None)
              (List.combine r.fp_counts fp.fp_counts)
          in
          Some
            (Printf.sprintf "simulated metrics differ from the reference run (%s)"
               (String.concat ", "
                  ((if r.fp_sim_ms <> fp.fp_sim_ms then [ "sim_ms" ] else [])
                  @ (if r.fp_messages <> fp.fp_messages then [ "messages" ] else [])
                  @ differing)))
      | _ -> None)

(* --- set-up --- *)

let build w ~seed =
  let dsm = Dsm.create ~tie_seed:seed ~nodes:(app_nodes w.app) ~driver:(app_driver w.app) () in
  ignore (Builtin.register_all dsm);
  ignore (Builtin.register_extras dsm);
  if w.observed then ignore (attach_observability dsm)

(* Per-build times, scaled to the reference host, of [batches] batches of
   builds after a warm-up batch.  A build takes tens of microseconds, so a
   batch of them is what the clock times. *)
let measure_setup w ~seed ~batches =
  let per_batch = 500 in
  let batch () =
    let s = speed () in
    let t0 = now () in
    for _ = 1 to per_batch do build w ~seed done;
    (now () -. t0) *. s /. float_of_int per_batch
  in
  ignore (batch ());
  List.init batches (fun _ -> batch ())

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* --- spans: kept in memory, written at exit --- *)

type span = { id : int; parent : int; sname : string; start : float; mutable stop : float }

let spans : span list ref = ref []

let span_add ~parent sname start stop =
  let s = { id = List.length !spans; parent; sname; start; stop } in
  spans := s :: !spans;
  s

let span_open ?(parent = -1) sname = span_add ~parent sname (now ()) nan

let span_close s = s.stop <- now ()

let with_span ?parent sname f =
  let s = span_open ?parent sname in
  Fun.protect ~finally:(fun () -> span_close s) f

let write_spans file =
  let oc = open_out file in
  let t0 = List.fold_left (fun a s -> Float.min a s.start) infinity !spans in
  let events =
    List.rev_map
      (fun s ->
        Printf.sprintf
          "{\"name\":%S,\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
          s.sname
          ((s.start -. t0) *. 1e6)
          ((s.stop -. s.start) *. 1e6)
          s.id s.parent)
      !spans
  in
  output_string oc ("{\"traceEvents\":[\n" ^ String.concat ",\n" events ^ "\n]}\n");
  close_out oc

(* --- the layer ladder ---

   Each rung prices one public function per call, on a runtime built
   before the clock starts.  Calls that schedule events run as [depth]
   concurrent chains, so the event queue stays at a steady depth of about
   [depth] (queue cost grows with depth: a deep queue would price the heap,
   not the call).  A rung also counts the engine events, messages and RPC
   calls each call caused, so the attribution can subtract lower layers
   from a rung's price. *)

let depth = 16

type sample = { secs : float; calls : int; events : int; msgs : int; rpcs : int }

let pure secs calls = { secs; calls; events = 0; msgs = 0; rpcs = 0 }

type price = { ns : float; ev_per_call : float; msg_per_call : float; rpc_per_call : float }

(* Doubles [n] from 256 until [n] calls take [chunk] seconds (or [n]
   reaches [max_calls]). *)
let calibrate ~chunk ?(max_calls = 1 lsl 24) measure =
  let rec go n =
    if n >= max_calls || (measure n).secs >= chunk then n else go (min max_calls (2 * n))
  in
  go 256

(* Medians over a rung's chunks. *)
let price_of samples =
  let per f = List.map (fun s -> float_of_int (f s) /. float_of_int s.calls) samples in
  {
    ns = median (List.map (fun s -> s.secs *. 1e9 /. float_of_int s.calls) samples);
    ev_per_call = median (per (fun s -> s.events));
    msg_per_call = median (per (fun s -> s.msgs));
    rpc_per_call = median (per (fun s -> s.rpcs));
  }

let driver = Driver.bip_myrinet

let new_dsm ~seed ~nodes =
  let dsm = Dsm.create ~tie_seed:seed ~nodes ~driver () in
  let ids = Builtin.register_all dsm in
  let extras = Builtin.register_extras dsm in
  (dsm, ids, extras)

(* Runs [body] in one thread on node 0 of a built runtime; only the loop
   inside [body] is timed. *)
let in_thread dsm body =
  let secs = ref 0. in
  ignore
    (Dsm.spawn dsm ~node:0 (fun () ->
         body 16;
         let t0 = now () in
         body 0;
         secs := now () -. t0));
  Dsm.run dsm;
  !secs

let rung_engine_event ~seed n =
  let eng = Engine.create ~tie_seed:seed () in
  let left = ref n in
  let rec tick () =
    if !left > 0 then begin
      decr left;
      Engine.after eng (Time.of_ns 1) tick
    end
  in
  for _ = 1 to depth do Engine.after eng Time.zero tick done;
  let t0 = now () in
  Engine.run eng;
  { (pure (now () -. t0) n) with events = Engine.events_executed eng }

(* Runs a built runtime to completion, counting what its [calls] caused. *)
let timed_run dsm calls =
  let pm2 = Dsm.pm2 dsm in
  let net = Pm2.network pm2 in
  let events () = Engine.events_executed (Dsm.engine dsm)
  and msgs () = Network.messages_sent net + Network.loopback_sent net
  and rpcs () = Rpc.calls_made (Pm2.rpc pm2) in
  let events0 = events () and msgs0 = msgs () and rpcs0 = rpcs () in
  let t0 = now () in
  Dsm.run dsm;
  let secs = now () -. t0 in
  { secs; calls; events = events () - events0; msgs = msgs () - msgs0; rpcs = rpcs () - rpcs0 }

let rung_marcel_yield ~seed n =
  let dsm, _, _ = new_dsm ~seed ~nodes:2 in
  let marcel = Pm2.marcel (Dsm.pm2 dsm) in
  let per = max 1 (n / depth) in
  for i = 1 to depth do
    ignore (Dsm.spawn dsm ~node:(i land 1) (fun () -> for _ = 1 to per do Marcel.yield marcel done))
  done;
  timed_run dsm (per * depth)

let rung_pm2_spawn ~seed n =
  let dsm, _, _ = new_dsm ~seed ~nodes:2 in
  let pm2 = Dsm.pm2 dsm in
  let left = ref n in
  let rec body () =
    if !left > 0 then begin
      decr left;
      ignore (Pm2.spawn pm2 ~node:0 body)
    end
  in
  for _ = 1 to depth do ignore (Pm2.spawn pm2 ~node:0 body) done;
  timed_run dsm n

let rung_network_send ~seed n =
  let eng = Engine.create ~tie_seed:seed () in
  let net = Network.create eng ~driver ~nodes:2 in
  let left = ref n in
  let rec deliver () =
    if !left > 0 then begin
      decr left;
      Network.send net ~src:0 ~dst:1 ~cost:Driver.Request deliver
    end
  in
  for _ = 1 to depth do Engine.after eng Time.zero deliver done;
  let t0 = now () in
  Engine.run eng;
  {
    (pure (now () -. t0) n) with
    events = Engine.events_executed eng - depth;
    msgs = Network.messages_sent net;
  }

let rung_rpc_call ~seed n =
  let dsm, _, _ = new_dsm ~seed ~nodes:2 in
  let rpc = Pm2.rpc (Dsm.pm2 dsm) in
  let service = Rpc.register rpc ~name:"bench.null" (fun ~src:_ _ -> (Rpc.Unit, Driver.Null_rpc)) in
  let per = max 1 (n / depth) in
  for _ = 1 to depth do
    ignore
      (Dsm.spawn dsm ~node:0 (fun () ->
           for _ = 1 to per do
             ignore (Rpc.call rpc ~dst:1 ~service ~cost:Driver.Null_rpc Rpc.Unit)
           done))
  done;
  timed_run dsm (per * depth)

(* Access hits on a page homed on the calling node. *)
let rung_access ~seed ~protocol access n =
  let dsm, ids, _ = new_dsm ~seed ~nodes:2 in
  let base = Dsm.malloc dsm ~protocol:(protocol ids) ~home:(Dsm.On_node 0) 4096 in
  pure (in_thread dsm (fun warm -> access dsm base (if warm > 0 then warm else n))) n

let reads dsm base n =
  for i = 1 to n do
    ignore (Sys.opaque_identity (Dsm.read_int dsm (base + ((i land 511) * 8))))
  done

let writes dsm base n =
  for i = 1 to n do Dsm.write_int dsm (base + ((i land 511) * 8)) i done

let charges dsm _ n = for _ = 1 to n do Dsm.charge dsm 0.001 done

let rung_hyperion_get ~seed n =
  let dsm, ids, _ = new_dsm ~seed ~nodes:2 in
  let hyp = Hyperion.create dsm ~protocol:ids.Builtin.java_ic in
  let o = Hyperion.new_array hyp ~home:0 ~len:512 () in
  let gets k =
    for i = 1 to k do ignore (Sys.opaque_identity (Hyperion.get hyp o (i land 511))) done
  in
  pure (in_thread dsm (fun warm -> gets (if warm > 0 then warm else n))) n

(* Read faults with a page transfer, under write_update (the protocol of
   jacobi-wu): [depth] threads on node 1 each read their own share of
   fresh pages homed on node 0. *)
let rung_read_fault ~seed n =
  let dsm, _, extras = new_dsm ~seed ~nodes:2 in
  let per = max 1 (n / depth) in
  let page = 4096 in
  let base =
    Dsm.malloc dsm ~protocol:extras.Builtin.write_update ~home:(Dsm.On_node 0)
      (per * depth * page)
  in
  for t = 0 to depth - 1 do
    ignore
      (Dsm.spawn dsm ~node:1 (fun () ->
           for i = 0 to per - 1 do
             ignore (Dsm.read_int dsm (base + (((t * per) + i) * page)))
           done))
  done;
  timed_run dsm (per * depth)

let rung_diff_sparse n =
  let twin = Bytes.make 4096 '\000' in
  let current = Bytes.copy twin in
  List.iter
    (fun off -> Bytes.set_int64_le current off 0x5aL)
    [ 0; 512; 1024; 1536; 2048; 2560; 3072; 4088 ];
  let t0 = now () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Diff.compute ~page:0 ~twin ~current))
  done;
  pure (now () -. t0) n

let rung_frame_read n =
  let fs = Frame_store.create ~geometry:(Page.geometry ~size:4096) in
  Frame_store.write_int fs ~addr:0 1;
  let acc = ref 0 in
  let t0 = now () in
  for i = 1 to n do
    acc := !acc + Frame_store.read_int fs ~addr:((i land 511) * 8)
  done;
  ignore (Sys.opaque_identity !acc);
  pure (now () -. t0) n

(* [Monitor.emit] of a fault's event chain (fault, request, send,
   install), one fresh span per chain: off, and on with the observed
   workloads' ring and telemetry. *)
let rung_emit ~seed ~on n =
  let dsm, _, _ = new_dsm ~seed ~nodes:2 in
  if on then begin
    Monitor.enable dsm true;
    Trace.set_capacity (Monitor.trace dsm) trace_ring;
    ignore (Telemetry.attach dsm)
  end;
  let chain page =
    [|
      Trace.Fault { node = 1; page; protocol = "write_update"; mode = "read" };
      Trace.Page_request { node = 0; page; protocol = "write_update"; mode = "read"; requester = 1 };
      Trace.Page_send
        { node = 0; page; protocol = "write_update"; dst = 1; bytes = 4096; grant = "read" };
      Trace.Page_install { node = 1; page; protocol = "write_update"; sender = 0; grant = "read" };
    |]
  in
  let chains = Array.init 64 chain in
  let emits k =
    for i = 0 to (k / 4) - 1 do
      let span = Monitor.new_span dsm in
      Array.iter (fun ev -> Monitor.emit dsm ~span ev) chains.(i land 63)
    done
  in
  pure (in_thread dsm (fun warm -> emits (if warm > 0 then warm else n))) (n / 4 * 4)

(* (metric, priced function, measure, call cap) *)
let rungs ~seed =
  [
    ("ladder.sim.engine_event_ns", "Engine.after", rung_engine_event ~seed, None);
    ("ladder.pm2.marcel_yield_ns", "Marcel.yield", rung_marcel_yield ~seed, None);
    ("ladder.pm2.marcel_spawn_ns", "Pm2.spawn", rung_pm2_spawn ~seed, None);
    ("ladder.net.send_ns", "Network.send", rung_network_send ~seed, None);
    ("ladder.pm2.rpc_call_ns", "Rpc.call", rung_rpc_call ~seed, None);
    ( "ladder.core.read_hit_ns",
      "Dsm.read_int",
      rung_access ~seed ~protocol:(fun i -> i.Builtin.hbrc_mw) reads,
      None );
    ( "ladder.core.write_hit_ns",
      "Dsm.write_int",
      rung_access ~seed ~protocol:(fun i -> i.Builtin.hbrc_mw) writes,
      None );
    ( "ladder.core.charge_ns",
      "Dsm.charge",
      rung_access ~seed ~protocol:(fun i -> i.Builtin.hbrc_mw) charges,
      None );
    ( "ladder.core.read_hit_inline_ns",
      "Dsm.read_int",
      rung_access ~seed ~protocol:(fun i -> i.Builtin.java_ic) reads,
      None );
    ("ladder.core.read_fault_ns", "Dsm.read_int", rung_read_fault ~seed, Some 2048);
    ("ladder.hyperion.get_ns", "Hyperion.get", rung_hyperion_get ~seed, None);
    ("ladder.mem.diff_sparse_ns", "Diff.compute", rung_diff_sparse, None);
    ("ladder.mem.frame_read_ns", "Frame_store.read_int", rung_frame_read, None);
    ("ladder.obs.emit_off_ns", "Monitor.emit", rung_emit ~seed ~on:false, None);
    ("ladder.obs.emit_on_ns", "Monitor.emit", rung_emit ~seed ~on:true, None);
  ]

(* Prices every rung in rounds.  A round times one chunk of each rung, so
   a burst of load from outside the process slows every rung a little
   instead of one rung a lot.  Rounds go on until [budget] seconds have
   passed, at least five of them. *)
let run_ladder ~seed ~budget ~parent =
  let deadline = wall () +. budget in
  let rs = rungs ~seed in
  let chunk = budget /. float_of_int (10 * List.length rs) in
  let ladder = span_open ~parent:parent.id "ladder" in
  let sized =
    with_span ~parent:ladder.id "calibrate" (fun () ->
        List.map
          (fun (metric, fn, measure, max_calls) ->
            (metric, fn, measure, calibrate ~chunk ?max_calls measure, ref []))
          rs)
  in
  let rec rounds k =
    if k < 5 || wall () < deadline then begin
      let s = speed () in
      List.iter
        (fun (metric, fn, measure, n, samples) ->
          with_span ~parent:ladder.id (fn ^ " " ^ metric) (fun () ->
              let x = measure n in
              samples := { x with secs = x.secs *. s } :: !samples))
        sized;
      rounds (k + 1)
    end
  in
  rounds 0;
  span_close ladder;
  List.map (fun (metric, _, _, _, samples) -> (metric, price_of !samples)) sized

(* --- metrics and output --- *)

type metric = { mname : string; value : float; unit_ : string }

let m mname unit_ value = { mname; value; unit_ }
let count mname v = m mname "count" (float_of_int v)

let print_json ~correct ~attempted ~failed metrics =
  let field mt =
    (* %.17g keeps every digit of the measurement. *)
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" mt.mname mt.value mt.unit_
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", " (List.map field metrics))

(* Application-level shared accesses.  Jacobi's follow from its loops
   (initialise both grids, five accesses and one charge per relaxed point,
   a checksum read per cell); the colouring's from the inline-check
   counter, which counts one check per access attempt plus one per miss. *)
type accesses = { reads : int; writes : int; charges : int; total : int }

let accesses app dsm =
  match app with
  | Jacobi c ->
      let size = c.Jacobi.size in
      let points = (size - 2) * (size - 2) * c.Jacobi.iterations in
      let reads = (4 * points) + (size * size) and writes = (2 * size * size) + points in
      { reads; writes; charges = points; total = reads + writes }
  | Coloring _ ->
      let st = Dsm.stats dsm in
      let total =
        Stats.count st Instrument.inline_checks - Stats.count st Instrument.check_misses
      in
      { reads = 0; writes = 0; charges = 0; total }

let us_of_span st name = Time.to_us (Stats.span_mean st name)

(* Per-layer counters of one run. *)
let layer_metrics run dsm (a : accesses) ~gets =
  let pm2 = Dsm.pm2 dsm in
  let rpc = Pm2.rpc pm2 in
  let st = Dsm.stats dsm in
  let nst = Network.stats (Pm2.network pm2) in
  let tr = Monitor.trace dsm in
  let telemetry_events =
    match Telemetry.find dsm with Some t -> Telemetry.events_seen t | None -> 0
  in
  [
    count "sim.engine.events" (Engine.events_executed (Dsm.engine dsm));
    count "pm2.rpc.calls" (Rpc.calls_made rpc);
    count "pm2.rpc.retransmissions" (Rpc.retransmissions rpc);
    count "pm2.rpc.duplicates" (Rpc.duplicates_served rpc);
    count "pm2.migrations" (Pm2.migrations pm2);
  ]
  @ List.map (fun (k, v) -> count k v) (sim_counts dsm)
  @ [
      m "net.delay_mean_us" "sim_us" (us_of_span nst "net.delay");
      count "core.accesses" a.total;
      m "core.stage_total_us" "sim_us" (us_of_span st Instrument.stage_total);
      m "core.stage_request_us" "sim_us" (us_of_span st Instrument.stage_request);
      m "core.stage_transfer_us" "sim_us" (us_of_span st Instrument.stage_transfer);
      m "core.lock_wait_us" "sim_us" (us_of_span st Instrument.lock_wait);
      m "core.barrier_wait_us" "sim_us" (us_of_span st Instrument.barrier_wait);
      m "core.minor_words_per_access" "words/access"
        (run.minor_words /. float_of_int (max 1 a.total));
      count "hyperion.gets" gets;
      count "obs.trace_recorded" (Trace.recorded tr);
      count "obs.trace_evicted" (Trace.evicted tr);
      count "obs.telemetry_events" telemetry_events;
      count "obs.watchdog_samples"
        (match run.watchdog with Some wd -> Watchdog.samples_taken wd | None -> 0);
      m "host.gc_minor_mw" "Mword" (run.minor_words /. 1e6);
      m "host.gc_major_mw" "Mword" (run.major_words /. 1e6);
      count "host.gc_minor_collections" run.minor_collections;
      count "host.gc_major_collections" run.major_collections;
    ]

(* Host time attributed to each layer: its work counted in the traced run
   times the rung's self price, as a share of host_s.  A rung's self price
   is its measured price minus the engine events, messages and RPC calls
   each call caused, priced by their own rungs; the layers without a rung
   (protocol actions, watchdog ticks) and everything the ladder misprices
   are the unattributed residual. *)
let attribution ~host_s ~(ladder : (string * price) list) dsm (a : accesses) w =
  let p name = List.assoc name ladder in
  let event = (p "ladder.sim.engine_event_ns").ns in
  let self_send =
    let s = p "ladder.net.send_ns" in
    Float.max 0. (s.ns -. (s.ev_per_call *. event))
  in
  let self_rpc =
    let r = p "ladder.pm2.rpc_call_ns" in
    Float.max 0.
      (r.ns -. (r.ev_per_call *. event) -. (r.msg_per_call *. self_send))
  in
  let self_fault =
    let f = p "ladder.core.read_fault_ns" in
    Float.max 0.
      (f.ns -. (f.ev_per_call *. event) -. (f.msg_per_call *. self_send)
     -. (f.rpc_per_call *. self_rpc))
  in
  let pm2 = Dsm.pm2 dsm in
  let net = Pm2.network pm2 in
  let st = Dsm.stats dsm in
  let faults =
    float_of_int
      (Stats.count st Instrument.read_faults + Stats.count st Instrument.write_faults
      + Stats.count st Instrument.check_misses)
  in
  let f = float_of_int in
  let core_hits, hyperion =
    match w.app with
    | Jacobi _ ->
        ( (f a.reads *. (p "ladder.core.read_hit_ns").ns)
          +. (f a.writes *. (p "ladder.core.write_hit_ns").ns)
          +. (f a.charges *. (p "ladder.core.charge_ns").ns),
          0. )
    | Coloring _ ->
        let inline = (p "ladder.core.read_hit_inline_ns").ns in
        ( f a.total *. inline,
          f a.total *. Float.max 0. ((p "ladder.hyperion.get_ns").ns -. inline) )
  in
  (* Only hbrc_mw diffs a page against its twin ([Diff.compute]);
     write_update and the Java protocols ship one-word diffs built from
     their write records, which the ladder does not price. *)
  let twin_diffs =
    let protocol =
      match w.app with Jacobi c -> c.Jacobi.protocol | Coloring c -> c.Map_coloring.protocol
    in
    if protocol = "hbrc_mw" then Stats.count st Instrument.diffs_sent else 0
  in
  let obs =
    match Telemetry.find dsm with
    | Some t -> f (Telemetry.events_seen t) *. (p "ladder.obs.emit_on_ns").ns
    | None -> 0.
  in
  let layers =
    [
      ("sim", f (Engine.events_executed (Dsm.engine dsm)) *. event);
      ("pm2", f (Rpc.calls_made (Pm2.rpc pm2)) *. self_rpc);
      ( "net",
        f (Network.messages_sent net + Network.loopback_sent net) *. self_send );
      ("mem", f twin_diffs *. (p "ladder.mem.diff_sparse_ns").ns);
      ("core", core_hits +. (faults *. self_fault));
      ("hyperion", hyperion);
      ("obs", obs);
    ]
  in
  let shares = List.map (fun (l, ns) -> (l, ns /. (host_s *. 1e9))) layers in
  let attributed = List.fold_left (fun acc (_, s) -> acc +. s) 0. shares in
  List.map (fun (l, s) -> m ("attr." ^ l ^ ".share") "ratio" s) shares
  @ [ m "attr.unattributed.share" "ratio" (1. -. attributed) ]

(* --- main --- *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 15. and trace = ref 0 in
  let trace_out = ref "" and quick_sizes = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed, which picks the engine tie seeds (default 0)");
      ("--seconds", Arg.Set_float seconds, "S host seconds of timed runs (default 15)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
      ("--trace-out", Arg.Set_string trace_out, "FILE write the traced run's spans (Chrome JSON)");
      ("--quick", Arg.Set quick_sizes, " tiny inputs and one cycle of repeats, for smoke tests");
    ]
  in
  let usage = "e2e.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let sizes = if !quick_sizes then quick else full in
  let w =
    match List.find_opt (fun w -> w.name = !workload) (workloads sizes) with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S; known: %s\n" !workload
          (String.concat ", " (List.map (fun w -> w.name) (workloads sizes)));
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  let seeds = tie_seeds !seed and seconds = !seconds and traced = !trace = 1 in
  let min_cycles = if !quick_sizes then 1 else 2 in
  let attempted = ref 0 and failed = ref 0 in
  let expected = oracle w.app in
  let checked k ~reference run =
    incr attempted;
    (match check ~expected ~reference run with
    | None -> ()
    | Some why ->
        incr failed;
        Printf.printf "FAILED %s tie seed %d: %s\n%!" w.name seeds.(k) why);
    run
  in
  let setup = measure_setup w ~seed:seeds.(0) ~batches:(if !quick_sizes then 3 else 21) in
  (* One reference run per tie seed warms the heap and fixes the simulated
     metrics every later run at that seed must reproduce.  They run without
     observability, so the observed workload must match the plain one
     exactly. *)
  let references =
    Array.mapi
      (fun k seed ->
        fingerprint (checked k ~reference:None (run_app ~seed ~observed:false w.app)))
      seeds
  in
  (* Closed loop over whole cycles of the tie seeds: the next run starts
     when the previous one has ended.  Only the host time is kept, so
     runtimes of earlier repeats are garbage.  Peak memory is read after the
     first timed run: the footprint of set-up plus one simulation, before
     the heap slowly grows over repeats by an amount that varies from
     process to process.  Returns (tie seed index, host_s, speed) per
     run. *)
  let rss = ref 0. in
  let timed budget =
    let t0 = wall () in
    let rec loop acc i =
      let k = i mod interleavings in
      if k = 0 && i >= min_cycles * interleavings && wall () -. t0 >= budget then List.rev acc
      else
        let s = speed () in
        let r =
          checked k ~reference:references.(k)
            (run_app ~seed:seeds.(k) ~observed:w.observed w.app)
        in
        if i = 0 then rss := peak_rss_mb ();
        loop ((k, r.host_s, s) :: acc) (i + 1)
    in
    loop [] 0
  in
  let metrics =
    if not traced then begin
      let runs = timed seconds in
      let hosts = List.map (fun (_, h, s) -> h *. s) runs in
      let rss = !rss in
      let fps = List.filter_map Fun.id (Array.to_list references) in
      let mean f =
        List.fold_left (fun acc fp -> acc +. f fp) 0. fps /. float_of_int (max 1 (List.length fps))
      in
      let sim_ms = mean (fun fp -> fp.fp_sim_ms)
      and messages = mean (fun fp -> float_of_int fp.fp_messages) in
      let q l = (quantile l 0.25, median l, quantile l 0.75, List.length l) in
      let show name unit_ (q1, med, q3, n) =
        Printf.printf "%-14s %12.6g %-6s (q1 %.6g, q3 %.6g, n=%d)\n" name med unit_ q1 q3 n
      in
      show "host_s" "s" (q hosts);
      show "setup_s" "s" (q setup);
      List.iter
        (fun (name, v, unit_) -> Printf.printf "%-14s %12.6g %s\n" name v unit_)
        [
          ("raw host_s", median (List.map (fun (_, h, _) -> h) runs), "s");
          ("host speed", median (List.map (fun (_, _, s) -> s) runs), "x");
          ("peak_rss_mb", rss, "MiB");
          ("sim_ms", sim_ms, "sim_ms");
          ("messages", messages, "count");
          ("fail_share", float_of_int !failed /. float_of_int (max 1 !attempted), "ratio");
        ];
      let qj (q1, med, q3, n) = Printf.sprintf "[%.17g, %.17g, %.17g, %d]" q1 med q3 n in
      Printf.printf "e2e-detail {\"host_s\": %s, \"setup_s\": %s}\n" (qj (q hosts)) (qj (q setup));
      [
        m "host_s" "s" (median hosts);
        m "setup_s" "s" (median setup);
        m "peak_rss_mb" "MiB" rss;
        m "sim_ms" "sim_ms" sim_ms;
        m "messages" "count" messages;
      ]
    end
    else begin
      let ladder_budget = Float.min 4. (0.3 *. seconds) in
      let runs = timed (seconds -. ladder_budget) in
      (* The traced run and its counts are at the first tie seed, so host
         time there is that seed's median. *)
      let host_s =
        median (List.filter_map (fun (k, h, s) -> if k = 0 then Some (h *. s) else None) runs)
      in
      let root = span_open ("workload/" ^ w.name) in
      let s = speed () in
      let app_span = span_open ~parent:root.id "App.run" in
      let run = run_app ~seed:seeds.(0) ~observed:w.observed w.app in
      span_close app_span;
      (* [run_app] stamps the observe hook, which splits App.run into its
         set-up and simulate halves. *)
      let hooked = app_span.start +. run.setup_s in
      let setup = span_add ~parent:app_span.id "setup" app_span.start hooked in
      let simulate = span_add ~parent:app_span.id "simulate" hooked app_span.stop in
      let verify = span_open ~parent:root.id "verify" in
      ignore (checked 0 ~reference:references.(0) run);
      span_close verify;
      let ladder = run_ladder ~seed:seeds.(0) ~budget:ladder_budget ~parent:root in
      span_close root;
      let dsm = Option.get run.dsm in
      let a = accesses w.app dsm in
      let seconds s = s.stop -. s.start in
      let gets = match run.outcome with Ok r -> r.gets | Error _ -> 0 in
      layer_metrics run dsm a ~gets
      @ List.map (fun (name, p) -> m name "ns" p.ns) ladder
      @ attribution ~host_s ~ladder dsm a w
      @ [
          m "span.setup_s" "s" (seconds setup);
          m "span.simulate_s" "s" (seconds simulate);
          m "span.verify_s" "s" (seconds verify);
          m "trace.overhead_s" "s" ((run.host_s *. s) -. host_s);
        ]
    end
  in
  if traced then
    List.iter (fun mt -> Printf.printf "%-34s %16.6g %s\n" mt.mname mt.value mt.unit_) metrics;
  if !trace_out <> "" then write_spans !trace_out;
  print_json ~correct:(!failed = 0) ~attempted:!attempted ~failed:!failed metrics
