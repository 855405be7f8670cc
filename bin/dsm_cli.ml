(* dsm-cli: run DSM-PM2 reproduction experiments and ad-hoc application
   configurations from the command line.

     dune exec bin/dsm_cli.exe -- table3
     dune exec bin/dsm_cli.exe -- tsp --protocol migrate_thread --nodes 8
     dune exec bin/dsm_cli.exe -- jacobi --protocol hbrc_mw --size 64
     dune exec bin/dsm_cli.exe -- coloring --protocol java_ic --nodes 2
     dune exec bin/dsm_cli.exe -- watch --workload lu --nodes 8

   Every application run goes through the one table in
   [Dsmpm2_apps.Catalog]; `watch` is the live dashboard over any of them.

   The application subcommands accept the observability flags:

     --trace-out FILE     Chrome trace_event JSON (chrome://tracing, Perfetto)
     --trace-jsonl FILE   one typed event per line
     --metrics-out FILE   stable JSON metrics snapshot
     --metrics-prom FILE  Prometheus text exposition of the metrics registry
     --report             post-mortem per-category / per-stage report
     --health             live watchdog + end-of-run health summary

   The table/figure experiments and the macro suite `bench` (one per entry
   of [Paper.experiments]) run many simulations each, so they take
   --metrics-out alone: it writes the experiment's rows as a dsm-paper/1
   snapshot.  `paper` runs them all and `paper --out BENCH_paper.json`
   re-banks the committed snapshot. *)

open Cmdliner
open Dsmpm2_sim
open Dsmpm2_core
open Dsmpm2_experiments
module Catalog = Dsmpm2_apps.Catalog

let ppf = Format.std_formatter

(* A value picked by name from a known list: an unknown name is a usage
   error that lists the known ones. *)
let named_conv what name known =
  let parse s =
    match List.find_opt (fun x -> name x = s) (known ()) with
    | Some x -> Ok x
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown %s %S (known: %s)" what s
               (String.concat ", " (List.map name (known ())))))
  in
  Arg.conv (parse, fun fmt x -> Format.pp_print_string fmt (name x))

let driver_conv =
  named_conv "driver" (fun d -> d.Dsmpm2_net.Driver.name) (fun () ->
      Dsmpm2_net.Driver.all)

(* Every --protocol takes a name the builtin registry declares. *)
let protocol_conv =
  named_conv "protocol" Fun.id (fun () ->
      List.map (fun p -> p.Protocol.name) (Dsmpm2_protocols.Builtin.protocols ()))

let driver_arg =
  Arg.(
    value
    & opt driver_conv Dsmpm2_net.Driver.bip_myrinet
    & info [ "driver" ] ~docv:"DRIVER" ~doc:"Network driver (e.g. BIP/Myrinet, SISCI/SCI).")

let nodes_arg =
  Arg.(value & opt int 4 & info [ "nodes" ] ~docv:"N" ~doc:"Cluster size.")

let protocol_arg default =
  Arg.(
    value & opt protocol_conv default
    & info [ "protocol" ] ~docv:"PROTO" ~doc:"Consistency protocol name.")

(* For commands that pick the application by name. *)
let workload_protocol_arg =
  Arg.(
    value
    & opt (some protocol_conv) None
    & info [ "protocol" ] ~docv:"PROTO"
        ~doc:"Consistency protocol (default: the workload's own default).")

let find_workload cmd name =
  match Catalog.find name with
  | Some entry -> entry
  | None ->
      Format.fprintf ppf "%s: unknown workload %S (known: %s)@." cmd name
        Catalog.names;
      exit 2

let seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"SEED"
        ~doc:"Input seed (default: the application's own).")

(* An integer application parameter as a flag of the same name, defaulting
   to the application's own value. *)
let param_arg (entry : Catalog.app) key ~doc =
  let flag =
    Arg.(value & opt int (List.assoc key entry.params) & info [ key ] ~docv:"N" ~doc)
  in
  Term.(const (fun v -> (key, v)) $ flag)

(* --- observability flags, shared by every subcommand --- *)

let trace_cap_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "trace-cap" ] ~docv:"N"
        ~doc:
          "Flight-recorder mode: keep only the newest $(docv) trace events \
           in a bounded ring (evictions are counted, the schedule is \
           unchanged).")

let sample_pct_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "sample-pct" ] ~docv:"PCT"
        ~doc:
          "Deterministic head-based trace sampling: store roughly $(docv)% \
           of fault spans (whole spans are kept or dropped together; \
           alerts and injected-fault events are always kept; the schedule \
           and the online telemetry are unchanged).")

let sample_seed_arg =
  Arg.(
    value & opt int 0
    & info [ "sample-seed" ] ~docv:"SEED"
        ~doc:
          "Seed for $(b,--sample-pct) keep decisions (same seed, same \
           spans kept).")

(* Bounds and samples the trace ring; call before attaching consumers. *)
let configure_trace dsm ~trace_cap ~sample_pct ~sample_seed =
  let tr = Monitor.trace dsm in
  Option.iter (Trace.set_capacity tr) trace_cap;
  Option.iter
    (fun pct -> Trace.set_sampling tr ~seed:sample_seed ~keep_pct:pct)
    sample_pct

let metrics_out_arg doc =
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

type obs = {
  trace_out : string option;
  trace_jsonl : string option;
  trace_cap : int option;
  trace_dump : string option;
  sample_pct : float option;
  sample_seed : int;
  metrics_out : string option;
  metrics_prom : string option;
  report : bool;
  health : bool;
}

let obs_term =
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Write the event trace as Chrome trace_event JSON to $(docv).")
  in
  let trace_jsonl =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-jsonl" ] ~docv:"FILE"
          ~doc:"Write the event trace as JSON Lines (one event per line) to $(docv).")
  in
  let trace_dump =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-dump" ] ~docv:"FILE"
          ~doc:
            "Auto-dump the trace ring as JSONL to $(docv) the first time a \
             critical alert is recorded.")
  in
  let metrics_out = metrics_out_arg "Write a JSON metrics snapshot to $(docv)." in
  let metrics_prom =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-prom" ] ~docv:"FILE"
          ~doc:"Write the metrics registry in Prometheus text exposition format to $(docv).")
  in
  let report =
    Arg.(
      value & flag
      & info [ "report" ] ~doc:"Print the post-mortem monitoring report after the run.")
  in
  let health =
    Arg.(
      value & flag
      & info [ "health" ]
          ~doc:
            "Attach the live watchdog (invariant audits, deadlock/stall/thrash \
             detection) and print its health summary after the run.")
  in
  Term.(
    const
      (fun trace_out trace_jsonl trace_cap trace_dump sample_pct sample_seed
           metrics_out metrics_prom report health ->
        {
          trace_out;
          trace_jsonl;
          trace_cap;
          trace_dump;
          sample_pct;
          sample_seed;
          metrics_out;
          metrics_prom;
          report;
          health;
        })
    $ trace_out $ trace_jsonl $ trace_cap_arg $ trace_dump $ sample_pct_arg
    $ sample_seed_arg $ metrics_out $ metrics_prom $ report $ health)

let obs_wants_monitor o =
  o.trace_out <> None || o.trace_jsonl <> None || o.trace_cap <> None
  || o.trace_dump <> None || o.sample_pct <> None || o.report || o.health

let to_formatter file f =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let fmt = Format.formatter_of_out_channel oc in
      f fmt;
      Format.pp_print_flush fmt ())

(* Export hook for the application subcommands: enables the monitor before
   the run via the app's [observe] hook and dumps everything afterwards. *)
let app_observe obs =
  let watchdog = ref None in
  let observe dsm =
    if obs_wants_monitor obs then Monitor.enable dsm true;
    configure_trace dsm ~trace_cap:obs.trace_cap ~sample_pct:obs.sample_pct
      ~sample_seed:obs.sample_seed;
    Option.iter (Trace.set_autodump (Monitor.trace dsm)) obs.trace_dump;
    if obs.health then watchdog := Some (Watchdog.attach dsm)
  in
  let export ~name ~protocol dsm =
    let tr = Monitor.trace dsm in
    Option.iter (fun file -> to_formatter file (fun fmt -> Trace.to_chrome fmt tr))
      obs.trace_out;
    Option.iter (fun file -> Trace.save_jsonl file tr) obs.trace_jsonl;
    Option.iter
      (fun file ->
        let meta = Monitor.run_meta ~protocol ~case:name dsm in
        Json.to_file file (Monitor.to_json ~experiment:name ~meta dsm))
      obs.metrics_out;
    Option.iter
      (fun file -> to_formatter file (fun fmt -> Monitor.to_prometheus fmt dsm))
      obs.metrics_prom;
    if obs.report then Monitor.report ppf dsm;
    Option.iter (fun w -> Format.fprintf ppf "%a@." Watchdog.pp_summary w) !watchdog;
    if Trace.autodump_fired tr then
      Format.fprintf ppf
        "flight recorder: critical alert — dumped trace ring to %s@."
        (Option.value ~default:"?" (Trace.autodump_path tr))
  in
  (observe, export)

(* One subcommand per application: run it through the catalog, print its
   result line, export what the observability flags ask for.  [args] gives
   the input seed and the application parameters. *)
let app_cmd name ~doc args =
  let entry = Option.get (Catalog.find name) in
  let run protocol nodes driver (seed, params) obs =
    let observe, export = app_observe obs in
    let dsm, line = entry.run ~protocol ~nodes ~driver ?seed ~observe params in
    Format.fprintf ppf "%s@." line;
    export ~name ~protocol dsm
  in
  let args = args entry in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const run $ protocol_arg entry.protocol $ nodes_arg $ driver_arg $ args
      $ obs_term)

let app_cmds =
  [
    app_cmd "tsp" ~doc:"Run the TSP branch-and-bound application." (fun entry ->
        let balance =
          Arg.(value & flag & info [ "balance" ] ~doc:"Run the PM2 load balancer.")
        in
        Term.(
          const (fun seed cities balance ->
              (seed, [ cities; ("balance", Bool.to_int balance) ]))
          $ seed_arg
          $ param_arg entry "cities" ~doc:"Number of cities."
          $ balance));
    app_cmd "jacobi" ~doc:"Run the Jacobi relaxation kernel." (fun entry ->
        Term.(
          const (fun size iterations -> (None, [ size; iterations ]))
          $ param_arg entry "size" ~doc:"Grid side."
          $ param_arg entry "iterations" ~doc:"Sweeps."));
    app_cmd "coloring" ~doc:"Run the Hyperion-style map-colouring application."
      (fun _ -> Term.const (None, []));
  ]

let write_rows out rows = Option.iter (fun file -> Json.to_file file (Paper.to_json rows)) out

(* A table/figure experiment: run it, print its table, and with
   --metrics-out write its rows; Table 2 has no number, so no flag. *)
let experiment_cmd { Paper.name; doc; body } =
  Cmd.v (Cmd.info name ~doc)
    (match body with
    | Paper.Text print -> Term.(const print $ const ppf)
    | Paper.Rows run ->
        Term.(
          const (fun out -> write_rows out (run ppf))
          $ metrics_out_arg "Write the experiment's rows as a dsm-paper/1 snapshot to $(docv)."))

let paper_cmd =
  let run out =
    write_rows out (Paper.run ppf);
    Option.iter (Format.fprintf ppf "paper: wrote %s@.") out
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write every row, as BENCH_paper.json, to $(docv).")
  in
  Cmd.v
    (Cmd.info "paper"
       ~doc:
         "Run every table/figure experiment and print each table; $(b,--out) writes all \
          their rows as one snapshot that $(b,dsm diff) compares exactly.")
    Term.(const run $ out)

(* --- dsm analyze: the post-mortem trace analyzer --- *)

let analyze_cmd =
  let run workload trace_jsonl protocol nodes driver seed top out folded_file =
    let live_trace w =
      (* Run the application with monitoring on and analyze its live trace. *)
      let entry = find_workload "analyze" w in
      let dsm, _ =
        entry.run
          ~protocol:(Option.value protocol ~default:entry.protocol)
          ~nodes ~driver ?seed
          ~observe:(fun dsm -> Monitor.enable dsm true)
          []
      in
      (Monitor.trace dsm, Some (Monitor.run_meta ?protocol ~case:w dsm))
    in
    let trace, meta =
      match (trace_jsonl, workload) with
      | Some file, _ -> (
          (* A dump re-loaded from disk carries no identity metadata. *)
          match Trace.load_jsonl file with
          | Ok t -> (t, None)
          | Error msg ->
              Format.fprintf ppf "analyze: %s@." msg;
              exit 2)
      | None, Some w -> live_trace w
      | None, None ->
          Format.fprintf ppf
            "analyze: give a workload (%s) or --trace-jsonl FILE@." Catalog.names;
          exit 2
    in
    let a = Analyze.analyze ~top trace in
    Analyze.report ppf a;
    Option.iter (fun file -> Json.to_file file (Analyze.to_json ?meta a)) out;
    Option.iter
      (fun file -> to_formatter file (fun fmt -> Analyze.folded fmt a))
      folded_file
  in
  let workload =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD"
          ~doc:("Application to run and analyze live: " ^ Catalog.names ^ "."))
  in
  let trace_jsonl =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-jsonl" ] ~docv:"FILE"
          ~doc:"Analyze a previously exported JSONL trace instead of running.")
  in
  let top =
    Arg.(
      value & opt int 5
      & info [ "top" ] ~docv:"K" ~doc:"How many slowest fault spans to detail.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the analysis as stable JSON to $(docv).")
  in
  let folded_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded" ] ~docv:"FILE"
          ~doc:"Write folded-stack lines (flamegraph.pl input) to $(docv).")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Post-mortem trace analysis: fault critical paths, per-page sharing \
          patterns, lock/barrier contention, watchdog alerts.")
    Term.(
      const run $ workload $ trace_jsonl $ workload_protocol_arg $ nodes_arg $ driver_arg
      $ seed_arg $ top $ out $ folded_file)

let check_cmd =
  let run seeds protocols workloads replay verbose faults loss crashes explain
      expect_vulnerable metrics_out =
    let protocols = match protocols with [] -> None | ps -> Some ps in
    (* The sharing patterns are scenarios too, but stay out of the default
       sweep: false_sharing fails under sc_abd (ROADMAP item 1). *)
    let known = Conformance.scenarios @ Sharing_patterns.scenarios in
    let find w =
      match List.find_opt (fun s -> s.Conformance.name = w) known with
      | Some s -> s
      | None ->
          Format.fprintf ppf "check: unknown workload %S (known: %s)@." w
            (String.concat ", " (List.map (fun s -> s.Conformance.name) known));
          exit 2
    in
    let scenarios =
      match workloads with [] -> Conformance.scenarios | ws -> List.map find ws
    in
    (* Fault tolerance is a protocol property, not a driver-latency one, so
       the fault sweep runs one driver. *)
    let spec, drivers =
      if faults then
        ( {
            Conformance.default_fault_spec with
            Conformance.f_loss_pct = loss;
            f_crashes = crashes;
          },
          [ Dsmpm2_net.Driver.bip_myrinet ] )
      else (Conformance.no_faults, Dsmpm2_net.Driver.all)
    in
    let seeds =
      match replay with Some seed -> [ seed ] | None -> List.init seeds Fun.id
    in
    let progress =
      if verbose then fun cell -> Format.fprintf ppf "  done %s@." cell
      else fun _ -> ()
    in
    (* A replay prints each failing run in full, with the analyzer's view
       of that run's own trace.  With --explain every failing run's
       explanations land next to it as
       explain_<proto>_<workload>_<driver>_seed<N>.json/.dot.  Under
       --faults, an explanation whose causal chain is empty means the
       forensics lost the thread back to the injected fault, which is
       itself a failure; a fault-free run has no injected cause to reach. *)
    let empty_chains = ref [] in
    let on_failure protocol (o : Conformance.outcome) dsm =
      if replay <> None then begin
        Format.fprintf ppf "%s:@." protocol;
        Conformance.print_outcome ppf o;
        Analyze.report ~sections:[ `Alerts; `Critical; `Pages ] ppf
          (Analyze.analyze ~top:3 (Monitor.trace dsm))
      end;
      match o.Conformance.o_explanations with
      | [] -> ()
      | xs ->
          (* A sweep's runs are all seeded. *)
          let seed = Option.get o.Conformance.o_seed in
          let base =
            Printf.sprintf "explain_%s_%s_%s_seed%d" protocol
              o.Conformance.o_workload
              (Dsmpm2_net.Driver.slug o.Conformance.o_driver)
              seed
          in
          Json.to_file (base ^ ".json") (Json.List (List.map Explain.to_json xs));
          to_formatter (base ^ ".dot") (fun fmt -> Explain.to_dot fmt (List.hd xs));
          List.iter
            (fun x ->
              if verbose then Format.fprintf ppf "%a@." Explain.to_text x;
              if faults && Explain.causes x = [] then
                empty_chains := (protocol, seed) :: !empty_chains)
            xs;
          Format.fprintf ppf "explain: wrote %s.json and %s.dot (%d explanation(s))@."
            base base (List.length xs)
    in
    let verdicts =
      Conformance.sweep ?protocols ~drivers ~scenarios ~spec ~explain
        ~progress ~on_failure ~seeds ()
    in
    Conformance.print ~spec ppf verdicts;
    Option.iter (fun file -> Json.to_file file (Conformance.to_json verdicts)) metrics_out;
    if !empty_chains <> [] then begin
      List.iter
        (fun (p, s) ->
          Format.fprintf ppf
            "explain: %s seed %d: violation with an empty causal chain — the \
             blame engine reached no injected fault@."
            p s)
        (List.rev !empty_chains);
      exit 1
    end;
    (* --expect-vulnerable is the CI smoke for the legacy protocols: it
       succeeds only when every swept protocol visibly fails (stall, typed
       crash or violation) AND the watchdog attributed the failure with a
       typed fault alert — loud failure, never silent corruption. *)
    if expect_vulnerable then begin
      let fault_kinds =
        [ "node.dead"; "node.restart"; "node.partitioned"; "rpc.retry_storm" ]
      in
      let shielded =
        List.filter
          (fun v ->
            v.Conformance.v_failures = 0
            || not
                 (List.exists
                    (fun k -> List.mem k v.Conformance.v_alert_kinds)
                    fault_kinds))
          verdicts
      in
      List.iter
        (fun v ->
          Format.fprintf ppf
            "%s: expected a visible fault-induced failure with a typed alert, \
             got %d failures (alerts: %s)@."
            v.Conformance.v_protocol v.Conformance.v_failures
            (String.concat ", " v.Conformance.v_alert_kinds))
        shielded;
      if shielded <> [] then exit 1;
      Format.fprintf ppf
        "all %d protocols failed visibly with typed fault alerts, as expected@."
        (List.length verdicts)
    end
    else if Conformance.failed verdicts then exit 1
  in
  let seeds =
    Arg.(
      value & opt int 25
      & info [ "seeds" ] ~docv:"N" ~doc:"Number of perturbation seeds per cell.")
  in
  let protocols =
    Arg.(
      value
      & opt_all protocol_conv []
      & info [ "protocol" ] ~docv:"PROTO"
          ~doc:"Check only $(docv) (repeatable; default: all builtins).")
  in
  let workloads =
    Arg.(
      value
      & opt_all string []
      & info [ "workload" ] ~docv:"NAME"
          ~doc:
            "Check only scenario $(docv) (repeatable; default: the four \
             check workloads).  A sharing pattern is a scenario too.")
  in
  let replay =
    Arg.(
      value
      & opt (some int) None
      & info [ "replay" ] ~docv:"SEED"
          ~doc:
            "Run only seed $(docv) (under that seed's fault plan with \
             $(b,--faults)) and print each failing run in full with the \
             analyzer's report on its trace.")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Print per-cell progress.")
  in
  let faults =
    Arg.(
      value & flag
      & info [ "faults" ]
          ~doc:
            "Sweep seeded fault schedules (crash/restart windows plus \
             message loss) instead of fault-free perturbation, on the \
             BIP/Myrinet driver only.")
  in
  let loss =
    Arg.(
      value & opt float 1.0
      & info [ "loss" ] ~docv:"PCT"
          ~doc:"Cross-node message loss percentage for $(b,--faults).")
  in
  let crashes =
    Arg.(
      value & opt int 2
      & info [ "crashes" ] ~docv:"N"
          ~doc:"Crash windows per fault schedule for $(b,--faults).")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Run the causal blame engine over every failing run, print \
             each cause, and write explain_*.json/.dot artifacts.  With \
             $(b,--faults), fails (exit 1) if any explanation has an empty \
             causal chain.")
  in
  let expect_vulnerable =
    Arg.(
      value & flag
      & info [ "expect-vulnerable" ]
          ~doc:
            "Invert the verdict: succeed only when every swept protocol \
             fails visibly with a typed watchdog fault alert — with \
             $(b,--faults), the CI smoke for non-fault-tolerant protocols.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Conformance-check every protocol against its declared consistency \
          model under perturbed schedules, optionally with fault injection.")
    Term.(
      const run $ seeds $ protocols $ workloads $ replay $ verbose $ faults
      $ loss $ crashes $ explain $ expect_vulnerable
      $ metrics_out_arg "Write the verdicts as JSON to $(docv).")

(* --- dsm watch: the live dashboard over a running application ---

   Each frame shows health (per-node rates, interval faults, alerts) and
   then the memory: the online telemetry engine's cluster fault-latency
   sketch percentiles, per-protocol and per-node fault counts, and the
   hottest pages with their streaming sharing classification.  Telemetry
   reads the trace observer stream, so the frames stay exact under
   --trace-cap rings and --sample-pct sampling. *)

let watch_cmd =
  let run workload protocol nodes driver seed size iterations interval_us
      stall_us trace_cap sample_pct sample_seed out quiet =
    let entry = find_workload "watch" workload in
    let tty = Unix.isatty Unix.stdout in
    let clear () = if tty then Format.fprintf ppf "\027[H\027[2J" in
    let pp_top = Telemetry.pp_top ~top:10 in
    let wd = ref None in
    let observe dsm =
      Monitor.enable dsm true;
      configure_trace dsm ~trace_cap ~sample_pct ~sample_seed;
      let config =
        Watchdog.
          {
            default_config with
            interval = Time.of_us interval_us;
            stall = Time.of_us stall_us;
          }
      in
      let w = Watchdog.attach ~config dsm in
      wd := Some w;
      if not quiet then
        Watchdog.set_on_sample w (fun s ->
            (* On a terminal each frame repaints in place; piped output gets
               one frame per sample. *)
            clear ();
            Format.fprintf ppf "%a@.%a@." Watchdog.pp_sample (w, s) pp_top
              (Watchdog.telemetry w))
    in
    (* --size and --iterations reach only the applications declaring them. *)
    let params =
      List.filter_map
        (fun (key, v) ->
          match v with
          | Some v when List.mem_assoc key entry.params -> Some (key, v)
          | _ -> None)
        [ ("size", size); ("iterations", iterations) ]
    in
    (try
       ignore
         (entry.run
            ~protocol:(Option.value protocol ~default:entry.protocol)
            ~nodes ~driver ?seed ~observe params)
     with Engine.Stalled live ->
       Format.fprintf ppf "watch: run deadlocked with %d live fiber(s)@." live);
    let w = Option.get !wd in
    if not quiet then clear ();
    Format.fprintf ppf "%a@." pp_top (Watchdog.telemetry w);
    Format.fprintf ppf "%a@." Watchdog.pp_summary w;
    Option.iter (fun file -> Json.to_file file (Watchdog.health_json w)) out;
    let _, _, critical = Watchdog.alert_counts w in
    if critical > 0 then exit 1
  in
  let workload =
    Arg.(
      value & opt string "jacobi"
      & info [ "workload" ] ~docv:"NAME"
          ~doc:("Application to watch: " ^ Catalog.names ^ "."))
  in
  let size =
    Arg.(
      value
      & opt (some int) None
      & info [ "size" ] ~docv:"N"
          ~doc:"Problem size, for workloads that take one (default: the workload's own).")
  in
  let iterations =
    Arg.(
      value
      & opt (some int) None
      & info [ "iterations" ] ~docv:"N"
          ~doc:"Sweeps, for workloads that take them (default: the workload's own).")
  in
  let interval =
    Arg.(
      value
      & opt float (Time.to_us Watchdog.default_config.Watchdog.interval)
      & info [ "interval" ] ~docv:"US"
          ~doc:"Sampling period in simulated microseconds.")
  in
  let stall_us =
    Arg.(
      value
      & opt float (Time.to_us Watchdog.default_config.Watchdog.stall)
      & info [ "stall-us" ] ~docv:"US"
          ~doc:"Report threads blocked longer than $(docv) simulated microseconds.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write the stable JSON health report, with the telemetry \
             snapshot under its $(b,telemetry) key, to $(docv).")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "quiet" ]
          ~doc:"Skip the live frames; print only the final hot-page frame and summary.")
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:
         "Run an application under the live watchdog and telemetry engine: \
          periodic invariant audits, deadlock/stall and thrash detection, \
          per-node rates, fault-latency sketch percentiles and the hottest \
          pages with streaming sharing classifications.  \
          Exact even under $(b,--trace-cap) and $(b,--sample-pct).  Exits \
          non-zero on critical alerts.")
    Term.(
      const run $ workload $ workload_protocol_arg $ nodes_arg $ driver_arg $ seed_arg $ size
      $ iterations $ interval $ stall_us $ trace_cap_arg $ sample_pct_arg
      $ sample_seed_arg $ out $ quiet)

(* --- dsm diff: differential comparison of two runs --- *)

let diff_cmd =
  let run baseline fresh format out =
    let load what path =
      match Rundiff.load_source path with
      | Ok s -> s
      | Error msg ->
          Format.fprintf ppf "diff: %s: %s@." what msg;
          exit 2
    in
    let b = load "baseline" baseline in
    let f = load "fresh" fresh in
    match Rundiff.diff ~baseline:b ~fresh:f with
    | Error msg ->
        Format.fprintf ppf "diff: %s@." msg;
        exit 2
    | Ok d ->
        let render fmt =
          match format with
          | `Text -> Rundiff.pp_text fmt d
          | `Json -> Format.fprintf fmt "%a@." Json.pp (Rundiff.to_json d)
        in
        (match out with
        | None -> render ppf
        | Some file ->
            to_formatter file render;
            Format.fprintf ppf "diff: wrote %s@." file);
        if Rundiff.differs d then exit 1
  in
  let baseline =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BASELINE"
          ~doc:"Baseline artifact: a dsm-paper/1 row snapshot (BENCH_paper.json, \
                which holds the macro suite's bench rows too, or BENCH_bechamel.json), \
                or a JSONL trace dump.")
  in
  let fresh =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"FRESH" ~doc:"The artifact to compare against the baseline.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc:"Output format: text or json.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the report to $(docv) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two observability artifacts — row snapshots (paper or \
          Bechamel) or trace dumps — exactly, and list every difference: \
          per row and field, rows or fields on one side only, critical-path \
          stage mean, p90 and span count, sharing-pattern drift and alert \
          counts.  Exits 0 when they are equal, 1 when they differ, 2 on an \
          unreadable input or a snapshot against a trace dump.")
    Term.(const run $ baseline $ fresh $ format $ out)

(* --- dsm explain: causal forensics over a trace dump --- *)

let explain_cmd =
  let run file json_out dot_out =
    match Trace.load_jsonl file with
    | Error msg ->
        Format.fprintf ppf "explain: %s@." msg;
        exit 2
    | Ok trace ->
        let xs = Explain.explain_trace trace in
        (match xs with
        | [] ->
            Format.fprintf ppf
              "explain: no critical alert in %s — nothing to explain@." file
        | xs ->
            List.iter (fun x -> Format.fprintf ppf "%a@." Explain.to_text x) xs);
        Option.iter
          (fun f -> Json.to_file f (Json.List (List.map Explain.to_json xs)))
          json_out;
        Option.iter
          (fun f ->
            match xs with
            | [] ->
                Format.fprintf ppf "explain: no explanation to render as DOT@."
            | x :: _ -> to_formatter f (fun fmt -> Explain.to_dot fmt x))
          dot_out
  in
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE"
          ~doc:
            "A JSONL trace dump, e.g. a --trace-jsonl export or a \
             flight-recorder auto-dump.")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the explanations as stable JSON to $(docv).")
  in
  let dot_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE"
          ~doc:
            "Write the first explanation's causal graph as Graphviz DOT to \
             $(docv).")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Causal forensics: slice a trace dump backward from each critical \
          alert to the injected faults (dropped/blackholed messages, crash \
          windows, retry storms) that explain it.")
    Term.(const run $ file $ json_out $ dot_out)

let () =
  let info =
    Cmd.info "dsm-cli" ~version:"1.0.0"
      ~doc:"DSM-PM2 reproduction: experiments and applications."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          (List.map experiment_cmd Paper.experiments
          @ app_cmds
          @ [ paper_cmd; analyze_cmd; check_cmd; explain_cmd; watch_cmd; diff_cmd ])))
