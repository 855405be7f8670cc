open Dsmpm2_sim
open Dsmpm2_net
open Dsmpm2_core
open Dsmpm2_protocols
open Dsmpm2_apps

type stack_row = {
  driver : string;
  stack_bytes : int;
  page_transfer_us : float;
  thread_migration_us : float;
}

type refresh_row = { protocol : string; refresh_period : int; time_ms : float }

type manager_row = {
  manager : string;
  writers : int;
  request_messages : int;
  read_latency_us : float;
}

type balance_row = {
  balanced : bool;
  nodes_used : int;
  tsp_time_ms : float;
  thread_migrations : int;
  balancer_moves : int;
}

type data = {
  stack : stack_row list;
  refresh : refresh_row list;
  manager : manager_row list;
  balance : balance_row list;
}

let fault_total ~driver ~protocol_of ~stack_bytes =
  let dsm = Dsm.create ~nodes:2 ~driver () in
  let ids = Builtin.register_all dsm in
  let x = Dsm.malloc dsm ~protocol:(protocol_of ids) ~home:(Dsm.On_node 1) 8 in
  ignore (Dsm.spawn dsm ~node:0 ~stack_bytes (fun () -> ignore (Dsm.read_int dsm x)));
  Dsm.run dsm;
  Time.to_us (Stats.span_mean (Dsm.stats dsm) Instrument.stage_total)

let stack_sizes = [ 1024; 4096; 16384; 65536 ]

let run_stack () =
  List.concat_map
    (fun driver ->
      List.map
        (fun stack_bytes ->
          {
            driver = driver.Driver.name;
            stack_bytes;
            page_transfer_us =
              fault_total ~driver ~protocol_of:(fun i -> i.Builtin.li_hudak) ~stack_bytes;
            thread_migration_us =
              fault_total ~driver
                ~protocol_of:(fun i -> i.Builtin.migrate_thread)
                ~stack_bytes;
          })
        stack_sizes)
    Driver.all

let refresh_periods = [ 500; 2000; 8000 ]

let run_refresh () =
  List.concat_map
    (fun protocol ->
      List.map
        (fun refresh_period ->
          let r = Tsp.run { Tsp.default with Tsp.protocol; refresh_period } in
          { protocol; refresh_period; time_ms = r.Tsp.time_ms })
        refresh_periods)
    [ "li_hudak"; "erc_sw"; "hbrc_mw"; "migrate_thread" ]

(* A reader caches a copy early, then ownership walks through [writers]
   nodes (staggered in virtual time so each transfer completes before the
   next), and finally the reader takes a cold read fault.  Under the dynamic
   manager its stale probable-owner hint sends the request down the whole
   hand-off chain; under the fixed manager the home forwards it in two
   hops. *)
let manager_scenario ~manager ~writers =
  let nodes = writers + 2 in
  let reader = writers + 1 in
  let dsm = Dsm.create ~nodes ~driver:Driver.bip_myrinet () in
  let ids = Builtin.register_all dsm in
  let extras = Builtin.register_extras dsm in
  let protocol =
    match manager with
    | "dynamic" -> ids.Builtin.li_hudak
    | "fixed" -> extras.Builtin.li_hudak_fixed
    | other -> invalid_arg ("Ablation.manager_scenario: " ^ other)
  in
  let x = Dsm.malloc dsm ~protocol ~home:(Dsm.On_node 0) 8 in
  let net = Dsmpm2_pm2.Pm2.network (Dsm.pm2 dsm) in
  let step_us = 50_000. in
  for w = 1 to writers do
    ignore
      (Dsm.spawn dsm ~node:w (fun () ->
           Dsm.compute dsm (float_of_int w *. step_us);
           (* read first: the write request then goes straight to the
              previous owner, leaving the home's hint stale (this is what
              lets probable-owner chains actually grow) *)
           ignore (Dsm.read_int dsm x);
           Dsm.write_int dsm x w))
  done;
  let requests = ref 0 and latency = ref 0. in
  ignore
    (Dsm.spawn dsm ~node:reader (fun () ->
         ignore (Dsm.read_int dsm x);
         (* cache a copy before the hand-offs *)
         Dsm.compute dsm (float_of_int (writers + 1) *. step_us);
         let req0 = Stats.count (Network.stats net) "msg.request" in
         let t0 = Dsm.now_us dsm in
         ignore (Dsm.read_int dsm x);
         latency := Dsm.now_us dsm -. t0;
         requests := Stats.count (Network.stats net) "msg.request" - req0));
  Dsm.run dsm;
  ({ manager; writers; request_messages = !requests; read_latency_us = !latency }
    : manager_row)

let manager_writer_counts = [ 1; 3; 6 ]

let run_manager () =
  List.concat_map
    (fun writers ->
      [
        manager_scenario ~manager:"dynamic" ~writers;
        manager_scenario ~manager:"fixed" ~writers;
      ])
    manager_writer_counts

let run_balance () =
  List.concat_map
    (fun nodes ->
      List.map
        (fun balanced ->
          let r =
            Tsp.run
              { Tsp.default with Tsp.protocol = "migrate_thread"; nodes; balance = balanced }
          in
          {
            balanced;
            nodes_used = nodes;
            tsp_time_ms = r.Tsp.time_ms;
            thread_migrations = r.Tsp.migrations;
            balancer_moves = r.Tsp.balancer_moves;
          })
        [ false; true ])
    [ 4; 8 ]

let run () =
  {
    stack = run_stack ();
    refresh = run_refresh ();
    manager = run_manager ();
    balance = run_balance ();
  }

let print ppf data =
  Format.fprintf ppf
    "Ablation (a): cold read-fault cost vs faulting thread's stack size (us)@.";
  Format.fprintf ppf "%-18s %10s %15s %17s %10s@." "Driver" "stack(B)"
    "page transfer" "thread migration" "winner";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-18s %10d %15.1f %17.1f %10s@." r.driver r.stack_bytes
        r.page_transfer_us r.thread_migration_us
        (if r.thread_migration_us < r.page_transfer_us then "migrate" else "page"))
    data.stack;
  Format.fprintf ppf
    "@.Ablation (b): TSP run time (ms) vs bound-refresh period (expansions)@.";
  Format.fprintf ppf "%-16s" "Protocol";
  List.iter (fun p -> Format.fprintf ppf " %10d" p) refresh_periods;
  Format.fprintf ppf "@.";
  List.iter
    (fun proto ->
      Format.fprintf ppf "%-16s" proto;
      List.iter
        (fun period ->
          let c =
            List.find
              (fun r -> r.protocol = proto && r.refresh_period = period)
              data.refresh
          in
          Format.fprintf ppf " %10.1f" c.time_ms)
        refresh_periods;
      Format.fprintf ppf "@.")
    [ "li_hudak"; "erc_sw"; "hbrc_mw"; "migrate_thread" ];
  Format.fprintf ppf
    "@.Ablation (c): dynamic vs fixed distributed manager (late read after \
     ownership hand-offs)@.";
  Format.fprintf ppf "%-10s %10s %18s %18s@." "Manager" "hand-offs"
    "request msgs" "read latency(us)";
  List.iter
    (fun (r : manager_row) ->
      Format.fprintf ppf "%-10s %10d %18d %18.1f@." r.manager r.writers
        r.request_messages r.read_latency_us)
    data.manager;
  Format.fprintf ppf
    "@.Ablation (d): TSP under migrate_thread, with and without the PM2 load \
     balancer@.";
  Format.fprintf ppf "%-8s %10s %12s %14s %16s@." "nodes" "balancer" "time(ms)"
    "migrations" "balancer moves";
  List.iter
    (fun (r : balance_row) ->
      Format.fprintf ppf "%-8d %10s %12.1f %14d %16d@." r.nodes_used
        (if r.balanced then "on" else "off")
        r.tsp_time_ms r.thread_migrations r.balancer_moves)
    data.balance

let rows d =
  let us = Time.of_us and ms x = Time.of_us (x *. 1000.) and id fmt = Printf.sprintf fmt in
  List.map
    (fun r ->
      ( id "ablation/stack/%s/%d" (Driver.slug r.driver) r.stack_bytes,
        [
          ("page_transfer_ns", us r.page_transfer_us);
          ("thread_migration_ns", us r.thread_migration_us);
        ] ))
    d.stack
  @ List.map
      (fun r ->
        (id "ablation/refresh/%s/%d" r.protocol r.refresh_period, [ ("time_ns", ms r.time_ms) ]))
      d.refresh
  @ List.map
      (fun (r : manager_row) ->
        ( id "ablation/manager/%s/%d" r.manager r.writers,
          [
            ("request_messages", r.request_messages);
            ("read_latency_ns", us r.read_latency_us);
          ] ))
      d.manager
  @ List.map
      (fun r ->
        ( id "ablation/balance/%d/%s" r.nodes_used (if r.balanced then "on" else "off"),
          [
            ("time_ns", ms r.tsp_time_ms);
            ("thread_migrations", r.thread_migrations);
            ("balancer_moves", r.balancer_moves);
          ] ))
      d.balance
