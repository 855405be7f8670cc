(* Tests of the network layer: driver calibration and delivery semantics. *)

open Dsmpm2_sim
open Dsmpm2_net

let us = Alcotest.float 0.01

(* The drivers are calibrated against the paper's tables; these tests pin
   the calibration down so a drive-by edit cannot silently skew every
   experiment. *)
let test_driver_calibration () =
  let check_page d expected =
    Alcotest.check us
      (d.Driver.name ^ " 4kB page transfer")
      expected
      (Time.to_us (Driver.delay d (Driver.Bulk 4096)))
  in
  check_page Driver.bip_myrinet 138.;
  check_page Driver.tcp_myrinet 343.;
  check_page Driver.tcp_fast_ethernet 736.;
  check_page Driver.sisci_sci 119.;
  let check_req d expected =
    Alcotest.check us (d.Driver.name ^ " request") expected
      (Time.to_us (Driver.delay d Driver.Request))
  in
  check_req Driver.bip_myrinet 23.;
  check_req Driver.tcp_myrinet 220.;
  check_req Driver.tcp_fast_ethernet 220.;
  check_req Driver.sisci_sci 38.;
  let check_mig d expected =
    (* 1 kB stack + 256 B descriptor *)
    Alcotest.check us (d.Driver.name ^ " migration") expected
      (Time.to_us (Driver.delay d (Driver.Migration 1280)))
  in
  check_mig Driver.bip_myrinet 75.;
  check_mig Driver.tcp_myrinet 280.;
  check_mig Driver.tcp_fast_ethernet 373.;
  check_mig Driver.sisci_sci 62.;
  Alcotest.check us "BIP null rpc" 8. (Time.to_us (Driver.delay Driver.bip_myrinet Driver.Null_rpc));
  Alcotest.check us "SCI null rpc" 6. (Time.to_us (Driver.delay Driver.sisci_sci Driver.Null_rpc))

let test_driver_by_name () =
  Alcotest.(check bool) "found" true (Driver.by_name "SISCI/SCI" <> None);
  Alcotest.(check bool) "not found" true (Driver.by_name "Carrier/Pigeon" = None);
  Alcotest.(check int) "four platforms" 4 (List.length Driver.all)

let test_driver_size_monotone () =
  let d = Driver.bip_myrinet in
  Alcotest.(check bool) "bigger bulk costs more" true
    (Driver.delay d (Driver.Bulk 8192) > Driver.delay d (Driver.Bulk 4096));
  Alcotest.(check bool) "bigger migration costs more" true
    (Driver.delay d (Driver.Migration 64_000) > Driver.delay d (Driver.Migration 1280))

let test_network_delivery_delay () =
  let eng = Engine.create () in
  let net = Network.create eng ~driver:Driver.bip_myrinet ~nodes:2 in
  let delivered_at = ref Time.zero in
  Network.send net ~src:0 ~dst:1 ~cost:Driver.Request (fun () ->
      delivered_at := Engine.now eng);
  Engine.run eng;
  Alcotest.check us "request delay" 23. (Time.to_us !delivered_at)

let test_network_fifo_per_link () =
  let eng = Engine.create () in
  let net = Network.create eng ~driver:Driver.bip_myrinet ~nodes:2 in
  let log = ref [] in
  (* A slow bulk then a fast request on the same link: FIFO must hold. *)
  Network.send net ~src:0 ~dst:1 ~cost:(Driver.Bulk 4096) (fun () -> log := "bulk" :: !log);
  Network.send net ~src:0 ~dst:1 ~cost:Driver.Request (fun () -> log := "req" :: !log);
  Engine.run eng;
  Alcotest.(check (list string)) "in-order delivery" [ "bulk"; "req" ] (List.rev !log)

let test_network_loopback_free () =
  let eng = Engine.create () in
  let net = Network.create eng ~driver:Driver.tcp_fast_ethernet ~nodes:2 in
  let at = ref (Time.of_us 999.) in
  Network.send net ~src:1 ~dst:1 ~cost:(Driver.Bulk 4096) (fun () -> at := Engine.now eng);
  Engine.run eng;
  Alcotest.(check int) "loopback costs nothing" Time.zero !at

let test_network_counters () =
  let eng = Engine.create () in
  let net = Network.create eng ~driver:Driver.bip_myrinet ~nodes:3 in
  Network.send net ~src:0 ~dst:1 ~cost:Driver.Request ignore;
  Network.send net ~src:1 ~dst:2 ~cost:(Driver.Bulk 100) ignore;
  Network.send net ~src:2 ~dst:0 ~cost:(Driver.Migration 50) ignore;
  Engine.run eng;
  Alcotest.(check int) "messages" 3 (Network.messages_sent net);
  (* Each message carries the uniform wire header on top of its payload, so
     control traffic shows up in the byte column too. *)
  Alcotest.(check int)
    "wire bytes" (150 + (3 * Driver.header_bytes))
    (Network.bytes_sent net);
  Alcotest.(check int) "request counter" 1 (Stats.count (Network.stats net) "msg.request");
  Alcotest.(check int) "bulk counter" 1 (Stats.count (Network.stats net) "msg.bulk")

let test_network_out_of_range () =
  let eng = Engine.create () in
  let net = Network.create eng ~driver:Driver.bip_myrinet ~nodes:2 in
  Alcotest.check_raises "bad node"
    (Invalid_argument "Network.send: node id out of range") (fun () ->
      Network.send net ~src:0 ~dst:5 ~cost:Driver.Request ignore)

let test_network_jitter_applies () =
  let eng = Engine.create () in
  let jitter ~src:_ ~dst:_ d = 2 * d in
  let net = Network.create ~jitter eng ~driver:Driver.bip_myrinet ~nodes:2 in
  let at = ref Time.zero in
  Network.send net ~src:0 ~dst:1 ~cost:Driver.Request (fun () -> at := Engine.now eng);
  Engine.run eng;
  Alcotest.check us "doubled delay" 46. (Time.to_us !at)

let test_bulk_zero_is_base_cost () =
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (d.Driver.name ^ " zero-byte bulk costs only the base")
        true
        (Time.to_us (Driver.delay d (Driver.Bulk 0)) = d.Driver.page_base_us))
    Driver.all

(* Self-sends never touch the wire: they must not inflate the traffic
   counters the experiments compare against the paper's tables.  They are
   tallied separately in [loopback_sent] / "net.loopback". *)
let test_network_self_send_not_counted () =
  let eng = Engine.create () in
  let net = Network.create eng ~driver:Driver.bip_myrinet ~nodes:2 in
  Network.send net ~src:0 ~dst:1 ~cost:Driver.Request ignore;
  Network.send net ~src:1 ~dst:1 ~cost:(Driver.Bulk 64) ignore;
  Engine.run eng;
  Alcotest.(check int) "wire messages unchanged by self-send" 1
    (Network.messages_sent net);
  Alcotest.(check int) "wire bytes unchanged by self-send" Driver.header_bytes
    (Network.bytes_sent net);
  Alcotest.(check int) "no per-kind counter for loopback" 0
    (Stats.count (Network.stats net) "msg.bulk");
  Alcotest.(check int) "loopback counter bumps" 1 (Network.loopback_sent net);
  Alcotest.(check int) "net.loopback stat" 1
    (Stats.count (Network.stats net) "net.loopback")

(* Two same-time self-sends must deliver in send order under every tie seed:
   the loopback path has its own monotonic-arrival clamp, so the engine's
   seeded tie-breaking can never invert them. *)
let test_network_loopback_fifo_under_tie_seeds () =
  for seed = 0 to 49 do
    let eng = Engine.create ~tie_seed:seed () in
    let net = Network.create eng ~driver:Driver.bip_myrinet ~nodes:2 in
    let log = ref [] in
    for i = 1 to 6 do
      Network.send net ~src:1 ~dst:1 ~cost:Driver.Request (fun () ->
          log := i :: !log)
    done;
    Engine.run eng;
    Alcotest.(check (list int))
      (Printf.sprintf "loopback FIFO, tie seed %d" seed)
      [ 1; 2; 3; 4; 5; 6 ] (List.rev !log)
  done

let test_fault_plan_deterministic () =
  let plan seed =
    Fault_plan.seeded ~nodes:4 ~seed ~crashes:3 ~loss_pct:2. ~protect:[ 0 ] ()
  in
  let a = plan 7 and b = plan 7 and c = plan 8 in
  Alcotest.(check string)
    "same seed, same schedule"
    (Fault_plan.to_string a) (Fault_plan.to_string b);
  Alcotest.(check bool) "same windows" true
    (Fault_plan.windows a = Fault_plan.windows b);
  Alcotest.(check bool) "different seed perturbs the schedule" true
    (Fault_plan.windows a <> Fault_plan.windows c);
  List.iter
    (fun w ->
      Alcotest.(check bool) "protected node never crashes" true
        (w.Fault_plan.w_node <> 0);
      Alcotest.(check bool) "window is non-empty" true
        (w.Fault_plan.w_up > w.Fault_plan.w_down))
    (Fault_plan.windows a);
  (* Windows never overlap in time: at most one node down at any instant. *)
  let sorted = Fault_plan.windows a in
  ignore
    (List.fold_left
       (fun prev_up w ->
         Alcotest.(check bool) "windows do not overlap" true
           (w.Fault_plan.w_down >= prev_up);
         w.Fault_plan.w_up)
       Time.zero sorted);
  Alcotest.(check bool) "seeded plan has faults" true (Fault_plan.has_faults a);
  Alcotest.(check bool) "empty plan has none" false
    (Fault_plan.has_faults Fault_plan.none)

(* Installing the empty fault plan must be invisible: no drops, no RNG
   draws, bit-for-bit the same delivery schedule as no plan at all. *)
let test_fault_plan_none_schedule_neutral () =
  let deliveries with_plan =
    let eng = Engine.create ~tie_seed:3 () in
    let jitter = Network.seeded_jitter ~extra_us:25. ~seed:11 () in
    let net = Network.create ~jitter eng ~driver:Driver.tcp_myrinet ~nodes:3 in
    if with_plan then Network.set_fault_plan net Fault_plan.none;
    let log = ref [] in
    for i = 1 to 15 do
      let src = i mod 3 and dst = (i + 1) mod 3 in
      Network.send net ~src ~dst ~cost:(Driver.Bulk (i * 10)) (fun () ->
          log := (i, Engine.now eng) :: !log)
    done;
    Engine.run eng;
    (List.rev !log, Network.messages_sent net, Network.messages_dropped net)
  in
  let plain = deliveries false and neutral = deliveries true in
  Alcotest.(check bool) "bit-for-bit identical schedule" true (plain = neutral);
  let _, _, dropped = neutral in
  Alcotest.(check int) "empty plan drops nothing" 0 dropped

(* A send under a plan without windows or loss allocates nothing: the
   second round of sends reuses the queue the first one grew. *)
let test_send_allocates_nothing () =
  let eng = Engine.create () in
  let net = Network.create eng ~driver:Driver.bip_myrinet ~nodes:2 in
  Network.set_fault_plan net Fault_plan.none;
  let delivered = ref 0 in
  let deliver () = incr delivered in
  let n = 10_000 in
  let round () =
    for _ = 1 to n do
      Network.send net ~src:0 ~dst:1 ~cost:Driver.Request deliver
    done
  in
  round ();
  Engine.run eng;
  let before = Gc.minor_words () in
  round ();
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  Engine.run eng;
  Alcotest.(check int) "every message delivered" (2 * n) !delivered;
  Alcotest.(check bool) (Printf.sprintf "Network.send: %.3f words/send" words) true
    (words < 0.1)

let test_driver_wire_bytes () =
  Alcotest.(check int) "request is header-only" Driver.header_bytes
    (Driver.wire_bytes Driver.Request);
  Alcotest.(check int) "null rpc is header-only" Driver.header_bytes
    (Driver.wire_bytes Driver.Null_rpc);
  Alcotest.(check int) "bulk adds payload" (Driver.header_bytes + 4096)
    (Driver.wire_bytes (Driver.Bulk 4096));
  Alcotest.(check int) "migration adds payload" (Driver.header_bytes + 50)
    (Driver.wire_bytes (Driver.Migration 50));
  Alcotest.(check int) "control payload is zero" 0
    (Driver.payload_bytes Driver.Request)

let test_network_jitter_never_reorders () =
  let eng = Engine.create () in
  (* Adversarial jitter: shrink the delay of every second message. *)
  let flip = ref false in
  let jitter ~src:_ ~dst:_ d =
    flip := not !flip;
    if !flip then d else d / 10
  in
  let net = Network.create ~jitter eng ~driver:Driver.tcp_fast_ethernet ~nodes:2 in
  let log = ref [] in
  for i = 1 to 6 do
    Network.send net ~src:0 ~dst:1 ~cost:(Driver.Bulk 4096) (fun () -> log := i :: !log)
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "FIFO survives jitter" [ 1; 2; 3; 4; 5; 6 ] (List.rev !log)

let test_network_negative_jitter_clamped () =
  let eng = Engine.create () in
  (* A jitter function violating the non-negative contract: the send layer
     must clamp the delay to zero instead of scheduling into the past. *)
  let jitter ~src:_ ~dst:_ _d = Time.of_us (-50.) in
  let net = Network.create ~jitter eng ~driver:Driver.bip_myrinet ~nodes:2 in
  let at = ref (Time.of_us 999.) in
  Network.send net ~src:0 ~dst:1 ~cost:Driver.Request (fun () -> at := Engine.now eng);
  Engine.run eng;
  (* Clamped to zero delay; the per-link FIFO floor still adds its epsilon. *)
  Alcotest.(check bool) "delivery not in the past" true (!at >= Time.zero);
  Alcotest.(check bool) "clamped near zero" true (!at <= Time.of_ns 1)

let test_seeded_jitter_deterministic_and_bounded () =
  let deliveries seed =
    let eng = Engine.create () in
    let jitter = Network.seeded_jitter ~extra_us:30. ~spike_us:0. ~spike_pct:0 ~seed () in
    let net = Network.create ~jitter eng ~driver:Driver.bip_myrinet ~nodes:2 in
    let log = ref [] in
    for i = 1 to 20 do
      Network.send net ~src:0 ~dst:1 ~cost:Driver.Request (fun () ->
          log := (i, Engine.now eng) :: !log)
    done;
    Engine.run eng;
    List.rev !log
  in
  let a = deliveries 5 and b = deliveries 5 and c = deliveries 6 in
  Alcotest.(check bool) "same seed replays identically" true (a = b);
  Alcotest.(check bool) "different seed perturbs differently" true (a <> c);
  (* All twenty sends left at t=0: each delay is base + extra in [0, 30us],
     plus FIFO queueing behind at most 19 earlier messages. *)
  let base = Time.to_us (Driver.delay Driver.bip_myrinet Driver.Request) in
  List.iter
    (fun (_, t) ->
      let t = Time.to_us t in
      Alcotest.(check bool) "at least base delay" true (t >= base);
      Alcotest.(check bool) "bounded" true (t <= base +. 30.))
    a;
  Alcotest.(check (list int)) "FIFO order preserved" (List.init 20 (fun i -> i + 1))
    (List.map fst a)

let test_seeded_jitter_spikes () =
  let rng_jitter = Network.seeded_jitter ~extra_us:0. ~spike_us:100. ~spike_pct:50 ~seed:1 () in
  let spikes = ref 0 in
  for _ = 1 to 200 do
    if rng_jitter ~src:0 ~dst:1 Time.zero >= Time.of_us 100. then incr spikes
  done;
  Alcotest.(check bool) "spike rate near 50%" true (!spikes > 60 && !spikes < 140);
  Alcotest.check_raises "negative bound rejected"
    (Invalid_argument "Network.seeded_jitter: bounds must be non-negative")
    (fun () ->
      ignore (Network.seeded_jitter ~extra_us:(-1.) ~seed:1 () ~src:0 ~dst:1 Time.zero));
  Alcotest.check_raises "bad percentage rejected"
    (Invalid_argument "Network.seeded_jitter: spike_pct must be in [0, 100]")
    (fun () ->
      ignore (Network.seeded_jitter ~spike_pct:101 ~seed:1 () ~src:0 ~dst:1 Time.zero))

let () =
  Alcotest.run "net"
    [
      ( "driver",
        [
          Alcotest.test_case "paper calibration" `Quick test_driver_calibration;
          Alcotest.test_case "by_name" `Quick test_driver_by_name;
          Alcotest.test_case "size monotone" `Quick test_driver_size_monotone;
          Alcotest.test_case "wire bytes" `Quick test_driver_wire_bytes;
        ] );
      ( "network",
        [
          Alcotest.test_case "delivery delay" `Quick test_network_delivery_delay;
          Alcotest.test_case "FIFO per link" `Quick test_network_fifo_per_link;
          Alcotest.test_case "loopback free" `Quick test_network_loopback_free;
          Alcotest.test_case "counters" `Quick test_network_counters;
          Alcotest.test_case "out of range" `Quick test_network_out_of_range;
          Alcotest.test_case "jitter applies" `Quick test_network_jitter_applies;
          Alcotest.test_case "jitter never reorders" `Quick
            test_network_jitter_never_reorders;
          Alcotest.test_case "negative jitter clamped" `Quick
            test_network_negative_jitter_clamped;
          Alcotest.test_case "seeded jitter deterministic" `Quick
            test_seeded_jitter_deterministic_and_bounded;
          Alcotest.test_case "seeded jitter spikes" `Quick test_seeded_jitter_spikes;
          Alcotest.test_case "zero-byte bulk" `Quick test_bulk_zero_is_base_cost;
          Alcotest.test_case "self send not counted" `Quick
            test_network_self_send_not_counted;
          Alcotest.test_case "loopback FIFO under tie seeds" `Quick
            test_network_loopback_fifo_under_tie_seeds;
        ] );
      ( "faults",
        [
          Alcotest.test_case "fault plan deterministic" `Quick
            test_fault_plan_deterministic;
          Alcotest.test_case "empty plan schedule neutral" `Quick
            test_fault_plan_none_schedule_neutral;
          Alcotest.test_case "send allocates nothing" `Quick test_send_allocates_nothing;
        ] );
    ]
