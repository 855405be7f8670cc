(* The causal blame engine: backward slicing from a violating read or a
   critical alert to the injected fault that explains it, plus the
   flight-recorder neutrality guarantees it depends on. *)

open Dsmpm2_sim
open Dsmpm2_net
open Dsmpm2_experiments

(* --- synthetic traces: exact control over spans and timestamps --- *)

(* Build a trace from (at_us, span, event) triples via the JSONL loader —
   the only public path that lets a test pick its own timestamps. *)
let trace_of events =
  let lines =
    List.map
      (fun (at_us, span, ev) ->
        Json.to_string (Trace.event_to_json ~at:(Time.of_us at_us) ~span ev))
      events
  in
  match Trace.of_jsonl (String.concat "\n" lines) with
  | Ok tr -> tr
  | Error msg -> Alcotest.failf "synthetic trace did not load: %s" msg

let test_span_drop_blamed () =
  (* Span 5 is a read fault on page 3 whose page send gets dropped; span 9
     is unrelated traffic on page 8.  Blaming the violating read on page 3
     must name exactly the span-5 drop and nothing from span 9. *)
  let tr =
    trace_of
      [
        (10., 5, Trace.Fault { node = 2; page = 3; protocol = "li_hudak"; mode = "read" });
        ( 12.,
          9,
          Trace.Fault { node = 1; page = 8; protocol = "li_hudak"; mode = "read" } );
        ( 15.,
          5,
          Trace.Page_request
            { node = 0; page = 3; protocol = "li_hudak"; mode = "read"; requester = 2 }
        );
        ( 20.,
          5,
          Trace.Page_send
            { node = 0; page = 3; protocol = "li_hudak"; dst = 2; bytes = 4096; grant = "R" }
        );
        (20., 9, Trace.Drop { src = 3; dst = 1; kind = "msg.bulk" });
        (30., 5, Trace.Drop { src = 0; dst = 2; kind = "msg.bulk" });
      ]
  in
  let x = Explain.explain_violation ~trace:tr ~node:2 ~page:3 ~at:(Time.of_us 100.) ~detail:"stale read" in
  Alcotest.(check (list int)) "seed span is the page-3 operation" [ 5 ]
    (Explain.target x |> fun _ -> x.Explain.x_spans);
  (match Explain.causes x with
  | [ Explain.Dropped_message { c_src; c_dst; c_kind; c_span; c_blackhole; _ } ] ->
      Alcotest.(check int) "drop src" 0 c_src;
      Alcotest.(check int) "drop dst" 2 c_dst;
      Alcotest.(check string) "drop kind" "msg.bulk" c_kind;
      Alcotest.(check int) "drop span" 5 c_span;
      Alcotest.(check bool) "seeded loss, not blackhole" false c_blackhole
  | cs -> Alcotest.failf "expected exactly the span-5 drop, got %d causes" (List.length cs));
  (* The slice holds the whole span-5 chain and none of span 9. *)
  Alcotest.(check int) "slice is the span-5 chain" 4 (List.length x.Explain.x_slice);
  List.iter
    (fun (_, span, _) ->
      Alcotest.(check bool) "no span-9 event leaks in" false (span = 9))
    x.Explain.x_slice

let test_causes_respect_target_instant () =
  (* A drop after the violating read cannot have caused it. *)
  let tr =
    trace_of
      [
        (10., 5, Trace.Fault { node = 2; page = 3; protocol = "li_hudak"; mode = "read" });
        (30., 5, Trace.Drop { src = 0; dst = 2; kind = "msg.bulk" });
      ]
  in
  let x =
    Explain.explain_violation ~trace:tr ~node:2 ~page:3 ~at:(Time.of_us 20.)
      ~detail:"stale read"
  in
  Alcotest.(check int) "later drop not blamed" 0 (List.length (Explain.causes x))

let test_crash_window_blamed () =
  (* A crash window on a node the seed span runs across is a cause even
     though the frozen node emits nothing while down. *)
  let tr =
    trace_of
      [
        (5., -1, Trace.Crash { node = 0; up = Time.of_us 400. });
        (10., 5, Trace.Fault { node = 2; page = 3; protocol = "li_hudak"; mode = "read" });
        ( 15.,
          5,
          Trace.Page_request
            { node = 0; page = 3; protocol = "li_hudak"; mode = "read"; requester = 2 }
        );
        (400., -1, Trace.Restart { node = 0 });
      ]
  in
  let x =
    Explain.explain_violation ~trace:tr ~node:2 ~page:3 ~at:(Time.of_us 500.)
      ~detail:"stale read"
  in
  match Explain.causes x with
  | [ Explain.Crash_window { c_node; c_up; _ } ] ->
      Alcotest.(check int) "crashed node" 0 c_node;
      Alcotest.(check int) "window end" (Time.of_us 400.) c_up
  | cs -> Alcotest.failf "expected the crash window, got %d causes" (List.length cs)

(* --- the real thing: faulted conformance runs --- *)

let faulted ?explain ?trace_capacity ~protocol name ~seed =
  let scenario = List.find (fun s -> s.Conformance.name = name) Conformance.scenarios in
  fst
    (Conformance.run ~spec:Conformance.default_fault_spec ?explain
       ?trace_capacity ~protocol ~driver:Driver.bip_myrinet ~scenario
       ~seed:(Some seed) ())

(* The first li_hudak seed whose faulted racy_poll run fails; the sweep
   demonstrates there is one early. *)
let failing_li_hudak_outcome () =
  let rec find seed =
    if seed > 24 then Alcotest.fail "no failing li_hudak seed in 0..24"
    else
      let o = faulted ~explain:true ~protocol:"li_hudak" "racy_poll" ~seed in
      if o.Conformance.o_failed then o else find (seed + 1)
  in
  find 0

let test_li_hudak_failure_explained () =
  let o = failing_li_hudak_outcome () in
  let xs = o.Conformance.o_explanations in
  Alcotest.(check bool) "failure carries explanations" true (xs <> []);
  List.iter
    (fun x ->
      Alcotest.(check bool) "every explanation names a concrete cause" true
        (Explain.causes x <> []);
      (* Every cause is one of the injected faults, rendered concretely. *)
      List.iter
        (fun c ->
          let s = Explain.cause_to_string c in
          Alcotest.(check bool) "cause names a link or a node" true
            (String.length s > 0))
        (Explain.causes x))
    xs

let test_explain_deterministic () =
  let run () =
    let o = failing_li_hudak_outcome () in
    String.concat "\n"
      (List.map
         (fun x -> Json.to_string (Explain.to_json x))
         o.Conformance.o_explanations)
  in
  Alcotest.(check string) "same seed, byte-identical explanations" (run ()) (run ())

let test_sc_abd_nothing_to_explain () =
  for seed = 0 to 5 do
    List.iter
      (fun workload ->
        let o = faulted ~explain:true ~protocol:"sc_abd" workload ~seed in
        Alcotest.(check bool)
          (Printf.sprintf "sc_abd survives seed %d" seed)
          false
          o.Conformance.o_failed;
        Alcotest.(check int)
          (Printf.sprintf "sc_abd has nothing to explain at seed %d" seed)
          0
          (List.length o.Conformance.o_explanations))
      [ "racy_poll"; "lock_ladder" ]
  done

(* --- flight recorder neutrality: the recorder must never change what the
   run does, only what the trace remembers --- *)

let test_recorder_schedule_neutral () =
  let fingerprint cap =
    let o =
      faulted ?trace_capacity:cap ~protocol:"li_hudak" "racy_poll"
        ~seed:1
    in
    (o.Conformance.o_fingerprint, o.Conformance.o_stalled,
     o.Conformance.o_dropped)
  in
  let unbounded = fingerprint None in
  Alcotest.(check bool) "capacity 256 is schedule-neutral" true
    (fingerprint (Some 256) = unbounded);
  Alcotest.(check bool) "capacity 64 is schedule-neutral" true
    (fingerprint (Some 64) = unbounded)

let test_recorder_bounds_app_trace () =
  (* Monitored jacobi runs, 25 engine tie seeds, with and without the
     recorder: identical results and event counts at every seed, trace
     memory bounded by the ring. *)
  let run ~seed cap =
    let captured = ref None in
    let observe dsm =
      captured := Some dsm;
      Dsmpm2_core.Monitor.enable dsm true;
      Option.iter (Trace.set_capacity (Dsmpm2_core.Monitor.trace dsm)) cap
    in
    let r =
      Dsmpm2_apps.Jacobi.run
        {
          Dsmpm2_apps.Jacobi.default with
          size = 16;
          iterations = 3;
          tie_seed = Some seed;
          observe = Some observe;
        }
    in
    match !captured with
    | Some dsm -> (r, Dsmpm2_core.Monitor.trace dsm)
    | None -> Alcotest.fail "jacobi did not expose its runtime"
  in
  for seed = 0 to 24 do
    let r0, tr0 = run ~seed None in
    let r1, tr1 = run ~seed (Some 64) in
    let label s = Printf.sprintf "%s (seed %d)" s seed in
    Alcotest.(check bool) (label "same checksum") true
      (r0.Dsmpm2_apps.Jacobi.checksum = r1.Dsmpm2_apps.Jacobi.checksum);
    Alcotest.(check (float 0.0001)) (label "same simulated time")
      r0.Dsmpm2_apps.Jacobi.time_ms r1.Dsmpm2_apps.Jacobi.time_ms;
    Alcotest.(check int) (label "same events recorded") (Trace.recorded tr0)
      (Trace.recorded tr1);
    Alcotest.(check bool) (label "trace bounded") true (Trace.length tr1 <= 64);
    Alcotest.(check bool) (label "ring actually evicted") true
      (Trace.evicted tr1 > 0);
    Alcotest.(check int) (label "unbounded run evicts nothing") 0
      (Trace.evicted tr0)
  done

let () =
  Alcotest.run "explain"
    [
      ( "slicing",
        [
          Alcotest.test_case "span drop blamed" `Quick test_span_drop_blamed;
          Alcotest.test_case "later faults not blamed" `Quick
            test_causes_respect_target_instant;
          Alcotest.test_case "crash window blamed" `Quick test_crash_window_blamed;
        ] );
      ( "conformance",
        [
          Alcotest.test_case "li_hudak failure explained" `Quick
            test_li_hudak_failure_explained;
          Alcotest.test_case "explanations deterministic" `Quick
            test_explain_deterministic;
          Alcotest.test_case "sc_abd nothing to explain" `Quick
            test_sc_abd_nothing_to_explain;
        ] );
      ( "flight recorder",
        [
          Alcotest.test_case "schedule neutral" `Quick test_recorder_schedule_neutral;
          Alcotest.test_case "bounds an application trace" `Quick
            test_recorder_bounds_app_trace;
        ] );
    ]
