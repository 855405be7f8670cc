(* Unit and property tests of the discrete-event engine. *)

open Dsmpm2_sim

(* --- Time --- *)

let test_time_conversions () =
  Alcotest.(check int) "1 us = 1000 ns" 1_000 (Time.of_us 1.);
  Alcotest.(check (float 1e-9)) "round trip" 42.5 (Time.to_us (Time.of_us 42.5));
  Alcotest.(check (float 1e-9)) "ms" 1.5 (Time.to_ms (Time.of_us 1_500.));
  Alcotest.(check int) "rounding" 11 (Time.of_ns 11);
  Alcotest.(check string) "pp us" "42.0us" (Format.asprintf "%a" Time.pp (Time.of_us 42.))

(* [Time.of_us] rounds without [Float.round]; it must round every price
   as [Float.round] does, halfway values and their neighbours included. *)
let prop_of_us_rounds_like_float_round =
  let near_half =
    QCheck.Gen.(
      map2
        (fun n nudge -> nudge ((float_of_int n +. 0.5) /. 1_000.))
        (int_range (-100_000_000) 100_000_000)
        (oneofl [ Fun.id; Float.pred; Float.succ ]))
  in
  QCheck.Test.make ~name:"of_us rounds like Float.round" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%h")
       QCheck.Gen.(oneof [ float_range (-1e9) 1e9; float_range 0. 0.01; near_half ]))
    (fun x -> Time.of_us x = int_of_float (Float.round (x *. 1_000.)))

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:1 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  Alcotest.(check bool) "different seeds differ" false (Rng.bits64 a = Rng.bits64 b)

let test_rng_split_independent () =
  let a = Rng.create ~seed:1 in
  let c = Rng.split a in
  Alcotest.(check bool) "split stream differs" false (Rng.bits64 a = Rng.bits64 c)

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int in bounds" ~count:500
    QCheck.(pair small_int (int_bound 1000))
    (fun (seed, n) ->
      let n = n + 1 in
      let rng = Rng.create ~seed in
      let v = Rng.int rng n in
      v >= 0 && v < n)

let test_rng_shuffle_permutes () =
  let rng = Rng.create ~seed:3 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  Alcotest.(check (list int)) "same multiset" (List.init 50 Fun.id)
    (List.sort compare (Array.to_list a))

(* The first eight draws of each kind for three seeds.  Every seeded
   schedule, workload and fault plan derives from this stream, so a change
   to how the state is stored must replay it bit for bit. *)
let rng_pins =
  [
    ( 0,
      [ 0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x06c45d188009454fL; 0xf88bb8a8724c81ecL;
        0x1b39896a51a8749bL; 0x53cb9f0c747ea2eaL; 0x2c829abe1f4532e1L; 0xc584133ac916ab3cL ],
      [ 0x1ec7736b; 0x286e597d; 0x20025153; 0x1c93207b; 0x146a1d26; 0x1d1fa8ba; 0x07d14cb8;
        0x3245aacf ],
      [ 0x1.c4415072f63b9p-1; 0x1.b9e279aa86e58p-2; 0x1.b1174620025p-6; 0x1.f1177150e499p-1;
        0x1.b39896a51a87p-4; 0x1.4f2e7c31d1fa8p-2; 0x1.6414d5f0fa298p-3; 0x1.8b082675922d5p-1 ] );
    ( 1,
      [ 0xbfef8030ddc2d772L; 0x5f552ce482f2aa47L; 0x70335fc3daf3d8a7L; 0xf440fe3b62c79d2cL;
        0x33ba2f29e7c168bbL; 0x98843f48a94b7866L; 0x74ad4c24d41a25f8L; 0x2f9a1f13648eab6eL ],
      [ 0x3770b5dc; 0x20bcaa91; 0x36bcf629; 0x18b1e74b; 0x39f05a2e; 0x2a52de19; 0x3506897e;
        0x1923aadb ],
      [ 0x1.7fdf0061bb85ap-1; 0x1.7d54b3920bcaap-2; 0x1.c0cd7f0f6bcf6p-2; 0x1.e881fc76c58f3p-1;
        0x1.9dd1794f3e0b4p-3; 0x1.31087e915296fp-1; 0x1.d2b5309350688p-2; 0x1.7cd0f89b24754p-3 ] );
    ( 42,
      [ 0x989b3f130a063869L; 0x290db4bf2570ded7L; 0x2a990be63a01b2d5L; 0x0c4b6b24ef01890eL;
        0xfb16a06e52ec10a7L; 0x3c30fc5fd50692c3L; 0x4782c4b4c4fdf7c9L; 0x272404a0a3926552L ],
      [ 0x02818e1a; 0x095c37b5; 0x0e806cb5; 0x3bc06243; 0x14bb0429; 0x3541a4b0; 0x313f7df2;
        0x28e49954 ],
      [ 0x1.31367e26140c7p-1; 0x1.486da5f92b86cp-3; 0x1.54c85f31d00d8p-3; 0x1.896d649de031p-5;
        0x1.f62d40dca5d82p-1; 0x1.e187e2fea8348p-3; 0x1.1e0b12d313f7cp-2; 0x1.392025051c93p-3 ] );
  ]

let test_rng_stream_pinned () =
  List.iter
    (fun (seed, bits, ints, floats) ->
      let draws f = let rng = Rng.create ~seed in List.init 8 (fun _ -> f rng) in
      let name what = Printf.sprintf "seed %d %s" seed what in
      Alcotest.(check (list int64)) (name "bits64") bits (draws Rng.bits64);
      Alcotest.(check (list int)) (name "int") ints (draws (fun r -> Rng.int r 0x40000000));
      Alcotest.(check (list (float 0.))) (name "float") floats (draws (fun r -> Rng.float r 1.0)))
    rng_pins

(* Minor words per call of [f], after a warm-up; [Gc.minor_words] itself
   boxes its result, which the per-call figure divides away. *)
let words_per_call ~n f =
  for i = 1 to 16 do f i done;
  let before = Gc.minor_words () in
  for i = 1 to n do f i done;
  (Gc.minor_words () -. before) /. float_of_int n

let test_rng_int_allocates_nothing () =
  let rng = Rng.create ~seed:5 in
  let sink = ref 0 in
  let words = words_per_call ~n:10_000 (fun _ -> sink := !sink + Rng.int rng 0x40000000) in
  Alcotest.(check bool) (Printf.sprintf "Rng.int: %.3f words" words) true (words < 0.01)

(* --- Engine --- *)

let test_engine_event_order () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.at eng (Time.of_us 30.) (fun () -> log := 3 :: !log);
  Engine.at eng (Time.of_us 10.) (fun () -> log := 1 :: !log);
  Engine.at eng (Time.of_us 20.) (fun () -> log := 2 :: !log);
  Engine.run eng;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check int) "events executed" 3 (Engine.events_executed eng)

let test_engine_tie_break_fifo () =
  let eng = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.at eng (Time.of_us 5.) (fun () -> log := i :: !log)
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "same-time events run FIFO" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_engine_past_event_rejected () =
  let eng = Engine.create () in
  Engine.at eng (Time.of_us 10.) (fun () ->
      Alcotest.check_raises "past is rejected"
        (Invalid_argument "Engine.at: time 5000 is in the past (now 10000)")
        (fun () -> Engine.at eng (Time.of_us 5.) ignore));
  Engine.run eng

let test_engine_sleep_advances_clock () =
  let eng = Engine.create () in
  let woke_at = ref Time.zero in
  ignore
    (Engine.spawn eng (fun () ->
         Engine.sleep eng (Time.of_us 100.);
         woke_at := Engine.now eng));
  Engine.run eng;
  Alcotest.(check int) "slept 100us" (Time.of_us 100.) !woke_at

let test_engine_stalled_detection () =
  let eng = Engine.create () in
  ignore (Engine.spawn eng (fun () -> Engine.suspend eng (fun _resume -> ())));
  Alcotest.check_raises "deadlock detected" (Engine.Stalled 1) (fun () ->
      Engine.run eng)

let test_engine_current_fiber () =
  let eng = Engine.create () in
  let inside = ref (-1) and outside = ref 0 in
  let fid = Engine.spawn eng (fun () -> inside := Engine.current_fiber eng) in
  Engine.at eng (Time.of_us 1.) (fun () -> outside := Engine.current_fiber eng);
  Engine.run eng;
  Alcotest.(check int) "inside fiber" fid !inside;
  Alcotest.(check int) "event context has no fiber" (-1) !outside

let test_engine_reuses_ended_fiber_ids () =
  (* An ended fiber's id goes to the next spawn, whether its body returned
     or raised; a live fiber's id is never handed out. *)
  let eng = Engine.create () in
  let seen = ref [] in
  let record () = seen := Engine.current_fiber eng :: !seen in
  let a = Engine.spawn eng record in
  Engine.run eng;
  let b = Engine.spawn eng record in
  Alcotest.(check int) "finished fiber's id reused" a b;
  Engine.run eng;
  let c =
    Engine.spawn eng (fun () ->
        record ();
        failwith "boom")
  in
  Alcotest.check_raises "body raised" (Failure "boom") (fun () -> Engine.run eng);
  let d = Engine.spawn eng record in
  Alcotest.(check int) "raised fiber's id reused" c d;
  Engine.run eng;
  let sleeper = Engine.spawn eng (fun () -> Engine.sleep eng (Time.of_us 1.); record ()) in
  let other = Engine.spawn eng record in
  Alcotest.(check bool) "live ids distinct" true (sleeper <> other);
  Engine.run eng;
  Alcotest.(check (list int)) "current_fiber inside each" [ a; b; c; d; other; sleeper ]
    (List.rev !seen);
  Alcotest.(check int) "no fiber left" 0 (Engine.live_fibers eng)

let test_engine_fiber_tags () =
  (* A fiber's tag reads -1 until set, follows [set_tag] at once when set
     on the running fiber, survives a suspension, and is -1 in plain
     events and on a reused id, whether the fiber before it returned or
     raised. *)
  let eng = Engine.create () in
  let seen = ref [] in
  let record what = seen := (what, Engine.current_tag eng) :: !seen in
  Engine.at eng Time.zero (fun () -> record "event");
  let a =
    Engine.spawn eng (fun () ->
        record "a, set before it ran";
        Engine.set_tag eng (Engine.current_fiber eng) 7;
        record "a, set on itself";
        Engine.sleep eng (Time.of_us 1.);
        record "a, resumed")
  in
  Engine.set_tag eng a 3;
  Engine.at eng (Time.of_us 0.5) (fun () -> record "event between a's slices");
  Engine.run eng;
  let b = Engine.spawn eng (fun () -> record "b, a's id reused") in
  Alcotest.(check int) "a's id reused" a b;
  Engine.run eng;
  let c =
    Engine.spawn eng (fun () ->
        Engine.set_tag eng (Engine.current_fiber eng) 5;
        record "c, about to raise";
        failwith "boom")
  in
  Engine.set_tag eng c 4;
  Alcotest.check_raises "body raised" (Failure "boom") (fun () -> Engine.run eng);
  Alcotest.(check int) "the raising slice restored the tag" (-1) (Engine.current_tag eng);
  let d = Engine.spawn eng (fun () -> record "d, c's id reused") in
  Alcotest.(check int) "c's id reused" c d;
  Engine.run eng;
  Alcotest.(check (list (pair string int))) "tags seen"
    [
      ("event", -1);
      ("a, set before it ran", 3);
      ("a, set on itself", 7);
      ("event between a's slices", -1);
      ("a, resumed", 7);
      ("b, a's id reused", -1);
      ("c, about to raise", 5);
      ("d, c's id reused", -1);
    ]
    (List.rev !seen);
  Alcotest.(check int) "outside run" (-1) (Engine.current_tag eng);
  Alcotest.check_raises "never spawned" (Invalid_argument "Engine.set_tag: no fiber 9")
    (fun () -> Engine.set_tag eng 9 0)

let test_engine_resume_twice_rejected () =
  let eng = Engine.create () in
  let saved = ref ignore in
  ignore (Engine.spawn eng (fun () -> Engine.suspend eng (fun resume -> saved := resume)));
  Engine.at eng (Time.of_us 1.) (fun () -> !saved ());
  Engine.at eng (Time.of_us 2.) (fun () ->
      Alcotest.check_raises "double resume"
        (Invalid_argument "Engine: fiber resumed twice") (fun () -> !saved ()));
  Engine.run eng

let test_engine_run_limit () =
  let eng = Engine.create () in
  let ran = ref 0 in
  Engine.at eng (Time.of_us 10.) (fun () -> incr ran);
  Engine.at eng (Time.of_us 1_000.) (fun () -> incr ran);
  Engine.run ~limit:(Time.of_us 100.) eng;
  Alcotest.(check int) "only early event ran" 1 !ran

(* --- the event queue --- *)

(* An event to queue [dt] after the current time, as a workload event or
   an observer; when it runs it queues its [children] the same way, so
   children with [dt = 0] land among the same-time events queued
   earlier. *)
type event_spec = { dt : int; observer : bool; children : event_spec list }
type queue_op = Queue of event_spec | Run of int

let rec event_spec_gen depth =
  QCheck.Gen.(
    map3
      (fun dt observer children -> { dt; observer; children })
      (frequency [ (3, return 0); (2, int_range 1 4) ])
      (map (fun n -> n = 0) (int_bound 3))
      (if depth = 0 then return [] else list_size (0 -- 2) (event_spec_gen (depth - 1))))

let queue_op_gen =
  QCheck.Gen.(
    frequency
      [
        (8, map (fun e -> Queue e) (event_spec_gen 2));
        (1, map (fun dl -> Run dl) (int_range (-2) 6));
      ])

let rec print_event_spec e =
  Printf.sprintf "{%s%d%s}"
    (if e.observer then "obs " else "")
    e.dt
    (if e.children = [] then ""
     else " [" ^ String.concat "; " (List.map print_event_spec e.children) ^ "]")

let print_queue_op = function
  | Queue e -> "Queue " ^ print_event_spec e
  | Run dl -> Printf.sprintf "Run %d" dl

(* Replays random mixes of queued events, events queued by running ones,
   observers and [run ~limit] (with the limit behind, at and ahead of the
   clock) against a model that sorts by (time, tie, seq) and draws the tie
   keys from its own copy of the seed's stream.  Each event logs the
   clock and [pending_events] when it runs, and after every step the
   clock and the pending count match the model's.  The first forty events
   are queued before anything runs, half of them for the current instant,
   so both lanes outgrow their first allocation. *)
let prop_queue_order =
  let leaf dt = { dt; observer = false; children = [] } in
  QCheck.Test.make ~name:"queue runs events in (time, tie, seq) order" ~count:300
    QCheck.(
      pair (option small_nat)
        (make
           ~print:(fun ops -> String.concat "; " (List.map print_queue_op ops))
           Gen.(
             map3
               (fun a b c -> a @ b @ c)
               (list_repeat 20 (return (Queue (leaf 0))))
               (list_repeat 20 (map (fun dt -> Queue (leaf dt)) (int_range 1 8)))
               (list_size (0 -- 200) queue_op_gen))))
    (fun (tie_seed, ops) ->
      let eng = Engine.create ?tie_seed () in
      (* The engine's side: every queued event gets the next id. *)
      let log = ref [] and ids = ref 0 in
      let rec queue e =
        let id = !ids in
        incr ids;
        let time = Engine.now eng + e.dt in
        let run () =
          log := (id, Engine.now eng, Engine.pending_events eng) :: !log;
          List.iter queue e.children
        in
        if e.observer then Engine.at_observer eng time run else Engine.at eng time run
      in
      (* The model's side: a list of (time, tie, id, event). *)
      let model_rng = Option.map (fun seed -> Rng.create ~seed) tie_seed in
      let expected = ref [] and pending = ref [] and next = ref 0 and clock = ref 0 in
      let model_queue e =
        let tie =
          if e.observer then max_int
          else match model_rng with None -> 0 | Some r -> Rng.int r 0x40000000
        in
        pending := (!clock + e.dt, tie, !next, e) :: !pending;
        incr next
      in
      (* Ids are unique, so the sort never compares two events. *)
      let rec model_run limit =
        match List.sort compare !pending with
        | (time, _, id, e) :: rest when time <= limit ->
            pending := rest;
            clock := time;
            expected := (id, time, List.length rest) :: !expected;
            List.iter model_queue e.children;
            model_run limit
        | _ -> ()
      in
      let ok = ref true and peak = ref 0 in
      let step op =
        (match op with
        | Queue e ->
            queue e;
            model_queue e
        | Run dl ->
            let limit = !clock + dl in
            model_run limit;
            Engine.run ~limit eng);
        peak := max !peak (Engine.pending_events eng);
        if Engine.pending_events eng <> List.length !pending then ok := false;
        if Engine.now eng <> !clock then ok := false
      in
      List.iter step ops;
      model_run max_int;
      Engine.run eng;
      !ok && !peak > 16 && Engine.pending_events eng = 0 && !log = !expected)

(* The executed order of one seeded schedule that mixes every kind of
   event: fiber starts, resumes woken by the fiber itself (yield), by a
   plain event (a waiter queue) and by a timer (sleep), plain events at
   the current instant and later, and a periodic observer.  The digest
   pins it: any change to which events run, or in what order, moves it. *)
let mixed_schedule_digest () =
  let eng = Engine.create ~tie_seed:11 () in
  let buf = Buffer.create 4096 and waiters = Queue.create () in
  let note tag a b = Printf.bprintf buf "%s%d.%d@%d;" tag a b (Engine.now eng) in
  let rec worker w () =
    for i = 0 to 11 do
      note "w" w i;
      match (w + i) mod 5 with
      | 0 -> Engine.suspend eng (fun resume -> resume ())
      | 1 -> Engine.sleep eng (Time.of_ns (1 + (w * i mod 3)))
      | 2 -> if w < 32 then ignore (Engine.spawn eng (worker (w + 8)))
      | 3 ->
          Engine.at eng (Engine.now eng) (fun () -> note "a" w i);
          Engine.after eng (Time.of_ns 2) (fun () -> note "b" w i)
      | _ -> Engine.suspend eng (fun resume -> Queue.add resume waiters)
    done
  in
  let rec waker () =
    note "k" (Queue.length waiters) 0;
    Queue.iter (fun resume -> resume ()) waiters;
    Queue.clear waiters;
    if Engine.live_fibers eng > 0 then Engine.after eng (Time.of_ns 3) waker
  in
  for w = 0 to 7 do ignore (Engine.spawn eng (worker w)) done;
  Engine.at eng Time.zero waker;
  Engine.periodic eng ~interval:(Time.of_ns 5) (fun () ->
      note "p" (Engine.pending_events eng) 0;
      Engine.live_fibers eng > 0);
  Engine.run eng;
  (Engine.events_executed eng, Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_engine_replay_fingerprint () =
  Alcotest.(check (pair int string)) "mixed schedule" (6689, "ce3d8acc45e82fd916188389ca15986a")
    (mixed_schedule_digest ())

let test_engine_chain_allocates_nothing () =
  (* A steady self-rescheduling chain at queue depth 16: each event pops,
     draws a tie key and pushes its successor, all without allocating. *)
  let eng = Engine.create ~tie_seed:3 () in
  let left = ref 0 in
  let rec tick () =
    if !left > 0 then begin
      decr left;
      Engine.after eng (Time.of_ns 1) tick
    end
  in
  let chain n =
    left := n;
    for _ = 1 to 16 do Engine.after eng Time.zero tick done;
    Engine.run eng
  in
  chain 64;
  let n = 10_000 in
  let before = Gc.minor_words () in
  chain n;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "Engine.after chain: %.3f words/event" words) true
    (words < 0.01)

let test_marcel_yield_allocation_bound () =
  let open Dsmpm2_pm2 in
  let eng = Engine.create () in
  let marcel = Marcel.create eng ~nodes:1 in
  let words = ref infinity in
  ignore
    (Marcel.spawn marcel ~node:0 (fun () ->
         words := words_per_call ~n:10_000 (fun _ -> Marcel.yield marcel)));
  Engine.run eng;
  (* The effect, its continuation, the resume thunk and its cell: 15
     words on OCaml 5.1 (the handler's reply is preallocated), so the
     bound leaves room for other runtime versions. *)
  Alcotest.(check bool) (Printf.sprintf "Marcel.yield: %.1f words" !words) true (!words <= 24.)

(* --- schedule perturbation --- *)

let perturbed_order ?tie_seed () =
  (* Ten same-time events plus two at a later time; returns execution order. *)
  let eng = Engine.create ?tie_seed () in
  let log = ref [] in
  for i = 1 to 10 do
    Engine.at eng (Time.of_us 5.) (fun () -> log := i :: !log)
  done;
  Engine.at eng (Time.of_us 9.) (fun () -> log := 11 :: !log);
  Engine.at eng (Time.of_us 7.) (fun () -> log := 12 :: !log);
  Engine.run eng;
  List.rev !log

let test_engine_perturbation_replays () =
  let a = perturbed_order ~tie_seed:42 () and b = perturbed_order ~tie_seed:42 () in
  Alcotest.(check (list int)) "same seed, same schedule" a b

let test_engine_perturbation_diverges () =
  (* Some seed in a small range must shuffle the ties away from FIFO order;
     10! orderings make a full miss astronomically unlikely. *)
  let fifo = perturbed_order () in
  let seeds = List.init 10 (fun s -> s + 1) in
  Alcotest.(check bool) "some seed deviates from FIFO" true
    (List.exists (fun s -> perturbed_order ~tie_seed:s () <> fifo) seeds)

let test_engine_perturbation_respects_time () =
  (* Tie-breaking shuffles only same-time events: the 7us and 9us events
     always run after all ten 5us events, in time order. *)
  List.iter
    (fun s ->
      match List.rev (perturbed_order ~tie_seed:s ()) with
      | 11 :: 12 :: rest ->
          Alcotest.(check (list int)) "5us events complete" (List.init 10 (fun i -> i + 1))
            (List.sort compare rest)
      | _ -> Alcotest.fail "later events ran out of time order")
    (List.init 20 (fun s -> s))

let test_engine_no_seed_is_fifo () =
  Alcotest.(check (list int)) "unseeded engine keeps FIFO ties"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 12; 11 ]
    (perturbed_order ());
  Alcotest.(check (option int)) "tie_seed absent" None
    (Engine.tie_seed (Engine.create ()));
  Alcotest.(check (option int)) "tie_seed stored" (Some 7)
    (Engine.tie_seed (Engine.create ~tie_seed:7 ()))

let test_engine_live_fibers () =
  let eng = Engine.create () in
  ignore (Engine.spawn eng (fun () -> Engine.sleep eng (Time.of_us 5.)));
  Alcotest.(check int) "live before run" 1 (Engine.live_fibers eng);
  Engine.run eng;
  Alcotest.(check int) "none after" 0 (Engine.live_fibers eng)

(* --- the fiber pool --- *)

(* A run that drains the queue ends the parked fibers, so a test that
   looks at the pool between phases keeps one far event queued and runs
   each phase up to a limit. *)
let pool_engine () =
  let eng = Engine.create () in
  Engine.at eng (Time.of_us 1e6) ignore;
  eng

let test_pool_raise_on_reused_fiber () =
  let eng = pool_engine () in
  for _ = 1 to 3 do ignore (Engine.spawn eng ignore) done;
  Engine.run ~limit:Time.zero eng;
  Alcotest.(check int) "one fiber served all three" 1 (Engine.pooled_fibers eng);
  let inside = ref (-1) in
  let boom =
    Engine.spawn eng (fun () ->
        inside := Engine.current_fiber eng;
        Engine.sleep eng (Time.of_us 1.);
        failwith "boom")
  in
  Alcotest.check_raises "escapes run" (Failure "boom") (fun () ->
      Engine.run ~limit:(Time.of_us 10.) eng);
  Alcotest.(check int) "ran as its own id" boom !inside;
  Alcotest.(check int) "not live" 0 (Engine.live_fibers eng);
  Alcotest.(check int) "died, not pooled" 0 (Engine.pooled_fibers eng);
  let next = Engine.spawn eng ignore in
  Alcotest.(check int) "id freed" boom next;
  Alcotest.(check int) "live again" 1 (Engine.live_fibers eng);
  Engine.run ~limit:(Time.of_us 20.) eng;
  Alcotest.(check int) "fresh fiber parked" 1 (Engine.pooled_fibers eng);
  Alcotest.(check int) "none live" 0 (Engine.live_fibers eng)

let test_pool_parked_not_live () =
  let eng = Engine.create () in
  for _ = 1 to 10 do ignore (Engine.spawn eng (fun () -> Engine.sleep eng (Time.of_us 1.))) done;
  let parked = ref (-1) in
  ignore
    (Engine.spawn eng (fun () ->
         Engine.sleep eng (Time.of_us 2.);
         parked := Engine.pooled_fibers eng;
         Engine.suspend eng (fun _resume -> ())));
  Alcotest.check_raises "only the suspended body counts" (Engine.Stalled 1) (fun () ->
      Engine.run eng);
  Alcotest.(check int) "ten parked at the stall" 10 !parked;
  Alcotest.(check int) "ended with the drained run" 0 (Engine.pooled_fibers eng)

let test_pool_suspend_in_second_body () =
  let eng = pool_engine () in
  let log = ref [] in
  let saved = ref ignore in
  let first = Engine.spawn eng (fun () -> log := "first" :: !log) in
  Engine.run ~limit:Time.zero eng;
  let second =
    Engine.spawn eng (fun () ->
        Engine.suspend eng (fun resume -> saved := resume);
        log := Printf.sprintf "second resumed as %d" (Engine.current_fiber eng) :: !log)
  in
  let lent = ref (-1) in
  Engine.at eng (Time.of_us 3.) (fun () ->
      lent := Engine.pooled_fibers eng;
      !saved ());
  Engine.run ~limit:(Time.of_us 10.) eng;
  Alcotest.(check int) "fiber lent to the second body" 0 !lent;
  Alcotest.(check int) "same id reused" first second;
  Alcotest.(check (list string)) "the second body resumed"
    [ "first"; Printf.sprintf "second resumed as %d" second ]
    (List.rev !log);
  Alcotest.(check int) "parked again" 1 (Engine.pooled_fibers eng)

let test_pool_spawn_in_last_slice () =
  let eng = Engine.create () in
  let ran = ref [] and parked = ref (-1) in
  ignore
    (Engine.spawn eng (fun () ->
         Engine.sleep eng (Time.of_us 2.);
         ignore
           (Engine.spawn eng (fun () ->
                parked := Engine.pooled_fibers eng;
                ran := Engine.now eng :: !ran));
         ran := Engine.now eng :: !ran));
  Engine.run eng;
  Alcotest.(check (list int)) "both ran at 2us" [ Time.of_us 2.; Time.of_us 2. ] !ran;
  Alcotest.(check int) "the child took its parent's fiber" 0 !parked;
  Alcotest.(check int) "none live" 0 (Engine.live_fibers eng)

let test_pool_serves_two_runs () =
  let eng = pool_engine () in
  let phase n ~until =
    let woke = ref 0 in
    for i = 1 to n do
      ignore
        (Engine.spawn eng (fun () ->
             Engine.sleep eng (Time.of_us (float_of_int i));
             incr woke))
    done;
    Engine.run ~limit:(Time.of_us until) eng;
    !woke
  in
  Alcotest.(check int) "first phase" 8 (phase 8 ~until:100.);
  Alcotest.(check int) "eight parked" 8 (Engine.pooled_fibers eng);
  Alcotest.(check int) "second phase" 8 (phase 8 ~until:200.);
  Alcotest.(check int) "no new fiber" 8 (Engine.pooled_fibers eng);
  Alcotest.(check int) "wider phase" 12 (phase 12 ~until:300.);
  Alcotest.(check int) "grown to the peak" 12 (Engine.pooled_fibers eng);
  Engine.run eng;
  Alcotest.(check int) "a drained run ends them" 0 (Engine.pooled_fibers eng)

(* --- Cpu --- *)

let test_cpu_serialises () =
  let eng = Engine.create () in
  let cpu = Cpu.create ~name:"c" () in
  let done_at = Array.make 2 Time.zero in
  for i = 0 to 1 do
    ignore
      (Engine.spawn eng (fun () ->
           Cpu.compute eng cpu (Time.of_us 100.);
           done_at.(i) <- Engine.now eng))
  done;
  Engine.run eng;
  (* Round-robin slicing: both 100us jobs share the CPU and finish around
     200us total; the CPU was busy for exactly the sum of the work. *)
  Alcotest.(check int) "total busy time" (Time.of_us 200.) (Cpu.busy_time cpu);
  let finish = max done_at.(0) done_at.(1) in
  Alcotest.(check int) "makespan = serial sum" (Time.of_us 200.) finish

let test_cpu_quantum_preempts () =
  let eng = Engine.create () in
  let cpu = Cpu.create ~quantum:(Time.of_us 50.) ~name:"c" () in
  let long_done = ref Time.zero and short_done = ref Time.zero in
  ignore
    (Engine.spawn eng (fun () ->
         Cpu.compute eng cpu (Time.of_us 1_000.);
         long_done := Engine.now eng));
  ignore
    (Engine.spawn eng (fun () ->
         Engine.sleep eng (Time.of_us 10.);
         Cpu.compute eng cpu (Time.of_us 20.);
         short_done := Engine.now eng));
  Engine.run eng;
  (* The short job arrives while the long one computes; slicing lets it
     finish long before the 1000us job completes. *)
  Alcotest.(check bool) "short job not starved" true (!short_done < Time.of_us 200.);
  Alcotest.(check bool) "long job finishes last" true (!long_done >= Time.of_us 1_000.)

let test_cpu_zero_compute_is_free () =
  let eng = Engine.create () in
  let cpu = Cpu.create ~name:"c" () in
  ignore (Engine.spawn eng (fun () -> Cpu.compute eng cpu Time.zero));
  Engine.run eng;
  Alcotest.(check int) "no busy time" Time.zero (Cpu.busy_time cpu)

let test_engine_fiber_spawns_fiber () =
  let eng = Engine.create () in
  let inner_ran = ref false in
  ignore
    (Engine.spawn eng (fun () ->
         Engine.sleep eng (Time.of_us 5.);
         ignore (Engine.spawn eng (fun () -> inner_ran := true))));
  Engine.run eng;
  Alcotest.(check bool) "nested spawn runs" true !inner_ran

(* --- fault-injection gate --- *)

let test_engine_gate_parks_and_resumes () =
  let eng = Engine.create () in
  let log = ref [] in
  let victim = ref (-1) in
  (* Park the victim fiber's slices until t=50us; everyone else runs free. *)
  Engine.set_gate eng (fun fid now ->
      if fid = !victim && now < Time.of_us 50. then Some (Time.of_us 50.)
      else None);
  victim :=
    Engine.spawn eng (fun () -> log := ("victim", Engine.now eng) :: !log);
  ignore (Engine.spawn eng (fun () -> log := ("free", Engine.now eng) :: !log));
  Engine.run eng;
  Alcotest.(check (list (pair string int)))
    "victim frozen until the window ends"
    [ ("free", Time.zero); ("victim", Time.of_us 50.) ]
    (List.rev !log);
  Alcotest.(check bool) "parks were counted" true (Engine.parked_count eng >= 1)

let test_engine_gate_covers_resumed_slices () =
  (* The gate must intercept continuations, not just fiber bodies: a fiber
     that suspends before the window and is resumed inside it may only run
     its next slice once the window ends. *)
  let eng = Engine.create () in
  let woke_at = ref Time.zero in
  let victim = ref (-1) in
  Engine.set_gate eng (fun fid now ->
      if
        fid = !victim
        && now >= Time.of_us 10.
        && now < Time.of_us 80.
      then Some (Time.of_us 80.)
      else None);
  victim :=
    Engine.spawn eng (fun () ->
        Engine.sleep eng (Time.of_us 20.);
        (* resumed at 20us, inside the window *)
        woke_at := Engine.now eng);
  Engine.run eng;
  Alcotest.(check int) "continuation held until restart" (Time.of_us 80.)
    !woke_at

let test_engine_gate_clear_and_neutral () =
  (* A gate that always answers None must leave a seeded schedule untouched,
     and clear_gate must restore the un-gated behavior. *)
  let order gate =
    let eng = Engine.create ~tie_seed:9 () in
    (match gate with
    | `None -> ()
    | `Quiescent -> Engine.set_gate eng (fun _ _ -> None)
    | `Cleared ->
        Engine.set_gate eng (fun _ _ -> Some (Time.of_us 1_000.));
        Engine.clear_gate eng);
    let log = ref [] in
    for i = 1 to 8 do
      ignore (Engine.spawn eng (fun () -> log := i :: !log))
    done;
    Engine.run eng;
    (List.rev !log, Engine.parked_count eng)
  in
  let plain = order `None in
  Alcotest.(check (pair (list int) int))
    "quiescent gate is schedule-neutral" plain (order `Quiescent);
  Alcotest.(check (pair (list int) int))
    "cleared gate is schedule-neutral" plain (order `Cleared)

let test_cpu_fifo_order () =
  let eng = Engine.create () in
  let cpu = Cpu.create ~quantum:(Time.of_us 1_000.) ~name:"c" () in
  let order = ref [] in
  for i = 1 to 3 do
    ignore
      (Engine.spawn eng (fun () ->
           Engine.sleep eng (Time.of_ns i);
           (* stagger arrival *)
           Cpu.compute eng cpu (Time.of_us 10.);
           order := i :: !order))
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "grants follow arrival order" [ 1; 2; 3 ]
    (List.rev !order)

let test_cpu_busy_time_exact_under_slicing () =
  let eng = Engine.create () in
  let cpu = Cpu.create ~quantum:(Time.of_us 7.) ~name:"c" () in
  for _ = 1 to 3 do
    ignore (Engine.spawn eng (fun () -> Cpu.compute eng cpu (Time.of_us 33.)))
  done;
  Engine.run eng;
  Alcotest.(check int) "slices add up exactly" (Time.of_us 99.) (Cpu.busy_time cpu)

let test_rng_float_bounds () =
  let rng = Rng.create ~seed:9 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (v >= 0. && v < 2.5)
  done

let test_rng_bool_takes_both_values () =
  let rng = Rng.create ~seed:11 in
  let trues = ref 0 in
  for _ = 1 to 200 do
    if Rng.bool rng then incr trues
  done;
  Alcotest.(check bool) "mixed" true (!trues > 50 && !trues < 150)

(* --- Trace and Stats --- *)

let barrier b = Trace.Barrier { node = 0; barrier = b }

let test_trace_records_in_order () =
  let eng = Engine.create () in
  let trace = Trace.create ~enabled:true () in
  Engine.at eng (Time.of_us 2.) (fun () -> Trace.emit trace eng ~span:7 (barrier 2));
  Engine.at eng (Time.of_us 1.) (fun () -> Trace.emit trace eng (barrier 1));
  Engine.run eng;
  Alcotest.(check bool) "chronological (timestamp, span, event) triples" true
    (Trace.events trace
    = [ (Time.of_us 1., Trace.no_span, barrier 1); (Time.of_us 2., 7, barrier 2) ])

let test_trace_disabled_is_free () =
  let eng = Engine.create () in
  let trace = Trace.create () in
  Trace.emit trace eng (barrier 0);
  Alcotest.(check int) "nothing recorded" 0 (Trace.length trace);
  Alcotest.(check int) "no span minted" Trace.no_span (Trace.new_span trace)

(* Two traces fed the same emissions hold equal events; one different
   emission makes them differ. *)
let test_trace_events_compare () =
  let eng = Engine.create () in
  let fill bs =
    let t = Trace.create ~enabled:true () in
    List.iter (fun b -> Trace.emit t eng (barrier b)) bs;
    Trace.events t
  in
  Alcotest.(check bool) "same emissions, same events" true
    (fill [ 1; 2 ] = fill [ 1; 2 ]);
  Alcotest.(check bool) "different emissions, different events" false
    (fill [ 1; 2 ] = fill [ 1; 3 ])

let test_stats_counters_and_spans () =
  let s = Stats.create () in
  let a = Stats.cell s ~count:"a" () in
  Stats.bump a;
  Stats.bump a;
  Stats.add (Stats.cell s ~node:1 ~count:"msgs" ~volume:"b" ()) ~events:2 ~volume:5;
  Alcotest.(check int) "count a" 2 (Stats.count s "a");
  Alcotest.(check int) "volume b" 5 (Stats.count s "b");
  Alcotest.(check int) "events under their own name" 2 (Stats.count s "msgs");
  Alcotest.(check int) "absent is 0" 0 (Stats.count s "zzz");
  let t = Stats.cell s ~span:"t" () in
  Stats.record t (Time.of_us 10.);
  Stats.record t (Time.of_us 20.);
  Alcotest.(check int) "span total" (Time.of_us 30.)
    (Stats.span_summary s "t").Stats.sm_total;
  Alcotest.(check int) "span mean" (Time.of_us 15.) (Stats.span_mean s "t")

let test_stats_interned_handles () =
  let s = Stats.create () in
  (* A handle keeps feeding its cell. *)
  let c = Stats.cell s ~node:0 ~protocol:"p" ~count:"faults" ~span:"latency" () in
  Stats.bump c;
  Stats.bump c;
  Alcotest.(check int) "one cell" 2 (Stats.events c);
  (* Another label set feeds the same names; the views roll both up. *)
  let d = Stats.cell s ~node:1 ~protocol:"p" ~count:"faults" ~span:"latency" () in
  Stats.bump d;
  Stats.record c (Time.of_us 10.);
  Stats.record d (Time.of_us 20.);
  Alcotest.(check int) "rollup count" 3 (Stats.count s "faults");
  Alcotest.(check int) "labelled count" 1
    (Stats.count ~labels:(Stats.labels ~node:1 ~protocol:"p" ()) s "faults");
  let rollup = Stats.span_summary s "latency" in
  Alcotest.(check int) "rollup samples" 2 rollup.Stats.sm_samples;
  Alcotest.(check int) "rollup max" (Time.of_us 20.) rollup.Stats.sm_max;
  Alcotest.(check int) "labelled samples" 1 (Stats.samples d);
  Alcotest.(check int) "two label sets" 2 (List.length (Stats.label_sets s))

let test_stats_zero_sample_edges () =
  let s = Stats.create () in
  (* A span key that was never observed must read as zero everywhere, not
     divide by zero. *)
  Alcotest.(check int) "absent mean is 0" Time.zero (Stats.span_mean s "absent");
  Alcotest.(check int) "absent p99 is 0" Time.zero
    (Sketch.percentile (Stats.span_sketch s "absent") 99.);
  let summary = Stats.span_summary s "absent" in
  Alcotest.(check int) "absent samples" 0 summary.Stats.sm_samples;
  Alcotest.(check int) "absent summary mean" Time.zero summary.Stats.sm_mean;
  Alcotest.(check int) "absent summary max" Time.zero summary.Stats.sm_max

(* Once a cell's sketch covers the recorded range, counting and recording
   are plain stores: no allocation per event. *)
let test_stats_record_allocates_nothing () =
  let s = Stats.create () in
  let c = Stats.cell s ~node:0 ~count:"n" ~volume:"v" ~span:"t" () in
  for i = 0 to 1023 do Stats.record c (i * 1000) done;
  let words f =
    let before = Gc.minor_words () in
    for i = 1 to 10_000 do f i done;
    Gc.minor_words () -. before
  in
  let bumps = words (fun _ -> Stats.bump c) in
  let adds = words (fun i -> Stats.add c ~events:1 ~volume:i) in
  let records = words (fun i -> Stats.record c ((i land 1023) * 1000)) in
  (* [Gc.minor_words] itself boxes its result. *)
  Alcotest.(check bool) (Printf.sprintf "bump: %.0f words" bumps) true (bumps < 8.);
  Alcotest.(check bool) (Printf.sprintf "add: %.0f words" adds) true (adds < 8.);
  Alcotest.(check bool) (Printf.sprintf "record: %.0f words" records) true (records < 8.)

let test_stats_percentiles () =
  let s = Stats.create () in
  let c = Stats.cell s ~span:"t" () in
  (* 100 samples, 1..100 us: every percentile is within the sketch's 1% of
     the nearest-rank sample, and capped at the max. *)
  for i = 1 to 100 do
    Stats.record c (Time.of_us (float_of_int i))
  done;
  let p50 = Sketch.percentile (Stats.span_sketch s "t") 50. in
  let p99 = Sketch.percentile (Stats.span_sketch s "t") 99. in
  Alcotest.(check bool) "p50 within 1% of 50 us" true
    (abs (p50 - Time.of_us 50.) <= Time.of_us 0.5);
  let max = (Stats.span_summary s "t").Stats.sm_max in
  Alcotest.(check bool) "p99 <= max" true (p99 <= max);
  Alcotest.(check bool) "p100 within 1% of max" true
    (abs (Sketch.percentile (Stats.span_sketch s "t") 100. - max) <= Time.of_us 1.)

(* The registry's percentiles against the exact nearest-rank sample (rank
   floor (q * (n - 1)) of the sorted samples), spread over several label
   sets so the rollup merge is exercised too. *)
let prop_stats_percentiles_within_alpha =
  QCheck.Test.make ~name:"registry p50/p90/p99 within alpha of nearest rank"
    ~count:300
    QCheck.(list_of_size Gen.(1 -- 400) (pair (int_bound 3) (int_range 1 100_000_000)))
    (fun samples ->
      let s = Stats.create () in
      List.iter
        (fun (node, v) -> Stats.record (Stats.cell s ~node ~span:"t" ()) v)
        samples;
      let sorted = Array.of_list (List.sort compare (List.map snd samples)) in
      let n = Array.length sorted in
      List.for_all
        (fun p ->
          let exact = sorted.(int_of_float (Float.floor (p /. 100. *. float_of_int (n - 1)))) in
          let est = Sketch.percentile (Stats.span_sketch s "t") p in
          (* 1% of the sample, plus half a nanosecond of rounding. *)
          float_of_int (abs (est - exact)) <= (0.01 *. float_of_int exact) +. 0.5)
        [ 50.; 90.; 99. ])

(* --- Sketch --- *)

(* The histogram's buckets written out by hand: each value below 128 is
   a bucket of its own, then every power of two 2^e up to 2^61 splits
   into 64 buckets of 2^(e-6) values.  A sample's bucket is found by
   scanning these lower edges, with no bit arithmetic. *)
let ref_edges =
  Array.of_list
    (List.init 128 Fun.id
    @ List.concat_map
        (fun e -> List.init 64 (fun j -> (1 lsl e) + (j lsl (e - 6))))
        (List.init 55 (fun k -> k + 7)))

let ref_bucket v =
  let k = ref 0 in
  while !k + 1 < Array.length ref_edges && ref_edges.(!k + 1) <= v do incr k done;
  !k

let ref_upper k =
  if k + 1 < Array.length ref_edges then ref_edges.(k + 1) - 1 else max_int

type ref_sketch = {
  mutable r_n : int;
  mutable r_min : int;
  mutable r_max : int;
  r_counts : int array; (* per bucket of [ref_edges] *)
}

let ref_create () =
  { r_n = 0; r_min = max_int; r_max = 0; r_counts = Array.make (Array.length ref_edges) 0 }

let ref_add r v len =
  let v = Stdlib.max v 0 in
  let k = ref_bucket v in
  r.r_n <- r.r_n + len;
  r.r_min <- Stdlib.min r.r_min v;
  r.r_max <- Stdlib.max r.r_max v;
  r.r_counts.(k) <- r.r_counts.(k) + len

let ref_merge a b =
  {
    r_n = a.r_n + b.r_n;
    r_min = Stdlib.min a.r_min b.r_min;
    r_max = Stdlib.max a.r_max b.r_max;
    r_counts = Array.map2 ( + ) a.r_counts b.r_counts;
  }

(* The bucket's integer midpoint, clamped to the observed range. *)
let ref_quantile r q =
  if r.r_n = 0 then 0
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let rank = int_of_float (Float.floor (q *. float_of_int (r.r_n - 1))) in
    let rec walk k seen =
      let seen = seen + r.r_counts.(k) in
      if seen > rank then ref_edges.(k) + ((ref_upper k - ref_edges.(k)) / 2)
      else walk (k + 1) seen
    in
    Stdlib.max r.r_min (Stdlib.min r.r_max (walk 0 0))
  end

let percentiles = [ 0.; 1.; 10.; 25.; 50.; 75.; 90.; 99.; 99.9; 100. ]

let same_as_ref sk r =
  let ref_buckets =
    List.filter_map
      (fun k -> if r.r_counts.(k) > 0 then Some (ref_upper k, r.r_counts.(k)) else None)
      (List.init (Array.length ref_edges) Fun.id)
  in
  Sketch.count sk = r.r_n
  && Sketch.min_value sk = (if r.r_n = 0 then 0 else r.r_min)
  && Sketch.max_value sk = r.r_max
  && List.rev (Sketch.fold_buckets sk (fun e c acc -> (e, c) :: acc) []) = ref_buckets
  && List.for_all
       (fun p -> Sketch.percentile sk p = ref_quantile r (p /. 100.))
       percentiles

(* Runs of one value: 0, the exact range, each 2^k - 1, 2^k and 2^k + 1
   up to 2^61 + 1, latency-sized values, the whole range up to 2^61 and
   negatives (counted as 0). *)
let sketch_run_gen =
  QCheck.Gen.(
    pair
      (frequency
         [
           (1, return 0);
           (2, int_range 1 63);
           (3, map2 (fun k d -> (1 lsl k) + d) (int_range 1 61) (int_range (-1) 1));
           (3, int_range 64 5_000_000);
           (2, int_range 0 (1 lsl 61));
           (1, map (fun v -> -v) (int_range 1 1_000_000));
         ])
      (int_range 1 6))

let print_runs = QCheck.Print.(list (pair int int))

let feed sk r runs =
  List.iter
    (fun (v, len) ->
      for _ = 1 to len do
        Sketch.add sk v
      done;
      ref_add r v len)
    runs

let prop_sketch_reference =
  QCheck.Test.make ~name:"sketch equals a memo-free reference, merges included" ~count:300
    (QCheck.make ~print:QCheck.Print.(pair print_runs print_runs)
       QCheck.Gen.(pair (list_size (0 -- 40) sketch_run_gen) (list_size (0 -- 40) sketch_run_gen)))
    (fun (xs, ys) ->
      let a = Sketch.create () and ra = ref_create () in
      let b = Sketch.create () and rb = ref_create () in
      feed a ra xs;
      feed b rb ys;
      let both = Sketch.create () in
      Sketch.merge_into both a;
      Sketch.merge_into both b;
      let ok =
        same_as_ref a ra && same_as_ref b rb && same_as_ref both (ref_merge ra rb)
      in
      (* Merging into [a] then feeding it more grows it on either side. *)
      Sketch.merge_into a b;
      let ra = ref_merge ra rb in
      feed a ra ys;
      ok && same_as_ref a ra)

let () =
  Alcotest.run "sim"
    [
      ( "time",
        [
          Alcotest.test_case "conversions" `Quick test_time_conversions;
          QCheck_alcotest.to_alcotest prop_of_us_rounds_like_float_round;
        ] );
      ( "queue",
        [
          QCheck_alcotest.to_alcotest prop_queue_order;
          Alcotest.test_case "replay fingerprint" `Quick test_engine_replay_fingerprint;
          Alcotest.test_case "after chain allocates nothing" `Quick
            test_engine_chain_allocates_nothing;
          Alcotest.test_case "yield allocation bound" `Quick
            test_marcel_yield_allocation_bound;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "bool mixes" `Quick test_rng_bool_takes_both_values;
          QCheck_alcotest.to_alcotest prop_rng_int_bounds;
          Alcotest.test_case "stream pinned" `Quick test_rng_stream_pinned;
          Alcotest.test_case "int allocates nothing" `Quick test_rng_int_allocates_nothing;
        ] );
      ( "engine",
        [
          Alcotest.test_case "event order" `Quick test_engine_event_order;
          Alcotest.test_case "FIFO tie-break" `Quick test_engine_tie_break_fifo;
          Alcotest.test_case "past rejected" `Quick test_engine_past_event_rejected;
          Alcotest.test_case "sleep advances clock" `Quick test_engine_sleep_advances_clock;
          Alcotest.test_case "stall detection" `Quick test_engine_stalled_detection;
          Alcotest.test_case "current fiber" `Quick test_engine_current_fiber;
          Alcotest.test_case "ended fiber ids reused" `Quick
            test_engine_reuses_ended_fiber_ids;
          Alcotest.test_case "fiber tags" `Quick test_engine_fiber_tags;
          Alcotest.test_case "double resume rejected" `Quick
            test_engine_resume_twice_rejected;
          Alcotest.test_case "run limit" `Quick test_engine_run_limit;
          Alcotest.test_case "perturbation replays" `Quick
            test_engine_perturbation_replays;
          Alcotest.test_case "perturbation diverges" `Quick
            test_engine_perturbation_diverges;
          Alcotest.test_case "perturbation respects time" `Quick
            test_engine_perturbation_respects_time;
          Alcotest.test_case "no seed keeps FIFO" `Quick test_engine_no_seed_is_fifo;
          Alcotest.test_case "live fibers" `Quick test_engine_live_fibers;
          Alcotest.test_case "fiber spawns fiber" `Quick test_engine_fiber_spawns_fiber;
          Alcotest.test_case "gate parks and resumes" `Quick
            test_engine_gate_parks_and_resumes;
          Alcotest.test_case "gate covers resumed slices" `Quick
            test_engine_gate_covers_resumed_slices;
          Alcotest.test_case "gate neutral when quiescent" `Quick
            test_engine_gate_clear_and_neutral;
        ] );
      ( "fiber pool",
        [
          Alcotest.test_case "raise on a reused fiber" `Quick test_pool_raise_on_reused_fiber;
          Alcotest.test_case "parked fibers not live" `Quick test_pool_parked_not_live;
          Alcotest.test_case "suspend in a second body" `Quick
            test_pool_suspend_in_second_body;
          Alcotest.test_case "spawn in the last slice" `Quick test_pool_spawn_in_last_slice;
          Alcotest.test_case "serves two runs" `Quick test_pool_serves_two_runs;
        ] );
      ("sketch", [ QCheck_alcotest.to_alcotest prop_sketch_reference ]);
      ( "cpu",
        [
          Alcotest.test_case "serialises work" `Quick test_cpu_serialises;
          Alcotest.test_case "quantum preemption" `Quick test_cpu_quantum_preempts;
          Alcotest.test_case "zero compute free" `Quick test_cpu_zero_compute_is_free;
          Alcotest.test_case "FIFO grant order" `Quick test_cpu_fifo_order;
          Alcotest.test_case "busy time exact under slicing" `Quick
            test_cpu_busy_time_exact_under_slicing;
        ] );
      ( "trace+stats",
        [
          Alcotest.test_case "trace order" `Quick test_trace_records_in_order;
          Alcotest.test_case "trace disabled" `Quick test_trace_disabled_is_free;
          Alcotest.test_case "trace events compare" `Quick test_trace_events_compare;
          Alcotest.test_case "stats" `Quick test_stats_counters_and_spans;
          Alcotest.test_case "stats interned handles" `Quick
            test_stats_interned_handles;
          Alcotest.test_case "stats zero-sample edges" `Quick
            test_stats_zero_sample_edges;
          Alcotest.test_case "stats record allocates nothing" `Quick
            test_stats_record_allocates_nothing;
          Alcotest.test_case "stats percentiles" `Quick test_stats_percentiles;
          QCheck_alcotest.to_alcotest prop_stats_percentiles_within_alpha;
        ] );
    ]
