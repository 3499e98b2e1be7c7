(* Tests for Icdb_sim: event engine, fibers, ivars, traces. *)

module Engine = Icdb_sim.Engine
module Fiber = Icdb_sim.Fiber
module Trace = Icdb_sim.Trace

(* --- Engine --- *)

let test_engine_time_order () =
  let eng = Engine.create () in
  let seen = ref [] in
  ignore (Engine.schedule eng ~delay:5.0 (fun () -> seen := 5 :: !seen));
  ignore (Engine.schedule eng ~delay:1.0 (fun () -> seen := 1 :: !seen));
  ignore (Engine.schedule eng ~delay:3.0 (fun () -> seen := 3 :: !seen));
  Engine.run eng;
  Alcotest.(check (list int)) "time order" [ 1; 3; 5 ] (List.rev !seen);
  Alcotest.(check (float 1e-9)) "clock at last event" 5.0 (Engine.now eng)

let test_engine_fifo_same_time () =
  let eng = Engine.create () in
  let seen = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule eng ~delay:2.0 (fun () -> seen := i :: !seen))
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "FIFO among equal times" [ 1; 2; 3; 4; 5 ] (List.rev !seen)

let test_engine_nested_schedule () =
  let eng = Engine.create () in
  let times = ref [] in
  ignore
    (Engine.schedule eng ~delay:1.0 (fun () ->
         times := Engine.now eng :: !times;
         ignore (Engine.schedule eng ~delay:2.0 (fun () -> times := Engine.now eng :: !times))));
  Engine.run eng;
  Alcotest.(check (list (float 1e-9))) "relative delays" [ 1.0; 3.0 ] (List.rev !times)

let test_engine_cancel () =
  let eng = Engine.create () in
  let fired = ref false in
  let id = Engine.schedule eng ~delay:1.0 (fun () -> fired := true) in
  Engine.cancel eng id;
  Alcotest.(check int) "pending drops" 0 (Engine.pending eng);
  Engine.run eng;
  Alcotest.(check bool) "cancelled event did not fire" false !fired

let test_engine_negative_delay () =
  let eng = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      ignore (Engine.schedule eng ~delay:(-1.0) (fun () -> ())))

let test_engine_run_until () =
  let eng = Engine.create () in
  let seen = ref [] in
  ignore (Engine.schedule eng ~delay:1.0 (fun () -> seen := 1 :: !seen));
  ignore (Engine.schedule eng ~delay:10.0 (fun () -> seen := 10 :: !seen));
  Engine.run_until eng 5.0;
  Alcotest.(check (list int)) "only due events" [ 1 ] (List.rev !seen);
  Alcotest.(check (float 1e-9)) "clock advanced to horizon" 5.0 (Engine.now eng);
  Alcotest.(check int) "late event still pending" 1 (Engine.pending eng);
  Engine.run eng;
  Alcotest.(check (list int)) "late event eventually fires" [ 1; 10 ] (List.rev !seen)

let test_engine_step () =
  let eng = Engine.create () in
  let count = ref 0 in
  ignore (Engine.schedule eng ~delay:1.0 (fun () -> incr count));
  ignore (Engine.schedule eng ~delay:2.0 (fun () -> incr count));
  Alcotest.(check bool) "step fires one" true (Engine.step eng);
  Alcotest.(check int) "one fired" 1 !count;
  Alcotest.(check bool) "second step" true (Engine.step eng);
  Alcotest.(check bool) "exhausted" false (Engine.step eng)

(* Cancelling an event that already fired is a no-op: it must not count
   against the pending total. *)
let test_engine_cancel_after_fire () =
  let eng = Engine.create () in
  let first = Engine.schedule eng ~delay:1.0 (fun () -> ()) in
  ignore (Engine.schedule eng ~delay:2.0 (fun () -> ()));
  ignore (Engine.step eng);
  Engine.cancel eng first;
  Alcotest.(check int) "second still pending" 1 (Engine.pending eng);
  Engine.run eng;
  Alcotest.(check int) "pending after drain" 0 (Engine.pending eng);
  Alcotest.(check int) "stored after drain" 0 (Engine.stored eng);
  let r = Engine_ref.create () in
  let first = Engine_ref.schedule r ~delay:1.0 (fun () -> ()) in
  ignore (Engine_ref.schedule r ~delay:2.0 (fun () -> ()));
  ignore (Engine_ref.step r);
  Engine_ref.cancel r first;
  Engine_ref.run r;
  Alcotest.(check int) "reference pending after drain" 0 (Engine_ref.pending r)

(* An event that was scheduled earlier and lands at t precedes a
   zero-delay event scheduled at t, even though the latter goes to the
   same-instant lane and the former sits in the heap. *)
let test_engine_lane_after_heap () =
  let eng = Engine.create () in
  let seen = ref [] in
  let note s = seen := s :: !seen in
  ignore
    (Engine.schedule eng ~delay:2.0 (fun () ->
         note "p";
         ignore (Engine.schedule eng ~delay:0.0 (fun () -> note "z"))));
  ignore (Engine.schedule eng ~delay:2.0 (fun () -> note "q"));
  Engine.run eng;
  Alcotest.(check (list string)) "heap event at t first" [ "p"; "q"; "z" ] (List.rev !seen)

(* --- Engine vs reference heap --- *)

module Rng = Icdb_util.Rng

(* Random interleavings of push / pop / cancel / clock-advance, replayed
   against both the engine and the plain binary heap kept as Engine_ref.
   Delays are multiples of 0.5 so same-time ties are frequent and float
   arithmetic is exact; every fired event records (time, push serial), and the two
   execution logs must match exactly. *)
type qop = QPush of int | QPop | QCancel of int | QAdvance of int

let prop_engine_equals_heap =
  QCheck2.Test.make ~name:"engine = reference heap pop order" ~count:300
    QCheck2.Gen.(
      list_size (int_range 0 400)
        (frequency
           [
             (5, map (fun d -> QPush d) (int_range 0 40));
             (2, return QPop);
             (1, map (fun i -> QCancel i) (int_range 0 1000));
             (1, map (fun h -> QAdvance h) (int_range 0 60));
           ]))
    (fun ops ->
      let e = Engine.create () in
      let r = Engine_ref.create () in
      let seen_e = ref [] and seen_r = ref [] in
      let ids_e = ref [] and ids_r = ref [] in
      let n_ids = ref 0 in
      let pushes = ref 0 in
      let nonneg = ref true in
      List.iter
        (fun op ->
          (match op with
          | QPush d ->
            let delay = float_of_int d *. 0.5 in
            let k = !pushes in
            incr pushes;
            ids_e :=
              Engine.schedule e ~delay (fun () -> seen_e := (Engine.now e, k) :: !seen_e)
              :: !ids_e;
            ids_r :=
              Engine_ref.schedule r ~delay (fun () ->
                  seen_r := (Engine_ref.now r, k) :: !seen_r)
              :: !ids_r;
            incr n_ids
          | QPop ->
            ignore (Engine.step e);
            ignore (Engine_ref.step r)
          | QCancel i ->
            if !n_ids > 0 then begin
              let j = i mod !n_ids in
              Engine.cancel e (List.nth !ids_e j);
              Engine_ref.cancel r (List.nth !ids_r j)
            end
          | QAdvance h ->
            let horizon = Engine.now e +. (float_of_int h *. 0.5) in
            Engine.run_until e horizon;
            Engine_ref.run_until r horizon);
          if Engine.pending e < 0 then nonneg := false)
        ops;
      Engine.run e;
      Engine_ref.run r;
      !nonneg
      && !seen_e = !seen_r
      && Engine.pending e = Engine_ref.pending r
      && Engine.stored e = 0)

(* Events that schedule and cancel events themselves, the way fibers do:
   every fired event looks up its entry in a generated script, schedules
   its children (zero delay more often than not, so the same-instant lane
   is busy) and cancels an earlier event, pending or not. Top-level ops
   interleave pushes, steps, cancels and [run_until]. The execution log
   and the pending count after every op must match the reference heap's. *)
type 'id sim = {
  schedule : float -> (unit -> unit) -> 'id;
  cancel : 'id -> unit;
  step : unit -> unit;
  run_until : float -> unit;
  run : unit -> unit;
  now : unit -> float;
  pending : unit -> int;
}

let replay (sim : 'id sim) (script : (int list * int) array) ops =
  let log = ref [] and pendings = ref [] in
  let ids = Hashtbl.create 256 in
  let pushes = ref 0 in
  let rec push d =
    if !pushes < 3000 then begin
      let k = !pushes in
      incr pushes;
      Hashtbl.replace ids k (sim.schedule (float_of_int d *. 0.5) (fun () -> fire k))
    end
  and fire k =
    log := (sim.now (), k) :: !log;
    let children, victim = script.(k mod Array.length script) in
    List.iter push children;
    cancel victim
  and cancel i = if !pushes > 0 then sim.cancel (Hashtbl.find ids (i mod !pushes)) in
  List.iter
    (fun op ->
      (match op with
      | QPush d -> push d
      | QPop -> sim.step ()
      | QCancel i -> cancel i
      | QAdvance h -> sim.run_until (sim.now () +. (float_of_int h *. 0.5)));
      pendings := sim.pending () :: !pendings)
    ops;
  sim.run ();
  (!log, !pendings, sim.pending ())

let prop_lane_equals_heap =
  QCheck2.Test.make ~name:"same-instant lane = reference heap pop order" ~count:300
    QCheck2.Gen.(
      let delay = frequency [ (3, return 0); (2, int_range 1 40) ] in
      pair
        (array_size (int_range 1 32)
           (pair (list_size (int_range 0 2) delay) (int_range 0 10_000)))
        (list_size (int_range 0 400)
           (frequency
              [
                (5, map (fun d -> QPush d) delay);
                (2, return QPop);
                (1, map (fun i -> QCancel i) (int_range 0 10_000));
                (1, map (fun h -> QAdvance h) (int_range 0 60));
              ])))
    (fun (script, ops) ->
      let e = Engine.create () in
      let r = Engine_ref.create () in
      let got =
        replay
          {
            schedule = (fun delay f -> Engine.schedule e ~delay f);
            cancel = Engine.cancel e;
            step = (fun () -> ignore (Engine.step e));
            run_until = Engine.run_until e;
            run = (fun () -> Engine.run e);
            now = (fun () -> Engine.now e);
            pending = (fun () -> Engine.pending e);
          }
          script ops
      in
      let want =
        replay
          {
            schedule = (fun delay f -> Engine_ref.schedule r ~delay f);
            cancel = Engine_ref.cancel r;
            step = (fun () -> ignore (Engine_ref.step r));
            run_until = Engine_ref.run_until r;
            run = (fun () -> Engine_ref.run r);
            now = (fun () -> Engine_ref.now r);
            pending = (fun () -> Engine_ref.pending r);
          }
          script ops
      in
      let _, pendings, _ = got in
      got = want && List.for_all (fun n -> n >= 0) pendings && Engine.stored e = 0)

(* Cancelling three in four of a burst of zero-delay events compacts the
   lane exactly once (an even number of order-reversing sweeps would hide
   a reversal); the survivors must still fire in scheduling order. *)
let test_engine_lane_compaction () =
  let eng = Engine.create () in
  let n = 1_000 in
  let fired = ref [] in
  let ids = Array.init n (fun i -> Engine.schedule eng ~delay:0.0 (fun () -> fired := i :: !fired)) in
  Array.iteri (fun i id -> if i mod 4 <> 0 then Engine.cancel eng id) ids;
  let live = Engine.pending eng in
  Alcotest.(check int) "live after cancels" (n / 4) live;
  Alcotest.(check bool)
    (Printf.sprintf "compacted (stored %d <= 2*live + 64)" (Engine.stored eng))
    true
    (Engine.stored eng <= (2 * live) + 64);
  Engine.run eng;
  Alcotest.(check (list int)) "FIFO survivors" (List.init (n / 4) (fun i -> i * 4)) (List.rev !fired);
  Alcotest.(check int) "stored drained" 0 (Engine.stored eng)

(* Tens of thousands of pending events with skewed delays must drain in
   exact nondecreasing (time, seq) order with nothing lost. *)
let test_engine_drain_scale () =
  let eng = Engine.create () in
  let rng = Rng.create 7L in
  let n = 20_000 in
  let fired = ref 0 in
  let last = ref (-1.0) in
  let monotone = ref true in
  for _ = 1 to n do
    let delay = Rng.exponential rng ~mean:50.0 in
    ignore
      (Engine.schedule eng ~delay (fun () ->
           let t = Engine.now eng in
           if t < !last then monotone := false;
           last := t;
           incr fired))
  done;
  Alcotest.(check int) "all pending" n (Engine.pending eng);
  Engine.run eng;
  Alcotest.(check int) "all fired" n !fired;
  Alcotest.(check bool) "time order preserved" true !monotone;
  Alcotest.(check int) "drained" 0 (Engine.pending eng);
  Alcotest.(check int) "no carcasses retained" 0 (Engine.stored eng)

(* Cancelling nearly everything must compact the store instead of dragging
   dead events along until they surface at the root. *)
let test_engine_cancel_compaction () =
  let eng = Engine.create () in
  let rng = Rng.create 11L in
  let n = 10_000 in
  let ids = Array.make n None in
  let fired = ref 0 in
  for i = 0 to n - 1 do
    let delay = Rng.exponential rng ~mean:20.0 in
    ids.(i) <- Some (Engine.schedule eng ~delay (fun () -> incr fired))
  done;
  for i = 0 to n - 1 do
    if i mod 100 <> 0 then Engine.cancel eng (Option.get ids.(i))
  done;
  let live = Engine.pending eng in
  Alcotest.(check int) "live after cancels" 100 live;
  Alcotest.(check bool)
    (Printf.sprintf "compacted (stored %d <= 2*live + 64)" (Engine.stored eng))
    true
    (Engine.stored eng <= (2 * live) + 64);
  Engine.run eng;
  Alcotest.(check int) "survivors fired" 100 !fired;
  Alcotest.(check int) "stored drained" 0 (Engine.stored eng)

(* --- Fibers --- *)

let test_fiber_sleep_interleaving () =
  let eng = Engine.create () in
  let order = ref [] in
  Fiber.spawn eng (fun () ->
      order := "a0" :: !order;
      Fiber.sleep eng 3.0;
      order := "a1" :: !order);
  Fiber.spawn eng (fun () ->
      order := "b0" :: !order;
      Fiber.sleep eng 1.0;
      order := "b1" :: !order);
  Engine.run eng;
  Alcotest.(check (list string)) "interleaving" [ "a0"; "b0"; "b1"; "a1" ] (List.rev !order)

let test_fiber_on_error () =
  let eng = Engine.create () in
  let caught = ref "" in
  Fiber.spawn eng
    ~on_error:(fun e -> caught := Printexc.to_string e)
    (fun () -> failwith "boom");
  Engine.run eng;
  Alcotest.(check bool) "error handler ran" true (!caught <> "")

let test_fiber_error_after_suspension () =
  let eng = Engine.create () in
  let caught = ref false in
  Fiber.spawn eng
    ~on_error:(fun _ -> caught := true)
    (fun () ->
      Fiber.sleep eng 1.0;
      failwith "late boom");
  Engine.run eng;
  Alcotest.(check bool) "handler catches post-suspend raise" true !caught

let test_fiber_await_resume_once () =
  let eng = Engine.create () in
  let stash = ref None in
  let resumed = ref 0 in
  Fiber.spawn eng (fun () ->
      let v = Fiber.await (fun resume -> stash := Some resume) in
      resumed := v);
  ignore
    (Engine.schedule eng ~delay:1.0 (fun () ->
         let resume = Option.get !stash in
         resume (Ok 7);
         resume (Ok 99) (* must be ignored *)));
  Engine.run eng;
  Alcotest.(check int) "first resume wins" 7 !resumed

let test_fiber_await_error () =
  let eng = Engine.create () in
  let result = ref "no" in
  Fiber.spawn eng (fun () ->
      match Fiber.await (fun resume -> resume (Error Exit)) with
      | () -> result := "returned"
      | exception Exit -> result := "raised");
  Engine.run eng;
  Alcotest.(check string) "error resumes as exception" "raised" !result

(* --- Ivar --- *)

let test_ivar_fill_then_read () =
  let eng = Engine.create () in
  let iv = Fiber.Ivar.create eng in
  Fiber.Ivar.fill iv 42;
  let got = ref 0 in
  Fiber.spawn eng (fun () -> got := Fiber.Ivar.read iv);
  Engine.run eng;
  Alcotest.(check int) "read filled" 42 !got

let test_ivar_read_blocks_until_fill () =
  let eng = Engine.create () in
  let iv = Fiber.Ivar.create eng in
  let got = ref [] in
  Fiber.spawn eng (fun () ->
      let v = Fiber.Ivar.read iv in
      got := ("r1", v) :: !got);
  Fiber.spawn eng (fun () ->
      let v = Fiber.Ivar.read iv in
      got := ("r2", v) :: !got);
  Fiber.spawn eng (fun () ->
      Fiber.sleep eng 5.0;
      Fiber.Ivar.fill iv 9);
  Engine.run eng;
  Alcotest.(check int) "both woken" 2 (List.length !got);
  List.iter (fun (_, v) -> Alcotest.(check int) "value" 9 v) !got

let test_ivar_double_fill () =
  let eng = Engine.create () in
  let iv = Fiber.Ivar.create eng in
  Fiber.Ivar.fill iv 1;
  Alcotest.check_raises "double fill" (Invalid_argument "Fiber.Ivar.fill: already filled")
    (fun () -> Fiber.Ivar.fill iv 2);
  Alcotest.(check bool) "is_filled" true (Fiber.Ivar.is_filled iv);
  Alcotest.(check (option int)) "peek" (Some 1) (Fiber.Ivar.peek iv)

(* --- Trace --- *)

let test_trace_basic () =
  let eng = Engine.create () in
  let tr = Trace.create eng in
  Fiber.spawn eng (fun () ->
      Trace.record tr ~actor:"a" "start";
      Fiber.sleep eng 2.0;
      Trace.record tr ~actor:"a" "done");
  Engine.run eng;
  Alcotest.(check int) "two entries" 2 (Trace.length tr);
  Alcotest.(check (option (float 1e-9))) "find start" (Some 0.0)
    (Trace.find tr ~actor:"a" ~label:"start");
  Alcotest.(check (option (float 1e-9))) "find done" (Some 2.0)
    (Trace.find tr ~actor:"a" ~label:"done");
  Alcotest.(check bool) "ordering" true (Trace.before tr ~first:"start" ~then_:"done");
  Alcotest.(check bool) "no reverse ordering" false (Trace.before tr ~first:"done" ~then_:"start")

let test_trace_find_all_and_clear () =
  let eng = Engine.create () in
  let tr = Trace.create eng in
  Trace.record tr ~actor:"x" "m";
  Trace.record tr ~actor:"y" "m";
  Alcotest.(check int) "find_all" 2 (List.length (Trace.find_all tr ~label:"m"));
  Trace.clear tr;
  Alcotest.(check int) "cleared" 0 (Trace.length tr)

let test_trace_disabled_records_nothing () =
  let eng = Engine.create () in
  let tr = Trace.create ~enabled:false eng in
  Alcotest.(check bool) "disabled" false (Trace.enabled tr);
  Alcotest.(check bool) "default enabled" true (Trace.enabled (Trace.create eng));
  Trace.record tr ~actor:"a" "start";
  Trace.record_gid tr ~actor:"a" ~gid:1 "ready";
  Alcotest.(check int) "length" 0 (Trace.length tr);
  Alcotest.(check (option (float 1e-9))) "find" None (Trace.find tr ~actor:"a" ~label:"start");
  Alcotest.(check (option (float 1e-9))) "find gid" None
    (Trace.find tr ~actor:"a" ~label:"g1:ready");
  Alcotest.(check int) "find_all" 0 (List.length (Trace.find_all tr ~label:"start"));
  Alcotest.(check int) "entries" 0 (List.length (Trace.entries tr));
  Alcotest.(check string) "render" "" (Trace.render tr);
  Alcotest.check_raises "min_int still refused"
    (Invalid_argument "Trace.record_gid: gid is min_int") (fun () ->
      Trace.record_gid tr ~actor:"a" ~gid:min_int "x")

(* A trace of mixed [record] and [record_gid] entries, mostly grown well
   past the initial 64 rows and now and then cleared, must answer every
   query as a plain list of concatenated labels does. The label pool includes a
   plain "g1:ready", which must read exactly like gid 1's "ready". *)
type trace_op = Plain of int * int | Tagged of int * int * int | Sleep of float | Clear_trace

let trace_actors = [| "central"; "s0"; "s1" |]
let trace_labels = [| "ready"; "committed"; "g1:ready"; "done:deposit"; "" |]
let trace_gids = [| 1; 7; 12; 0; -3 |]

let prop_trace_matches_reference =
  QCheck2.Test.make ~name:"trace = reference list of labels" ~count:200
    QCheck2.Gen.(
      list_size (int_range 0 400)
        (frequency
           [
             (40, map2 (fun a l -> Plain (a, l)) (int_range 0 2) (int_range 0 4));
             ( 80,
               map3 (fun a g l -> Tagged (a, g, l)) (int_range 0 2) (int_range 0 4)
                 (int_range 0 4) );
             (30, map (fun k -> Sleep (0.25 *. float_of_int k)) (int_range 0 4));
             (1, pure Clear_trace);
           ]))
    (fun ops ->
      let eng = Engine.create () in
      let tr = Trace.create eng in
      let model = ref [] (* newest first: (time, actor, label) *) in
      Fiber.spawn eng (fun () ->
          List.iter
            (function
              | Plain (a, l) ->
                Trace.record tr ~actor:trace_actors.(a) trace_labels.(l);
                model := (Engine.now eng, trace_actors.(a), trace_labels.(l)) :: !model
              | Tagged (a, g, l) ->
                let gid = trace_gids.(g) in
                Trace.record_gid tr ~actor:trace_actors.(a) ~gid trace_labels.(l);
                let label = "g" ^ string_of_int gid ^ ":" ^ trace_labels.(l) in
                model := (Engine.now eng, trace_actors.(a), label) :: !model
              | Sleep d -> Fiber.sleep eng d
              | Clear_trace ->
                Trace.clear tr;
                model := [])
            ops);
      Engine.run eng;
      let model = List.rev !model in
      let queries =
        Array.to_list trace_labels
        @ List.concat_map
            (fun g ->
              List.map (fun l -> "g" ^ string_of_int g ^ ":" ^ l) (Array.to_list trace_labels))
            (Array.to_list trace_gids)
        @ [ "g1"; "g:ready"; "missing" ]
      in
      let ref_find actor label =
        List.find_map (fun (t, a, l) -> if a = actor && l = label then Some t else None) model
      in
      let ref_find_all label =
        List.filter_map (fun (t, a, l) -> if l = label then Some (t, a) else None) model
      in
      let ref_before first then_ =
        let rec go seen = function
          | [] -> false
          | (_, _, l) :: rest ->
            if l = first && not seen then go true rest
            else if l = then_ then seen
            else go seen rest
        in
        go false model
      in
      let ref_render =
        String.concat ""
          (List.map (fun (t, a, l) -> Printf.sprintf "t=%8.2f  [%-12s] %s\n" t a l) model)
      in
      Trace.length tr = List.length model
      && List.map (fun (e : Trace.entry) -> (e.time, e.actor, e.label)) (Trace.entries tr)
         = model
      && Trace.render tr = ref_render
      && List.for_all
           (fun label ->
             Trace.find_all tr ~label = ref_find_all label
             && Array.for_all
                  (fun actor -> Trace.find tr ~actor ~label = ref_find actor label)
                  trace_actors
             && List.for_all
                  (fun then_ -> Trace.before tr ~first:label ~then_ = ref_before label then_)
                  queries)
           queries)

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "time order" `Quick test_engine_time_order;
          Alcotest.test_case "fifo same time" `Quick test_engine_fifo_same_time;
          Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "negative delay" `Quick test_engine_negative_delay;
          Alcotest.test_case "run_until" `Quick test_engine_run_until;
          Alcotest.test_case "step" `Quick test_engine_step;
          Alcotest.test_case "cancel after fire" `Quick test_engine_cancel_after_fire;
          Alcotest.test_case "lane after heap at same instant" `Quick test_engine_lane_after_heap;
        ] );
      ( "queue",
        [
          QCheck_alcotest.to_alcotest prop_engine_equals_heap;
          QCheck_alcotest.to_alcotest prop_lane_equals_heap;
          Alcotest.test_case "20k-event drain order" `Quick test_engine_drain_scale;
          Alcotest.test_case "cancel compaction" `Quick test_engine_cancel_compaction;
          Alcotest.test_case "lane compaction keeps FIFO" `Quick test_engine_lane_compaction;
        ] );
      ( "fiber",
        [
          Alcotest.test_case "sleep interleaving" `Quick test_fiber_sleep_interleaving;
          Alcotest.test_case "on_error" `Quick test_fiber_on_error;
          Alcotest.test_case "error after suspension" `Quick test_fiber_error_after_suspension;
          Alcotest.test_case "resume once" `Quick test_fiber_await_resume_once;
          Alcotest.test_case "await error" `Quick test_fiber_await_error;
        ] );
      ( "ivar",
        [
          Alcotest.test_case "fill then read" `Quick test_ivar_fill_then_read;
          Alcotest.test_case "read blocks until fill" `Quick test_ivar_read_blocks_until_fill;
          Alcotest.test_case "double fill" `Quick test_ivar_double_fill;
        ] );
      ( "trace",
        [
          Alcotest.test_case "basic" `Quick test_trace_basic;
          Alcotest.test_case "find_all and clear" `Quick test_trace_find_all_and_clear;
          Alcotest.test_case "disabled records nothing" `Quick
            test_trace_disabled_records_nothing;
          QCheck_alcotest.to_alcotest prop_trace_matches_reference;
        ] );
    ]
