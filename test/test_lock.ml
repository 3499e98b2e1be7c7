(* Tests for Icdb_lock: mode lattice and the blocking lock table. *)

module Engine = Icdb_sim.Engine
module Fiber = Icdb_sim.Fiber
module Mode = Icdb_lock.Mode
module Lock = Icdb_lock.Lock_table

let outcome_testable =
  Alcotest.testable
    (fun fmt -> function
      | Lock.Granted -> Format.pp_print_string fmt "granted"
      | Lock.Timeout -> Format.pp_print_string fmt "timeout"
      | Lock.Deadlock -> Format.pp_print_string fmt "deadlock")
    ( = )

(* --- Mode --- *)

let test_mode_compat_matrix () =
  let open Mode in
  Alcotest.(check bool) "S-S" true (compatible Shared Shared);
  Alcotest.(check bool) "S-X" false (compatible Shared Exclusive);
  Alcotest.(check bool) "X-S" false (compatible Exclusive Shared);
  Alcotest.(check bool) "X-X" false (compatible Exclusive Exclusive);
  Alcotest.(check bool) "I-I" true (compatible Increment Increment);
  Alcotest.(check bool) "I-S" false (compatible Increment Shared);
  Alcotest.(check bool) "S-I" false (compatible Shared Increment);
  Alcotest.(check bool) "I-X" false (compatible Increment Exclusive)

let test_mode_combine () =
  let open Mode in
  Alcotest.(check bool) "S+S=S" true (combine Shared Shared = Shared);
  Alcotest.(check bool) "I+I=I" true (combine Increment Increment = Increment);
  Alcotest.(check bool) "S+X=X" true (combine Shared Exclusive = Exclusive);
  Alcotest.(check bool) "S+I=X" true (combine Shared Increment = Exclusive);
  Alcotest.(check bool) "covers: X covers S" true (covers ~held:Exclusive ~want:Shared);
  Alcotest.(check bool) "covers: S not I" false (covers ~held:Shared ~want:Increment)

(* --- Lock table helpers --- *)

let make_table eng =
  Lock.create eng
    ~syms:(Icdb_util.Symbol.create ())
    ~compatible:Mode.compatible ~combine:Mode.combine

let run_engine f =
  let eng = Engine.create () in
  let r = f eng in
  Engine.run eng;
  r

(* --- Grant semantics --- *)

let test_shared_locks_coexist () =
  run_engine (fun eng ->
      let t = make_table eng in
      let done_count = ref 0 in
      for owner = 1 to 3 do
        Fiber.spawn eng (fun () ->
            match Lock.acquire t ~owner ~obj:(Lock.intern t "k") ~mode:Mode.Shared () with
            | Lock.Granted -> incr done_count
            | _ -> Alcotest.fail "shared should grant")
      done;
      ignore
        (Engine.schedule eng ~delay:1.0 (fun () ->
             Alcotest.(check int) "all granted" 3 !done_count;
             Alcotest.(check int) "three holders" 3 (List.length (Lock.holders t ~obj:(Lock.intern t "k"))))))

let test_exclusive_blocks_until_release () =
  run_engine (fun eng ->
      let t = make_table eng in
      let order = ref [] in
      Fiber.spawn eng (fun () ->
          ignore (Lock.acquire t ~owner:1 ~obj:(Lock.intern t "k") ~mode:Mode.Exclusive ());
          order := "t1-granted" :: !order;
          Fiber.sleep eng 10.0;
          Lock.release t ~owner:1 ~obj:(Lock.intern t "k");
          order := "t1-released" :: !order);
      Fiber.spawn eng (fun () ->
          Fiber.sleep eng 1.0;
          match Lock.acquire t ~owner:2 ~obj:(Lock.intern t "k") ~mode:Mode.Exclusive () with
          | Lock.Granted -> order := "t2-granted" :: !order
          | _ -> Alcotest.fail "should eventually grant");
      ignore
        (Engine.schedule eng ~delay:20.0 (fun () ->
             Alcotest.(check (list string)) "waiter granted after release"
               [ "t1-granted"; "t1-released"; "t2-granted" ]
               (List.rev !order))))

let test_fifo_fairness () =
  run_engine (fun eng ->
      let t = make_table eng in
      let order = ref [] in
      Fiber.spawn eng (fun () ->
          ignore (Lock.acquire t ~owner:1 ~obj:(Lock.intern t "k") ~mode:Mode.Exclusive ());
          Fiber.sleep eng 5.0;
          Lock.release t ~owner:1 ~obj:(Lock.intern t "k"));
      for owner = 2 to 4 do
        Fiber.spawn eng (fun () ->
            (* Stagger arrival so queue order is 2,3,4. *)
            Fiber.sleep eng (float_of_int owner *. 0.1);
            ignore (Lock.acquire t ~owner ~obj:(Lock.intern t "k") ~mode:Mode.Exclusive ());
            order := owner :: !order;
            Fiber.sleep eng 1.0;
            Lock.release t ~owner ~obj:(Lock.intern t "k"))
      done;
      ignore
        (Engine.schedule eng ~delay:30.0 (fun () ->
             Alcotest.(check (list int)) "FIFO" [ 2; 3; 4 ] (List.rev !order))))

let test_shared_must_wait_behind_queued_exclusive () =
  (* No starvation: a new S request queues behind a waiting X. *)
  run_engine (fun eng ->
      let t = make_table eng in
      let order = ref [] in
      Fiber.spawn eng (fun () ->
          ignore (Lock.acquire t ~owner:1 ~obj:(Lock.intern t "k") ~mode:Mode.Shared ());
          Fiber.sleep eng 5.0;
          Lock.release t ~owner:1 ~obj:(Lock.intern t "k"));
      Fiber.spawn eng (fun () ->
          Fiber.sleep eng 1.0;
          ignore (Lock.acquire t ~owner:2 ~obj:(Lock.intern t "k") ~mode:Mode.Exclusive ());
          order := "x" :: !order;
          Fiber.sleep eng 1.0;
          Lock.release t ~owner:2 ~obj:(Lock.intern t "k"));
      Fiber.spawn eng (fun () ->
          Fiber.sleep eng 2.0;
          (* S would be compatible with holder 1, but X is queued first. *)
          ignore (Lock.acquire t ~owner:3 ~obj:(Lock.intern t "k") ~mode:Mode.Shared ());
          order := "s" :: !order);
      ignore
        (Engine.schedule eng ~delay:30.0 (fun () ->
             Alcotest.(check (list string)) "X before late S" [ "x"; "s" ] (List.rev !order))))

let test_increment_locks_coexist () =
  run_engine (fun eng ->
      let t = make_table eng in
      let granted = ref 0 in
      for owner = 1 to 4 do
        Fiber.spawn eng (fun () ->
            match Lock.acquire t ~owner ~obj:(Lock.intern t "ctr") ~mode:Mode.Increment () with
            | Lock.Granted -> incr granted
            | _ -> Alcotest.fail "increment locks must coexist")
      done;
      ignore
        (Engine.schedule eng ~delay:1.0 (fun () ->
             Alcotest.(check int) "all four granted concurrently" 4 !granted)))

let test_reentrant_and_upgrade () =
  run_engine (fun eng ->
      let t = make_table eng in
      Fiber.spawn eng (fun () ->
          ignore (Lock.acquire t ~owner:1 ~obj:(Lock.intern t "k") ~mode:Mode.Shared ());
          (* Re-entrant shared: immediate. *)
          Alcotest.check outcome_testable "reentrant S" Lock.Granted
            (Lock.acquire t ~owner:1 ~obj:(Lock.intern t "k") ~mode:Mode.Shared ());
          (* Upgrade to X with no other holder: immediate. *)
          Alcotest.check outcome_testable "upgrade to X" Lock.Granted
            (Lock.acquire t ~owner:1 ~obj:(Lock.intern t "k") ~mode:Mode.Exclusive ());
          Alcotest.(check (list (pair int (Alcotest.testable Mode.pp ( = )))))
            "holds X" [ (1, Mode.Exclusive) ] (Lock.holders t ~obj:(Lock.intern t "k"))))

let test_upgrade_waits_for_other_reader () =
  run_engine (fun eng ->
      let t = make_table eng in
      let upgraded_at = ref 0.0 in
      Fiber.spawn eng (fun () ->
          ignore (Lock.acquire t ~owner:1 ~obj:(Lock.intern t "k") ~mode:Mode.Shared ());
          Fiber.sleep eng 5.0;
          Lock.release t ~owner:1 ~obj:(Lock.intern t "k"));
      Fiber.spawn eng (fun () ->
          ignore (Lock.acquire t ~owner:2 ~obj:(Lock.intern t "k") ~mode:Mode.Shared ());
          Fiber.sleep eng 1.0;
          (match Lock.acquire t ~owner:2 ~obj:(Lock.intern t "k") ~mode:Mode.Exclusive () with
          | Lock.Granted -> upgraded_at := Engine.now eng
          | _ -> Alcotest.fail "upgrade should grant eventually"));
      ignore
        (Engine.schedule eng ~delay:30.0 (fun () ->
             Alcotest.(check (float 1e-9)) "upgrade granted at release" 5.0 !upgraded_at)))

let test_try_acquire () =
  run_engine (fun eng ->
      let t = make_table eng in
      Alcotest.(check bool) "free grant" true
        (Lock.try_acquire t ~owner:1 ~obj:(Lock.intern t "k") ~mode:Mode.Exclusive);
      Alcotest.(check bool) "conflicting refused" false
        (Lock.try_acquire t ~owner:2 ~obj:(Lock.intern t "k") ~mode:Mode.Shared);
      Alcotest.(check bool) "reentrant ok" true
        (Lock.try_acquire t ~owner:1 ~obj:(Lock.intern t "k") ~mode:Mode.Shared))

(* --- Deadlock / timeout --- *)

let test_deadlock_detected () =
  run_engine (fun eng ->
      let t = make_table eng in
      let outcomes = ref [] in
      Fiber.spawn eng (fun () ->
          ignore (Lock.acquire t ~owner:1 ~obj:(Lock.intern t "a") ~mode:Mode.Exclusive ());
          Fiber.sleep eng 1.0;
          let o = Lock.acquire t ~owner:1 ~obj:(Lock.intern t "b") ~mode:Mode.Exclusive () in
          outcomes := (1, o) :: !outcomes;
          if o = Lock.Deadlock then Lock.release_all t ~owner:1);
      Fiber.spawn eng (fun () ->
          ignore (Lock.acquire t ~owner:2 ~obj:(Lock.intern t "b") ~mode:Mode.Exclusive ());
          Fiber.sleep eng 2.0;
          let o = Lock.acquire t ~owner:2 ~obj:(Lock.intern t "a") ~mode:Mode.Exclusive () in
          outcomes := (2, o) :: !outcomes);
      ignore
        (Engine.schedule eng ~delay:60.0 (fun () ->
             (* Owner 2's request closes the cycle and is denied; owner 1 is
                then granted after 2... actually owner 2 is the victim. *)
             let o2 = List.assoc 2 !outcomes in
             Alcotest.check outcome_testable "requester is victim" Lock.Deadlock o2;
             Alcotest.(check int) "one deadlock counted" 1 (Lock.deadlock_count t))))

let test_timeout () =
  run_engine (fun eng ->
      let t = make_table eng in
      let result = ref Lock.Granted in
      let finished_at = ref 0.0 in
      Fiber.spawn eng (fun () ->
          ignore (Lock.acquire t ~owner:1 ~obj:(Lock.intern t "k") ~mode:Mode.Exclusive ());
          Fiber.sleep eng 100.0;
          Lock.release_all t ~owner:1);
      Fiber.spawn eng (fun () ->
          Fiber.sleep eng 1.0;
          result := Lock.acquire t ~owner:2 ~obj:(Lock.intern t "k") ~mode:Mode.Exclusive ~timeout:5.0 ();
          finished_at := Engine.now eng);
      ignore
        (Engine.schedule eng ~delay:200.0 (fun () ->
             Alcotest.check outcome_testable "timed out" Lock.Timeout !result;
             Alcotest.(check (float 1e-9)) "after 5 units" 6.0 !finished_at;
             Alcotest.(check int) "timeout counted" 1 (Lock.timeout_count t))))

let test_timed_out_waiter_does_not_hold () =
  run_engine (fun eng ->
      let t = make_table eng in
      Fiber.spawn eng (fun () ->
          ignore (Lock.acquire t ~owner:1 ~obj:(Lock.intern t "k") ~mode:Mode.Exclusive ());
          Fiber.sleep eng 10.0;
          Lock.release_all t ~owner:1);
      Fiber.spawn eng (fun () ->
          Fiber.sleep eng 1.0;
          ignore (Lock.acquire t ~owner:2 ~obj:(Lock.intern t "k") ~mode:Mode.Exclusive ~timeout:2.0 ()));
      ignore
        (Engine.schedule eng ~delay:50.0 (fun () ->
             Alcotest.(check (list (pair int (Alcotest.testable Mode.pp ( = )))))
               "no stale holder" [] (Lock.holders t ~obj:(Lock.intern t "k")))))

(* --- release_all / reset --- *)

let test_release_all () =
  run_engine (fun eng ->
      let t = make_table eng in
      Fiber.spawn eng (fun () ->
          ignore (Lock.acquire t ~owner:1 ~obj:(Lock.intern t "a") ~mode:Mode.Exclusive ());
          ignore (Lock.acquire t ~owner:1 ~obj:(Lock.intern t "b") ~mode:Mode.Shared ());
          Alcotest.(check int) "holds two" 2 (List.length (Lock.held t ~owner:1));
          Lock.release_all t ~owner:1;
          Alcotest.(check int) "holds none" 0 (List.length (Lock.held t ~owner:1))))

let test_release_all_cancels_wait () =
  run_engine (fun eng ->
      let t = make_table eng in
      let revoked = ref false in
      Fiber.spawn eng (fun () ->
          ignore (Lock.acquire t ~owner:1 ~obj:(Lock.intern t "k") ~mode:Mode.Exclusive ());
          Fiber.sleep eng 50.0;
          Lock.release_all t ~owner:1);
      Fiber.spawn eng (fun () ->
          Fiber.sleep eng 1.0;
          match Lock.acquire t ~owner:2 ~obj:(Lock.intern t "k") ~mode:Mode.Exclusive () with
          | _ -> Alcotest.fail "should have been revoked"
          | exception Lock.Lock_revoked -> revoked := true);
      (* A third party aborts owner 2 while it waits. *)
      ignore (Engine.schedule eng ~delay:5.0 (fun () -> Lock.release_all t ~owner:2));
      ignore
        (Engine.schedule eng ~delay:100.0 (fun () ->
             Alcotest.(check bool) "wait revoked" true !revoked)))

let test_reset_wakes_everyone () =
  run_engine (fun eng ->
      let t = make_table eng in
      let revoked = ref 0 in
      Fiber.spawn eng (fun () ->
          ignore (Lock.acquire t ~owner:1 ~obj:(Lock.intern t "k") ~mode:Mode.Exclusive ());
          Fiber.sleep eng 50.0);
      for owner = 2 to 4 do
        Fiber.spawn eng (fun () ->
            Fiber.sleep eng 1.0;
            match Lock.acquire t ~owner ~obj:(Lock.intern t "k") ~mode:Mode.Exclusive () with
            | _ -> ()
            | exception Lock.Lock_revoked -> incr revoked)
      done;
      ignore (Engine.schedule eng ~delay:5.0 (fun () -> Lock.reset t));
      ignore
        (Engine.schedule eng ~delay:100.0 (fun () ->
             Alcotest.(check int) "all waiters revoked" 3 !revoked;
             Alcotest.(check int) "table empty" 0 (List.length (Lock.holders t ~obj:(Lock.intern t "k"))))))

(* --- metrics --- *)

let test_hold_time_hook () =
  run_engine (fun eng ->
      let t = make_table eng in
      let durations = ref [] in
      Lock.set_hold_time_hook t (fun ~obj:_ ~duration -> durations := duration :: !durations);
      Fiber.spawn eng (fun () ->
          ignore (Lock.acquire t ~owner:1 ~obj:(Lock.intern t "k") ~mode:Mode.Exclusive ());
          Fiber.sleep eng 7.0;
          Lock.release t ~owner:1 ~obj:(Lock.intern t "k"));
      ignore
        (Engine.schedule eng ~delay:20.0 (fun () ->
             Alcotest.(check (list (float 1e-9))) "held for 7" [ 7.0 ] !durations)))

let test_counters () =
  run_engine (fun eng ->
      let t = make_table eng in
      Fiber.spawn eng (fun () ->
          ignore (Lock.acquire t ~owner:1 ~obj:(Lock.intern t "k") ~mode:Mode.Exclusive ());
          Fiber.sleep eng 2.0;
          Lock.release_all t ~owner:1);
      Fiber.spawn eng (fun () ->
          Fiber.sleep eng 1.0;
          ignore (Lock.acquire t ~owner:2 ~obj:(Lock.intern t "k") ~mode:Mode.Exclusive ()));
      ignore
        (Engine.schedule eng ~delay:20.0 (fun () ->
             Alcotest.(check int) "two acquisitions" 2 (Lock.acquisition_count t);
             Alcotest.(check int) "one wait" 1 (Lock.wait_count t);
             Alcotest.(check int) "none blocked now" 0 (Lock.blocked_count t))))

(* --- pooled owner sets --- *)

let pool_names = Array.init 80 (Printf.sprintf "obj-%02d")

(* Symbols interned in one fixed order, so two tables differ only in what
   they did before. *)
let pooled_table eng =
  let t = make_table eng in
  Array.iter (fun name -> ignore (Lock.intern t name)) pool_names;
  t

let pool_obj t i = Lock.intern t pool_names.(i)

(* Five owners share 70 objects each, then release them all: the table
   keeps five reset sets, every one of which had grown to 64 buckets. *)
let warm_up t =
  for owner = 1 to 5 do
    for i = 0 to 69 do
      let obj = pool_obj t ((i + (7 * owner)) mod 80) in
      assert (Lock.try_acquire t ~owner ~obj ~mode:Mode.Shared)
    done
  done;
  for owner = 1 to 5 do
    Lock.release_all t ~owner
  done

(* Owner 10 holds every object, 11 the even ones, 12 every third, 13 every
   fifth; owner 100 + i queues for an exclusive lock on object i. The
   holders release in turn, and each release wakes the waiters whose
   object it freed in its own set's iteration order. The log holds every
   wake in order, each holder's [held] list before the releases, and each
   waiter's at the end. *)
let release_schedule t eng =
  let log = ref [] in
  let say s = log := s :: !log in
  let holders = [ (10, 1); (11, 2); (12, 3); (13, 5) ] in
  List.iter
    (fun (owner, step) ->
      for i = 0 to 79 do
        if i mod step = 0 then
          assert (Lock.try_acquire t ~owner ~obj:(pool_obj t i) ~mode:Mode.Shared)
      done)
    holders;
  let show owner = String.concat "," (List.map fst (Lock.held t ~owner)) in
  List.iter (fun (owner, _) -> say (Printf.sprintf "held %d: %s" owner (show owner))) holders;
  for i = 0 to 79 do
    Fiber.spawn eng (fun () ->
        match Lock.acquire t ~owner:(100 + i) ~obj:(pool_obj t i) ~mode:Mode.Exclusive () with
        | Lock.Granted -> say (Printf.sprintf "wake %d" (100 + i))
        | Lock.Timeout | Lock.Deadlock -> say "denied")
  done;
  List.iteri
    (fun k (owner, _) ->
      ignore
        (Engine.schedule eng ~delay:(float_of_int (k + 1)) (fun () ->
             say (Printf.sprintf "release %d" owner);
             Lock.release_all t ~owner)))
    holders;
  Engine.run eng;
  for i = 0 to 79 do
    say (Printf.sprintf "held %d: %s" (100 + i) (show (100 + i)))
  done;
  List.rev !log

let test_recycled_sets_keep_wake_order () =
  let fresh =
    let eng = Engine.create () in
    release_schedule (pooled_table eng) eng
  in
  let eng = Engine.create () in
  let t = pooled_table eng in
  warm_up t;
  Alcotest.(check int) "five reset sets kept" 5 (Lock.spare_set_count t);
  let recycled = release_schedule t eng in
  let wakes = List.filter (fun s -> String.length s > 4 && String.sub s 0 4 = "wake") fresh in
  Alcotest.(check int) "every waiter woke" 80 (List.length wakes);
  Alcotest.(check (list string)) "recycled = fresh" fresh recycled

let test_spare_sets_per_table () =
  let eng = Engine.create () in
  let a = pooled_table eng and b = pooled_table eng in
  warm_up a;
  Alcotest.(check int) "a keeps five" 5 (Lock.spare_set_count a);
  Alcotest.(check int) "b has none" 0 (Lock.spare_set_count b);
  assert (Lock.try_acquire b ~owner:7 ~obj:(pool_obj b 0) ~mode:Mode.Exclusive);
  Alcotest.(check int) "b's owner set is not a's" 5 (Lock.spare_set_count a);
  Lock.release_all b ~owner:7;
  Alcotest.(check int) "b keeps its own" 1 (Lock.spare_set_count b);
  assert (Lock.try_acquire a ~owner:7 ~obj:(pool_obj a 0) ~mode:Mode.Exclusive);
  Alcotest.(check int) "a reuses its own" 4 (Lock.spare_set_count a);
  Alcotest.(check int) "b untouched" 1 (Lock.spare_set_count b)

(* Property: whatever sequence of try_acquire / release / release_all is
   applied, the granted holders on every object stay pairwise compatible
   (different owners) — the fundamental lock-table invariant. *)
let prop_holders_pairwise_compatible =
  QCheck2.Test.make ~name:"holders stay pairwise compatible" ~count:200
    QCheck2.Gen.(
      list_size (int_range 1 60)
        (tup4 (int_range 0 2) (int_range 1 5) (int_range 0 3) (int_range 0 2)))
    (fun ops ->
      let eng = Engine.create () in
      let t = make_table eng in
      let mode_of = function
        | 0 -> Mode.Shared
        | 1 -> Mode.Exclusive
        | _ -> Mode.Increment
      in
      let ok = ref true in
      List.iter
        (fun (op, owner, obj_i, mode_i) ->
          let obj = Lock.intern t (Printf.sprintf "o%d" obj_i) in
          (match op with
          | 0 -> ignore (Lock.try_acquire t ~owner ~obj ~mode:(mode_of mode_i))
          | 1 -> Lock.release t ~owner ~obj
          | _ -> Lock.release_all t ~owner);
          for oi = 0 to 3 do
            let holders = Lock.holders t ~obj:(Lock.intern t (Printf.sprintf "o%d" oi)) in
            List.iter
              (fun (o1, m1) ->
                List.iter
                  (fun (o2, m2) ->
                    if o1 < o2 && not (Mode.compatible m1 m2) then ok := false)
                  holders)
              holders
          done)
        ops;
      !ok)

(* Equivalence with the pre-interning string-keyed table: a reference model
   keyed directly by object *names* replays the same try_acquire / release /
   release_all sequence and must agree with the symbol-keyed table on every
   outcome and every holder set. This pins down that interning changed the
   representation only, not the grant semantics. *)
module StrMap = Map.Make (String)

let prop_interned_matches_string_model =
  QCheck2.Test.make ~name:"interned table matches string-keyed model" ~count:300
    QCheck2.Gen.(
      list_size (int_range 1 80)
        (tup4 (int_range 0 2) (int_range 1 5) (int_range 0 4) (int_range 0 2)))
    (fun ops ->
      let eng = Engine.create () in
      let t = make_table eng in
      let model = ref StrMap.empty in
      let mode_of = function
        | 0 -> Mode.Shared
        | 1 -> Mode.Exclusive
        | _ -> Mode.Increment
      in
      let model_holders name = try StrMap.find name !model with Not_found -> [] in
      (* Seed grant rule: reentrant requests combine with the held mode and
         are checked only against *other* holders. No fiber ever blocks in
         this sequence, so the no-active-waiters side condition is vacuous. *)
      let model_try_acquire ~owner ~name ~mode =
        let holders = model_holders name in
        let held = List.assoc_opt owner holders in
        let want = match held with Some hm -> Mode.combine hm mode | None -> mode in
        let ok =
          List.for_all (fun (o, hm) -> o = owner || Mode.compatible hm want) holders
        in
        if ok then begin
          let holders' =
            match held with
            | Some _ ->
              List.map (fun (o, hm) -> if o = owner then (o, want) else (o, hm)) holders
            | None -> (owner, mode) :: holders
          in
          model := StrMap.add name holders' !model
        end;
        ok
      in
      let model_release ~owner ~name =
        model :=
          StrMap.add name (List.filter (fun (o, _) -> o <> owner) (model_holders name)) !model
      in
      let ok = ref true in
      List.iter
        (fun (op, owner, obj_i, mode_i) ->
          let name = Printf.sprintf "o%d" obj_i in
          (match op with
          | 0 ->
            let mode = mode_of mode_i in
            let got = Lock.try_acquire t ~owner ~obj:(Lock.intern t name) ~mode in
            let want = model_try_acquire ~owner ~name ~mode in
            if got <> want then ok := false
          | 1 ->
            Lock.release t ~owner ~obj:(Lock.intern t name);
            model_release ~owner ~name
          | _ ->
            Lock.release_all t ~owner;
            StrMap.iter (fun name _ -> model_release ~owner ~name) !model);
          for oi = 0 to 5 do
            let name = Printf.sprintf "o%d" oi in
            let got = Lock.holders t ~obj:(Lock.intern t name) in
            let want = List.sort compare (model_holders name) in
            if got <> want then ok := false
          done)
        ops;
      !ok)

let () =
  Alcotest.run "lock"
    [
      ( "mode",
        [
          Alcotest.test_case "compatibility matrix" `Quick test_mode_compat_matrix;
          Alcotest.test_case "combine/covers" `Quick test_mode_combine;
        ] );
      ( "grant",
        [
          Alcotest.test_case "shared coexist" `Quick test_shared_locks_coexist;
          Alcotest.test_case "exclusive blocks" `Quick test_exclusive_blocks_until_release;
          Alcotest.test_case "fifo" `Quick test_fifo_fairness;
          Alcotest.test_case "no reader starvation of writers" `Quick
            test_shared_must_wait_behind_queued_exclusive;
          Alcotest.test_case "increment coexist" `Quick test_increment_locks_coexist;
          Alcotest.test_case "reentrant and upgrade" `Quick test_reentrant_and_upgrade;
          Alcotest.test_case "upgrade waits" `Quick test_upgrade_waits_for_other_reader;
          Alcotest.test_case "try_acquire" `Quick test_try_acquire;
        ] );
      ( "failures",
        [
          Alcotest.test_case "deadlock detection" `Quick test_deadlock_detected;
          Alcotest.test_case "timeout" `Quick test_timeout;
          Alcotest.test_case "timed-out waiter absent" `Quick test_timed_out_waiter_does_not_hold;
        ] );
      ( "teardown",
        [
          Alcotest.test_case "release_all" `Quick test_release_all;
          Alcotest.test_case "release_all cancels wait" `Quick test_release_all_cancels_wait;
          Alcotest.test_case "reset wakes everyone" `Quick test_reset_wakes_everyone;
          Alcotest.test_case "recycled owner sets keep wake order" `Quick
            test_recycled_sets_keep_wake_order;
          Alcotest.test_case "spare owner sets are per table" `Quick test_spare_sets_per_table;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "hold time hook" `Quick test_hold_time_hook;
          Alcotest.test_case "counters" `Quick test_counters;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_holders_pairwise_compatible;
          QCheck_alcotest.to_alcotest prop_interned_matches_string_model;
        ] );
    ]
