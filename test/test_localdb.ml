(* Tests for Icdb_localdb.Engine: a complete local DBMS with locking or
   optimistic concurrency control, WAL recovery, crashes and the optional
   prepared state. *)

module Sim = Icdb_sim.Engine
module Fiber = Icdb_sim.Fiber
module Db = Icdb_localdb.Engine

let ok = function
  | Ok v -> v
  | Error r -> Alcotest.failf "unexpected local abort: %s" (Db.abort_reason_to_string r)

let reason_testable =
  Alcotest.testable Db.pp_abort_reason ( = )

let err = function
  | Ok _ -> Alcotest.fail "expected an abort"
  | Error r -> r

let locking_config ?(timeout = Some 50.0) ?(prepare = false) name =
  {
    (Db.default_config ~site_name:name) with
    capabilities =
      {
        supports_prepare = prepare;
        supports_increment_locks = true;
        granularity = Record_level;
        cc = Locking { wait_timeout = timeout };
      };
  }

let occ_config name =
  {
    (Db.default_config ~site_name:name) with
    capabilities =
      {
        supports_prepare = false;
        supports_increment_locks = false;
        granularity = Record_level;
        cc = Optimistic;
      };
  }

(* Run [f] in a fiber on a fresh engine+db and drain the simulation. *)
let with_db ?(config = locking_config "site-a") f =
  let eng = Sim.create () in
  let db = Db.create eng config in
  let failure = ref None in
  Fiber.spawn eng
    ~on_error:(fun e -> failure := Some e)
    (fun () -> f eng db);
  Sim.run eng;
  match !failure with Some e -> raise e | None -> ()

(* --- basics --- *)

let test_write_read_commit () =
  with_db (fun _ db ->
      let t = Db.begin_txn db in
      ok (Db.write db t ~key:"a" ~value:1);
      ok (Db.write db t ~key:"b" ~value:2);
      Alcotest.(check (option int)) "own write visible" (Some 1) (ok (Db.read db t "a"));
      ok (Db.commit db t);
      Alcotest.(check bool) "committed state" true (Db.state t = `Committed);
      Alcotest.(check (option int)) "a committed" (Some 1) (Db.committed_value db "a");
      Alcotest.(check (option int)) "b committed" (Some 2) (Db.committed_value db "b");
      Alcotest.(check int) "one commit" 1 (Db.commit_count db))

let test_read_missing () =
  with_db (fun _ db ->
      let t = Db.begin_txn db in
      Alcotest.(check (option int)) "missing is None" None (ok (Db.read db t "nope"));
      ok (Db.commit db t))

let test_abort_restores_everything () =
  with_db (fun _ db ->
      Db.load db [ ("keep", 100); ("mut", 5) ];
      let t = Db.begin_txn db in
      ok (Db.write db t ~key:"new" ~value:1);
      ok (Db.write db t ~key:"mut" ~value:999);
      ok (Db.delete db t "keep");
      ok (Db.increment db t ~key:"mut" ~delta:7);
      Db.abort db t;
      Alcotest.(check bool) "aborted" true (Db.state t = `Aborted Db.Requested);
      Alcotest.(check (option int)) "insert undone" None (Db.committed_value db "new");
      Alcotest.(check (option int)) "update undone" (Some 5) (Db.committed_value db "mut");
      Alcotest.(check (option int)) "delete undone" (Some 100) (Db.committed_value db "keep"))

let test_delete_then_reinsert () =
  with_db (fun _ db ->
      Db.load db [ ("k", 1) ];
      let t = Db.begin_txn db in
      ok (Db.delete db t "k");
      Alcotest.(check (option int)) "deleted invisible" None (ok (Db.read db t "k"));
      ok (Db.write db t ~key:"k" ~value:2);
      ok (Db.commit db t);
      Alcotest.(check (option int)) "reinserted" (Some 2) (Db.committed_value db "k"))

let test_accesses_recorded () =
  with_db (fun _ db ->
      Db.load db [ ("x", 10) ];
      let t = Db.begin_txn db in
      ignore (ok (Db.read db t "x"));
      ok (Db.increment db t ~key:"x" ~delta:(-3));
      ok (Db.commit db t);
      match Db.accesses t with
      | [ Db.Read { key = "x"; value = Some 10 }; Db.Incremented { key = "x"; delta = -3 } ] ->
        ()
      | l -> Alcotest.failf "unexpected access log (%d entries)" (List.length l))

let test_op_on_finished_txn_rejected () =
  with_db (fun _ db ->
      let t = Db.begin_txn db in
      ok (Db.commit db t);
      Alcotest.(check bool) "raises" true
        (match Db.read db t "x" with
        | exception Invalid_argument _ -> true
        | _ -> false))

(* --- isolation (strict 2PL) --- *)

let test_writer_blocks_reader_until_commit () =
  let eng = Sim.create () in
  let db = Db.create eng (locking_config "s") in
  Db.load db [ ("x", 0) ];
  let read_time = ref 0.0 and read_value = ref None in
  Fiber.spawn eng (fun () ->
      let t = Db.begin_txn db in
      ok (Db.write db t ~key:"x" ~value:42);
      Fiber.sleep eng 10.0;
      ok (Db.commit db t));
  Fiber.spawn eng (fun () ->
      Fiber.sleep eng 2.0;
      let t = Db.begin_txn db in
      read_value := ok (Db.read db t "x");
      read_time := Sim.now eng;
      ok (Db.commit db t));
  Sim.run eng;
  Alcotest.(check (option int)) "reader saw committed value" (Some 42) !read_value;
  Alcotest.(check bool) "reader waited for writer commit" true (!read_time > 11.0)

let test_two_writers_serialize () =
  (* Read-then-write of the same key by two transactions is the textbook
     lock-conversion deadlock; the victim retries until it commits. The
     invariant is that no update is ever lost. *)
  let eng = Sim.create () in
  let db = Db.create eng (locking_config "s") in
  Db.load db [ ("x", 0) ];
  let spawn_adder delay =
    Fiber.spawn eng (fun () ->
        Fiber.sleep eng delay;
        let rec attempt () =
          let t = Db.begin_txn db in
          let step =
            match Db.read db t "x" with
            | Error r -> Error r
            | Ok v -> (
              match Db.write db t ~key:"x" ~value:(Option.get v + 1) with
              | Error r -> Error r
              | Ok () -> Db.commit db t)
          in
          match step with Ok () -> () | Error _ -> attempt ()
        in
        attempt ())
  in
  spawn_adder 0.0;
  spawn_adder 0.1;
  Sim.run eng;
  Alcotest.(check (option int)) "no lost update" (Some 2) (Db.committed_value db "x")

let test_increment_locks_allow_concurrency () =
  let eng = Sim.create () in
  let db = Db.create eng (locking_config "s") in
  Db.load db [ ("ctr", 0) ];
  let finish_times = ref [] in
  for _ = 1 to 3 do
    Fiber.spawn eng (fun () ->
        let t = Db.begin_txn db in
        ok (Db.increment db t ~key:"ctr" ~delta:1);
        Fiber.sleep eng 10.0;
        ok (Db.commit db t);
        finish_times := Sim.now eng :: !finish_times)
  done;
  Sim.run eng;
  Alcotest.(check (option int)) "all increments applied" (Some 3) (Db.committed_value db "ctr");
  (* All three held increment locks simultaneously: they finish together,
     not serialized 13/26/39. *)
  List.iter
    (fun ft -> Alcotest.(check bool) "concurrent finish" true (ft < 20.0))
    !finish_times

let test_increment_abort_is_logical () =
  let eng = Sim.create () in
  let db = Db.create eng (locking_config "s") in
  Db.load db [ ("ctr", 100) ];
  (* T1 increments and aborts late; T2 increments and commits early. *)
  Fiber.spawn eng (fun () ->
      let t1 = Db.begin_txn db in
      ok (Db.increment db t1 ~key:"ctr" ~delta:5);
      Fiber.sleep eng 20.0;
      Db.abort db t1);
  Fiber.spawn eng (fun () ->
      Fiber.sleep eng 2.0;
      let t2 = Db.begin_txn db in
      ok (Db.increment db t2 ~key:"ctr" ~delta:3);
      ok (Db.commit db t2));
  Sim.run eng;
  Alcotest.(check (option int)) "T2's increment survives T1's undo" (Some 103)
    (Db.committed_value db "ctr")

(* --- autonomy: deadlock, timeout, kill --- *)

let test_deadlock_one_victim () =
  let eng = Sim.create () in
  let db = Db.create eng (locking_config ~timeout:None "s") in
  Db.load db [ ("a", 0); ("b", 0) ];
  let results = ref [] in
  Fiber.spawn eng (fun () ->
      let t = Db.begin_txn db in
      ok (Db.write db t ~key:"a" ~value:1);
      Fiber.sleep eng 5.0;
      (match Db.write db t ~key:"b" ~value:1 with
      | Ok () -> results := `Committed :: !results; ok (Db.commit db t)
      | Error r -> results := `Aborted r :: !results));
  Fiber.spawn eng (fun () ->
      let t = Db.begin_txn db in
      ok (Db.write db t ~key:"b" ~value:2);
      Fiber.sleep eng 5.0;
      (match Db.write db t ~key:"a" ~value:2 with
      | Ok () -> results := `Committed :: !results; ok (Db.commit db t)
      | Error r -> results := `Aborted r :: !results));
  Sim.run eng;
  let aborted =
    List.filter (function `Aborted Db.Deadlock_victim -> true | _ -> false) !results
  in
  let committed = List.filter (( = ) `Committed) !results in
  Alcotest.(check int) "exactly one victim" 1 (List.length aborted);
  Alcotest.(check int) "the other commits" 1 (List.length committed);
  Alcotest.(check int) "deadlock counted" 1 (Db.lock_deadlock_count db)

let test_lock_timeout_aborts () =
  let eng = Sim.create () in
  let db = Db.create eng (locking_config ~timeout:(Some 5.0) "s") in
  Db.load db [ ("x", 0) ];
  let result = ref None in
  Fiber.spawn eng (fun () ->
      let t = Db.begin_txn db in
      ok (Db.write db t ~key:"x" ~value:1);
      Fiber.sleep eng 100.0;
      ok (Db.commit db t));
  Fiber.spawn eng (fun () ->
      Fiber.sleep eng 1.0;
      let t = Db.begin_txn db in
      result := Some (Db.write db t ~key:"x" ~value:2));
  Sim.run eng;
  (match !result with
  | Some (Error Db.Lock_timeout) -> ()
  | _ -> Alcotest.fail "expected lock timeout");
  Alcotest.(check bool) "holder unaffected" true (Db.committed_value db "x" = Some 1)

let test_kill_running_txn () =
  let eng = Sim.create () in
  let db = Db.create eng (locking_config "s") in
  Db.load db [ ("x", 7) ];
  let second_op = ref None in
  let handle = ref None in
  Fiber.spawn eng (fun () ->
      let t = Db.begin_txn db in
      handle := Some t;
      ok (Db.write db t ~key:"x" ~value:8);
      Fiber.sleep eng 10.0;
      second_op := Some (Db.write db t ~key:"x" ~value:9));
  ignore (Sim.schedule eng ~delay:5.0 (fun () -> Db.kill db (Option.get !handle)));
  Sim.run eng;
  (match !second_op with
  | Some (Error Db.Injected) -> ()
  | _ -> Alcotest.fail "op after kill must fail with Injected");
  Alcotest.(check (option int)) "write rolled back" (Some 7) (Db.committed_value db "x")

let test_kill_blocked_txn () =
  let eng = Sim.create () in
  let db = Db.create eng (locking_config ~timeout:None "s") in
  Db.load db [ ("x", 0) ];
  let blocked_result = ref None in
  let victim = ref None in
  Fiber.spawn eng (fun () ->
      let t = Db.begin_txn db in
      ok (Db.write db t ~key:"x" ~value:1);
      Fiber.sleep eng 50.0;
      ok (Db.commit db t));
  Fiber.spawn eng (fun () ->
      Fiber.sleep eng 1.0;
      let t = Db.begin_txn db in
      victim := Some t;
      blocked_result := Some (Db.write db t ~key:"x" ~value:2));
  ignore (Sim.schedule eng ~delay:10.0 (fun () -> Db.kill db (Option.get !victim)));
  Sim.run eng;
  match !blocked_result with
  | Some (Error Db.Injected) -> ()
  | _ -> Alcotest.fail "blocked victim must observe Injected"

(* --- optimistic concurrency control --- *)

let test_occ_basic_commit () =
  with_db ~config:(occ_config "o") (fun _ db ->
      Db.load db [ ("x", 1) ];
      let t = Db.begin_txn db in
      Alcotest.(check (option int)) "reads committed" (Some 1) (ok (Db.read db t "x"));
      ok (Db.write db t ~key:"x" ~value:2);
      Alcotest.(check (option int)) "reads own buffer" (Some 2) (ok (Db.read db t "x"));
      (* Deferred: nothing visible before commit. *)
      Alcotest.(check (option int)) "not applied yet" (Some 1) (Db.committed_value db "x");
      ok (Db.commit db t);
      Alcotest.(check (option int)) "applied at commit" (Some 2) (Db.committed_value db "x"))

let test_occ_validation_failure () =
  with_db ~config:(occ_config "o") (fun _ db ->
      Db.load db [ ("x", 1) ];
      let t1 = Db.begin_txn db in
      ignore (ok (Db.read db t1 "x"));
      (* t2 commits a write to x after t1 started. *)
      let t2 = Db.begin_txn db in
      ok (Db.write db t2 ~key:"x" ~value:99);
      ok (Db.commit db t2);
      ok (Db.write db t1 ~key:"y" ~value:1);
      Alcotest.check reason_testable "t1 fails validation" Db.Validation_failed
        (err (Db.commit db t1));
      Alcotest.(check (option int)) "t1's write discarded" None (Db.committed_value db "y"))

let test_occ_blind_writes_do_not_conflict () =
  with_db ~config:(occ_config "o") (fun _ db ->
      Db.load db [ ("x", 1) ];
      let t1 = Db.begin_txn db in
      ok (Db.write db t1 ~key:"x" ~value:10);
      let t2 = Db.begin_txn db in
      ok (Db.write db t2 ~key:"x" ~value:20);
      ok (Db.commit db t2);
      (* t1 never read x: blind write, validation passes (Thomas-style). *)
      ok (Db.commit db t1);
      Alcotest.(check (option int)) "last commit wins" (Some 10) (Db.committed_value db "x"))

let test_occ_increments_commute () =
  with_db ~config:(occ_config "o") (fun _ db ->
      Db.load db [ ("ctr", 0) ];
      let t1 = Db.begin_txn db in
      ok (Db.increment db t1 ~key:"ctr" ~delta:5);
      let t2 = Db.begin_txn db in
      ok (Db.increment db t2 ~key:"ctr" ~delta:3);
      ok (Db.commit db t2);
      ok (Db.commit db t1);
      Alcotest.(check (option int)) "both applied" (Some 8) (Db.committed_value db "ctr"))

let test_occ_abort_discards_buffer () =
  with_db ~config:(occ_config "o") (fun _ db ->
      Db.load db [ ("x", 1) ];
      let t = Db.begin_txn db in
      ok (Db.write db t ~key:"x" ~value:2);
      Db.abort db t;
      Alcotest.(check (option int)) "unchanged" (Some 1) (Db.committed_value db "x"))

(* --- crash and restart --- *)

let test_crash_preserves_committed_loses_running () =
  let eng = Sim.create () in
  let db = Db.create eng (locking_config "s") in
  Db.load db [ ("safe", 1); ("dirty", 1) ];
  let late_op = ref None in
  Fiber.spawn eng (fun () ->
      let t = Db.begin_txn db in
      ok (Db.write db t ~key:"safe" ~value:2);
      ok (Db.commit db t);
      let t2 = Db.begin_txn db in
      ok (Db.write db t2 ~key:"dirty" ~value:2);
      (* Force the dirty page to disk: recovery must undo it. *)
      Db.flush_buffers db;
      Fiber.sleep eng 10.0;
      late_op := Some (Db.read db t2 "dirty"));
  ignore (Sim.schedule eng ~delay:8.0 (fun () -> Db.crash db));
  Sim.run eng;
  (match !late_op with
  | Some (Error Db.Site_crashed) -> ()
  | _ -> Alcotest.fail "op during downtime must fail");
  Alcotest.(check bool) "site down" false (Db.is_up db);
  let outcome = Db.restart db in
  Alcotest.(check bool) "site up" true (Db.is_up db);
  Alcotest.(check bool) "loser rolled back" true (List.length outcome.rolled_back = 1);
  Alcotest.(check (option int)) "committed survived" (Some 2) (Db.committed_value db "safe");
  Alcotest.(check (option int)) "uncommitted undone" (Some 1) (Db.committed_value db "dirty")

let test_crash_before_any_flush () =
  let eng = Sim.create () in
  let db = Db.create eng (locking_config "s") in
  Db.load db [];
  Fiber.spawn eng (fun () ->
      let t = Db.begin_txn db in
      ok (Db.write db t ~key:"a" ~value:10);
      ok (Db.commit db t));
  Sim.run eng;
  (* No page ever reached the disk, only the log did (commit forces). *)
  Db.crash db;
  ignore (Db.restart db);
  Alcotest.(check (option int)) "redo reconstructs" (Some 10) (Db.committed_value db "a")

let test_double_crash_recovery_idempotent () =
  let eng = Sim.create () in
  let db = Db.create eng (locking_config "s") in
  Db.load db [ ("x", 5) ];
  Fiber.spawn eng (fun () ->
      let t = Db.begin_txn db in
      ok (Db.increment db t ~key:"x" ~delta:2);
      Db.flush_buffers db;
      Fiber.sleep eng 100.0);
  Sim.run_until eng 10.0;
  Db.crash db;
  ignore (Db.restart db);
  Db.crash db;
  ignore (Db.restart db);
  Alcotest.(check (option int)) "exactly one undo" (Some 5) (Db.committed_value db "x");
  Sim.run eng

(* --- prepare / in-doubt --- *)

let test_prepare_unsupported () =
  with_db (fun _ db ->
      let t = Db.begin_txn db in
      Alcotest.(check bool) "prepare refused" true
        (match Db.prepare db t with
        | exception Failure _ -> true
        | _ -> false))

let test_prepare_commit_flow () =
  let eng = Sim.create () in
  let db = Db.create eng (locking_config ~prepare:true "s") in
  Db.load db [ ("x", 1) ];
  Fiber.spawn eng (fun () ->
      let t = Db.begin_txn db in
      ok (Db.write db t ~key:"x" ~value:2);
      ok (Db.prepare db t);
      Alcotest.(check bool) "prepared" true (Db.state t = `Prepared);
      Db.resolve_prepared db ~txn_id:(Db.txn_id t) ~commit:true;
      Alcotest.(check bool) "committed" true (Db.state t = `Committed));
  Sim.run eng;
  Alcotest.(check (option int)) "value committed" (Some 2) (Db.committed_value db "x")

let test_prepared_survives_crash_then_commit () =
  let eng = Sim.create () in
  let db = Db.create eng (locking_config ~prepare:true "s") in
  Db.load db [ ("x", 1) ];
  let tid = ref 0 in
  Fiber.spawn eng (fun () ->
      let t = Db.begin_txn db in
      tid := Db.txn_id t;
      ok (Db.write db t ~key:"x" ~value:2);
      ok (Db.prepare db t));
  Sim.run eng;
  Db.crash db;
  ignore (Db.restart db);
  Alcotest.(check (list int)) "in doubt after restart" [ !tid ] (Db.in_doubt db);
  Db.resolve_prepared db ~txn_id:!tid ~commit:true;
  Alcotest.(check (option int)) "decision applied" (Some 2) (Db.committed_value db "x");
  Alcotest.(check (list int)) "no longer in doubt" [] (Db.in_doubt db)

let test_prepared_survives_crash_then_abort () =
  let eng = Sim.create () in
  let db = Db.create eng (locking_config ~prepare:true "s") in
  Db.load db [ ("x", 1) ];
  let tid = ref 0 in
  Fiber.spawn eng (fun () ->
      let t = Db.begin_txn db in
      tid := Db.txn_id t;
      ok (Db.write db t ~key:"x" ~value:2);
      ok (Db.prepare db t));
  Sim.run eng;
  Db.crash db;
  ignore (Db.restart db);
  Db.resolve_prepared db ~txn_id:!tid ~commit:false;
  Alcotest.(check (option int)) "undone" (Some 1) (Db.committed_value db "x")

let test_in_doubt_blocks_conflicting_access () =
  (* The classical 2PC blocking problem: recovered in-doubt writes stay
     locked until the global decision arrives. *)
  let eng = Sim.create () in
  let db = Db.create eng (locking_config ~prepare:true ~timeout:None "s") in
  Db.load db [ ("x", 1) ];
  let tid = ref 0 in
  Fiber.spawn eng (fun () ->
      let t = Db.begin_txn db in
      tid := Db.txn_id t;
      ok (Db.write db t ~key:"x" ~value:2);
      ok (Db.prepare db t));
  Sim.run eng;
  Db.crash db;
  ignore (Db.restart db);
  let read_value = ref None and read_at = ref 0.0 in
  Fiber.spawn eng (fun () ->
      let t = Db.begin_txn db in
      read_value := Some (ok (Db.read db t "x"));
      read_at := Sim.now eng;
      ok (Db.commit db t));
  ignore
    (Sim.schedule eng ~delay:25.0 (fun () ->
         Db.resolve_prepared db ~txn_id:!tid ~commit:true));
  Sim.run eng;
  Alcotest.(check (option (option int))) "reader saw decided value" (Some (Some 2)) !read_value;
  Alcotest.(check bool) "reader blocked until decision" true (!read_at >= 25.0)

(* --- misc --- *)

let test_metrics () =
  with_db (fun _ db ->
      let t1 = Db.begin_txn db in
      ok (Db.write db t1 ~key:"a" ~value:1);
      ok (Db.commit db t1);
      let t2 = Db.begin_txn db in
      ok (Db.write db t2 ~key:"a" ~value:2);
      Db.abort db t2;
      Alcotest.(check int) "commits" 1 (Db.commit_count db);
      Alcotest.(check int) "aborts" 1 (Db.abort_count db);
      Alcotest.(check (list (pair reason_testable int))) "by reason"
        [ (Db.Requested, 1) ] (Db.abort_counts db))

let test_load_and_keys () =
  with_db (fun _ db ->
      Db.load db [ ("b", 2); ("a", 1) ];
      Alcotest.(check (list string)) "keys sorted" [ "a"; "b" ] (Db.committed_keys db);
      Alcotest.(check (option int)) "value" (Some 2) (Db.committed_value db "b"))

(* Preload placement is part of observable behaviour: page-granularity
   locks conflict by page, so moving rows between pages moves conflicts.
   Keys are bank-1m's 11-byte [acct-%03d] names (21-byte records plus a
   4-byte slot, (4096 - 12) / 25 = 163 to a page), filled page by page. *)
let test_load_placement () =
  let eng = Sim.create () in
  let db = Db.create eng (locking_config "s") in
  let n = 2000 in
  Db.load db (List.init n (fun i -> (Printf.sprintf "acct-%03d" (100_000 + i), i)));
  let rids = Hashtbl.create n in
  Icdb_wal.Log.iter (Db.wal db) (fun _ -> function
    | Icdb_wal.Log.Op { op = Insert { rid; key; _ }; _ } -> Hashtbl.replace rids key rid
    | _ -> ());
  Alcotest.(check int) "every row logged" n (Hashtbl.length rids);
  for i = 0 to n - 1 do
    let rid = Hashtbl.find rids (Printf.sprintf "acct-%03d" (100_000 + i)) in
    if rid.page <> i / 163 || rid.slot <> i mod 163 then
      Alcotest.failf "row %d at %a, expected (%d,%d)" i Icdb_storage.Heap.pp_rid rid (i / 163)
        (i mod 163)
  done

(* --- checkpointing --- *)

let test_checkpoint_truncates_and_recovers () =
  let eng = Sim.create () in
  let db = Db.create eng (locking_config "s") in
  Db.load db [ ("x", 0) ];
  Fiber.spawn eng (fun () ->
      for _ = 1 to 20 do
        let t = Db.begin_txn db in
        ok (Db.increment db t ~key:"x" ~delta:1);
        ok (Db.commit db t)
      done);
  Sim.run eng;
  let before = Icdb_wal.Log.retained_count (Db.wal db) in
  Db.checkpoint db;
  let after = Icdb_wal.Log.retained_count (Db.wal db) in
  Alcotest.(check bool)
    (Printf.sprintf "log shrank (%d -> %d)" before after)
    true
    (after < before && after <= 2);
  (* Recovery from the truncated log alone restores the state. *)
  Db.crash db;
  ignore (Db.restart db);
  Alcotest.(check (option int)) "state intact" (Some 20) (Db.committed_value db "x")

let test_checkpoint_keeps_active_txn_undoable () =
  let eng = Sim.create () in
  let db = Db.create eng (locking_config "s") in
  Db.load db [ ("x", 0); ("y", 0) ];
  Fiber.spawn eng (fun () ->
      (* An in-flight transaction spans the checkpoint. *)
      let t = Db.begin_txn db in
      ok (Db.increment db t ~key:"x" ~delta:5);
      Fiber.sleep eng 10.0;
      ok (Db.increment db t ~key:"y" ~delta:5);
      Fiber.sleep eng 10.0;
      (* the scheduled crash kills the site before this commit *)
      match Db.commit db t with
      | Error Db.Site_crashed -> ()
      | Ok () | Error _ -> Alcotest.fail "commit must fail with site-crashed");
  ignore
    (Sim.schedule eng ~delay:5.0 (fun () ->
         Db.checkpoint db;
         (* Its pre-checkpoint records must have been retained. *)
         Alcotest.(check bool) "chain retained" true
           (Icdb_wal.Log.retained_count (Db.wal db) >= 2)));
  (* Crash mid-transaction, after the checkpoint: undo must reach the
     records from before the checkpoint. *)
  ignore (Sim.schedule eng ~delay:15.0 (fun () -> Db.crash db));
  Sim.run eng;
  ignore (Db.restart db);
  Alcotest.(check (option int)) "x undone across checkpoint" (Some 0)
    (Db.committed_value db "x");
  Alcotest.(check (option int)) "y undone" (Some 0) (Db.committed_value db "y")

let test_checkpoint_preserves_in_doubt () =
  let eng = Sim.create () in
  let db = Db.create eng (locking_config ~prepare:true "s") in
  Db.load db [ ("x", 1) ];
  let tid = ref 0 in
  Fiber.spawn eng (fun () ->
      let t = Db.begin_txn db in
      tid := Db.txn_id t;
      ok (Db.write db t ~key:"x" ~value:2);
      ok (Db.prepare db t));
  Sim.run eng;
  Db.crash db;
  ignore (Db.restart db);
  (* Checkpoint while the recovered transaction is in doubt. *)
  Db.checkpoint db;
  Db.crash db;
  ignore (Db.restart db);
  Alcotest.(check (list int)) "still in doubt after checkpointed restart" [ !tid ]
    (Db.in_doubt db);
  Db.resolve_prepared db ~txn_id:!tid ~commit:true;
  Alcotest.(check (option int)) "decision applies" (Some 2) (Db.committed_value db "x")

let test_periodic_checkpointing () =
  let eng = Sim.create () in
  let db =
    Db.create eng { (locking_config "s") with Db.checkpoint_interval = Some 20.0 }
  in
  Db.load db [ ("x", 0) ];
  Fiber.spawn eng (fun () ->
      for _ = 1 to 30 do
        let t = Db.begin_txn db in
        ok (Db.increment db t ~key:"x" ~delta:1);
        ok (Db.commit db t)
      done);
  Sim.run_until eng 200.0;
  Alcotest.(check bool) "log bounded by periodic checkpoints" true
    (Icdb_wal.Log.retained_count (Db.wal db) < 30);
  Alcotest.(check (option int)) "all applied" (Some 30) (Db.committed_value db "x")

(* --- group commit --- *)

let gc_config window name =
  { (locking_config name) with Db.group_commit_window = Some window }

let test_group_commit_batches_forces () =
  let eng = Sim.create () in
  let db = Db.create eng (gc_config 5.0 "s") in
  Db.load db [ ("a", 0); ("b", 0); ("c", 0); ("d", 0) ];
  let forces_before = Icdb_wal.Log.force_count (Db.wal db) in
  let committed = ref 0 in
  List.iter
    (fun key ->
      Fiber.spawn eng (fun () ->
          let t = Db.begin_txn db in
          ok (Db.increment db t ~key ~delta:1);
          ok (Db.commit db t);
          incr committed))
    [ "a"; "b"; "c"; "d" ];
  Sim.run eng;
  Alcotest.(check int) "all committed" 4 !committed;
  Alcotest.(check int) "one force for the whole batch" 1
    (Icdb_wal.Log.force_count (Db.wal db) - forces_before)

let test_group_commit_crash_in_window_aborts () =
  let eng = Sim.create () in
  let db = Db.create eng (gc_config 10.0 "s") in
  Db.load db [ ("a", 0) ];
  let result = ref None in
  Fiber.spawn eng (fun () ->
      let t = Db.begin_txn db in
      ok (Db.write db t ~key:"a" ~value:7);
      result := Some (Db.commit db t));
  (* ops take 1tu + commit_delay 2tu; the crash lands inside the window *)
  ignore (Sim.schedule eng ~delay:6.0 (fun () -> Db.crash db));
  Sim.run eng;
  (match !result with
  | Some (Error Db.Site_crashed) -> ()
  | _ -> Alcotest.fail "unforced group commit must fail on crash");
  ignore (Db.restart db);
  Alcotest.(check (option int)) "rolled back" (Some 0) (Db.committed_value db "a")

let test_group_commit_durable_record_survives_crash () =
  let eng = Sim.create () in
  let db = Db.create eng (gc_config 10.0 "s") in
  Db.load db [ ("a", 0) ];
  let result = ref None in
  Fiber.spawn eng (fun () ->
      let t = Db.begin_txn db in
      ok (Db.write db t ~key:"a" ~value:7);
      result := Some (Db.commit db t));
  (* An independent force (e.g. a WAL-rule page flush) makes the batched
     commit record durable before the crash. *)
  ignore (Sim.schedule eng ~delay:5.0 (fun () -> Icdb_wal.Log.flush (Db.wal db)));
  ignore (Sim.schedule eng ~delay:6.0 (fun () -> Db.crash db));
  Sim.run eng;
  (match !result with
  | Some (Ok ()) -> ()
  | _ -> Alcotest.fail "durable commit record means the commit succeeded");
  ignore (Db.restart db);
  Alcotest.(check (option int)) "committed across crash" (Some 7) (Db.committed_value db "a")

let test_group_commit_flush_ordering () =
  (* Each force must cover the whole buffered prefix in LSN order: at hook
     time [flushed_lsn = last_lsn], and separate windows get separate
     forces. *)
  let eng = Sim.create () in
  let db = Db.create eng (gc_config 5.0 "s") in
  Db.load db [ ("a", 0); ("b", 0) ];
  let wal = Db.wal db in
  let forces = ref [] in
  Icdb_wal.Log.set_force_hook wal (fun () ->
      forces :=
        (Sim.now eng, Icdb_wal.Log.flushed_lsn wal, Icdb_wal.Log.last_lsn wal)
        :: !forces);
  let wave keys =
    List.iter
      (fun key ->
        Fiber.spawn eng (fun () ->
            let t = Db.begin_txn db in
            ok (Db.increment db t ~key ~delta:1);
            ok (Db.commit db t)))
      keys
  in
  wave [ "a"; "b" ];
  ignore (Sim.schedule eng ~delay:30.0 (fun () -> wave [ "a"; "b" ]));
  Sim.run eng;
  let forces = List.rev !forces in
  Alcotest.(check int) "one force per window" 2 (List.length forces);
  List.iter
    (fun (_, flushed, last) ->
      Alcotest.(check int) "force covers every buffered record" last flushed)
    forces;
  (match forces with
  | [ (t1, _, _); (t2, _, _) ] ->
    Alcotest.(check bool) "second window forced strictly later" true (t2 > t1)
  | _ -> ());
  Alcotest.(check (option int)) "both waves applied" (Some 2) (Db.committed_value db "a")

let test_group_commit_durable_before_ack () =
  (* A batched commit may only return once its commit record is on stable
     storage: the force precedes (or coincides with) the ack, and at ack
     time the WAL's durable horizon covers the record. *)
  let eng = Sim.create () in
  let db = Db.create eng (gc_config 5.0 "s") in
  Db.load db [ ("a", 0) ];
  let wal = Db.wal db in
  let force_time = ref neg_infinity in
  Icdb_wal.Log.set_force_hook wal (fun () -> force_time := Sim.now eng);
  let ack = ref None in
  Fiber.spawn eng (fun () ->
      let t = Db.begin_txn db in
      ok (Db.write db t ~key:"a" ~value:7);
      ok (Db.commit db t);
      ack :=
        Some (Sim.now eng, Icdb_wal.Log.flushed_lsn wal, Icdb_wal.Log.last_lsn wal));
  Sim.run eng;
  match !ack with
  | None -> Alcotest.fail "commit never returned"
  | Some (ack_time, flushed, last) ->
    Alcotest.(check bool) "force happened before the ack" true
      (!force_time > neg_infinity && ack_time >= !force_time);
    Alcotest.(check int) "commit record durable at ack time" last flushed

let test_group_commit_kill_during_window_is_noop () =
  let eng = Sim.create () in
  let db = Db.create eng (gc_config 10.0 "s") in
  Db.load db [ ("a", 0) ];
  let handle = ref None in
  let result = ref None in
  Fiber.spawn eng (fun () ->
      let t = Db.begin_txn db in
      handle := Some t;
      ok (Db.write db t ~key:"a" ~value:7);
      result := Some (Db.commit db t));
  (* Killing a transaction whose commit record is already written must not
     corrupt the log with a rollback. *)
  ignore (Sim.schedule eng ~delay:6.0 (fun () -> Db.kill db (Option.get !handle)));
  Sim.run eng;
  (match !result with
  | Some (Ok ()) -> ()
  | _ -> Alcotest.fail "kill during group-commit window must be ignored");
  Alcotest.(check (option int)) "value committed" (Some 7) (Db.committed_value db "a")

(* Property: any transaction that aborts leaves the committed state exactly
   as it was — atomicity of local transactions. *)
let prop_abort_atomicity =
  QCheck2.Test.make ~name:"aborted txn leaves no trace" ~count:60
    QCheck2.Gen.(
      pair int
        (list_size (int_range 1 12)
           (triple (int_range 0 3) (int_range 0 2) (int_range (-10) 10))))
    (fun (seed, steps) ->
      ignore seed;
      let eng = Sim.create () in
      let db = Db.create eng (locking_config "p") in
      let initial = [ ("k0", 10); ("k1", 20); ("k2", 30) ] in
      Db.load db initial;
      let ok' = function Ok v -> v | Error _ -> () in
      Fiber.spawn eng (fun () ->
          let t = Db.begin_txn db in
          List.iter
            (fun (op, ki, v) ->
              let key = Printf.sprintf "k%d" ki in
              match op with
              | 0 -> ignore (Db.read db t key)
              | 1 -> ok' (Db.write db t ~key ~value:v)
              | 2 -> ok' (Db.delete db t key)
              | _ -> (
                match Db.committed_value db key with
                | Some _ -> ok' (Db.increment db t ~key ~delta:v)
                | None -> ()))
            steps;
          Db.abort db t);
      Sim.run eng;
      List.for_all (fun (k, v) -> Db.committed_value db k = Some v) initial
      && List.length (Db.committed_keys db) = 3)

(* Oracle equivalence for the interned OCC fast path: the engine now keeps
   one last-committer serial per key, the seed kept the full committed-write
   history and scanned it. This property replays random interleaved
   transactions against an oracle implementing the *seed* algorithm
   (history list + scan) plus a committed-state model, and demands identical
   commit/abort outcomes, read results and final state. *)
let prop_occ_oracle =
  QCheck2.Test.make ~name:"occ validation matches history-scan oracle" ~count:150
    QCheck2.Gen.(
      list_size (int_range 1 60)
        (tup4 (int_range 0 3) (int_range 0 5) (int_range 0 4) (int_range (-5) 5)))
    (fun ops ->
      let eng = Sim.create () in
      let db = Db.create eng (occ_config "o") in
      let n_slots = 4 and n_keys = 5 in
      let key_of i = Printf.sprintf "k%d" i in
      (* oracle state *)
      let serial = ref 0 in
      let history = ref [] (* (serial, write-set) — newest first *) in
      let state : (string, int) Hashtbl.t = Hashtbl.create 8 in
      let module M = struct
        type kind = Put of int | Del | Add of int

        type slot = {
          mutable txn : Db.txn;
          mutable start : int;
          mutable reads : string list;
          buf : (string, kind) Hashtbl.t;
        }
      end in
      let open M in
      let good = ref true in
      let check what cond = if not cond then (ignore what; good := false) in
      Fiber.spawn eng (fun () ->
          let fresh_slot () =
            { txn = Db.begin_txn db; start = !serial; reads = []; buf = Hashtbl.create 8 }
          in
          let slots = Array.init n_slots (fun _ -> fresh_slot ()) in
          let reopen s =
            s.txn <- Db.begin_txn db;
            s.start <- !serial;
            s.reads <- [];
            Hashtbl.reset s.buf
          in
          let note_read s k = if not (List.mem k s.reads) then s.reads <- k :: s.reads in
          let model_read s k =
            match Hashtbl.find_opt s.buf k with
            | Some (Put v) -> Some v
            | Some Del -> None
            | Some (Add d) -> (
              note_read s k;
              match Hashtbl.find_opt state k with Some v -> Some (v + d) | None -> Some d)
            | None ->
              note_read s k;
              Hashtbl.find_opt state k
          in
          List.iter
            (fun (slot_i, action, key_i, v) ->
              let s = slots.(slot_i) in
              let k = key_of key_i in
              match action with
              | 0 ->
                let got = ok (Db.read db s.txn k) in
                check "read value" (got = model_read s k)
              | 1 ->
                ok (Db.write db s.txn ~key:k ~value:v);
                Hashtbl.replace s.buf k (Put v)
              | 2 ->
                ok (Db.delete db s.txn k);
                Hashtbl.replace s.buf k Del
              | 3 ->
                ok (Db.increment db s.txn ~key:k ~delta:v);
                let entry =
                  match Hashtbl.find_opt s.buf k with
                  | Some (Add d) -> Add (d + v)
                  | Some (Put w) -> Put (w + v)
                  | Some Del -> Put v
                  | None -> Add v
                in
                Hashtbl.replace s.buf k entry
              | 4 ->
                (* seed validation: scan the full history for a committed
                   write newer than our start that hits our read set *)
                let valid =
                  List.for_all
                    (fun (ser, keys) ->
                      ser <= s.start || not (List.exists (fun k -> List.mem k s.reads) keys))
                    !history
                in
                (match Db.commit db s.txn with
                | Ok () ->
                  check "oracle predicted commit" valid;
                  incr serial;
                  history := (!serial, Hashtbl.fold (fun k _ acc -> k :: acc) s.buf []) :: !history;
                  Hashtbl.iter
                    (fun k kind ->
                      match kind with
                      | Put v -> Hashtbl.replace state k v
                      | Del -> Hashtbl.remove state k
                      | Add d ->
                        Hashtbl.replace state k
                          (match Hashtbl.find_opt state k with Some v -> v + d | None -> d))
                    s.buf
                | Error Db.Validation_failed -> check "oracle predicted abort" (not valid)
                | Error r -> Alcotest.failf "unexpected abort: %s" (Db.abort_reason_to_string r));
                reopen s
              | _ ->
                Db.abort db s.txn;
                reopen s)
            ops);
      Sim.run eng;
      (* final committed state must match the model exactly *)
      List.iter
        (fun i ->
          let k = key_of i in
          check "final state" (Db.committed_value db k = Hashtbl.find_opt state k))
        (List.init n_keys Fun.id);
      !good)

(* Regression: communication managers race site crashes; [begin_txn] on a
   down site raises, [begin_txn_opt] reports the outage as an outcome. *)
let test_begin_txn_opt_down_site () =
  let eng = Sim.create () in
  let db = Db.create eng (locking_config "site-a") in
  (match Db.begin_txn_opt db with
  | Some txn -> Db.abort db txn
  | None -> Alcotest.fail "up site must hand out transactions");
  Db.crash db;
  Alcotest.(check bool) "down site yields None" true (Db.begin_txn_opt db = None);
  ignore (Db.restart db);
  match Db.begin_txn_opt db with
  | Some txn -> Db.abort db txn
  | None -> Alcotest.fail "restarted site must hand out transactions"

let () =
  Alcotest.run "localdb"
    [
      ( "basics",
        [
          Alcotest.test_case "write/read/commit" `Quick test_write_read_commit;
          Alcotest.test_case "read missing" `Quick test_read_missing;
          Alcotest.test_case "abort restores everything" `Quick test_abort_restores_everything;
          Alcotest.test_case "delete then reinsert" `Quick test_delete_then_reinsert;
          Alcotest.test_case "accesses recorded" `Quick test_accesses_recorded;
          Alcotest.test_case "finished txn rejects ops" `Quick test_op_on_finished_txn_rejected;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "writer blocks reader" `Quick
            test_writer_blocks_reader_until_commit;
          Alcotest.test_case "no lost update" `Quick test_two_writers_serialize;
          Alcotest.test_case "increment locks concurrent" `Quick
            test_increment_locks_allow_concurrency;
          Alcotest.test_case "logical increment undo" `Quick test_increment_abort_is_logical;
        ] );
      ( "autonomy",
        [
          Alcotest.test_case "deadlock victim" `Quick test_deadlock_one_victim;
          Alcotest.test_case "lock timeout" `Quick test_lock_timeout_aborts;
          Alcotest.test_case "kill running" `Quick test_kill_running_txn;
          Alcotest.test_case "kill blocked" `Quick test_kill_blocked_txn;
        ] );
      ( "occ",
        [
          Alcotest.test_case "basic commit" `Quick test_occ_basic_commit;
          Alcotest.test_case "validation failure" `Quick test_occ_validation_failure;
          Alcotest.test_case "blind writes pass" `Quick test_occ_blind_writes_do_not_conflict;
          Alcotest.test_case "increments commute" `Quick test_occ_increments_commute;
          Alcotest.test_case "abort discards buffer" `Quick test_occ_abort_discards_buffer;
        ] );
      ( "crash",
        [
          Alcotest.test_case "crash semantics" `Quick
            test_crash_preserves_committed_loses_running;
          Alcotest.test_case "crash before any flush" `Quick test_crash_before_any_flush;
          Alcotest.test_case "begin_txn_opt on down site" `Quick
            test_begin_txn_opt_down_site;
          Alcotest.test_case "double crash idempotent" `Quick
            test_double_crash_recovery_idempotent;
        ] );
      ( "prepare",
        [
          Alcotest.test_case "unsupported" `Quick test_prepare_unsupported;
          Alcotest.test_case "prepare/commit" `Quick test_prepare_commit_flow;
          Alcotest.test_case "in-doubt commit after crash" `Quick
            test_prepared_survives_crash_then_commit;
          Alcotest.test_case "in-doubt abort after crash" `Quick
            test_prepared_survives_crash_then_abort;
          Alcotest.test_case "in-doubt blocks" `Quick test_in_doubt_blocks_conflicting_access;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "truncates and recovers" `Quick
            test_checkpoint_truncates_and_recovers;
          Alcotest.test_case "active txn undoable" `Quick
            test_checkpoint_keeps_active_txn_undoable;
          Alcotest.test_case "preserves in-doubt" `Quick test_checkpoint_preserves_in_doubt;
          Alcotest.test_case "periodic" `Quick test_periodic_checkpointing;
        ] );
      ( "group-commit",
        [
          Alcotest.test_case "batches forces" `Quick test_group_commit_batches_forces;
          Alcotest.test_case "crash in window aborts" `Quick
            test_group_commit_crash_in_window_aborts;
          Alcotest.test_case "durable record survives" `Quick
            test_group_commit_durable_record_survives_crash;
          Alcotest.test_case "flush ordering" `Quick test_group_commit_flush_ordering;
          Alcotest.test_case "durable before ack" `Quick
            test_group_commit_durable_before_ack;
          Alcotest.test_case "kill during window" `Quick
            test_group_commit_kill_during_window_is_noop;
        ] );
      ( "misc",
        [
          Alcotest.test_case "metrics" `Quick test_metrics;
          Alcotest.test_case "load and keys" `Quick test_load_and_keys;
          Alcotest.test_case "load placement" `Quick test_load_placement;
          QCheck_alcotest.to_alcotest prop_abort_atomicity;
          QCheck_alcotest.to_alcotest prop_occ_oracle;
        ] );
    ]
