(* Tests for Icdb_wal: log durability semantics and restart recovery. *)

module Disk = Icdb_storage.Disk
module Bp = Icdb_storage.Buffer_pool
module Heap = Icdb_storage.Heap
module Log = Icdb_wal.Log
module Recovery = Icdb_wal.Recovery

(* --- Log --- *)

let test_log_append_get () =
  let log = Log.create () in
  let l1 = Log.append log (Begin 1) in
  let l2 = Log.append log (Commit 1) in
  Alcotest.(check int) "dense lsns" 1 l1;
  Alcotest.(check int) "dense lsns" 2 l2;
  (match Log.get log l1 with
  | Begin 1 -> ()
  | _ -> Alcotest.fail "wrong record");
  Alcotest.check_raises "lsn 0" (Invalid_argument "Log.get: LSN out of range") (fun () ->
      ignore (Log.get log 0))

let test_log_crash_truncates_unflushed () =
  let log = Log.create () in
  ignore (Log.append log (Begin 1));
  Log.flush log;
  ignore (Log.append log (Commit 1));
  Alcotest.(check int) "two appended" 2 (Log.last_lsn log);
  Alcotest.(check int) "one durable" 1 (Log.flushed_lsn log);
  Log.crash log;
  Alcotest.(check int) "tail lost" 1 (Log.last_lsn log);
  let n = ref 0 in
  Log.iter log (fun _ _ -> incr n);
  Alcotest.(check int) "iter sees only durable" 1 !n

let test_log_flush_to () =
  let log = Log.create () in
  ignore (Log.append log (Begin 1));
  ignore (Log.append log (Begin 2));
  ignore (Log.append log (Begin 3));
  Log.flush_to log 2;
  Alcotest.(check int) "partial durability" 2 (Log.flushed_lsn log);
  Log.flush_to log 1;
  Alcotest.(check int) "no regress" 2 (Log.flushed_lsn log);
  Alcotest.(check int) "force counted once" 1 (Log.force_count log)

let test_log_grows () =
  let log = Log.create () in
  for i = 1 to 1000 do
    ignore (Log.append log (Begin i))
  done;
  Alcotest.(check int) "1000 records" 1000 (Log.record_count log)

(* The longest key that fits one chunk is encoded like any other; one
   byte more is refused before anything is appended. *)
let test_log_key_limit () =
  let log = Log.create () in
  let op n = Log.Op { txn = 1; op = Insert { rid = { page = 2; slot = 7 }; key = String.make n 'k'; value = -1 }; prev = 0 } in
  ignore (Log.append log (Begin 1));
  let l = Log.append log (op 1983) in
  Alcotest.(check bool) "1983-byte key round-trips" true (Log.get log l = op 1983);
  Alcotest.check_raises "1984-byte key" (Invalid_argument "Log.append: key too long") (fun () ->
      ignore (Log.append log (op 1984)));
  Alcotest.(check int) "nothing appended" l (Log.last_lsn log);
  Alcotest.(check int) "both retained" 2 (Log.retained_count log)

(* --- truncation --- *)

let test_log_truncate_prefix () =
  let log = Log.create () in
  for i = 1 to 10 do
    ignore (Log.append log (Begin i))
  done;
  Log.flush log;
  Log.truncate_prefix log ~keep_from:6;
  Alcotest.(check int) "first retained" 6 (Log.first_lsn log);
  Alcotest.(check int) "last unchanged" 10 (Log.last_lsn log);
  Alcotest.(check int) "retained" 5 (Log.retained_count log);
  Alcotest.(check int) "record_count keeps history" 10 (Log.record_count log);
  (match Log.get log 6 with
  | Begin 6 -> ()
  | _ -> Alcotest.fail "wrong record at 6");
  Alcotest.check_raises "purged lsn" (Invalid_argument "Log.get: LSN out of range")
    (fun () -> ignore (Log.get log 5));
  (* LSNs keep flowing after truncation. *)
  Alcotest.(check int) "append continues" 11 (Log.append log (Begin 11));
  let seen = ref [] in
  Log.iter log (fun lsn _ -> seen := lsn :: !seen);
  Alcotest.(check (list int)) "iter over retained" [ 6; 7; 8; 9; 10; 11 ] (List.rev !seen)

let test_log_truncate_clamps () =
  let log = Log.create () in
  ignore (Log.append log (Begin 1));
  Log.flush log;
  Log.truncate_prefix log ~keep_from:100;
  Alcotest.(check int) "clamped to end" 2 (Log.first_lsn log);
  Alcotest.(check int) "nothing retained" 0 (Log.retained_count log);
  ignore (Log.append log (Begin 2));
  Alcotest.(check int) "append after full truncation" 2 (Log.last_lsn log);
  Log.truncate_prefix log ~keep_from:1;
  Alcotest.(check int) "cannot un-truncate" 2 (Log.first_lsn log)

let test_log_crash_after_truncate () =
  let log = Log.create () in
  for i = 1 to 5 do
    ignore (Log.append log (Begin i))
  done;
  Log.flush log;
  Log.truncate_prefix log ~keep_from:3;
  ignore (Log.append log (Begin 6));
  Log.crash log;
  Alcotest.(check int) "unflushed tail lost" 5 (Log.last_lsn log);
  Alcotest.(check int) "retained prefix intact" 3 (Log.retained_count log)

(* --- encoded log = boxed reference log --------------------------------- *)

(* The boxed log the byte encoding replaced: one record value per LSN in a
   growable array. *)
module Boxed = struct
  type t = {
    mutable records : Log.record array;
    mutable base : int;
    mutable len : int;
    mutable flushed : Log.lsn;
    mutable forces : int;
  }

  let dummy = Log.Begin (-1)
  let create () = { records = Array.make 64 dummy; base = 0; len = 0; flushed = 0; forces = 0 }
  let last_lsn t = t.base + t.len

  let append t r =
    if t.len = Array.length t.records then begin
      let bigger = Array.make (2 * max 1 t.len) dummy in
      Array.blit t.records 0 bigger 0 t.len;
      t.records <- bigger
    end;
    t.records.(t.len) <- r;
    t.len <- t.len + 1;
    last_lsn t

  let flush t =
    if t.flushed < last_lsn t then begin
      t.flushed <- last_lsn t;
      t.forces <- t.forces + 1
    end

  let flush_to t lsn =
    if lsn > t.flushed then begin
      t.flushed <- min lsn (last_lsn t);
      t.forces <- t.forces + 1
    end

  let get t lsn =
    if lsn <= t.base || lsn > last_lsn t then invalid_arg "Log.get: LSN out of range";
    t.records.(lsn - t.base - 1)

  let crash t = t.len <- max 0 (t.flushed - t.base)
  let first_lsn t = t.base + 1

  let truncate_prefix t ~keep_from =
    let keep_from = max keep_from (first_lsn t) in
    let keep_from = min keep_from (last_lsn t + 1) in
    let drop = keep_from - t.base - 1 in
    if drop > 0 then begin
      let remaining = t.len - drop in
      let fresh = Array.make (max 64 remaining) dummy in
      Array.blit t.records drop fresh 0 remaining;
      t.records <- fresh;
      t.base <- t.base + drop;
      t.len <- remaining;
      if t.flushed < t.base then t.flushed <- t.base
    end

  let iter t f =
    for i = 0 to t.len - 1 do
      f (t.base + i + 1) t.records.(i)
    done
end

type log_step =
  | Append of Log.record list
  | Append_insert of { txn : int; prev : int; rid : Heap.rid; key : string; value : int }
  | Flush
  | Flush_to of int  (* offset from the durable LSN *)
  | Crash
  | Truncate of int  (* offset from the first retained LSN; [max_int]: everything *)

let extreme_int =
  QCheck2.Gen.(
    frequency
      [
        (4, int_range (-3) 300);
        (2, oneofl [ min_int; max_int; min_int + 1; max_int - 1; -1; 0; 1 lsl 62 - 1 ]);
        (2, int);
        (1, map (fun n -> 1 lsl n) (int_range 0 61));
      ])

let log_key =
  QCheck2.Gen.(
    map2
      (fun len c -> String.make len c)
      (frequency
         [
           (3, pure 1);
           (2, pure 255);
           (3, int_range 2 20);
           (1, pure 300);
           (* long enough that a record often ends its chunk early *)
           (1, int_range 1000 1983);
         ])
      (char_range 'a' 'z'))

let log_rid = QCheck2.Gen.(map2 (fun page slot : Heap.rid -> { page; slot }) extreme_int extreme_int)

let log_op =
  QCheck2.Gen.(
    let* rid = log_rid and* key = log_key and* x = extreme_int and* y = extreme_int in
    oneofl
      [
        Log.Insert { rid; key; value = x };
        Log.Delete { rid; key; value = x };
        Log.Update { rid; key; before = x; after = y };
        Log.Incr { rid; key; delta = x };
      ])

let log_record =
  QCheck2.Gen.(
    let* txn = extreme_int and* link = extreme_int in
    frequency
      [
        (1, pure (Log.Begin txn));
        (1, pure (Log.Commit txn));
        (1, pure (Log.Abort txn));
        (1, pure (Log.Prepare { txn; last = link }));
        (4, map (fun op -> Log.Op { txn; op; prev = link }) log_op);
        (2, map (fun op -> Log.Clr { txn; op; next_undo = link }) log_op);
        ( 1,
          map2
            (fun active dirty -> Log.Checkpoint { active; dirty })
            (list_size (int_range 0 4) (pair extreme_int extreme_int))
            (list_size (int_range 0 4) extreme_int) );
      ])

(* Records do not shrink (a failing case shrinks by dropping steps): a
   shrinker over hundreds of records with extreme ints takes minutes. *)
let log_step =
  QCheck2.Gen.(
    frequency
      [
        (5, map (fun rs -> Append rs) (no_shrink (list_size (int_range 1 150) log_record)));
        ( 2,
          no_shrink
            (let* txn = extreme_int and* prev = extreme_int and* rid = log_rid and* key = log_key
             and* value = extreme_int in
             pure (Append_insert { txn; prev; rid; key; value })) );
        (1, pure Flush);
        (2, map (fun k -> Flush_to k) (int_range (-5) 200));
        (2, pure Crash);
        (2, map (fun k -> Truncate k) (frequency [ (4, int_range (-2) 200); (1, pure max_int) ]));
      ])

let pp_log_step = function
  | Append rs -> Printf.sprintf "append %d" (List.length rs)
  | Append_insert { txn; prev; key; value; _ } ->
    Printf.sprintf "append_insert t%d prev=%d %d-byte key=%d" txn prev (String.length key) value
  | Flush -> "flush"
  | Flush_to k -> Printf.sprintf "flush_to durable%+d" k
  | Crash -> "crash"
  | Truncate k -> if k = max_int then "truncate all" else Printf.sprintf "truncate first%+d" k

let get_result f lsn = match f lsn with r -> Ok r | exception Invalid_argument m -> Error m

(* After every step: every retained record, the iteration, the LSN
   bounds, the counters and the out-of-range refusals agree. *)
let logs_agree log boxed =
  let first = Boxed.first_lsn boxed and last = Boxed.last_lsn boxed in
  let listing iter t =
    let acc = ref [] in
    iter t (fun lsn r -> acc := (lsn, r) :: !acc);
    List.rev !acc
  in
  Log.first_lsn log = first
  && Log.last_lsn log = last
  && Log.flushed_lsn log = boxed.flushed
  && Log.retained_count log = boxed.len
  && Log.record_count log = last
  && Log.force_count log = boxed.forces
  && List.for_all
       (fun lsn -> get_result (Log.get log) lsn = get_result (Boxed.get boxed) lsn)
       (0 :: (first - 1) :: (last + 1) :: List.init (last - first + 1) (fun i -> first + i))
  && listing Log.iter log = listing Boxed.iter boxed

let apply_step log boxed = function
  | Append rs ->
    List.iter
      (fun r ->
        let l = Log.append log r in
        if l <> Boxed.append boxed r then failwith "append returned another LSN")
      rs
  | Append_insert { txn; prev; rid; key; value } ->
    let l = Log.append_insert log ~txn ~prev ~rid ~key ~value in
    if l <> Boxed.append boxed (Op { txn; op = Insert { rid; key; value }; prev }) then
      failwith "append_insert returned another LSN"
  | Flush ->
    Log.flush log;
    Boxed.flush boxed
  | Flush_to k ->
    Log.flush_to log (boxed.flushed + k);
    Boxed.flush_to boxed (boxed.flushed + k)
  | Crash ->
    Log.crash log;
    Boxed.crash boxed
  | Truncate k ->
    let keep_from =
      if k = max_int then Boxed.last_lsn boxed + 1 else Boxed.first_lsn boxed + k
    in
    Log.truncate_prefix log ~keep_from;
    Boxed.truncate_prefix boxed ~keep_from

(* Every case opens with at least 48 records, three strides of the log's
   location table (an entry every 16th record), so gets, crashes and
   truncations land inside strides as well as on their first slot. *)
let prop_log_matches_boxed =
  QCheck2.Test.make ~name:"encoded log = boxed reference log" ~count:150
    ~print:QCheck2.Print.(list pp_log_step)
    QCheck2.Gen.(
      let* first = no_shrink (list_size (int_range 48 150) log_record) in
      let* steps = list_size (int_range 1 30) log_step in
      pure (Append first :: steps))
    (fun steps ->
      let log = Log.create () and boxed = Boxed.create () in
      List.for_all
        (fun step ->
          apply_step log boxed step;
          logs_agree log boxed)
        steps)

(* Each record kind in the first and the last slot of a stride (retained
   records 16 and 31, 32 and 47), between fillers of every kind whose keys
   of up to 1,983 bytes end chunks early. For every cut point the log must
   agree with the boxed one after a crash there and after a truncation
   there, and again once more records are appended over the dead tail. *)
let test_log_strides_every_kind () =
  let rid i : Heap.rid = { page = i * 37; slot = -i } in
  let big i = ((i * 7919) lsl (i mod 50)) - i in
  let key i = String.make (List.nth [ 1; 11; 255; 700; 1500; 1983 ] (i mod 6)) 'k' in
  let kinds =
    let op i kind =
      match kind with
      | 0 -> Log.Insert { rid = rid i; key = key i; value = big i }
      | 1 -> Log.Delete { rid = rid i; key = key i; value = -big i }
      | 2 -> Log.Update { rid = rid i; key = key i; before = big i; after = -big (i + 3) }
      | _ -> Log.Incr { rid = rid i; key = key i; delta = big i }
    in
    [
      (fun i -> Append [ Begin (big i) ]);
      (fun i -> Append [ Commit (big i) ]);
      (fun i -> Append [ Abort (big i) ]);
      (fun i -> Append [ Prepare { txn = big i; last = i - 3 } ]);
      (fun i -> Append [ Checkpoint { active = [ (i, i - 1) ]; dirty = [ i ] } ]);
      (fun i -> Append_insert { txn = i; prev = i - 1; rid = rid i; key = key i; value = big i });
    ]
    @ List.concat_map
        (fun kind ->
          [
            (fun i -> Append [ Op { txn = big i; op = op i kind; prev = i - 1 } ]);
            (fun i -> Append [ Clr { txn = i; op = op i kind; next_undo = i - 5 } ]);
          ])
        [ 0; 1; 2; 3 ]
  in
  let n = 64 in
  let build kind =
    let log = Log.create () and boxed = Boxed.create () in
    for i = 0 to n - 1 do
      let slot = i land 15 in
      let step =
        if i >= 16 && (slot = 0 || slot = 15) then kind i
        else List.nth kinds ((i * 5) mod List.length kinds) i
      in
      apply_step log boxed step
    done;
    (log, boxed)
  in
  let more = List.init 20 (fun i -> List.nth kinds (i mod List.length kinds) (n + i)) in
  List.iteri
    (fun k kind ->
      let log, boxed = build kind in
      Alcotest.(check bool) (Printf.sprintf "kind %d: built" k) true (logs_agree log boxed);
      for cut = 0 to n do
        List.iter
          (fun (what, cut_at) ->
            let log, boxed = build kind in
            cut_at log boxed;
            let ok = logs_agree log boxed in
            List.iter (apply_step log boxed) more;
            Alcotest.(check bool)
              (Printf.sprintf "kind %d: %s at %d" k what cut)
              true
              (ok && logs_agree log boxed))
          [
            ( "crash",
              fun log boxed ->
                apply_step log boxed (Flush_to cut);
                apply_step log boxed Crash );
            ("truncate", fun log boxed -> apply_step log boxed (Truncate cut));
          ]
      done)
    kinds

(* --- inverse --- *)

let rid : Heap.rid = { page = 0; slot = 0 }

let test_inverse_involutive () =
  let ops =
    [
      Log.Insert { rid; key = "k"; value = 5 };
      Log.Delete { rid; key = "k"; value = 5 };
      Log.Update { rid; key = "k"; before = 1; after = 2 };
      Log.Incr { rid; key = "k"; delta = 7 };
    ]
  in
  List.iter
    (fun op ->
      Alcotest.(check bool) "inverse . inverse = id" true
        (Recovery.inverse (Recovery.inverse op) = op))
    ops

let test_inverse_incr_negates () =
  match Recovery.inverse (Log.Incr { rid; key = "k"; delta = 7 }) with
  | Log.Incr { delta = -7; _ } -> ()
  | _ -> Alcotest.fail "incr inverse should negate delta"

(* --- recovery scenarios ---------------------------------------------------

   Each scenario builds a small database, simulates a crash by dropping the
   buffer pool and truncating the unflushed log, then runs restart and checks
   the surviving state. *)

type db = {
  disk : Disk.t;
  mutable pool : Bp.t;
  mutable heap : Heap.t;
  log : Log.t;
}

let make_db () =
  let disk = Disk.create () in
  let pool = Bp.create ~capacity:8 disk in
  let heap = Heap.create disk pool in
  let log = Log.create () in
  Bp.set_wal_hook pool (fun ~lsn -> Log.flush_to log (Int64.to_int lsn));
  { disk; pool; heap; log }

let crash_and_restart db =
  Log.crash db.log;
  Bp.drop_all db.pool;
  db.pool <- Bp.create ~capacity:8 db.disk;
  Bp.set_wal_hook db.pool (fun ~lsn -> Log.flush_to db.log (Int64.to_int lsn));
  db.heap <- Heap.recover db.disk db.pool;
  Recovery.restart db.log db.pool

(* Run one insert as txn [id], returning the rid. *)
let logged_insert db ~txn ~prev ~key ~value =
  let lsn = Log.last_lsn db.log + 1 in
  let rid = Heap.insert db.heap ~lsn:(Int64.of_int lsn) ~key ~value in
  let lsn' = Log.append db.log (Op { txn; op = Insert { rid; key; value }; prev }) in
  assert (lsn = lsn');
  (rid, lsn)

let logged_update db ~txn ~prev rid ~key ~before ~after =
  let lsn = Log.append db.log (Op { txn; op = Update { rid; key; before; after }; prev }) in
  Recovery.apply_op db.pool ~lsn (Update { rid; key; before; after });
  lsn

let value_of db rid = Option.map snd (Heap.read db.heap rid)

let test_committed_txn_survives_crash () =
  let db = make_db () in
  ignore (Log.append db.log (Begin 1));
  let rid, l1 = logged_insert db ~txn:1 ~prev:0 ~key:"a" ~value:10 in
  ignore (logged_update db ~txn:1 ~prev:l1 rid ~key:"a" ~before:10 ~after:20);
  ignore (Log.append db.log (Commit 1));
  Log.flush db.log;
  (* Pages were never flushed: redo must reconstruct them. *)
  let outcome = crash_and_restart db in
  Alcotest.(check (list int)) "committed" [ 1 ] outcome.committed;
  Alcotest.(check (list int)) "no losers" [] outcome.rolled_back;
  Alcotest.(check bool) "redo happened" true (outcome.redo_count > 0);
  Alcotest.(check (option int)) "value restored" (Some 20) (value_of db rid)

let test_uncommitted_txn_rolled_back () =
  let db = make_db () in
  ignore (Log.append db.log (Begin 1));
  let rid, _ = logged_insert db ~txn:1 ~prev:0 ~key:"a" ~value:10 in
  (* The dirty page reaches disk (steal!) but the txn never commits. *)
  Bp.flush_all db.pool;
  let outcome = crash_and_restart db in
  Alcotest.(check (list int)) "loser rolled back" [ 1 ] outcome.rolled_back;
  Alcotest.(check bool) "undo happened" true (outcome.undo_count > 0);
  Alcotest.(check (option int)) "insert undone" None (value_of db rid)

let test_unflushed_uncommitted_txn_vanishes () =
  let db = make_db () in
  ignore (Log.append db.log (Begin 1));
  Log.flush db.log;
  let rid, _ = logged_insert db ~txn:1 ~prev:0 ~key:"a" ~value:10 in
  (* Neither the op record nor the page reached stable storage. *)
  let outcome = crash_and_restart db in
  Alcotest.(check (list int)) "loser (begin only)" [ 1 ] outcome.rolled_back;
  Alcotest.(check int) "nothing to undo" 0 outcome.undo_count;
  Alcotest.(check (option int)) "no trace" None (value_of db rid)

let test_update_undo_restores_before_image () =
  let db = make_db () in
  (* Committed base value. *)
  ignore (Log.append db.log (Begin 1));
  let rid, _ = logged_insert db ~txn:1 ~prev:0 ~key:"a" ~value:100 in
  ignore (Log.append db.log (Commit 1));
  Log.flush db.log;
  (* Loser updates it. *)
  ignore (Log.append db.log (Begin 2));
  ignore (logged_update db ~txn:2 ~prev:0 rid ~key:"a" ~before:100 ~after:999);
  Bp.flush_all db.pool;
  let outcome = crash_and_restart db in
  Alcotest.(check (list int)) "loser" [ 2 ] outcome.rolled_back;
  Alcotest.(check (option int)) "before image restored" (Some 100) (value_of db rid)

let test_logical_incr_undo_preserves_concurrent_increment () =
  (* The Figure-8 recovery anomaly: T1 and T2 both increment x; T1 is a
     loser. Undoing T1 must not wipe out T2's committed increment. *)
  let db = make_db () in
  ignore (Log.append db.log (Begin 1));
  let rid, _ = logged_insert db ~txn:1 ~prev:0 ~key:"x" ~value:0 in
  ignore (Log.append db.log (Commit 1));
  (* T2 (loser) increments by 5; T3 (committed) increments by 3. *)
  ignore (Log.append db.log (Begin 2));
  let l2 = Log.append db.log (Op { txn = 2; op = Incr { rid; key = "x"; delta = 5 }; prev = 0 }) in
  Recovery.apply_op db.pool ~lsn:l2 (Incr { rid; key = "x"; delta = 5 });
  ignore (Log.append db.log (Begin 3));
  let l3 = Log.append db.log (Op { txn = 3; op = Incr { rid; key = "x"; delta = 3 }; prev = 0 }) in
  Recovery.apply_op db.pool ~lsn:l3 (Incr { rid; key = "x"; delta = 3 });
  ignore (Log.append db.log (Commit 3));
  Log.flush db.log;
  Bp.flush_all db.pool;
  let outcome = crash_and_restart db in
  Alcotest.(check (list int)) "T2 rolled back" [ 2 ] outcome.rolled_back;
  Alcotest.(check (option int)) "T3's increment preserved" (Some 3) (value_of db rid)

let test_prepared_txn_left_in_doubt () =
  let db = make_db () in
  ignore (Log.append db.log (Begin 1));
  let rid, l1 = logged_insert db ~txn:1 ~prev:0 ~key:"a" ~value:7 in
  ignore (Log.append db.log (Prepare { txn = 1; last = l1 }));
  Log.flush db.log;
  let outcome = crash_and_restart db in
  Alcotest.(check (list (pair int int))) "in doubt with last lsn" [ (1, l1) ] outcome.in_doubt;
  Alcotest.(check (list int)) "not rolled back" [] outcome.rolled_back;
  Alcotest.(check (option int)) "writes redone and kept" (Some 7) (value_of db rid);
  (* Global decision arrives: abort. *)
  ignore (Recovery.undo_chain db.log db.pool ~txn:1 ~from:l1);
  Alcotest.(check (option int)) "undone after decision" None (value_of db rid)

let test_recovery_idempotent () =
  let db = make_db () in
  ignore (Log.append db.log (Begin 1));
  let rid, _ = logged_insert db ~txn:1 ~prev:0 ~key:"a" ~value:10 in
  Bp.flush_all db.pool;
  let o1 = crash_and_restart db in
  Alcotest.(check (list int)) "first restart undoes" [ 1 ] o1.rolled_back;
  (* Crash again immediately: the CLRs are replayed, nothing is undone twice. *)
  let o2 = crash_and_restart db in
  Alcotest.(check (list int)) "second restart finds no losers" [] o2.rolled_back;
  Alcotest.(check int) "no double undo" 0 o2.undo_count;
  Alcotest.(check (option int)) "still absent" None (value_of db rid)

let test_crash_during_undo_resumes () =
  let db = make_db () in
  ignore (Log.append db.log (Begin 1));
  let rid_a, l1 = logged_insert db ~txn:1 ~prev:0 ~key:"a" ~value:1 in
  let rid_b, _l2 = logged_insert db ~txn:1 ~prev:l1 ~key:"b" ~value:2 in
  Bp.flush_all db.pool;
  (* Simulate a partial rollback: one CLR written and applied, then crash. *)
  let comp = Recovery.inverse (Log.Delete { rid = rid_b; key = "b"; value = 2 }) in
  ignore comp;
  let clr_lsn = Log.append db.log (Clr { txn = 1; op = Delete { rid = rid_b; key = "b"; value = 2 }; next_undo = l1 }) in
  Recovery.apply_op db.pool ~lsn:clr_lsn (Delete { rid = rid_b; key = "b"; value = 2 });
  Log.flush db.log;
  Bp.flush_all db.pool;
  let outcome = crash_and_restart db in
  Alcotest.(check (list int)) "rollback resumed" [ 1 ] outcome.rolled_back;
  Alcotest.(check int) "only the remaining op undone" 1 outcome.undo_count;
  Alcotest.(check (option int)) "a undone" None (value_of db rid_a);
  Alcotest.(check (option int)) "b stays undone" None (value_of db rid_b)

let test_wal_rule_protects_steal () =
  (* A dirty page evicted before commit must force the log first, otherwise
     the on-disk page would contain changes recovery cannot undo. *)
  let db = make_db () in
  ignore (Log.append db.log (Begin 1));
  let rid, _ = logged_insert db ~txn:1 ~prev:0 ~key:"a" ~value:10 in
  (* Eviction via explicit flush (same code path as replacement). *)
  Bp.flush_all db.pool;
  Alcotest.(check bool) "log forced up to page lsn" true (Log.flushed_lsn db.log >= 2);
  let outcome = crash_and_restart db in
  Alcotest.(check (list int)) "undoable" [ 1 ] outcome.rolled_back;
  Alcotest.(check (option int)) "clean state" None (value_of db rid)

let () =
  Alcotest.run "wal"
    [
      ( "log",
        [
          Alcotest.test_case "append/get" `Quick test_log_append_get;
          Alcotest.test_case "crash truncates" `Quick test_log_crash_truncates_unflushed;
          Alcotest.test_case "flush_to" `Quick test_log_flush_to;
          Alcotest.test_case "grows" `Quick test_log_grows;
          Alcotest.test_case "key limit" `Quick test_log_key_limit;
        ] );
      ( "truncation",
        [
          Alcotest.test_case "truncate_prefix" `Quick test_log_truncate_prefix;
          Alcotest.test_case "clamping" `Quick test_log_truncate_clamps;
          Alcotest.test_case "crash after truncate" `Quick test_log_crash_after_truncate;
        ] );
      ( "encoding",
        [
          QCheck_alcotest.to_alcotest prop_log_matches_boxed;
          Alcotest.test_case "every kind at a stride's ends" `Quick
            test_log_strides_every_kind;
        ] );
      ( "inverse",
        [
          Alcotest.test_case "involutive" `Quick test_inverse_involutive;
          Alcotest.test_case "incr negates" `Quick test_inverse_incr_negates;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "committed survives" `Quick test_committed_txn_survives_crash;
          Alcotest.test_case "uncommitted rolled back" `Quick test_uncommitted_txn_rolled_back;
          Alcotest.test_case "unflushed vanishes" `Quick test_unflushed_uncommitted_txn_vanishes;
          Alcotest.test_case "update before-image" `Quick test_update_undo_restores_before_image;
          Alcotest.test_case "logical incr undo" `Quick
            test_logical_incr_undo_preserves_concurrent_increment;
          Alcotest.test_case "prepared in doubt" `Quick test_prepared_txn_left_in_doubt;
          Alcotest.test_case "idempotent restart" `Quick test_recovery_idempotent;
          Alcotest.test_case "crash during undo" `Quick test_crash_during_undo_resumes;
          Alcotest.test_case "wal rule on steal" `Quick test_wal_rule_protects_steal;
        ] );
    ]
