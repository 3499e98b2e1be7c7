(* Tests for Icdb_mlt: commutativity-based conflict relations and L1 action
   specifications, plus Program (local transaction scripts). *)

module Conflict = Icdb_mlt.Conflict
module Action = Icdb_mlt.Action
module Program = Icdb_localdb.Program
module Db = Icdb_localdb.Engine
module Sim = Icdb_sim.Engine
module Fiber = Icdb_sim.Fiber

(* --- Conflict --- *)

let test_conflict_rwi () =
  let c = Conflict.read_write_increment in
  Alcotest.(check bool) "read/read commute" true (Conflict.commute c "read" "read");
  Alcotest.(check bool) "incr/incr commute" true (Conflict.commute c "increment" "increment");
  Alcotest.(check bool) "read/incr conflict" false (Conflict.commute c "read" "increment");
  Alcotest.(check bool) "write conflicts with write" false (Conflict.commute c "write" "write");
  Alcotest.(check bool) "write conflicts with read" false (Conflict.commute c "write" "read");
  Alcotest.(check bool) "unknown conflicts" false (Conflict.commute c "mystery" "mystery")

let test_conflict_banking () =
  let c = Conflict.banking in
  Alcotest.(check bool) "deposit/withdraw commute" true
    (Conflict.commute c "deposit" "withdraw");
  Alcotest.(check bool) "deposit/deposit commute" true (Conflict.commute c "deposit" "deposit");
  Alcotest.(check bool) "read-balance/deposit conflict" false
    (Conflict.commute c "read-balance" "deposit");
  Alcotest.(check bool) "read-balance/read-balance commute" true
    (Conflict.commute c "read-balance" "read-balance")

let test_conflict_symmetry () =
  let c = Conflict.of_commuting_pairs [ ("a", "b") ] in
  Alcotest.(check bool) "listed direction" true (Conflict.commute c "a" "b");
  Alcotest.(check bool) "symmetric closure" true (Conflict.commute c "b" "a");
  Alcotest.(check bool) "self not implied" false (Conflict.commute c "a" "a")

let test_conflict_combined_classes () =
  let c = Conflict.banking in
  let combined = Conflict.combine c "deposit" "withdraw" in
  (* The combined class behaves like the union: still commutes with
     deposits, still conflicts with read-balance. *)
  Alcotest.(check bool) "combined commutes with deposit" true
    (Conflict.compatible c combined "deposit");
  Alcotest.(check bool) "combined conflicts with read-balance" false
    (Conflict.compatible c combined "read-balance");
  Alcotest.(check string) "same class collapses" "deposit"
    (Conflict.combine c "deposit" "deposit")

(* --- Action --- *)

let test_action_l1_object () =
  let a = Action.deposit ~site:"s1" ~account:"acct-1" 50 in
  Alcotest.(check string) "namespaced by site" "s1/acct-1" (Action.l1_object a);
  let b = Action.deposit ~site:"s2" ~account:"acct-1" 50 in
  Alcotest.(check bool) "same account, other site, different object" true
    (Action.l1_object a <> Action.l1_object b)

let test_action_inverses () =
  let check_inverse (a : Action.t) expected =
    Alcotest.(check bool)
      (Printf.sprintf "inverse of %s" a.name)
      true (a.inverse = expected)
  in
  check_inverse (Action.deposit ~site:"s" ~account:"x" 50) [ Program.Increment ("x", -50) ];
  check_inverse (Action.withdraw ~site:"s" ~account:"x" 50) [ Program.Increment ("x", 50) ];
  check_inverse (Action.increment ~site:"s" ~key:"x" 7) [ Program.Increment ("x", -7) ];
  check_inverse (Action.read_balance ~site:"s" ~account:"x") [];
  check_inverse
    (Action.write ~site:"s" ~key:"x" ~before:(Some 3) ~after:9)
    [ Program.Write ("x", 3) ];
  check_inverse (Action.write ~site:"s" ~key:"x" ~before:None ~after:9) [ Program.Delete "x" ]

let test_action_program_undo_roundtrip () =
  (* Executing an action's program then its inverse restores the state. *)
  let eng = Sim.create () in
  let db = Db.create eng (Db.default_config ~site_name:"s") in
  Db.load db [ ("x", 100) ];
  let a = Action.withdraw ~site:"s" ~account:"x" 30 in
  Fiber.spawn eng (fun () ->
      let t1 = Db.begin_txn db in
      (match Program.run db t1 a.program with Ok () -> () | Error _ -> Alcotest.fail "run");
      (match Db.commit db t1 with Ok () -> () | Error _ -> Alcotest.fail "commit");
      Alcotest.(check (option int)) "withdrawn" (Some 70) (Db.committed_value db "x");
      let t2 = Db.begin_txn db in
      (match Program.run db t2 a.inverse with Ok () -> () | Error _ -> Alcotest.fail "undo");
      match Db.commit db t2 with Ok () -> () | Error _ -> Alcotest.fail "commit undo");
  Sim.run eng;
  Alcotest.(check (option int)) "restored" (Some 100) (Db.committed_value db "x")

(* --- Program --- *)

let test_program_keys_and_intents () =
  let p =
    [
      Program.Read "a";
      Program.Write ("b", 1);
      Program.Increment ("a", 2);
      Program.Read "b";
      Program.Delete "c";
    ]
  in
  Alcotest.(check (list string)) "keys" [ "a"; "b"; "c" ] (Program.keys p);
  let intents = Program.intents p in
  Alcotest.(check bool) "a strongest incr" true (List.assoc "a" intents = `Increment);
  Alcotest.(check bool) "b strongest write" true (List.assoc "b" intents = `Write);
  Alcotest.(check bool) "c write" true (List.assoc "c" intents = `Write)

let test_program_is_read_only () =
  Alcotest.(check bool) "reads only" true (Program.is_read_only [ Read "a"; Read "b" ]);
  Alcotest.(check bool) "with write" false
    (Program.is_read_only [ Read "a"; Write ("b", 1) ])

let test_program_inverse_of_accesses () =
  let accesses =
    [
      Db.Read { key = "r"; value = Some 1 };
      Db.Wrote { key = "ins"; before = None; after = Some 5 };
      Db.Wrote { key = "upd"; before = Some 2; after = Some 9 };
      Db.Wrote { key = "del"; before = Some 7; after = None };
      Db.Incremented { key = "ctr"; delta = 4 };
    ]
  in
  let inverse = Program.inverse_of_accesses accesses in
  (* Inverse is in reverse order of the accesses. *)
  Alcotest.(check bool) "inverse program" true
    (inverse
    = [
        Program.Increment ("ctr", -4);
        Program.Write ("del", 7);
        Program.Write ("upd", 2);
        Program.Delete "ins";
      ])

let test_program_inverse_executes () =
  (* The derived inverse program actually restores the database. *)
  let eng = Sim.create () in
  let db = Db.create eng (Db.default_config ~site_name:"s") in
  Db.load db [ ("upd", 2); ("del", 7); ("ctr", 10) ];
  let forward =
    [
      Program.Write ("ins", 5);
      Program.Write ("upd", 9);
      Program.Delete "del";
      Program.Increment ("ctr", 4);
    ]
  in
  Fiber.spawn eng (fun () ->
      let t = Db.begin_txn db in
      (match Program.run db t forward with Ok () -> () | Error _ -> Alcotest.fail "fwd");
      let inverse = Program.inverse_of_accesses (Db.accesses t) in
      (match Db.commit db t with Ok () -> () | Error _ -> Alcotest.fail "commit");
      let t2 = Db.begin_txn db in
      (match Program.run db t2 inverse with Ok () -> () | Error _ -> Alcotest.fail "inv");
      match Db.commit db t2 with Ok () -> () | Error _ -> Alcotest.fail "commit2");
  Sim.run eng;
  Alcotest.(check (option int)) "ins gone" None (Db.committed_value db "ins");
  Alcotest.(check (option int)) "upd restored" (Some 2) (Db.committed_value db "upd");
  Alcotest.(check (option int)) "del restored" (Some 7) (Db.committed_value db "del");
  Alcotest.(check (option int)) "ctr restored" (Some 10) (Db.committed_value db "ctr")

let prop_inverse_restores =
  QCheck2.Test.make ~name:"derived inverse restores committed state" ~count:80
    QCheck2.Gen.(
      list_size (int_range 1 10)
        (triple (int_range 0 3) (int_range 0 3) (int_range (-20) 20)))
    (fun steps ->
      let eng = Sim.create () in
      let db = Db.create eng (Db.default_config ~site_name:"p") in
      let initial = [ ("k0", 5); ("k1", 10); ("k2", 15); ("k3", 20) ] in
      Db.load db initial;
      (* Incrementing a key deleted earlier in the same program would abort
         (increment requires an existing key), so those become reads. *)
      let deleted = Hashtbl.create 4 in
      let forward =
        List.map
          (fun (op, ki, v) ->
            let key = Printf.sprintf "k%d" ki in
            match op with
            | 0 ->
              Hashtbl.remove deleted key;
              Program.Write (key, v)
            | 1 ->
              if Hashtbl.mem deleted key then Program.Read key
              else Program.Increment (key, v)
            | 2 ->
              Hashtbl.replace deleted key ();
              Program.Delete key
            | _ -> Program.Read key)
          steps
      in
      let result = ref true in
      Fiber.spawn eng (fun () ->
          let t = Db.begin_txn db in
          match Program.run db t forward with
          | Error _ -> Db.abort db t
          | Ok () -> (
            let inverse = Program.inverse_of_accesses (Db.accesses t) in
            match Db.commit db t with
            | Error _ -> result := false
            | Ok () -> (
              let t2 = Db.begin_txn db in
              match Program.run db t2 inverse with
              | Error _ -> result := false
              | Ok () -> (
                match Db.commit db t2 with Error _ -> result := false | Ok () -> ()))));
      Sim.run eng;
      !result
      && List.for_all (fun (k, v) -> Db.committed_value db k = Some v) initial
      && List.length (Db.committed_keys db) = List.length initial)

(* The hash-table version of [Program.intents] that the sort-and-merge
   version replaced, as the reference. *)
let reference_intents p =
  let rank = function `Read -> 0 | `Increment -> 1 | `Write -> 2 in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun op ->
      let key, intent =
        match op with
        | Program.Read k -> (k, `Read)
        | Program.Increment (k, _) -> (k, `Increment)
        | Program.Write (k, _) | Program.Delete k -> (k, `Write)
      in
      match Hashtbl.find_opt tbl key with
      | Some old when rank old >= rank intent -> ()
      | _ -> Hashtbl.replace tbl key intent)
    p;
  Hashtbl.fold (fun k i acc -> (k, i) :: acc) tbl [] |> List.sort compare

let prop_intents_match_reference =
  QCheck2.Test.make ~name:"intents = hash-table reference" ~count:500
    QCheck2.Gen.(
      list_size (int_range 0 12)
        (map2
           (fun kind k ->
             let key = [| "a"; "b"; "acct-10"; "acct-9"; "__cm:1"; "" |].(k) in
             match kind with
             | 0 -> Program.Read key
             | 1 -> Program.Write (key, 5)
             | 2 -> Program.Increment (key, -1)
             | _ -> Program.Delete key)
           (int_range 0 3) (int_range 0 5)))
    (fun p -> Program.intents p = reference_intents p)

let () =
  Alcotest.run "mlt"
    [
      ( "conflict",
        [
          Alcotest.test_case "read/write/increment" `Quick test_conflict_rwi;
          Alcotest.test_case "banking" `Quick test_conflict_banking;
          Alcotest.test_case "symmetry" `Quick test_conflict_symmetry;
          Alcotest.test_case "combined classes" `Quick test_conflict_combined_classes;
        ] );
      ( "action",
        [
          Alcotest.test_case "l1 object" `Quick test_action_l1_object;
          Alcotest.test_case "inverses" `Quick test_action_inverses;
          Alcotest.test_case "undo roundtrip" `Quick test_action_program_undo_roundtrip;
        ] );
      ( "program",
        [
          Alcotest.test_case "keys and intents" `Quick test_program_keys_and_intents;
          Alcotest.test_case "is_read_only" `Quick test_program_is_read_only;
          Alcotest.test_case "inverse of accesses" `Quick test_program_inverse_of_accesses;
          Alcotest.test_case "inverse executes" `Quick test_program_inverse_executes;
          QCheck_alcotest.to_alcotest prop_inverse_restores;
          QCheck_alcotest.to_alcotest prop_intents_match_reference;
        ] );
    ]
