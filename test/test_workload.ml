(* Tests for Icdb_workload: protocol selection and the experiment runner,
   including the whole-system property: atomicity (money conservation) and
   global serializability hold for every protocol under randomized load and
   failures. *)

module Runner = Icdb_workload.Runner
module Protocol = Icdb_workload.Protocol
module Experiments = Icdb_workload.Experiments

let test_protocol_parse () =
  Alcotest.(check bool) "2pc" true (Protocol.of_string "2pc" = Ok Protocol.Two_phase);
  Alcotest.(check bool) "after" true (Protocol.of_string "after" = Ok Protocol.After);
  Alcotest.(check bool) "before" true (Protocol.of_string "before" = Ok Protocol.Before);
  Alcotest.(check bool) "mlt" true (Protocol.of_string "before-mlt" = Ok Protocol.Before_mlt);
  Alcotest.(check bool) "unknown" true (Result.is_error (Protocol.of_string "paxos"))

let test_protocol_names_unique () =
  let names = List.map Protocol.name Protocol.all in
  Alcotest.(check int) "unique" (List.length names)
    (List.length (List.sort_uniq compare names))

let small protocol =
  { Runner.default with protocol; n_txns = 40; concurrency = 4; accounts_per_site = 8 }

let test_runner_happy_path_all_protocols () =
  List.iter
    (fun protocol ->
      let r = Runner.run (small protocol) in
      Alcotest.(check int) (Protocol.name protocol ^ " all committed") 40 r.committed;
      Alcotest.(check int) "a drawn run reports no outcomes" 0 (Array.length r.outcomes);
      Alcotest.(check bool) "money conserved" true r.money_conserved;
      Alcotest.(check bool) "serializable" true r.serializable;
      Alcotest.(check bool) "throughput positive" true (r.throughput > 0.0))
    Protocol.all

let test_runner_deterministic () =
  let r1 = Runner.run (small Protocol.Before) in
  let r2 = Runner.run (small Protocol.Before) in
  Alcotest.(check (float 1e-9)) "same elapsed" r1.elapsed r2.elapsed;
  Alcotest.(check int) "same messages" r1.messages r2.messages;
  Alcotest.(check int) "same committed" r1.committed r2.committed

let test_runner_seed_changes_schedule () =
  (* Under failures, seeds produce visibly different histories. (A failure-
     free run can legitimately produce identical timing for any seed: every
     transaction has the same shape.) *)
  let chaos seed =
    let r =
      Runner.run
        {
          (small Protocol.Before) with
          seed;
          p_intended_abort = 0.3;
          p_spontaneous = 0.2;
          n_txns = 60;
        }
    in
    (r.committed, r.aborted, r.elapsed, r.messages, r.compensations)
  in
  Alcotest.(check bool) "different schedule" true (chaos 42L <> chaos 43L)

let test_runner_2pc_needs_prepare () =
  let r = Runner.run { (small Protocol.Two_phase) with prepare_capable = false } in
  Alcotest.(check int) "nothing commits" 0 r.committed;
  Alcotest.(check int) "all aborted" 40 r.aborted

let test_runner_intended_aborts_compensate () =
  let r =
    Runner.run { (small Protocol.Before) with p_intended_abort = 0.3; n_txns = 60 }
  in
  Alcotest.(check bool) "some aborts" true (r.aborted > 0);
  Alcotest.(check bool) "compensations happened" true (r.compensations > 0);
  Alcotest.(check bool) "money conserved" true r.money_conserved

let test_runner_spontaneous_aborts_repetitions () =
  let r =
    Runner.run
      { (small Protocol.After) with p_spontaneous = 0.25; n_txns = 80; concurrency = 8 }
  in
  Alcotest.(check bool) "some repetitions" true (r.repetitions > 0);
  Alcotest.(check bool) "money conserved" true r.money_conserved;
  Alcotest.(check bool) "serializable" true r.serializable

let test_runner_crashes_survive () =
  List.iter
    (fun protocol ->
      let r =
        Runner.run
          {
            (small protocol) with
            crash_rate = 8.0;
            crash_duration = 20.0;
            n_txns = 60;
            concurrency = 8;
          }
      in
      Alcotest.(check bool)
        (Protocol.name protocol ^ " money conserved under crashes")
        true r.money_conserved;
      Alcotest.(check bool) "serializable" true r.serializable)
    Protocol.all

let test_runner_message_complexity () =
  (* V5's shape: commit-before uses 8 messages per committed transaction at
     2 branches; 2PC and commit-after use 12. *)
  let msgs protocol =
    (Runner.run (small protocol)).messages_per_committed
  in
  Alcotest.(check (float 0.01)) "2pc" 12.0 (msgs Protocol.Two_phase);
  Alcotest.(check (float 0.01)) "after" 12.0 (msgs Protocol.After);
  Alcotest.(check (float 0.01)) "before" 8.0 (msgs Protocol.Before);
  Alcotest.(check (float 0.01)) "before-mlt" 8.0 (msgs Protocol.Before_mlt)

let test_runner_mlt_no_additional_components () =
  (* V4: the MLT-fused protocol performs no additional-CC work and writes no
     additional undo-log; the standalone form does both. *)
  let mlt = Runner.run (small Protocol.Before_mlt) in
  Alcotest.(check int) "no additional CC" 0 mlt.global_cc_acquisitions;
  Alcotest.(check int) "no additional undo-log writes" 0 mlt.undo_log_writes;
  Alcotest.(check bool) "inherent L1 work instead" true (mlt.l1_acquisitions > 0);
  Alcotest.(check bool) "inherent L1 log instead" true (mlt.mlt_log_writes > 0);
  let standalone = Runner.run (small Protocol.Before) in
  Alcotest.(check bool) "standalone uses additional CC" true
    (standalone.global_cc_acquisitions > 0);
  Alcotest.(check bool) "standalone writes undo-log" true (standalone.undo_log_writes > 0)

let test_runner_heterogeneous_cc () =
  (* Every third site optimistic: validation failures become spontaneous
     local aborts; atomicity must still hold for the before/after/hybrid
     protocols (2PC cannot prepare an optimistic site). *)
  List.iter
    (fun protocol ->
      let r =
        Runner.run
          {
            (small protocol) with
            heterogeneous_cc = true;
            n_sites = 3;
            n_txns = 80;
            concurrency = 8;
            zipf_theta = 1.0;
          }
      in
      Alcotest.(check bool)
        (Protocol.name protocol ^ " commits on heterogeneous CC")
        true (r.committed > 0);
      Alcotest.(check bool) "money conserved" true r.money_conserved;
      Alcotest.(check bool) "serializable" true r.serializable)
    [ Protocol.After; Protocol.Before; Protocol.Before_mlt; Protocol.Hybrid ]

let test_runner_2pc_refuses_optimistic_site () =
  let r =
    Runner.run
      { (small Protocol.Two_phase) with heterogeneous_cc = true; n_sites = 3; n_txns = 30 }
  in
  (* Any transaction drawing the optimistic site aborts with
     Unsupported_site; money must still be conserved. *)
  Alcotest.(check bool) "some aborts" true (r.aborted > 0);
  Alcotest.(check bool) "money conserved" true r.money_conserved

let test_runner_message_loss_invariants () =
  (* A lossy wire (at-least-once delivery with dedup) plus kills and
     intended aborts: atomicity and serializability must be untouched. *)
  List.iter
    (fun protocol ->
      let r =
        Runner.run
          {
            (small protocol) with
            message_loss = 0.15;
            p_spontaneous = 0.1;
            p_intended_abort = 0.1;
            n_txns = 60;
          }
      in
      Alcotest.(check bool)
        (Protocol.name protocol ^ " drops happened")
        true (r.messages_dropped > 0);
      Alcotest.(check bool) "money conserved" true r.money_conserved;
      Alcotest.(check bool) "serializable" true r.serializable)
    Protocol.all

let test_runner_read_write_mix () =
  let r =
    Runner.run
      { (small Protocol.Before) with use_increments = false; read_fraction = 0.7 }
  in
  Alcotest.(check int) "all committed" 40 r.committed;
  Alcotest.(check bool) "serializable" true r.serializable

let test_experiments_registry_ids_unique () =
  let ids = List.map fst Experiments.all in
  Alcotest.(check bool) "non-empty" true (ids <> []);
  Alcotest.(check int) "unique" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_experiments_unknown_id () =
  Alcotest.check_raises "Not_found" Not_found (fun () ->
      ignore (Experiments.run "no-such-experiment"))

(* --- commit-overhead batching (the fixed-spec lab) --- *)

let lab_cfg ?(n_txns = Runner.fixed_spec_default.n_txns)
    ?(concurrency = Runner.fixed_spec_default.concurrency)
    ?(seed = Runner.fixed_spec_default.seed) protocol window =
  {
    Runner.fixed_spec_default with
    protocol;
    seed;
    n_txns;
    concurrency;
    msg_batch_window = window;
    central_gc_window = window;
    group_commit_window = window;
  }

let run_lab cfg = Runner.run ~fixed_specs:true cfg

(* Local, central and acceptor log forces per commit: the stable-write cost
   O1 tabulates. *)
let forces_per_commit (r : Runner.report) =
  float_of_int (r.log_forces + r.central_log_forces + r.paxos_acceptor_forces)
  /. float_of_int r.committed

let test_batching_preserves_outcomes () =
  (* For every protocol, a fixed-spec run reports one committed flag per
     transaction, and any batching window leaves those outcomes untouched
     and keeps the invariants: only timing and message accounting may
     move. *)
  List.iter
    (fun protocol ->
      let name = Protocol.name protocol in
      let base = run_lab (lab_cfg ~n_txns:60 ~concurrency:8 protocol None) in
      Alcotest.(check int) (name ^ " one flag per txn") 60 (Array.length base.outcomes);
      Alcotest.(check int) (name ^ " flags set = committed") base.committed
        (Array.fold_left (fun n c -> if c then n + 1 else n) 0 base.outcomes);
      Alcotest.(check bool) (name ^ " base money") true base.money_conserved;
      Alcotest.(check bool) (name ^ " base serializable") true base.serializable;
      List.iter
        (fun window ->
          let r = run_lab (lab_cfg ~n_txns:60 ~concurrency:8 protocol (Some window)) in
          let label = Printf.sprintf "%s @ window %.1f" name window in
          Alcotest.(check (array bool))
            (label ^ ": identical outcomes") base.outcomes r.outcomes;
          Alcotest.(check bool) (label ^ ": money conserved") true r.money_conserved;
          Alcotest.(check bool) (label ^ ": serializable") true r.serializable)
        [ 1.0; 4.0; 10.0 ])
    Protocol.all

let test_batching_reduces_overhead () =
  (* With batching on, both wire messages per committed transaction and
     stable-log forces per commit drop strictly for 2PC, presumed abort and
     commit-before with MLTs. *)
  List.iter
    (fun protocol ->
      let name = Protocol.name protocol in
      let base = run_lab (lab_cfg protocol None) in
      let batched = run_lab (lab_cfg protocol (Some 3.0)) in
      Alcotest.(check int) (name ^ ": same committed") base.committed batched.committed;
      Alcotest.(check bool)
        (Printf.sprintf "%s: msgs/commit %.2f < %.2f" name
           batched.messages_per_committed base.messages_per_committed)
        true
        (batched.messages_per_committed < base.messages_per_committed);
      Alcotest.(check bool)
        (Printf.sprintf "%s: forces/commit %.2f < %.2f" name (forces_per_commit batched)
           (forces_per_commit base))
        true
        (forces_per_commit batched < forces_per_commit base);
      Alcotest.(check bool) (name ^ ": batching actually used") true
        (batched.batch_envelopes > 0))
    [ Protocol.Two_phase; Protocol.Presumed_abort; Protocol.Before_mlt ]

(* Batched and unbatched runs of the same fixed workload, with any number of
   workers, agree on every per-transaction outcome, conserve money and stay
   serializable — for a random protocol, window, worker count and seed. *)
let prop_batching_equivalence =
  QCheck2.Test.make ~name:"batched run equals unbatched run" ~count:15
    QCheck2.Gen.(tup4 (int_range 0 5) (float_range 0.5 12.0) (int_range 1 12) int)
    (fun (proto_idx, window, workers, seed) ->
      let protocol = List.nth Protocol.all proto_idx in
      let seed = Int64.of_int seed in
      let base = run_lab (lab_cfg ~n_txns:40 ~concurrency:6 ~seed protocol None) in
      let batched =
        run_lab (lab_cfg ~n_txns:40 ~concurrency:workers ~seed protocol (Some window))
      in
      base.outcomes = batched.outcomes
      && batched.money_conserved && batched.serializable
      && base.money_conserved && base.serializable)

(* The whole-system property test: random configurations with failures keep
   atomicity and serializability for every protocol. *)
let prop_invariants_under_chaos =
  QCheck2.Test.make ~name:"atomicity + serializability under randomized chaos" ~count:25
    QCheck2.Gen.(
      tup7 (int_range 0 5) (int_range 1 4) (int_range 1 4)
        (float_bound_inclusive 0.3) (float_bound_inclusive 0.2)
        (float_bound_inclusive 6.0) int)
    (fun (proto_idx, n_sites, concurrency, p_intended, p_spont, crash_rate, seed) ->
      let protocol = List.nth Protocol.all proto_idx in
      let r =
        Runner.run
          {
            Runner.default with
            protocol;
            seed = Int64.of_int seed;
            n_sites;
            branches_per_txn = min 2 n_sites;
            accounts_per_site = 6;
            n_txns = 25;
            concurrency;
            p_intended_abort = p_intended;
            p_spontaneous = p_spont;
            crash_rate;
            crash_duration = 15.0;
            zipf_theta = 0.9;
          }
      in
      r.money_conserved && r.serializable)

(* A run keeps no protocol step timeline: the federation it builds has a
   disabled trace, though every protocol records into it. *)
let test_runner_retains_no_trace () =
  List.iter
    (fun protocol ->
      let fed = ref None in
      let r = Runner.run ~on_setup:(fun _ f -> fed := Some f) (small protocol) in
      Alcotest.(check int) (Protocol.name protocol ^ " committed") 40 r.committed;
      let fed = Option.get !fed in
      Alcotest.(check bool) "trace disabled" false (Icdb_sim.Trace.enabled fed.trace);
      Alcotest.(check int) "no trace entries" 0 (Icdb_sim.Trace.length fed.trace))
    Protocol.all

let () =
  Alcotest.run "workload"
    [
      ( "protocol",
        [
          Alcotest.test_case "parse" `Quick test_protocol_parse;
          Alcotest.test_case "names unique" `Quick test_protocol_names_unique;
        ] );
      ( "runner",
        [
          Alcotest.test_case "happy path, all protocols" `Quick
            test_runner_happy_path_all_protocols;
          Alcotest.test_case "deterministic" `Quick test_runner_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_runner_seed_changes_schedule;
          Alcotest.test_case "2pc needs prepare" `Quick test_runner_2pc_needs_prepare;
          Alcotest.test_case "intended aborts compensate" `Quick
            test_runner_intended_aborts_compensate;
          Alcotest.test_case "spontaneous aborts cause repetitions" `Quick
            test_runner_spontaneous_aborts_repetitions;
          Alcotest.test_case "crashes survive" `Slow test_runner_crashes_survive;
          Alcotest.test_case "message complexity" `Quick test_runner_message_complexity;
          Alcotest.test_case "mlt needs no additional components" `Quick
            test_runner_mlt_no_additional_components;
          Alcotest.test_case "heterogeneous CC" `Quick test_runner_heterogeneous_cc;
          Alcotest.test_case "message loss invariants" `Quick
            test_runner_message_loss_invariants;
          Alcotest.test_case "2pc refuses optimistic site" `Quick
            test_runner_2pc_refuses_optimistic_site;
          Alcotest.test_case "read/write mix" `Quick test_runner_read_write_mix;
          Alcotest.test_case "retains no trace" `Quick test_runner_retains_no_trace;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "registry ids are unique" `Quick
            test_experiments_registry_ids_unique;
          Alcotest.test_case "unknown id raises Not_found" `Quick
            test_experiments_unknown_id;
        ] );
      ( "batching",
        [
          Alcotest.test_case "windows preserve outcomes" `Quick
            test_batching_preserves_outcomes;
          Alcotest.test_case "batching reduces overhead" `Quick
            test_batching_reduces_overhead;
          QCheck_alcotest.to_alcotest prop_batching_equivalence;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest prop_invariants_under_chaos ]);
    ]
