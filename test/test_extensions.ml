(* Tests for the beyond-the-paper extensions: presumed-abort 2PC with the
   read-only optimization, the hybrid protocol for mixed-capability
   federations, MLT action retries, and central-crash recovery. *)

module Sim = Icdb_sim.Engine
module Fiber = Icdb_sim.Fiber
module Trace = Icdb_sim.Trace
module Db = Icdb_localdb.Engine
module Program = Icdb_localdb.Program
module Site = Icdb_net.Site
module Action = Icdb_mlt.Action
module Federation = Icdb_core.Federation
module Global = Icdb_core.Global
module Metrics = Icdb_core.Metrics
module Action_log = Icdb_core.Action_log
module Graph = Icdb_core.Serialization_graph
module Tpc = Icdb_core.Two_phase_commit
module Pa = Icdb_core.Presumed_abort
module After = Icdb_core.Commit_after
module Before = Icdb_core.Commit_before
module Mlt = Icdb_core.Commit_before_mlt
module Hybrid = Icdb_core.Commit_hybrid
module Recovery = Icdb_core.Central_recovery

let outcome_testable = Alcotest.testable Global.pp_outcome ( = )

let site_cfg ~prepare name =
  {
    (Db.default_config ~site_name:name) with
    capabilities = { Db.default_capabilities with supports_prepare = prepare };
  }

(* s0 prepare-capable, s1 not (unless [uniform]). *)
let make_fed ?(uniform_prepare = None) ?trace eng =
  let prepare i = match uniform_prepare with Some p -> p | None -> i = 0 in
  Federation.create eng ?trace
    [ site_cfg ~prepare:(prepare 0) "s0"; site_cfg ~prepare:(prepare 1) "s1" ]

let load fed rows = Federation.preload fed rows

let in_sim eng f =
  let result = ref None in
  Fiber.spawn eng (fun () -> result := Some (f ()));
  Sim.run eng;
  Option.get !result

let transfer_spec fed ?(vote0 = true) ?(vote1 = true) key =
  {
    Global.gid = Federation.fresh_gid fed;
    branches =
      [
        Global.branch ~vote_commit:vote0 ~site:"s0" [ Program.Increment (key, 5) ];
        Global.branch ~vote_commit:vote1 ~site:"s1" [ Program.Increment (key, -5) ];
      ];
  }

let value fed site key = Db.committed_value (Site.db (Federation.site fed site)) key

(* --- presumed-abort 2PC --- *)

let test_pa_commit () =
  let eng = Sim.create () in
  let fed = make_fed ~uniform_prepare:(Some true) eng in
  load fed [ ("x", 100) ];
  let outcome = in_sim eng (fun () -> Pa.run fed (transfer_spec fed "x")) in
  Alcotest.check outcome_testable "committed" Global.Committed outcome;
  Alcotest.(check (option int)) "s0" (Some 105) (value fed "s0" "x");
  Alcotest.(check (option int)) "s1" (Some 95) (value fed "s1" "x");
  Alcotest.(check int) "same messages as 2pc on commit" 12 (Federation.total_messages fed)

let test_pa_read_only_optimization () =
  let eng = Sim.create () in
  let fed = make_fed ~uniform_prepare:(Some true) eng in
  load fed [ ("x", 100) ];
  let spec =
    {
      Global.gid = Federation.fresh_gid fed;
      branches =
        [
          Global.branch ~site:"s0" [ Program.Increment ("x", 5) ];
          Global.branch ~site:"s1" [ Program.Read "x" ];
        ];
    }
  in
  let outcome = in_sim eng (fun () -> Pa.run fed spec) in
  Alcotest.check outcome_testable "committed" Global.Committed outcome;
  (* The read-only branch skips phase 2: 12 - 2 = 10 messages. *)
  Alcotest.(check int) "read-only leg saves a round" 10 (Federation.total_messages fed);
  Alcotest.(check bool) "read-only vote on the wire" true
    (List.mem_assoc "read-only-vote" (Federation.messages_by_label fed))

let test_pa_abort_cheaper_and_unlogged () =
  let run_abort use_pa =
    let eng = Sim.create () in
    let fed = make_fed ~uniform_prepare:(Some true) eng in
    load fed [ ("x", 100) ];
    let spec = transfer_spec fed ~vote1:false "x" in
    let gid = spec.Global.gid in
    let outcome =
      in_sim eng (fun () -> if use_pa then Pa.run fed spec else Tpc.run fed spec)
    in
    (match outcome with
    | Global.Aborted (Voted_abort "s1") -> ()
    | o -> Alcotest.failf "unexpected %s" (Global.outcome_to_string o));
    Alcotest.(check (option int)) "clean" (Some 100) (value fed "s0" "x");
    (Federation.total_messages fed, Federation.decision fed ~gid)
  in
  let std_msgs, std_decision = run_abort false in
  let pa_msgs, pa_decision = run_abort true in
  Alcotest.(check bool) "abort costs fewer messages" true (pa_msgs < std_msgs);
  Alcotest.(check (option bool)) "standard logs the abort" (Some false) std_decision;
  Alcotest.(check (option bool)) "presumed abort logs nothing" None pa_decision

let test_pa_crash_matrix () =
  List.iter
    (fun crash_at ->
      let eng = Sim.create () in
      let fed = make_fed ~uniform_prepare:(Some true) eng in
      load fed [ ("x", 100) ];
      ignore
        (Sim.schedule eng ~delay:crash_at (fun () ->
             Site.crash_for (Federation.site fed "s0") ~duration:30.0));
      let outcome = in_sim eng (fun () -> Pa.run fed (transfer_spec fed "x")) in
      List.iter
        (fun (_, site) -> if not (Site.is_up site) then ignore (Site.restart site))
        fed.sites;
      let v0 = value fed "s0" "x" and v1 = value fed "s1" "x" in
      let consistent =
        match outcome with
        | Global.Committed -> v0 = Some 105 && v1 = Some 95
        | Global.Aborted _ -> v0 = Some 100 && v1 = Some 100
      in
      if not consistent then Alcotest.failf "crash at %.1f breaks atomicity" crash_at)
    (List.init 22 (fun i -> 0.5 +. float_of_int i))

(* --- hybrid protocol --- *)

let test_hybrid_commit_mixed_legs () =
  let eng = Sim.create () in
  let fed = make_fed ~trace:(Trace.create eng) eng in
  load fed [ ("x", 100) ];
  let outcome = in_sim eng (fun () -> Hybrid.run fed (transfer_spec fed "x")) in
  Alcotest.check outcome_testable "committed" Global.Committed outcome;
  Alcotest.(check (option int)) "s0" (Some 105) (value fed "s0" "x");
  Alcotest.(check (option int)) "s1" (Some 95) (value fed "s1" "x");
  (* s0 went through the ready state; s1 committed unilaterally. *)
  Alcotest.(check bool) "s0 prepared" true
    (Option.is_some (Trace.find fed.trace ~actor:"s0" ~label:"g1:ready"));
  Alcotest.(check bool) "s1 committed locally" true
    (Option.is_some (Trace.find fed.trace ~actor:"s1" ~label:"g1:locally-committed"));
  Alcotest.(check int) "undo log cleaned" 0 (Action_log.pending fed.undo_log)

let test_hybrid_abort_compensates_before_leg () =
  let eng = Sim.create () in
  let fed = make_fed eng in
  load fed [ ("x", 100) ];
  (* The 2PC leg votes no; the commit-before leg already committed. *)
  let outcome = in_sim eng (fun () -> Hybrid.run fed (transfer_spec fed ~vote0:false "x")) in
  Alcotest.check outcome_testable "aborted" (Global.Aborted (Voted_abort "s0")) outcome;
  Alcotest.(check bool) "compensation ran" true (Metrics.compensations fed.metrics >= 1);
  Alcotest.(check (option int)) "s0 clean" (Some 100) (value fed "s0" "x");
  Alcotest.(check (option int)) "s1 compensated" (Some 100) (value fed "s1" "x")

let test_hybrid_before_leg_failure_aborts_tpc_leg () =
  let eng = Sim.create () in
  let fed = make_fed eng in
  load fed [ ("x", 100) ];
  Site.crash (Federation.site fed "s1");
  ignore
    (Sim.schedule eng ~delay:40.0 (fun () ->
         ignore (Site.restart (Federation.site fed "s1"))));
  let outcome = in_sim eng (fun () -> Hybrid.run fed (transfer_spec fed "x")) in
  (match outcome with
  | Global.Aborted (Local_abort { site = "s1"; _ }) -> ()
  | o -> Alcotest.failf "unexpected %s" (Global.outcome_to_string o));
  Alcotest.(check (option int)) "2pc leg rolled back" (Some 100) (value fed "s0" "x")

let test_hybrid_crash_matrix () =
  List.iter
    (fun crash_at ->
      let eng = Sim.create () in
      let fed = make_fed eng in
      load fed [ ("x", 100) ];
      ignore
        (Sim.schedule eng ~delay:crash_at (fun () ->
             Site.crash_for (Federation.site fed "s1") ~duration:25.0));
      let outcome = in_sim eng (fun () -> Hybrid.run fed (transfer_spec fed "x")) in
      List.iter
        (fun (_, site) -> if not (Site.is_up site) then ignore (Site.restart site))
        fed.sites;
      let v0 = value fed "s0" "x" and v1 = value fed "s1" "x" in
      let consistent =
        match outcome with
        | Global.Committed -> v0 = Some 105 && v1 = Some 95
        | Global.Aborted _ -> v0 = Some 100 && v1 = Some 100
      in
      if not consistent then Alcotest.failf "crash at %.1f breaks atomicity" crash_at)
    (List.init 26 (fun i -> 0.5 +. float_of_int i))

(* --- MLT action retries --- *)

let test_mlt_retry_masks_transient_failure () =
  let run retries =
    let eng = Sim.create () in
    let fed = make_fed ~uniform_prepare:(Some false) eng in
    load fed [ ("x", 100) ];
    (* s1 is down briefly; its action fails on the first submission. *)
    Site.crash_for (Federation.site fed "s1") ~duration:10.0;
    let spec =
      {
        Global.mlt_gid = Federation.fresh_gid fed;
        actions =
          [
            Action.withdraw ~site:"s0" ~account:"x" 30;
            Action.deposit ~site:"s1" ~account:"x" 30;
          ];
        abort_after = None;
      }
    in
    let outcome = in_sim eng (fun () -> Mlt.run ~action_retries:retries fed spec) in
    (fed, outcome)
  in
  let fed0, o0 = run 0 in
  (match o0 with
  | Global.Aborted (Local_abort { site = "s1"; _ }) -> ()
  | o -> Alcotest.failf "no retries should abort, got %s" (Global.outcome_to_string o));
  Alcotest.(check (option int)) "compensated" (Some 100) (value fed0 "s0" "x");
  let fed3, o3 = run 3 in
  Alcotest.check outcome_testable "retries mask the outage" Global.Committed o3;
  Alcotest.(check (option int)) "transfer applied" (Some 70) (value fed3 "s0" "x");
  Alcotest.(check (option int)) "deposit applied" (Some 130) (value fed3 "s1" "x");
  Alcotest.(check bool) "retries counted" true (Metrics.repetitions fed3.metrics >= 1)

(* --- deterministic protocol runs over a lossy wire --- *)

let lossy_fed eng =
  Federation.create eng ~loss:0.25
    [ site_cfg ~prepare:true "s0"; site_cfg ~prepare:true "s1" ]

let test_protocols_atomic_under_loss () =
  (* Each protocol commits a transfer over a 25%-loss wire; retransmission
     plus receiver-side dedup must leave the effect applied exactly once.
     (A short run can get lucky and lose nothing, so drops are asserted in
     aggregate at the end.) *)
  let total_drops = ref 0 in
  let check name run =
    let eng = Sim.create () in
    let fed = lossy_fed eng in
    load fed [ ("x", 100) ];
    let outcome = in_sim eng (fun () -> run fed) in
    Alcotest.check outcome_testable (name ^ " committed") Global.Committed outcome;
    Alcotest.(check (option int)) (name ^ " s0 once") (Some 105) (value fed "s0" "x");
    Alcotest.(check (option int)) (name ^ " s1 once") (Some 95) (value fed "s1" "x");
    total_drops :=
      !total_drops
      + Icdb_net.Link.dropped_count (Site.link (Federation.site fed "s0"))
      + Icdb_net.Link.dropped_count (Site.link (Federation.site fed "s1"))
  in
  check "2pc" (fun fed -> Tpc.run fed (transfer_spec fed "x"));
  check "pa" (fun fed -> Pa.run fed (transfer_spec fed "x"));
  check "after" (fun fed -> After.run fed (transfer_spec fed "x"));
  check "before" (fun fed -> Before.run fed (transfer_spec fed "x"));
  check "hybrid" (fun fed -> Hybrid.run fed (transfer_spec fed "x"));
  check "mlt" (fun fed ->
      Mlt.run fed
        {
          Global.mlt_gid = Federation.fresh_gid fed;
          actions =
            [
              Action.deposit ~site:"s0" ~account:"x" 5;
              Action.withdraw ~site:"s1" ~account:"x" 5;
            ];
          abort_after = None;
        });
  Alcotest.(check bool) "retransmissions occurred across the runs" true (!total_drops > 0)

let test_undo_not_duplicated_under_loss () =
  (* A mixed outcome over a lossy wire: the undo message may be
     retransmitted; the compensation must apply exactly once. *)
  let eng = Sim.create () in
  let fed = lossy_fed eng in
  load fed [ ("x", 100) ];
  let outcome =
    in_sim eng (fun () -> Before.run fed (transfer_spec fed ~vote1:false "x"))
  in
  (match outcome with
  | Global.Aborted (Voted_abort "s1") -> ()
  | o -> Alcotest.failf "unexpected %s" (Global.outcome_to_string o));
  Alcotest.(check (option int)) "compensated exactly once" (Some 100) (value fed "s0" "x")

(* --- hybrid degenerate federations --- *)

let test_hybrid_no_capable_sites_behaves_like_before () =
  let eng = Sim.create () in
  let fed = make_fed ~trace:(Trace.create eng) ~uniform_prepare:(Some false) eng in
  load fed [ ("x", 100) ];
  let outcome = in_sim eng (fun () -> Hybrid.run fed (transfer_spec fed "x")) in
  Alcotest.check outcome_testable "committed" Global.Committed outcome;
  (* Both legs committed unilaterally: the 2n happy-path message count. *)
  Alcotest.(check int) "commit-before message pattern" 8 (Federation.total_messages fed);
  Alcotest.(check bool) "no prepared legs" true
    (Option.is_none (Trace.find fed.trace ~actor:"s0" ~label:"g1:ready"))

let test_hybrid_all_capable_behaves_like_2pc () =
  let eng = Sim.create () in
  let fed = make_fed ~trace:(Trace.create eng) ~uniform_prepare:(Some true) eng in
  load fed [ ("x", 100) ];
  let outcome = in_sim eng (fun () -> Hybrid.run fed (transfer_spec fed "x")) in
  Alcotest.check outcome_testable "committed" Global.Committed outcome;
  Alcotest.(check int) "2pc message pattern" 12 (Federation.total_messages fed);
  Alcotest.(check bool) "both legs prepared" true
    (Option.is_some (Trace.find fed.trace ~actor:"s0" ~label:"g1:ready")
    && Option.is_some (Trace.find fed.trace ~actor:"s1" ~label:"g1:ready"))

(* --- presumed-abort: all-read-only transaction --- *)

let test_pa_fully_read_only_transaction () =
  let eng = Sim.create () in
  let fed = make_fed ~uniform_prepare:(Some true) eng in
  load fed [ ("x", 100) ];
  let spec =
    {
      Global.gid = Federation.fresh_gid fed;
      branches =
        [
          Global.branch ~site:"s0" [ Program.Read "x" ];
          Global.branch ~site:"s1" [ Program.Read "x" ];
        ];
    }
  in
  let outcome = in_sim eng (fun () -> Pa.run fed spec) in
  Alcotest.check outcome_testable "committed" Global.Committed outcome;
  (* No second phase at all: execute (4) + prepare/read-only-vote (4). *)
  Alcotest.(check int) "no phase two" 8 (Federation.total_messages fed);
  (* Purely read-only: nothing to decide, nothing logged. *)
  Alcotest.(check (option bool)) "commit still logged" (Some true)
    (Federation.decision fed ~gid:spec.Global.gid)

(* --- central-crash recovery --- *)

exception Central_crash

(* Run [f] with the central system failing at [phase]; return whether the
   simulated crash fired. The protocol fiber unwinds; volatile central
   state is dropped. *)
let with_central_crash eng fed ~phase f =
  let crashed = ref false in
  fed.Federation.central_fail <-
    (fun ~gid:_ p -> if p = phase then raise Central_crash);
  Fiber.spawn eng
    ~on_error:(function
      | Central_crash ->
        crashed := true;
        Recovery.crash fed
      | e -> raise e)
    (fun () -> ignore (f ()));
  Sim.run eng;
  fed.Federation.central_fail <- (fun ~gid:_ _ -> ());
  !crashed

let recover eng fed = in_sim eng (fun () -> Recovery.recover fed)

let test_central_2pc_presumed_abort () =
  let eng = Sim.create () in
  let fed = make_fed ~uniform_prepare:(Some true) eng in
  load fed [ ("x", 100) ];
  (* Crash after the votes, before any decision: locals are prepared. *)
  Alcotest.(check bool) "crashed" true
    (with_central_crash eng fed ~phase:"voted" (fun () ->
         Tpc.run fed (transfer_spec fed "x")));
  let s = recover eng fed in
  Alcotest.(check int) "one entry" 1 s.entries_recovered;
  Alcotest.(check int) "both prepared locals resolved" 2 s.decisions_pushed;
  Alcotest.(check (option int)) "s0 rolled back" (Some 100) (value fed "s0" "x");
  Alcotest.(check (option int)) "s1 rolled back" (Some 100) (value fed "s1" "x")

let test_central_2pc_decided_commit_pushed () =
  let eng = Sim.create () in
  let fed = make_fed ~uniform_prepare:(Some true) eng in
  load fed [ ("x", 100) ];
  Alcotest.(check bool) "crashed" true
    (with_central_crash eng fed ~phase:"decided" (fun () ->
         Tpc.run fed (transfer_spec fed "x")));
  let s = recover eng fed in
  Alcotest.(check int) "decision pushed to both" 2 s.decisions_pushed;
  Alcotest.(check (option int)) "s0 committed" (Some 105) (value fed "s0" "x");
  Alcotest.(check (option int)) "s1 committed" (Some 95) (value fed "s1" "x")

let test_central_after_decided_commit_redoes () =
  let eng = Sim.create () in
  let fed = make_fed ~uniform_prepare:(Some false) eng in
  load fed [ ("x", 100) ];
  (* Crash right after the commit decision: locals still running. *)
  Alcotest.(check bool) "crashed" true
    (with_central_crash eng fed ~phase:"decided" (fun () ->
         After.run fed (transfer_spec fed "x")));
  let s = recover eng fed in
  Alcotest.(check int) "both branches redone" 2 s.branches_redone;
  Alcotest.(check (option int)) "s0 committed" (Some 105) (value fed "s0" "x");
  Alcotest.(check (option int)) "s1 committed" (Some 95) (value fed "s1" "x")

let test_central_after_undecided_aborts () =
  let eng = Sim.create () in
  let fed = make_fed ~uniform_prepare:(Some false) eng in
  load fed [ ("x", 100) ];
  Alcotest.(check bool) "crashed" true
    (with_central_crash eng fed ~phase:"executed" (fun () ->
         After.run fed (transfer_spec fed "x")));
  let s = recover eng fed in
  Alcotest.(check int) "running locals aborted" 2 s.locals_aborted;
  Alcotest.(check (option int)) "s0 clean" (Some 100) (value fed "s0" "x");
  Alcotest.(check (option int)) "s1 clean" (Some 100) (value fed "s1" "x")

let test_central_before_undecided_compensates () =
  let eng = Sim.create () in
  let fed = make_fed ~uniform_prepare:(Some false) eng in
  load fed [ ("x", 100) ];
  (* Crash after execution: both locals committed unilaterally. Presumed
     abort must undo them both. *)
  Alcotest.(check bool) "crashed" true
    (with_central_crash eng fed ~phase:"executed" (fun () ->
         Before.run fed (transfer_spec fed "x")));
  Alcotest.(check (option int)) "s0 committed before recovery" (Some 105)
    (value fed "s0" "x");
  let s = recover eng fed in
  Alcotest.(check int) "both compensated" 2 s.branches_undone;
  Alcotest.(check (option int)) "s0 restored" (Some 100) (value fed "s0" "x");
  Alcotest.(check (option int)) "s1 restored" (Some 100) (value fed "s1" "x")

let test_central_before_decided_commit_stays () =
  let eng = Sim.create () in
  let fed = make_fed ~uniform_prepare:(Some false) eng in
  load fed [ ("x", 100) ];
  Alcotest.(check bool) "crashed" true
    (with_central_crash eng fed ~phase:"decided" (fun () ->
         Before.run fed (transfer_spec fed "x")));
  let s = recover eng fed in
  Alcotest.(check int) "nothing undone" 0 s.branches_undone;
  Alcotest.(check (option int)) "s0 stays committed" (Some 105) (value fed "s0" "x");
  Alcotest.(check (option int)) "s1 stays committed" (Some 95) (value fed "s1" "x")

let test_central_mlt_partial_compensates () =
  let eng = Sim.create () in
  let fed = make_fed ~uniform_prepare:(Some false) eng in
  load fed [ ("x", 100) ];
  let spec =
    {
      Global.mlt_gid = Federation.fresh_gid fed;
      actions =
        [
          Action.withdraw ~site:"s0" ~account:"x" 30;
          Action.deposit ~site:"s1" ~account:"x" 30;
        ];
      abort_after = None;
    }
  in
  (* Crash after the first action committed, before the second ran. *)
  Alcotest.(check bool) "crashed" true
    (with_central_crash eng fed ~phase:"action-0" (fun () -> Mlt.run fed spec));
  Alcotest.(check (option int)) "first action applied" (Some 70) (value fed "s0" "x");
  let s = recover eng fed in
  Alcotest.(check int) "one action undone" 1 s.branches_undone;
  Alcotest.(check (option int)) "s0 restored" (Some 100) (value fed "s0" "x");
  Alcotest.(check (option int)) "s1 untouched" (Some 100) (value fed "s1" "x")

let test_central_recovery_idempotent () =
  let eng = Sim.create () in
  let fed = make_fed ~uniform_prepare:(Some false) eng in
  load fed [ ("x", 100) ];
  ignore
    (with_central_crash eng fed ~phase:"executed" (fun () ->
         Before.run fed (transfer_spec fed "x")));
  let s1 = recover eng fed in
  let s2 = recover eng fed in
  Alcotest.(check int) "first does the work" 2 s1.branches_undone;
  Alcotest.(check int) "second finds nothing" 0 s2.entries_recovered;
  Alcotest.(check (option int)) "not doubly undone" (Some 100) (value fed "s0" "x")

let test_central_recovery_releases_locks () =
  let eng = Sim.create () in
  let fed = make_fed ~uniform_prepare:(Some false) eng in
  load fed [ ("x", 100) ];
  ignore
    (with_central_crash eng fed ~phase:"executed" (fun () ->
         Before.run fed (transfer_spec fed "x")));
  ignore (recover eng fed);
  (* A fresh transaction on the same keys must get through. *)
  let outcome = in_sim eng (fun () -> Before.run fed (transfer_spec fed "x")) in
  Alcotest.check outcome_testable "locks are free again" Global.Committed outcome

let () =
  Alcotest.run "extensions"
    [
      ( "presumed-abort",
        [
          Alcotest.test_case "commit" `Quick test_pa_commit;
          Alcotest.test_case "read-only optimization" `Quick test_pa_read_only_optimization;
          Alcotest.test_case "abort cheaper and unlogged" `Quick
            test_pa_abort_cheaper_and_unlogged;
          Alcotest.test_case "crash matrix" `Quick test_pa_crash_matrix;
        ] );
      ( "hybrid",
        [
          Alcotest.test_case "commit with mixed legs" `Quick test_hybrid_commit_mixed_legs;
          Alcotest.test_case "abort compensates before-leg" `Quick
            test_hybrid_abort_compensates_before_leg;
          Alcotest.test_case "before-leg failure aborts 2pc leg" `Quick
            test_hybrid_before_leg_failure_aborts_tpc_leg;
          Alcotest.test_case "crash matrix" `Quick test_hybrid_crash_matrix;
        ] );
      ( "lossy-wire",
        [
          Alcotest.test_case "protocols atomic under loss" `Quick
            test_protocols_atomic_under_loss;
          Alcotest.test_case "undo not duplicated" `Quick test_undo_not_duplicated_under_loss;
        ] );
      ( "hybrid-degenerate",
        [
          Alcotest.test_case "no capable sites = commit-before" `Quick
            test_hybrid_no_capable_sites_behaves_like_before;
          Alcotest.test_case "all capable = 2pc" `Quick test_hybrid_all_capable_behaves_like_2pc;
        ] );
      ( "pa-read-only",
        [ Alcotest.test_case "fully read-only txn" `Quick test_pa_fully_read_only_transaction ]
      );
      ( "mlt-retries",
        [ Alcotest.test_case "retry masks transient failure" `Quick
            test_mlt_retry_masks_transient_failure ] );
      ( "central-recovery",
        [
          Alcotest.test_case "2pc presumed abort" `Quick test_central_2pc_presumed_abort;
          Alcotest.test_case "2pc decided commit pushed" `Quick
            test_central_2pc_decided_commit_pushed;
          Alcotest.test_case "after: decided commit redone" `Quick
            test_central_after_decided_commit_redoes;
          Alcotest.test_case "after: undecided aborts" `Quick
            test_central_after_undecided_aborts;
          Alcotest.test_case "before: undecided compensates" `Quick
            test_central_before_undecided_compensates;
          Alcotest.test_case "before: decided commit stays" `Quick
            test_central_before_decided_commit_stays;
          Alcotest.test_case "mlt: partial compensates" `Quick
            test_central_mlt_partial_compensates;
          Alcotest.test_case "idempotent" `Quick test_central_recovery_idempotent;
          Alcotest.test_case "releases locks" `Quick test_central_recovery_releases_locks;
        ] );
    ]
