(* Tests for Icdb_core: the three atomic-commitment protocols, the
   MLT-fused variant, the serialization-graph checker and the central
   logs. These tests reproduce, deterministically, every failure scenario
   §3 and §4 of the paper argue about. *)

module Sim = Icdb_sim.Engine
module Fiber = Icdb_sim.Fiber
module Trace = Icdb_sim.Trace
module Db = Icdb_localdb.Engine
module Program = Icdb_localdb.Program
module Site = Icdb_net.Site
module Action = Icdb_mlt.Action
module Federation = Icdb_core.Federation
module Global = Icdb_core.Global
module Graph = Icdb_core.Serialization_graph
module Action_log = Icdb_core.Action_log
module Metrics = Icdb_core.Metrics
module Tpc = Icdb_core.Two_phase_commit
module After = Icdb_core.Commit_after
module Before = Icdb_core.Commit_before
module Mlt = Icdb_core.Commit_before_mlt
module Protocol_common = Icdb_core.Protocol_common

let outcome_testable = Alcotest.testable Global.pp_outcome ( = )

let site_cfg ?(prepare = true) ?(granularity = Db.Record_level) name =
  {
    (Db.default_config ~site_name:name) with
    capabilities =
      {
        supports_prepare = prepare;
        supports_increment_locks = true;
        granularity;
        cc = Locking { wait_timeout = Some 100.0 };
      };
  }

let make_fed ?(n = 2) ?(prepare = true) ?granularity ?trace eng =
  let configs = List.init n (fun i -> site_cfg ~prepare ?granularity (Printf.sprintf "s%d" i)) in
  Federation.create eng ?trace configs

let load_accounts fed rows = Federation.preload fed rows

let value fed site key = Db.committed_value (Site.db (Federation.site fed site)) key

(* Run [f] in a fiber, drain the simulation, return the result. *)
let in_sim eng f =
  let result = ref None in
  let failure = ref None in
  Fiber.spawn eng ~on_error:(fun e -> failure := Some e) (fun () -> result := Some (f ()));
  Sim.run eng;
  match !failure with
  | Some e -> raise e
  | None -> Option.get !result

let kill_running_at eng fed ~site ~at =
  ignore
    (Sim.schedule eng ~delay:at (fun () ->
         let db = Site.db (Federation.site fed site) in
         List.iter (Db.kill db) (Db.running_transactions db)))

(* A two-site transfer: +amount at s0/key, -amount at s1/key. *)
let transfer_spec fed ?(vote0 = true) ?(vote1 = true) ?(amount = 5) key =
  {
    Global.gid = Federation.fresh_gid fed;
    branches =
      [
        Global.branch ~vote_commit:vote0 ~site:"s0" [ Program.Increment (key, amount) ];
        Global.branch ~vote_commit:vote1 ~site:"s1" [ Program.Increment (key, -amount) ];
      ];
  }

(* --- two-phase commit --- *)

let test_2pc_commit () =
  let eng = Sim.create () in
  let fed = make_fed eng in
  load_accounts fed [ ("x", 100) ];
  let outcome = in_sim eng (fun () -> Tpc.run fed (transfer_spec fed "x")) in
  Alcotest.check outcome_testable "committed" Global.Committed outcome;
  Alcotest.(check (option int)) "s0 credited" (Some 105) (value fed "s0" "x");
  Alcotest.(check (option int)) "s1 debited" (Some 95) (value fed "s1" "x")

let test_2pc_commit_points_fig3 () =
  (* Figure 3: the global decision falls strictly between every site's
     ready point and its final commit. *)
  let eng = Sim.create () in
  let fed = make_fed ~trace:(Trace.create eng) eng in
  load_accounts fed [ ("x", 100) ];
  ignore (in_sim eng (fun () -> Tpc.run fed (transfer_spec fed "x")));
  let t label actor = Option.get (Trace.find fed.trace ~actor ~label) in
  let decision = t "g1:decision:commit" "central" in
  List.iter
    (fun site ->
      let ready = t "g1:ready" site in
      let committed = t "g1:committed" site in
      Alcotest.(check bool) (site ^ " ready before decision") true (ready < decision);
      Alcotest.(check bool) (site ^ " decision before commit") true (decision < committed))
    [ "s0"; "s1" ]

let test_2pc_unsupported_site () =
  let eng = Sim.create () in
  let fed = make_fed ~prepare:false eng in
  load_accounts fed [ ("x", 100) ];
  let outcome = in_sim eng (fun () -> Tpc.run fed (transfer_spec fed "x")) in
  Alcotest.check outcome_testable "refused" (Global.Aborted (Unsupported_site "s0")) outcome;
  Alcotest.(check (option int)) "nothing happened" (Some 100) (value fed "s0" "x")

let test_2pc_vote_abort () =
  let eng = Sim.create () in
  let fed = make_fed eng in
  load_accounts fed [ ("x", 100) ];
  let outcome = in_sim eng (fun () -> Tpc.run fed (transfer_spec fed ~vote1:false "x")) in
  Alcotest.check outcome_testable "aborted" (Global.Aborted (Voted_abort "s1")) outcome;
  Alcotest.(check (option int)) "s0 unchanged" (Some 100) (value fed "s0" "x");
  Alcotest.(check (option int)) "s1 unchanged" (Some 100) (value fed "s1" "x")

let test_2pc_execution_failure_aborts_all () =
  let eng = Sim.create () in
  let fed = make_fed eng in
  load_accounts fed [ ("x", 100) ];
  (* s1 is down: its branch cannot even begin. *)
  Site.crash (Federation.site fed "s1");
  let outcome = in_sim eng (fun () -> Tpc.run fed (transfer_spec fed "x")) in
  (match outcome with
  | Global.Aborted (Local_abort { site = "s1"; reason = Db.Site_crashed }) -> ()
  | o -> Alcotest.failf "unexpected outcome %s" (Global.outcome_to_string o));
  Alcotest.(check (option int)) "s0 rolled back" (Some 100) (value fed "s0" "x")

let test_2pc_crash_matrix_atomicity () =
  (* V6, 2PC column: crash site s0 at every instant of the protocol; the
     outcome may differ but atomicity must never break: either both sites
     show the transfer or neither does. *)
  let crash_times = List.init 22 (fun i -> 0.5 +. (float_of_int i *. 1.0)) in
  List.iter
    (fun crash_at ->
      let eng = Sim.create () in
      let fed = make_fed eng in
      load_accounts fed [ ("x", 100) ];
      ignore
        (Sim.schedule eng ~delay:crash_at (fun () ->
             Site.crash_for (Federation.site fed "s0") ~duration:30.0));
      let outcome = in_sim eng (fun () -> Tpc.run fed (transfer_spec fed "x")) in
      List.iter
        (fun (_, site) -> if not (Site.is_up site) then ignore (Site.restart site))
        fed.sites;
      let v0 = value fed "s0" "x" and v1 = value fed "s1" "x" in
      let consistent =
        match outcome with
        | Global.Committed -> v0 = Some 105 && v1 = Some 95
        | Global.Aborted _ -> v0 = Some 100 && v1 = Some 100
      in
      if not consistent then
        Alcotest.failf "crash at %.1f: outcome %s but s0=%s s1=%s" crash_at
          (Global.outcome_to_string outcome)
          (Option.fold ~none:"-" ~some:string_of_int v0)
          (Option.fold ~none:"-" ~some:string_of_int v1))
    crash_times

(* --- commitment after the global decision --- *)

let test_after_commit () =
  let eng = Sim.create () in
  let fed = make_fed ~prepare:false eng in
  load_accounts fed [ ("x", 100) ];
  let outcome = in_sim eng (fun () -> After.run fed (transfer_spec fed "x")) in
  Alcotest.check outcome_testable "committed" Global.Committed outcome;
  Alcotest.(check (option int)) "s0 credited" (Some 105) (value fed "s0" "x");
  Alcotest.(check (option int)) "s1 debited" (Some 95) (value fed "s1" "x");
  Alcotest.(check int) "no repetitions needed" 0 (Metrics.repetitions fed.metrics);
  Alcotest.(check int) "redo log cleaned" 0 (Action_log.pending fed.redo_log)

let test_after_commit_points_fig5 () =
  (* Figure 5: the decision precedes every local commitment. *)
  let eng = Sim.create () in
  let fed = make_fed ~trace:(Trace.create eng) ~prepare:false eng in
  load_accounts fed [ ("x", 100) ];
  ignore (in_sim eng (fun () -> After.run fed (transfer_spec fed "x")));
  let decision = Option.get (Trace.find fed.trace ~actor:"central" ~label:"g1:decision:commit") in
  List.iter
    (fun site ->
      let ready = Option.get (Trace.find fed.trace ~actor:site ~label:"g1:ready") in
      let committed = Option.get (Trace.find fed.trace ~actor:site ~label:"g1:committed") in
      Alcotest.(check bool) "ready before decision" true (ready < decision);
      Alcotest.(check bool) "decision before local commit" true (decision < committed))
    [ "s0"; "s1" ]

let test_after_erroneous_abort_triggers_repetition () =
  (* The §3.2 scenario: a local is killed after answering ready; the
     protocol repeats it until it commits. Atomicity holds. *)
  let eng = Sim.create () in
  let fed = make_fed ~prepare:false eng in
  load_accounts fed [ ("x", 100) ];
  (* Timeline: execute ends ~3-4, prepare round ~4-6, decision ~6, commit
     request arrives ~7 and takes commit_delay 2. Killing s0's local at 6.5
     lands after ready, before local commit. *)
  kill_running_at eng fed ~site:"s0" ~at:6.5;
  let outcome = in_sim eng (fun () -> After.run fed (transfer_spec fed "x")) in
  Alcotest.check outcome_testable "committed despite kill" Global.Committed outcome;
  Alcotest.(check bool) "at least one repetition" true (Metrics.repetitions fed.metrics >= 1);
  Alcotest.(check (option int)) "applied exactly once" (Some 105) (value fed "s0" "x");
  Alcotest.(check (option int)) "peer applied once" (Some 95) (value fed "s1" "x")

let test_after_kill_before_ready_aborts_globally () =
  (* Killed during execution: the prepare answer is an abort vote and the
     whole global transaction aborts cleanly. *)
  let eng = Sim.create () in
  let fed = make_fed ~prepare:false eng in
  load_accounts fed [ ("x", 100) ];
  kill_running_at eng fed ~site:"s0" ~at:2.0;
  let outcome = in_sim eng (fun () -> After.run fed (transfer_spec fed "x")) in
  (match outcome with
  | Global.Aborted (Local_abort { site = "s0"; _ }) -> ()
  | o -> Alcotest.failf "unexpected outcome %s" (Global.outcome_to_string o));
  Alcotest.(check (option int)) "s0 unchanged" (Some 100) (value fed "s0" "x");
  Alcotest.(check (option int)) "s1 unchanged" (Some 100) (value fed "s1" "x")

let test_after_crash_matrix_atomicity () =
  (* V6, commitment-after column, including the crash windows around the
     local commit and the repetition. *)
  let crash_times = List.init 24 (fun i -> 0.5 +. float_of_int i) in
  List.iter
    (fun crash_at ->
      let eng = Sim.create () in
      let fed = make_fed ~prepare:false eng in
      load_accounts fed [ ("x", 100) ];
      ignore
        (Sim.schedule eng ~delay:crash_at (fun () ->
             Site.crash_for (Federation.site fed "s0") ~duration:30.0));
      let outcome = in_sim eng (fun () -> After.run fed (transfer_spec fed "x")) in
      List.iter
        (fun (_, site) -> if not (Site.is_up site) then ignore (Site.restart site))
        fed.sites;
      let v0 = value fed "s0" "x" and v1 = value fed "s1" "x" in
      let consistent =
        match outcome with
        | Global.Committed -> v0 = Some 105 && v1 = Some 95
        | Global.Aborted _ -> v0 = Some 100 && v1 = Some 100
      in
      if not consistent then
        Alcotest.failf "crash at %.1f: outcome %s but s0=%s s1=%s" crash_at
          (Global.outcome_to_string outcome)
          (Option.fold ~none:"-" ~some:string_of_int v0)
          (Option.fold ~none:"-" ~some:string_of_int v1))
    crash_times

let test_after_global_cc_blocks_conflicting_submission () =
  (* The additional CC module: a second global transaction on the same keys
     waits for the first to finish (its locks are held to the global end),
     so its response time reflects the wait. *)
  let eng = Sim.create () in
  let fed = make_fed ~prepare:false eng in
  load_accounts fed [ ("x", 100) ];
  let finish1 = ref 0.0 and finish2 = ref 0.0 in
  let results = ref [] in
  Fiber.spawn eng (fun () ->
      let o = After.run fed (transfer_spec fed "x") in
      finish1 := Sim.now eng;
      results := o :: !results);
  Fiber.spawn eng (fun () ->
      Fiber.sleep eng 0.1;
      let o = After.run fed (transfer_spec fed "x") in
      finish2 := Sim.now eng;
      results := o :: !results);
  Sim.run eng;
  List.iter
    (fun o -> Alcotest.check outcome_testable "both commit" Global.Committed o)
    !results;
  Alcotest.(check bool) "second serialized after first" true (!finish2 > !finish1);
  Alcotest.(check (option int)) "both applied at s0" (Some 110) (value fed "s0" "x")

let test_after_occ_validation_failure_repeats () =
  (* A heterogeneous federation: s0 runs an optimistic scheduler. G1's
     local at s0 passes its "ready" answer while still unvalidated; G2's
     conflicting write then commits first, so G1's local fails validation
     at commit time — an erroneous abort after ready, repaired by
     repetition (§3.2 names exactly this case). *)
  let eng = Sim.create () in
  let occ_cfg =
    {
      (Db.default_config ~site_name:"s0") with
      capabilities =
        {
          supports_prepare = false;
          supports_increment_locks = false;
          granularity = Db.Record_level;
          cc = Db.Optimistic;
        };
    }
  in
  let fed = Federation.create eng [ occ_cfg; site_cfg ~prepare:false "s1" ] in
  fed.global_cc_enabled <- false;
  load_accounts fed [ ("x", 1); ("y", 0); ("z", 0) ];
  let outcome = ref None in
  Fiber.spawn eng (fun () ->
      let g1 =
        {
          Global.gid = Federation.fresh_gid fed;
          branches =
            [
              Global.branch ~site:"s0" [ Program.Read "x"; Program.Write ("y", 5) ];
              Global.branch ~site:"s1" [ Program.Increment ("z", 1) ];
            ];
        }
      in
      outcome := Some (After.run fed g1));
  Fiber.spawn eng (fun () ->
      Fiber.sleep eng 2.5;
      let g2 =
        {
          Global.gid = Federation.fresh_gid fed;
          branches = [ Global.branch ~site:"s0" [ Program.Write ("x", 99) ] ];
        }
      in
      ignore (Before.run fed g2));
  Sim.run eng;
  Alcotest.check outcome_testable "G1 committed despite validation failure"
    Global.Committed (Option.get !outcome);
  Alcotest.(check bool) "repetition happened" true (Metrics.repetitions fed.metrics >= 1);
  Alcotest.(check (option int)) "G1's write applied once" (Some 5) (value fed "s0" "y");
  Alcotest.(check (option int)) "G2's write stands" (Some 99) (value fed "s0" "x");
  Alcotest.(check (option int)) "s1 applied once" (Some 1) (value fed "s1" "z")

(* --- commitment before the global decision --- *)

let test_before_commit () =
  let eng = Sim.create () in
  let fed = make_fed ~prepare:false eng in
  load_accounts fed [ ("x", 100) ];
  let outcome = in_sim eng (fun () -> Before.run fed (transfer_spec fed "x")) in
  Alcotest.check outcome_testable "committed" Global.Committed outcome;
  Alcotest.(check (option int)) "s0 credited" (Some 105) (value fed "s0" "x");
  Alcotest.(check (option int)) "s1 debited" (Some 95) (value fed "s1" "x");
  Alcotest.(check int) "no compensations" 0 (Metrics.compensations fed.metrics);
  Alcotest.(check int) "undo log cleaned" 0 (Action_log.pending fed.undo_log)

let test_before_commit_points_fig7 () =
  (* Figure 7: every local commit precedes the global decision. *)
  let eng = Sim.create () in
  let fed = make_fed ~trace:(Trace.create eng) ~prepare:false eng in
  load_accounts fed [ ("x", 100) ];
  ignore (in_sim eng (fun () -> Before.run fed (transfer_spec fed "x")));
  let decision = Option.get (Trace.find fed.trace ~actor:"central" ~label:"g1:decision:commit") in
  List.iter
    (fun site ->
      let local = Option.get (Trace.find fed.trace ~actor:site ~label:"g1:locally-committed") in
      Alcotest.(check bool) "local commit before decision" true (local < decision))
    [ "s0"; "s1" ]

let test_before_mixed_outcome_compensates () =
  let eng = Sim.create () in
  let fed = make_fed ~prepare:false eng in
  load_accounts fed [ ("x", 100) ];
  let outcome = in_sim eng (fun () -> Before.run fed (transfer_spec fed ~vote1:false "x")) in
  Alcotest.check outcome_testable "aborted" (Global.Aborted (Voted_abort "s1")) outcome;
  Alcotest.(check bool) "compensation ran" true (Metrics.compensations fed.metrics >= 1);
  Alcotest.(check (option int)) "s0 restored" (Some 100) (value fed "s0" "x");
  Alcotest.(check (option int)) "s1 unchanged" (Some 100) (value fed "s1" "x")

let test_before_crash_before_answer_waits_for_recovery () =
  (* §3.3: "the global transaction manager has to wait for the local system
     to come up again". Crash s1 during execution; its local is rolled back
     by restart recovery, the answer is abort, and s0 gets compensated. *)
  let eng = Sim.create () in
  let fed = make_fed ~prepare:false eng in
  load_accounts fed [ ("x", 100) ];
  ignore
    (Sim.schedule eng ~delay:2.0 (fun () ->
         Site.crash_for (Federation.site fed "s1") ~duration:50.0));
  let finished_at = ref 0.0 in
  let outcome =
    in_sim eng (fun () ->
        let o = Before.run fed (transfer_spec fed "x") in
        finished_at := Sim.now eng;
        o)
  in
  (match outcome with
  | Global.Aborted (Local_abort { site = "s1"; reason = Db.Site_crashed }) -> ()
  | o -> Alcotest.failf "unexpected outcome %s" (Global.outcome_to_string o));
  Alcotest.(check bool) "waited for recovery" true (!finished_at >= 52.0);
  Alcotest.(check (option int)) "s0 compensated" (Some 100) (value fed "s0" "x");
  Alcotest.(check (option int)) "s1 rolled back by recovery" (Some 100) (value fed "s1" "x")

let test_before_crash_matrix_atomicity () =
  (* V6, commitment-before column: crash s0 at every instant, including the
     undo window. Aborted runs must net to zero, committed runs must apply
     both branches. Intended abort at s1 forces the undo path. *)
  let crash_times = List.init 30 (fun i -> 0.5 +. float_of_int i) in
  List.iter
    (fun crash_at ->
      let eng = Sim.create () in
      let fed = make_fed ~prepare:false eng in
      load_accounts fed [ ("x", 100) ];
      ignore
        (Sim.schedule eng ~delay:crash_at (fun () ->
             Site.crash_for (Federation.site fed "s0") ~duration:20.0));
      let outcome = in_sim eng (fun () -> Before.run fed (transfer_spec fed ~vote1:false "x")) in
      List.iter
        (fun (_, site) -> if not (Site.is_up site) then ignore (Site.restart site))
        fed.sites;
      (match outcome with
      | Global.Aborted _ -> ()
      | Global.Committed -> Alcotest.fail "must abort: s1 votes no");
      let v0 = value fed "s0" "x" in
      if v0 <> Some 100 then
        Alcotest.failf "crash at %.1f: s0 not restored (%s)" crash_at
          (Option.fold ~none:"-" ~some:string_of_int v0))
    crash_times

(* --- serializability requirements (V7) --- *)

let test_before_dirty_read_without_global_cc () =
  (* §3.3's requirement violated on purpose: with the additional CC module
     disabled, a second global transaction reads s0/x between G1's local
     commit and its compensation. The checker must flag it. *)
  let eng = Sim.create () in
  let fed = make_fed ~prepare:false eng in
  fed.global_cc_enabled <- false;
  load_accounts fed [ ("x", 100) ];
  Fiber.spawn eng (fun () ->
      ignore (Before.run fed (transfer_spec fed ~vote1:false "x")));
  let g2_saw = ref None in
  Fiber.spawn eng (fun () ->
      (* Lands after G1's local commit at s0 (~5) and before its undo. *)
      Fiber.sleep eng 6.0;
      let spec =
        {
          Global.gid = Federation.fresh_gid fed;
          branches = [ Global.branch ~site:"s0" [ Program.Read "x" ] ];
        }
      in
      ignore (Before.run fed spec);
      g2_saw := value fed "s0" "x");
  Sim.run eng;
  let violations = Graph.violations fed.graph in
  Alcotest.(check bool) "dirty read flagged" true
    (List.exists (function Graph.Dirty_read _ -> true | Graph.Cycle _ -> false) violations)

let test_before_global_cc_prevents_dirty_read () =
  (* Same schedule with the additional CC module enabled: G2 is delayed
     until G1 is fully compensated; no violation. *)
  let eng = Sim.create () in
  let fed = make_fed ~prepare:false eng in
  load_accounts fed [ ("x", 100) ];
  Fiber.spawn eng (fun () ->
      ignore (Before.run fed (transfer_spec fed ~vote1:false "x")));
  Fiber.spawn eng (fun () ->
      Fiber.sleep eng 6.0;
      let spec =
        {
          Global.gid = Federation.fresh_gid fed;
          branches = [ Global.branch ~site:"s0" [ Program.Read "x" ] ];
        }
      in
      ignore (Before.run fed spec));
  Sim.run eng;
  Alcotest.(check bool) "serializable" true (Graph.serializable fed.graph)

let test_after_order_flip_without_global_cc () =
  (* §3.2's requirement violated on purpose: G1's local at s0 is killed
     after ready; with the additional CC module off, G2 slips in between
     the first execution and the repetition, flipping the serialization
     order at s0 while the order at s1 is the opposite — a global cycle. *)
  let eng = Sim.create () in
  let fed = make_fed ~prepare:false eng in
  fed.global_cc_enabled <- false;
  load_accounts fed [ ("x", 100); ("y", 100) ];
  let g1 =
    {
      Global.gid = Federation.fresh_gid fed;
      branches =
        [
          Global.branch ~site:"s0" [ Program.Read "x" ];
          Global.branch ~site:"s1" [ Program.Increment ("y", 1) ];
        ];
    }
  in
  Fiber.spawn eng (fun () -> ignore (After.run fed g1));
  (* Kill G1's local at s0 after its ready answer (~5.5). *)
  kill_running_at eng fed ~site:"s0" ~at:5.5;
  (* G2 starts so that its write request reaches s0 right after the kill
     (t=5.6) and before the repetition re-locks x (t=6). *)
  Fiber.spawn eng (fun () ->
      Fiber.sleep eng 4.6;
      let g2 =
        {
          Global.gid = Federation.fresh_gid fed;
          branches =
            [
              Global.branch ~site:"s0" [ Program.Write ("x", 999) ];
              Global.branch ~site:"s1" [ Program.Read "y" ];
            ];
        }
      in
      ignore (Before.run fed g2));
  Sim.run eng;
  let violations = Graph.violations fed.graph in
  Alcotest.(check bool) "cycle flagged" true
    (List.exists (function Graph.Cycle _ -> true | Graph.Dirty_read _ -> false) violations)

let test_after_global_cc_prevents_order_flip () =
  let eng = Sim.create () in
  let fed = make_fed ~prepare:false eng in
  load_accounts fed [ ("x", 100); ("y", 100) ];
  let g1 =
    {
      Global.gid = Federation.fresh_gid fed;
      branches =
        [
          Global.branch ~site:"s0" [ Program.Read "x" ];
          Global.branch ~site:"s1" [ Program.Increment ("y", 1) ];
        ];
    }
  in
  Fiber.spawn eng (fun () -> ignore (After.run fed g1));
  kill_running_at eng fed ~site:"s0" ~at:5.5;
  (* G2 starts so that its write request reaches s0 right after the kill
     (t=5.6) and before the repetition re-locks x (t=6). *)
  Fiber.spawn eng (fun () ->
      Fiber.sleep eng 4.6;
      let g2 =
        {
          Global.gid = Federation.fresh_gid fed;
          branches =
            [
              Global.branch ~site:"s0" [ Program.Write ("x", 999) ];
              Global.branch ~site:"s1" [ Program.Read "y" ];
            ];
        }
      in
      ignore (Before.run fed g2));
  Sim.run eng;
  Alcotest.(check bool) "serializable with CC" true (Graph.serializable fed.graph)

(* --- commitment before + multi-level transactions --- *)

let mlt_transfer fed ?(abort_after = None) amount =
  {
    Global.mlt_gid = Federation.fresh_gid fed;
    actions =
      [
        Action.withdraw ~site:"s0" ~account:"x" amount;
        Action.deposit ~site:"s1" ~account:"x" amount;
      ];
    abort_after;
  }

let test_mlt_commit () =
  let eng = Sim.create () in
  let fed = make_fed ~prepare:false eng in
  load_accounts fed [ ("x", 100) ];
  let outcome = in_sim eng (fun () -> Mlt.run fed (mlt_transfer fed 30)) in
  Alcotest.check outcome_testable "committed" Global.Committed outcome;
  Alcotest.(check (option int)) "withdrawn" (Some 70) (value fed "s0" "x");
  Alcotest.(check (option int)) "deposited" (Some 130) (value fed "s1" "x");
  Alcotest.(check int) "no additional CC" 0 (Metrics.global_lock_acquisitions fed.metrics);
  Alcotest.(check int) "no additional undo-log writes" 0
    (Action_log.write_count fed.undo_log);
  Alcotest.(check bool) "L1 locks used" true (Metrics.l1_lock_acquisitions fed.metrics >= 2)

let test_mlt_intended_abort_compensates () =
  let eng = Sim.create () in
  let fed = make_fed ~trace:(Trace.create eng) ~prepare:false eng in
  load_accounts fed [ ("x", 100) ];
  let outcome =
    in_sim eng (fun () -> Mlt.run fed (mlt_transfer fed ~abort_after:(Some 1) 30))
  in
  Alcotest.check outcome_testable "aborted" (Global.Aborted Intended_abort) outcome;
  Alcotest.(check bool) "inverse ran" true (Metrics.compensations fed.metrics >= 1);
  Alcotest.(check (option int)) "s0 restored" (Some 100) (value fed "s0" "x");
  Alcotest.(check (option int)) "s1 untouched" (Some 100) (value fed "s1" "x");
  (* the action, its undo and the outcome, as gid-tagged trace labels *)
  let at actor label = Option.is_some (Trace.find fed.trace ~actor ~label) in
  Alcotest.(check bool) "action done at s0" true (at "s0" "g1:done:withdraw(x,30)");
  Alcotest.(check bool) "inverse at s0" true (at "s0" "g1:inverse-action");
  Alcotest.(check bool) "abort at central" true (at "central" "g1:aborted (intended abort)");
  Alcotest.(check bool) "action before its inverse" true
    (Trace.before fed.trace ~first:"g1:done:withdraw(x,30)" ~then_:"g1:inverse-action")

let test_mlt_local_failure_compensates () =
  let eng = Sim.create () in
  let fed = make_fed ~prepare:false eng in
  load_accounts fed [ ("x", 100) ];
  (* s1 down: the second action fails; the first is undone by inverse. *)
  Site.crash (Federation.site fed "s1");
  let outcome = in_sim eng (fun () -> Mlt.run fed (mlt_transfer fed 30)) in
  (match outcome with
  | Global.Aborted (Local_abort { site = "s1"; _ }) -> ()
  | o -> Alcotest.failf "unexpected outcome %s" (Global.outcome_to_string o));
  Alcotest.(check (option int)) "s0 restored" (Some 100) (value fed "s0" "x")

let test_mlt_commuting_actions_concurrent () =
  (* Deposits commute at L1: two global transactions depositing to the same
     account proceed in parallel. A read-balance conflicts and waits. *)
  let eng = Sim.create () in
  let fed = make_fed ~prepare:false eng in
  load_accounts fed [ ("x", 100) ];
  let finished = Hashtbl.create 4 in
  let spawn_deposit name =
    Fiber.spawn eng (fun () ->
        let spec =
          {
            Global.mlt_gid = Federation.fresh_gid fed;
            actions = [ Action.deposit ~site:"s0" ~account:"x" 10 ];
            abort_after = None;
          }
        in
        ignore (Mlt.run fed spec);
        Hashtbl.replace finished name (Sim.now eng))
  in
  spawn_deposit "d1";
  spawn_deposit "d2";
  Fiber.spawn eng (fun () ->
      Fiber.sleep eng 0.5;
      let spec =
        {
          Global.mlt_gid = Federation.fresh_gid fed;
          actions = [ Action.read_balance ~site:"s0" ~account:"x" ];
          abort_after = None;
        }
      in
      ignore (Mlt.run fed spec);
      Hashtbl.replace finished "reader" (Sim.now eng));
  Sim.run eng;
  let t name = Hashtbl.find finished name in
  Alcotest.(check bool) "deposits concurrent" true (Float.abs (t "d1" -. t "d2") < 0.001);
  Alcotest.(check bool) "reader waits for both deposits" true
    (t "reader" > t "d1" && t "reader" > t "d2");
  Alcotest.(check (option int)) "both deposits applied" (Some 120) (value fed "s0" "x")

let test_fig8_page_level_vs_mlt () =
  (* Figure 8: two records on the same page. Single-level transactions
     (here: flat commit-after on page-level sites) serialize on the page
     lock held to the global end; the two-level variant releases the page
     lock at the end of each short L0 transaction and relies on commuting
     L1 increment locks. *)
  let run_pair make_txn =
    let eng = Sim.create () in
    let fed = make_fed ~n:1 ~prepare:false ~granularity:Db.Page_level eng in
    (* x and y are loaded together: same page. *)
    load_accounts fed [ ("x", 0); ("y", 0) ];
    let finish = ref [] in
    for i = 0 to 1 do
      Fiber.spawn eng (fun () ->
          make_txn fed i;
          finish := Sim.now eng :: !finish)
    done;
    Sim.run eng;
    (fed, List.fold_left Float.max 0.0 !finish)
  in
  (* Single-level: one flat transaction doing both increments. *)
  let _, flat_makespan =
    run_pair (fun fed _ ->
        let spec =
          {
            Global.gid = Federation.fresh_gid fed;
            branches =
              [
                Global.branch ~site:"s0"
                  [ Program.Increment ("x", 1); Program.Increment ("y", 1) ];
              ];
          }
        in
        ignore (After.run fed spec))
  in
  (* Two-level: each increment is its own L0 transaction. *)
  let mlt_fed, mlt_makespan =
    run_pair (fun fed _ ->
        let spec =
          {
            Global.mlt_gid = Federation.fresh_gid fed;
            actions =
              [
                Action.increment ~site:"s0" ~key:"x" 1;
                Action.increment ~site:"s0" ~key:"y" 1;
              ];
            abort_after = None;
          }
        in
        ignore (Mlt.run fed spec))
  in
  Alcotest.(check (option int)) "mlt: both x increments" (Some 2) (value mlt_fed "s0" "x");
  Alcotest.(check (option int)) "mlt: both y increments" (Some 2) (value mlt_fed "s0" "y");
  Alcotest.(check bool)
    (Printf.sprintf "two-level faster under page conflicts (%.1f < %.1f)" mlt_makespan
       flat_makespan)
    true (mlt_makespan < flat_makespan)

(* --- message complexity (V5) --- *)

let test_message_counts () =
  let count protocol expected =
    let eng = Sim.create () in
    let fed = make_fed eng in
    load_accounts fed [ ("x", 100) ];
    (match protocol with
    | `Tpc -> ignore (in_sim eng (fun () -> Tpc.run fed (transfer_spec fed "x")))
    | `After -> ignore (in_sim eng (fun () -> After.run fed (transfer_spec fed "x")))
    | `Before -> ignore (in_sim eng (fun () -> Before.run fed (transfer_spec fed "x"))));
    Alcotest.(check int)
      (Printf.sprintf "total messages (%d expected)" expected)
      expected (Federation.total_messages fed)
  in
  (* n = 2 sites. Execution phase: 2 messages per site = 4. 2PC and
     commit-after add prepare/ready + decision/finished = 8; commit-before
     adds only the inquiry round = 4. *)
  count `Tpc 12;
  count `After 12;
  count `Before 8

(* --- coordinator crash points --- *)

(* The ordered [fed.central_fail] labels of every protocol on three paths:
   a commit, an abort vote at s1 (an intended abort after the first action
   for MLT) and an execution failure (s1 down while the branches execute,
   back at t=50 so that an inquiry waiting for it ends). A4, the chaos
   campaigns and crash enumerations crash the coordinator at exactly these
   points. Hybrid runs on s0 prepare-capable, s1 not. *)
let test_central_fail_points () =
  let points ?(prepare1 = true) ~down run =
    let eng = Sim.create () in
    let fed = Federation.create eng [ site_cfg "s0"; site_cfg ~prepare:prepare1 "s1" ] in
    load_accounts fed [ ("x", 100) ];
    let seen = ref [] in
    fed.central_fail <- (fun ~gid:_ p -> seen := p :: !seen);
    if down then Site.crash_for (Federation.site fed "s1") ~duration:50.0;
    ignore (in_sim eng (fun () -> run fed));
    List.rev !seen
  in
  let flat ?prepare1 run =
    List.map
      (fun (vote1, down) ->
        points ?prepare1 ~down (fun fed -> run fed (transfer_spec fed ~vote1 "x")))
      [ (true, false); (false, false); (true, true) ]
  in
  let mlt =
    List.map
      (fun (abort_after, down) ->
        points ~down (fun fed -> Mlt.run fed (mlt_transfer fed ~abort_after 5)))
      [ (None, false); (Some 1, false); (None, true) ]
  in
  let full = [ "executed"; "voted"; "decided" ] in
  Alcotest.(check (list (pair string (list (list string)))))
    "commit / vote-abort / execution failure"
    [
      ("2pc", [ full; full; [ "executed" ] ]);
      ("2pc-pa", [ full; [ "executed"; "voted" ]; [ "executed"; "voted" ] ]);
      ("after", [ full; full; full ]);
      ("before", [ full; full; full ]);
      ( "mlt",
        [ [ "action-0"; "action-1"; "decided" ]; [ "action-0"; "decided" ];
          [ "action-0"; "decided" ] ] );
      ("hybrid", [ full; full; full ]);
    ]
    [
      ("2pc", flat Tpc.run);
      ("2pc-pa", flat Icdb_core.Presumed_abort.run);
      ("after", flat After.run);
      ("before", flat Before.run);
      ("mlt", mlt);
      ("hybrid", flat ~prepare1:false Icdb_core.Commit_hybrid.run);
    ]

(* --- serialization graph unit tests --- *)

let test_graph_conflict_classification () =
  let open Db in
  let read k = Read { key = k; value = None } in
  let write k = Wrote { key = k; before = None; after = Some 1 } in
  let incr k = Incremented { key = k; delta = 1 } in
  Alcotest.(check bool) "r/r no" false (Graph.conflict [ read "a" ] [ read "a" ]);
  Alcotest.(check bool) "i/i no" false (Graph.conflict [ incr "a" ] [ incr "a" ]);
  Alcotest.(check bool) "r/w yes" true (Graph.conflict [ read "a" ] [ write "a" ]);
  Alcotest.(check bool) "i/w yes" true (Graph.conflict [ incr "a" ] [ write "a" ]);
  Alcotest.(check bool) "r/i yes" true (Graph.conflict [ read "a" ] [ incr "a" ]);
  Alcotest.(check bool) "disjoint keys no" false (Graph.conflict [ write "a" ] [ write "b" ]);
  Alcotest.(check bool) "markers ignored" false
    (Graph.conflict [ write "__cm:1" ] [ write "__cm:1" ])

let test_graph_detects_cycle () =
  let g = Graph.create () in
  let w k = [ Db.Wrote { key = k; before = None; after = Some 1 } ] in
  (* site A: 1 before 2; site B: 2 before 1 — classic global cycle. *)
  Graph.record_local g ~gid:1 ~site:"A" ~compensation:false (w "x");
  Graph.record_local g ~gid:2 ~site:"A" ~compensation:false (w "x");
  Graph.record_local g ~gid:2 ~site:"B" ~compensation:false (w "y");
  Graph.record_local g ~gid:1 ~site:"B" ~compensation:false (w "y");
  Graph.record_outcome g ~gid:1 ~committed:true;
  Graph.record_outcome g ~gid:2 ~committed:true;
  Alcotest.(check bool) "cycle found" true
    (List.exists (function Graph.Cycle _ -> true | _ -> false) (Graph.violations g));
  (* 1 -> 2 at A, 2 -> 3 at B, 3 -> 1 at C: the one cycle, in path order. *)
  let g = Graph.create () in
  List.iter
    (fun (site, first, second) ->
      Graph.record_local g ~gid:first ~site ~compensation:false (w site);
      Graph.record_local g ~gid:second ~site ~compensation:false (w site))
    [ ("A", 1, 2); ("B", 2, 3); ("C", 3, 1) ];
  List.iter (fun gid -> Graph.record_outcome g ~gid ~committed:true) [ 1; 2; 3 ];
  match Graph.violations g with
  | [ Graph.Cycle ([ 1; 2; 3 ] | [ 2; 3; 1 ] | [ 3; 1; 2 ]) ] -> ()
  | vs ->
    Alcotest.failf "expected the cycle 1 -> 2 -> 3, got %s"
      (String.concat "; " (List.map (Format.asprintf "%a" Graph.pp_violation) vs))

let test_graph_serial_order_ok () =
  let g = Graph.create () in
  let w k = [ Db.Wrote { key = k; before = None; after = Some 1 } ] in
  Graph.record_local g ~gid:1 ~site:"A" ~compensation:false (w "x");
  Graph.record_local g ~gid:2 ~site:"A" ~compensation:false (w "x");
  Graph.record_local g ~gid:1 ~site:"B" ~compensation:false (w "y");
  Graph.record_local g ~gid:2 ~site:"B" ~compensation:false (w "y");
  Graph.record_outcome g ~gid:1 ~committed:true;
  Graph.record_outcome g ~gid:2 ~committed:true;
  Alcotest.(check bool) "serializable" true (Graph.serializable g)

let test_graph_dirty_read_window () =
  let g = Graph.create () in
  let w k = [ Db.Wrote { key = k; before = None; after = Some 1 } ] in
  let r k = [ Db.Read { key = k; value = None } ] in
  Graph.record_local g ~gid:1 ~site:"A" ~compensation:false (w "x");
  Graph.record_local g ~gid:2 ~site:"A" ~compensation:false (r "x");
  Graph.record_local g ~gid:1 ~site:"A" ~compensation:true (w "x");
  Graph.record_outcome g ~gid:1 ~committed:false;
  Graph.record_outcome g ~gid:2 ~committed:true;
  (match Graph.violations g with
  | [ Graph.Dirty_read { reader = 2; aborted_writer = 1; site = "A" } ] -> ()
  | v -> Alcotest.failf "unexpected violations (%d)" (List.length v));
  (* Reader after the compensation: fine. *)
  let g2 = Graph.create () in
  Graph.record_local g2 ~gid:1 ~site:"A" ~compensation:false (w "x");
  Graph.record_local g2 ~gid:1 ~site:"A" ~compensation:true (w "x");
  Graph.record_local g2 ~gid:2 ~site:"A" ~compensation:false (r "x");
  Graph.record_outcome g2 ~gid:1 ~committed:false;
  Graph.record_outcome g2 ~gid:2 ~committed:true;
  Alcotest.(check bool) "after compensation ok" true (Graph.serializable g2)

(* The checker's graph stays linear in the history: a 20k-local read/write
   history on one hot key, with read runs of 1-50 between writes, builds at
   most two edges per access. An all-accessors builder, giving each access
   an edge from every earlier conflicting one, emits about 15 million here. *)
let test_graph_edges_linear () =
  let g = Graph.create () in
  let rng = Random.State.make [| 12 |] in
  let locals = 20_000 in
  let gid = ref 0 in
  let record access =
    incr gid;
    Graph.record_local g ~gid:!gid ~site:"A" ~compensation:false [ access ];
    Graph.record_outcome g ~gid:!gid ~committed:true
  in
  while !gid < locals do
    record (Db.Wrote { key = "hot"; before = None; after = Some !gid });
    for _ = 1 to min (1 + Random.State.int rng 50) (locals - !gid) do
      record (Db.Read { key = "hot"; value = None })
    done
  done;
  Alcotest.(check int) "locals" locals (Graph.recorded_locals g);
  let edges = Graph.edge_count g in
  if edges > 2 * locals then Alcotest.failf "%d edges for %d accesses" edges locals;
  Alcotest.(check int) "no violations" 0 (List.length (Graph.violations g))

(* Property: the graph checker's cycle detection agrees with brute force —
   a committed history is serializable iff some total order of the global
   transactions is consistent with every site's conflicting commit order. *)
let prop_graph_matches_bruteforce =
  let open QCheck2 in
  let gen =
    (* per site: a permutation of gids given by ranks; per gid+site: an
       access (key, kind). n gids in 2..4. *)
    Gen.(
      int_range 2 4 >>= fun n ->
      let perm = list_repeat n (int_range 0 1000) in
      let accesses = list_repeat n (pair (int_range 0 1) (int_range 0 2)) in
      tup5 (pure n) perm perm accesses accesses)
  in
  QCheck2.Test.make ~name:"graph cycle detection matches brute force" ~count:300 gen
    (fun (n, rank_a, rank_b, acc_a, acc_b) ->
      let order ranks =
        List.mapi (fun gid rank -> (rank, gid + 1)) ranks
        |> List.sort compare |> List.map snd
      in
      let access_of (key_i, kind_i) =
        let key = Printf.sprintf "k%d" key_i in
        match kind_i with
        | 0 -> Db.Read { key; value = None }
        | 1 -> Db.Wrote { key; before = None; after = Some 1 }
        | _ -> Db.Incremented { key; delta = 1 }
      in
      let site_history ranks accs =
        List.map (fun gid -> (gid, [ access_of (List.nth accs (gid - 1)) ])) (order ranks)
      in
      let hist_a = site_history rank_a acc_a and hist_b = site_history rank_b acc_b in
      let g = Graph.create () in
      List.iter
        (fun (site, hist) ->
          List.iter
            (fun (gid, accesses) ->
              Graph.record_local g ~gid ~site ~compensation:false accesses)
            hist)
        [ ("A", hist_a); ("B", hist_b) ];
      for gid = 1 to n do
        Graph.record_outcome g ~gid ~committed:true
      done;
      let cycle_found =
        List.exists (function Graph.Cycle _ -> true | _ -> false) (Graph.violations g)
      in
      (* brute force: try every permutation of [1..n] *)
      let rec permutations = function
        | [] -> [ [] ]
        | l ->
          List.concat_map
            (fun x -> List.map (fun p -> x :: p) (permutations (List.filter (( <> ) x) l)))
            l
      in
      let consistent perm =
        let pos gid = Option.get (List.find_index (( = ) gid) perm) in
        List.for_all
          (fun (_, hist) ->
            let rec pairs = function
              | [] -> true
              | (g1, a1) :: rest ->
                List.for_all
                  (fun (g2, a2) ->
                    (not (Graph.conflict a1 a2)) || pos g1 < pos g2)
                  rest
                && pairs rest
            in
            pairs hist)
          [ ("A", hist_a); ("B", hist_b) ]
      in
      let serializable_bf =
        List.exists consistent (permutations (List.init n (fun i -> i + 1)))
      in
      cycle_found = not serializable_bf)

(* Property: the indexed checker agrees with a straightforward O(n^2)
   reference oracle — the seed's all-pairs formulation, reimplemented here
   from scratch — on randomized histories mixing committed, aborted and
   compensation locals over all three access kinds (plus "__" marker keys,
   which both sides must ignore). Both the cycle verdict and the exact
   dirty-read reports must match, and every reported cycle must be a closed
   walk in the oracle's full conflict graph. Most histories are long (30-40
   locals per site on a hot key), so runs of three or more same-kind
   accessors and the hand-off from one run to the next occur, with gids
   repeating at a site. Sites keep their drawn order, or are sorted by gid
   (a serial history: no cycle), or sorted with one local moved, so that a
   cycle, when there is one, hangs on a few specific edges. *)
let prop_graph_matches_reference_oracle =
  let open QCheck2 in
  let gen =
    (* 1-2 sites; per site 0-10 or 30-40 locals of (gid, compensation,
       accesses); key 0 is hot (drawn 5 times in 8), key 3 is an internal
       "__" marker key; reads are half the accesses. *)
    Gen.(
      int_range 2 4 >>= fun n_gids ->
      let key = frequency [ (5, pure 0); (1, pure 1); (1, pure 2); (1, pure 3) ] in
      let kind = frequency [ (3, pure 0); (1, pure 1); (2, pure 2) ] in
      let local =
        tup3 (int_range 1 n_gids)
          (frequency [ (4, pure false); (1, pure true) ])
          (list_size (int_range 1 2) (pair key kind))
      in
      let site_hist =
        pair
          (list_size (frequency [ (1, int_range 0 10); (3, int_range 30 40) ]) local)
          (pair nat nat)
      in
      let order = frequency [ (1, pure `Drawn); (1, pure `Serial); (2, pure `Moved) ] in
      tup4 (pure n_gids) (list_size (int_range 1 2) site_hist) (list_repeat n_gids bool) order)
  in
  QCheck2.Test.make ~name:"indexed graph matches O(n^2) reference oracle" ~count:500 gen
    (fun (n_gids, raw_sites, outcomes, order) ->
      let arrange (hist, (from, dest)) =
        let sorted = List.stable_sort (fun (g1, _, _) (g2, _, _) -> compare g1 g2) hist in
        match (order, List.length hist) with
        | `Drawn, _ -> hist
        | `Serial, _ | `Moved, 0 -> sorted
        | `Moved, n ->
          let from = from mod n and dest = dest mod n in
          let rest = List.filteri (fun i _ -> i <> from) sorted in
          List.filteri (fun i _ -> i < dest) rest
          @ (List.nth sorted from :: List.filteri (fun i _ -> i >= dest) rest)
      in
      let raw_sites = List.map arrange raw_sites in
      let access_of (key_i, kind_i) =
        let key = if key_i = 3 then "__marker" else Printf.sprintf "k%d" key_i in
        match kind_i with
        | 0 -> Db.Read { key; value = None }
        | 1 -> Db.Wrote { key; before = None; after = Some 1 }
        | _ -> Db.Incremented { key; delta = 1 }
      in
      let sites =
        List.mapi
          (fun i hist ->
            ( Printf.sprintf "S%d" i,
              List.map
                (fun (gid, comp, accs) -> (gid, comp, List.map access_of accs))
                hist ))
          raw_sites
      in
      let committed gid = List.nth outcomes (gid - 1) in
      (* system under test *)
      let g = Graph.create () in
      List.iter
        (fun (site, hist) ->
          List.iter
            (fun (gid, compensation, accesses) ->
              Graph.record_local g ~gid ~site ~compensation accesses)
            hist)
        sites;
      List.iteri (fun i c -> Graph.record_outcome g ~gid:(i + 1) ~committed:c) outcomes;
      let vs = Graph.violations g in
      let cycle_found = List.exists (function Graph.Cycle _ -> true | _ -> false) vs in
      let dirty =
        List.filter_map
          (function
            | Graph.Dirty_read { reader; aborted_writer; site } ->
              Some (site, aborted_writer, reader)
            | Graph.Cycle _ -> None)
          vs
        |> List.sort compare
      in
      (* reference oracle, sharing no code with the checker *)
      let key_of = function
        | Db.Read { key; _ } | Db.Wrote { key; _ } | Db.Incremented { key; _ } -> key
      in
      let internal a =
        let k = key_of a in
        String.length k >= 2 && String.sub k 0 2 = "__"
      in
      let kind_of = function Db.Read _ -> `R | Db.Wrote _ -> `W | Db.Incremented _ -> `I in
      let access_conflict a b =
        (not (internal a))
        && key_of a = key_of b
        &&
        match (kind_of a, kind_of b) with `R, `R | `I, `I -> false | _ -> true
      in
      let conflict_ref la lb =
        List.exists (fun a -> List.exists (access_conflict a) lb) la
      in
      (* the full conflict graph: g1 -> g2 when some site committed a local
         of g1 before a conflicting local of g2 *)
      let full_edges =
        List.concat_map
          (fun (_, hist) ->
            let commits =
              List.filter_map
                (fun (gid, comp, accs) ->
                  if committed gid && not comp then Some (gid, accs) else None)
                hist
            in
            let rec pairs = function
              | [] -> []
              | (g1, a1) :: rest ->
                List.filter_map
                  (fun (g2, a2) -> if g1 <> g2 && conflict_ref a1 a2 then Some (g1, g2) else None)
                  rest
                @ pairs rest
            in
            pairs commits)
          sites
        |> List.sort_uniq compare
      in
      (* cycle verdict: serializable iff some total order of the gids is
         consistent with every full edge *)
      let rec permutations = function
        | [] -> [ [] ]
        | l ->
          List.concat_map
            (fun x -> List.map (fun p -> x :: p) (permutations (List.filter (( <> ) x) l)))
            l
      in
      let consistent perm =
        let pos gid = Option.get (List.find_index (( = ) gid) perm) in
        List.for_all (fun (g1, g2) -> pos g1 < pos g2) full_edges
      in
      let serializable_ref =
        List.exists consistent (permutations (List.init n_gids (fun i -> i + 1)))
      in
      let closed_walk = function
        | [] -> false
        | first :: _ as cycle ->
          let rec steps = function
            | [ last ] -> List.mem (last, first) full_edges
            | a :: (b :: _ as rest) -> List.mem (a, b) full_edges && steps rest
            | [] -> false
          in
          steps cycle
      in
      let cycles_valid =
        List.for_all (function Graph.Cycle c -> closed_walk c | Graph.Dirty_read _ -> true) vs
      in
      (* dirty reads: the seed's all-pairs window scan *)
      let dirty_ref =
        List.concat_map
          (fun (site, hist) ->
            let arr = Array.of_list hist in
            let n = Array.length arr in
            let out = ref [] in
            for i = 0 to n - 1 do
              let gid_i, comp_i, acc_i = arr.(i) in
              if (not comp_i) && not (committed gid_i) then begin
                let wend = ref n in
                (try
                   for j = i + 1 to n - 1 do
                     let gid_j, comp_j, _ = arr.(j) in
                     if gid_j = gid_i && comp_j then begin
                       wend := j;
                       raise Exit
                     end
                   done
                 with Exit -> ());
                (* pure reads of the aborted local are harmless *)
                let written =
                  List.filter_map
                    (fun a ->
                      match a with
                      | Db.Wrote _ | Db.Incremented _ when not (internal a) ->
                        Some (key_of a)
                      | _ -> None)
                    acc_i
                in
                let changed =
                  List.filter
                    (fun a ->
                      match a with
                      | Db.Read _ -> List.mem (key_of a) written
                      | Db.Wrote _ | Db.Incremented _ -> not (internal a))
                    acc_i
                in
                for j = i + 1 to !wend - 1 do
                  let gid_j, comp_j, acc_j = arr.(j) in
                  if gid_j <> gid_i && committed gid_j && (not comp_j)
                     && conflict_ref changed acc_j
                  then out := (site, gid_i, gid_j) :: !out
                done
              end
            done;
            List.rev !out)
          sites
        |> List.sort compare
      in
      cycle_found = (not serializable_ref) && cycles_valid && dirty = dirty_ref)

(* --- action log --- *)

let test_action_log () =
  let log = Action_log.create () in
  Action_log.append log ~gid:1 { site = "a"; program = [ Program.Read "x" ]; tag = "t1" };
  Action_log.append log ~gid:1 { site = "b"; program = []; tag = "t2" };
  Action_log.append log ~gid:2 { site = "a"; program = []; tag = "t3" };
  Alcotest.(check int) "writes counted" 3 (Action_log.write_count log);
  Alcotest.(check int) "two pending" 2 (Action_log.pending log);
  (match Action_log.entries log ~gid:1 with
  | [ { tag = "t1"; _ }; { tag = "t2"; _ } ] -> ()
  | _ -> Alcotest.fail "order lost");
  Action_log.remove log ~gid:1;
  Alcotest.(check int) "one pending" 1 (Action_log.pending log);
  Alcotest.(check (list string)) "gone" []
    (List.map (fun (e : Action_log.entry) -> e.tag) (Action_log.entries log ~gid:1));
  Alcotest.(check int) "write count keeps history" 3 (Action_log.write_count log)

(* The list-of-records serialization graph the columnar one replaced, kept
   as its oracle: each site's history is a reversed list of locals, each a
   record holding its interned (key, kind) array in the scratch table's
   enumeration order. It must agree with [Graph] on everything recorded,
   violation order included. *)
module Graph_lists = struct
  module Symbol = Icdb_util.Symbol
  module Strtbl = Icdb_util.Strtbl
  module Gid_store = Icdb_util.Gid_store

  type kind = KRead | KIncr | KWrite
  type local = { gid : int; compensation : bool; kinds : (Symbol.t * kind) array }

  type t = {
    syms : Symbol.table;
    histories : local list ref Strtbl.t;
    kinds_scratch : kind Strtbl.t;
    outcomes : Gid_store.Bool.t;
    mutable locals : int;
  }

  let create () =
    {
      syms = Symbol.create ~capacity:256 ();
      histories = Strtbl.create 16;
      kinds_scratch = Strtbl.create 8;
      outcomes = Gid_store.Bool.create ();
      locals = 0;
    }

  let internal_key key = String.length key >= 2 && key.[0] = '_' && key.[1] = '_'

  let join k1 k2 =
    match (k1, k2) with
    | KWrite, _ | _, KWrite -> KWrite
    | KRead, KIncr | KIncr, KRead -> KWrite
    | KRead, KRead -> KRead
    | KIncr, KIncr -> KIncr

  let kinds_conflict k1 k2 =
    match (k1, k2) with KRead, KRead | KIncr, KIncr -> false | _ -> true

  let intern_kinds t accesses =
    let tbl = t.kinds_scratch in
    let strengthen key kind =
      if not (internal_key key) then
        match Strtbl.find_opt tbl key with
        | None -> Strtbl.replace tbl key kind
        | Some k ->
          let j = join k kind in
          if j <> k then Strtbl.replace tbl key j
    in
    List.iter
      (function
        | Db.Read { key; _ } -> strengthen key KRead
        | Db.Wrote { key; _ } -> strengthen key KWrite
        | Db.Incremented { key; _ } -> strengthen key KIncr)
      accesses;
    let items = Array.make (Strtbl.length tbl) (0, KRead) in
    let i = ref 0 in
    Strtbl.iter
      (fun key kind ->
        items.(!i) <- (Symbol.intern t.syms key, kind);
        incr i)
      tbl;
    Strtbl.reset tbl;
    items

  let record_local t ~gid ~site ~compensation accesses =
    let hist =
      match Strtbl.find_opt t.histories site with
      | Some h -> h
      | None ->
        let h = ref [] in
        Strtbl.replace t.histories site h;
        h
    in
    hist := { gid; compensation; kinds = intern_kinds t accesses } :: !hist;
    t.locals <- t.locals + 1

  let record_outcome t ~gid ~committed = Gid_store.Bool.replace t.outcomes gid committed

  let committed_of t gid =
    match Gid_store.Bool.find_opt t.outcomes gid with Some c -> c | None -> false

  let forget_keys cells hist =
    List.iter
      (fun l ->
        for i = 0 to Array.length l.kinds - 1 do
          cells.(fst l.kinds.(i)) <- []
        done)
      hist

  let edges t =
    let succ : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
    let count = ref 0 in
    let rec emit g2 = function
      | [] -> ()
      | g1 :: rest ->
        if g1 <> g2 then begin
          (match Hashtbl.find succ g1 with
          | out -> out := g2 :: !out
          | exception Not_found -> Hashtbl.add succ g1 (ref [ g2 ]));
          incr count
        end;
        emit g2 rest
    in
    let n = Symbol.count t.syms in
    let run_kind = Array.make n KRead in
    let members = Array.make n [] in
    let prev = Array.make n [] in
    Strtbl.iter
      (fun _site hist ->
        List.iter
          (fun l ->
            if committed_of t l.gid && not l.compensation then
              for i = 0 to Array.length l.kinds - 1 do
                let key, kind = l.kinds.(i) in
                match members.(key) with
                | [] ->
                  run_kind.(key) <- kind;
                  members.(key) <- [ l.gid ];
                  prev.(key) <- []
                | run ->
                  if run_kind.(key) = kind && kind <> KWrite then members.(key) <- l.gid :: run
                  else begin
                    prev.(key) <- run;
                    members.(key) <- [ l.gid ];
                    run_kind.(key) <- kind
                  end;
                  emit l.gid prev.(key)
              done)
          (List.rev !hist);
        forget_keys members !hist)
      t.histories;
    (succ, !count)

  let find_cycle t =
    let succ, _ = edges t in
    let state = Hashtbl.create 64 in
    let exception Found of int list in
    let rec dfs path node =
      match Hashtbl.find_opt state node with
      | Some 1 -> ()
      | Some _ ->
        let rec cut = function
          | [] -> []
          | x :: rest -> if x = node then [ x ] else x :: cut rest
        in
        raise (Found (List.rev (cut path)))
      | None ->
        Hashtbl.replace state node 0;
        (match Hashtbl.find_opt succ node with
        | Some out -> List.iter (dfs (node :: path)) !out
        | None -> ());
        Hashtbl.replace state node 1
    in
    try
      Hashtbl.iter (fun node _ -> dfs [ node ] node) succ;
      None
    with Found cycle -> Some cycle

  let rec open_at p = function
    | [] -> []
    | ((_, _, _, wend) as w) :: rest as ws ->
      let open_rest = open_at p rest in
      if wend <= p then open_rest else if open_rest == rest then ws else w :: open_rest

  let rec note_pairs pairs ~reader gid kind = function
    | [] -> ()
    | (i, wgid, wkind, _) :: rest ->
      if wgid <> gid && kinds_conflict wkind kind then Hashtbl.replace pairs (i, reader) ();
      note_pairs pairs ~reader gid kind rest

  let dirty_reads t =
    let found = ref [] in
    let open_windows = Array.make (Symbol.count t.syms) [] in
    Strtbl.iter
      (fun site hist ->
        if List.exists (fun l -> not (l.compensation || committed_of t l.gid)) !hist then begin
          let ordered = Array.of_list (List.rev !hist) in
          let n = Array.length ordered in
          let window_end = Array.make n n in
          let next_comp = Hashtbl.create 16 in
          for i = n - 1 downto 0 do
            let l = ordered.(i) in
            (match Hashtbl.find next_comp l.gid with
            | c -> window_end.(i) <- c
            | exception Not_found -> ());
            if l.compensation then Hashtbl.replace next_comp l.gid i
          done;
          let pairs = Hashtbl.create 16 in
          for p = 0 to n - 1 do
            let l = ordered.(p) in
            if not l.compensation then begin
              let committed = committed_of t l.gid in
              for k = 0 to Array.length l.kinds - 1 do
                let key, kind = l.kinds.(k) in
                let windows = open_at p open_windows.(key) in
                open_windows.(key) <- windows;
                if committed then note_pairs pairs ~reader:p l.gid kind windows
                else if kind <> KRead then
                  open_windows.(key) <- (p, l.gid, kind, window_end.(p)) :: windows
              done
            end
          done;
          forget_keys open_windows !hist;
          let site_pairs =
            List.sort compare (Hashtbl.fold (fun ij () acc -> ij :: acc) pairs [])
          in
          List.iter
            (fun (i, j) ->
              found :=
                Graph.Dirty_read
                  { reader = ordered.(j).gid; aborted_writer = ordered.(i).gid; site }
                :: !found)
            site_pairs
        end)
      t.histories;
    List.rev !found

  let violations t =
    (match find_cycle t with Some c -> [ Graph.Cycle c ] | None -> []) @ dirty_reads t

  let recorded_locals t = t.locals
  let edge_count t = snd (edges t)
end

(* Property: the columnar graph agrees with the list-of-records oracle on
   random multi-site histories: reads, writes and increments, "__" marker
   keys, a key repeated within one local, compensations, and committed,
   aborted and never-decided gids, with the sites' records interleaved.
   Violations must match in order, as must edge counts and local counts. *)
let prop_columnar_graph_matches_lists =
  let open QCheck2 in
  let gen =
    (* a local: (site, gid, compensation, accesses); keys 0-4 of which 4 is
       a "__" marker, key 0 hot; outcomes: 0 committed, 1 aborted, 2 none *)
    Gen.(
      int_range 1 6 >>= fun n_gids ->
      let key = frequency [ (4, pure 0); (2, int_range 1 3); (1, pure 4) ] in
      let access = pair key (int_range 0 2) in
      let local =
        tup4 (int_range 0 3) (int_range 1 n_gids)
          (frequency [ (4, pure false); (1, pure true) ])
          (list_size (int_range 0 4) access)
      in
      triple (pure n_gids)
        (list_size (frequency [ (1, int_range 0 8); (3, int_range 20 60) ]) local)
        (list_repeat n_gids (frequency [ (3, pure 0); (2, pure 1); (1, pure 2) ])))
  in
  let print (n, locals, outcomes) =
    Printf.sprintf "gids=%d outcomes=[%s] locals=[%s]" n
      (String.concat ";" (List.map string_of_int outcomes))
      (String.concat "; "
         (List.map
            (fun (s, g, c, accs) ->
              Printf.sprintf "S%d g%d%s {%s}" s g
                (if c then " comp" else "")
                (String.concat ","
                   (List.map (fun (k, kind) -> Printf.sprintf "%d:%d" k kind) accs)))
            locals))
  in
  QCheck2.Test.make ~name:"columnar graph matches the list-of-records oracle" ~count:500
    ~print gen (fun (_, locals, outcomes) ->
      let access_of (key_i, kind_i) =
        let key = if key_i = 4 then "__cm:1" else Printf.sprintf "k%d" key_i in
        match kind_i with
        | 0 -> Db.Read { key; value = None }
        | 1 -> Db.Wrote { key; before = None; after = Some 1 }
        | _ -> Db.Incremented { key; delta = 1 }
      in
      let g = Graph.create () and oracle = Graph_lists.create () in
      List.iter
        (fun (s, gid, compensation, accs) ->
          let site = Printf.sprintf "S%d" s and accesses = List.map access_of accs in
          Graph.record_local g ~gid ~site ~compensation accesses;
          Graph_lists.record_local oracle ~gid ~site ~compensation accesses)
        locals;
      List.iteri
        (fun i o ->
          if o < 2 then begin
            Graph.record_outcome g ~gid:(i + 1) ~committed:(o = 0);
            Graph_lists.record_outcome oracle ~gid:(i + 1) ~committed:(o = 0)
          end)
        outcomes;
      Graph.violations g = Graph_lists.violations oracle
      && Graph.edge_count g = Graph_lists.edge_count oracle
      && Graph.recorded_locals g = Graph_lists.recorded_locals oracle)

(* Property: every marker key the protocols build parses back to its gid
   and seq, and keys that are no marker parse to [None]. *)
let prop_marker_keys_round_trip =
  QCheck2.Test.make ~name:"marker keys parse back to gid and seq" ~count:500
    QCheck2.Gen.(pair int int)
    (fun (gid, seq) ->
      Protocol_common.marker_of_key (Protocol_common.commit_marker ~gid) = Some (`Cm gid)
      && Protocol_common.marker_of_key (Protocol_common.undo_marker ~gid ~seq)
         = Some (`Um (gid, seq))
      && Protocol_common.marker_of_key (Protocol_common.action_marker ~gid ~seq)
         = Some (`Am (gid, seq))
      && List.for_all
           (fun key -> Protocol_common.marker_of_key key = None)
           [ "acct-001"; "__x:1"; "__cm:" ])

let () =
  Alcotest.run "core"
    [
      ( "2pc",
        [
          Alcotest.test_case "commit" `Quick test_2pc_commit;
          Alcotest.test_case "fig3 commit points" `Quick test_2pc_commit_points_fig3;
          Alcotest.test_case "unsupported site" `Quick test_2pc_unsupported_site;
          Alcotest.test_case "vote abort" `Quick test_2pc_vote_abort;
          Alcotest.test_case "execution failure" `Quick test_2pc_execution_failure_aborts_all;
          Alcotest.test_case "crash matrix atomicity" `Quick test_2pc_crash_matrix_atomicity;
        ] );
      ( "commit-after",
        [
          Alcotest.test_case "commit" `Quick test_after_commit;
          Alcotest.test_case "fig5 commit points" `Quick test_after_commit_points_fig5;
          Alcotest.test_case "repetition after erroneous abort" `Quick
            test_after_erroneous_abort_triggers_repetition;
          Alcotest.test_case "kill before ready" `Quick
            test_after_kill_before_ready_aborts_globally;
          Alcotest.test_case "crash matrix atomicity" `Quick test_after_crash_matrix_atomicity;
          Alcotest.test_case "global CC serializes" `Quick
            test_after_global_cc_blocks_conflicting_submission;
          Alcotest.test_case "occ validation failure repeats" `Quick
            test_after_occ_validation_failure_repeats;
        ] );
      ( "commit-before",
        [
          Alcotest.test_case "commit" `Quick test_before_commit;
          Alcotest.test_case "fig7 commit points" `Quick test_before_commit_points_fig7;
          Alcotest.test_case "mixed outcome compensates" `Quick
            test_before_mixed_outcome_compensates;
          Alcotest.test_case "waits for crashed site" `Quick
            test_before_crash_before_answer_waits_for_recovery;
          Alcotest.test_case "crash matrix atomicity" `Quick test_before_crash_matrix_atomicity;
        ] );
      ( "serializability-requirements",
        [
          Alcotest.test_case "before: dirty read without CC" `Quick
            test_before_dirty_read_without_global_cc;
          Alcotest.test_case "before: CC prevents dirty read" `Quick
            test_before_global_cc_prevents_dirty_read;
          Alcotest.test_case "after: order flip without CC" `Quick
            test_after_order_flip_without_global_cc;
          Alcotest.test_case "after: CC prevents order flip" `Quick
            test_after_global_cc_prevents_order_flip;
        ] );
      ( "mlt",
        [
          Alcotest.test_case "commit" `Quick test_mlt_commit;
          Alcotest.test_case "intended abort compensates" `Quick
            test_mlt_intended_abort_compensates;
          Alcotest.test_case "local failure compensates" `Quick
            test_mlt_local_failure_compensates;
          Alcotest.test_case "commuting actions concurrent" `Quick
            test_mlt_commuting_actions_concurrent;
          Alcotest.test_case "fig8 page-level vs mlt" `Quick test_fig8_page_level_vs_mlt;
        ] );
      ( "messages",
        [
          Alcotest.test_case "per-protocol counts" `Quick test_message_counts;
          Alcotest.test_case "per-protocol crash points" `Quick test_central_fail_points;
        ] );
      ( "graph",
        [
          Alcotest.test_case "conflict classification" `Quick
            test_graph_conflict_classification;
          Alcotest.test_case "cycle detection" `Quick test_graph_detects_cycle;
          Alcotest.test_case "serial order ok" `Quick test_graph_serial_order_ok;
          Alcotest.test_case "dirty read window" `Quick test_graph_dirty_read_window;
          Alcotest.test_case "edges linear in accesses" `Quick test_graph_edges_linear;
        ] );
      ( "action-log",
        [ Alcotest.test_case "append/entries/remove" `Quick test_action_log ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_graph_matches_bruteforce;
          QCheck_alcotest.to_alcotest prop_graph_matches_reference_oracle;
          QCheck_alcotest.to_alcotest prop_columnar_graph_matches_lists;
          QCheck_alcotest.to_alcotest prop_marker_keys_round_trip;
        ] );
    ]
