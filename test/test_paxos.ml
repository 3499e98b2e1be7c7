(* Tests for Paxos Commit over the replicated decision log: acceptor ballot
   rules, quorum durability with a replica down (F = 1), new-leader
   failover (completing a replicated commit, presuming abort on a silent
   quorum), recovery consulting the acceptor quorum and staying idempotent,
   the acceptors=1 == single-coordinator equivalence, the watchdog's
   silence on clean Paxos runs, and the acceptor-fault chaos campaign. *)

module Sim = Icdb_sim.Engine
module Fiber = Icdb_sim.Fiber
module Db = Icdb_localdb.Engine
module Site = Icdb_net.Site
module Federation = Icdb_core.Federation
module Central_recovery = Icdb_core.Central_recovery
module Paxos = Icdb_core.Paxos_commit
module Global = Icdb_core.Global
module Program = Icdb_localdb.Program
module Tpc = Icdb_core.Two_phase_commit
module Runner = Icdb_workload.Runner
module Protocol = Icdb_workload.Protocol
module Availability = Icdb_workload.Availability
module Campaign = Icdb_fault.Campaign
module Plan = Icdb_fault.Plan
module Registry = Icdb_obs.Registry

let outcome_testable = Alcotest.testable Global.pp_outcome ( = )

let site_cfg name =
  {
    (Db.default_config ~site_name:name) with
    capabilities =
      {
        supports_prepare = true;
        supports_increment_locks = true;
        granularity = Db.Record_level;
        cc = Locking { wait_timeout = Some 100.0 };
      };
  }

let make_fed ?(n = 3) eng =
  let configs = List.init n (fun i -> site_cfg (Printf.sprintf "s%d" i)) in
  Federation.create eng configs

let load_accounts fed rows = Federation.preload fed rows

let value fed site key = Db.committed_value (Site.db (Federation.site fed site)) key

let in_sim eng f =
  let result = ref None in
  let failure = ref None in
  Fiber.spawn eng ~on_error:(fun e -> failure := Some e) (fun () -> result := Some (f ()));
  Sim.run eng;
  match !failure with
  | Some e -> raise e
  | None -> Option.get !result

let spec fed sites =
  {
    Global.gid = Federation.fresh_gid fed;
    branches =
      List.map
        (fun (site, delta) ->
          Global.branch ~vote_commit:true ~site [ Program.Increment ("x", delta) ])
        sites;
  }

(* --- acceptor ballot rules ------------------------------------------------ *)

let test_acceptor_ballot_rules () =
  let eng = Sim.create () in
  let fed = make_fed eng in
  let a = Paxos.Acceptor.create (Federation.site fed "s0") in
  (* ballot 0 vote on a fresh instance *)
  Alcotest.(check bool) "ballot-0 accept" true
    (Paxos.Acceptor.receive_accept a ~gid:1 ~ballot:0 ~value:true);
  Alcotest.(check (option (pair int bool))) "vote recorded" (Some (0, true))
    (Paxos.Acceptor.accepted a ~gid:1);
  Alcotest.(check int) "one force" 1 (Paxos.Acceptor.forces a);
  (* a higher prepare promises and reports the vote *)
  (match Paxos.Acceptor.receive_prepare a ~gid:1 ~ballot:2 with
  | Paxos.Acceptor.Promised (Some (0, true)) -> ()
  | Paxos.Acceptor.Promised _ -> Alcotest.fail "promise lost the accepted vote"
  | Paxos.Acceptor.Rejected -> Alcotest.fail "higher ballot rejected");
  Alcotest.(check int) "promise forced" 2 (Paxos.Acceptor.forces a);
  (* stale ballots bounce off the promise *)
  Alcotest.(check bool) "stale accept refused" false
    (Paxos.Acceptor.receive_accept a ~gid:1 ~ballot:1 ~value:false);
  (match Paxos.Acceptor.receive_prepare a ~gid:1 ~ballot:2 with
  | Paxos.Acceptor.Rejected -> ()
  | Paxos.Acceptor.Promised _ -> Alcotest.fail "equal ballot re-promised");
  Alcotest.(check (option (pair int bool))) "vote unchanged" (Some (0, true))
    (Paxos.Acceptor.accepted a ~gid:1);
  (* the promised ballot itself may still vote *)
  Alcotest.(check bool) "promised ballot accepts" true
    (Paxos.Acceptor.receive_accept a ~gid:1 ~ballot:2 ~value:false);
  Alcotest.(check (option (pair int bool))) "higher vote wins" (Some (2, false))
    (Paxos.Acceptor.accepted a ~gid:1);
  (* instances are per gid *)
  (match Paxos.Acceptor.receive_prepare a ~gid:9 ~ballot:1 with
  | Paxos.Acceptor.Promised None -> ()
  | _ -> Alcotest.fail "fresh gid not fresh")

(* The acceptor as it was kept before its state became one packed int per
   gid: a record per instance in a hash table. The oracle for the column. *)
module Acceptor_oracle = struct
  type instance = { mutable promised : int; mutable accepted : (int * bool) option }
  type t = { instances : (int, instance) Hashtbl.t; mutable forces : int }

  let create () = { instances = Hashtbl.create 64; forces = 0 }

  let instance t ~gid =
    match Hashtbl.find_opt t.instances gid with
    | Some i -> i
    | None ->
      let i = { promised = -1; accepted = None } in
      Hashtbl.add t.instances gid i;
      i

  let accepted t ~gid =
    match Hashtbl.find_opt t.instances gid with Some i -> i.accepted | None -> None

  let receive_accept t ~gid ~ballot ~value =
    let i = instance t ~gid in
    if ballot >= i.promised then begin
      i.promised <- ballot;
      i.accepted <- Some (ballot, value);
      t.forces <- t.forces + 1;
      true
    end
    else false

  let receive_prepare t ~gid ~ballot =
    let i = instance t ~gid in
    if ballot > i.promised then begin
      i.promised <- ballot;
      t.forces <- t.forces + 1;
      Paxos.Acceptor.Promised i.accepted
    end
    else Paxos.Acceptor.Rejected
end

let max_ballot = (1 lsl 30) - 2

type acceptor_op =
  | Accept of { gid : int; ballot : int; value : bool }
  | Prepare of { gid : int; ballot : int }
  | Accepted of int

let pp_acceptor_op = function
  | Accept { gid; ballot; value } -> Printf.sprintf "accept g%d b%d %b" gid ballot value
  | Prepare { gid; ballot } -> Printf.sprintf "prepare g%d b%d" gid ballot
  | Accepted gid -> Printf.sprintf "accepted g%d" gid

(* Over random operation sequences the column and the oracle agree on every
   result and on [forces]. Ballots come mostly from 0..4, so equal, lower
   and higher ballots all recur on one gid, and now and then from the top
   of the encodable range; gids are small, around the column's first
   growth, or large and far apart, and whichever operation reaches a gid
   first makes first contact (often a prepare). *)
let prop_acceptor_column_matches_oracle =
  let open QCheck2 in
  let gen_gid = Gen.oneofl [ 0; 1; 2; 3; 63; 64; 65; 1_000; 70_001; 1_048_577 ] in
  let gen_ballot =
    Gen.frequency
      [ (8, Gen.int_range 0 4); (1, Gen.oneofl [ max_ballot - 1; max_ballot ]) ]
  in
  let gen_op =
    Gen.(
      frequency
        [
          ( 3,
            let* gid = gen_gid in
            let* ballot = gen_ballot in
            let* value = bool in
            return (Accept { gid; ballot; value }) );
          ( 3,
            let* gid = gen_gid in
            let* ballot = gen_ballot in
            return (Prepare { gid; ballot }) );
          (2, map (fun gid -> Accepted gid) gen_gid);
        ])
  in
  let print ops = String.concat "; " (List.map pp_acceptor_op ops) in
  QCheck2.Test.make ~name:"acceptor column matches the record oracle" ~count:500 ~print
    Gen.(list_size (1 -- 60) gen_op)
    (fun ops ->
      let eng = Sim.create () in
      let fed = make_fed ~n:1 eng in
      let col = Paxos.Acceptor.create (Federation.site fed "s0") in
      let ora = Acceptor_oracle.create () in
      List.iteri
        (fun step op ->
          let agree =
            match op with
            | Accept { gid; ballot; value } ->
              Paxos.Acceptor.receive_accept col ~gid ~ballot ~value
              = Acceptor_oracle.receive_accept ora ~gid ~ballot ~value
            | Prepare { gid; ballot } ->
              Paxos.Acceptor.receive_prepare col ~gid ~ballot
              = Acceptor_oracle.receive_prepare ora ~gid ~ballot
            | Accepted gid ->
              Paxos.Acceptor.accepted col ~gid = Acceptor_oracle.accepted ora ~gid
          in
          if not agree then
            QCheck2.Test.fail_reportf "step %d (%s): results differ" step (pp_acceptor_op op);
          if Paxos.Acceptor.forces col <> ora.forces then
            QCheck2.Test.fail_reportf "step %d (%s): forces %d, oracle %d" step
              (pp_acceptor_op op) (Paxos.Acceptor.forces col) ora.forces)
        ops;
      true)

let test_acceptor_ballot_range () =
  let eng = Sim.create () in
  let fed = make_fed eng in
  let a = Paxos.Acceptor.create (Federation.site fed "s0") in
  Alcotest.(check bool) "the top ballot votes" true
    (Paxos.Acceptor.receive_accept a ~gid:7 ~ballot:max_ballot ~value:true);
  Alcotest.(check (option (pair int bool))) "and reads back" (Some (max_ballot, true))
    (Paxos.Acceptor.accepted a ~gid:7);
  List.iter
    (fun ballot ->
      let raises f =
        match f () with _ -> false | exception Invalid_argument _ -> true
      in
      Alcotest.(check bool)
        (Printf.sprintf "accept at ballot %d raises" ballot)
        true
        (raises (fun () -> Paxos.Acceptor.receive_accept a ~gid:7 ~ballot ~value:false));
      Alcotest.(check bool)
        (Printf.sprintf "prepare at ballot %d raises" ballot)
        true
        (raises (fun () -> Paxos.Acceptor.receive_prepare a ~gid:7 ~ballot)))
    [ -1; max_ballot + 1; max_int ];
  Alcotest.(check (option (pair int bool))) "state untouched" (Some (max_ballot, true))
    (Paxos.Acceptor.accepted a ~gid:7);
  Alcotest.(check int) "no force for a refused ballot" 1 (Paxos.Acceptor.forces a)

(* --- quorum durability with a replica down -------------------------------- *)

let test_replicate_with_acceptor_down () =
  (* F = 1 of a 3-group down: the ballot-0 round still reaches a quorum and
     unblocks the leader; the crashed acceptor's fiber settles after its
     restart, so the engine drains clean. *)
  let eng = Sim.create () in
  let fed = make_fed eng in
  let p = Paxos.install fed ~acceptors:3 in
  let gid = Federation.fresh_gid fed in
  in_sim eng (fun () ->
      Site.crash_for (Federation.site fed "s2") ~duration:50.0;
      Paxos.replicate p ~gid ~commit:true;
      Alcotest.(check bool) "quorum reached before the restart" true
        (Sim.now eng < 50.0));
  Alcotest.(check (option bool)) "quorum remembers commit" (Some true)
    (Paxos.read_decision p ~gid);
  Alcotest.(check int) "one round" 1 (Paxos.rounds p);
  (* after the drain the restarted replica voted too *)
  Alcotest.(check int) "all three replicas forced" 3 (Paxos.acceptor_forces p)

let test_protocol_runs_over_paxos () =
  (* A full 2PC round with the replicator installed: committed, decision
     durable at the group, and not a single coordinator log force. *)
  let eng = Sim.create () in
  let fed = make_fed eng in
  let p = Paxos.install fed ~acceptors:3 in
  load_accounts fed [ ("x", 100) ];
  let outcome = in_sim eng (fun () -> Tpc.run fed (spec fed [ ("s0", 5); ("s1", -5) ])) in
  Alcotest.check outcome_testable "committed" Global.Committed outcome;
  Alcotest.(check (option int)) "s0 credited" (Some 105) (value fed "s0" "x");
  Alcotest.(check (option int)) "s1 debited" (Some 95) (value fed "s1" "x");
  Alcotest.(check int) "no coordinator force" 0 (Federation.log_forces fed fed.central);
  Alcotest.(check int) "one accept round" 1 (Paxos.rounds p);
  Alcotest.(check (option bool)) "group remembers commit" (Some true)
    (Paxos.read_decision p ~gid:1);
  Alcotest.(check int) "journal drained" 0 (Federation.total_journal_entries fed)

(* --- leader failover ------------------------------------------------------ *)

(* An in-doubt transaction: journal open, both branches prepared, nothing
   decided in the (dead) leader's own log. *)
let prepared_in_doubt fed =
  let gid = Federation.fresh_gid fed in
  Federation.journal_open_routed fed ~sites:[ "s0"; "s1" ] ~gid ~protocol:"2pc";
  let prep site_name delta =
    let db = Site.db (Federation.site fed site_name) in
    let txn = Db.begin_txn db in
    Result.get_ok (Db.increment db txn ~key:"x" ~delta);
    Result.get_ok (Db.prepare db txn);
    Federation.journal_branch fed ~gid ~site:site_name ~txn_id:(Db.txn_id txn);
    txn
  in
  let t0 = prep "s0" 5 in
  let t1 = prep "s1" (-5) in
  (gid, t0, t1)

let test_failover_completes_replicated_commit () =
  (* The leader replicated commit to the group and died before writing its
     own log or telling any branch. The new leader must learn the value
     from the quorum (phase 1), re-propose it at a higher ballot and push
     the commit — the transaction finishes without the old leader. *)
  let eng = Sim.create () in
  let fed = make_fed eng in
  let p = Paxos.install fed ~acceptors:3 in
  load_accounts fed [ ("x", 100) ];
  in_sim eng (fun () ->
      let gid, t0, t1 = prepared_in_doubt fed in
      Paxos.replicate p ~gid ~commit:true;
      Alcotest.(check (option bool)) "leader log silent" None
        (Federation.decision fed ~gid);
      Central_recovery.crash fed;
      fed.Federation.leader_failover ~gid;
      (* the failover fiber runs after its delay; wait it out *)
      Fiber.sleep eng 200.0;
      Alcotest.(check bool) "s0 committed" true (Db.state t0 = `Committed);
      Alcotest.(check bool) "s1 committed" true (Db.state t1 = `Committed);
      Alcotest.(check (option bool)) "decision logged by the new leader"
        (Some true) (Federation.decision fed ~gid));
  Alcotest.(check (option int)) "s0 credited" (Some 105) (value fed "s0" "x");
  Alcotest.(check (option int)) "s1 debited" (Some 95) (value fed "s1" "x");
  Alcotest.(check int) "failover counted" 1 (Paxos.failovers p);
  Alcotest.(check bool) "recovery ballot ran" true (Paxos.rounds p >= 2);
  Alcotest.(check int) "journal drained" 0 (Federation.total_journal_entries fed)

let test_failover_presumes_abort_on_silent_quorum () =
  (* The leader died before the accept round: no acceptor ever voted, so
     the new leader is free to choose and presumes abort. *)
  let eng = Sim.create () in
  let fed = make_fed eng in
  let p = Paxos.install fed ~acceptors:3 in
  load_accounts fed [ ("x", 100) ];
  in_sim eng (fun () ->
      let gid, t0, t1 = prepared_in_doubt fed in
      Central_recovery.crash fed;
      fed.Federation.leader_failover ~gid;
      Fiber.sleep eng 200.0;
      let aborted t = match Db.state t with `Aborted _ -> true | _ -> false in
      Alcotest.(check bool) "s0 rolled back" true (aborted t0);
      Alcotest.(check bool) "s1 rolled back" true (aborted t1);
      Alcotest.(check (option bool)) "abort logged" (Some false)
        (Federation.decision fed ~gid);
      Alcotest.(check (option bool)) "abort durable at the group" (Some false)
        (Paxos.read_decision p ~gid));
  Alcotest.(check (option int)) "s0 unchanged" (Some 100) (value fed "s0" "x");
  Alcotest.(check (option int)) "s1 unchanged" (Some 100) (value fed "s1" "x");
  Alcotest.(check int) "journal drained" 0 (Federation.total_journal_entries fed)

let test_failover_noop_on_settled_gid () =
  (* A failover raced by the transaction finishing normally must leave
     everything alone (and drive no recovery ballot). *)
  let eng = Sim.create () in
  let fed = make_fed eng in
  let p = Paxos.install fed ~acceptors:3 in
  load_accounts fed [ ("x", 100) ];
  in_sim eng (fun () ->
      let outcome = Tpc.run fed (spec fed [ ("s0", 5); ("s1", -5) ]) in
      Alcotest.check outcome_testable "committed" Global.Committed outcome;
      let rounds_before = Paxos.rounds p in
      fed.Federation.leader_failover ~gid:1;
      Fiber.sleep eng 200.0;
      Alcotest.(check int) "no recovery ballot" rounds_before (Paxos.rounds p));
  Alcotest.(check (option int)) "value stable" (Some 105) (value fed "s0" "x");
  Alcotest.(check (option bool)) "decision stable" (Some true)
    (Federation.decision fed ~gid:1)

(* --- restart recovery over acceptor logs ---------------------------------- *)

let test_recover_consults_quorum_and_stays_idempotent () =
  (* Restart recovery (the old path, no failover) finds an Executing entry
     whose decision lives only at the acceptor group: it must complete the
     commit — not presume abort — and a second pass must find nothing. *)
  let eng = Sim.create () in
  let fed = make_fed eng in
  let p = Paxos.install fed ~acceptors:3 in
  load_accounts fed [ ("x", 100) ];
  in_sim eng (fun () ->
      let gid, t0, _t1 = prepared_in_doubt fed in
      Paxos.replicate p ~gid ~commit:true;
      Central_recovery.crash fed;
      let s = Central_recovery.recover fed in
      Alcotest.(check int) "entry recovered" 1 s.entries_recovered;
      Alcotest.(check bool) "committed from the quorum" true
        (Db.state t0 = `Committed);
      let again = Central_recovery.recover fed in
      Alcotest.(check int) "second pass finds nothing" 0 again.entries_recovered);
  Alcotest.(check (option int)) "s0 credited" (Some 105) (value fed "s0" "x");
  Alcotest.(check (option int)) "s1 debited" (Some 95) (value fed "s1" "x");
  Alcotest.(check int) "journal drained" 0 (Federation.total_journal_entries fed)

(* --- configuration validation --------------------------------------------- *)

let test_group_size_validated () =
  let invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  let eng = Sim.create () in
  let fed = make_fed eng in
  Alcotest.(check bool) "even group refused" true
    (invalid (fun () -> Paxos.install fed ~acceptors:2));
  Alcotest.(check bool) "group larger than the federation refused" true
    (invalid (fun () -> Paxos.install fed ~acceptors:5));
  Alcotest.(check bool) "runner refuses even acceptors" true
    (invalid (fun () -> Runner.run { Runner.default with acceptors = 2 }));
  Alcotest.(check bool) "runner refuses acceptors > sites" true
    (invalid (fun () ->
         Runner.run { Runner.default with n_sites = 3; acceptors = 5 }))

(* --- acceptors=1 is the single-coordinator system ------------------------- *)

let test_acceptors1_report_identical () =
  (* acceptors = 1 installs nothing: two runs of the same config are
     byte-identical and every paxos column is zero — the report equality
     the CI byte-identity diff checks end to end. *)
  let cfg = { Runner.default with n_txns = 60; concurrency = 8; acceptors = 1 } in
  let r1 = Runner.run cfg in
  let r2 = Runner.run cfg in
  Alcotest.(check bool) "reports equal" true (r1 = r2);
  Alcotest.(check int) "no paxos rounds" 0 r1.Runner.paxos_rounds;
  Alcotest.(check int) "no acceptor forces" 0 r1.Runner.paxos_acceptor_forces;
  Alcotest.(check int) "no failovers" 0 r1.Runner.paxos_failovers

(* --- equivalence (QCheck2) ------------------------------------------------ *)

(* Over protocols and seeds, on the fixed-spec fault-free workload: the
   replicated decision log changes not a single outcome — acceptors=3
   produces byte-identical outcome lists to acceptors=1, conserves money
   and stays serializable, while actually driving accept rounds. *)
let prop_paxos_outcomes_equal_single_coordinator =
  let open QCheck2 in
  let gen =
    Gen.(
      let* protocol = oneofl Protocol.all in
      let* seed = 1 -- 1000 in
      return (protocol, seed))
  in
  let print (protocol, seed) =
    Printf.sprintf "protocol=%s seed=%d" (Protocol.name protocol) seed
  in
  QCheck2.Test.make ~name:"paxos outcomes equal single-coordinator outcomes"
    ~count:25 ~print gen (fun (protocol, seed) ->
      let run acceptors =
        Runner.run ~fixed_specs:true
          {
            Runner.fixed_spec_default with
            protocol;
            seed = Int64.of_int seed;
            n_txns = 40;
            acceptors;
          }
      in
      let base = run 1 in
      let paxos = run 3 in
      if base.outcomes <> paxos.outcomes then
        QCheck2.Test.fail_reportf "outcomes diverged";
      if not (paxos.money_conserved && paxos.serializable) then
        QCheck2.Test.fail_reportf "paxos run broke an invariant";
      if base.paxos_acceptor_forces <> 0 then
        QCheck2.Test.fail_reportf "acceptors=1 forced an acceptor log";
      if paxos.committed > 0 && paxos.paxos_acceptor_forces = 0
      then QCheck2.Test.fail_reportf "acceptors=3 never forced an acceptor log";
      true)

(* Restart recovery stays idempotent when the decision survives only in
   acceptor logs, whatever subset of in-doubt transactions got replicated. *)
let prop_recovery_idempotent_with_acceptor_logs =
  let open QCheck2 in
  let gen =
    Gen.(
      let* n_txns = 1 -- 5 in
      let* mask = 0 -- 31 in
      return (n_txns, mask))
  in
  let print (n_txns, mask) = Printf.sprintf "txns=%d mask=%d" n_txns mask in
  QCheck2.Test.make ~name:"double recovery no-op over acceptor logs" ~count:30
    ~print gen (fun (n_txns, mask) ->
      let eng = Sim.create () in
      let fed = make_fed eng in
      let p = Paxos.install fed ~acceptors:3 in
      load_accounts fed [ ("x", 100) ];
      in_sim eng (fun () ->
          for i = 0 to n_txns - 1 do
            let gid, _, _ = prepared_in_doubt fed in
            (* replicate commit for the masked subset; leave the rest
               in doubt with a silent quorum (presumed abort) *)
            if (mask lsr i) land 1 = 1 then Paxos.replicate p ~gid ~commit:true
          done;
          Central_recovery.crash fed;
          let s1 = Central_recovery.recover fed in
          if s1.entries_recovered <> n_txns then
            QCheck2.Test.fail_reportf "recovered %d of %d" s1.entries_recovered
              n_txns;
          let s2 = Central_recovery.recover fed in
          if
            s2.entries_recovered <> 0 || s2.decisions_pushed <> 0
            || s2.locals_aborted <> 0 || s2.branches_redone <> 0
            || s2.branches_undone <> 0
          then QCheck2.Test.fail_reportf "second recovery repaired again");
      Federation.total_journal_entries fed = 0)

(* --- watchdog silence on clean Paxos runs (satellite: monitor tuning) ----- *)

let test_clean_paxos_run_is_monitor_silent () =
  (* A fault-free plan under acceptors=3: zero violations and not a single
     monitor trip — replication latency and quorum waits must not look like
     stuck transactions to the watchdog. *)
  List.iter
    (fun protocol ->
      let o = Campaign.run_plan ~acceptors:3 ~protocol Plan.empty in
      Alcotest.(check int)
        ("violations under " ^ Protocol.name protocol)
        0
        (List.length o.Campaign.violations);
      Alcotest.(check int)
        ("monitor trips under " ^ Protocol.name protocol)
        0
        (List.length o.Campaign.trips))
    Protocol.all

let test_leader_failover_not_stuck () =
  (* A central crash under Paxos triggers a failover pause; the widened
     watchdog horizon must not read it as a stuck transaction, and the
     invariants must hold through the takeover. *)
  let plan =
    { Plan.plan_seed = 0L; events = [ Plan.Central_crash { txn = 3; phase_idx = 1 } ] }
  in
  let o = Campaign.run_plan ~acceptors:3 ~protocol:Protocol.Two_phase plan in
  Alcotest.(check int) "no violations" 0 (List.length o.Campaign.violations);
  Alcotest.(check int) "no monitor trips" 0 (List.length o.Campaign.trips);
  Alcotest.(check int) "the injected crash killed one coordinator" 1 o.Campaign.killed

(* --- failover compensation with a branch site down ------------------------ *)

(* Shrunken plans from `icdb chaos --plans 100 --seed 7 --acceptors 3 -p
   before --shrink`. The coordinator dies right after execution, and site-0
   (as a site, then as acceptor 0) goes down before the new leader presumes
   abort. The takeover must wait for site-0 to restart before it reads the
   branch's commit marker: read on the down site, the marker is missing,
   the committed branch goes uncompensated and money is not conserved. *)
let check_failover_compensates events =
  let plan = { Plan.plan_seed = 0L; events } in
  let o = Campaign.run_plan ~seed:7L ~acceptors:3 ~protocol:Protocol.Before plan in
  Alcotest.(check (list string)) "no violations" []
    (List.map (Format.asprintf "%a" Campaign.pp_violation) o.Campaign.violations);
  Alcotest.(check int) "the injected crash killed one coordinator" 1 o.Campaign.killed

let test_failover_compensates_with_site_down () =
  check_failover_compensates
    [
      Plan.Central_crash { txn = 18; phase_idx = 0 };
      Plan.Site_crash { site = 0; at = 69.0; duration = 43.4 };
    ]

let test_failover_compensates_with_acceptor_down () =
  check_failover_compensates
    [
      Plan.Central_crash { txn = 20; phase_idx = 0 };
      Plan.Acceptor_crash { acceptor = 0; at = 68.4; duration = 21.7 };
    ]

(* --- duplication accounting (satellite: Link.rpc audit) ------------------- *)

let test_single_duplication_event_counts_once () =
  (* One armed Duplication event must bump
     icdb_fault_injected_total{duplication} exactly once, duplicated
     deliveries and journal-close evictions notwithstanding. *)
  let registry = Registry.create () in
  let plan =
    {
      Plan.plan_seed = 0L;
      events =
        [ Plan.Duplication { site = 0; at = 5.0; duration = 100.0; probability = 0.9 } ];
    }
  in
  let o = Campaign.run_plan ~registry ~protocol:Protocol.Two_phase plan in
  Alcotest.(check int) "no violations" 0 (List.length o.Campaign.violations);
  Alcotest.(check int) "duplication injected once" 1
    (Registry.count
       (Registry.counter registry ~labels:[ ("kind", "duplication") ]
          "icdb_fault_injected_total"))

(* --- acceptor counts the campaign federation cannot host -------------------- *)

let test_campaign_rejects_impossible_acceptors () =
  let ok ?shards acceptors = Campaign.check_config ?shards ~acceptors () = Ok () in
  Alcotest.(check (list bool)) "3 sites: 1 and 3 only"
    [ false; true; false; true; false; false ]
    (List.map ok [ 0; 1; 2; 3; 4; 5 ]);
  Alcotest.(check (list bool)) "4 sites with shards: 1 and 3 only"
    [ true; false; true; false; false ]
    (List.map (ok ~shards:2) [ 1; 2; 3; 4; 5 ]);
  Alcotest.(check (result unit string)) "the error names the range"
    (Error "acceptors must be odd and in 1..4 (4 sites), not 5")
    (Campaign.check_config ~shards:2 ~acceptors:5 ());
  (* refused before the first plan runs: no stats, no crashed runs *)
  match Campaign.run_campaign ~plans:100 ~shards:2 ~acceptors:5 Protocol.all with
  | _ -> Alcotest.fail "acceptors=5 on 4 sites accepted"
  | exception Invalid_argument _ -> ()

(* --- plan generator ------------------------------------------------------- *)

let test_plan_generator_extends_classes () =
  (* The Paxos generator draws acceptor crashes; the default one never
     does, and keeps reproducing historical plans byte for byte. *)
  let with_acceptors =
    List.init 200 (fun i ->
        Plan.generate ~acceptors:3 ~seed:(Int64.of_int i) ~n_sites:4 ~n_txns:30
          ~horizon:300.0 ())
  in
  let has_acceptor_crash p =
    List.exists (fun e -> Plan.classify e = "acceptor-crash") p.Plan.events
  in
  Alcotest.(check bool) "some plans carry acceptor crashes" true
    (List.exists has_acceptor_crash with_acceptors);
  let default =
    List.init 200 (fun i ->
        Plan.generate ~seed:(Int64.of_int i) ~n_sites:4 ~n_txns:30 ~horizon:300.0 ())
  in
  Alcotest.(check bool) "default generator never draws them" false
    (List.exists has_acceptor_crash default);
  let explicit_one =
    List.init 200 (fun i ->
        Plan.generate ~acceptors:1 ~seed:(Int64.of_int i) ~n_sites:4 ~n_txns:30
          ~horizon:300.0 ())
  in
  Alcotest.(check bool) "acceptors=1 generator is the default one" true
    (explicit_one = default)

(* --- availability lab ----------------------------------------------------- *)

let test_a1_blocking_verdict () =
  (* The A1 part-B scenario in miniature: under the scripted F=1
     leader+acceptor crash, the Paxos run settles the victim mid-run, the
     single-coordinator baseline only at post-run restart recovery. *)
  let base = Availability.blocking_run ~acceptors:1 ~n_txns:30 ~seed:42L in
  let paxos = Availability.blocking_run ~acceptors:3 ~n_txns:30 ~seed:42L in
  Alcotest.(check bool) "baseline blocks until recovery" false
    base.Availability.br_resolved_mid_run;
  Alcotest.(check bool) "paxos resolves mid-run" true
    paxos.Availability.br_resolved_mid_run;
  Alcotest.(check bool) "paxos window is shorter" true
    (paxos.Availability.br_close_time -. paxos.Availability.br_crash_time
    < base.Availability.br_close_time -. base.Availability.br_crash_time)

(* --- acceptor chaos campaign ---------------------------------------------- *)

let test_acceptor_chaos_campaign () =
  (* 30 plans x all six protocols with acceptor crashes and leader
     failovers in the mix: zero invariant violations, zero monitor trips. *)
  let stats = Campaign.run_campaign ~plans:30 ~acceptors:3 Protocol.all in
  Alcotest.(check int) "six protocols" 6 (List.length stats);
  List.iter
    (fun (s : Campaign.protocol_stats) ->
      Alcotest.(check bool)
        ("acceptor-crash events drawn for " ^ Protocol.name s.cp_protocol)
        true
        (match List.assoc_opt "acceptor-crash" s.cp_by_class with
        | Some n -> n > 0
        | None -> false);
      Alcotest.(check (list (triple string int (float 0.0))))
        ("monitor silent for " ^ Protocol.name s.cp_protocol)
        [] s.cp_trips)
    stats;
  Alcotest.(check int) "zero violations" 0 (Campaign.total_violations stats)

let () =
  Alcotest.run "icdb paxos"
    [
      ( "acceptor",
        [
          Alcotest.test_case "ballot rules" `Quick test_acceptor_ballot_rules;
          Alcotest.test_case "ballot range" `Quick test_acceptor_ballot_range;
          QCheck_alcotest.to_alcotest prop_acceptor_column_matches_oracle;
          Alcotest.test_case "group size validated" `Quick test_group_size_validated;
        ] );
      ( "replication",
        [
          Alcotest.test_case "quorum durable with a replica down" `Quick
            test_replicate_with_acceptor_down;
          Alcotest.test_case "2pc commits over the group" `Quick
            test_protocol_runs_over_paxos;
        ] );
      ( "failover",
        [
          Alcotest.test_case "completes a replicated commit" `Quick
            test_failover_completes_replicated_commit;
          Alcotest.test_case "presumes abort on a silent quorum" `Quick
            test_failover_presumes_abort_on_silent_quorum;
          Alcotest.test_case "no-op on a settled gid" `Quick
            test_failover_noop_on_settled_gid;
          Alcotest.test_case "compensates with a site down" `Quick
            test_failover_compensates_with_site_down;
          Alcotest.test_case "compensates with an acceptor down" `Quick
            test_failover_compensates_with_acceptor_down;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "consults the quorum, idempotent" `Quick
            test_recover_consults_quorum_and_stays_idempotent;
          QCheck_alcotest.to_alcotest prop_recovery_idempotent_with_acceptor_logs;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "acceptors=1 report identical and paxos-free" `Quick
            test_acceptors1_report_identical;
          QCheck_alcotest.to_alcotest prop_paxos_outcomes_equal_single_coordinator;
        ] );
      ( "monitors",
        [
          Alcotest.test_case "clean paxos runs are monitor-silent" `Quick
            test_clean_paxos_run_is_monitor_silent;
          Alcotest.test_case "leader failover is not stuck" `Quick
            test_leader_failover_not_stuck;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "duplication event counts once" `Quick
            test_single_duplication_event_counts_once;
          Alcotest.test_case "plan generator gains acceptor crashes" `Quick
            test_plan_generator_extends_classes;
          Alcotest.test_case "30 plans x 6 protocols, acceptors=3" `Slow
            test_acceptor_chaos_campaign;
          Alcotest.test_case "impossible acceptor counts rejected" `Quick
            test_campaign_rejects_impossible_acceptors;
        ] );
      ( "availability",
        [ Alcotest.test_case "a1 blocking verdict" `Quick test_a1_blocking_verdict ] );
    ]
