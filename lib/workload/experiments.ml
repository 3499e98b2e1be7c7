module Sim = Icdb_sim.Engine
module Fiber = Icdb_sim.Fiber
module Trace = Icdb_sim.Trace
module Rng = Icdb_util.Rng
module Table = Icdb_util.Table
module Db = Icdb_localdb.Engine
module Program = Icdb_localdb.Program
module Site = Icdb_net.Site
module Action = Icdb_mlt.Action
module Federation = Icdb_core.Federation
module Global = Icdb_core.Global
module Graph = Icdb_core.Serialization_graph
module Metrics = Icdb_core.Metrics
module Action_log = Icdb_core.Action_log
module Tpc = Icdb_core.Two_phase_commit
module After = Icdb_core.Commit_after
module Before = Icdb_core.Commit_before
module Mlt = Icdb_core.Commit_before_mlt

(* --- shared scaffolding ------------------------------------------------- *)

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
  let configs =
    List.init n (fun i -> site_cfg ~prepare ?granularity (Printf.sprintf "s%d" i))
  in
  Federation.create eng ?trace configs

let load fed rows = Federation.preload fed rows

let in_sim eng f =
  let result = ref None in
  Fiber.spawn eng (fun () -> result := Some (f ()));
  Sim.run eng;
  Option.get !result

let transfer_spec fed ?(vote0 = true) ?(vote1 = true) ?(amount = 5) key =
  {
    Global.gid = Federation.fresh_gid fed;
    branches =
      [
        Global.branch ~vote_commit:vote0 ~site:"s0" [ Program.Increment (key, amount) ];
        Global.branch ~vote_commit:vote1 ~site:"s1" [ Program.Increment (key, -amount) ];
      ];
  }

(* [transfer_spec fed "x"] under [protocol]; MLT moves the same 5 as a
   deposit at s0 and a withdrawal at s1. *)
let run_transfer protocol fed =
  match protocol with
  | Protocol.Before_mlt ->
    Mlt.run fed
      {
        Global.mlt_gid = Federation.fresh_gid fed;
        actions =
          [
            Action.deposit ~site:"s0" ~account:"x" 5;
            Action.withdraw ~site:"s1" ~account:"x" 5;
          ];
        abort_after = None;
      }
  | flat -> Protocol.run_flat flat fed (transfer_spec fed "x")

let value fed site key = Db.committed_value (Site.db (Federation.site fed site)) key

let kill_running_at eng fed ~site ~at =
  ignore
    (Sim.schedule eng ~delay:at (fun () ->
         let db = Site.db (Federation.site fed site) in
         List.iter (Db.kill db) (Db.running_transactions db)))

let heading title =
  Printf.sprintf "%s\n%s\n" title (String.make (String.length title) '=')

let fmt = Table.fmt_float
let fmti = Table.fmt_int

(* --- F2/F4/F6: protocol state-and-message traces ------------------------ *)

let trace_of run_commit run_abort title =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (heading title);
  let show label f =
    let eng = Sim.create () in
    let fed = make_fed ~trace:(Trace.create eng) eng in
    load fed [ ("x", 100) ];
    let outcome = in_sim eng (fun () -> f fed) in
    Buffer.add_string buf (Printf.sprintf "\n--- %s (outcome: %s) ---\n" label
        (Global.outcome_to_string outcome));
    Buffer.add_string buf (Trace.render fed.trace);
    Buffer.add_string buf
      (Printf.sprintf "messages by label: %s\n"
         (String.concat ", "
            (List.map
               (fun (l, n) -> Printf.sprintf "%s=%d" l n)
               (Federation.messages_by_label fed))))
  in
  show "commit path" run_commit;
  show "abort path" run_abort;
  Buffer.contents buf

let fig2 () =
  trace_of
    (fun fed -> Tpc.run fed (transfer_spec fed "x"))
    (fun fed -> Tpc.run fed (transfer_spec fed ~vote1:false "x"))
    "F2 - Two-phase commit: states and messages (paper Figure 2)"

let fig4 () =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (trace_of
       (fun fed -> After.run fed (transfer_spec fed "x"))
       (fun fed -> After.run fed (transfer_spec fed ~vote1:false "x"))
       "F4 - Commitment after the global decision (paper Figure 4)");
  (* The defining path: erroneous local abort after "ready" -> repetition. *)
  let eng = Sim.create () in
  let fed = make_fed ~trace:(Trace.create eng) eng in
  load fed [ ("x", 100) ];
  kill_running_at eng fed ~site:"s0" ~at:6.5;
  let outcome = in_sim eng (fun () -> After.run fed (transfer_spec fed "x")) in
  Buffer.add_string buf
    (Printf.sprintf
       "\n--- erroneous abort after ready -> redo (outcome: %s, repetitions: %d) ---\n"
       (Global.outcome_to_string outcome)
       (Metrics.repetitions fed.metrics));
  Buffer.add_string buf (Trace.render fed.trace);
  Buffer.contents buf

let fig6 () =
  trace_of
    (fun fed -> Before.run fed (transfer_spec fed "x"))
    (fun fed -> Before.run fed (transfer_spec fed ~vote1:false "x"))
    "F6 - Commitment before the global decision (paper Figure 6)"

(* --- F3/F5/F7: commit-point ordering ------------------------------------ *)

let commit_points title expectation run =
  let eng = Sim.create () in
  let fed = make_fed ~trace:(Trace.create eng) eng in
  load fed [ ("x", 100) ];
  ignore (in_sim eng (fun () -> run fed));
  let t actor label = Trace.find fed.trace ~actor ~label in
  let decision = Option.get (t "central" "g1:decision:commit") in
  let table =
    Table.create ~title
      [ "site"; "ready/local-commit"; "global decision"; "final commit"; "ordering" ]
  in
  List.iter
    (fun site ->
      let ready =
        match t site "g1:ready" with
        | Some v -> v
        | None -> Option.get (t site "g1:locally-committed")
      in
      let committed =
        match t site "g1:committed" with
        | Some v -> v
        | None -> Option.get (t site "g1:locally-committed")
      in
      let ordering =
        if ready < decision && decision < committed then "ready < decision < commit"
        else if committed <= decision then "local commit < decision"
        else if decision <= ready then "decision < local work"
        else "?"
      in
      Table.add_row table [ site; fmt ready; fmt decision; fmt committed; ordering ])
    [ "s0"; "s1" ];
  heading expectation ^ Table.render table

let fig3 () =
  commit_points "F3 - 2PC commit points"
    "F3 - Decision in the middle of local commitment (paper Figure 3)"
    (fun fed -> Tpc.run fed (transfer_spec fed "x"))

let fig5 () =
  commit_points "F5 - commit-after commit points"
    "F5 - Decision before every local commit (paper Figure 5)"
    (fun fed -> After.run fed (transfer_spec fed "x"))

let fig7 () =
  commit_points "F7 - commit-before commit points"
    "F7 - Every local commit before the decision (paper Figure 7)"
    (fun fed -> Before.run fed (transfer_spec fed "x"))

(* --- F8: two-level transactions vs page-level single-level -------------- *)

let fig8 () =
  (* N concurrent transfers over records sharing one page of a single
     page-granularity site. Single-level: each global transaction is one
     flat local transaction holding the page lock until the global end
     (2PC). Two-level: every increment is its own L0 transaction; L1
     increment locks commute. *)
  let n_txns = 8 in
  let records = [ ("x", 0); ("y", 0); ("z", 0); ("w", 0) ] in
  let keys = Array.of_list (List.map fst records) in
  let run_variant make_txn =
    let eng = Sim.create () in
    let fed = make_fed ~n:1 ~granularity:Db.Page_level eng in
    load fed records;
    let rng = Rng.create 7L in
    let finish = ref 0.0 in
    Fiber.spawn eng (fun () ->
        ignore
          (Fiber.all eng
             (List.init n_txns (fun _ ->
                  let k1 = Rng.pick rng keys and k2 = Rng.pick rng keys in
                  fun () -> make_txn fed k1 k2)));
        finish := Sim.now eng);
    Sim.run eng;
    (fed, !finish)
  in
  let flat_fed, flat_makespan =
    run_variant (fun fed k1 k2 ->
        let spec =
          {
            Global.gid = Federation.fresh_gid fed;
            branches =
              [
                Global.branch ~site:"s0"
                  [ Program.Increment (k1, 1); Program.Increment (k2, 1) ];
              ];
          }
        in
        ignore (Tpc.run fed spec))
  in
  let mlt_fed, mlt_makespan =
    run_variant (fun fed k1 k2 ->
        let spec =
          {
            Global.mlt_gid = Federation.fresh_gid fed;
            actions =
              [ Action.increment ~site:"s0" ~key:k1 1; Action.increment ~site:"s0" ~key:k2 1 ];
            abort_after = None;
          }
        in
        ignore (Mlt.run fed spec))
  in
  let table =
    Table.create ~title:(Printf.sprintf "F8 - %d concurrent increment txns, records co-located on one page" n_txns)
      [ "variant"; "makespan"; "txns/1000tu"; "mean L0 lock hold"; "p95 L0 lock hold" ]
  in
  let row name fed makespan =
    Table.add_row table
      [
        name;
        fmt makespan;
        fmt (float_of_int n_txns /. makespan *. 1000.0);
        fmt (Metrics.mean_hold_time fed.Federation.metrics);
        fmt (Metrics.p95_hold_time fed.Federation.metrics);
      ]
  in
  row "single-level (flat 2PC, page locks to global end)" flat_fed flat_makespan;
  row "two-level (MLT commit-before, short L0 page locks)" mlt_fed mlt_makespan;
  heading "F8 - Increased concurrency of multi-level transactions (paper Figure 8)"
  ^ Table.render table
  ^ Printf.sprintf "speedup (makespan): %s\n" (Table.fmt_ratio flat_makespan mlt_makespan)

(* --- V1: lock hold times and throughput --------------------------------- *)

let runner_cfg protocol =
  {
    Runner.default with
    protocol;
    n_txns = 150;
    concurrency = 12;
    accounts_per_site = 16;
    zipf_theta = 0.9;
  }

(* Appends a separator before every group except the first. *)
let group_separator table =
  let first = ref true in
  fun () ->
    if !first then first := false else Table.add_separator table

let v1 () =
  let table =
    Table.create
      ~title:
        "V1 - Local lock hold time and throughput under read/write contention (200 \
         txns, 16 workers, 8 hot accounts/site, zipf 1.1)"
      [ "protocol"; "sites"; "tput/1000tu"; "mean hold"; "p95 hold"; "mean resp"; "lock waits" ]
  in
  let sep = group_separator table in
  List.iter
    (fun n_sites ->
      sep ();
      List.iter
        (fun protocol ->
          let r =
            Runner.run
              {
                (runner_cfg protocol) with
                n_sites;
                n_txns = 200;
                concurrency = 16;
                accounts_per_site = 8;
                zipf_theta = 1.1;
                (* increments commute everywhere; real lock conflicts need
                   a read/write mix *)
                use_increments = false;
                read_fraction = 0.5;
              }
          in
          Table.add_row table
            [
              Protocol.name protocol;
              fmti n_sites;
              fmt r.throughput;
              fmt r.mean_hold;
              fmt r.p95_hold;
              fmt r.mean_response;
              fmti r.local_lock_waits;
            ])
        Protocol.paper)
    [ 2; 4; 8 ];
  heading "V1 - \"commit-after holds local locks until the global end\" (§4.3)"
  ^ Table.render table

(* --- V2: failure-rate sweep (repetitions) -------------------------------- *)

let v2 () =
  let table =
    Table.create
      ~title:"V2 - Spontaneous local-abort sweep (kills injected by local systems)"
      [ "protocol"; "p(kill)"; "committed"; "aborted"; "repetitions"; "compensations"; "tput" ]
  in
  let sep = group_separator table in
  List.iter
    (fun p ->
      sep ();
      List.iter
        (fun protocol ->
          let r =
            Runner.run
              { (runner_cfg protocol) with p_spontaneous = p; n_txns = 200 }
          in
          Table.add_row table
            [
              Protocol.name protocol;
              fmt p;
              fmti r.committed;
              fmti r.aborted;
              fmti r.repetitions;
              fmti r.compensations;
              fmt r.throughput;
            ])
        [ Protocol.Two_phase; Protocol.After; Protocol.Before ])
    [ 0.0; 0.05; 0.1; 0.2; 0.4 ];
  heading "V2 - \"commit-after degrades when locals must be repeated\" (§3.2/§4.3)"
  ^ Table.render table

(* --- V3: intended-abort sweep (compensations) ----------------------------- *)

let v3 () =
  let table =
    Table.create
      ~title:"V3 - Intended-abort sweep (transactions that decide to abort)"
      [ "protocol"; "p(abort)"; "committed"; "aborted"; "compensations"; "tput"; "mean resp" ]
  in
  let sep = group_separator table in
  List.iter
    (fun p ->
      sep ();
      List.iter
        (fun protocol ->
          let r =
            Runner.run
              { (runner_cfg protocol) with p_intended_abort = p; n_txns = 200 }
          in
          Table.add_row table
            [
              Protocol.name protocol;
              fmt p;
              fmti r.committed;
              fmti r.aborted;
              fmti r.compensations;
              fmt r.throughput;
              fmt r.mean_response;
            ])
        [ Protocol.After; Protocol.Before; Protocol.Before_mlt ])
    [ 0.0; 0.05; 0.1; 0.2; 0.4 ];
  heading
    "V3 - \"intended aborts are handled better by commit-after; commit-before pays in \
     inverse transactions\" (§4.3)"
  ^ Table.render table

(* --- V4: additional-components ablation ---------------------------------- *)

let v4 () =
  let table =
    Table.create
      ~title:"V4 - Additional components per committed transaction (200 txns)"
      [
        "protocol";
        "addl CC acq/txn";
        "addl undo-log wr/txn";
        "redo-log wr/txn";
        "L1 lock acq/txn (inherent)";
        "L1 undo-log wr/txn (inherent)";
        "tput";
      ]
  in
  List.iter
    (fun protocol ->
      let r = Runner.run { (runner_cfg protocol) with n_txns = 200 } in
      let per x = fmt (float_of_int x /. float_of_int (max 1 r.committed)) in
      Table.add_row table
        [
          Protocol.name protocol;
          per r.global_cc_acquisitions;
          per r.undo_log_writes;
          per r.redo_log_writes;
          per r.l1_acquisitions;
          per r.mlt_log_writes;
          fmt r.throughput;
        ])
    [ Protocol.After; Protocol.Before; Protocol.Before_mlt ];
  heading
    "V4 - \"no additional concurrency control and recovery modules are needed\" with MLT \
     (§4.3)"
  ^ Table.render table

(* --- V5: message complexity ----------------------------------------------- *)

let v5 () =
  let table =
    Table.create ~title:"V5 - Messages per committed global transaction (failure-free)"
      [ "protocol"; "branches"; "messages/commit"; "expected" ]
  in
  let sep = group_separator table in
  List.iter
    (fun branches ->
      sep ();
      List.iter
        (fun protocol ->
          let r =
            Runner.run
              {
                (runner_cfg protocol) with
                n_sites = 8;
                branches_per_txn = branches;
                n_txns = 60;
                concurrency = 4;
                zipf_theta = 0.0;
              }
          in
          let expected =
            match protocol with
            | Protocol.Two_phase | Protocol.Presumed_abort | Protocol.After ->
              6 * branches
            | Protocol.Before | Protocol.Before_mlt -> 4 * branches
            | Protocol.Hybrid -> 5 * branches
          in
          Table.add_row table
            [
              Protocol.name protocol;
              fmti branches;
              fmt r.messages_per_committed;
              Printf.sprintf "%dn (exec 2n + commit %dn)" (expected / branches)
                ((expected / branches) - 2);
            ])
        Protocol.paper)
    [ 1; 2; 4 ];
  heading "V5 - Message complexity: 4n commit messages (2PC/after) vs 2n (before)"
  ^ Table.render table

(* --- V6: crash-window matrix ---------------------------------------------- *)

let v6 () =
  let table =
    Table.create
      ~title:
        "V6 - Atomicity across site crashes injected at every protocol instant (transfer \
         of 5 between two sites; crash at t, recovery 25tu later)"
      [ "protocol"; "crash windows"; "atomic"; "committed"; "aborted" ]
  in
  let crash_times = List.init 30 (fun i -> 0.5 +. float_of_int i) in
  let check_one protocol crash_at =
    let eng = Sim.create () in
    let fed = make_fed eng in
    load fed [ ("x", 100) ];
    ignore
      (Sim.schedule eng ~delay:crash_at (fun () ->
           Site.crash_for (Federation.site fed "s0") ~duration:25.0));
    let outcome =
      in_sim eng (fun () -> run_transfer protocol fed)
    in
    List.iter
      (fun (_, site) -> if not (Site.is_up site) then ignore (Site.restart site))
      fed.sites;
    let v0 = value fed "s0" "x" and v1 = value fed "s1" "x" in
    let atomic =
      match outcome with
      | Global.Committed -> v0 = Some 105 && v1 = Some 95
      | Global.Aborted _ -> v0 = Some 100 && v1 = Some 100
    in
    (atomic, Global.is_committed outcome)
  in
  List.iter
    (fun protocol ->
      let results = List.map (check_one protocol) crash_times in
      let atomic = List.length (List.filter fst results) in
      let committed = List.length (List.filter snd results) in
      Table.add_row table
        [
          Protocol.name protocol;
          fmti (List.length crash_times);
          Printf.sprintf "%d/%d" atomic (List.length crash_times);
          fmti committed;
          fmti (List.length crash_times - committed);
        ])
    Protocol.paper;
  heading "V6 - Crash-window matrix (§3.2/§3.3 failure discussion)" ^ Table.render table

(* --- V7: the serializability requirements ---------------------------------- *)

let v7 () =
  let table =
    Table.create
      ~title:
        "V7 - Serializability requirements: violations detected by the global \
         serialization-graph checker"
      [ "scenario"; "additional CC module"; "violations" ]
  in
  let dirty_read ~cc =
    let eng = Sim.create () in
    let fed = make_fed eng in
    fed.global_cc_enabled <- cc;
    load fed [ ("x", 100) ];
    Fiber.spawn eng (fun () -> ignore (Before.run fed (transfer_spec fed ~vote1:false "x")));
    Fiber.spawn eng (fun () ->
        Fiber.sleep eng 6.0;
        ignore
          (Before.run fed
             {
               Global.gid = Federation.fresh_gid fed;
               branches = [ Global.branch ~site:"s0" [ Program.Read "x" ] ];
             }));
    Sim.run eng;
    Graph.violations fed.graph
  in
  let order_flip ~cc =
    let eng = Sim.create () in
    let fed = make_fed eng in
    fed.global_cc_enabled <- cc;
    load fed [ ("x", 100); ("y", 100) ];
    Fiber.spawn eng (fun () ->
        ignore
          (After.run fed
             {
               Global.gid = Federation.fresh_gid fed;
               branches =
                 [
                   Global.branch ~site:"s0" [ Program.Read "x" ];
                   Global.branch ~site:"s1" [ Program.Increment ("y", 1) ];
                 ];
             }));
    kill_running_at eng fed ~site:"s0" ~at:5.5;
    Fiber.spawn eng (fun () ->
        Fiber.sleep eng 4.6;
        ignore
          (Before.run fed
             {
               Global.gid = Federation.fresh_gid fed;
               branches =
                 [
                   Global.branch ~site:"s0" [ Program.Write ("x", 999) ];
                   Global.branch ~site:"s1" [ Program.Read "y" ];
                 ];
             }));
    Sim.run eng;
    Graph.violations fed.graph
  in
  let describe violations =
    if violations = [] then "none"
    else String.concat "; " (List.map (Format.asprintf "%a" Graph.pp_violation) violations)
  in
  Table.add_row table
    [ "§3.3 dirty read of compensated data (commit-before)"; "disabled"; describe (dirty_read ~cc:false) ];
  Table.add_row table
    [ "§3.3 dirty read of compensated data (commit-before)"; "enabled"; describe (dirty_read ~cc:true) ];
  Table.add_row table
    [ "§3.2 order flip through repetition (commit-after)"; "disabled"; describe (order_flip ~cc:false) ];
  Table.add_row table
    [ "§3.2 order flip through repetition (commit-after)"; "enabled"; describe (order_flip ~cc:true) ];
  heading "V7 - Why the additional CC module exists (§3.2/§3.3 requirements)"
  ^ Table.render table

(* --- PA1: presumed-abort ablation ------------------------------------------- *)

let a1 () =
  let table =
    Table.create
      ~title:
        "PA1 - Standard vs presumed-abort 2PC (read-heavy workload, 80% reads, 200 txns)"
      [
        "protocol"; "p(abort)"; "committed"; "msgs/commit"; "decision-log entries"; "tput";
      ]
  in
  let sep = group_separator table in
  List.iter
    (fun p ->
      sep ();
      List.iter
        (fun protocol ->
          let r =
            Runner.run
              {
                (runner_cfg protocol) with
                n_txns = 200;
                use_increments = false;
                read_fraction = 0.8;
                p_intended_abort = p;
              }
          in
          Table.add_row table
            [
              Protocol.name protocol;
              fmt p;
              fmti r.committed;
              fmt r.messages_per_committed;
              fmti r.decision_log_entries;
              fmt r.throughput;
            ])
        [ Protocol.Two_phase; Protocol.Presumed_abort ])
    [ 0.0; 0.2; 0.4 ];
  heading
    "PA1 - Extension: presumed-abort 2PC [ML 83] - fewer messages on abort, no abort log \
     records, read-only branches skip phase 2"
  ^ Table.render table

(* --- A2: hybrid protocol on a mixed-capability federation -------------------- *)

let a2 () =
  let table =
    Table.create
      ~title:
        "A2 - Mixed federation (half the sites expose a ready state), 200 txns"
      [ "protocol"; "committed"; "aborted"; "msgs/commit"; "compensations"; "tput" ]
  in
  List.iter
    (fun protocol ->
      let r =
        Runner.run
          {
            (runner_cfg protocol) with
            n_txns = 200;
            mixed_capabilities = true;
            p_intended_abort = 0.1;
          }
      in
      Table.add_row table
        [
          Protocol.name protocol;
          fmti r.committed;
          fmti r.aborted;
          fmt r.messages_per_committed;
          fmti r.compensations;
          fmt r.throughput;
        ])
    [ Protocol.Two_phase; Protocol.Before; Protocol.Hybrid ];
  heading
    "A2 - Extension: hybrid commitment - 2PC legs where the ready state exists, \
     commitment-before legs elsewhere (2PC alone cannot run at all)"
  ^ Table.render table

(* --- A3: MLT action retries --------------------------------------------------- *)

let a3 () =
  let table =
    Table.create
      ~title:"A3 - L0 action retries under spontaneous local aborts (p=0.3, 200 txns)"
      [ "retries"; "committed"; "aborted"; "action retries"; "compensations"; "tput" ]
  in
  List.iter
    (fun retries ->
      let r =
        Runner.run
          {
            (runner_cfg Protocol.Before_mlt) with
            n_txns = 200;
            p_spontaneous = 0.3;
            spontaneous_window = (0.5, 6.0);
            mlt_action_retries = retries;
          }
      in
      Table.add_row table
        [
          fmti retries;
          fmti r.committed;
          fmti r.aborted;
          fmti r.repetitions;
          fmti r.compensations;
          fmt r.throughput;
        ])
    [ 0; 1; 3 ];
  heading
    "A3 - Extension: retrying a failed L0 action (safe by L1 atomicity) converts \
     global aborts + compensations into cheap resubmissions"
  ^ Table.render table

(* --- A4: central-crash recovery matrix ----------------------------------------- *)

let a4 () =
  let module Recovery = Icdb_core.Central_recovery in
  let exception Central_crash in
  let table =
    Table.create
      ~title:
        "A4 - Central system crashes mid-protocol; recovery completes from the stable \
         journal (transfer of 5; atomicity = both applied or neither)"
      [ "protocol"; "crash phase"; "recovered"; "pushed"; "aborted"; "redone"; "undone"; "atomic" ]
  in
  let scenario protocol phase =
    let eng = Sim.create () in
    (* The hybrid protocol is exercised on the mixed federation it exists
       for: s0 prepare-capable, s1 not. *)
    let fed =
      if protocol = Protocol.Hybrid then
        Federation.create eng [ site_cfg ~prepare:true "s0"; site_cfg ~prepare:false "s1" ]
      else make_fed ~prepare:true eng
    in
    load fed [ ("x", 100) ];
    fed.Federation.central_fail <-
      (fun ~gid:_ p -> if p = phase then raise Central_crash);
    Icdb_sim.Fiber.spawn eng
      ~on_error:(function
        | Central_crash -> Recovery.crash fed
        | e -> raise e)
      (fun () ->
        ignore (run_transfer protocol fed));
    Sim.run eng;
    fed.Federation.central_fail <- (fun ~gid:_ _ -> ());
    let summary = in_sim eng (fun () -> Recovery.recover fed) in
    let v0 = value fed "s0" "x" and v1 = value fed "s1" "x" in
    let atomic =
      (v0 = Some 105 && v1 = Some 95) || (v0 = Some 100 && v1 = Some 100)
    in
    Table.add_row table
      [
        Protocol.name protocol;
        phase;
        fmti summary.entries_recovered;
        fmti summary.decisions_pushed;
        fmti summary.locals_aborted;
        fmti summary.branches_redone;
        fmti summary.branches_undone;
        (if atomic then "yes" else "NO");
      ]
  in
  let sep = group_separator table in
  List.iter
    (fun protocol ->
      sep ();
      let phases =
        match protocol with
        | Protocol.Before_mlt -> [ "action-0"; "decided" ]
        | _ -> [ "executed"; "voted"; "decided" ]
      in
      List.iter (fun phase -> scenario protocol phase) phases)
    Protocol.all;
  heading
    "A4 - Extension: recovery of the central system itself (presumed abort for \
     undecided entries; decisions pushed to completion from the journal)"
  ^ Table.render table

(* --- A5: group commit --------------------------------------------------------- *)

let a5 () =
  let table =
    Table.create
      ~title:"A5 - Group commit at the local systems (commit-before, 16 workers, 300 txns)"
      [ "window"; "committed"; "log forces"; "forces/commit"; "tput"; "mean resp" ]
  in
  List.iter
    (fun window ->
      let r =
        Runner.run
          {
            (runner_cfg Protocol.Before) with
            n_txns = 300;
            concurrency = 16;
            group_commit_window = window;
          }
      in
      Table.add_row table
        [
          (match window with None -> "off" | Some w -> fmt w);
          fmti r.committed;
          fmti r.log_forces;
          fmt r.log_forces_per_commit;
          fmt r.throughput;
          fmt r.mean_response;
        ])
    [ None; Some 1.0; Some 3.0; Some 8.0 ];
  heading
    "A5 - Extension: batched log forces trade commit latency for fewer stable writes \
     (durability preserved: acknowledgement only after the force)"
  ^ Table.render table

(* --- A6: lossy wire ------------------------------------------------------------ *)

let a6 () =
  let table =
    Table.create
      ~title:
        "A6 - Message loss sweep (at-least-once delivery, receiver-side dedup; 200 txns)"
      [ "protocol"; "p(loss)"; "committed"; "msgs/commit"; "dropped"; "tput"; "money"; "serializable" ]
  in
  let sep = group_separator table in
  List.iter
    (fun loss ->
      sep ();
      List.iter
        (fun protocol ->
          let r =
            Runner.run { (runner_cfg protocol) with n_txns = 200; message_loss = loss }
          in
          Table.add_row table
            [
              Protocol.name protocol;
              fmt loss;
              fmti r.committed;
              fmt r.messages_per_committed;
              fmti r.messages_dropped;
              fmt r.throughput;
              (if r.money_conserved then "ok" else "VIOLATED");
              (if r.serializable then "yes" else "NO");
            ])
        [ Protocol.Two_phase; Protocol.After; Protocol.Before ])
    [ 0.0; 0.05; 0.15; 0.3 ];
  heading
    "A6 - Extension: an unreliable wire - retransmission inflates message counts but \
     the database-resident markers and receiver-side dedup keep every invariant intact"
  ^ Table.render table

(* --- O1: commit-overhead batching ----------------------------------------------- *)

let o1 () =
  let table =
    Table.create
      ~title:
        "O1 - Commit overhead vs batch window (fixed-spec lab: 120 txns, 12 workers, \
         p(abort)=0.15; the window drives message piggybacking, central decision-log \
         group commit and local group commit together)"
      [
        "protocol"; "window"; "committed"; "msgs/commit"; "forces/commit";
        "central forces"; "occupancy"; "tput";
      ]
  in
  let sep = group_separator table in
  List.iter
    (fun protocol ->
      sep ();
      List.iter
        (fun window ->
          let r =
            Runner.run ~fixed_specs:true
              {
                Runner.fixed_spec_default with
                protocol;
                msg_batch_window = window;
                central_gc_window = window;
                group_commit_window = window;
              }
          in
          let forces = r.log_forces + r.central_log_forces + r.paxos_acceptor_forces in
          Table.add_row table
            [
              Protocol.name protocol;
              (match window with None -> "off" | Some w -> fmt w);
              fmti r.committed;
              fmt r.messages_per_committed;
              fmt (float_of_int forces /. float_of_int r.committed);
              fmti r.central_log_forces;
              fmt r.batch_occupancy_mean;
              fmt r.throughput;
            ])
        [ None; Some 1.0; Some 3.0; Some 8.0 ])
    Protocol.all;
  heading
    "O1 - Extension: piggybacked decision traffic + group-committed decision log - \
     messages and stable writes per commit fall toward the §5 floor with identical \
     per-transaction outcomes (the equivalence property test); batching trades \
     commit latency for overhead, so virtual-time throughput moves little"
  ^ Table.render table

(* --- P1: phase-latency breakdown ------------------------------------------------ *)

let p1 () =
  let table =
    Table.create
      ~title:
        "P1 - Where the virtual time goes: per-phase latency from the metrics \
         registry (150 txns, 12 workers, p(abort)=0.1)"
      [ "protocol"; "phase"; "count"; "mean"; "p50"; "p95"; "max" ]
  in
  let sep = group_separator table in
  List.iter
    (fun protocol ->
      sep ();
      let r = Runner.run { (runner_cfg protocol) with p_intended_abort = 0.1 } in
      List.iter
        (fun (phase, (h : Icdb_obs.Registry.hsnap)) ->
          Table.add_row table
            [
              Protocol.name protocol;
              phase;
              fmti h.h_count;
              fmt h.h_mean;
              fmt h.h_p50;
              fmt h.h_p95;
              fmt h.h_max;
            ])
        r.phase_breakdown)
    Protocol.all;
  heading
    "P1 - Phase-latency breakdown: execution dominates everywhere; the commit \
     phases separate the protocols (vote+local-commit for 2PC/after, redo and \
     compensate tails for the optimistic pair)"
  ^ Table.render table

(* --- registry -------------------------------------------------------------- *)

let experiments =
  [
    ("f2", "2PC states and messages (Figure 2)", fig2);
    ("f3", "2PC commit points: decision mid-commit (Figure 3)", fig3);
    ("f4", "commit-after states, incl. the redo path (Figure 4)", fig4);
    ("f5", "commit-after commit points (Figure 5)", fig5);
    ("f6", "commit-before states, incl. the undo path (Figure 6)", fig6);
    ("f7", "commit-before commit points (Figure 7)", fig7);
    ("f8", "two-level vs page-level single-level concurrency (Figure 8)", fig8);
    ("v1", "lock hold times and throughput across protocols (§4.3)", v1);
    ("v2", "spontaneous-abort sweep: repetitions (§3.2)", v2);
    ("v3", "intended-abort sweep: compensations (§3.3/§4.3)", v3);
    ("v4", "additional-components ablation (§4.3)", v4);
    ("v5", "message complexity (§3)", v5);
    ("v6", "crash-window atomicity matrix (§3.2/§3.3)", v6);
    ("v7", "serializability-requirement violations (§3.2/§3.3)", v7);
    ("pa1", "extension: presumed-abort 2PC ablation [ML 83]", a1);
    ("a2", "extension: hybrid commitment on mixed-capability federations", a2);
    ("a3", "extension: MLT action-retry ablation", a3);
    ("a4", "extension: central-crash recovery matrix", a4);
    ("a5", "extension: group-commit ablation at the local systems", a5);
    ("a6", "extension: message-loss sweep over an at-least-once wire", a6);
    ("o1", "extension: commit-overhead batching vs batch window", o1);
    ("p1", "observability: per-protocol phase-latency breakdown", p1);
  ]

let all = List.map (fun (id, descr, _) -> (id, descr)) experiments

let run id =
  match List.find_opt (fun (id', _, _) -> id' = id) experiments with
  | Some (_, _, f) -> f ()
  | None -> raise Not_found

let run_all () =
  String.concat "\n"
    (List.map (fun (id, _, f) -> Printf.sprintf "[%s]\n%s" id (f ())) experiments)
