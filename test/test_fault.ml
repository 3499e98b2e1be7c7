(* Tests for Icdb_fault: plan generation, the invariant campaign, the
   shrinker, and a regression corpus of (formerly bug-revealing) fault
   plans that must stay green. *)

module Registry = Icdb_obs.Registry
module Tracer = Icdb_obs.Tracer
module Span = Icdb_obs.Span
module Protocol = Icdb_workload.Protocol
module Plan = Icdb_fault.Plan
module Campaign = Icdb_fault.Campaign
module Sim = Icdb_sim.Engine
module Fiber = Icdb_sim.Fiber
module Db = Icdb_localdb.Engine
module Site = Icdb_net.Site
module Lock = Icdb_lock.Lock_table
module Federation = Icdb_core.Federation
module Monitor = Icdb_core.Monitor

let violation_strings (o : Campaign.outcome) =
  List.map (fun v -> Format.asprintf "%a" Campaign.pp_violation v) o.violations

let check_clean ~protocol plan =
  let o = Campaign.run_plan ~protocol plan in
  Alcotest.(check (list string))
    (Protocol.name protocol ^ " invariants under " ^ Plan.to_string plan)
    [] (violation_strings o)

(* --- regression corpus: shrunken reproducers of the bugs this code once
   had; each plan drove a specific failure before the fix. --- *)

(* Overlapping outages on one site: the first outage's stale scheduled
   restart used to revive the site in the middle of the second outage. *)
let overlapping_crash_plan =
  {
    Plan.plan_seed = 1L;
    events =
      [
        Plan.Site_crash { site = 0; at = 5.0; duration = 20.0 };
        Plan.Site_crash { site = 0; at = 15.0; duration = 60.0 };
      ];
  }

(* An early crash racing transaction starts: [begin_txn] on a just-crashed
   site used to raise [Failure "site is down"] straight through the worker
   fiber. *)
let early_crash_plan =
  {
    Plan.plan_seed = 2L;
    events = [ Plan.Site_crash { site = 0; at = 2.0; duration = 30.0 } ];
  }

let central_crash_plan phase_idx =
  { Plan.plan_seed = 3L; events = [ Plan.Central_crash { txn = 3; phase_idx } ] }

(* A central crash at the decision point plus a site outage over the same
   window: recovery must push the decision to a site that is down when it
   starts. *)
let central_plus_site_plan =
  {
    Plan.plan_seed = 4L;
    events =
      [
        Plan.Central_crash { txn = 2; phase_idx = 2 };
        Plan.Site_crash { site = 1; at = 10.0; duration = 40.0 };
      ];
  }

(* Message chaos without crashes: loss (at-least-once retransmission),
   duplicated deliveries (receiver dedup), and a latency spike. *)
let lossy_dup_plan =
  {
    Plan.plan_seed = 5L;
    events =
      [
        Plan.Loss_burst { site = 0; at = 0.0; duration = 150.0; loss = 0.3 };
        Plan.Duplication { site = 1; at = 0.0; duration = 150.0; probability = 0.3 };
        Plan.Latency_spike { site = 2; at = 50.0; duration = 100.0; factor = 5.0 };
      ];
  }

let corpus =
  [
    overlapping_crash_plan;
    early_crash_plan;
    central_crash_plan 0;
    central_crash_plan 1;
    central_crash_plan 2;
    central_plus_site_plan;
    lossy_dup_plan;
  ]

let test_corpus protocol () = List.iter (check_clean ~protocol) corpus

(* --- plan generation --- *)

let test_generate_deterministic () =
  let gen () = Plan.generate ~seed:99L ~n_sites:3 ~n_txns:40 ~horizon:300.0 () in
  Alcotest.(check string) "same seed, same plan" (Plan.to_string (gen ()))
    (Plan.to_string (gen ()));
  let other = Plan.generate ~seed:100L ~n_sites:3 ~n_txns:40 ~horizon:300.0 () in
  Alcotest.(check bool) "different seed, different plan" true
    (Plan.to_string (gen ()) <> Plan.to_string other)

let test_remove_nth () =
  let plan = central_plus_site_plan in
  Alcotest.(check int) "drop first" 1 (Plan.length (Plan.remove_nth plan 0));
  Alcotest.(check int) "drop second" 1 (Plan.length (Plan.remove_nth plan 1));
  (match (Plan.remove_nth plan 0).events with
  | [ Plan.Site_crash _ ] -> ()
  | _ -> Alcotest.fail "expected the site crash to survive");
  Alcotest.(check int) "empty stays empty" 0 (Plan.length (Plan.remove_nth Plan.empty 0))

let test_phase_names () =
  Alcotest.(check string) "flat executed" "executed" (Plan.phase_name ~mlt:false 0);
  Alcotest.(check string) "flat voted" "voted" (Plan.phase_name ~mlt:false 1);
  Alcotest.(check string) "flat decided" "decided" (Plan.phase_name ~mlt:false 2);
  Alcotest.(check string) "mlt action" "action-0" (Plan.phase_name ~mlt:true 0);
  Alcotest.(check string) "mlt decided" "decided" (Plan.phase_name ~mlt:true 2)

(* --- campaign --- *)

let test_run_plan_deterministic () =
  let run () = Campaign.run_plan ~protocol:Protocol.Before central_plus_site_plan in
  let a = run () and b = run () in
  Alcotest.(check (list string)) "same violations" (violation_strings a)
    (violation_strings b);
  match (a.report, b.report) with
  | Some ra, Some rb ->
    Alcotest.(check int) "same started" ra.started rb.started;
    Alcotest.(check int) "same committed" ra.committed rb.committed;
    Alcotest.(check int) "same aborted" ra.aborted rb.aborted;
    Alcotest.(check int) "same killed" a.killed b.killed;
    Alcotest.(check int) "same money" ra.money_after rb.money_after;
    Alcotest.(check int) "same messages" ra.messages rb.messages
  | _ -> Alcotest.fail "both runs should produce reports"

let test_central_crash_kills_and_recovers () =
  (* Phase 2 ("decided") leaves prepared locals in doubt; recovery resolves
     them from the journal, and doing so twice is a no-op (the invariant
     suite includes both checks). *)
  let o = Campaign.run_plan ~protocol:Protocol.Two_phase (central_crash_plan 2) in
  Alcotest.(check (list string)) "clean" [] (violation_strings o);
  Alcotest.(check int) "one coordinator killed" 1 o.killed;
  match o.report with
  | Some r ->
    Alcotest.(check int) "accounting closes" r.started (r.committed + r.aborted + 1)
  | None -> Alcotest.fail "expected a report"

let test_fault_metrics_counted () =
  let registry = Registry.create () in
  let o =
    Campaign.run_plan ~registry ~protocol:Protocol.Before overlapping_crash_plan
  in
  Alcotest.(check (list string)) "clean" [] (violation_strings o);
  let crashes =
    Registry.count
      (Registry.counter registry ~labels:[ ("kind", "site-crash") ]
         "icdb_fault_injected_total")
  in
  Alcotest.(check bool) "site crashes injected and counted" true (crashes >= 1)

let test_campaign_smoke () =
  (* A small seeded sweep per protocol: every plan must satisfy the whole
     invariant suite. *)
  List.iter
    (fun protocol ->
      let stats = Campaign.run_protocol ~seed:42L ~plans:4 protocol in
      Alcotest.(check int)
        (Protocol.name protocol ^ " campaign violations")
        0
        (List.length stats.cp_failures))
    Protocol.all

let test_campaign_stats_deterministic () =
  let run () = Campaign.run_protocol ~seed:7L ~plans:3 Protocol.Presumed_abort in
  let a = run () and b = run () in
  Alcotest.(check int) "same event count" a.cp_events b.cp_events;
  Alcotest.(check (list (pair string int))) "same class histogram" a.cp_by_class
    b.cp_by_class;
  Alcotest.(check int) "same failures" (List.length a.cp_failures)
    (List.length b.cp_failures)

let test_shrink_fixpoint_on_clean_plan () =
  (* A plan that violates nothing shrinks to itself: no removal can make a
     clean plan violating, so the greedy loop terminates immediately. *)
  let shrunk = Campaign.shrink ~protocol:Protocol.After lossy_dup_plan in
  Alcotest.(check string) "unchanged" (Plan.to_string lossy_dup_plan)
    (Plan.to_string shrunk);
  Alcotest.(check int) "empty plan" 0 (Plan.length (Campaign.shrink ~protocol:Protocol.After Plan.empty))

(* --- flight recorder ------------------------------------------------------ *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_flight_dump_on_violation () =
  (* Re-introduce the PR-5 begin_txn bug's failure mode: an exception
     escaping a coordinator fiber mid-protocol. The campaign must classify
     the run as crashed and dump the flight recorder, with the faulting
     event in the dump's tail. *)
  let o =
    Campaign.run_plan ~protocol:Protocol.Before
      ~extra_setup:(fun _engine fed ->
        fed.Federation.central_fail <-
          (fun ~gid phase ->
            if phase = "decided" then begin
              Tracer.instant fed.Federation.tracer ~actor:"central"
                (Span.Mark (Printf.sprintf "bug:begin_txn g%d site is down" gid));
              raise (Failure "site is down")
            end))
      Plan.empty
  in
  (match o.violations with
  | [ Campaign.Run_crashed msg ] ->
    Alcotest.(check bool) "crash message carried" true (contains msg "site is down")
  | vs ->
    Alcotest.failf "expected Run_crashed, got [%s]"
      (String.concat "; " (List.map (Format.asprintf "%a" Campaign.pp_violation) vs)));
  match o.flight with
  | None -> Alcotest.fail "expected a flight-recorder dump"
  | Some dump ->
    Alcotest.(check bool) "dump has the header" true (contains dump "flight recorder:");
    (* The faulting event sits in the dump's tail: the ring stops at the
       moment the exception escaped. *)
    let lines = String.split_on_char '\n' dump in
    let tail =
      let n = List.length lines in
      List.filteri (fun i _ -> i >= n - 15) lines |> String.concat "\n"
    in
    Alcotest.(check bool) "faulting event in the tail" true
      (contains tail "bug:begin_txn")

let test_clean_run_has_no_flight_dump () =
  let o = Campaign.run_plan ~protocol:Protocol.Before lossy_dup_plan in
  Alcotest.(check (list string)) "clean" [] (violation_strings o);
  Alcotest.(check bool) "no dump on a clean run" true (o.flight = None);
  Alcotest.(check (list string)) "no monitor trips" []
    (List.map (fun (t : Monitor.trip) -> t.m_monitor) o.trips)

(* --- online monitors: hand-built violation plans -------------------------- *)

(* A bare two-site federation on a fresh engine, monitors attached with a
   never-finishing predicate so the watchdog keeps watching for as long as
   other events are pending. *)
let monitored_fed () =
  let eng = Sim.create () in
  let registry = Registry.create () in
  let fed =
    Federation.create eng ~registry
      [ Db.default_config ~site_name:"s0"; Db.default_config ~site_name:"s1" ]
  in
  let m = Monitor.attach fed ~finished:(fun () -> false) in
  (eng, fed, m)

let trip_count registry name =
  Registry.count
    (Registry.counter registry ~labels:[ ("monitor", name) ]
       "icdb_monitor_trips_total")

let test_money_monitor_first_trip () =
  let eng, fed, m = monitored_fed () in
  let db = Site.db (Federation.site fed "s0") in
  Db.load db [ ("x", 100) ];
  (* An unbalanced local commit: +7 appears from nowhere. The delta hook
     feeds the drift; the first quiescent watchdog tick must trip. *)
  Fiber.spawn eng (fun () ->
      let txn = Db.begin_txn db in
      (match Db.increment db txn ~key:"x" ~delta:7 with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "increment refused");
      match Db.commit db txn with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "commit refused");
  Sim.run eng;
  (match Monitor.first_trip m "money" with
  | Some t ->
    Alcotest.(check (float 1e-9)) "first trip at the first tick" 20.0 t.m_time;
    Alcotest.(check bool) "detail names the drift" true (contains t.m_detail "+7")
  | None -> Alcotest.fail "money monitor did not trip");
  Alcotest.(check int) "trip metric bumped once" 1
    (trip_count fed.Federation.registry "money")

let test_stuck_monitor_first_trip () =
  let eng, fed, m = monitored_fed () in
  (* A journal entry that nothing ever decides or closes, with unrelated
     activity keeping the engine alive past the stuck threshold. *)
  Federation.journal_open fed ~gid:1 ~protocol:"2pc";
  ignore (Sim.schedule eng ~delay:500.0 (fun () -> ()));
  Sim.run eng;
  (match Monitor.first_trip m "stuck" with
  | Some t ->
    Alcotest.(check (float 1e-9)) "trips exactly at the threshold" 120.0 t.m_time;
    Alcotest.(check bool) "detail names the oldest entry" true (contains t.m_detail "g1")
  | None -> Alcotest.fail "stuck monitor did not trip");
  Alcotest.(check int) "trip metric bumped once" 1
    (trip_count fed.Federation.registry "stuck");
  (* One-shot: the later ticks must not re-trip. *)
  Alcotest.(check int) "single trip recorded" 1 (List.length (Monitor.trips m))

let test_lock_leak_monitor_first_trip () =
  let eng, fed, m = monitored_fed () in
  (* A global-CC lock granted and never released, no transaction alive. *)
  let obj = Lock.intern fed.Federation.central.cc "acct-3" in
  Alcotest.(check bool) "uncontended grant" true
    (Lock.try_acquire fed.Federation.central.cc ~owner:99 ~obj
       ~mode:Icdb_lock.Mode.Exclusive);
  Sim.run eng;
  (match Monitor.first_trip m "lock-leak" with
  | Some t ->
    Alcotest.(check (float 1e-9)) "first quiescent tick" 20.0 t.m_time;
    Alcotest.(check bool) "detail counts the leak" true (contains t.m_detail "1 global")
  | None -> Alcotest.fail "lock-leak monitor did not trip");
  Alcotest.(check int) "trip metric bumped once" 1
    (trip_count fed.Federation.registry "lock-leak")

let test_pin_drift_monitor_first_trip () =
  let eng, fed, m = monitored_fed () in
  let db = Site.db (Federation.site fed "s0") in
  Db.load db [ ("x", 1) ];
  (* Hold a buffer pin across the watchdog tick: with_page pins for the
     duration of the callback, and the callback runs the clock forward. *)
  Icdb_storage.Buffer_pool.with_page (Db.buffer_pool db) 0 ~write:false (fun _ ->
      Sim.run eng);
  (match Monitor.first_trip m "pin-drift" with
  | Some t ->
    Alcotest.(check (float 1e-9)) "first quiescent tick" 20.0 t.m_time;
    Alcotest.(check bool) "detail names the site" true (contains t.m_detail "s0")
  | None -> Alcotest.fail "pin-drift monitor did not trip");
  Alcotest.(check int) "trip metric bumped once" 1
    (trip_count fed.Federation.registry "pin-drift")

let test_monitor_quiet_on_healthy_run () =
  (* The corpus' lossy plan completes cleanly: no monitor may trip, and the
     lazily-created trip counter must not even exist in the registry. *)
  let registry = Registry.create () in
  let o = Campaign.run_plan ~registry ~protocol:Protocol.Two_phase lossy_dup_plan in
  Alcotest.(check (list string)) "clean" [] (violation_strings o);
  Alcotest.(check int) "no trips" 0 (List.length o.trips);
  let snapshot = Registry.snapshot registry in
  Alcotest.(check bool) "no trip metric materialised" true
    (List.for_all
       (fun ((k : Registry.key), _) -> k.name <> "icdb_monitor_trips_total")
       snapshot.Registry.counters)

let () =
  Alcotest.run "fault"
    [
      ( "plan",
        [
          Alcotest.test_case "generator deterministic" `Quick test_generate_deterministic;
          Alcotest.test_case "remove nth" `Quick test_remove_nth;
          Alcotest.test_case "phase names" `Quick test_phase_names;
        ] );
      ( "corpus",
        List.map
          (fun p ->
            Alcotest.test_case (Protocol.name p) `Quick (test_corpus p))
          Protocol.all );
      ( "campaign",
        [
          Alcotest.test_case "run_plan deterministic" `Quick test_run_plan_deterministic;
          Alcotest.test_case "central crash kill + recover" `Quick
            test_central_crash_kills_and_recovers;
          Alcotest.test_case "fault metrics counted" `Quick test_fault_metrics_counted;
          Alcotest.test_case "smoke sweep all protocols" `Slow test_campaign_smoke;
          Alcotest.test_case "stats deterministic" `Quick
            test_campaign_stats_deterministic;
          Alcotest.test_case "shrink fixpoint" `Quick test_shrink_fixpoint_on_clean_plan;
        ] );
      ( "flight-recorder",
        [
          Alcotest.test_case "dump on violation" `Quick test_flight_dump_on_violation;
          Alcotest.test_case "no dump on clean run" `Quick
            test_clean_run_has_no_flight_dump;
        ] );
      ( "monitors",
        [
          Alcotest.test_case "money first trip" `Quick test_money_monitor_first_trip;
          Alcotest.test_case "stuck first trip" `Quick test_stuck_monitor_first_trip;
          Alcotest.test_case "lock-leak first trip" `Quick
            test_lock_leak_monitor_first_trip;
          Alcotest.test_case "pin-drift first trip" `Quick
            test_pin_drift_monitor_first_trip;
          Alcotest.test_case "quiet on a healthy run" `Quick
            test_monitor_quiet_on_healthy_run;
        ] );
    ]
