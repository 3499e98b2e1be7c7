module Sim = Icdb_sim.Engine
module Fiber = Icdb_sim.Fiber
module Rng = Icdb_util.Rng
module Table = Icdb_util.Table
module Site = Icdb_net.Site
module Link = Icdb_net.Link
module Db = Icdb_localdb.Engine
module Federation = Icdb_core.Federation
module Central_recovery = Icdb_core.Central_recovery
module Action_log = Icdb_core.Action_log
module Protocol_common = Icdb_core.Protocol_common
module Metrics = Icdb_core.Metrics
module Monitor = Icdb_core.Monitor
module Registry = Icdb_obs.Registry
module Tracer = Icdb_obs.Tracer
module Span = Icdb_obs.Span
module Export = Icdb_obs.Export
module Runner = Icdb_workload.Runner
module Protocol = Icdb_workload.Protocol

exception Central_crash_injected

(* Virtual-time window fault events are drawn from. *)
let horizon = 300.0

(* One fixed chaos workload: small federation, hot accounts (skewed zipf on
   few accounts per site), commuting increments so the federation-wide
   balance is an atomicity invariant, a healthy intended-abort rate so the
   compensation paths run, and short local lock waits so in-doubt locals
   stall neighbours briefly instead of forever. [shards] > 1 runs it on a
   sharded federation (4 sites, a 25% cross-shard rate); [acceptors] > 1
   installs Paxos Commit with that group size. *)
let base_config ?(shards = 1) ?(acceptors = 1) protocol ~seed =
  {
    Runner.default with
    protocol;
    seed;
    shards;
    acceptors;
    (* four sites shard evenly into 2 or 4; a healthy cross-shard rate so
       both the fast path and the two-level round face the chaos. With
       [shards = 1] every field below equals the pre-sharding config. *)
    n_sites = (if shards > 1 then 4 else 3);
    cross_shard_fraction = (if shards > 1 then 0.25 else 0.0);
    accounts_per_site = 12;
    initial_balance = 500;
    n_txns = 40;
    concurrency = 6;
    branches_per_txn = 2;
    ops_per_branch = 2;
    zipf_theta = 0.8;
    use_increments = true;
    p_intended_abort = 0.15;
    lock_wait_timeout = Some 50.0;
  }

let inject (fed : Federation.t) kind =
  Registry.inc
    (Registry.counter fed.registry ~labels:[ ("kind", kind) ]
       "icdb_fault_injected_total");
  Tracer.instant fed.tracer ~actor:"fault" (Span.Mark ("fault:" ^ kind))

(* Arm every event of the plan against a freshly built federation. Runs as
   the runner's [on_setup] hook: time 0, nothing spawned yet. Shards whose
   coordinator a [Shard_crash] takes down are pushed onto [crashed]: their
   restart recovery must run at drain, like central recovery — a mid-run
   [recover_shard] would presume abort on transactions whose coordinator
   fibers are still alive. *)
let arm engine (fed : Federation.t) ~base_latency ~base_loss ~mlt ~crashed
    (plan : Plan.t) =
  let n_sites = List.length fed.sites in
  let site_of idx = snd (List.nth fed.sites (idx mod n_sites)) in
  let gid_base = fed.next_gid in
  let armed : (int, string) Hashtbl.t = Hashtbl.create 7 in
  List.iter
    (fun (ev : Plan.event) ->
      match ev with
      | Site_crash { site; at; duration } ->
        let s = site_of site in
        ignore
          (Sim.schedule engine ~delay:at (fun () ->
               if Site.is_up s then begin
                 inject fed "site-crash";
                 Site.crash_for s ~duration
               end))
      | Central_crash { txn; phase_idx } ->
        (* gids are handed out sequentially, so the [txn]-th issued global
           transaction is addressable before the run starts. *)
        Hashtbl.replace armed (gid_base + txn + 1) (Plan.phase_name ~mlt phase_idx)
      | Loss_burst { site; at; duration; loss } ->
        let link = Site.link (site_of site) in
        ignore
          (Sim.schedule engine ~delay:at (fun () ->
               inject fed "loss";
               Link.set_loss link loss));
        ignore
          (Sim.schedule engine ~delay:(at +. duration) (fun () ->
               Link.set_loss link base_loss))
      | Latency_spike { site; at; duration; factor } ->
        let link = Site.link (site_of site) in
        ignore
          (Sim.schedule engine ~delay:at (fun () ->
               inject fed "latency";
               Link.set_latency link (base_latency *. factor)));
        ignore
          (Sim.schedule engine ~delay:(at +. duration) (fun () ->
               Link.set_latency link base_latency))
      | Duplication { site; at; duration; probability } ->
        let link = Site.link (site_of site) in
        ignore
          (Sim.schedule engine ~delay:at (fun () ->
               inject fed "duplication";
               Link.set_duplication link probability));
        ignore
          (Sim.schedule engine ~delay:(at +. duration) (fun () ->
               Link.set_duplication link 0.0))
      | Shard_crash { shard; at; duration } ->
        if Array.length fed.shards > 0 then begin
          let shard = shard mod Array.length fed.shards in
          let c = fed.shards.(shard) in
          let coord = Federation.site fed (List.hd c.members) in
          ignore
            (Sim.schedule engine ~delay:at (fun () ->
                 inject fed "shard-crash";
                 (* the coordinator site goes down and the shard's volatile
                    CC/L1 state dies with it; restart recovery runs at
                    drain, once the in-flight fibers have settled *)
                 Federation.crash c;
                 crashed := shard :: !crashed;
                 if Site.is_up coord then Site.crash_for coord ~duration))
        end
      | Acceptor_crash { acceptor; at; duration } ->
        (* Paxos groups are the federation's first-sites prefix, so acceptor
           [i] lives on site [i]. Its stable acceptor log survives the crash
           (like a WAL); the site just answers nothing until restart — the
           fault Paxos Commit's quorum is there to mask. *)
        let s = site_of acceptor in
        ignore
          (Sim.schedule engine ~delay:at (fun () ->
               if Site.is_up s then begin
                 inject fed "acceptor-crash";
                 Site.crash_for s ~duration
               end)))
    plan.events;
  if Hashtbl.length armed > 0 then begin
    let fired : (int, unit) Hashtbl.t = Hashtbl.create 7 in
    fed.central_fail <-
      (fun ~gid phase ->
        match Hashtbl.find_opt armed gid with
        | Some p when p = phase && not (Hashtbl.mem fired gid) ->
          Hashtbl.add fired gid ();
          inject fed "central-crash";
          (* Volatile central state dies with the coordinator fiber. *)
          Central_recovery.crash fed;
          (* With Paxos Commit installed a new leader takes over the
             in-doubt instance from the acceptor quorum; a no-op otherwise
             (drain-time recovery resolves it, as before). *)
          fed.leader_failover ~gid;
          raise Central_crash_injected
        | _ -> ())
  end

type violation =
  | Money_not_conserved of { before : int; after : int }
  | Not_serializable of string list
  | Journal_not_empty of int
  | Log_not_drained of { log : string; pending : int }
  | Marker_rule of { site : string; gid : int; detail : string }
  | Pins_leaked of { site : string; pins : int }
  | Accounting of { started : int; committed : int; aborted : int; killed : int }
  | Recovery_not_idempotent of string
  | Engine_not_drained of { live : int; stored : int }
  | Run_crashed of string

let pp_violation ppf = function
  | Money_not_conserved { before; after } ->
    Format.fprintf ppf "money not conserved: %d before, %d after" before after
  | Not_serializable vs ->
    Format.fprintf ppf "not serializable: %s" (String.concat "; " vs)
  | Journal_not_empty n -> Format.fprintf ppf "%d journal entries open after recovery" n
  | Log_not_drained { log; pending } ->
    Format.fprintf ppf "%s log holds %d undrained entries" log pending
  | Marker_rule { site; gid; detail } ->
    Format.fprintf ppf "marker rule at %s, gid %d: %s" site gid detail
  | Pins_leaked { site; pins } ->
    Format.fprintf ppf "%d buffer pins leaked at %s" pins site
  | Accounting { started; committed; aborted; killed } ->
    Format.fprintf ppf "accounting: started %d <> committed %d + aborted %d + killed %d"
      started committed aborted killed
  | Recovery_not_idempotent s ->
    Format.fprintf ppf "second recovery repaired again: %s" s
  | Engine_not_drained { live; stored } ->
    Format.fprintf ppf "engine not drained: %d live, %d stored events" live stored
  | Run_crashed s -> Format.fprintf ppf "run crashed: %s" s

(* The §3.2/§3.3 no-double-work rules, checked from the database-resident
   markers after the run has drained and the central system recovered:

   - 2PC and presumed abort write no markers at all;
   - commitment-after: a commit marker implies a logged commit decision
     (locals commit only after the decision), never an undo marker;
   - commitment-before (and the hybrid's before legs): a locally committed
     branch of a transaction that did not commit globally must carry the
     undo marker, and no globally committed transaction may be compensated;
   - MLT: the same, per action sequence number. *)
let marker_violations (fed : Federation.t) protocol =
  let decision gid = Federation.decision fed ~gid in
  let acc = ref [] in
  List.iter
    (fun (site_name, site) ->
      let db = Site.db site in
      let cms = ref [] and ums = ref [] and ams = ref [] in
      List.iter
        (fun key ->
          match Protocol_common.marker_of_key key with
          | Some (`Cm g) -> cms := g :: !cms
          | Some (`Um (g, s)) -> ums := (g, s) :: !ums
          | Some (`Am (g, s)) -> ams := (g, s) :: !ams
          | None -> ())
        (Db.committed_keys db);
      let add gid detail = acc := Marker_rule { site = site_name; gid; detail } :: !acc in
      let has_um g s = List.mem (g, s) !ums in
      let no_markers reason =
        List.iter (fun g -> add g (reason ^ " wrote a commit marker")) !cms;
        List.iter (fun (g, _) -> add g (reason ^ " wrote an undo marker")) !ums;
        List.iter (fun (g, _) -> add g (reason ^ " wrote an action marker")) !ams
      in
      match (protocol : Protocol.t) with
      | Two_phase | Presumed_abort -> no_markers "the 2PC family"
      | After ->
        List.iter
          (fun g ->
            if decision g <> Some true then
              add g "commit marker without a logged commit decision")
          !cms;
        List.iter (fun (g, _) -> add g "commitment-after wrote an undo marker") !ums;
        List.iter (fun (g, _) -> add g "commitment-after wrote an action marker") !ams
      | Before | Hybrid ->
        List.iter
          (fun g ->
            if decision g <> Some true && not (has_um g 0) then
              add g "locally committed, globally not committed, not compensated")
          !cms;
        List.iter
          (fun (g, _) ->
            if decision g = Some true then
              add g "compensated a globally committed transaction")
          !ums;
        List.iter (fun (g, _) -> add g "flat protocol wrote an action marker") !ams
      | Before_mlt ->
        List.iter (fun g -> add g "MLT wrote a flat commit marker") !cms;
        List.iter
          (fun (g, s) ->
            if decision g <> Some true && not (has_um g s) then
              add g
                (Printf.sprintf "action %d committed, globally aborted, not compensated"
                   s))
          !ams;
        List.iter
          (fun (g, _) ->
            if decision g = Some true then
              add g "compensated an action of a committed transaction")
          !ums)
    fed.sites;
  List.rev !acc

let zero_summary (s : Central_recovery.summary) =
  s.entries_recovered = 0 && s.decisions_pushed = 0 && s.locals_aborted = 0
  && s.branches_redone = 0 && s.branches_undone = 0

let check_invariants (fed : Federation.t) (report : Runner.report) ~protocol ~killed
    ~recover2 =
  let acc = ref [] in
  let push x = acc := x :: !acc in
  if not report.money_conserved then
    push
      (Money_not_conserved { before = report.money_before; after = report.money_after });
  if not report.serializable then push (Not_serializable report.violations);
  let open_entries = List.length (Federation.journal_open_entries fed) in
  if open_entries > 0 then push (Journal_not_empty open_entries);
  List.iter
    (fun (name, log) ->
      let pending = Action_log.pending log in
      if pending > 0 then push (Log_not_drained { log = name; pending }))
    [ ("redo", fed.redo_log); ("undo", fed.undo_log); ("mlt-undo", fed.mlt_undo_log) ];
  List.iter
    (fun (name, site) ->
      let pins = Db.buffer_pins (Site.db site) in
      if pins <> 0 then push (Pins_leaked { site = name; pins }))
    fed.sites;
  if report.started <> report.committed + report.aborted + killed then
    push
      (Accounting
         {
           started = report.started;
           committed = report.committed;
           aborted = report.aborted;
           killed;
         });
  (* After the run and the recovery drains, the event queue must be truly
     empty: no live timers left behind by a crashed fiber, and no cancelled
     carcasses the queue failed to compact away. *)
  let live = Sim.pending fed.engine and stored = Sim.stored fed.engine in
  if live <> 0 || stored <> 0 then push (Engine_not_drained { live; stored });
  (match recover2 with
  | Some s2 when not (zero_summary s2) ->
    push
      (Recovery_not_idempotent (Format.asprintf "%a" Central_recovery.pp_summary s2))
  | _ -> ());
  List.iter push (marker_violations fed protocol);
  List.rev !acc

type outcome = {
  plan : Plan.t;
  report : Runner.report option;
  killed : int;  (** coordinator fibers killed by injected central crashes *)
  violations : violation list;
  trips : Monitor.trip list;
  flight : string option;
}

(* Every chaos run flies with the recorder on: a ring this size holds the
   last ~dozen transactions' worth of events — plenty of tail for a
   forensic read, negligible memory. *)
let flight_capacity = 512

let run_plan ?registry ?(seed = 42L) ?shards ?acceptors ?extra_setup ~protocol
    (plan : Plan.t) =
  let cfg = base_config ?shards ?acceptors protocol ~seed in
  let mlt = not (Protocol.is_flat protocol) in
  let killed = ref 0 in
  let fed_ref = ref None in
  let monitor_ref = ref None in
  let recover2 = ref None in
  let drain_error = ref None in
  let crashed_shards = ref [] in
  (* The runner re-points the clock onto its own engine. *)
  let tracer = Tracer.create ~enabled:true ~limit:flight_capacity ~clock:(fun () -> 0.0) () in
  let on_setup engine (fed : Federation.t) =
    fed_ref := Some fed;
    arm engine fed ~base_latency:cfg.latency ~base_loss:cfg.message_loss ~mlt
      ~crashed:crashed_shards plan;
    (* A Paxos leader failover legitimately pauses a transaction for the
       failover delay plus two quorum rounds over possibly-crashed
       acceptors; the watchdog horizon is widened so a healthy failover
       never reads as a stuck transaction (and clean Paxos runs stay
       monitor-silent). *)
    let monitor_config =
      if cfg.acceptors > 1 then { Monitor.default_config with stuck_after = 240.0 }
      else Monitor.default_config
    in
    monitor_ref :=
      Some
        (Monitor.attach ~config:monitor_config fed ~finished:(fun () ->
             (* Every transaction settled: committed, aborted, or its
                coordinator killed by an injected central crash. Killed
                coordinators leave open journal entries by design — central
                recovery (run at drain) resolves them, so the watchdog must
                not read them as stuck. A genuinely wedged transaction is
                none of the three and keeps this false. *)
             Metrics.started fed.metrics >= cfg.n_txns
             && Metrics.committed fed.metrics + Metrics.aborted fed.metrics
                + !killed
                >= Metrics.started fed.metrics));
    match extra_setup with None -> () | Some f -> f engine fed
  in
  let on_txn_exn = function
    | Central_crash_injected ->
      incr killed;
      true
    | _ -> false
  in
  let on_drain () =
    (match !fed_ref with
    | None -> ()
    | Some fed -> (
      (* The crash already happened (or never will); recovery and the
         invariant probes must not trip the hook again. *)
      fed.central_fail <- (fun ~gid:_ _ -> ());
      try
        (* Per-shard restart recovery first, for every shard whose
           coordinator crashed: resolves its fast-path entries and any
           cross-shard mirror whose top decision is logged. The full
           recovery then settles what's left — the two are promised to
           compose idempotently. *)
        List.iter
          (fun shard -> ignore (Central_recovery.recover_shard fed ~shard))
          (List.sort_uniq compare !crashed_shards);
        ignore (Central_recovery.recover fed);
        (* Recovering twice is promised to be a no-op — check it every run. *)
        recover2 := Some (Central_recovery.recover fed)
      with e -> drain_error := Some e));
    (* Last monitor sweep at drain time, after recovery settled the state. *)
    match !monitor_ref with None -> () | Some m -> Monitor.finalize m
  in
  let trips () =
    match !monitor_ref with None -> [] | Some m -> Monitor.trips m
  in
  match Runner.run ?registry ~tracer ~on_setup ~on_txn_exn ~on_drain cfg with
  | exception e ->
    {
      plan;
      report = None;
      killed = !killed;
      violations = [ Run_crashed (Printexc.to_string e) ];
      trips = trips ();
      (* the ring holds the last events before the escape — dump it *)
      flight = Some (Export.flight_dump tracer);
    }
  | report ->
    let fed = Option.get !fed_ref in
    let violations =
      match !drain_error with
      | Some e -> [ Run_crashed ("recovery: " ^ Printexc.to_string e) ]
      | None -> check_invariants fed report ~protocol ~killed:!killed ~recover2:!recover2
    in
    {
      plan;
      report = Some report;
      killed = !killed;
      violations;
      trips = trips ();
      flight = (if violations <> [] then Some (Export.flight_dump tracer) else None);
    }

(* Greedy minimisation: drop one event at a time as long as the plan still
   violates; fixpoint is a locally minimal reproducer. *)
let shrink ?(seed = 42L) ?shards ?acceptors ~protocol (plan : Plan.t) =
  let violates p =
    (run_plan ~seed ?shards ?acceptors ~protocol p).violations <> []
  in
  let rec go plan =
    let n = Plan.length plan in
    let rec try_remove i =
      if i >= n then plan
      else
        let candidate = Plan.remove_nth plan i in
        if violates candidate then go candidate else try_remove (i + 1)
    in
    if n = 0 then plan else try_remove 0
  in
  go plan

type protocol_stats = {
  cp_protocol : Protocol.t;
  cp_plans : int;
  cp_events : int;
  cp_by_class : (string * int) list;  (** events injected per fault class *)
  cp_failures : outcome list;  (** outcomes with at least one violation *)
  cp_trips : (string * int * float) list;
      (** per monitor: (name, plans that tripped it, earliest first-trip
          virtual time over those plans) *)
}

let plan_seed ~seed i = Int64.add seed (Int64.mul 1000003L (Int64.of_int i))

let check_config ?shards ?acceptors () =
  Runner.check_config (base_config ?shards ?acceptors Protocol.Two_phase ~seed:0L)

let run_protocol ?(shrink_failures = false) ?(seed = 42L) ?shards ?acceptors ~plans
    protocol =
  Result.iter_error
    (fun msg -> invalid_arg ("Campaign: " ^ msg))
    (check_config ?shards ?acceptors ());
  let cfg = base_config ?shards ?acceptors protocol ~seed in
  let sharded = match shards with Some s -> s > 1 | None -> false in
  let paxos = match acceptors with Some a -> a > 1 | None -> false in
  let classes =
    match (sharded, paxos) with
    | true, true -> Plan.fault_classes_sharded_acceptors
    | true, false -> Plan.fault_classes_sharded
    | false, true -> Plan.fault_classes_acceptors
    | false, false -> Plan.fault_classes
  in
  let failures = ref [] in
  let events = ref 0 in
  let by_class = List.map (fun c -> (c, ref 0)) classes in
  let trip_tally : (string, int * float) Hashtbl.t = Hashtbl.create 4 in
  let tally_trips outcome =
    List.iter
      (fun (tr : Monitor.trip) ->
        let plans_hit, earliest =
          Option.value ~default:(0, infinity)
            (Hashtbl.find_opt trip_tally tr.m_monitor)
        in
        Hashtbl.replace trip_tally tr.m_monitor
          (plans_hit + 1, Float.min earliest tr.m_time))
      outcome.trips
  in
  for i = 0 to plans - 1 do
    let plan =
      Plan.generate ?shards ?acceptors ~seed:(plan_seed ~seed i) ~n_sites:cfg.n_sites
        ~n_txns:cfg.n_txns ~horizon ()
    in
    events := !events + Plan.length plan;
    List.iter (fun e -> incr (List.assoc (Plan.classify e) by_class)) plan.events;
    let outcome = run_plan ~seed ?shards ?acceptors ~protocol plan in
    tally_trips outcome;
    if outcome.violations <> [] then begin
      let outcome =
        if shrink_failures then
          run_plan ~seed ?shards ?acceptors ~protocol
            (shrink ~seed ?shards ?acceptors ~protocol plan)
        else outcome
      in
      failures := outcome :: !failures
    end
  done;
  {
    cp_protocol = protocol;
    cp_plans = plans;
    cp_events = !events;
    cp_by_class = List.map (fun (c, r) -> (c, !r)) by_class;
    cp_failures = List.rev !failures;
    cp_trips =
      Hashtbl.fold (fun m (n, t) acc -> (m, n, t) :: acc) trip_tally []
      |> List.sort compare;
  }

let run_campaign ?shrink_failures ?seed ?shards ?acceptors ~plans protocols =
  List.map (run_protocol ?shrink_failures ?seed ?shards ?acceptors ~plans) protocols

let stats_table ~plans ~seed stats =
  (* column set follows the campaign's class tally: the plain 5 classes
     unsharded, + shard-crash when the campaign ran sharded *)
  let classes =
    match stats with
    | s :: _ -> List.map fst s.cp_by_class
    | [] -> Plan.fault_classes
  in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf "R1: fault-injection campaign (%d plans/protocol, seed %Ld)"
           plans seed)
      ([ "protocol"; "plans"; "events" ] @ classes @ [ "violations" ])
  in
  List.iter
    (fun s ->
      Table.add_row tbl
        ([
           Protocol.obs_name s.cp_protocol;
           string_of_int s.cp_plans;
           string_of_int s.cp_events;
         ]
        @ List.map (fun c -> string_of_int (List.assoc c s.cp_by_class)) classes
        @ [ string_of_int (List.length s.cp_failures) ]))
    stats;
  tbl

let total_violations stats =
  List.fold_left (fun acc s -> acc + List.length s.cp_failures) 0 stats

(* Online-monitor first trips across a campaign; empty string when no
   monitor tripped anywhere (the expected healthy case — and then R1 and
   chaos output is byte-identical to the pre-monitor runs). *)
let trips_summary stats =
  let lines =
    List.concat_map
      (fun s ->
        List.map
          (fun (monitor, plans_hit, earliest) ->
            Printf.sprintf "  %-10s %-10s tripped in %d plan(s), earliest at t=%.2f"
              (Protocol.obs_name s.cp_protocol)
              monitor plans_hit earliest)
          s.cp_trips)
      stats
  in
  if lines = [] then ""
  else
    "monitor first trips (plans tripped, earliest virtual time):\n"
    ^ String.concat "\n" lines ^ "\n"

let experiment_r1 ?(plans = 25) ?(seed = 42L) ?shards ?acceptors () =
  let stats = run_campaign ~seed ?shards ?acceptors ~plans Protocol.all in
  Table.print (stats_table ~plans ~seed stats);
  (match trips_summary stats with
  | "" -> ()
  | s -> Printf.printf "\n%s" s);
  List.iter
    (fun s ->
      List.iter
        (fun o ->
          Printf.printf "\n%s violation under %s\n" (Protocol.obs_name s.cp_protocol)
            (Plan.to_string o.plan);
          List.iter
            (fun v -> Printf.printf "  %s\n" (Format.asprintf "%a" pp_violation v))
            o.violations)
        s.cp_failures)
    stats;
  stats
