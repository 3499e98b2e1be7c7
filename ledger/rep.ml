(* One rep: a single [Runner.run] of one workload, timed by phase through
   the Runner's own hooks, with the run's counters read out per layer.

   Phases, in the seconds of [Clock] (CPU seconds at the reference host
   speed; as measured under "raw." names):
   - set-up: [Runner.run] entry -> [on_setup] (federation build, preload);
   - transaction phase: [on_setup] -> [on_drain] (every worker finished);
   - check: [on_drain] -> return (snapshot, money sum, serializability).

   Counters that the preload also moves (buffer pool, WAL, local commits)
   are read at [on_setup] and [on_drain] and reported as the difference, so
   they describe the transaction phase alone. *)

module Runner = Icdb_workload.Runner
module Federation = Icdb_core.Federation
module Graph = Icdb_core.Serialization_graph
module Registry = Icdb_obs.Registry
module Tracer = Icdb_obs.Tracer
module Sim = Icdb_sim.Engine
module Fiber = Icdb_sim.Fiber
module Db = Icdb_localdb.Engine
module Site = Icdb_net.Site
module Log = Icdb_wal.Log
module Pool = Icdb_storage.Buffer_pool

type counts = {
  bp_hits : int;
  bp_misses : int;
  bp_evictions : int;
  wal_records : int;
  wal_forces : int;
  local_txns : int;
  minor_words : float;
}

let counts (fed : Federation.t) =
  let sum f = List.fold_left (fun acc (_, site) -> acc + f (Site.db site)) 0 fed.sites in
  {
    bp_hits = sum (fun db -> Pool.hit_count (Db.buffer_pool db));
    bp_misses = sum (fun db -> Pool.miss_count (Db.buffer_pool db));
    bp_evictions = sum (fun db -> Pool.eviction_count (Db.buffer_pool db));
    wal_records = sum (fun db -> Log.record_count (Db.wal db));
    wal_forces = sum (fun db -> Log.force_count (Db.wal db));
    local_txns = sum (fun db -> Db.commit_count db + Db.abort_count db);
    minor_words = Gc.minor_words ();
  }

let counter_sum registry name =
  List.fold_left
    (fun acc ((k : Registry.key), n) -> if k.name = name then acc + n else acc)
    0 (Registry.snapshot registry).counters

let counter_with registry name label value =
  List.fold_left
    (fun acc ((k : Registry.key), n) ->
      if k.name = name && Registry.label k label = Some value then acc + n else acc)
    0 (Registry.snapshot registry).counters

(* The Runner's observability records lock waits per lock table; the
   ledger reports the worst table's p99 and the waits summed over all. *)
let lock_waits registry =
  List.fold_left
    (fun (n, p99) (_, h) -> (n + Registry.hist_count h, Float.max p99 (Registry.hist_percentile h 99.0)))
    (0, 0.0)
    (Registry.histograms_named registry "icdb_lock_wait_time")

let phase_p50 (report : Runner.report) name =
  match List.assoc_opt name report.phase_breakdown with
  | Some (h : Registry.hsnap) -> h.h_p50
  | None -> 0.0

let per n d = if d > 0 then float_of_int n /. float_of_int d else 0.0
let ratio x d = if d > 0 then x /. float_of_int d else 0.0

(* Mean number of pending engine events over the transaction phase, sampled
   every [every] tu by a fiber of its own; it stops once every transaction
   has an outcome, or nothing else is pending, so the engine can drain. *)
let sample_pending engine (fed : Federation.t) ~n_txns ~every =
  let samples = ref 0 and total = ref 0 in
  let module M = Icdb_core.Metrics in
  Fiber.spawn engine (fun () ->
      let rec loop () =
        Fiber.sleep engine every;
        if M.committed fed.metrics + M.aborted fed.metrics < n_txns && Sim.pending engine > 0
        then begin
          incr samples;
          total := !total + Sim.pending engine;
          loop ()
        end
      in
      loop ());
  fun () -> per !total !samples

type result = {
  values : (string * float) list;
  failures : string list;  (** correctness checks this rep failed *)
}

(* Values measured on the host; every other value a rep reports is
   deterministic in the workload's seed and must repeat exactly. *)
let host_keys =
  [
    "setup_s"; "txn_s"; "check_s"; "run_s"; "txn_per_s"; "peak_heap_mb"; "gc.major_collections";
    "gc.minor_words_per_txn"; "graph.violations_s"; "obs.trace_events_per_txn"; "sim.mean_pending";
    "probe_s";
  ]

let is_host key = List.mem key host_keys || String.starts_with ~prefix:"raw." key

let run ?(traced = false) (cfg : Runner.config) =
  Clock.start ();
  Fun.protect ~finally:Clock.stop @@ fun () ->
  (* the ledger's clock for the metrics, epoch seconds for the spans *)
  let now () = (Clock.read (), Unix.gettimeofday ()) in
  let fed_ref = ref None in
  let t_setup = ref (now ()) and t_drain = ref (now ()) in
  let at_setup = ref None and at_drain = ref None in
  let pending = ref (fun () -> 0.0) in
  let tracer =
    if traced then Some (Tracer.create ~enabled:true ~limit:512 ~clock:(fun () -> 0.0) ())
    else None
  in
  let on_setup engine fed =
    fed_ref := Some fed;
    if traced then pending := sample_pending engine fed ~n_txns:cfg.n_txns ~every:50.0;
    at_setup := Some (counts fed);
    t_setup := now ()
  in
  let on_drain () =
    t_drain := now ();
    at_drain := Option.map counts !fed_ref
  in
  let gc0 = Gc.quick_stat () in
  let t0 = now () in
  let report = Runner.run ?tracer ~on_setup ~on_drain cfg in
  let t_end = now () in
  let gc1 = Gc.quick_stat () in
  if traced then begin
    Spans.add ~name:"runner.setup" ~start:(snd t0) ~stop:(snd !t_setup);
    Spans.add ~name:"runner.txns" ~start:(snd !t_setup) ~stop:(snd !t_drain);
    Spans.add ~name:"runner.check" ~start:(snd !t_drain) ~stop:(snd t_end)
  end;
  let t0 = fst t0 and t_setup = fst !t_setup and t_drain = fst !t_drain and t_end = fst t_end in
  let fed = Option.get !fed_ref in
  let a = Option.get !at_setup and b = Option.get !at_drain in
  let registry = fed.registry in
  let started = report.started and committed = report.committed in
  let response = Registry.histogram registry "icdb_txn_response_time" in
  let acquires = counter_sum registry "icdb_lock_acquisitions_total" in
  let waits, wait_p99 = lock_waits registry in
  let decision_forces =
    report.central_log_forces + report.shard_log_forces + report.paxos_acceptor_forces
  in
  let site_forces = b.wal_forces - a.wal_forces in
  let bp_touches = b.bp_hits - a.bp_hits + (b.bp_misses - a.bp_misses) in
  (* each phase in reference seconds, and as measured under "raw." *)
  let phase name (x : Clock.reading) (y : Clock.reading) =
    [ (name, y.reference_s -. x.reference_s); ("raw." ^ name, y.cpu -. x.cpu) ]
  in
  let rate (x : Clock.reading) (y : Clock.reading) =
    let per s = if s > 0.0 then float_of_int committed /. s else 0.0 in
    [ ("txn_per_s", per (y.reference_s -. x.reference_s)); ("raw.txn_per_s", per (y.cpu -. x.cpu)) ]
  in
  let host =
    phase "setup_s" t0 t_setup
    @ phase "txn_s" t_setup t_drain
    @ phase "check_s" t_drain t_end
    @ phase "run_s" t0 t_end
    @ rate t_setup t_drain
    @ [
        ("probe_s", Clock.mean_probe_s ());
        ( "peak_heap_mb",
          float_of_int (gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. (1024.0 *. 1024.0) );
        ("gc.major_collections", float_of_int (gc1.major_collections - gc0.major_collections));
        ("gc.minor_words_per_txn", ratio (b.minor_words -. a.minor_words) started);
      ]
  in
  let counted =
    [
      ("vt_txn_per_ktu", report.throughput);
      ("vt_resp_p50_tu", Registry.hist_percentile response 50.0);
      ("vt_resp_p99_tu", Registry.hist_percentile response 99.0);
      ("msgs_per_commit", report.messages_per_committed);
      ("forces_per_commit", per (site_forces + decision_forces) committed);
      ("commit_ratio", per committed started);
      ("started", float_of_int started);
      ("committed", float_of_int committed);
      ("aborted", float_of_int report.aborted);
      ("sim.events_per_txn", per (counter_sum registry "icdb_sim_events_total") started);
      ("lock.acquires_per_txn", per acquires started);
      ("lock.wait_ratio", per waits acquires);
      ( "lock.deadlocks_per_ktxn",
        1000.0 *. per (counter_with registry "icdb_lock_wait_outcomes_total" "outcome" "deadlock") started );
      ( "lock.timeouts_per_ktxn",
        1000.0 *. per (counter_with registry "icdb_lock_wait_outcomes_total" "outcome" "timeout") started );
      ("lock.wait_p99_tu", wait_p99);
      ("lock.hold_mean_tu", report.mean_hold);
      ("localdb.local_txns_per_txn", per (b.local_txns - a.local_txns) started);
      ("localdb.bp_hit_ratio", per (b.bp_hits - a.bp_hits) bp_touches);
      ("localdb.bp_evictions_per_txn", per (b.bp_evictions - a.bp_evictions) started);
      ("wal.records_per_txn", per (b.wal_records - a.wal_records) started);
      ("wal.forces_per_txn", per site_forces started);
      ("net.msgs_per_txn", per report.messages started);
      ("net.batch_occupancy", report.batch_occupancy_mean);
      ("core.execute_p50_tu", phase_p50 report "execute");
      ("core.vote_p50_tu", phase_p50 report "vote");
      ("core.decide_p50_tu", phase_p50 report "decide");
      ("core.local_commit_p50_tu", phase_p50 report "local-commit");
      ("core.decision_forces_per_commit", per decision_forces committed);
      ("core.paxos_rounds_per_commit", per report.paxos_rounds committed);
      ("core.repetitions_per_ktxn", 1000.0 *. per report.repetitions started);
      ("core.abort_rate", per report.aborted started);
      ("mlt.l1_acquires_per_txn", per report.l1_acquisitions started);
      ("mlt.compensations_per_abort", per report.compensations report.aborted);
      ("graph.locals_per_txn", per (Graph.recorded_locals fed.graph) started);
    ]
  in
  let traced_values =
    match tracer with
    | None -> []
    | Some tr ->
      (* the check's dominant call, timed again on its own *)
      let t = (Clock.read ()).cpu in
      Spans.within "graph.violations" (fun () -> ignore (Graph.violations fed.graph));
      [
        ("graph.violations_s", (Clock.read ()).cpu -. t);
        ("obs.trace_events_per_txn", per (Tracer.length tr + Tracer.dropped tr) started);
        ("sim.mean_pending", !pending ());
      ]
  in
  let failures =
    List.concat
      [
        (if cfg.use_increments && not report.money_conserved then
           [ Printf.sprintf "money not conserved (%d -> %d)" report.money_before report.money_after ]
         else []);
        (if report.serializable then []
         else [ "history not serializable: " ^ String.concat "; " report.violations ]);
        (if started = committed + report.aborted then []
         else [ Printf.sprintf "started %d <> committed %d + aborted %d" started committed report.aborted ]);
        (if started = cfg.n_txns then [] else [ Printf.sprintf "started %d of %d txns" started cfg.n_txns ]);
      ]
  in
  { values = host @ counted @ traced_values; failures }

let to_json r =
  Json.Obj
    [
      ("values", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) r.values));
      ("failures", Json.Arr (List.map (fun s -> Json.Str s) r.failures));
    ]

let of_json j =
  {
    values = List.map (fun (k, v) -> (k, Json.to_num v)) (Json.to_assoc (Json.member "values" j));
    failures = List.map Json.to_str (Json.to_list (Json.member "failures" j));
  }
