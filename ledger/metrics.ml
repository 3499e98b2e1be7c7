(* The ledger's metric catalogue: every end-to-end metric with its unit,
   direction and regression bound, and every per-layer metric with the
   end-to-end metric it should move and on which workload. Output, the
   [compare] gate and the name check against BENCHMARK.json all read this
   one table. *)

type better = Lower | Higher

(* [Host] metrics are host seconds or bytes: noisy, reported as the median
   and quartiles of the reps (seconds are CPU seconds at the reference host
   speed, see [Clock]), gated at [bound] (a share of the parent's median,
   but never less than [floor] in the metric's unit). [Exact]
   metrics are virtual-time or counted: deterministic in the seed, gated
   by equality at three decimals. *)
type kind = Host of { bound : float; floor : float } | Exact

type e2e = { name : string; unit : string; better : better; kind : kind; what : string }

let host ?(floor = 0.0) bound = Host { bound; floor }

let end_to_end =
  [
    {
      name = "txn_per_s";
      unit = "1/s";
      better = Higher;
      kind = host 0.10;
      what = "committed txns per CPU second of the transaction phase, at the reference host speed";
    };
    {
      name = "run_s";
      unit = "s";
      better = Lower;
      kind = host ~floor:0.05 0.10;
      what = "CPU seconds of the whole Runner.run, at the reference host speed";
    };
    {
      name = "setup_s";
      unit = "s";
      better = Lower;
      kind = host ~floor:0.05 0.10;
      what = "CPU seconds from Runner.run entry to on_setup (build + preload), at the reference host speed";
    };
    {
      name = "check_s";
      unit = "s";
      better = Lower;
      kind = host ~floor:0.05 0.10;
      what = "CPU seconds from on_drain to return (snapshot, money, serializability), at the reference host speed";
    };
    {
      name = "peak_heap_mb";
      unit = "MB";
      better = Lower;
      kind = host 0.10;
      what = "Gc.top_heap_words x word size at the end of the rep";
    };
    {
      name = "vt_txn_per_ktu";
      unit = "1/ktu";
      better = Higher;
      kind = Exact;
      what = "committed txns per 1000 virtual time units";
    };
    {
      name = "vt_resp_p50_tu";
      unit = "tu";
      better = Lower;
      kind = Exact;
      what = "median virtual response time of committed txns";
    };
    {
      name = "vt_resp_p99_tu";
      unit = "tu";
      better = Lower;
      kind = Exact;
      what = "99th-percentile virtual response time of committed txns";
    };
    {
      name = "msgs_per_commit";
      unit = "count";
      better = Lower;
      kind = Exact;
      what = "wire messages per committed txn";
    };
    {
      name = "forces_per_commit";
      unit = "count";
      better = Lower;
      kind = Exact;
      what = "site WAL + decision-log + acceptor forces per committed txn";
    };
    {
      name = "commit_ratio";
      unit = "ratio";
      better = Higher;
      kind = Exact;
      what = "committed / started (1 - abort rate)";
    };
  ]

type layer_metric = { lname : string; lunit : string; lbetter : better; moves : string }

let m ?(better = Lower) lname lunit moves = { lname; lunit; lbetter = better; moves }

(* Layers are the repository's modules. [moves] names the end-to-end metric
   the layer should move and where; a later change that claims a gain on a
   layer is checked against it. *)
let per_layer =
  let sim = "txn_per_s on sharded-paxos and transfer; little on bank-1m" in
  let lock = "txn_per_s on transfer, vt_resp_p99_tu on rw-hotspot; nothing on sharded-paxos" in
  let localdb = "txn_per_s on transfer and mlt-aborts, setup_s on bank-1m" in
  let wal = "txn_per_s on mlt-aborts, setup_s on bank-1m" in
  let net = "txn_per_s and msgs_per_commit on sharded-paxos; nothing on rw-hotspot" in
  let core = "vt_resp_p50_tu everywhere, forces_per_commit on sharded-paxos" in
  let mlt = "txn_per_s and commit_ratio on mlt-aborts; 0 elsewhere" in
  let graph = "check_s, run_s and peak_heap_mb on rw-hotspot; small on transfer" in
  let obs = "no end-to-end metric: end-to-end runs are untraced" in
  let gc = "txn_per_s everywhere, peak_heap_mb on rw-hotspot and bank-1m" in
  [
    m "sim.events_per_txn" "count" sim;
    m "sim.ns_per_event" "ns" sim;
    m "sim.share" "ratio" sim;
    m "lock.acquires_per_txn" "count" lock;
    m "lock.wait_ratio" "ratio" lock;
    m "lock.deadlocks_per_ktxn" "count" lock;
    m "lock.timeouts_per_ktxn" "count" lock;
    m "lock.wait_p99_tu" "tu" lock;
    m "lock.hold_mean_tu" "tu" lock;
    m "lock.ns_per_acquire" "ns" lock;
    m "lock.share" "ratio" lock;
    m "localdb.local_txns_per_txn" "count" localdb;
    m "localdb.ns_per_local_txn" "ns" localdb;
    m ~better:Higher "localdb.bp_hit_ratio" "ratio" localdb;
    m "localdb.bp_evictions_per_txn" "count" localdb;
    m "localdb.load_ns_per_row" "ns" localdb;
    m "localdb.share" "ratio" localdb;
    m "wal.records_per_txn" "count" wal;
    m "wal.forces_per_txn" "count" wal;
    m "wal.ns_per_append" "ns" wal;
    m "wal.share" "ratio" wal;
    m "net.msgs_per_txn" "count" net;
    m ~better:Higher "net.batch_occupancy" "count" net;
    m "net.ns_per_msg" "ns" net;
    m "net.share" "ratio" net;
    m "core.execute_p50_tu" "tu" core;
    m "core.vote_p50_tu" "tu" core;
    m "core.decide_p50_tu" "tu" core;
    m "core.local_commit_p50_tu" "tu" core;
    m "core.decision_forces_per_commit" "count" core;
    m "core.paxos_rounds_per_commit" "count" core;
    m "core.repetitions_per_ktxn" "count" core;
    m "core.abort_rate" "ratio" core;
    m "mlt.l1_acquires_per_txn" "count" mlt;
    m "mlt.compensations_per_abort" "count" mlt;
    m "mlt.ns_per_compatible" "ns" mlt;
    m "mlt.share" "ratio" mlt;
    m "graph.locals_per_txn" "count" graph;
    m "graph.ns_per_local" "ns" graph;
    m "graph.share" "ratio" graph;
    m "graph.check_share" "ratio" graph;
    m "obs.trace_overhead_pct" "%" obs;
    m "obs.trace_events_per_txn" "count" obs;
    m "gc.minor_words_per_txn" "words" gc;
    m "gc.major_collections" "count" gc;
    m "other.share" "ratio" "the remainder: protocol code, fibers, registry, generator";
  ]

let better_name = function Lower -> "lower" | Higher -> "higher"
