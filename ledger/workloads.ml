(* The ledger's workloads. Each one stresses a different layer and leaves
   another idle, so a change to one layer shows up on the workload that
   exercises it and shows nothing on the one that bypasses it:

   - lock waits: rw-hotspot, against none in sharded-paxos and bank-1m;
   - the serializability checker: rw-hotspot, against transfer;
   - buffer-pool paging: transfer and mlt-aborts, against sharded-paxos;
   - set-up (build + preload): bank-1m, against tens of ms elsewhere;
   - net, batcher and Paxos: sharded-paxos only;
   - MLT (L1 locks, compensation): mlt-aborts only.

   Transfer and rw-hotspot use the lock table two ways (commuting
   increments, exclusive writes beside reads), so a lock-table change that
   helps one and costs the other shows up.

   Clients form a closed loop in virtual time: [concurrency] simulated
   clients, each issuing its next transaction when the previous one
   finished, with zero think time. Link latency 1 tu, op delay 1 and commit
   delay 2 are the Runner defaults. The seed is the only input that varies
   between runs of one workload. *)

module Runner = Icdb_workload.Runner
module Protocol = Icdb_workload.Protocol

type t = { name : string; why : string; config : Runner.config }

let base ~seed = { Runner.default with seed; concurrency = 16 }

let all ~seed =
  let base = base ~seed in
  [
    {
      name = "transfer";
      why =
        "steady commit-before path: commuting increments, no lock waits, cheap check, \
         heap outgrows the 64-frame buffer pool so pages are evicted";
      config =
        {
          base with
          protocol = Protocol.Before;
          n_sites = 4;
          accounts_per_site = 64;
          zipf_theta = 0.9;
          n_txns = 60_000;
        };
    };
    {
      name = "rw-hotspot";
      why =
        "exclusive locks on hot keys: some lock acquires wait and p99 is 5x p50; the \
         serializability check dominates the host time";
      config =
        {
          base with
          protocol = Protocol.Before;
          n_sites = 16;
          accounts_per_site = 256;
          use_increments = false;
          read_fraction = 0.5;
          zipf_theta = 0.99;
          n_txns = 10_000;
        };
    };
    {
      name = "mlt-aborts";
      why =
        "the only workload with L1 semantic locks, compensation and the MLT undo log; \
         about one txn in nine aborts, so failure paths run beside commits";
      config =
        {
          base with
          protocol = Protocol.Before_mlt;
          n_sites = 4;
          accounts_per_site = 256;
          zipf_theta = 0.9;
          p_intended_abort = 0.1;
          p_spontaneous = 0.05;
          n_txns = 30_000;
        };
    };
    {
      name = "bank-1m";
      why =
        "set-up bound: a 10^6-account preload and end-of-run snapshot outweigh the \
         transactions, uniform keys over a heap far beyond the CPU caches";
      config =
        {
          base with
          protocol = Protocol.Presumed_abort;
          n_sites = 8;
          accounts_per_site = 125_000;
          zipf_theta = 0.0;
          n_txns = 20_000;
        };
    };
    {
      name = "sharded-paxos";
      why =
        "message and decision-log path: 4 shards, 20% cross-shard, 3 Paxos acceptors, \
         batching and group commit on, no lock waits";
      config =
        {
          base with
          protocol = Protocol.Two_phase;
          n_sites = 8;
          accounts_per_site = 1_250;
          shards = 4;
          cross_shard_fraction = 0.2;
          acceptors = 3;
          msg_batch_window = Some 2.0;
          central_gc_window = Some 2.0;
          n_txns = 60_000;
        };
    };
  ]

(* The smoke size keeps every workload's shape (protocol, topology, skew)
   at a few hundred transactions and at most a few thousand accounts. *)
let smoke w =
  let c = w.config in
  { w with config = { c with n_txns = min c.n_txns 400; accounts_per_site = min c.accounts_per_site 1_250 } }

let find ~seed name = List.find_opt (fun w -> w.name = name) (all ~seed)
let names = List.map (fun w -> w.name) (all ~seed:0L)

(* Every field of the config that defines the workload. [sim_domains] is
   host placement, not workload, and the ledger always runs one domain. *)
let config_json (c : Runner.config) =
  let open Json in
  let num f = Num f and int i = Num (float_of_int i) in
  let opt = function None -> Null | Some f -> Num f in
  Obj
    [
      ("protocol", Str (Protocol.name c.protocol));
      ("seed", Str (Int64.to_string c.seed));
      ("n_sites", int c.n_sites);
      ("accounts_per_site", int c.accounts_per_site);
      ("initial_balance", int c.initial_balance);
      ("n_txns", int c.n_txns);
      ("concurrency", int c.concurrency);
      ("branches_per_txn", int c.branches_per_txn);
      ("ops_per_branch", int c.ops_per_branch);
      ("zipf_theta", num c.zipf_theta);
      ("use_increments", Bool c.use_increments);
      ("read_fraction", num c.read_fraction);
      ("p_intended_abort", num c.p_intended_abort);
      ("p_spontaneous", num c.p_spontaneous);
      ("spontaneous_window", Arr [ num (fst c.spontaneous_window); num (snd c.spontaneous_window) ]);
      ("crash_rate", num c.crash_rate);
      ("crash_duration", num c.crash_duration);
      ("latency", num c.latency);
      ("op_delay", num c.op_delay);
      ("commit_delay", num c.commit_delay);
      ("lock_wait_timeout", opt c.lock_wait_timeout);
      ( "granularity",
        Str
          (match c.granularity with
          | Icdb_localdb.Engine.Record_level -> "record"
          | Page_level -> "page") );
      ("prepare_capable", Bool c.prepare_capable);
      ("global_cc_enabled", Bool c.global_cc_enabled);
      ("mlt_action_retries", int c.mlt_action_retries);
      ("mixed_capabilities", Bool c.mixed_capabilities);
      ("group_commit_window", opt c.group_commit_window);
      ("checkpoint_interval", opt c.checkpoint_interval);
      ("heterogeneous_cc", Bool c.heterogeneous_cc);
      ("message_loss", num c.message_loss);
      ("msg_batch_window", opt c.msg_batch_window);
      ("central_gc_window", opt c.central_gc_window);
      ("shards", int c.shards);
      ("cross_shard_fraction", num c.cross_shard_fraction);
      ("decision_force_time", opt c.decision_force_time);
      ("acceptors", int c.acceptors);
    ]
