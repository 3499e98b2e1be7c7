(** Experiment runner: drives a stream of global transactions through one
    protocol over a freshly built federation and reports every metric the
    evaluation tables need.

    The default workload is the banking workload the paper's VODAK setting
    suggests: each global transaction moves money between accounts spread
    over several sites using commuting increments, so the federation-wide
    {b total balance is an atomicity invariant} — any protocol bug (lost
    repetition, double undo, partial commit across a crash) shows up as
    non-conserved money. Setting [use_increments = false] switches to a
    read/write mix instead. *)

type config = {
  protocol : Protocol.t;
  seed : int64;
  n_sites : int;
  accounts_per_site : int;
  initial_balance : int;
  n_txns : int;  (** global transactions to run *)
  concurrency : int;  (** worker fibers (multiprogramming level) *)
  branches_per_txn : int;  (** distinct sites each global transaction touches *)
  ops_per_branch : int;
  zipf_theta : float;  (** account-access skew *)
  use_increments : bool;
  read_fraction : float;  (** read/write mix when [use_increments] is off *)
  p_intended_abort : float;  (** probability a transaction decides to abort *)
  p_spontaneous : float;  (** per-local-transaction autonomous kill probability *)
  spontaneous_window : float * float;  (** kill delay range after local begin *)
  crash_rate : float;  (** expected site crashes per 1000 time units *)
  crash_duration : float;
  latency : float;  (** link latency per direction *)
  op_delay : float;
  commit_delay : float;
  lock_wait_timeout : float option;  (** local lock wait bound *)
  granularity : Icdb_localdb.Engine.granularity;
  prepare_capable : bool;
      (** sites expose a ready state (2PC needs it); ignored for [Hybrid],
          which alternates capable and incapable sites by construction *)
  global_cc_enabled : bool;  (** V7 switches the additional CC module off *)
  mlt_action_retries : int;  (** L0 action retries for [Before_mlt] (A3) *)
  mixed_capabilities : bool;
      (** alternate prepare-capable / incapable sites regardless of protocol
          (A2 compares protocols on such a federation) *)
  group_commit_window : float option;  (** batched log forces (A5) *)
  checkpoint_interval : float option;  (** periodic sharp checkpoints *)
  heterogeneous_cc : bool;
      (** every third site runs an optimistic scheduler (no prepared state)
          — the paper's "aborted by an optimistic scheduler" systems *)
  message_loss : float;
      (** per-message-copy drop probability; links switch to at-least-once
          delivery with receiver-side dedup (A6) *)
  msg_batch_window : float option;
      (** per-site decision-message piggybacking window (O1); [None] or a
          non-positive value = off, reproducing pre-batching runs exactly *)
  central_gc_window : float option;
      (** group-commit window for the central decision log (O1); [None] or
          non-positive = every decision forced individually *)
  shards : int;
      (** group the federation's sites into this many shards, each with its
          own coordinator site, journal, decision log and batcher
          ({!Icdb_core.Federation.create}). A transaction whose branches
          all land in one shard commits in a purely local round at its
          shard coordinator; cross-shard transactions run a top-level round
          over the participating shard coordinators. 1 (the default) is the
          unsharded federation, byte-identical to the pre-sharding runner.
          Must lie in [1..n_sites] *)
  cross_shard_fraction : float;
      (** probability a generated transaction deliberately spans at least
          two shards (round-robin over distinct shards); the rest sample
          all their branches inside one uniformly chosen shard. In [0,1];
          ignored when [shards <= 1] *)
  decision_force_time : float option;
      (** model the decision log as a serial device: every force occupies
          its coordinator's log head for this long, so with [shards = S]
          the federation has S+1 independent log heads instead of one —
          the contention sharding relieves. [None] (default) keeps forces
          instantaneous; ignored when [central_gc_window] is set *)
  acceptors : int;
      (** Paxos Commit group size (2F+1, odd, at most [n_sites]): every
          decision replicates to this many acceptor sites instead of
          forcing one coordinator log, and a leader crash can be failed
          over ({!Icdb_core.Paxos_commit}). 1 (the default) installs
          nothing and is byte-identical to the single-coordinator runner *)
}

val default : config

(** The fixed-spec lab's base config (O1, A1a): 2PC, 4 sites of 16
    accounts, 120 transactions from 12 workers, p(abort) = 0.15, no local
    lock wait bound. Run it with [~fixed_specs:true]. *)
val fixed_spec_default : config

type report = {
  elapsed : float;  (** virtual time until the last worker finished *)
  started : int;
  committed : int;
  aborted : int;
  throughput : float;  (** committed globals per 1000 virtual time units *)
  mean_response : float;
  p95_response : float;
  mean_hold : float;  (** mean local lock hold time *)
  p95_hold : float;
  messages : int;
  messages_per_committed : float;
  messages_by_label : (string * int) list;
  repetitions : int;
  compensations : int;
  redo_log_writes : int;
  undo_log_writes : int;  (** the additional component's log (standalone) *)
  mlt_log_writes : int;  (** the L1 manager's inherent log *)
  global_cc_acquisitions : int;  (** additional CC module work *)
  l1_acquisitions : int;  (** inherent L1 lock work *)
  local_lock_waits : int;
  local_lock_timeouts : int;
  local_lock_deadlocks : int;
  money_before : int;
  money_after : int;
  money_conserved : bool;  (** meaningful only with [use_increments] *)
  serializable : bool;
  violations : string list;
  decision_log_entries : int;
      (** stable decision records at the central system; presumed-abort
          writes none for aborts (A1) *)
  log_forces : int;  (** log force operations across all sites *)
  log_forces_per_commit : float;
  messages_dropped : int;  (** copies the lossy wire discarded *)
  phase_breakdown : (string * Icdb_obs.Registry.hsnap) list;
      (** per-phase latency summaries for this run's protocol, in canonical
          phase order (execute, vote, decide, local-commit, redo,
          compensate); phases the protocol never entered are absent *)
  batch_envelopes : int;
      (** wire envelopes carrying batched decision traffic (0 with batching
          off) *)
  batch_occupancy_mean : float;  (** logical messages per envelope *)
  central_log_forces : int;
      (** central decision-log forces: shared group-commit forces when
          [central_gc_window] is on, one per decision otherwise. In a
          sharded run only cross-shard transactions force here *)
  shard_log_forces : int;
      (** decision-log forces summed over the shard coordinators (same
          group-commit accounting as [central_log_forces]); 0 unsharded *)
  shard_decisions : int;
      (** decisions recorded at shard coordinators — fast-path decisions
          plus cross-shard mirrors; 0 unsharded *)
  paxos_rounds : int;
      (** Paxos accept rounds driven (ballot 0 + recovery ballots); 0 with
          [acceptors = 1] *)
  paxos_acceptor_forces : int;
      (** acceptor log forces across the groups (promises + votes) *)
  paxos_failovers : int;  (** new-leader elections triggered *)
  outcomes : bool array;
      (** each transaction's committed flag, in gid order, for a
          [~fixed_specs] run; [[||]] for a drawn run *)
}

(** [check_config config] is [Ok ()] for a configuration {!run} accepts,
    otherwise [Error] with one line naming the field and its valid range:
    sites, transactions and concurrency, [shards] in [1 .. n_sites],
    [cross_shard_fraction] in [\[0, 1\]], [acceptors] odd and in
    [1 .. n_sites]. *)
val check_config : config -> (unit, string) result

(** [run config] builds the federation, runs the workload to completion and
    returns the report. Deterministic in [config.seed]. Raises
    [Invalid_argument] when {!check_config} refuses [config].

    [registry] and [tracer] are passed to {!Icdb_core.Federation.create}; by
    default each run gets a fresh registry and a disabled tracer. When a
    shared [registry] is supplied, the per-run counters are reset at the
    start of the run (labelled metrics such as phase-latency histograms
    accumulate across runs by design).

    The three hooks exist for the fault-injection campaign
    ({!Icdb_fault.Campaign}):

    - [on_setup engine fed] runs once the federation is built and the
      accounts preloaded, before any worker or crash-injector fiber spawns
      — the place to arm fault plans (scheduled site crashes, loss bursts,
      a [central_fail] hook).
    - [on_txn_exn exn] is consulted when a protocol run raises inside a
      worker fiber; returning [true] swallows the exception (the worker
      issues the next transaction), [false] lets it propagate. Default:
      propagate everything.
    - [on_drain] runs as a fresh fiber after the workload settled and every
      site was restarted, with the engine drained again afterwards — the
      place for {!Icdb_core.Central_recovery.recover} and invariant probes
      that need the simulated clock.

    [fixed_specs] (default [false]) selects the workload. A drawn run
    draws each transaction's spec inside the worker fibers, so the
    workload itself depends on the execution interleaving: fine for
    throughput sweeps, useless for comparing {e the same transactions}
    under different batching windows. A fixed-spec run draws the whole
    spec list from [seed] (sites, deltas, intended aborts, gids) before
    any fiber starts, and the workers drain it in gid order. The specs are
    balanced increments on commuting lock modes, so with no failure
    injection every commit/abort decision is a pure function of its spec:
    batching windows, acceptors and worker counts may change timing and
    message counts, never [outcomes]. The equivalence property tests
    assert exactly that, and it is what makes O1's overhead-vs-window
    table an apples-to-apples comparison. A fixed-spec run ignores
    [use_increments], [read_fraction] and [cross_shard_fraction]; start
    from {!fixed_spec_default}. *)
val run :
  ?registry:Icdb_obs.Registry.t ->
  ?tracer:Icdb_obs.Tracer.t ->
  ?on_setup:(Icdb_sim.Engine.t -> Icdb_core.Federation.t -> unit) ->
  ?on_txn_exn:(exn -> bool) ->
  ?on_drain:(unit -> unit) ->
  ?fixed_specs:bool ->
  config ->
  report
