module Sim = Icdb_sim.Engine
module Fiber = Icdb_sim.Fiber
module Rng = Icdb_util.Rng
module Zipf = Icdb_util.Zipf
module Db = Icdb_localdb.Engine
module Program = Icdb_localdb.Program
module Site = Icdb_net.Site
module Action = Icdb_mlt.Action
module Federation = Icdb_core.Federation
module Global = Icdb_core.Global
module Metrics = Icdb_core.Metrics
module Action_log = Icdb_core.Action_log
module Graph = Icdb_core.Serialization_graph
module Lock = Icdb_lock.Lock_table
module Registry = Icdb_obs.Registry
module Span = Icdb_obs.Span

type config = {
  protocol : Protocol.t;
  seed : int64;
  n_sites : int;
  accounts_per_site : int;
  initial_balance : int;
  n_txns : int;
  concurrency : int;
  branches_per_txn : int;
  ops_per_branch : int;
  zipf_theta : float;
  use_increments : bool;
  read_fraction : float;
  p_intended_abort : float;
  p_spontaneous : float;
  spontaneous_window : float * float;
  crash_rate : float;
  crash_duration : float;
  latency : float;
  op_delay : float;
  commit_delay : float;
  lock_wait_timeout : float option;
  granularity : Db.granularity;
  prepare_capable : bool;
  global_cc_enabled : bool;
  mlt_action_retries : int;
  mixed_capabilities : bool;
  group_commit_window : float option;
  checkpoint_interval : float option;
  heterogeneous_cc : bool;
  message_loss : float;
  msg_batch_window : float option;
  central_gc_window : float option;
  shards : int;
      (* group the sites into this many shards, each with its own
         coordinator, journal and decision log; 1 = the unsharded
         federation, byte-identical to the pre-sharding runner *)
  cross_shard_fraction : float;
      (* probability that a generated transaction deliberately spans at
         least two shards; the rest stay within one shard and take the
         single-shard fast path (ignored when [shards <= 1]) *)
  decision_force_time : float option;
      (* serial decision-log device: each force at a coordinator occupies
         its log head for this long (see {!Federation.create}) *)
  acceptors : int;
      (* Paxos Commit group size (2F+1): decisions replicate to this many
         acceptor sites instead of forcing one coordinator log; 1 = Paxos
         off, byte-identical to the single-coordinator runner *)
}

let default =
  {
    protocol = Protocol.Before;
    seed = 42L;
    n_sites = 4;
    accounts_per_site = 32;
    initial_balance = 1000;
    n_txns = 200;
    concurrency = 8;
    branches_per_txn = 2;
    ops_per_branch = 2;
    zipf_theta = 0.6;
    use_increments = true;
    read_fraction = 0.5;
    p_intended_abort = 0.0;
    p_spontaneous = 0.0;
    spontaneous_window = (2.0, 20.0);
    crash_rate = 0.0;
    crash_duration = 30.0;
    latency = 1.0;
    op_delay = 1.0;
    commit_delay = 2.0;
    lock_wait_timeout = Some 100.0;
    granularity = Db.Record_level;
    prepare_capable = true;
    global_cc_enabled = true;
    mlt_action_retries = 0;
    mixed_capabilities = false;
    group_commit_window = None;
    checkpoint_interval = None;
    heterogeneous_cc = false;
    message_loss = 0.0;
    msg_batch_window = None;
    central_gc_window = None;
    shards = 1;
    cross_shard_fraction = 0.0;
    decision_force_time = None;
    acceptors = 1;
  }

type report = {
  elapsed : float;
  started : int;
  committed : int;
  aborted : int;
  throughput : float;
  mean_response : float;
  p95_response : float;
  mean_hold : float;
  p95_hold : float;
  messages : int;
  messages_per_committed : float;
  messages_by_label : (string * int) list;
  repetitions : int;
  compensations : int;
  redo_log_writes : int;
  undo_log_writes : int;
  mlt_log_writes : int;
  global_cc_acquisitions : int;
  l1_acquisitions : int;
  local_lock_waits : int;
  local_lock_timeouts : int;
  local_lock_deadlocks : int;
  money_before : int;
  money_after : int;
  money_conserved : bool;
  serializable : bool;
  violations : string list;
  decision_log_entries : int;
  log_forces : int;
  log_forces_per_commit : float;
  messages_dropped : int;
  phase_breakdown : (string * Registry.hsnap) list;
  batch_envelopes : int;
  batch_occupancy_mean : float;
  central_log_forces : int;
  shard_log_forces : int;
  shard_decisions : int;
  paxos_rounds : int;
  paxos_acceptor_forces : int;
  paxos_failovers : int;
  outcomes : bool array;
}

let site_name i = Printf.sprintf "site-%d" i
let account_name i = Printf.sprintf "acct-%03d" i

let site_config cfg i =
  (* A hybrid federation is mixed by construction: alternate sites expose
     the prepared state. *)
  (* Heterogeneous CC: every third site runs an optimistic scheduler, the
     rest lock. Optimistic sites cannot expose a prepared state. *)
  let optimistic = cfg.heterogeneous_cc && i mod 3 = 2 in
  let supports_prepare =
    (not optimistic)
    &&
    match cfg.protocol with
    | Protocol.Hybrid -> i mod 2 = 0
    | _ when cfg.mixed_capabilities -> i mod 2 = 0
    | _ -> cfg.prepare_capable
  in
  {
    Db.site_name = site_name i;
    capabilities =
      {
        supports_prepare;
        supports_increment_locks = true;
        granularity = cfg.granularity;
        cc =
          (if optimistic then Db.Optimistic
           else Locking { wait_timeout = cfg.lock_wait_timeout });
      };
    op_delay = cfg.op_delay;
    commit_delay = cfg.commit_delay;
    (* Scale the pool with the preload so million-account sites keep their
       working set resident (a cold heap scan per insert would dominate).
       Every seed-scale config stays at exactly 64 frames. *)
    buffer_capacity = max 64 (cfg.accounts_per_site / 4);
    spontaneous =
      (if cfg.p_spontaneous > 0.0 then
         Some
           {
             probability = cfg.p_spontaneous;
             min_delay = fst cfg.spontaneous_window;
             max_delay = snd cfg.spontaneous_window;
           }
       else None);
    seed = Int64.add cfg.seed (Int64.of_int (1000 + i));
    group_commit_window = cfg.group_commit_window;
    checkpoint_interval = cfg.checkpoint_interval;
  }

(* Balanced increment deltas: each op moves a random amount, the last op of
   the last branch absorbs the slack so the transaction nets to zero. *)
let balanced_deltas rng ~n =
  let deltas = Array.init n (fun _ -> Rng.int_in_range rng ~lo:(-20) ~hi:20) in
  let total = Array.fold_left ( + ) 0 deltas in
  deltas.(n - 1) <- deltas.(n - 1) - total;
  deltas

(* Site and account name strings are formatted once per run and indexed
   thereafter: the generators run per transaction, and formatting every
   object name was one of the top per-transaction allocators. *)
type names = {
  ns_sites : string array;
  ns_accounts : string array;
  ns_shards : int array array;
      (* site indices per shard coordinator, in member order; [||] when the
         run is unsharded *)
}

let make_names cfg (fed : Federation.t) =
  let ns_sites = Array.init cfg.n_sites site_name in
  let index name = Option.get (Array.find_index (String.equal name) ns_sites) in
  {
    ns_sites;
    ns_accounts = Array.init cfg.accounts_per_site account_name;
    ns_shards =
      Array.map
        (fun (c : Federation.coordinator) -> Array.of_list (List.map index c.members))
        fed.shards;
  }

(* Shard-aware site placement. A single-shard transaction samples all its
   branches inside one uniformly chosen shard (→ the fast path); a
   cross-shard one spreads its branches round-robin over distinct shards so
   "cross" deterministically means cross. An unsharded run keeps its exact
   pre-sharding draw sequence. *)
let within rng members n =
  let n = min n (Array.length members) in
  List.map
    (fun i -> members.(i))
    (Rng.sample_distinct rng ~n ~bound:(Array.length members))

let pick_sites cfg names rng ~branches_n =
  let shards = Array.length names.ns_shards in
  if shards = 0 then Rng.sample_distinct rng ~n:branches_n ~bound:cfg.n_sites
  else if branches_n > 1 && Rng.bernoulli rng cfg.cross_shard_fraction then begin
    let k = min branches_n shards in
    let shard_ids = Rng.sample_distinct rng ~n:k ~bound:shards in
    let quota = Array.make shards 0 in
    List.iteri
      (fun b _ ->
        let s = List.nth shard_ids (b mod k) in
        quota.(s) <- quota.(s) + 1)
      (List.init branches_n Fun.id);
    List.concat_map (fun s -> within rng names.ns_shards.(s) quota.(s)) shard_ids
  end
  else within rng names.ns_shards.(Rng.int rng shards) branches_n

let flat_spec cfg names fed rng zipf =
  let gid = Federation.fresh_gid fed in
  let branches_n = min cfg.branches_per_txn cfg.n_sites in
  let sites = pick_sites cfg names rng ~branches_n in
  let branches_n = List.length sites in
  let abort_branch =
    if Rng.bernoulli rng cfg.p_intended_abort then Some (Rng.int rng branches_n) else None
  in
  let n_ops = branches_n * cfg.ops_per_branch in
  let deltas = if cfg.use_increments then balanced_deltas rng ~n:n_ops else [||] in
  let branches =
    List.mapi
      (fun bi site_idx ->
        let program =
          List.init cfg.ops_per_branch (fun oi ->
              let account = names.ns_accounts.(Zipf.sample zipf rng) in
              if cfg.use_increments then
                Program.Increment (account, deltas.((bi * cfg.ops_per_branch) + oi))
              else if Rng.bernoulli rng cfg.read_fraction then Program.Read account
              else Program.Write (account, Rng.int rng 10_000))
        in
        Global.branch ~vote_commit:(abort_branch <> Some bi) ~site:names.ns_sites.(site_idx)
          program)
      sites
  in
  { Global.gid; branches }

let mlt_spec cfg names fed rng zipf =
  let gid = Federation.fresh_gid fed in
  let branches_n = min cfg.branches_per_txn cfg.n_sites in
  let sites = pick_sites cfg names rng ~branches_n in
  let branches_n = List.length sites in
  let n_ops = branches_n * cfg.ops_per_branch in
  let deltas = if cfg.use_increments then balanced_deltas rng ~n:n_ops else [||] in
  let actions =
    List.concat
      (List.mapi
         (fun bi site_idx ->
           List.init cfg.ops_per_branch (fun oi ->
               let site = names.ns_sites.(site_idx) in
               let account = names.ns_accounts.(Zipf.sample zipf rng) in
               if cfg.use_increments then begin
                 let delta = deltas.((bi * cfg.ops_per_branch) + oi) in
                 if delta >= 0 then Action.deposit ~site ~account delta
                 else Action.withdraw ~site ~account (-delta)
               end
               else if Rng.bernoulli rng cfg.read_fraction then
                 Action.read_balance ~site ~account
               else
                 (* A blind overwrite is not invertible without the before
                    image; MLT models it as a non-commuting write whose
                    inverse the action itself cannot know, so the generator
                    uses increments disguised as writes instead. *)
                 Action.increment ~site ~key:account (Rng.int_in_range rng ~lo:(-10) ~hi:10)))
         sites)
  in
  let abort_after =
    if Rng.bernoulli rng cfg.p_intended_abort then Some (Rng.int rng (List.length actions))
    else None
  in
  { Global.mlt_gid = gid; actions; abort_after }

(* The fixed-spec lab (O1, A1a; see [fixed_specs] in the interface). Its
   draw order is not [flat_spec]'s/[mlt_spec]'s: every transaction draws
   its sites, deltas and intended-abort flag first and the same number of
   values after, so all six protocols commit and abort the same
   transactions. Every spec holds balanced increments, which commute
   locally, globally and at L1. *)
let fixed_spec_default =
  {
    default with
    protocol = Protocol.Two_phase;
    accounts_per_site = 16;
    n_txns = 120;
    concurrency = 12;
    p_intended_abort = 0.15;
    lock_wait_timeout = None;
  }

type fixed_spec = Flat of Global.spec | Mlt of Global.mlt_spec

let fixed_specs_of cfg names fed zipf =
  let rng = Rng.create cfg.seed in
  let branches_n = min cfg.branches_per_txn cfg.n_sites in
  let n_ops = branches_n * cfg.ops_per_branch in
  Array.init cfg.n_txns (fun _ ->
      let gid = Federation.fresh_gid fed in
      let sites = Rng.sample_distinct rng ~n:branches_n ~bound:cfg.n_sites in
      let deltas = balanced_deltas rng ~n:n_ops in
      let intended_abort = Rng.bernoulli rng cfg.p_intended_abort in
      match cfg.protocol with
      | Protocol.Before_mlt ->
        let actions =
          List.concat
            (List.mapi
               (fun bi site_idx ->
                 List.init cfg.ops_per_branch (fun oi ->
                     let site = names.ns_sites.(site_idx) in
                     let account = names.ns_accounts.(Zipf.sample zipf rng) in
                     let delta = deltas.((bi * cfg.ops_per_branch) + oi) in
                     if delta >= 0 then Action.deposit ~site ~account delta
                     else Action.withdraw ~site ~account (-delta)))
               sites)
        in
        let abort_after =
          if intended_abort then Some (Rng.int rng (List.length actions)) else None
        in
        Mlt { Global.mlt_gid = gid; actions; abort_after }
      | _ ->
        let abort_branch = if intended_abort then Some (Rng.int rng branches_n) else None in
        let branches =
          List.mapi
            (fun bi site_idx ->
              let program =
                List.init cfg.ops_per_branch (fun oi ->
                    let account = names.ns_accounts.(Zipf.sample zipf rng) in
                    Program.Increment (account, deltas.((bi * cfg.ops_per_branch) + oi)))
              in
              Global.branch ~vote_commit:(abort_branch <> Some bi)
                ~site:names.ns_sites.(site_idx) program)
            sites
        in
        Flat { Global.gid; branches })

(* Per-(protocol, phase) latency summary, canonical phase order. *)
let phase_breakdown registry ~protocol =
  let of_protocol =
    List.filter
      (fun ((key : Registry.key), _) -> Registry.label key "protocol" = Some protocol)
      (Registry.histograms_named registry "icdb_phase_time")
  in
  List.filter_map
    (fun phase ->
      let name = Span.phase_name phase in
      List.find_map
        (fun ((key : Registry.key), h) ->
          if Registry.label key "phase" = Some name then
            Some (name, Registry.hist_snapshot h)
          else None)
        of_protocol)
    Span.all_phases

let check_config cfg =
  if cfg.n_sites <= 0 || cfg.n_txns < 0 || cfg.concurrency <= 0 then
    Error "bad configuration"
  else if cfg.shards < 1 || cfg.shards > cfg.n_sites then
    Error
      (Printf.sprintf "shards must be in 1..%d (%d sites), not %d" cfg.n_sites cfg.n_sites
         cfg.shards)
  else if cfg.cross_shard_fraction < 0.0 || cfg.cross_shard_fraction > 1.0 then
    Error "cross_shard_fraction must be in [0,1]"
  else if cfg.acceptors < 1 || cfg.acceptors mod 2 = 0 || cfg.acceptors > cfg.n_sites then
    Error
      (Printf.sprintf "acceptors must be odd and in 1..%d (%d sites), not %d" cfg.n_sites
         cfg.n_sites cfg.acceptors)
  else Ok ()

let run ?registry ?tracer ?on_setup ?on_txn_exn ?on_drain ?(fixed_specs = false) cfg =
  Result.iter_error (fun msg -> invalid_arg ("Runner.run: " ^ msg)) (check_config cfg);
  let engine = Sim.create () in
  (* A caller-supplied tracer predates this engine; point it at our clock. *)
  Option.iter
    (fun tr -> Icdb_obs.Tracer.set_clock tr (fun () -> Sim.now engine))
    tracer;
  let configs = List.init cfg.n_sites (site_config cfg) in
  let fed =
    Federation.create engine ~latency:cfg.latency
      ~loss:cfg.message_loss ?registry ?tracer
      ~msg_batch_window:cfg.msg_batch_window
      ~central_gc_window:cfg.central_gc_window ~shards:cfg.shards
      ~decision_force_time:cfg.decision_force_time configs
  in
  (* On a shared registry the per-run counters may hold a previous run's
     totals; start this run from zero. (Labelled metrics — phase latencies,
     message counts — accumulate by design.) *)
  if registry <> None then Metrics.reset fed.metrics;
  fed.global_cc_enabled <- cfg.global_cc_enabled;
  let names = make_names cfg fed in
  (* Preload accounts, reusing the interned name array instead of
     re-formatting every account name a second time. *)
  let rows =
    List.init cfg.accounts_per_site (fun i -> (names.ns_accounts.(i), cfg.initial_balance))
  in
  Federation.preload fed rows;
  let money_before = cfg.n_sites * cfg.accounts_per_site * cfg.initial_balance in
  (* Paxos Commit: installed before [on_setup] so fault injectors armed
     there already see the leader-failover hook; [acceptors = 1] installs
     nothing and the run is byte-identical to the plain runner. *)
  let paxos =
    if cfg.acceptors > 1 then
      Some (Icdb_core.Paxos_commit.install fed ~acceptors:cfg.acceptors)
    else None
  in
  (* Fault-campaign hook: runs with the federation built and preloaded but
     before any fiber is spawned, so injectors it arms see the whole run. *)
  Option.iter (fun f -> f engine fed) on_setup;
  let master_rng = Rng.create cfg.seed in
  let zipf = Zipf.create ~n:cfg.accounts_per_site ~theta:cfg.zipf_theta in
  (* A fixed-spec run draws its whole workload here, before any fiber starts. *)
  let specs = if fixed_specs then fixed_specs_of cfg names fed zipf else [||] in
  let outcomes = Array.make (Array.length specs) false in
  let issued = ref 0 in
  let finished_at = ref 0.0 in
  let stop_crashes = ref false in
  (* Crash injectors, one per site. *)
  if cfg.crash_rate > 0.0 then
    List.iter
      (fun (_, site) ->
        let rng = Rng.split master_rng in
        Fiber.spawn engine (fun () ->
            let rec loop () =
              Fiber.sleep engine (Rng.exponential rng ~mean:(1000.0 /. cfg.crash_rate));
              if not !stop_crashes then begin
                if Site.is_up site then Site.crash_for site ~duration:cfg.crash_duration;
                loop ()
              end
            in
            loop ()))
      fed.sites;
  (* Workers. *)
  let run_mlt spec =
    Icdb_core.Commit_before_mlt.run ~action_retries:cfg.mlt_action_retries fed spec
  in
  let worker rng () =
    let run_one i =
      if fixed_specs then
        outcomes.(i) <-
          Global.is_committed
            (match specs.(i) with
            | Flat s -> Protocol.run_flat cfg.protocol fed s
            | Mlt s -> run_mlt s)
      else
        match cfg.protocol with
        | Protocol.Before_mlt -> ignore (run_mlt (mlt_spec cfg names fed rng zipf))
        | flat -> ignore (Protocol.run_flat flat fed (flat_spec cfg names fed rng zipf))
    in
    let rec loop () =
      if !issued < cfg.n_txns then begin
        let i = !issued in
        incr issued;
        (match on_txn_exn with
        | None -> run_one i
        | Some handler -> (
          (* Injected central crashes abandon the protocol run mid-flight;
             the handler decides whether the worker survives to issue the
             next transaction. *)
          try run_one i with e when handler e -> ()));
        loop ()
      end
    in
    loop ()
  in
  Fiber.spawn engine (fun () ->
      let workers =
        List.init cfg.concurrency (fun _ ->
            let rng = Rng.split master_rng in
            worker rng)
      in
      ignore (Fiber.all engine workers);
      finished_at := Sim.now engine;
      stop_crashes := true);
  Sim.run engine;
  (* Make sure every site is up so the final snapshot sees recovered state. *)
  List.iter
    (fun (_, site) -> if not (Site.is_up site) then ignore (Site.restart site))
    fed.sites;
  (* Fault-campaign drain hook: runs as a fiber after the workload settled
     and all sites restarted — the place for central recovery and
     invariant probes that need the simulated clock. *)
  Option.iter
    (fun f ->
      Fiber.spawn engine f;
      Sim.run engine)
    on_drain;
  let elapsed = if !finished_at > 0.0 then !finished_at else Sim.now engine in
  let m = fed.metrics in
  let committed = Metrics.committed m in
  let messages = Federation.total_messages fed in
  let money_after = Federation.committed_total fed in
  let violations = Graph.violations fed.graph in
  let sum f = List.fold_left (fun acc (_, site) -> acc + f (Site.db site)) 0 fed.sites in
  {
    elapsed;
    started = Metrics.started m;
    committed;
    aborted = Metrics.aborted m;
    throughput = (if elapsed > 0.0 then float_of_int committed /. elapsed *. 1000.0 else 0.0);
    mean_response = Metrics.mean_response_time m;
    p95_response = Metrics.p95_response_time m;
    mean_hold = Metrics.mean_hold_time m;
    p95_hold = Metrics.p95_hold_time m;
    messages;
    messages_per_committed =
      (if committed > 0 then float_of_int messages /. float_of_int committed else 0.0);
    messages_by_label = Federation.messages_by_label fed;
    repetitions = Metrics.repetitions m;
    compensations = Metrics.compensations m;
    redo_log_writes = Action_log.write_count fed.redo_log;
    undo_log_writes = Action_log.write_count fed.undo_log;
    mlt_log_writes = Action_log.write_count fed.mlt_undo_log;
    global_cc_acquisitions = Metrics.global_lock_acquisitions m;
    l1_acquisitions = Metrics.l1_lock_acquisitions m;
    local_lock_waits = sum Db.lock_wait_count;
    local_lock_timeouts = sum Db.lock_timeout_count;
    local_lock_deadlocks = sum Db.lock_deadlock_count;
    money_before;
    money_after;
    money_conserved = money_after = money_before;
    serializable = violations = [];
    violations = List.map (Format.asprintf "%a" Graph.pp_violation) violations;
    decision_log_entries = Federation.decision_log_size fed;
    log_forces = sum (fun db -> Icdb_wal.Log.force_count (Db.wal db));
    log_forces_per_commit =
      (if committed > 0 then
         float_of_int (sum (fun db -> Icdb_wal.Log.force_count (Db.wal db)))
         /. float_of_int committed
       else 0.0);
    messages_dropped =
      List.fold_left
        (fun acc (_, site) -> acc + Icdb_net.Link.dropped_count (Site.link site))
        0 fed.sites;
    phase_breakdown =
      phase_breakdown fed.registry ~protocol:(Protocol.obs_name cfg.protocol);
    batch_envelopes = Federation.batch_envelopes fed;
    batch_occupancy_mean = Federation.batch_occupancy_mean fed;
    central_log_forces = Federation.log_forces fed fed.central;
    shard_log_forces =
      Array.fold_left (fun acc c -> acc + Federation.log_forces fed c) 0 fed.shards;
    shard_decisions =
      Array.fold_left
        (fun acc (c : Federation.coordinator) -> acc + c.decisions)
        0 fed.shards;
    paxos_rounds =
      (match paxos with Some p -> Icdb_core.Paxos_commit.rounds p | None -> 0);
    paxos_acceptor_forces =
      (match paxos with
      | Some p -> Icdb_core.Paxos_commit.acceptor_forces p
      | None -> 0);
    paxos_failovers =
      (match paxos with Some p -> Icdb_core.Paxos_commit.failovers p | None -> 0);
    outcomes;
  }
