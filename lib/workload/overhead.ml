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
module Graph = Icdb_core.Serialization_graph

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
  p_intended_abort : float;
  latency : float;
  op_delay : float;
  commit_delay : float;
  msg_batch_window : float option;
  central_gc_window : float option;
  group_commit_window : float option;
  acceptors : int;
}

let default =
  {
    protocol = Protocol.Two_phase;
    seed = 42L;
    n_sites = 4;
    accounts_per_site = 16;
    initial_balance = 1000;
    n_txns = 120;
    concurrency = 12;
    branches_per_txn = 2;
    ops_per_branch = 2;
    zipf_theta = 0.6;
    p_intended_abort = 0.15;
    latency = 1.0;
    op_delay = 1.0;
    commit_delay = 2.0;
    msg_batch_window = None;
    central_gc_window = None;
    group_commit_window = None;
    acceptors = 1;
  }

type result = {
  outcomes : bool list;
  committed : int;
  aborted : int;
  elapsed : float;
  throughput : float;
  messages : int;
  messages_per_committed : float;
  messages_by_label : (string * int) list;
  local_log_forces : int;
  central_log_forces : int;
  paxos_acceptor_forces : int;
  log_forces_per_commit : float;
  batch_envelopes : int;
  batch_occupancy_mean : float;
  money_conserved : bool;
  serializable : bool;
}

let site_name i = Printf.sprintf "site-%d" i
let account_name i = Printf.sprintf "acct-%03d" i

let site_config cfg i =
  let supports_prepare =
    match cfg.protocol with Protocol.Hybrid -> i mod 2 = 0 | _ -> true
  in
  {
    Db.site_name = site_name i;
    capabilities =
      {
        supports_prepare;
        supports_increment_locks = true;
        granularity = Db.Record_level;
        cc = Db.Locking { wait_timeout = None };
      };
    op_delay = cfg.op_delay;
    commit_delay = cfg.commit_delay;
    buffer_capacity = max 64 (cfg.accounts_per_site / 4);
    spontaneous = None;
    seed = Int64.add cfg.seed (Int64.of_int (1000 + i));
    group_commit_window = cfg.group_commit_window;
    checkpoint_interval = None;
  }

(* Each op moves a random amount; the last op absorbs the slack so the
   transaction nets to zero (the money-conservation invariant). *)
let balanced_deltas rng ~n =
  let deltas = Array.init n (fun _ -> Rng.int_in_range rng ~lo:(-20) ~hi:20) in
  let total = Array.fold_left ( + ) 0 deltas in
  deltas.(n - 1) <- deltas.(n - 1) - total;
  deltas

type spec = Flat of Global.spec | Mlt of Global.mlt_spec

(* The whole workload is generated up front from [seed] alone — no draws
   interleave with execution, so the spec list (sites touched, deltas,
   intended aborts, gids) is the same whatever the batching windows are.
   Combined with an all-increment workload on conflict-free lock modes
   (increments commute locally, globally and at L1) and no failure
   injection, every commit/abort decision is a pure function of its spec:
   batching can move events in time but never change an outcome. That is
   the property the equivalence test checks. *)
let gen_specs cfg =
  let rng = Rng.create cfg.seed in
  let sites_arr = Array.init cfg.n_sites site_name in
  let accts_arr = Array.init cfg.accounts_per_site account_name in
  let zipf = Zipf.create ~n:cfg.accounts_per_site ~theta:cfg.zipf_theta in
  let branches_n = min cfg.branches_per_txn cfg.n_sites in
  let n_ops = branches_n * cfg.ops_per_branch in
  Array.init cfg.n_txns (fun i ->
      let gid = i + 1 in
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
                     let site = sites_arr.(site_idx) in
                     let account = accts_arr.(Zipf.sample zipf rng) in
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
        let abort_branch =
          if intended_abort then Some (Rng.int rng branches_n) else None
        in
        let branches =
          List.mapi
            (fun bi site_idx ->
              let program =
                List.init cfg.ops_per_branch (fun oi ->
                    let account = accts_arr.(Zipf.sample zipf rng) in
                    Program.Increment (account, deltas.((bi * cfg.ops_per_branch) + oi)))
              in
              Global.branch
                ~vote_commit:(abort_branch <> Some bi)
                ~site:sites_arr.(site_idx) program)
            sites
        in
        Flat { Global.gid; branches })

let run ?registry cfg =
  if cfg.n_sites <= 0 || cfg.n_txns < 0 || cfg.concurrency <= 0 then
    invalid_arg "Overhead.run: bad configuration";
  let engine = Sim.create () in
  let configs = List.init cfg.n_sites (site_config cfg) in
  let fed =
    Federation.create engine ~latency:cfg.latency ~global_lock_timeout:None
      ?registry ~msg_batch_window:cfg.msg_batch_window
      ~central_gc_window:cfg.central_gc_window configs
  in
  let rows =
    List.init cfg.accounts_per_site (fun i -> (account_name i, cfg.initial_balance))
  in
  Federation.preload fed rows;
  let money_before = cfg.n_sites * cfg.accounts_per_site * cfg.initial_balance in
  (* Paxos Commit replication, fault-free: the lab that measures what the
     acceptor rounds cost in messages and forces per commit. *)
  let paxos =
    if cfg.acceptors > 1 then
      Some (Icdb_core.Paxos_commit.install fed ~acceptors:cfg.acceptors)
    else None
  in
  let specs = gen_specs cfg in
  let outcomes = Array.make (Array.length specs) false in
  let next = ref 0 in
  let finished_at = ref 0.0 in
  let worker () =
    let rec loop () =
      if !next < Array.length specs then begin
        let i = !next in
        incr next;
        let outcome =
          match specs.(i) with
          | Flat s -> Protocol.run_flat cfg.protocol fed s
          | Mlt s -> Icdb_core.Commit_before_mlt.run fed s
        in
        outcomes.(i) <- Global.is_committed outcome;
        loop ()
      end
    in
    loop ()
  in
  Fiber.spawn engine (fun () ->
      ignore (Fiber.all engine (List.init cfg.concurrency (fun _ -> worker)));
      finished_at := Sim.now engine);
  Sim.run engine;
  let elapsed = if !finished_at > 0.0 then !finished_at else Sim.now engine in
  let committed = Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 outcomes in
  let messages = Federation.total_messages fed in
  let local_log_forces =
    List.fold_left
      (fun acc (_, site) -> acc + Icdb_wal.Log.force_count (Db.wal (Site.db site)))
      0 fed.sites
  in
  let central_log_forces = Federation.log_forces fed fed.central in
  let paxos_acceptor_forces =
    match paxos with
    | Some p -> Icdb_core.Paxos_commit.acceptor_forces p
    | None -> 0
  in
  let money_after = Federation.committed_total fed in
  let per_commit n = if committed > 0 then float_of_int n /. float_of_int committed else 0.0 in
  {
    outcomes = Array.to_list outcomes;
    committed;
    aborted = Array.length outcomes - committed;
    elapsed;
    throughput = (if elapsed > 0.0 then float_of_int committed /. elapsed *. 1000.0 else 0.0);
    messages;
    messages_per_committed = per_commit messages;
    messages_by_label = Federation.messages_by_label fed;
    local_log_forces;
    central_log_forces;
    paxos_acceptor_forces;
    log_forces_per_commit =
      per_commit (local_log_forces + central_log_forces + paxos_acceptor_forces);
    batch_envelopes = Federation.batch_envelopes fed;
    batch_occupancy_mean = Federation.batch_occupancy_mean fed;
    money_conserved = money_after = money_before;
    serializable = Graph.violations fed.graph = [];
  }
