module Sim = Icdb_sim.Engine
module Site = Icdb_net.Site
module Table = Icdb_util.Table
module Federation = Icdb_core.Federation
module Central_recovery = Icdb_core.Central_recovery
module Paxos = Icdb_core.Paxos_commit

(* A1 — availability lab: what Paxos Commit buys and what it costs.

   Part A prices the replication on the fault-free path with the O1
   fixed-spec lab ([Runner.run ~fixed_specs:true]): the same pre-generated
   transactions run with a single-coordinator decision log
   ([acceptors = 1]) and with a 2F+1 acceptor group ([acceptors = 3]);
   outcomes are asserted identical, so the msgs/commit and forces/commit
   deltas are pure protocol overhead.

   Part B measures the blocking window 2PC is infamous for: the same
   workload, same seed, one scripted leader crash at the "voted" instant
   of a mid-run transaction — the classic in-doubt window — plus one
   crashed acceptor site, i.e. F = 1 of 3 replicas down. With a single
   coordinator the victim stays in doubt until post-run restart recovery;
   with Paxos Commit a new leader completes it from the acceptor quorum
   after the failover delay, while the workload is still running. The
   verdict line is greppable by CI. *)

(* Raised by the scripted leader crash inside the victim's coordinator
   fiber; the runner's worker swallows it (the fiber dies, the journal
   entry stays open — exactly a coordinator crash). *)
exception Leader_crash

type blocking_result = {
  br_report : Runner.report;
  br_crash_time : float;  (** virtual instant the leader died *)
  br_close_time : float;  (** virtual instant the victim's entry closed *)
  br_resolved_mid_run : bool;
      (** victim settled before the last worker finished (no blocking) *)
}

let blocking_config ~acceptors ~n_txns ~seed =
  {
    Runner.default with
    protocol = Protocol.Two_phase;
    seed;
    n_txns;
    n_sites = 4;
    concurrency = 6;
    accounts_per_site = 12;
    initial_balance = 500;
    branches_per_txn = 2;
    ops_per_branch = 2;
    zipf_theta = 0.8;
    use_increments = true;
    lock_wait_timeout = Some 50.0;
    acceptors;
  }

(* One scripted run: crash the leader at gid [victim]'s "voted" instant
   (in-doubt window open at every participant), take acceptor site 2 down
   through the failover window (F = 1 of 3 with [acceptors = 3]; the same
   plan runs against [acceptors = 1] so the comparison is like for like),
   and record when the victim's journal entry finally closes. *)
let blocking_run ~acceptors ~n_txns ~seed =
  let cfg = blocking_config ~acceptors ~n_txns ~seed in
  let victim_k = n_txns / 6 in
  let victim = ref (-1) in
  let crash_time = ref nan in
  let close_time = ref nan in
  let resolved_mid_run = ref false in
  let drain_started = ref false in
  let fed_ref = ref None in
  let on_setup engine (fed : Federation.t) =
    fed_ref := Some fed;
    victim := fed.next_gid + victim_k + 1;
    let fired = ref false in
    fed.central_fail <-
      (fun ~gid phase ->
        if gid = !victim && phase = "voted" && not !fired then begin
          fired := true;
          crash_time := Sim.now engine;
          (* the simultaneous acceptor fault: one replica of the group is
             down across the whole failover window *)
          (match List.nth_opt fed.sites 2 with
          | Some (_, s) when Site.is_up s -> Site.crash_for s ~duration:60.0
          | _ -> ());
          (* volatile central state dies with the coordinator fiber; a new
             leader (a no-op without Paxos) takes the instance over *)
          Central_recovery.crash fed;
          fed.leader_failover ~gid;
          raise Leader_crash
        end);
    let prev = fed.journal_hook in
    fed.journal_hook <-
      (fun ev ->
        (match ev with
        | Federation.J_closed gid when gid = !victim && Float.is_nan !close_time ->
          close_time := Sim.now engine;
          (* closed before restart recovery even began = the transaction
             made progress while the workload was still live *)
          resolved_mid_run := not !drain_started
        | _ -> ());
        prev ev)
  in
  let on_txn_exn = function Leader_crash -> true | _ -> false in
  let on_drain () =
    drain_started := true;
    (* restart recovery: the single-coordinator baseline's only way to
       settle the victim — and the instant its blocking window ends *)
    match !fed_ref with
    | Some fed -> ignore (Central_recovery.recover fed)
    | None -> ()
  in
  let report = Runner.run ~on_setup ~on_txn_exn ~on_drain cfg in
  {
    br_report = report;
    br_crash_time = !crash_time;
    br_close_time = !close_time;
    br_resolved_mid_run = !resolved_mid_run;
  }

let overhead_protocols = [ Protocol.Two_phase; Protocol.After; Protocol.Before ]

let run_a1 ?(smoke = false) ?(seed = 42L) () =
  let buf = Buffer.create 2048 in
  let n_txns_a = if smoke then 60 else 120 in
  let n_txns_b = if smoke then 30 else 60 in
  (* --- part A: fault-free replication overhead ---------------------- *)
  let tbl_a =
    Table.create
      ~title:
        (Printf.sprintf
           "A1a - fault-free cost of Paxos Commit (fixed specs, %d txns, seed %Ld)"
           n_txns_a seed)
      [
        "protocol";
        "acceptors";
        "msgs/commit";
        "decision forces/commit";
        "forces/commit";
        "committed";
        "outcomes";
      ]
  in
  let outcomes_diverged = ref false in
  List.iter
    (fun protocol ->
      let run acceptors =
        Runner.run ~fixed_specs:true
          { Runner.fixed_spec_default with protocol; seed; n_txns = n_txns_a; acceptors }
      in
      let base = run 1 in
      let paxos = run 3 in
      let identical = base.outcomes = paxos.outcomes in
      if not identical then outcomes_diverged := true;
      let per_commit (r : Runner.report) n =
        if r.committed > 0 then float_of_int n /. float_of_int r.committed
        else 0.0
      in
      let row (r : Runner.report) acceptors =
        let decision_forces = r.central_log_forces + r.paxos_acceptor_forces in
        Table.add_row tbl_a
          [
            Protocol.obs_name protocol;
            string_of_int acceptors;
            Table.fmt_float ~decimals:2 r.messages_per_committed;
            Table.fmt_float ~decimals:2 (per_commit r decision_forces);
            Table.fmt_float ~decimals:2 (per_commit r (r.log_forces + decision_forces));
            string_of_int r.committed;
            (if identical then "identical" else "DIVERGED");
          ]
      in
      row base 1;
      row paxos 3)
    overhead_protocols;
  Buffer.add_string buf (Table.render tbl_a);
  (* --- part B: the in-doubt window under a leader crash -------------- *)
  let base = blocking_run ~acceptors:1 ~n_txns:n_txns_b ~seed in
  let paxos = blocking_run ~acceptors:3 ~n_txns:n_txns_b ~seed in
  let tbl_b =
    Table.create
      ~title:
        (Printf.sprintf
           "A1b - 2PC leader crash at \"voted\" + one acceptor down (F=1 of 3), %d txns"
           n_txns_b)
      [
        "config";
        "crash at";
        "resolved at";
        "in-doubt window";
        "resolved mid-run";
        "committed";
        "elapsed";
      ]
  in
  let row label (r : blocking_result) =
    Table.add_row tbl_b
      [
        label;
        Table.fmt_float ~decimals:1 r.br_crash_time;
        Table.fmt_float ~decimals:1 r.br_close_time;
        Table.fmt_float ~decimals:1 (r.br_close_time -. r.br_crash_time);
        (if r.br_resolved_mid_run then "yes" else "no (blocked until recovery)");
        string_of_int r.br_report.committed;
        Table.fmt_float ~decimals:1 r.br_report.elapsed;
      ]
  in
  row "2pc, single coordinator" base;
  row "2pc, paxos acceptors=3" paxos;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Table.render tbl_b);
  Buffer.add_char buf '\n';
  (* --- verdicts (CI greps these lines) ------------------------------- *)
  let window (r : blocking_result) = r.br_close_time -. r.br_crash_time in
  if !outcomes_diverged then
    Buffer.add_string buf "verdict: OUTCOMES DIVERGED between acceptors=1 and acceptors=3\n"
  else
    Buffer.add_string buf
      "verdict: replication changes no outcome (acceptors=1 and acceptors=3 identical)\n";
  if paxos.br_resolved_mid_run && not base.br_resolved_mid_run then
    Buffer.add_string buf
      (Printf.sprintf
         "verdict: no blocked commits under F=1 leader crash (paxos in-doubt window \
          %.1f tu; plain 2pc blocked %.1f tu, until post-run recovery)\n"
         (window paxos) (window base))
  else
    Buffer.add_string buf
      (Printf.sprintf
         "verdict: BLOCKING UNEXPECTED: paxos mid-run=%b (window %.1f tu), baseline \
          mid-run=%b (window %.1f tu)\n"
         paxos.br_resolved_mid_run (window paxos) base.br_resolved_mid_run
         (window base));
  Buffer.contents buf
