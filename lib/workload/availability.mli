(** Experiment A1 — availability lab: Paxos Commit vs the single
    coordinator.

    Part A prices the replicated decision log on the fault-free path (the
    O1 fixed-spec lab, [Runner.run ~fixed_specs:true], so outcomes are
    asserted identical and the msgs/commit and forces/commit deltas are
    pure protocol overhead).
    Part B scripts the classic 2PC blocking scenario — the leader dies at
    a victim transaction's "voted" instant with one acceptor site down
    (F = 1 of a 2F+1 = 3 group) — and measures the victim's in-doubt
    window: with a single coordinator it stays open until post-run restart
    recovery; with Paxos Commit a new leader completes it from the
    acceptor quorum while the workload is still running.

    The report ends with verdict lines CI greps, the healthy ones being
    ["replication changes no outcome"] and
    ["no blocked commits under F=1 leader crash"]. *)

exception Leader_crash
(** Raised inside the victim's coordinator fiber by the scripted crash;
    swallowed by the runner's worker. *)

type blocking_result = {
  br_report : Runner.report;
  br_crash_time : float;  (** virtual instant the leader died *)
  br_close_time : float;  (** virtual instant the victim's entry closed *)
  br_resolved_mid_run : bool;
      (** victim settled before the last worker finished (no blocking) *)
}

(** [blocking_run ~acceptors ~n_txns ~seed] — one scripted leader-crash
    run (part B); [acceptors = 1] is the single-coordinator baseline. *)
val blocking_run : acceptors:int -> n_txns:int -> seed:int64 -> blocking_result

(** [run_a1 ()] renders the lab: both tables plus the verdict lines.
    [smoke] runs the reduced CI-sized workload. Deterministic in [seed]
    (default 42). *)
val run_a1 : ?smoke:bool -> ?seed:int64 -> unit -> string
