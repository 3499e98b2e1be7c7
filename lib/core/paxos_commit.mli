(** Paxos Commit (Gray & Lamport, "Consensus on Transaction Commit") over
    the federation's decision log.

    The commit/abort record that every protocol forces at one coordinator
    becomes a consensus instance replicated across 2F+1 acceptor sites, so
    a decision survives — and an in-doubt transaction can be completed by a
    {e new} leader — as long as F+1 acceptors are reachable. The gid's
    coordinator is its initial leader and owns ballot 0, making the
    fault-free path a single accept round (phase 1 skipped); leader
    recovery runs the classic prepare/accept ballots.

    {!install} wires the three {!Federation.t} hooks:
    [decision_replicator] (accept round replaces the coordinator's log
    force in [journal_decide]), [decision_recover] (quorum read consulted
    by {!Central_recovery} before abort is presumed), and
    [leader_failover] (new-leader election for one in-doubt gid). With
    nothing installed all three hooks stay at their defaults and every run
    is byte-identical to the single-coordinator code. *)

module Acceptor : sig
  (** One acceptor site's replicated decision-log fragment: per-gid
      (promised ballot, accepted vote) pairs on stable storage — they
      survive the site's crashes, but a down acceptor answers nothing until
      restart.

      The state of one gid is one [int] in a {!Icdb_util.Gid_store.Int}
      column, 8 bytes per gid up to the largest gid the acceptor has seen,
      with no block per instance: the promised ballot plus one in the low
      30 bits, then a voted bit, the vote's value and the vote's ballot in
      the next 30 bits. A gid never seen reads 0: nothing promised, no
      vote. Ballots therefore range over [0 .. 2^30 - 2];
      {!receive_accept} and {!receive_prepare} raise [Invalid_argument] on
      any other ballot rather than wrap. *)
  type t

  val create : Icdb_net.Site.t -> t
  val name : t -> string

  (** Log forces this acceptor performed (one per promise, one per vote). *)
  val forces : t -> int

  (** Last accepted (ballot, value) vote for [gid], if any. *)
  val accepted : t -> gid:int -> (int * bool) option

  (** Phase 2b: vote for (ballot, value) and force, unless a higher ballot
      was promised. Returns whether the vote was cast. *)
  val receive_accept : t -> gid:int -> ballot:int -> value:bool -> bool

  type promise = Rejected | Promised of (int * bool) option

  (** Phase 1b: promise [ballot] (forced) and report the last accepted
      vote; [Rejected] if an equal-or-higher ballot was already promised. *)
  val receive_prepare : t -> gid:int -> ballot:int -> promise
end

type t

(** [install fed ~acceptors] replicates every decision over [acceptors]
    (= 2F+1, odd) sites and installs the federation hooks. Every
    {!Federation.coordinator} leads one group over its first
    min(2F+1, size) member sites — the central system's is the
    federation's first 2F+1 sites — and a gid's decision replicates in its
    {!Federation.owner}'s group (fast-path decisions at their shard,
    cross-shard ones at the central group). [failover_delay] (default 25.0) models crash detection
    plus election before a new leader acts. Registers the
    [icdb_paxos_*_total] counters — only here, so Paxos-free runs keep
    byte-identical metric snapshots. Raises [Invalid_argument] for an even
    or out-of-range group size. *)
val install : ?failover_delay:float -> Federation.t -> acceptors:int -> t

(** [replicate t ~gid ~commit] is the leader's ballot-0 accept round: the
    calling fiber blocks until the value is durable at an acceptor quorum
    (or every acceptor has answered). Exposed for tests; protocols reach it
    through [fed.decision_replicator] from [journal_decide]. *)
val replicate : t -> gid:int -> commit:bool -> unit

(** [read_decision t ~gid] is the quorum's memory of [gid]: the
    highest-ballot accepted value, or [None] when no acceptor ever voted
    (recovery then presumes abort). A stable-storage read; costs no
    messages. *)
val read_decision : t -> gid:int -> bool option

(** [failover t ~gid] elects this instance the gid's new leader: after the
    failover delay it runs prepare/accept at a fresh ballot (re-proposing
    the quorum's value, abort if the quorum is silent) and completes the
    transaction via {!Central_recovery.takeover}. Returns immediately — the
    work runs in its own fiber; a transaction that closes in the meantime
    is left alone. *)
val failover : t -> gid:int -> unit

(** Acceptor log forces across all groups (each acceptor counted once),
    accept rounds driven, and failovers triggered. *)
val acceptor_forces : t -> int

val rounds : t -> int
val failovers : t -> int
