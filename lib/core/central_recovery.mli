(** Recovery of the {e central} system and of the shard coordinators.

    The paper assumes the global transaction manager survives; this module
    answers the obvious follow-up — what if it does not? A coordinator's
    stable state ({!Federation.coordinator}) is its decision log and its
    per-transaction protocol journal, beside the federation's redo-/undo-
    logs. Its volatile state — the additional CC module's lock table, the L1
    lock table, and every in-flight protocol fiber — is lost by {!crash}.

    Every entry point derives an in-doubt decision the same way — the
    entry's [Decided] phase, else a decision logged at any coordinator,
    else (with Paxos Commit) the acceptor quorum's — and completes it with
    one resolve step at a coordinator: the gid's {!Federation.owner}
    pushes the decision to every branch and closes the transaction, a
    shard coordinator holding a cross-shard mirror pushes it to its own
    sites and retires only the mirror. What differs is the caller's policy
    when nothing is known: presume abort, or leave a mirror in doubt.

    {!recover} completes every journaled transaction:

    - entries still [Executing] are {b presumed aborted} (no decision was
      ever logged, so no site can have been told to commit … except
      commitment-before locals, which commit unilaterally — those are
      detected via their database-resident commit markers and compensated);
    - [Decided] entries have their outcome {b pushed to completion}:
      prepared locals are resolved, orphaned running locals rolled back,
      missing commitment-after locals re-executed from the redo-log, and
      committed locals of aborted transactions undone from the undo-log.

    All repair work is marker-guarded, so recovering twice — or crashing
    during recovery and recovering again — never double-applies. *)

type summary = {
  entries_recovered : int;  (** journal entries processed *)
  decisions_pushed : int;  (** prepared locals resolved with the decision *)
  locals_aborted : int;  (** orphaned running locals rolled back *)
  branches_redone : int;  (** commitment-after locals completed by redo *)
  branches_undone : int;  (** committed locals compensated *)
}

val pp_summary : Format.formatter -> summary -> unit

(** [crash fed] discards the central system's volatile state:
    {!Federation.crash} on every coordinator, so both central lock tables
    are reset (blocked requesters are woken with [Lock_revoked]) and, in a
    sharded federation, every shard coordinator's CC/L1 tables with them (a
    whole-federation crash subsumes the shard coordinators). In-flight
    protocol fibers are {e not} magically stopped — simulate the crash of
    their control flow by installing a raising [fed.central_fail] hook. For
    a crash of {e one} shard coordinator use {!Federation.crash} on it, then
    {!recover_shard}. *)
val crash : Federation.t -> unit

(** [recover fed] walks the journal — top-level and every shard journal,
    in a sharded federation — and completes every open transaction; must
    run in a fiber (repairs execute local transactions and may wait for
    site recoveries). An [Executing] entry whose decision {e was} forced at
    some coordinator (e.g. the top level decided but the shard-decide push
    was lost) is completed with that decision rather than presumed aborted.
    Idempotent. *)
val recover : Federation.t -> summary

(** [recover_shard fed ~shard] restart-recovers one shard coordinator,
    independent of the rest of the federation. Entries in the shard's
    journal are handled by kind:

    - single-shard transactions (the fast path — this coordinator is their
      owner) are completed exactly as {!recover} would: decided entries
      pushed, [Executing] ones presumed aborted;
    - mirrors of cross-shard transactions defer to the top-level decision
      log: a recorded decision (the crash hit between the top-level force
      and this shard's ack) is pushed to {e this shard's branches only} and
      the mirror retired; without one the entry stays open, in doubt, until
      the top-level coordinator finishes — the blocking window atomic
      commitment cannot avoid.

    Either way the shard records the decision it applied in its own log.

    [summary.entries_recovered] counts entries completed here, excluding
    in-doubt mirrors left open. Idempotent, and safe to interleave with
    {!recover}. Raises [Invalid_argument] on an out-of-range shard id. *)
val recover_shard : Federation.t -> shard:int -> summary

(** [takeover fed ~gid] completes one in-doubt transaction as a freshly
    elected Paxos leader would: decision from the journal phase, the
    decision logs, or the acceptor quorum ([fed.decision_recover]) — abort
    presumed only when all three are silent — then the entry is resolved
    and closed at its owner exactly as {!recover} does per entry, and the
    decision recorded in the central log (also for a fast-path gid).
    Returns [false] (and does nothing) when the entry is already closed.
    Must run in a fiber; idempotent and safe to race a later {!recover}. *)
val takeover : Federation.t -> gid:int -> bool
