(** The commit skeleton shared by the six atomic-commitment protocols.

    The paper's §3 sorts commit protocols by where a branch's local commit
    falls relative to the global decision: {e in the middle} of it (2PC,
    Figure 3), {e after} it (§3.2, Figure 5) or {e before} it (§3.3,
    Figure 6). {!run} is one flat commit run parameterised by that answer
    per branch — the {!leg} — and each flat protocol is a {!policy} over
    it. The multi-level protocol ({!Commit_before_mlt}) keeps its own
    sequential L1 loop but shares the run's open, decision, repair and
    close steps ({!open_run}, {!decide}, {!repair}, {!close}). *)

module Db = Icdb_localdb.Engine
module Program = Icdb_localdb.Program

(** {2 Markers in the local databases} *)

(** The per-site key recording "this global transaction's local commit
    happened here" — the [WV 90]-style redo-log-in-the-database marker that
    makes the repetition of §3.2 idempotent across crashes. *)
val commit_marker : gid:int -> string

(** The per-site key recording "this global transaction's local effects were
    compensated here" — prevents double undo (§3.3). [seq] distinguishes
    multiple actions of one global transaction at the same site. *)
val undo_marker : gid:int -> seq:int -> string

(** The per-action commit marker of a multi-level transaction: lets site
    and central recovery see which of its actions committed. *)
val action_marker : gid:int -> seq:int -> string

(** [marker_of_key key] reads back a key the three builders above made:
    [`Cm gid], [`Um (gid, seq)] or [`Am (gid, seq)]; [None] for any other
    key. *)
val marker_of_key : string -> [ `Cm of int | `Um of int * int | `Am of int * int ] option

(** {2 The flat commit skeleton} *)

(** Where one branch's local commit falls relative to the global decision.

    - [Middle] (§3.1, Figure 3): the branch executes, enters the ready state
      at the inquiry and applies the decision — it needs a site exposing a
      persisted ready state.
    - [After] (§3.2, Figure 5): the branch executes and answers the inquiry
      while still running; it commits after the decision and is repeated
      from the redo-log if erroneously aborted in between.
    - [Before] (§3.3, Figure 6): the branch commits unilaterally right after
      executing; a global abort undoes it by its inverse from the undo-log.

    The run derives the extras a protocol needs from its policy's legs: an
    [After] or [Before] leg takes the additional global CC module and the
    commit marker, an [After] leg the redo-log, a [Before] leg the
    undo-log. The global CC module guards every transaction of such a
    protocol, also a hybrid one whose own legs are all [Middle]: it must
    not read a concurrent [Before] leg's data that an inverse may yet take
    back (§3.3's serializability requirement). One
    policy uses at most one of the two logs: {!run} rejects a policy with
    both [After] and [Before] legs. *)
type leg = Middle | After | Before

(** A flat protocol: its legs, plus the two choices in which the protocols
    differ beyond them. *)
type policy = {
  protocol : string;
      (** the journal and observability name ("2pc", "2pc-pa", "after",
          "before", "hybrid"); {!Central_recovery} dispatches on it *)
  prepared : leg;  (** the leg at a site exposing a ready state *)
  unprepared : leg option;
      (** the leg elsewhere; [None]: the run aborts with [Unsupported_site] *)
  presumed_abort : bool;
      (** [ML 83]: read-only branches commit at prepare, the abort decision
          is neither forced nor acknowledged, and the decision instant
          precedes the decision record *)
  inquire_on_failure : bool;
      (** [false] (2PC): once a branch failed to execute, the survivors are
          aborted without an inquiry — no vote phase, no ["voted"] or
          ["decided"] crash point *)
}

(** [run policy] is the protocol's [run]: open the journal entry and the
    [Txn] span; gate (unsupported site, global locks); append redo-log
    entries; execute every branch; inquire; decide; apply the decision;
    then remove the action-log entries, close the journal entry, release
    the global locks and record the outcome. The run's [fed.central_fail]
    crash points are ["executed"], ["voted"] and ["decided"]. *)
val run : policy -> Federation.t -> Global.spec -> Global.outcome

(** {2 Steps shared with the multi-level protocol} *)

(** One protocol run: its gid, start time, [Txn] span and coordinator
    actor. *)
type ctx

(** [open_run fed ~gid ~sites ~protocol] counts the start, opens the
    journal entry routed over [sites] and the [Txn] span, and records
    "running". The coordinator actor is "shard-<i>" on the single-shard
    fast path of a sharded federation, "central" otherwise. *)
val open_run : Federation.t -> gid:int -> sites:string list -> protocol:string -> ctx

(** [phase fed ctx ?actor ph f] runs [f span] inside a [Phase] span (child
    of the run's [Txn] span; [span] is its id) and records the duration in
    the [icdb_phase_time{protocol, phase}] histogram, also when [f] raises
    (central-crash injection). [actor] defaults to the coordinator. *)
val phase :
  Federation.t -> ctx -> ?actor:string -> Icdb_obs.Span.phase -> (int -> 'a) -> 'a

(** [decide fed ctx ~presumed_abort ~commit] records the decision step, the
    journal's decision record and the decision instant; under
    [presumed_abort] the instant comes first and an abort is not
    recorded. The ["decided"] crash point is the caller's. *)
val decide : Federation.t -> ctx -> presumed_abort:bool -> commit:bool -> unit

(** [close fed ctx ?log ?locks outcome] removes the run's entries from
    the action log [log fed], closes its journal entry, releases what it
    holds in the lock table [locks] (at every coordinator), records
    metrics, the graph outcome and the trace end-marker, closes the [Txn]
    span and returns [outcome]. *)
val close :
  Federation.t ->
  ctx ->
  ?log:(Federation.t -> Action_log.t) ->
  ?locks:(Federation.coordinator -> 'a Icdb_lock.Lock_table.t) ->
  Global.outcome ->
  Global.outcome

(** [decision_rpc fed ~gid ~site ~label f] — a post-decision request/reply;
    [f] runs at the site and returns the reply label (usually
    ["finished"]). With the federation's [msg_batch_window] set, same-window
    messages to one site share an {!Icdb_net.Batcher} envelope; off, this
    is exactly [Link.rpc]. *)
val decision_rpc :
  Federation.t -> gid:int -> site:string -> label:string -> (unit -> string) -> unit

(** [repair fed ctx ~site ph ~marker ~label program] is §3.2's repetition
    ([ph = Redo]) or a compensation ([ph = Compensate]) at [site]:
    {!persistently_apply} of [program] guarded by [marker], inside a [ph]
    phase span at [site]. Each attempt counts a repetition or compensation
    and records [label] in the step trace. *)
val repair :
  Federation.t ->
  ctx ->
  site:string ->
  Icdb_obs.Span.phase ->
  marker:string ->
  label:string ->
  Program.t ->
  unit

(** Record a committed local transaction in the serialization graph. *)
val graph_local :
  Federation.t -> gid:int -> site:string -> compensation:bool -> Db.txn -> unit

(** {2 Recovery engine} *)

(** [persistently_apply fed ~gid ~site ~marker ~compensation ~on_attempt
    program] runs [program @ \[write marker\]] as a local transaction at
    [site], retrying (and waiting out site downtime) until an incarnation
    commits — unless [marker] is already committed, in which case nothing
    runs. This is the shared engine of §3.2's repetition and §3.3's undo:
    the marker in the local database makes the loop idempotent across both
    site and central crashes. [on_attempt] fires before each execution
    (metrics); the committed incarnation is recorded in the serialization
    graph with the [compensation] flag. Returns [true] if this call did the
    work, [false] if the marker showed it already done. *)
val persistently_apply :
  Federation.t ->
  gid:int ->
  site:string ->
  marker:string ->
  compensation:bool ->
  on_attempt:(unit -> unit) ->
  Program.t ->
  bool

(** [undo_program fed ~gid ~site] is the inverse program the undo-log holds
    for [gid]'s Before leg at [site]. Raises [Failure] when there is none. *)
val undo_program : Federation.t -> gid:int -> site:string -> Program.t
