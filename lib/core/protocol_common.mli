(** Plumbing shared by the three atomic-commitment protocols. *)

module Db = Icdb_localdb.Engine
module Program = Icdb_localdb.Program

(** The per-site key recording "this global transaction's local commit
    happened here" — the [WV 90]-style redo-log-in-the-database marker that
    makes the repetition of §3.2 idempotent across crashes. *)
val commit_marker : gid:int -> string

(** The per-site key recording "this global transaction's local effects were
    compensated here" — prevents double undo (§3.3). [seq] distinguishes
    multiple actions of one global transaction at the same site. *)
val undo_marker : gid:int -> seq:int -> string

(** Lock mode for the additional global CC module, per access intent. *)
val mode_of_intent : [ `Read | `Increment | `Write ] -> Icdb_lock.Mode.t

(** [acquire_global_locks fed ~gid spec] takes the additional CC module's
    locks for every key the spec touches (sorted order, deadlock-detected,
    bounded by the federation's global lock timeout). Returns [false] —
    with everything released again — when denied. Counted in metrics. When
    the federation's [global_cc_enabled] is off (experiment V7), this is a
    no-op returning [true]. *)
val acquire_global_locks : Federation.t -> gid:int -> Global.spec -> bool

val release_global_locks : Federation.t -> gid:int -> unit

(** [fanout fed thunks] runs each thunk as a fiber on the federation's
    engine and waits for all, preserving input order — the protocols'
    per-branch fan-out. Same result-order and first-error semantics as
    {!Icdb_sim.Fiber.all}. *)
val fanout : Federation.t -> (unit -> 'a) list -> 'a list

(** {2 Span-level observability}

    One {!obs} context per protocol run: a [Txn] root span with the
    protocol's phases nested under it. Every helper is a single-branch
    no-op when the federation's tracer is disabled. *)

type obs

(** [obs_begin fed ~gid ~protocol] opens the root span. [protocol] is the
    stable observability name ("2pc", "2pc-pa", "after", "before", "mlt",
    "hybrid") used as the histogram label. Call it after the journal is
    open: the run's coordinator actor ({!coordinator_actor}) is resolved
    from the gid's registered shard route. *)
val obs_begin : Federation.t -> gid:int -> protocol:string -> obs

(** The run's coordinator actor for traces and spans: "shard-<i>" on the
    single-shard fast path of a sharded federation, "central" otherwise. *)
val coordinator_actor : obs -> string

(** [obs_phase fed obs ~gid ?actor phase f] runs [f span] inside a [Phase]
    span (child of the run's [Txn] span; [span] is its id, for parenting
    per-branch work) and records the phase duration in the
    [icdb_phase_time{protocol, phase}] histogram. The span is closed and
    the duration recorded even when [f] raises (central-crash injection);
    the exception is re-raised. [actor] defaults to the run's coordinator
    actor. *)
val obs_phase :
  Federation.t -> obs -> gid:int -> ?actor:string -> Icdb_obs.Span.phase ->
  (int -> 'a) -> 'a

(** Instant marking the commit/abort decision point, at the run's
    coordinator actor. *)
val obs_decision : Federation.t -> obs -> gid:int -> commit:bool -> unit

(** Result of executing one branch's program (transaction left running). *)
type exec_status = Exec_ok of Db.txn | Exec_failed of Db.abort_reason

(** [execute_branch fed ~gid ?parent b ~extra_ops] sends the branch's
    program to the site's communication manager and runs it in a fresh
    local transaction, {e without} committing or preparing. [extra_ops] are
    appended (marker writes). One request/reply message pair. The work is
    wrapped in a [Branch] span under [parent] (a phase span id; default:
    root). *)
val execute_branch :
  Federation.t -> gid:int -> ?parent:int -> Global.branch -> extra_ops:Program.t ->
  exec_status

(** {2 Decision-phase traffic}

    Post-decision coordinator->site messages (commit/abort/undo requests and
    their "finished" acks). With the federation's [msg_batch_window] set,
    same-window messages to one site ride a shared {!Icdb_net.Batcher}
    envelope (one wire message, one latency charge, coalesced acks); off,
    these are exactly [Link.rpc] / [Link.send]. *)

(** [decision_rpc fed ~gid ~site ~label f] — request/reply; [f] runs at the
    site and returns the reply label (usually ["finished"]). [gid] tags the
    wire exchange with its global transaction (retry-cap orphan
    accounting, see {!Icdb_net.Link}). *)
val decision_rpc :
  Federation.t -> gid:int -> site:string -> label:string -> (unit -> string) -> unit

(** [decision_send fed ~gid ~site ~label f] — one-way, no acknowledgement
    (presumed-abort's abort path). *)
val decision_send :
  Federation.t -> gid:int -> site:string -> label:string -> (unit -> unit) -> unit

(** Record a committed local transaction in the serialization graph. *)
val graph_local :
  Federation.t -> gid:int -> site:string -> compensation:bool -> Db.txn -> unit

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

(** [resolve_prepared_durably fed ~site ~txn_id ~commit] delivers the global
    decision to a prepared local transaction, waiting out site outages and
    redelivering when a crash raced the delivery (the in-doubt table is
    volatile until restart recovery rebuilds it from the log, so a
    [resolve_prepared] that fails on a down site just means "deliver
    again"). A failure with the site up propagates — the local really has
    finished. *)
val resolve_prepared_durably :
  Federation.t -> site:string -> txn_id:int -> commit:bool -> unit

(** [finish fed ~gid ~start ?obs outcome] records metrics, the graph outcome
    and the trace end-marker, closes the run's [Txn] span when [obs] is
    given, then returns [outcome]. *)
val finish :
  Federation.t -> gid:int -> start:float -> ?obs:obs -> Global.outcome ->
  Global.outcome
