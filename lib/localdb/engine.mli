(** A local database system — one of the paper's "existing systems".

    Each engine is a self-contained DBMS: keyed integer records on slotted
    pages behind a buffer pool, a write-ahead log with restart recovery, and
    a pluggable concurrency-control scheme (strict two-phase locking with
    wait timeouts, or optimistic validation). It guarantees local ACID and
    exposes exactly the interface the paper assumes of an unmodifiable
    system: [begin], operations, [commit], [abort] — and {e optionally} a
    persisted [prepare] state, the capability most existing systems lack and
    whose absence motivates the whole paper.

    All potentially blocking calls ({!read}, {!write}, {!commit}, ...) must
    run inside an {!Icdb_sim.Fiber}; they consume virtual time and may
    suspend on lock waits.

    Autonomy is modelled faithfully: a transaction can be aborted under the
    caller's feet by a lock timeout, a deadlock, failed optimistic
    validation, an injected kill ({!kill} — the experiment harness's
    "aborted by the local transaction manager"), or a site crash. Every
    operation therefore returns an [outcome]. *)

type t

(** Why a local transaction died. Mirrors the paper's §3.2 list: "by the
    local transaction manager, e.g. because of time out, by an optimistic
    scheduler since the transaction did not survive the validation phase,
    or by a system crash" — plus explicit requests. *)
type abort_reason =
  | Deadlock_victim
  | Lock_timeout
  | Validation_failed
  | Site_crashed
  | Injected  (** killed by the environment / failure injector *)
  | Requested  (** the client called {!abort} *)

val pp_abort_reason : Format.formatter -> abort_reason -> unit
val abort_reason_to_string : abort_reason -> string

type cc_scheme =
  | Locking of { wait_timeout : float option }
      (** strict 2PL; waits longer than [wait_timeout] abort the waiter *)
  | Optimistic  (** deferred writes, backward validation at commit *)

(** Lock granularity of a locking site. [Page_level] models the paper's
    single-level systems whose L0 concurrency control works on pages: any
    non-read access takes an exclusive lock on the record's {e page}, so two
    increments of different records sharing a page conflict — the exact
    situation of Figure 8. Inserts of unknown keys serialize on a coarse
    allocation lock (a documented simplification; the Figure 8 workloads
    operate on preloaded keys). [Record_level] locks individual keys and
    supports the increment mode. *)
type granularity = Record_level | Page_level

(** What this existing system's interface offers. [supports_prepare]
    requires [Locking] (a prepared transaction must keep its writes
    protected); {!create} rejects other combinations. *)
type capabilities = {
  supports_prepare : bool;
  supports_increment_locks : bool;
      (** commutative increment lock mode available at the record level *)
  granularity : granularity;
  cc : cc_scheme;
}

(** No prepare, increment locks available, 2PL with a 50-time-unit wait
    timeout — a typical unmodifiable system. *)
val default_capabilities : capabilities

(** Autonomous failure injection: with [probability], a transaction is
    killed (reason [Injected]) at a uniformly random point of
    [\[min_delay, max_delay\]] after it began — {e if} it is still running
    then. Prepared transactions are never killed (the ready state is a
    promise); this models the paper's local system that "may still abort
    the transaction, e.g. because of time out" while a commitment-after
    local waits for the global decision in the running state. *)
type spontaneous_abort = {
  probability : float;
  min_delay : float;
  max_delay : float;
}

type config = {
  site_name : string;
  capabilities : capabilities;
  op_delay : float;  (** virtual time consumed by each operation *)
  commit_delay : float;  (** virtual time consumed by commit processing *)
  buffer_capacity : int;  (** buffer-pool frames *)
  spontaneous : spontaneous_abort option;
  seed : int64;  (** stream for the failure injector *)
  group_commit_window : float option;
      (** [Some w]: committers wait up to [w] virtual time so one log force
          serves the whole batch; acknowledgement only after the force, so
          durability is never weakened (a crash inside the window turns the
          waiting commits into aborts). [None] (default): force per commit. *)
  checkpoint_interval : float option;
      (** [Some p]: take a {!checkpoint} every [p] virtual time units while
          the site is up. [None] (default): manual checkpoints only. *)
}

val default_config : site_name:string -> config

(** Local transaction handle. *)
type txn

(** One observed data access, in execution order — raw material for the
    global serialization-graph checker. *)
type access =
  | Read of { key : string; value : int option }
  | Wrote of { key : string; before : int option; after : int option }
      (** [after = None] is a delete, [before = None] an insert *)
  | Incremented of { key : string; delta : int }

type 'a outcome = ('a, abort_reason) result

val create : Icdb_sim.Engine.t -> config -> t
val name : t -> string
val capabilities : t -> capabilities

(** [load t rows] installs initial committed data; call before any traffic
    (setup only, no fiber needed, consumes no virtual time). One
    transaction logs and places the rows in order, exactly as one insert
    each would (same log records, LSNs, page images and rids), but in
    bulk: the heap skips older pages no row fits
    ({!Icdb_storage.Heap.bulk_insert}) and the key index is built once
    ({!Icdb_util.Btree.of_bindings}). Of rows with the same key, the last
    one is indexed. *)
val load : t -> (string * int) list -> unit

(** [preload ts rows] leaves every engine of [ts] as {!load}[ t rows] on
    each would, but loads only the first and makes every other one a
    replica of it. A replica cannot be told from an engine that ran the
    load itself: the same log bytes, LSNs and force count, page images on
    disk and in the pool, rids, index, pool counters and LRU order, and
    transaction counter; its log's force hook has fired once per force of
    the load. It shares with the first engine only what neither ever
    changes in place: the disk's page images and the log chunks the load
    flushed (see {!Icdb_wal.Log.replicate}). The pool's frames, the heap's
    metadata, the index and the log's tail are its own copies, so each
    engine runs, crashes, restarts and checkpoints apart from the others.

    Every engine must be fresh — up, no transaction begun, no log record
    or force, no page — and all must have the same [buffer_capacity]: a
    pool of another size would have evicted, written back and forced
    differently during its own load. Otherwise raises [Invalid_argument]
    and changes nothing. *)
val preload : t list -> (string * int) list -> unit

(** {1 Transaction interface} *)

val begin_txn : t -> txn

(** [begin_txn_opt t] is [Some (begin_txn t)] when the site is up, [None]
    when it is down — where {!begin_txn} raises. Use this at protocol branch
    starts: a fiber woken by a restart can be overtaken by another crash at
    the same instant, and the race must surface as a branch failure, not an
    escaping exception. *)
val begin_txn_opt : t -> txn option

val txn_id : txn -> int
val state : txn -> [ `Running | `Prepared | `Committed | `Aborted of abort_reason ]

(** Accesses performed so far (committed or not), oldest first. *)
val accesses : txn -> access list

(** [read t txn key] is the visible value ([None] when the key is absent). *)
val read : t -> txn -> string -> int option outcome

(** [write t txn ~key ~value] upserts. *)
val write : t -> txn -> key:string -> value:int -> unit outcome

(** [delete t txn key]; succeeds (as a no-op) when the key is absent. *)
val delete : t -> txn -> string -> unit outcome

(** [increment t txn ~key ~delta] adds [delta] blindly — no value is
    returned, which is what lets increments commute (Figure 8). Uses the
    increment lock mode when the site supports it, an exclusive lock
    otherwise. The key must exist ([Invalid_argument] otherwise). *)
val increment : t -> txn -> key:string -> delta:int -> unit outcome

(** [commit t txn]: for locking sites, forces the log and releases locks;
    for optimistic sites, validates first — [Error Validation_failed]
    aborts the transaction. *)
val commit : t -> txn -> unit outcome

(** Client-requested rollback. Idempotent on finished transactions. *)
val abort : t -> txn -> unit

(** [kill t txn] is the failure injector: aborts a {e running} transaction
    from outside (reason [Injected]), even one blocked on a lock. No-op on
    finished transactions. *)
val kill : t -> txn -> unit

(** {1 The optional ready state (2PC-capable sites only)} *)

(** [prepare t txn] persists the ready state: the transaction can no longer
    be lost to a crash, only to an explicit global abort. Raises [Failure]
    on sites without [supports_prepare] — that is the paper's point. *)
val prepare : t -> txn -> unit outcome

(** [resolve_prepared t ~txn_id ~commit] delivers the global decision to a
    prepared transaction — including one recovered in-doubt after a crash.
    Raises [Failure] for an unknown/unprepared id. *)
val resolve_prepared : t -> txn_id:int -> commit:bool -> unit

(** In-doubt transaction ids currently awaiting a decision. *)
val in_doubt : t -> int list

(** Handles of transactions currently in the running state (monitoring and
    failure-injection hooks; order is unspecified). *)
val running_transactions : t -> txn list

(** [abort_txn_id t ~txn_id] rolls back a {e running} transaction by id —
    used by central-crash recovery, which holds ids but no handles. No-op
    for unknown, finished or prepared transactions; [true] when a rollback
    happened. *)
val abort_txn_id : t -> txn_id:int -> bool

(** {1 Crash and restart} *)

(** [crash t] kills the site: volatile state (buffer pool, lock table,
    running transactions, unflushed log tail) is lost; stable state (disk,
    flushed log) survives. Running transactions become
    [`Aborted Site_crashed]; blocked fibers are woken with an error. *)
val crash : t -> unit

(** [restart t] runs restart recovery and reopens the site; returns the
    recovery report. Prepared in-doubt transactions are restored with their
    write locks re-acquired, awaiting {!resolve_prepared}. *)
val restart : t -> Icdb_wal.Recovery.outcome

val is_up : t -> bool

(** {1 Committed state inspection (tests, invariant checks)} *)

(** Reads the committed value without a transaction or locks. *)
val committed_value : t -> string -> int option

val committed_keys : t -> string list

(** Sum of the committed values, protocol marker keys left out (their rows
    are not read). Walks the index without building a key list. *)
val committed_total : t -> int

(** [check_key_locations t] checks the engine's per-symbol cache of record
    locations against the B+-tree index: [None] when every interned key's
    cached location (if it has one) equals the index's, else
    [Some (key, description)] for the first key that differs. For
    tests. *)
val check_key_locations : t -> (string * string) option

(** The index's bindings, in key order: where each committed key's
    record lives. For tests. *)
val index_bindings : t -> (string * Icdb_storage.Heap.rid) list

(** {1 Metrics} *)

val commit_count : t -> int
val abort_count : t -> int

(** Aborts broken down by reason. *)
val abort_counts : t -> (abort_reason * int) list

(** The site's write-ahead log (read access for tests and crash-window
    experiments). *)
val wal : t -> Icdb_wal.Log.t

(** Force all dirty buffered pages to disk (exercises the WAL-rule hook). *)
val flush_buffers : t -> unit

(** Outstanding buffer-pool pins; zero between operations (pin-balance
    invariant — see {!Icdb_storage.Buffer_pool.pin_count}). *)
val buffer_pins : t -> int

(** [checkpoint t] takes a sharp checkpoint: every dirty page is forced to
    disk (log first, per the WAL rule), a checkpoint record listing the live
    transactions is force-logged, and the log prefix that no live, prepared
    or in-doubt transaction's rollback can need is truncated. Restart
    recovery then replays only the retained suffix. Raises
    [Invalid_argument] while the site is down. *)
val checkpoint : t -> unit

(** The site's symbol table: lock objects and optimistic read/write-set keys
    are interned against it; observers resolve symbols carried by lock
    events back to names with {!Icdb_util.Symbol.name}. *)
val symbols : t -> Icdb_util.Symbol.table

(** [set_hold_time_hook t f] forwards to the lock table: [f] observes every
    lock-release with its hold duration. [obj] is the interned lock
    object. *)
val set_hold_time_hook :
  t -> (obj:Icdb_util.Symbol.t -> duration:float -> unit) -> unit

(** [set_lock_observer t f] forwards lock-lifecycle events to [f]. The
    listener survives {!crash}/{!restart} even though the lock table itself
    is recreated. *)
val set_lock_observer : t -> (Icdb_lock.Lock_table.observer_event -> unit) -> unit

(** [set_state_hook t f] calls [f `Crash] as the site goes down and
    [f `Recovered] once restart recovery completes. *)
val set_state_hook : t -> ([ `Crash | `Recovered ] -> unit) -> unit

(** [set_commit_delta_hook t f] calls [f ~txn_id ~delta] at every local
    commit with the transaction's net user-visible value change (internal
    marker keys excluded; writes telescope to final − initial). Fires for
    in-doubt transactions resolved to commit after a crash too — their
    delta is recovered from the log's per-transaction record chain, since
    the in-memory access list died with the site. The online
    money-conservation monitor's feed; the delta computation only runs
    while a hook is installed. *)
val set_commit_delta_hook : t -> (txn_id:int -> delta:int -> unit) -> unit

(** Transactions currently live (running or prepared) — O(1). *)
val live_txn_count : t -> int

(** In-doubt transactions awaiting a decision — O(1)
    ([List.length (in_doubt t)] without the allocation). *)
val in_doubt_count : t -> int

(** Lock (owner, object) pairs currently held — O(1); zero when the site
    is quiescent (see {!Icdb_lock.Lock_table.held_count}). *)
val lock_held_count : t -> int

(** The site's buffer pool (pin-drift monitoring and tests). *)
val buffer_pool : t -> Icdb_storage.Buffer_pool.t

val lock_wait_count : t -> int
val lock_deadlock_count : t -> int
val lock_timeout_count : t -> int
