(** The integrated database system: central system + local systems (Fig. 1).

    A federation bundles everything the global transaction manager needs:
    the simulated sites with their links, the central redo-/undo-logs,
    metrics, the protocol trace, the serialization-graph recorder, and one
    or more {!coordinator}s: the central system, plus one shard coordinator
    per shard in a sharded federation. Each coordinator carries its own
    stable journal and decision log, additional global concurrency-control
    module (§3.2/§3.3) and L1 lock manager for multi-level transactions
    (§4). {!owner} says which coordinator decides a transaction; an
    unsharded federation has only the central one. *)

(** How far a global transaction's protocol run had progressed, as recorded
    in its coordinator's stable journal. Recovery presumes abort for
    [Executing] entries and pushes the decision for [Decided] ones. *)
type journal_phase = Executing | Decided of bool

(** One journal entry per in-flight global transaction. [branches] collects
    [(site, local transaction id)] pairs as they become known — enough for
    recovery to find in-doubt locals and abort orphaned running ones. *)
type journal_entry = {
  j_protocol : string;  (** "2pc" | "after" | "before" | "mlt" | ... *)
  mutable j_branches : (string * int) list;
  mutable j_phase : journal_phase;
}

(** Journal lifecycle notifications, fired at the three choke points every
    protocol routes through ({!journal_open}, {!journal_decide},
    {!journal_close} — the latter after the entry is removed). The online
    monitors ({!Monitor}) listen here; default listener is a no-op. *)
type journal_event =
  | J_opened of int
  | J_decided of { gid : int; commit : bool }
  | J_closed of int

(** One coordinator: the central system of Fig. 1, or a shard coordinator
    of a sharded federation. Each holds its own stable journal and decision
    log, its own volatile CC module and L1 lock manager, and its own serial
    decision-log device. A shard coordinator is simultaneously an L1
    participant of top-level (cross-shard) transactions and the L0
    coordinator of transactions confined to its shard — the paper's
    two-level split, one level down. *)
type coordinator = {
  name : string;  (** "central" or "shard-<i>": trace actor and metric label *)
  members : string list;
      (** its sites in creation order (every site for the central system);
          the first one hosts the coordinator *)
  journal : (int, journal_entry) Hashtbl.t;
      (** stable per-transaction protocol journal, read by recovery *)
  decision_log : Icdb_util.Gid_store.Bool.t;  (** gid -> decision (stable) *)
  cc : Icdb_lock.Mode.t Icdb_lock.Lock_table.t;
      (** the additional CC module: strict global 2PL on (site/key) objects
          of its sites *)
  l1 : Icdb_mlt.Conflict.clazz Icdb_lock.Lock_table.t;
      (** L1 lock manager: commutativity-based compatibility *)
  mutable busy_until : float;
      (** when its serial decision-log device is next free *)
  mutable gc_waiters : unit Icdb_sim.Fiber.resumer list;
  mutable gc_scheduled : bool;
  mutable decisions : int;  (** decisions logged here *)
  mutable forces : int;  (** group-commit forces taken here *)
  on_decision : unit -> unit;  (** metric side effect of a logged decision *)
  on_force : unit -> unit;  (** metric and trace side effect of a group-commit force *)
}

type t = {
  engine : Icdb_sim.Engine.t;
  sites : (string * Icdb_net.Site.t) list;  (** in creation order *)
  by_name : Icdb_net.Site.t Icdb_util.Strtbl.t;
  syms : Icdb_util.Symbol.table;
      (** federation-level interner: the global-CC and L1 lock tables key
          their objects by symbols of this table (each site's local table
          uses the site engine's own) *)
  trace : Icdb_sim.Trace.t;
      (** protocol step timeline; disabled (empty) unless the caller passed
          an enabled one *)
  registry : Icdb_obs.Registry.t;
      (** all numeric observations (metrics, message / lock / WAL counts,
          protocol phase latencies) land here *)
  tracer : Icdb_obs.Tracer.t;
      (** span recorder; disabled unless the caller passed an enabled one *)
  metrics : Metrics.t;
  conflict : Icdb_mlt.Conflict.t;
  redo_log : Action_log.t;  (** commitment-after (§3.2) *)
  undo_log : Action_log.t;  (** commitment-before standalone (§3.3) *)
  mlt_undo_log : Action_log.t;
      (** the L1 transaction manager's own undo-log, reused by
          commitment-before under multi-level transactions (§4.3) *)
  graph : Serialization_graph.t;
  mutable next_gid : int;
  mutable global_cc_enabled : bool;
      (** V7 switches this off to demonstrate the serializability
          requirements; never disable it otherwise *)
  mutable central_fail : gid:int -> string -> unit;
      (** fault-injection hook called by protocols at named points
          ("executed", "decided", ...); tests make it raise to simulate a
          central-system crash mid-protocol. Default: no-op. *)
  mutable journal_hook : journal_event -> unit;
      (** journal lifecycle listener (see {!journal_event}); installing
          replaces the previous listener. Default: no-op. *)
  global_lock_timeout : float option;
  batchers : Icdb_net.Batcher.t Icdb_util.Strtbl.t;
      (** per-site decision-traffic batchers; empty unless
          [msg_batch_window] was set at creation *)
  central_gc_window : float option;
      (** group-commit window for every coordinator's decision log;
          [None] = each decision pays its own force *)
  phase_hists : Icdb_obs.Registry.histogram option array Icdb_util.Strtbl.t;
      (** lazily filled per-(protocol, phase) handle cache behind
          {!phase_histogram} *)
  central : coordinator;
  shards : coordinator array;
      (** [[||]] when unsharded: every gid and every site then belongs to
          [central] *)
  shard_of_site : int Icdb_util.Strtbl.t;
  gid_route : int array Icdb_util.Gid_store.t;
      (** gid -> sorted participating shard ids, registered by
          {!journal_open}; a singleton is the single-shard fast path *)
  decision_force_time : float option;
      (** service time of one decision-log force on its coordinator's
          serial log device; [None] (default) = instantaneous forces, the
          pre-sharding model. Ignored while [central_gc_window] batches
          forces. *)
  mutable decision_replicator : (gid:int -> commit:bool -> unit) option;
      (** Paxos Commit hook ({!Paxos_commit.install}): when set,
          {!journal_decide} makes a decision durable by replicating it to
          the acceptor quorum instead of forcing the coordinator's own log.
          [None] (default) keeps single-coordinator forces byte-for-byte. *)
  mutable decision_recover : (gid:int -> bool option) option;
      (** quorum read of the replicated decision log, consulted by
          {!Central_recovery} for in-doubt entries before presuming abort;
          [None] when Paxos is off. *)
  mutable leader_failover : gid:int -> unit;
      (** new-leader election trigger for one in-doubt transaction; fault
          injectors call it right after simulating a coordinator crash.
          Default: no-op. *)
}

(** [create engine ?latency ?loss ?global_lock_timeout ?conflict configs]
    builds one site per config. [latency] is the per-direction link delay
    (default 1.0); [loss] the per-message-copy drop probability (default 0,
    see {!Icdb_net.Link}); [global_lock_timeout] bounds waits in the
    additional CC module and the L1 lock manager (default [Some 200.]);
    [conflict] is the L1 commutativity relation (default
    {!Icdb_mlt.Conflict.banking} merged with read/write/increment classes —
    see {!default_conflict}).

    [registry] lets several runs share one metrics registry (e.g. [icdb
    check]'s combined snapshot); default is a fresh one. [tracer] installs a
    span recorder; default is a disabled tracer on the engine's virtual
    clock, whose per-event cost is a single branch. Either way, the
    federation wires the sim engine, every link, every lock table (global
    CC, L1, and each site's local table — across restarts), every WAL, and
    the site crash/recovery transitions into them.

    [trace] is the protocol step timeline the protocols record into
    (the [trace] field); pass [Icdb_sim.Trace.create engine] to read it
    afterwards, as the figure experiments F2-F7 and their tests do. The
    default is a disabled trace, which retains nothing: a long run keeps no
    per-step history, and no report reads one.

    [msg_batch_window] (default [None]) turns on per-site decision-message
    piggybacking: one {!Icdb_net.Batcher} per site with that window, plus an
    [icdb_batch_occupancy{site}] histogram. [central_gc_window] (default
    [None]) turns on group commit for every coordinator's decision log:
    {!journal_decide} calls at one coordinator within one window share a
    single log force, counted by [icdb_central_decision_forces_total] at
    the central system. Both treat a
    non-positive window as [None], and when off add no metrics and no
    behavior change — default-config runs are byte-identical to before.

    [shards] (default 1) groups the sites into that many contiguous
    balanced shards, each coordinated by its first site and counted by
    [icdb_shard_decisions_total] and [icdb_shard_decision_forces_total];
    1 builds no shard coordinator, so every gid routes to [central].
    [decision_force_time] (default [None]) gives every decision-log force a
    service time on its coordinator's serial log device — the knob the S2
    sharding lab turns to expose the central log as the bottleneck. Raises
    [Invalid_argument] when [shards] exceeds the site count. *)
val create :
  Icdb_sim.Engine.t ->
  ?latency:float ->
  ?loss:float ->
  ?global_lock_timeout:float option ->
  ?conflict:Icdb_mlt.Conflict.t ->
  ?registry:Icdb_obs.Registry.t ->
  ?tracer:Icdb_obs.Tracer.t ->
  ?trace:Icdb_sim.Trace.t ->
  ?msg_batch_window:float option ->
  ?central_gc_window:float option ->
  ?shards:int ->
  ?decision_force_time:float option ->
  Icdb_localdb.Engine.config list ->
  t

(** The relation used when [?conflict] is omitted: banking classes plus
    read/write/increment. *)
val default_conflict : Icdb_mlt.Conflict.t

(** [site t name]. Raises [Not_found] for unknown names. *)
val site : t -> string -> Icdb_net.Site.t

(** [preload t rows] installs [rows] as the initial committed data of
    every site: {!Icdb_localdb.Engine.load} on the first site, whose
    storage every other site then receives as a replica
    ({!Icdb_localdb.Engine.preload}). Each site ends exactly as if it had
    loaded [rows] itself, force-counter increments included, and shares
    with the first site only the page images and flushed log chunks that
    no site changes in place. Every site must be fresh (no transaction
    begun, no log record, force or page) and all must have the same buffer
    capacity; otherwise raises [Invalid_argument] before loading any. *)
val preload : t -> (string * int) list -> unit

(** [intern t s] interns a global lock-object name against the federation's
    symbol table (use for global-CC and L1 lock objects). *)
val intern : t -> string -> Icdb_util.Symbol.t

(** Pre-resolved handle on the [icdb_phase_time{protocol, phase}] histogram:
    first use registers the instrument (exactly as the direct registry call
    would), repeat uses are an array index. *)
val phase_histogram :
  t -> protocol:string -> Icdb_obs.Span.phase -> Icdb_obs.Registry.histogram

val fresh_gid : t -> int

(** {2 Coordinators} *)

(** [owner t ~gid] is the coordinator that decides [gid]: the shard
    coordinator on the single-shard fast path, [t.central] for a top-level
    (cross-shard) transaction, a gid opened without sites, or any gid of an
    unsharded federation. Its journal holds the gid's authoritative entry. *)
val owner : t -> gid:int -> coordinator

(** The coordinator whose CC module and L1 manager lock objects at [site]:
    the owning shard's, or [t.central] when unsharded or the site is
    unknown. Lock objects are "site/key" strings, disjoint across shards,
    so this changes which volatile table holds an entry — and therefore
    what a coordinator crash wipes — without changing any grant. *)
val site_coordinator : t -> site:string -> coordinator

(** [t.central], then every shard coordinator in index order. *)
val iter_coordinators : t -> (coordinator -> unit) -> unit

val sum_coordinators : t -> (coordinator -> int) -> int

(** [decision t ~gid] looks the decision up in the central log first, then
    in every shard's log — a decision is a decision no matter which
    coordinator forced it. *)
val decision : t -> gid:int -> bool option

(** Stable decision records across every coordinator's log. *)
val decision_log_size : t -> int

(** [release_owner t ~gid table] releases what [gid] holds in [table c]
    ([fun c -> c.cc] or [fun c -> c.l1]) at every coordinator (no-op per
    table where it holds nothing). *)
val release_owner :
  t -> gid:int -> (coordinator -> 'a Icdb_lock.Lock_table.t) -> unit

(** [crash c] wipes the coordinator's volatile lock tables (CC module and
    L1 manager); its stable journal and decision log survive. Crashing the
    coordinator's host site is the caller's separate step. *)
val crash : coordinator -> unit

(** Decision-log forces at [c]: with group commit on, the shared forces
    that actually happened; off, one per decision logged there (the
    baseline they are compared against). Always 0 while a
    [decision_replicator] is installed — durability then lives at the
    acceptor quorum. *)
val log_forces : t -> coordinator -> int

(** {2 Journal (used by the protocols and recovery)} *)

(** [journal_open_routed t ~sites ~gid ~protocol] adds an [Executing]
    entry. In a sharded federation [sites] (the member sites the
    transaction will touch) routes the entry: one shard — the entry lives
    only in that shard's journal and the whole commit round stays there;
    several — a top-level entry plus a mirror at each participating shard.
    An empty/unknown site list (or an unsharded federation) keeps the
    central journal, as before. *)
val journal_open_routed :
  t -> sites:string list -> gid:int -> protocol:string -> unit

(** [journal_open t ~gid ~protocol] = [journal_open_routed ~sites:[]]: the
    central system coordinates. *)
val journal_open : t -> gid:int -> protocol:string -> unit

(** [journal_branch t ~gid ~site ~txn_id] records one local transaction
    (routed to the gid's journal entry; cross-shard transactions also
    record it in the owning shard's mirror). *)
val journal_branch : t -> gid:int -> site:string -> txn_id:int -> unit

(** [journal_decide t ~gid ~commit] flips the {!owner}'s entry to
    [Decided] {e and} writes its decision log, then makes the decision
    durable: a force on the owner's serial log device, a share of a
    group-commit force with [central_gc_window] set, or an accept round
    with Paxos Commit installed. The caller (a protocol fiber) blocks until
    then. A single-shard transaction thus decides entirely at its shard
    coordinator (no top-level write, force or message); a cross-shard one
    decides at the top level and then runs a "shard-decide" RPC round over
    its participating shards, each shard coordinator logging and forcing
    before it acknowledges (one down past the retry budget misses the
    round and is caught up by per-shard recovery). *)
val journal_decide : t -> gid:int -> commit:bool -> unit

(** [journal_close t ~gid] removes the entry (and any shard mirrors) once
    every site has applied the outcome. *)
val journal_close : t -> gid:int -> unit

(** Open entries (recovery's work list), sorted by gid: the union over the
    top journal and every shard journal, one entry per gid (the top entry,
    which has every branch, wins for cross-shard transactions). *)
val journal_open_entries : t -> (int * journal_entry) list

(** Raw open-entry count over the top and shard journals (mirrors counted
    per shard); 0 exactly when every journal is empty — the quiescence
    check the monitors and drain probes use. *)
val total_journal_entries : t -> int

(** Sum of message counts over all links, and the per-label breakdown. *)
val total_messages : t -> int

val messages_by_label : t -> (string * int) list

(** {2 Commit-overhead batching} *)

(** [batcher t site] is the site's decision-traffic batcher, or [None] when
    message batching is off. Protocols route decision-phase traffic through
    it via {!Protocol_common}. *)
val batcher : t -> string -> Icdb_net.Batcher.t option

(** Batch envelopes put on the wire across all sites, and members per
    envelope on average (0 with batching off). *)
val batch_envelopes : t -> int

val batch_occupancy_mean : t -> float

(** Sum of the committed values across all sites, protocol marker keys
    left out: the money total the conservation checks compare. *)
val committed_total : t -> int
