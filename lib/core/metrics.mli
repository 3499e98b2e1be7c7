(** Per-run metric collection for the experiment harness.

    Every protocol run updates these counters; the runner and bench targets
    read them out into tables. Lock hold times are fed by the local lock
    tables' hooks (installed by {!Federation.create}); response times are
    recorded by the protocols themselves. *)

type t

(** [create registry] allocates this run's counters and histograms inside
    [registry] — a metrics snapshot of the registry (see
    {!Icdb_obs.Export}) therefore includes everything recorded here;
    there is no second recording path. *)
val create : Icdb_obs.Registry.t -> t

(** The registry the cells live in. *)
val registry : t -> Icdb_obs.Registry.t

(** Zeroes this module's own cells (other registry entries untouched). *)
val reset : t -> unit

(** {2 Recording} *)

val txn_started : t -> unit
val txn_committed : t -> response_time:float -> unit
val txn_aborted : t -> unit

(** One repetition (redo) of an erroneously aborted local (§3.2). *)
val repetition : t -> unit

(** One inverse-transaction execution (§3.3 / §4). *)
val compensation : t -> unit

(** Work done by the {e additional} global CC module (absent with MLT). *)
val global_lock_acquired : t -> unit

(** Work done by the L1 lock manager (inherent to the MLT model). *)
val l1_lock_acquired : t -> unit

val observe_hold_time : t -> float -> unit

(** {2 Reading} *)

val started : t -> int
val committed : t -> int
val aborted : t -> int
val repetitions : t -> int
val compensations : t -> int
val global_lock_acquisitions : t -> int
val l1_lock_acquisitions : t -> int

(** Mean / 95th-percentile local lock hold time ([0.] when no locks were
    released yet). *)
val mean_hold_time : t -> float

val p95_hold_time : t -> float
val mean_response_time : t -> float
val p95_response_time : t -> float
