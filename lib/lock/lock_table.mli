(** Generic lock table with fiber-blocking waits.

    The table is parametric in the lock-mode type: the local databases
    instantiate it with {!Mode.t}, while the multi-level transaction layer
    instantiates it with L1 action classes whose compatibility is the
    commutativity relation of the paper's section 4.1. Compatibility and
    combination are supplied as plain functions at {!create} time.

    Lock objects are interned {!Icdb_util.Symbol.t} ids against the table's
    symbol table (supplied at {!create} time and usually shared with the
    owning site or federation): the hot acquire/release path indexes a dense
    array instead of hashing strings, and object names are only resolved
    back to strings (with {!Icdb_util.Symbol.name} on the shared symbol
    table) at report/trace boundaries.

    Semantics:
    - requests are granted immediately when compatible with all holders and
      no earlier waiter is queued (FIFO fairness);
    - re-entrant requests strengthen the held mode ([combine]); upgrades may
      wait but jump ahead of ordinary waiters when grantable;
    - a request that would close a cycle in the waits-for graph is denied
      with [`Deadlock] instead of blocking (immediate deadlock detection,
      requester is the victim);
    - an optional timeout turns a long wait into [`Timeout] — the paper's
      "aborted by the local transaction manager, e.g. because of time out". *)

module Symbol = Icdb_util.Symbol

type 'mode t

type outcome = Granted | Timeout | Deadlock

(** [create engine ~syms ~compatible ~combine] builds an empty table whose
    objects are symbols of [syms]. [combine] must return a mode at least as
    strong as both arguments; [compatible] need not be reflexive (X is
    incompatible with X). *)
val create :
  Icdb_sim.Engine.t ->
  syms:Symbol.table ->
  compatible:('mode -> 'mode -> bool) ->
  combine:('mode -> 'mode -> 'mode) ->
  'mode t

(** The symbol table supplied at creation. *)
val symbols : 'mode t -> Symbol.table

(** [intern t s] interns an object name against the table's symbols. *)
val intern : 'mode t -> string -> Symbol.t

(** [acquire t ~owner ~obj ~mode ?timeout ()] blocks the calling fiber until
    the lock is granted, the optional virtual-time [timeout] expires, or a
    deadlock is detected. Owners are small integers (transaction ids);
    objects are interned symbols. *)
val acquire :
  'mode t -> owner:int -> obj:Symbol.t -> mode:'mode -> ?timeout:float -> unit -> outcome

(** [try_acquire t ~owner ~obj ~mode] grants without ever blocking; [false]
    when the lock would have to wait. *)
val try_acquire : 'mode t -> owner:int -> obj:Symbol.t -> mode:'mode -> bool

(** [release t ~owner ~obj] drops one owner's lock on [obj] (no-op if not
    held) and wakes newly grantable waiters. *)
val release : 'mode t -> owner:int -> obj:Symbol.t -> unit

(** [release_all t ~owner] drops everything the owner holds — the unlock
    phase of strict two-phase locking. Also cancels any wait the owner still
    has queued. The owner's set of held objects is reset and kept by [t]
    for the next owner: a reset set iterates like a fresh one, so release
    order, and with it the order waiters wake in, is unaffected. *)
val release_all : 'mode t -> owner:int -> unit

(** Raised at the suspension point of a blocked request whose wait is torn
    down from outside — by {!release_all} on its owner (a transaction being
    aborted by another fiber) or by {!reset} (site crash). *)
exception Lock_revoked

(** [reset t] wipes the table: every holder is dropped silently and every
    blocked request is resumed with {!Lock_revoked}. Models the loss of the
    volatile lock table in a crash. *)
val reset : 'mode t -> unit

(** [held t ~owner] lists [(name, mode)] currently held, sorted by name. *)
val held : 'mode t -> owner:int -> (string * 'mode) list

(** [holders t ~obj] lists [(owner, mode)] granted on [obj]. *)
val holders : 'mode t -> obj:Symbol.t -> (int * 'mode) list

(** [set_hold_time_hook t f] installs [f ~obj ~duration], invoked whenever a
    lock is released, with the virtual time it was held — the V1 experiment's
    raw data. *)
val set_hold_time_hook : 'mode t -> (obj:Symbol.t -> duration:float -> unit) -> unit

(** Fine-grained lock-lifecycle events for the observability layer. A wait
    that is denied by deadlock detection still emits the [Wait_started] /
    [Wait_ended] pair (with [waited = 0.]) so every start has an end.
    Events carry the interned object; listeners resolve it with
    {!Icdb_util.Symbol.name} on the shared symbol table only when they
    materialize a label. *)
type observer_event =
  | Wait_started of { owner : int; obj : Symbol.t }
  | Wait_ended of {
      owner : int;
      obj : Symbol.t;
      outcome : [ `Granted | `Timeout | `Deadlock | `Cancelled ];
      waited : float;
    }
  | Acquired of { owner : int; obj : Symbol.t }
  | Released of { owner : int; obj : Symbol.t; held : float }

(** [set_observer t f] installs a lock-event listener. Default: no-op;
    installing replaces the previous listener. *)
val set_observer : 'mode t -> (observer_event -> unit) -> unit

(** Counters for the experiment tables. *)

val acquisition_count : 'mode t -> int

(** Requests that had to block at least once. *)
val wait_count : 'mode t -> int

val deadlock_count : 'mode t -> int
val timeout_count : 'mode t -> int

(** Number of requests currently blocked. *)
val blocked_count : 'mode t -> int

(** Live (owner, object) holder pairs right now — O(1). A quiescent table
    (no running transactions) should report zero; anything else is a lock
    leak (the online leak monitor's signal). *)
val held_count : 'mode t -> int

(** Owner sets that {!release_all} emptied and [t] keeps for reuse. Each
    table has its own, never shared with another table. *)
val spare_set_count : 'mode t -> int
