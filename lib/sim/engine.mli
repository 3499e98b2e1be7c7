(** Deterministic discrete-event simulation core.

    The engine owns a virtual clock and a priority queue of events. Events
    scheduled for the same instant fire in scheduling order (FIFO), which —
    together with the explicit {!Icdb_util.Rng} streams — makes every run of
    the federation bit-for-bit reproducible.

    Pending events live in three stores. An event whose fire time equals
    the current clock (a zero delay: every fiber resume and spawn) goes to
    the {e same-instant lane}, a FIFO with O(1) push and pop and no
    comparisons. Every other event goes to a hybrid calendar queue: below
    an activation threshold (counted on the heap alone) it is a plain
    binary min-heap (the exact fallback — seed-scale runs never leave it);
    past the threshold the far future spills into day-width buckets
    auto-tuned from the observed inter-event gap, keeping enqueue/dequeue
    O(1) amortized at millions of pending events.

    Pop order is the strict ([time], [seq]) total order of a single heap.
    An event scheduled at the current instant has a larger [seq] than any
    event already due then (those were scheduled before the clock got
    there), so the lane is in order, and the heap's or calendar's events
    at the current instant pop before the lane's. Both calendar regimes
    pop in the same order too, so neither the lane nor the switch is
    visible to the simulation — see {!Engine_ref} for the reference heap
    the equivalence tests compare against.

    Time is a dimensionless [float]; the experiments interpret one unit as
    "one millisecond" but nothing depends on that. *)

type t

(** Handle to a scheduled event, usable with {!cancel}. *)
type event_id

(** A fresh engine at time [0.]. [threshold] (default 16384, clamped to at
    least 64) is the pending-event count at which the calendar activates;
    tests use a small value to exercise the calendar paths at toy scale. *)
val create : ?threshold:int -> unit -> t

(** Current virtual time. *)
val now : t -> float

(** [schedule t ~delay f] runs [f] at time [now t +. delay]. [delay] must be
    non-negative; [Invalid_argument] otherwise. Returns a cancellation
    handle. *)
val schedule : t -> delay:float -> (unit -> unit) -> event_id

(** [cancel t id] prevents a pending event from firing. Cancelling an event
    that already fired (or was cancelled) is a no-op. Cancelled events are
    compacted out of the queue once they outnumber live ones. *)
val cancel : t -> event_id -> unit

(** [step t] fires the single earliest pending event; [false] if none. *)
val step : t -> bool

(** [run t] fires events until the queue is empty. Exceptions escaping an
    event callback abort the run and propagate. *)
val run : t -> unit

(** [run_until t horizon] fires events with time [<= horizon], then advances
    the clock to [horizon]. Later events stay queued. *)
val run_until : t -> float -> unit

(** Number of pending (non-cancelled) events. *)
val pending : t -> int

(** Number of events physically retained in the lane, the heap and the
    calendar, cancelled ones included. Always [>= pending]; the fault
    campaign asserts both reach zero after a drain. *)
val stored : t -> int

(** Events executed since creation. *)
val executed : t -> int

(** Whether the calendar regime is currently active (diagnostics/tests). *)
val calendar_active : t -> bool

(** [set_observer t f] installs a hook called once per executed event, just
    before its callback runs (the clock already shows the event's time).
    The observability layer counts scheduler activity through it. Default:
    no-op; installing replaces the previous hook. *)
val set_observer : t -> (unit -> unit) -> unit

(** [set_resize_hook t f] installs a hook called on every calendar rebuild
    with the new bucket count, day width and the number of live events
    redistributed. Never called while the engine stays below the activation
    threshold. Default: no-op; installing replaces the previous hook. *)
val set_resize_hook : t -> (buckets:int -> width:float -> events:int -> unit) -> unit

(** {2 Coupled engines (conservative parallel simulation)}

    A {!couple} binds several engines into one logical simulation: all of
    them draw timestamps from a shared clock and tie-breaker sequence, so
    the union of their queues pops in the exact strict (time, seq) total
    order a single engine would have produced for the same schedule calls.
    {!Parallel} drives a coupled group, one engine per domain, serializing
    execution so only one partition runs events at any moment. An
    uncoupled engine behaves exactly as before — the legacy single-engine
    path is untouched. *)

type couple

(** A fresh shared clock/sequence. *)
val couple_create : unit -> couple

(** [attach t c ~owner] joins a fresh engine to a couple as partition
    [owner]. Raises [Invalid_argument] if the engine already scheduled or
    executed anything (seeding it beforehand would fork the sequence). *)
val attach : t -> couple -> owner:int -> unit

(** [set_current c p] marks partition [p] as the one executing events
    ([-1]: none — e.g. single-threaded setup code between runs). *)
val set_current : couple -> int -> unit

(** [set_on_cross c f] installs the cross-partition scheduling hook:
    [f owner key seq] fires whenever an event is scheduled onto a partition
    other than the current one. The parallel scheduler uses it to shrink
    the running window's bound. *)
val set_on_cross : couple -> (int -> int -> int -> unit) -> unit

(** [head t] is the (key, seq) pair of the earliest live event, without
    removing it; [None] when the queue is drained. Keys are the engine's
    order-preserving bit encoding of fire times: comparing (key, seq)
    pairs lexicographically compares events in execution order. *)
val head : t -> (int * int) option
