(** Deterministic discrete-event simulation core.

    The engine owns a virtual clock and a priority queue of events. Events
    scheduled for the same instant fire in scheduling order (FIFO), which —
    together with the explicit {!Icdb_util.Rng} streams — makes every run of
    the federation bit-for-bit reproducible.

    Pending events live in two stores. An event whose fire time equals
    the current clock (a zero delay: every fiber resume and spawn) goes to
    the {e same-instant lane}, a FIFO with O(1) push and pop and no
    comparisons. Every other event goes to a binary min-heap.

    Pop order is the strict ([time], [seq]) total order of a single heap.
    An event scheduled at the current instant has a larger [seq] than any
    event already due then (those were scheduled before the clock got
    there), so the lane is in order, and the heap's events at the current
    instant pop before the lane's. The lane is therefore not visible to
    the simulation — the equivalence tests compare it against a plain
    reference heap ([test/engine_ref.ml]).

    Time is a dimensionless [float]; the experiments interpret one unit as
    "one millisecond" but nothing depends on that. *)

type t

(** Handle to a scheduled event, usable with {!cancel}. *)
type event_id

(** A fresh engine at time [0.]. *)
val create : unit -> t

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

(** Number of events physically retained in the lane and the heap,
    cancelled ones included. Always [>= pending]; the fault campaign
    asserts both reach zero after a drain. *)
val stored : t -> int

(** Events executed since creation. *)
val executed : t -> int

(** [set_observer t f] installs a hook called once per executed event, just
    before its callback runs (the clock already shows the event's time).
    The observability layer counts scheduler activity through it. Default:
    no-op; installing replaces the previous hook. *)
val set_observer : t -> (unit -> unit) -> unit
