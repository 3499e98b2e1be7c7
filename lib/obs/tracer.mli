(** Structured, span-based event recorder over virtual time.

    A tracer is created with a clock (usually [Icdb_sim.Engine.now] of the
    run's engine) and records four event shapes: [Begin]/[End] pairs for
    nested spans with parent links (protocol runs and their phases),
    retrospective [Complete] spans for intervals whose extent is only known
    when they finish (lock waits, lock holds, site outages), and [Instant]
    points (messages, decisions, WAL forces).

    Recording is gated on {!enabled}: a disabled tracer's record calls are
    single branch tests, so permanent instrumentation costs nothing when no
    trace is requested. There is one store: packed int, float and string
    columns in recording order, no boxed events. With a [limit] the columns
    are a flight-recorder ring that overwrites its oldest event when full
    (bounded memory, {!dropped} counts the overwrites); without one they
    double when full. Every accessor is linear, and the order doubles as a
    deterministic tiebreak for simultaneous events.

    Two optional attachments turn the same tracer into the large-run
    observability pipeline: a {!set_sink} tap receives every recorded event
    as it is recorded, which with [set_store t false] gives a pure
    streaming tracer with O(open spans) memory; and a {!set_sampler}
    predicate drops whole span kinds at record time (deterministic seeded
    per-transaction sampling lives in {!Sampling}). An [event] is boxed on
    the write side only to hand it to a sink. *)

type event =
  | Begin of { id : int; parent : int; actor : string; time : float; kind : Span.kind }
      (** [parent < 0] means no parent *)
  | End of { id : int; time : float }
  | Complete of { actor : string; start : float; stop : float; kind : Span.kind }
  | Instant of { actor : string; time : float; kind : Span.kind }

type t

(** [create ?enabled ?limit ~clock ()]. [clock] supplies timestamps
    (virtual time); [enabled] defaults to [false]. [limit] bounds the store
    to a ring of the most recent [limit] events (flight-recorder mode);
    omitted, the store grows without bound, allocating nothing until its
    first event. *)
val create : ?enabled:bool -> ?limit:int -> clock:(unit -> float) -> unit -> t

val enabled : t -> bool

(** [set_sink t (Some f)] taps every recorded event: [f] runs before the
    event is stored (or not stored — see {!set_store}), in recording
    order. [None] removes the tap. {!Sink.on_event} is the Chrome-trace
    writer's tap. *)
val set_sink : t -> (event -> unit) option -> unit

(** [set_store t false] stops retaining events in memory — only the sink
    sees them. Default [true]. *)
val set_store : t -> bool -> unit

(** [set_sampler t (Some keep)] drops events whose kind fails [keep] at
    record time ({!begin_span} returns [-1], so the matching
    {!end_span} is a no-op too). [None] (default) keeps everything. *)
val set_sampler : t -> (Span.kind -> bool) option -> unit

(** Events overwritten by ring wraparound since the last {!clear}; [0] for
    unbounded tracers. *)
val dropped : t -> int

(** The ring capacity, or [None] for an unbounded tracer. *)
val capacity : t -> int option

(** Re-point the timestamp source. Lets a tracer be created before the
    engine whose virtual clock it will read exists (the runner re-wires a
    supplied tracer onto its own engine). *)
val set_clock : t -> (unit -> float) -> unit

(** [begin_span t ?parent ~actor kind] opens a span and returns its id.
    Negative [parent] (the default) means a root span. Returns [-1] (a
    valid no-op handle) when disabled. *)
val begin_span : t -> ?parent:int -> actor:string -> Span.kind -> int

val end_span : t -> int -> unit

(** [complete t ~actor ~start ?stop kind] records a span retrospectively;
    [stop] defaults to the current clock. *)
val complete : t -> actor:string -> start:float -> ?stop:float -> Span.kind -> unit

val instant : t -> actor:string -> Span.kind -> unit

(** Allocation-free recording of the two event kinds that dominate a
    protocol run's stream. Semantically identical to {!instant} with
    [Span.Message] and {!complete} with [Span.Lock_wait]/[Span.Lock_hold]
    ([wait] selects which), but the kind payload is passed as primitive
    arguments, so a tracer with no sink and no sampler, bounded or not,
    stores it without allocating the kind record. A lock
    interval is given by its length [dur] and ends now on the tracer's
    clock, so the caller computes (and boxes) no start time. *)
val instant_message :
  t -> actor:string -> label:string -> direction:Span.direction -> unit

val complete_lock :
  t ->
  actor:string ->
  dur:float ->
  wait:bool ->
  table:string ->
  obj:string ->
  unit
val length : t -> int
val clear : t -> unit

(** [iter t f] applies [f] to the stored events in recording order,
    oldest first. *)
val iter : t -> (event -> unit) -> unit

(** A reconstructed span. [s_id] is [-1] for [Complete] spans; [s_stop] is
    [None] for spans still open when the trace ended. *)
type span = {
  s_id : int;
  s_parent : int;
  s_actor : string;
  s_kind : Span.kind;
  s_start : float;
  s_stop : float option;
}

(** All spans, ordered by completion (ends before enclosing ends). *)
val spans : t -> span list

(** All instants as [(time, actor, kind)], in recording order. *)
val instants : t -> (float * string * Span.kind) list
