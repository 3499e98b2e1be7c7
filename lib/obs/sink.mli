(** The Chrome trace-event writer ([{"traceEvents": [...]}]), the only
    code that writes the format. One virtual time unit is exported as
    1 µs. Protocol spans become async "b"/"e" pairs (they overlap freely on
    one track), lock waits / holds / outages complete "X" events, and
    messages / decisions / WAL forces instants.

    [create ~write] emits the JSON header immediately and then formats each
    event handed to {!on_event} straight into [write] (typically
    [output_string] on a file channel). Attach one to a tracer with
    [Tracer.set_sink t (Some (Sink.on_event sink))], usually together with
    [Tracer.set_store t false], and a million-account run traces to disk
    with in-process memory bounded by the open-span and actor tables.
    {!Export.chrome_trace} is the same writer fed by [Tracer.iter].

    Each actor gets a thread_name metadata record when it is first seen
    (the trace-event spec permits "M" records anywhere, and Perfetto reads
    both placements), or earlier through {!declare_actor}.

    {!close} finishes the stream: spans still open are closed at the last
    recorded time next to a [crash-truncated] marker instant, so Perfetto
    shows the crash signature instead of clipping the track; then the
    closing bracket is written. Events arriving after [close] are
    ignored. *)

type t

val create : write:(string -> unit) -> t

(** [declare_actor t actor] writes [actor]'s thread_name record now,
    unless it already has one. *)
val declare_actor : t -> string -> unit

val on_event : t -> Tracer.event -> unit
val close : t -> unit

(** Payload events written so far (metadata records excluded). *)
val event_count : t -> int

(** Total bytes handed to [write] so far. *)
val byte_count : t -> int

(** Escapes a string for embedding in JSON (shared by the JSON writers). *)
val json_escape : string -> string

(** Fixed-precision float formatting shared by the JSON writers
    ([%.3f]; NaN renders as [0]). *)
val fnum : float -> string
