(** Deterministic exporters for traces and metric snapshots.

    See OBSERVABILITY.md for the formats and how to open a trace in
    Perfetto. *)

(** Chrome trace-event JSON of the stored events: the {!Sink} writer fed
    by [Tracer.iter], with every actor's thread_name record up front. A
    sink attached to an unbounded tracer while it records writes the same
    records in the same order, but names each actor where it first
    appears. Open at [https://ui.perfetto.dev] or [chrome://tracing]. *)
val chrome_trace : Tracer.t -> string

(** JSON snapshot of every counter and histogram, sorted. *)
val metrics_json : Registry.t -> string

(** Prometheus text exposition: counters as [counter], histograms as
    [summary] with 0.5/0.95/1 quantiles. *)
val prometheus : Registry.t -> string

(** Indented, human-readable span tree plus a chronological instant list
    (the [icdb trace] output). Spans a crash left open are pinned to the
    last recorded time and tagged [(crash-truncated)]. *)
val span_tree : Tracer.t -> string

(** Plain-text dump of a (usually ring-limited) tracer, one line per
    retained event, oldest first — the flight-recorder forensics format
    written by [icdb chaos] next to a shrunken reproducer. *)
val flight_dump : Tracer.t -> string
