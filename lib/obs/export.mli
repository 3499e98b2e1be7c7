(** Deterministic exporters for traces and metric snapshots.

    See OBSERVABILITY.md for the formats and how to open a trace in
    Perfetto. *)

(** Chrome trace-event JSON ([{"traceEvents": [...]}]): protocol spans as
    async "b"/"e" pairs (they overlap freely on one track), lock waits /
    holds / outages as complete "X" events, messages / decisions / WAL
    forces as instants. One virtual time unit is exported as 1 µs. Spans a
    crash left open are closed synthetically at the last recorded time,
    next to a [crash-truncated] marker instant, so Perfetto shows the
    crash signature instead of clipping the track. Open at
    [https://ui.perfetto.dev] or [chrome://tracing]. *)
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

(** Escapes a string for embedding in JSON (shared by the JSON writers). *)
val json_escape : string -> string

(** Fixed-precision float formatting shared by the JSON writers
    ([%.3f]; NaN renders as [0]). *)
val fnum : float -> string
