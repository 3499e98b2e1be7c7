(** Deterministic, seeded per-transaction head sampling for traces.

    [keep ~seed ~rate gid] decides a whole transaction's fate as a pure
    function of [(seed, gid)] — a splitmix64 hash compared against [rate] —
    so roughly [rate] of all transactions are kept, the same ones on every
    run of the same seed, on any domain. [kind_filter]
    lifts the decision to a {!Tracer.set_sampler} predicate: gid-carrying
    kinds (txn, phase, branch, decision spans) follow their transaction,
    outages and marks are always kept (they are rare and forensic), and the
    gid-less high-volume kinds (messages, lock waits/holds, WAL forces) are
    dropped whenever [rate < 1.0]. *)

val keep : seed:int64 -> rate:float -> int -> bool

val kind_filter : seed:int64 -> rate:float -> Span.kind -> bool
