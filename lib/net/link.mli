(** Point-to-point link between the central system and one local system.

    Figure 1 of the paper: local systems talk only to the central system, so
    the topology is a star and one link per site suffices. A link delays
    traffic by a fixed virtual latency per direction and counts every
    message by label — the raw data of the V5 message-complexity
    experiment.

    {1 Loss}

    With [?loss] set, each message copy is dropped with that probability.
    {!rpc} then behaves as an {b at-least-once} request/reply: the sender
    retransmits after a timeout, and the receiver deduplicates by request
    id, caching the reply — so the handler [f] runs exactly once no matter
    how many copies of the request arrive, while the wire carries (and the
    counters show) every retransmission. This is the regime in which the
    protocols' database-resident markers earn their keep. One-way
    {!send}s are retransmitted blindly until one copy gets through (no
    acknowledgement — the receiver-side effect runs once).

    {1 Retry bound}

    By default the sender retransmits forever — the right model for
    decision-phase traffic, whose eventual delivery atomicity depends on.
    With [?max_retries] set, an exchange still undelivered after that many
    retransmissions raises {!Unreachable} instead: a timeout outcome the
    caller must handle. A receiver that saw a request copy of an abandoned
    exchange still holds the memoized reply for its request id; such
    orphaned dedup entries are tracked per global transaction (the [?gid]
    argument of {!rpc}) and reclaimed by {!evict_gid} when the transaction's
    journal entry closes.

    {1 Fault injection}

    {!set_loss}, {!set_latency} and {!set_duplication} retune the wire at
    run time (loss bursts, latency spikes, duplicated deliveries). All
    default to the values given at creation ([0] for duplication); while
    they are at their defaults the random stream is untouched, so runs
    without injected faults are byte-identical to earlier builds. *)

type t

exception Unreachable of string
(** Raised by {!rpc}/{!send} when [max_retries] retransmissions were
    exhausted without completing the exchange; carries the request label. *)

(** [create engine ~latency] with [latency >= 0] per direction.
    [loss] is the per-copy drop probability (default [0.]); [loss_seed]
    makes drops deterministic. [retry_timeout] is the sender's
    retransmission deadline (default [6 x latency + 1]). [max_retries]
    bounds retransmissions per exchange (default: unbounded). *)
val create :
  Icdb_sim.Engine.t ->
  latency:float ->
  ?loss:float ->
  ?loss_seed:int64 ->
  ?retry_timeout:float ->
  ?max_retries:int ->
  unit ->
  t

(** [rpc t ~label f] models "central sends a request labelled [label]; the
    site processes it with [f]; the site replies". Costs two messages and
    two latencies on a clean wire (more under loss). The reply is counted
    with the label returned by [f] (so a "prepare" request can be answered
    by "ready" or "aborted"). Must run in a fiber. [gid] tags the exchange
    with its global transaction for {!evict_gid} accounting. Raises
    {!Unreachable} when a retry cap is set and exhausted. *)
val rpc : ?gid:int -> t -> label:string -> (unit -> string * 'a) -> 'a

(** [send t ~label f] is a one-way message; [f] runs once when the first
    copy arrives. Returns after the effect has happened (retransmissions
    are simulated inline). Raises {!Unreachable} when a retry cap is set
    and every copy was lost. *)
val send : ?gid:int -> t -> label:string -> (unit -> unit) -> unit

(** Total messages carried (including retransmitted copies), and per-label
    counts (sorted by label).

    {b Label slots.} A link numbers the labels it carries: the first
    message with a label gives it the next free slot, [0, 1, ...], and the
    label keeps that slot for the link's life ({!reset_counters} zeroes the
    counts but keeps the slots). Counting a message finds its slot by a
    linear scan over the link's labels — a physical-equality pass, which
    finds the string literals the protocols use, then a [String.equal]
    pass for labels built at run time — and bumps an array cell. A link
    carries about ten labels, so the scan costs a few compares and no
    string hash, and the hot path allocates nothing: each slot's
    [Msg_sent]/[Msg_received] event is built once and reused. *)
val message_count : t -> int

val messages_by_label : t -> (string * int) list

(** [count_piggyback t ~label] accounts for one {e logical} message labelled
    [label] that rode inside a batch envelope: the per-label counter is
    incremented and [Msg_sent] fires, but {!message_count} (physical wire
    messages) is untouched — the envelope already paid for the wire. Used by
    {!Batcher}. *)
val count_piggyback : t -> label:string -> unit

(** Copies dropped by the lossy wire. *)
val dropped_count : t -> int

val reset_counters : t -> unit
val latency : t -> float

(** Run-time fault injection; see the module preamble. [set_latency] does
    not retune the retransmission deadline fixed at creation. *)
val set_latency : t -> float -> unit

val set_loss : t -> float -> unit
val set_duplication : t -> float -> unit

(** Orphaned receiver-side dedup entries (abandoned exchanges whose request
    reached the receiver), and their eviction once the owning global
    transaction's journal entry closes. *)
val orphan_count : t -> int

val evict_gid : t -> gid:int -> unit

(** Wire-level events for the observability layer: a copy entering the wire,
    a copy delivered after the latency, a copy dropped by the lossy wire.
    Retransmissions emit an event per copy, matching the counters.

    [Msg_sent]'s [slot] is the label's slot on this link (see
    {!messages_by_label}): equal labels always carry the same slot, so an
    observer can keep per-label state in an array indexed by it instead of
    hashing the label. Events of one slot are shared values; observers must
    not rely on their physical identity. *)
type observer_event =
  | Msg_sent of { label : string; slot : int }
  | Msg_received of { label : string }
  | Msg_dropped of { label : string }

(** [set_observer t f] installs a wire-event listener. Default: no-op;
    installing replaces the previous listener. *)
val set_observer : t -> (observer_event -> unit) -> unit
