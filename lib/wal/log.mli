(** Write-ahead log for a local database.

    The log is the site's second piece of stable storage (next to the
    {!Icdb_storage.Disk}): records appended and then {!flush}ed survive a
    crash; the unflushed tail is lost. LSNs are dense positive integers;
    [0] is the null LSN.

    Record vocabulary follows ARIES: per-transaction [Begin]/[Commit]/
    [Abort], physical [Op] records chained through [prev] for rollback,
    compensation ([Clr]) records so that undo work itself is never undone
    twice, fuzzy [Checkpoint]s, and [Prepare] — the persisted ready state
    that only 2PC-capable local systems ever write (the paper's premise is
    that most existing systems {e cannot}). *)

type lsn = int

val null_lsn : lsn

type txn_id = int

(** Operation on a record, with before-images where undo needs them.

    [Incr] is logged {e logically} (the delta, not before/after images): two
    increments commute, so undoing one by restoring a before-image would
    wipe out the other — the very anomaly the paper's Figure 8 discussion
    uses to motivate undo by inverse actions. Its inverse is the negated
    delta. *)
type op =
  | Insert of { rid : Icdb_storage.Heap.rid; key : string; value : int }
  | Delete of { rid : Icdb_storage.Heap.rid; key : string; value : int }
  | Update of { rid : Icdb_storage.Heap.rid; key : string; before : int; after : int }
  | Incr of { rid : Icdb_storage.Heap.rid; key : string; delta : int }

type record =
  | Begin of txn_id
  | Op of { txn : txn_id; op : op; prev : lsn }
  | Commit of txn_id
  | Abort of txn_id
  | Clr of { txn : txn_id; op : op; next_undo : lsn }
  | Prepare of { txn : txn_id; last : lsn }
  | Checkpoint of { active : (txn_id * lsn) list; dirty : Icdb_storage.Disk.page_id list }

(** The log keeps its records as bytes, not as record values.

    Records are appended into fixed chunks of 2,040 bytes. A [bytes] of
    2,040 bytes is 256 words, the largest block OCaml allocates on the
    minor heap, so a chunk is born on the minor heap like any small value,
    and once promoted it holds no pointers for the major collector to
    scan. A record never straddles two chunks; the unused end of a chunk
    is marked by a [0xff] byte.

    Each record is a tag byte followed by varints (7 bits a byte, low group
    first). Signed fields (txn ids, rid page and slot, values, deltas) are
    zigzagged. [prev], [next_undo] and [last] are stored as the distance
    back from the record's own LSN, so a record encodes the same wherever
    it sits. An op's key is stored inline after its varint length. The
    insert of an 11-byte key takes about 21 bytes plus a quarter byte of
    location, where a boxed [Op] with its [Insert] block and array slot took
    about 9 words (72 bytes).

    A sparse table of 4-byte locations (chunk number and offset) holds the
    location of every 16th retained record only: 0.25 bytes per record. A
    record in between is found from its stride's entry by skipping forward
    over at most 15 records; a skip reads a tag byte, varint continuation
    bits and a key length, and builds nothing. The stride is fixed. The
    rare [Checkpoint] record is a tag byte whose payload stays boxed in a
    side table keyed by LSN.

    What allocates: appends write into the current chunk and retain no
    block (a fresh chunk every 2,040 bytes aside); {!append_insert} takes
    the insert's fields, so the preload builds no record at all. Reads
    build records: {!get} and {!iter} decode each record as it is read,
    its key string included. {!get} costs up to 15 skips before its decode;
    {!iter} skips as much once, to find its first record. {!crash} moves
    the write cursor back to where the first lost record began, after the
    same up-to-15 skips; {!truncate_prefix} re-encodes the retained suffix
    into fresh chunks. *)
type t

val create : unit -> t

(** [append t r] adds [r] to the volatile tail and returns its LSN. Raises
    [Invalid_argument] on an op whose key is too long for one chunk
    (1,984 bytes and more; the heap's keys have at most 255). *)
val append : t -> record -> lsn

(** [append_insert t ~txn ~prev ~rid ~key ~value] is
    [append t (Op { txn; op = Insert { rid; key; value }; prev })] without
    building the record: the bulk preload's append. *)
val append_insert :
  t -> txn:txn_id -> prev:lsn -> rid:Icdb_storage.Heap.rid -> key:string -> value:int -> lsn

(** [flush t] makes the whole log durable (group force). *)
val flush : t -> unit

(** [flush_to t lsn] makes records up to [lsn] durable; used by the buffer
    pool's WAL hook. No-op when already durable. *)
val flush_to : t -> lsn -> unit

(** Highest LSN appended / made durable. *)
val last_lsn : t -> lsn

val flushed_lsn : t -> lsn

(** [get t lsn] reads a record: up to 15 skips from the nearest stored
    location, then one decode. Raises [Invalid_argument] for LSNs outside
    [\[first_lsn, last_lsn\]]. *)
val get : t -> lsn -> record

(** [crash t] discards the unflushed tail — the volatile loss that happens
    when the site fails. *)
val crash : t -> unit

(** [truncate_prefix t ~keep_from] discards records with LSN < [keep_from]
    (checkpointing: everything older is known to be on disk and belongs to
    no live transaction). LSNs of retained records are unchanged; reading a
    purged LSN raises [Invalid_argument]. [keep_from] above [last_lsn + 1]
    or below the current first retained LSN is clamped. *)
val truncate_prefix : t -> keep_from:lsn -> unit

(** Lowest retained LSN ([1] until the first truncation); [last_lsn + 1]
    when the retained log is empty. *)
val first_lsn : t -> lsn

(** [iter t f] applies [f lsn record] to every (durable or not) record in
    LSN order. After {!crash}, only durable records remain. *)
val iter : t -> (lsn -> record -> unit) -> unit

(** Number of force (flush) operations performed, an overhead metric the
    V4 ablation reports. *)
val force_count : t -> int

(** [replicate ~src t] makes the fresh log [t] a replica of [src]: the
    same records, LSNs, cursor, flushed LSN and force count, with [src]'s
    checkpoint table copied. The chunks no later append or crash of
    [src] can write — those below the one holding the first unflushed
    record, and the location-table chunks that locate flushed records
    only — are shared read-only; the tail is copied. [t] keeps its own
    force hook and fires it once per force [src] took, so a site's
    force counter reads as if [t] had taken them. Raises
    [Invalid_argument] when [t] has a record or a force. *)
val replicate : src:t -> t -> unit

(** [set_force_hook t f] installs [f], invoked once per actual force (a
    {!flush} / {!flush_to} that made new records durable — no-op flushes do
    not fire it). Default: no-op; installing replaces the previous hook. *)
val set_force_hook : t -> (unit -> unit) -> unit

(** Total records appended since creation (not reduced by truncation). *)
val record_count : t -> int

(** Records currently retained (reduced by {!truncate_prefix}). *)
val retained_count : t -> int
