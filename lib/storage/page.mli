(** Slotted pages.

    Each local database stores its records in fixed-size slotted pages: a
    header carrying the page LSN (for idempotent redo), a slot directory
    growing upward, and record payloads growing downward from the end of the
    page. Dead slots are tombstoned so record ids (page, slot) stay stable —
    restart recovery re-inserts into the very same slot.

    Layout (big-endian):
    {v
      0..7    page LSN
      8..9    slot count
      10..11  offset of the lowest payload byte (free space ends there)
      12..    slot directory, 4 bytes per slot: payload offset, payload length
              (offset = 0 marks a dead slot)
    v}

    A page value also caches the total length of its live payloads, so
    {!free_space} and every fit check are O(1) rather than a directory
    scan. That count lives only in memory (it is carried by {!copy} and
    never written into the page bytes): the byte layout above is unchanged. *)

type t

(** Page capacity in bytes. *)
val size : int

(** A fresh, empty page with LSN 0. *)
val create : unit -> t

(** Deep copy (the disk stores copies so that buffer-pool mutations do not
    leak into "stable storage"). *)
val copy : t -> t

val lsn : t -> int64
val set_lsn : t -> int64 -> unit

(** [insert t ~payload] places a record in a {e fresh} slot (compacting
    fragmented payload space if needed) and returns it; [None] when the
    page cannot fit the payload. Dead slots are never reused: a tombstoned
    slot may still be the target of a rollback's or restart-redo's
    {!insert_at}, so it stays reserved (ghost-record rule; the 4-byte
    directory entry is the price). Raises [Invalid_argument] on an empty or
    oversized payload. *)
val insert : t -> payload:bytes -> int option

(** [insert_at t ~slot ~payload] places a record in a specific (currently
    dead or beyond-directory) slot; used by redo/undo to restore a record at
    its original rid. [false] if the slot is live or space is insufficient. *)
val insert_at : t -> slot:int -> payload:bytes -> bool

(** [read t ~slot] is the payload, or [None] for dead/out-of-range slots. *)
val read : t -> slot:int -> bytes option

(** [update t ~slot ~payload] overwrites a live record. Same-size payloads
    are updated in place; size changes relocate within the page. [false] if
    the slot is dead or space is insufficient. *)
val update : t -> slot:int -> payload:bytes -> bool

(** [delete t ~slot] tombstones a live slot; [false] if already dead or out
    of range. *)
val delete : t -> slot:int -> bool

(** Bytes available for one more insert, after the 4-byte directory entry
    a fresh slot needs. Compaction is taken into account, so this is usable
    space, not necessarily contiguous. O(1). *)
val free_space : t -> int

(** Number of directory entries (live and dead). *)
val slot_count : t -> int

(** Live [(slot, payload)] pairs in slot order. *)
val live : t -> (int * bytes) list
