(** Heap file: keyed integer records across slotted pages.

    The heap owns every page of its disk and keeps a volatile free-space hint
    so inserts fill pages densely — consecutive inserts co-locate on a page,
    which is exactly the situation of the paper's Figure 8 ("x is stored on
    the same page p as y").

    All mutators take the LSN of the log record describing them and stamp it
    into the page, enabling idempotent physical redo. The heap itself is
    volatile metadata: after a crash, rebuild it with {!recover} over the
    same disk and buffer pool. *)

type t

(** Stable record identifier. *)
type rid = { page : Disk.page_id; slot : int }

val pp_rid : Format.formatter -> rid -> unit
val rid_equal : rid -> rid -> bool

val create : Disk.t -> Buffer_pool.t -> t

(** [recover disk pool] rebuilds heap metadata by scanning every allocated
    page of [disk]; stable record contents are untouched. *)
val recover : Disk.t -> Buffer_pool.t -> t

(** [insert t ~lsn ~key ~value] places a record, allocating a fresh page when
    none of the known pages fits, and returns its rid. First fit: the newest
    page first, then the older pages newest to oldest. Only the page that
    takes the record is marked dirty. *)
val insert : t -> lsn:int64 -> key:string -> value:int -> rid

(** [insert_at t ~lsn rid ~key ~value] re-creates a record at a specific rid
    (redo of an insert / undo of a delete). [false] if the slot is live. *)
val insert_at : t -> lsn:int64 -> rid -> key:string -> value:int -> bool

(** [read t rid] is [Some (key, value)] for a live record. *)
val read : t -> rid -> (string * int) option

(** [update t ~lsn rid ~value] overwrites the record's value in place.
    [false] if the rid is dead. *)
val update : t -> lsn:int64 -> rid -> value:int -> bool

(** [delete t ~lsn rid] tombstones the record. [false] if already dead. *)
val delete : t -> lsn:int64 -> rid -> bool

(** [iter t f] applies [f rid key value] to every live record. *)
val iter : t -> (rid -> string -> int -> unit) -> unit

(** Live record count (scans). *)
val count : t -> int

(** Pages currently owned by the heap. *)
val page_ids : t -> Disk.page_id list
