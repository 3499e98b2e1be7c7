(** Heap file: keyed integer records across slotted pages.

    The heap owns every page of its disk and places records first fit, so
    inserts fill pages densely — consecutive inserts co-locate on a page,
    which is exactly the situation of the paper's Figure 8 ("x is stored on
    the same page p as y"). It keeps no free-space map: the fit of an older
    page is read from the page itself through {!Buffer_pool.free_space},
    which is exact after a crash and after recovery's page writes. Only
    {!bulk_insert} holds one, for the length of the call.

    All mutators take the LSN of the log record describing them and stamp it
    into the page, enabling idempotent physical redo. The heap itself is
    volatile metadata: after a crash, rebuild it with {!recover} over the
    same disk and buffer pool. *)

type t

(** Stable record identifier. *)
type rid = { page : Disk.page_id; slot : int }

val pp_rid : Format.formatter -> rid -> unit
val rid_equal : rid -> rid -> bool

(** [pack rid] is [rid] as one immediate int, [page lsl 16 lor slot], for
    indexes that would otherwise keep a block per record. Raises
    [Invalid_argument] on a slot outside [\[0, 65535\]] or a negative page
    (a page has at most {!Page.size}/4 slots). [unpack (pack rid)] equals
    [rid]; every packed rid is non-negative. *)
val pack : rid -> int

val unpack : int -> rid

val create : Disk.t -> Buffer_pool.t -> t

(** [recover disk pool] rebuilds heap metadata by scanning every allocated
    page of [disk]; stable record contents are untouched. *)
val recover : Disk.t -> Buffer_pool.t -> t

(** [insert t ~lsn ~key ~value] places a record, allocating a fresh page when
    none of the known pages fits, and returns its rid. First fit: the newest
    page first, then the older pages newest to oldest. The newest page is
    tried through the pool; an older page is pinned only when its
    {!Buffer_pool.free_space} fits the record, so at most two pages are
    fetched. Only the page that takes the record is marked dirty. Raises
    [Invalid_argument], before any page is allocated, on a record whose
    payload no page can take. *)
val insert : t -> lsn:int64 -> key:string -> value:int -> rid

(** [bulk_insert t f] is [f place], where [place ~lsn ~key ~value] places
    one record exactly as {!insert} would: the same first-fit choice, pool
    accesses, rid and page image. It is meant for many inserts in a row,
    with nothing else writing to the heap while [f] runs, and [place] must
    not be called after [f] returns. Each older page's free space is read
    once, at the start or when a fresh page retires it, and the largest of
    them is tracked: a record longer than that skips the older pages in
    O(1) where {!insert} probes each of them. *)
val bulk_insert : t -> ((lsn:int64 -> key:string -> value:int -> rid) -> 'a) -> 'a

(** [insert_at t ~lsn rid ~key ~value] re-creates a record at a specific rid
    (redo of an insert / undo of a delete). [false] if the slot is live. *)
val insert_at : t -> lsn:int64 -> rid -> key:string -> value:int -> bool

(** [read t rid] is [Some (key, value)] for a live record. *)
val read : t -> rid -> (string * int) option

(** [value t rid] is [Option.map snd (read t rid)], read in place
    ({!Page.value}). *)
val value : t -> rid -> int option

(** [packed_value_or t loc ~default] is [value t (unpack loc)] without the
    option ([default] for a dead record), through the same pool access and
    with no allocation: for summing many records. *)
val packed_value_or : t -> int -> default:int -> int

(** [update t ~lsn rid ~value] overwrites the record's value in place.
    [false] if the rid is dead. *)
val update : t -> lsn:int64 -> rid -> value:int -> bool

(** [delete t ~lsn rid] tombstones the record. [false] if already dead. *)
val delete : t -> lsn:int64 -> rid -> bool

(** [iter t f] applies [f rid key value] to every live record. *)
val iter : t -> (rid -> string -> int -> unit) -> unit

(** [bindings t] is [(key, pack rid)] for every live record, in {!iter}'s
    order, read straight from the pages into one array: no value is
    decoded and no list is built. It pins each page once, as {!iter}
    does. *)
val bindings : t -> (string * int) array

(** Live record count (scans). *)
val count : t -> int

(** Pages currently owned by the heap. *)
val page_ids : t -> Disk.page_id list
