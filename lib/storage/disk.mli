(** Simulated stable storage.

    A disk is an append-allocated array of page images. Contents written here
    survive site crashes (the buffer pool and all other in-memory state do
    not). Reads and writes hand out/store {e copies}, so a cached page being
    mutated in the buffer pool never changes stable state until it is
    explicitly written back — this is what makes the crash-window tests of
    DESIGN.md experiment V6 meaningful. *)

type t

type page_id = int

val create : unit -> t

(** [allocate t] extends the disk by one zeroed page and returns its id.
    Fresh pages share one read-only empty image, so allocating costs no
    page of memory until the page is first written; a bulk load's pages
    each cost their 4 KB only when the pool writes them back. *)
val allocate : t -> page_id

(** [read t pid] is a private copy of the stable image.
    Raises [Invalid_argument] on an unallocated id. *)
val read : t -> page_id -> Page.t

(** [free_space t pid] is {!Page.free_space} of the stable image, read in
    place: no copy is made and {!read_count} does not move.
    Raises [Invalid_argument] on an unallocated id. *)
val free_space : t -> page_id -> int

(** [write t pid page] replaces the stable image with a copy of [page]. *)
val write : t -> page_id -> Page.t -> unit

(** [copy t] is a disk with [t]'s pages and I/O counts that is written
    apart from [t]. Only the page array is copied: the page images are
    shared, which is safe because no image is ever changed in place —
    {!write} replaces one with a copy and {!read} hands out a copy. *)
val copy : t -> t

val page_count : t -> int

(** I/O accounting, reported by the experiment runner. *)
val read_count : t -> int

val write_count : t -> int
val reset_counters : t -> unit
