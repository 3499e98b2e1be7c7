(** Buffer pool with LRU replacement and a write-ahead-log hook.

    The pool caches page images between the engine and the {!Disk}. It
    implements a steal/no-force policy: dirty pages may be evicted before
    their transaction commits (steal), and commit does not force data pages
    to disk (no-force) — exactly the regime that makes both redo and undo
    recovery necessary, which the paper's protocols then build upon.

    Before a dirty page is written to disk (eviction or explicit flush), the
    [wal_hook] is invoked with the page's LSN so the owning engine can force
    its log first — the WAL rule. *)

type t

(** [create ~capacity disk] builds a pool of [capacity] frames.
    Raises [Invalid_argument] if [capacity <= 0]. *)
val create : capacity:int -> Disk.t -> t

(** [set_wal_hook t f] installs [f], called as [f ~lsn] immediately before
    any dirty page with page-LSN [lsn] is written to disk. *)
val set_wal_hook : t -> (lsn:int64 -> unit) -> unit

(** [with_page t pid ~write f] pins the page (fetching from disk on a miss),
    applies [f], marks the frame dirty when [write], unpins, and returns
    [f]'s result. The page value must not escape [f]. Raises [Failure] if
    every frame is pinned. Exception-safe: when [f] raises, the pin is
    released (and the frame still marked dirty under [write] — [f] may have
    touched the page before failing) and the exception is re-raised
    unwrapped. *)
val with_page : t -> Disk.page_id -> write:bool -> (Page.t -> 'a) -> 'a

(** [with_page_opt t pid f] is [with_page t pid ~write:true f] for a write
    that may not happen: the frame is marked dirty only when [f] returns
    [Some _] (or raises), so a probe that leaves the page untouched and
    returns [None] does not make it a write-back candidate. *)
val with_page_opt : t -> Disk.page_id -> (Page.t -> 'a option) -> 'a option

(** Outstanding pins summed over all frames. Zero between operations: every
    pin is scoped to a {!with_page} call, so a persistent nonzero count is a
    pin leak (and will eventually make eviction fail). *)
val pin_count : t -> int

(** [flush_page t pid] writes the frame to disk if present and dirty. *)
val flush_page : t -> Disk.page_id -> unit

(** [flush_all t] writes every dirty frame to disk (used by checkpoints). *)
val flush_all : t -> unit

(** [drop_all t] discards every frame {e without} writing — this is the
    crash: all volatile page state is lost. *)
val drop_all : t -> unit

(** Dirty page ids currently cached (checkpointing reports these). *)
val dirty_pages : t -> Disk.page_id list

val capacity : t -> int
val hit_count : t -> int
val miss_count : t -> int
val eviction_count : t -> int
