(** Stores keyed by global transaction id.

    Gids are dense and positive: {!Icdb_core.Federation.fresh_gid} hands
    them out in increasing order from 1. A per-gid table that is only ever
    probed by gid — never iterated — can therefore be an array indexed by
    the gid: a lookup is a bounds check and a load, with no hashing and no
    per-entry bucket allocation. The arrays start with room for 64 gids,
    grow by doubling (or straight to the gid, if that is larger) and never
    shrink; a removed entry leaves its slot behind.

    Every operation of the dense stores raises [Invalid_argument] on a
    negative gid. None of the stores offers iteration: a caller whose
    output depends on an order keeps a hash table. *)

(** A dense store of ['a] per gid. [replace] boxes the value once; [find_opt]
    then returns the stored option without allocating. *)
type 'a t

val create : unit -> 'a t
val replace : 'a t -> int -> 'a -> unit
val find_opt : 'a t -> int -> 'a option
val remove : 'a t -> int -> unit

(** A dense [bool] store at one byte per gid, for decision logs and commit
    outcomes. [find_opt] returns one of two shared options, so lookups
    allocate nothing. Entries are never removed. *)
module Bool : sig
  type t

  val create : unit -> t
  val replace : t -> int -> bool -> unit
  val find_opt : t -> int -> bool option

  (** Number of gids with a binding. *)
  val length : t -> int
end

(** A dense [int] column: one unboxed [int] (8 bytes) per gid up to the
    largest gid set, and no block per entry. A gid never set reads as 0,
    so a caller packs its per-gid state into one int whose 0 means
    "nothing recorded" (the Paxos acceptors and their leaders' ballot
    counters do). Entries are never removed. *)
module Int : sig
  type t

  val create : unit -> t

  (** [get t gid] is the last value [set] for [gid], or 0. *)
  val get : t -> int -> int

  val set : t -> int -> int -> unit
end
