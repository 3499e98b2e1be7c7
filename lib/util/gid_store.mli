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

(** An int-keyed hash table for sparse per-gid state, where a dense array
    would mostly hold empty slots (a Paxos acceptor sees only the gids of
    the groups it belongs to). It hashes the gid itself and compares with
    [Int.equal], so a probe costs no [caml_hash] call; bucket order differs
    from a polymorphic table's, so it is for tables nothing iterates. *)
module Sparse : Hashtbl.S with type key = int
