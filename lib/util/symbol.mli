(** Deterministic string<->int interner.

    Ids are dense ints assigned in first-intern order, so a fixed seeded
    workload always produces the same mapping: each federation or
    simulation owns its table, and no other run's interning shifts it. Downstream hot
    structures (lock tables, read/write sets, conflict indexes) key on the
    int and resolve back to the original string only at report/export
    boundaries. *)

type t = int
(** A symbol: the dense id of an interned string. Valid only against the
    table that produced it. *)

type table

val create : ?capacity:int -> unit -> table
val intern : table -> string -> t
(** [intern tbl s] returns the id of [s], assigning the next dense id on
    first sight. O(1) amortized; one string hash. *)

val find : table -> string -> t option
(** Like {!intern} but never assigns a fresh id. *)

val mem : table -> string -> bool
val name : table -> t -> string
(** Resolve a symbol back to its string. Allocation-free: returns the
    originally interned string. Raises [Invalid_argument] on unknown ids. *)

val count : table -> int

val snapshot : table -> string array
(** Point-in-time copy of the mapping: index [i] holds the string of
    symbol [i]. *)
