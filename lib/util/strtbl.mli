(** String-keyed hash table for the per-operation and per-message paths.

    It hashes with the generic {!Hashtbl.hash} and compares keys with
    {!String.equal}. With the same hash, a [Strtbl] fed the same sequence of
    operations as a polymorphic [(string, _) Hashtbl.t] of the same initial
    size has the same bucket layout, so [iter] and [fold] visit bindings in
    the same order; and [reset] restores the initial bucket count, so a
    reset table iterates like a fresh one. Callers whose iteration order
    feeds the simulation (lock release order, graph edge order) rely on
    both. *)

include Hashtbl.S with type key = string
