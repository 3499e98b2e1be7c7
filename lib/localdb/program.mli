(** Local transaction programs.

    A program is the script of one local transaction: the sequence of
    operations a global transaction's decomposition assigns to one existing
    database system. Programs are plain data, so the central system can ship
    them to a communication manager, store them in a redo-log for the
    repetition of erroneously aborted locals (§3.2), or derive the inverse
    program that undoes a committed local (§3.3). *)

type op =
  | Read of string
  | Write of string * int
  | Increment of string * int
  | Delete of string

type t = op list

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** [run db txn p] executes the operations in order, stopping at the first
    local abort. *)
val run : Engine.t -> Engine.txn -> t -> (unit, Engine.abort_reason) result

(** Keys touched, de-duplicated, sorted — the lock set the additional global
    concurrency-control module acquires before submission. *)
val keys : t -> string list

(** Strongest access intent per key ([`Read] < [`Increment] < [`Write]),
    for global lock acquisition. *)
val intents : t -> (string * [ `Read | `Increment | `Write ]) list

(** [inverse_of_accesses accesses] builds the compensating program from the
    access trace of an executed transaction: writes restore before-images,
    inserts become deletes, deletes re-insert, increments negate. The result
    undoes the accesses when applied in the returned (already reversed)
    order. Reads contribute nothing. *)
val inverse_of_accesses : Engine.access list -> t

(** [is_read_only p] — true when the program contains only [Read]s. *)
val is_read_only : t -> bool
