(** Fixed-size [Domain] worker pool for embarrassingly parallel task lists.

    The experiment sweep is a list of independent, deterministically seeded
    simulations; this pool farms such a list out to OCaml 5 domains while
    keeping the result order — and therefore any concatenated report —
    byte-identical to a sequential run. Workers block on a condition
    variable between batches (no busy-wait), so a long-lived pool parks
    for free while the main domain does other work.

    Core budget: every task is a single-domain simulation, so a sweep's
    [-j] is its whole width ({!size} reports what a pool actually
    holds). *)

type t

(** [create ~size] spawns [max 1 size] worker domains, parked until the
    first {!exec}. *)
val create : size:int -> t

(** Number of worker domains. *)
val size : t -> int

(** [exec pool tasks] executes every task on the pool's workers and
    returns the results in task order. Exceptions raised by tasks are
    captured; after all tasks have finished, the exception of the
    lowest-indexed failed task is re-raised, so failure behaviour is
    deterministic. One batch runs at a time. *)
val exec : t -> (unit -> 'a) list -> 'a list

(** [shutdown pool] wakes and joins every worker. The pool must not be
    used afterwards. *)
val shutdown : t -> unit

(** [run ~jobs tasks] is the one-shot form: [jobs <= 1] runs inline on the
    calling domain; otherwise a transient pool of [min jobs (List.length
    tasks)] workers executes the batch and is shut down. Same ordering and
    failure guarantees as {!exec}. *)
val run : jobs:int -> (unit -> 'a) list -> 'a list
