(** Reference binary-heap event queue.

    One binary heap with no same-instant lane, kept as an executable
    specification of {!Icdb_sim.Engine}: the QCheck2 equivalence
    properties drive this and {!Icdb_sim.Engine} through identical
    push/pop/cancel/clock-advance interleavings and demand identical pop
    order. Not used by the simulation itself. *)

type t
type event_id

val create : unit -> t
val now : t -> float
val schedule : t -> delay:float -> (unit -> unit) -> event_id
val cancel : t -> event_id -> unit
val step : t -> bool
val run : t -> unit
val run_until : t -> float -> unit
val pending : t -> int
val set_observer : t -> (unit -> unit) -> unit
