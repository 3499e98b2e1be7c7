(** The typed event vocabulary of the observability layer.

    Every span or instant a {!Tracer} records carries one of these kinds;
    exporters derive display names and Chrome-trace categories from them
    instead of parsing strings. *)

(** Protocol phases, the unit of the per-protocol latency breakdown:
    execution of the locals, the voting round (2PC inquiry / final-state
    inquiry), the decision instant, post-decision local commitment, redo of
    an erroneously aborted local (§3.2), and compensation by inverse
    transactions (§3.3/§4). *)
type phase = Execute | Vote | Decide | Local_commit | Redo | Compensate

val phase_name : phase -> string

(** Canonical report order. *)
val all_phases : phase list

(** Dense index of a phase in {!all_phases} — lets hot consumers keep
    pre-resolved per-phase handles in a plain array. *)
val phase_index : phase -> int

val num_phases : int

type direction = Send | Recv | Drop

type kind =
  | Txn of { gid : int; protocol : string }  (** global-transaction lifetime *)
  | Phase of { gid : int; phase : phase }
  | Branch of { gid : int; site : string }
      (** one branch (or MLT action) round-trip, from request send to reply *)
  | Lock_wait of { table : string; obj : string }
  | Lock_hold of { table : string; obj : string }
  | Message of { label : string; direction : direction }  (** instant *)
  | Wal_force of { site : string }  (** instant *)
  | Outage of { site : string }  (** site crash .. recovery *)
  | Decision of { gid : int; commit : bool }  (** instant *)
  | Mark of string  (** free-form instant *)

(** Display name, e.g. ["g12 vote"] or ["send prepare"]. *)
val name : kind -> string

(** Chrome-trace category ("txn", "phase", "lock", "msg", ...). *)
val category : kind -> string
