(** Lightweight cooperative processes over the event engine.

    Fibers are implemented with OCaml 5 effect handlers: transaction logic is
    written as ordinary sequential code, and blocking points (message waits,
    lock waits, virtual sleeps) suspend the fiber and hand control back to
    the {!Engine}. A suspended fiber is resumed at most once; late resumers
    (e.g. a lock grant racing a timeout) are ignored, which keeps wakeup
    races deterministic and safe. *)

(** [resumer] completes a suspended fiber: [Ok v] resumes it with [v],
    [Error e] raises [e] at the suspension point. Calling a resumer more
    than once is a no-op after the first call. *)
type 'a resumer = ('a, exn) result -> unit

(** [spawn engine f] starts [f] as a fiber at the current virtual time.
    If [f] raises, [on_error] is invoked (default: the exception escapes
    the engine's event loop). *)
val spawn : ?on_error:(exn -> unit) -> Engine.t -> (unit -> unit) -> unit

(** [await register] suspends the calling fiber; [register] is called
    immediately with the fiber's resumer and is expected to stash it
    somewhere (a wait queue, a pending-reply table, a timer). Must be called
    from fiber context. *)
val await : (('a resumer) -> unit) -> 'a

(** [sleep engine d] suspends the calling fiber for [d] units of virtual
    time. *)
val sleep : Engine.t -> float -> unit

(** [all engine thunks] runs every thunk as its own fiber and waits for all
    of them, returning results in input order. Must be called from a fiber.
    If a thunk raises, [all] re-raises the first (by input order) exception
    after every other thunk has finished. *)
val all : Engine.t -> (unit -> 'a) list -> 'a list

(** Write-once synchronisation cell. *)
module Ivar : sig
  type 'a t

  val create : Engine.t -> 'a t

  (** [fill t v] wakes all readers with [v]. Raises [Invalid_argument] if
      already filled. *)
  val fill : 'a t -> 'a -> unit

  (** [read t] returns the value, suspending until {!fill} if necessary. *)
  val read : 'a t -> 'a

  val is_filled : 'a t -> bool

  (** [peek t] is [Some v] once filled. *)
  val peek : 'a t -> 'a option
end
