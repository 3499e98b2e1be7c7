(** Global serializability checking.

    Protocol runs record every committed local transaction in per-site
    commit order together with its data accesses and the global transaction
    it belongs to. Because all local sites schedule strictly (strict 2PL or
    commit-ordered optimistic validation), the local serialization order of
    two conflicting locals equals their commit order, so the global
    serialization graph can be built from commit order alone:

    an edge [g1 -> g2] exists when some site committed a local of [g1]
    before a conflicting local of [g2].

    Two violation classes are reported (experiment V7):
    - [Cycle]: the committed global transactions are not serializable —
      e.g. commitment-after {e without} the additional CC module lets a
      repetition flip the order (§3.2's serializability requirement);
    - [Dirty_read]: a committed global conflicts with a local of an aborted
      global {e between} that local's commit and its compensation — §3.3's
      serializability requirement violated. *)

type t

type violation =
  | Cycle of int list  (** gids forming a cycle, in path order *)
  | Dirty_read of { reader : int; aborted_writer : int; site : string }

val pp_violation : Format.formatter -> violation -> unit

val create : unit -> t

(** [record_local t ~gid ~site ~compensation accesses] — call at the moment
    a local (or inverse local) transaction of [gid] commits at [site]; call
    order defines the per-site commit order. *)
val record_local :
  t -> gid:int -> site:string -> compensation:bool -> Icdb_localdb.Engine.access list -> unit

(** [record_outcome t ~gid ~committed] — the global decision. *)
val record_outcome : t -> gid:int -> committed:bool -> unit

(** [conflict a b] — do two access lists contain a non-commuting pair on the
    same key? Reads commute with reads, increments with increments;
    everything else on a shared key conflicts. Keys starting with ["__"]
    (protocol markers) are ignored. *)
val conflict :
  Icdb_localdb.Engine.access list -> Icdb_localdb.Engine.access list -> bool

(** Run the checks over everything recorded. *)
val violations : t -> violation list

(** Convenience: [true] iff {!violations} is empty. *)
val serializable : t -> bool

(** Number of local commits recorded (sanity checks in tests). *)
val recorded_locals : t -> int

(** Number of edges the checker builds over everything recorded, counted
    once per access that emits one: at most one per member of the key's
    previous run, so at most two per access on read/write histories. *)
val edge_count : t -> int
