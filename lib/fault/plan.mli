(** Seeded fault plans: the campaign's unit of chaos.

    A plan is a small list of fault events to arm against one workload run —
    site crashes and restarts, central-system crashes at named protocol
    instants, message-loss bursts, latency spikes, and duplicated
    deliveries. Plans are generated deterministically from a seed, printed
    for reproducers, and shrunk by removing events one at a time. *)

type event =
  | Site_crash of { site : int; at : float; duration : float }
      (** crash site [site mod n_sites] at virtual time [at]; a restart is
          scheduled [duration] later *)
  | Central_crash of { txn : int; phase_idx : int }
      (** crash the central system when the [txn]-th issued global
          transaction reaches protocol instant [phase_idx] (0 = after
          execution, 1 = after the votes / second action, 2 = after the
          decision) *)
  | Loss_burst of { site : int; at : float; duration : float; loss : float }
      (** raise the site link's per-copy drop probability to [loss] during
          [\[at, at+duration)] *)
  | Latency_spike of { site : int; at : float; duration : float; factor : float }
      (** multiply the site link's latency by [factor] during the window *)
  | Duplication of { site : int; at : float; duration : float; probability : float }
      (** deliver each message twice with [probability] during the window *)
  | Shard_crash of { shard : int; at : float; duration : float }
      (** crash shard [shard mod shards]'s coordinator at [at]: its site
          goes down for [duration], its volatile CC/L1 state is wiped
          ({!Icdb_core.Federation.shard_crash}), and per-shard restart
          recovery runs once the site is back. Only generated for sharded
          federations *)
  | Acceptor_crash of { acceptor : int; at : float; duration : float }
      (** crash the site hosting Paxos acceptor [acceptor mod acceptors]
          (the federation's first 2F+1 sites) at [at] for [duration]: its
          stable acceptor log survives, but it answers no prepare/accept
          until restart. Only generated for Paxos campaigns
          ([acceptors > 1]) *)

type t = { plan_seed : int64; events : event list }

val empty : t
val length : t -> int

(** [phase_name ~mlt idx] — the [central_fail] instant name a
    {!Central_crash} with [phase_idx = idx] targets. Flat protocols:
    "executed" / "voted" / "decided"; MLT: "action-0" / "action-1" /
    "decided". *)
val phase_name : mlt:bool -> int -> string

(** Fault class of one event ("site-crash", "central-crash", "loss",
    "latency", "duplication") — the columns of the R1 table. *)
val classify : event -> string

val fault_classes : string list

(** [fault_classes] plus ["shard-crash"] — the sharded campaign's table
    columns; kept separate so the unsharded R1 table is unchanged. *)
val fault_classes_sharded : string list

(** [fault_classes] (resp. [fault_classes_sharded]) plus ["acceptor-crash"]
    — the Paxos campaign's table columns. *)
val fault_classes_acceptors : string list

val fault_classes_sharded_acceptors : string list

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** [generate ~seed ~n_sites ~n_txns ~horizon ()] draws 0–6 events from the
    seed. Deterministic. With [shards] > 1 the event space gains
    {!Shard_crash}, with [acceptors] > 1 {!Acceptor_crash} (widening the
    draw by one arm each); the defaults keep the exact historical draw
    sequences, reproducing earlier plans byte for byte. *)
val generate :
  ?shards:int ->
  ?acceptors:int ->
  seed:int64 ->
  n_sites:int ->
  n_txns:int ->
  horizon:float ->
  unit ->
  t

(** Plan with the [n]-th event removed (shrinking step). *)
val remove_nth : t -> int -> t
