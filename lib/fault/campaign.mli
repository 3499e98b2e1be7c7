(** Fault-injection campaign: runs seeded {!Plan}s against the banking
    workload over every protocol and checks a global invariant suite after
    each run — global atomicity (money conservation), serializability,
    journal/decision-log agreement, the §3.2/§3.3 no-double-work marker
    rules, log drainage, buffer-pin balance, transaction accounting, and
    the idempotence of {!Icdb_core.Central_recovery.recover}. Violating
    plans can be shrunk to locally minimal reproducers. Deterministic in
    the seed: same seed, byte-identical results. *)

exception Central_crash_injected
(** Raised inside a coordinator fiber when an armed {!Plan.Central_crash}
    fires; the runner's worker counts and swallows it. *)

(** Virtual-time window plan events are drawn from. *)
val horizon : float

type violation =
  | Money_not_conserved of { before : int; after : int }
  | Not_serializable of string list
  | Journal_not_empty of int
  | Log_not_drained of { log : string; pending : int }
  | Marker_rule of { site : string; gid : int; detail : string }
  | Pins_leaked of { site : string; pins : int }
  | Accounting of { started : int; committed : int; aborted : int; killed : int }
  | Recovery_not_idempotent of string
  | Engine_not_drained of { live : int; stored : int }
      (** The event queue still holds events after the drain: [live] pending
          ones, or cancelled carcasses compaction missed ([stored]). *)
  | Run_crashed of string

val pp_violation : Format.formatter -> violation -> unit

type outcome = {
  plan : Plan.t;
  report : Icdb_workload.Runner.report option;  (** [None] when the run crashed *)
  killed : int;  (** coordinator fibers killed by injected central crashes *)
  violations : violation list;  (** empty = all invariants held *)
  trips : Icdb_core.Monitor.trip list;
      (** online-monitor first trips observed during the run *)
  flight : string option;
      (** flight-recorder dump ({!Icdb_obs.Export.flight_dump} of the run's
          ring tracer); [Some] exactly when [violations <> []] — the last
          512 events before things went wrong *)
}

(** [run_plan ~protocol plan] runs the chaos workload with the plan armed,
    the flight recorder on and the online monitors ({!Icdb_core.Monitor})
    attached, recovers the central system (twice — idempotence is an
    invariant) and evaluates the invariant suite. [extra_setup] runs after
    the plan is armed and the monitors attached (tests use it to
    re-introduce bugs at the fault hook). *)
val run_plan :
  ?registry:Icdb_obs.Registry.t ->
  ?seed:int64 ->
  ?shards:int ->
  ?acceptors:int ->
  ?extra_setup:(Icdb_sim.Engine.t -> Icdb_core.Federation.t -> unit) ->
  protocol:Icdb_workload.Protocol.t ->
  Plan.t ->
  outcome

(** Greedy one-event-removal minimisation of a violating plan, to fixpoint. *)
val shrink :
  ?seed:int64 -> ?shards:int -> ?acceptors:int ->
  protocol:Icdb_workload.Protocol.t -> Plan.t -> Plan.t

type protocol_stats = {
  cp_protocol : Icdb_workload.Protocol.t;
  cp_plans : int;
  cp_events : int;
  cp_by_class : (string * int) list;  (** events injected per fault class *)
  cp_failures : outcome list;  (** outcomes with at least one violation *)
  cp_trips : (string * int * float) list;
      (** per monitor: (name, plans that tripped it, earliest first-trip
          virtual time) — across {e all} the protocol's plans, violating or
          not *)
}

(** [check_config ?shards ?acceptors ()] is {!Icdb_workload.Runner.check_config}
    of the campaign's fixed chaos workload (3 sites, 4 with
    [shards] > 1): [Error] with one line naming the valid range when no
    plan could run, for example an even [acceptors] or one above the site
    count. *)
val check_config : ?shards:int -> ?acceptors:int -> unit -> (unit, string) result

(** [run_protocol ~plans p] generates and runs [plans] plans against
    protocol [p]; with [shrink_failures] each violating plan is re-reported
    shrunk. Raises [Invalid_argument] before running any plan when
    {!check_config} refuses [shards] or [acceptors]. *)
val run_protocol :
  ?shrink_failures:bool ->
  ?seed:int64 ->
  ?shards:int ->
  ?acceptors:int ->
  plans:int ->
  Icdb_workload.Protocol.t ->
  protocol_stats

val run_campaign :
  ?shrink_failures:bool ->
  ?seed:int64 ->
  ?shards:int ->
  ?acceptors:int ->
  plans:int ->
  Icdb_workload.Protocol.t list ->
  protocol_stats list

(** Violations per protocol × fault class — the R1 table. *)
val stats_table : plans:int -> seed:int64 -> protocol_stats list -> Icdb_util.Table.t

val total_violations : protocol_stats list -> int

(** Rendered monitor first-trip lines across a campaign; [""] when no
    monitor tripped anywhere (the healthy case — output then stays
    byte-identical to the pre-monitor campaigns). *)
val trips_summary : protocol_stats list -> string

(** Experiment R1: the campaign over all six protocols (expected all-zero
    violation column). Prints the table plus any violating plans. *)
val experiment_r1 :
  ?plans:int -> ?seed:int64 -> ?shards:int -> ?acceptors:int -> unit ->
  protocol_stats list
