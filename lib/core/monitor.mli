(** Online invariant monitors: first-trip detection for the chaos campaign.

    Where the campaign's post-run invariant suite says {e that} an
    invariant broke, an attached monitor says {e when} — the first virtual
    time at which the violation became observable — by watching
    continuously through hooks the instrumentation layer already has:

    - {b money}: every local commit feeds its net value change through
      {!Icdb_localdb.Engine.set_commit_delta_hook} (in-doubt commits
      recovered from the log chain included); at quiescent instants (empty
      journal, drained action logs) the running sum must be zero.
    - {b stuck}: a watchdog tick trips when the journal has open entries
      but nothing has progressed (open/decide/close/commit) for
      [stuck_after] virtual time units.
    - {b lock-leak}: at quiescent instants with no live or in-doubt local
      transactions anywhere, every lock table must be empty (O(1) via
      {!Icdb_lock.Lock_table.held_count}).
    - {b pin-drift}: same instants, every up site's buffer pool must have
      zero outstanding pins.

    Each monitor trips at most once per run, records the first virtual trip
    time, bumps a lazily-created [icdb_monitor_trips_total{monitor}]
    counter (runs that never trip leave the registry untouched) and drops a
    [monitor-trip:<name>] mark into the tracer — visible in the flight
    recorder dump.

    The watchdog stops rescheduling once [finished ()] holds, the stuck
    detector fired, or its own tick was the engine's last pending event
    (the run is draining naturally — ticking on would manufacture virtual
    time and make in-doubt entries awaiting post-run recovery look stuck),
    so it never keeps the simulation engine alive artificially;
    {!finalize} runs a last sweep after post-run recovery. *)

type t

(** One first-trip record. *)
type trip = { m_monitor : string; m_time : float; m_detail : string }

type config = {
  stuck_after : float;
      (** journal inactivity threshold (virtual time units) *)
  check_interval : float;  (** watchdog tick period *)
}

(** 120 tu stuck threshold, 20 tu tick. *)
val default_config : config

(** [attach ?config fed ~finished] installs the hooks (replacing the
    federation's {!Federation.journal_hook} and every site's commit-delta
    hook) and schedules the watchdog. [finished] should become true once
    the workload is complete and the journal drained — it lets the
    watchdog retire. *)
val attach : ?config:config -> Federation.t -> finished:(unit -> bool) -> t

(** Final sweep + watchdog stop; call once the run (including any post-run
    recovery) has drained. *)
val finalize : t -> unit

(** All first trips, in trip order. *)
val trips : t -> trip list

(** [first_trip t "money"] — the named monitor's trip, if it fired. *)
val first_trip : t -> string -> trip option
