(* Online invariant monitors.

   The chaos campaign (lib/fault) checks its invariant suite after a run
   completes, which says *that* money was lost or a lock leaked but not
   *when*. These monitors watch the same invariants continuously through
   the hooks the observability layer already has — the federation's journal
   choke points, the local engines' commit-delta feed, and a periodic
   watchdog tick on the simulation clock — and record the first virtual
   time each one trips. That timestamp is the forensic anchor: paired with
   the flight-recorder ring it answers "what was the federation doing when
   the invariant first became false".

   Checks only fire at quiescent instants (empty journal, drained action
   logs): mid-protocol a nonzero money drift or a held lock is normal.
   Trips are one-shot (first time only) and feed a lazily-created
   [icdb_monitor_trips_total{monitor}] counter, so runs that never trip
   leave the registry byte-identical. The watchdog stops rescheduling as
   soon as the run is finished or the stuck detector has fired — it must
   never keep the engine artificially alive, or the campaign's
   engine-drained invariant would hang. *)

module Sim = Icdb_sim.Engine
module Site = Icdb_net.Site
module Db = Icdb_localdb.Engine
module Lock = Icdb_lock.Lock_table
module Registry = Icdb_obs.Registry
module Tracer = Icdb_obs.Tracer
module Span = Icdb_obs.Span

type trip = { m_monitor : string; m_time : float; m_detail : string }

type config = {
  stuck_after : float;
      (* no journal progress for this many virtual time units = stuck *)
  check_interval : float; (* watchdog tick period *)
}

let default_config = { stuck_after = 120.0; check_interval = 20.0 }

type t = {
  fed : Federation.t;
  cfg : config;
  finished : unit -> bool;
  mutable drift : int; (* running sum of committed local deltas *)
  mutable last_progress : float;
  mutable trips : trip list; (* newest first *)
  tripped : (string, unit) Hashtbl.t;
  mutable stopped : bool;
}

let trip t name detail =
  if not (Hashtbl.mem t.tripped name) then begin
    Hashtbl.add t.tripped name ();
    let time = Sim.now t.fed.Federation.engine in
    t.trips <- { m_monitor = name; m_time = time; m_detail = detail } :: t.trips;
    Registry.inc
      (Registry.counter t.fed.Federation.registry
         ~labels:[ ("monitor", name) ]
         "icdb_monitor_trips_total");
    (* leave a mark in the flight recorder so the dump shows the trip in
       sequence with the events that caused it *)
    Tracer.instant t.fed.Federation.tracer ~actor:"monitor"
      (Span.Mark ("monitor-trip:" ^ name))
  end

let journal_empty t = Federation.total_journal_entries t.fed = 0

(* Quiescent = no transaction mid-protocol anywhere: journal empty and no
   deferred redo/undo work pending (a decided-but-not-yet-redone action
   legitimately carries money the committed state doesn't show yet). *)
let quiescent t =
  journal_empty t
  && Action_log.pending t.fed.Federation.redo_log = 0
  && Action_log.pending t.fed.Federation.undo_log = 0
  && Action_log.pending t.fed.Federation.mlt_undo_log = 0

let check_money t =
  if t.drift <> 0 && quiescent t then
    trip t "money"
      (Printf.sprintf "conservation drift %+d at a quiescent instant" t.drift)

(* Returns [true] when it tripped, so the watchdog can stop: a stuck run
   never finishes, and the tick must not keep the engine alive forever. *)
let check_stuck t now =
  if (not (journal_empty t)) && now -. t.last_progress >= t.cfg.stuck_after
  then begin
    let oldest =
      match Federation.journal_open_entries t.fed with
      | (gid, entry) :: _ -> Printf.sprintf "g%d (%s)" gid entry.Federation.j_protocol
      | [] -> "?"
    in
    trip t "stuck"
      (Printf.sprintf "no journal progress for %.0f tu; oldest open entry %s"
         (now -. t.last_progress) oldest);
    true
  end
  else false

let check_leaks t =
  if quiescent t then begin
    let idle (_, site) =
      let db = Site.db site in
      Db.live_txn_count db = 0 && Db.in_doubt_count db = 0
    in
    if List.for_all idle t.fed.Federation.sites then begin
      let global =
        Federation.sum_coordinators t.fed (fun c ->
            Lock.held_count c.cc + Lock.held_count c.l1)
      in
      let local =
        List.fold_left
          (fun acc (_, site) -> acc + Db.lock_held_count (Site.db site))
          0 t.fed.Federation.sites
      in
      if global + local > 0 then
        trip t "lock-leak"
          (Printf.sprintf "%d global + %d local locks held with no live transaction"
             global local);
      List.iter
        (fun (name, site) ->
          let db = Site.db site in
          if Site.is_up site && Db.buffer_pins db <> 0 then
            trip t "pin-drift"
              (Printf.sprintf "%d buffer pins outstanding at idle site %s"
                 (Db.buffer_pins db) name))
        t.fed.Federation.sites
    end
  end

let tick_checks t =
  check_money t;
  check_leaks t

let rec schedule_tick t =
  ignore
    (Sim.schedule t.fed.Federation.engine ~delay:t.cfg.check_interval (fun () ->
         if not t.stopped then begin
           let now = Sim.now t.fed.Federation.engine in
           tick_checks t;
           if t.finished () then t.stopped <- true
           else if Sim.pending t.fed.Federation.engine = 0 then
             (* Our own tick was the last event: the engine is draining
                naturally. Rescheduling would manufacture virtual time the
                run never had — in the chaos campaign that both delays
                post-run recovery and makes in-doubt entries (which recovery
                is *about* to resolve) look stuck. Retire quietly; a genuine
                stall keeps other events pending (retries, waiters) and is
                caught by the branch below. *)
             t.stopped <- true
           else if check_stuck t now then t.stopped <- true
           else schedule_tick t
         end))

let attach ?(config = default_config) (fed : Federation.t) ~finished =
  let t =
    {
      fed;
      cfg = config;
      finished;
      drift = 0;
      last_progress = Sim.now fed.Federation.engine;
      trips = [];
      tripped = Hashtbl.create 4;
      stopped = false;
    }
  in
  let progress () = t.last_progress <- Sim.now fed.Federation.engine in
  fed.Federation.journal_hook <-
    (function
     | Federation.J_opened _ -> progress ()
     | Federation.J_decided _ -> progress ()
     | Federation.J_closed _ ->
       progress ();
       (* a close is the canonical decision-settled instant: the natural
          point to check conservation incrementally *)
       check_money t);
  List.iter
    (fun (_, site) ->
      Db.set_commit_delta_hook (Site.db site) (fun ~txn_id:_ ~delta ->
          t.drift <- t.drift + delta;
          progress ()))
    fed.Federation.sites;
  schedule_tick t;
  t

(* Final sweep once the run has drained (after recovery in the chaos
   campaign): catches violations that only became checkable at the very
   end, and stops the watchdog for good. *)
let finalize t =
  t.stopped <- true;
  tick_checks t

let trips t = List.rev t.trips

let first_trip t name =
  List.find_opt (fun tr -> tr.m_monitor = name) (trips t)
