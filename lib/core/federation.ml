module Sim = Icdb_sim.Engine
module Fiber = Icdb_sim.Fiber
module Trace = Icdb_sim.Trace
module Lock = Icdb_lock.Lock_table
module Mode = Icdb_lock.Mode
module Site = Icdb_net.Site
module Link = Icdb_net.Link
module Batcher = Icdb_net.Batcher
module Db = Icdb_localdb.Engine
module Log = Icdb_wal.Log
module Conflict = Icdb_mlt.Conflict
module Registry = Icdb_obs.Registry
module Tracer = Icdb_obs.Tracer
module Span = Icdb_obs.Span
module Symbol = Icdb_util.Symbol
module Strtbl = Icdb_util.Strtbl
module Gid_store = Icdb_util.Gid_store

type journal_phase = Executing | Decided of bool

type journal_entry = {
  j_protocol : string;
  mutable j_branches : (string * int) list;
  mutable j_phase : journal_phase;
}

(* Lifecycle notifications for the online monitors: the three journal
   choke points every protocol already routes through. *)
type journal_event =
  | J_opened of int
  | J_decided of { gid : int; commit : bool }
  | J_closed of int

(* One shard of a sharded federation: a contiguous group of sites whose
   first member doubles as the shard coordinator. The shard coordinator
   keeps its own stable journal and decision log (the L1 transaction
   manager of the paper's two-level split, acting as L0 coordinator for
   transactions confined to its shard) plus its own volatile CC state, so
   a shard-coordinator crash loses exactly this shard's lock tables and
   recovery can run per shard. *)
type shard = {
  sh_id : int;
  sh_name : string;  (* "shard-<id>": metric label and trace actor *)
  sh_coord : string;  (* coordinator site name (first member) *)
  sh_sites : string list;
  sh_journal : (int, journal_entry) Hashtbl.t;
  sh_decision_log : Gid_store.Bool.t;
  sh_cc : Mode.t Lock.t;
  sh_l1 : Conflict.clazz Lock.t;
  mutable sh_forces : int;
  mutable sh_decisions : int;
  mutable sh_cgc_waiters : unit Fiber.resumer list;
  mutable sh_cgc_scheduled : bool;
  mutable sh_busy_until : float;  (* shard decision-log device (serial) *)
  sh_decided_c : Registry.counter;
  sh_forces_c : Registry.counter;
}

type t = {
  engine : Sim.t;
  sites : (string * Site.t) list;
  by_name : Site.t Strtbl.t;
  syms : Symbol.table;
      (* federation-level interner: global-CC and L1 lock objects; one per
         federation, so parallel sweep domains never share a table *)
  trace : Trace.t;
  registry : Registry.t;
  tracer : Tracer.t;
  metrics : Metrics.t;
  global_cc : Mode.t Lock.t;
  conflict : Conflict.t;
  l1_locks : Conflict.clazz Lock.t;
  redo_log : Action_log.t;
  undo_log : Action_log.t;
  mlt_undo_log : Action_log.t;
  decision_log : Gid_store.Bool.t;
  journal : (int, journal_entry) Hashtbl.t;
  graph : Serialization_graph.t;
  mutable next_gid : int;
  mutable global_cc_enabled : bool;
  mutable central_fail : gid:int -> string -> unit;
  mutable journal_hook : journal_event -> unit;
  global_lock_timeout : float option;
  batchers : Batcher.t Strtbl.t;
  central_gc_window : float option;
  mutable cgc_waiters : unit Fiber.resumer list;
  mutable cgc_scheduled : bool;
  mutable central_forces : int;
  mutable central_decisions : int;
  mutable central_force_hook : unit -> unit;
  (* protocol name -> per-phase [icdb_phase_time] histogram handles, filled
     lazily per slot so exactly the instruments the run uses exist — the
     hot path then skips the registry's per-call label-key allocation *)
  phase_hists : Registry.histogram option array Strtbl.t;
  shards : shard array;  (* [||] = unsharded: every path below is untouched *)
  shard_of_site : int Strtbl.t;
  gid_route : int array Gid_store.t;
      (* gid -> sorted participating shard ids; a singleton routes the whole
         protocol round to that shard coordinator (the fast path), anything
         longer is a top-level transaction over the shard coordinators.
         Absent entries (and the whole table when unsharded) mean "central". *)
  decision_force_time : float option;
      (* service time of one decision-log force on its serial device; [None]
         models the force as instantaneous (the pre-sharding behavior) *)
  mutable central_busy_until : float;
  mutable decision_replicator : (gid:int -> commit:bool -> unit) option;
      (* Paxos Commit hook: when installed, [journal_decide] makes the
         decision durable by replicating it to the acceptor quorum instead
         of forcing the coordinator's own log. [None] (default) keeps the
         single-coordinator force byte-for-byte. *)
  mutable decision_recover : (gid:int -> bool option) option;
      (* quorum read of the replicated decision log: what a freshly elected
         leader (or restart recovery) can learn from the acceptors about an
         in-doubt gid. [None] when Paxos is off. *)
  mutable leader_failover : gid:int -> unit;
      (* elect-a-new-leader trigger for one in-doubt transaction; fault
         injectors call it right after simulating a coordinator crash.
         Default: no-op (a plain coordinator has no one to fail over to). *)
}

let default_conflict =
  Conflict.of_commuting_pairs
    [
      ("read", "read");
      ("increment", "increment");
      ("increment", "decrement");
      ("decrement", "decrement");
      ("deposit", "deposit");
      ("deposit", "withdraw");
      ("withdraw", "withdraw");
      ("deposit", "transfer-in");
      ("deposit", "transfer-out");
      ("withdraw", "transfer-in");
      ("withdraw", "transfer-out");
      ("transfer-in", "transfer-in");
      ("transfer-in", "transfer-out");
      ("transfer-out", "transfer-out");
      ("read-balance", "read-balance");
    ]

(* --- observability glue --------------------------------------------------

   The lower layers (sim, net, lock, wal, localdb) expose generic hooks and
   know nothing about [icdb_obs]; this is the one place those hooks are
   pointed at the federation's registry and tracer. All handles are created
   once here, so the per-event cost is an increment (counters) or a single
   branch (tracer disabled). *)

(* One handler per lock table, labelled by table name ("global-cc", "l1", or
   the site name for a local database's table). [names] is the symbol table
   the lock table's objects are interned against; an object is resolved back
   to its string only when the tracer is enabled and a span label is
   actually materialized. *)
let lock_handler t ~table ~names =
  let labels = [ ("table", table) ] in
  let wait_h = Registry.histogram t.registry ~labels "icdb_lock_wait_time" in
  let hold_h = Registry.histogram t.registry ~labels "icdb_lock_hold_time" in
  let acquired = Registry.counter t.registry ~labels "icdb_lock_acquisitions_total" in
  let outcome_counter o =
    Registry.counter t.registry
      ~labels:(("outcome", o) :: labels)
      "icdb_lock_wait_outcomes_total"
  in
  let granted_c = outcome_counter "granted"
  and timeout_c = outcome_counter "timeout"
  and deadlock_c = outcome_counter "deadlock"
  and cancelled_c = outcome_counter "cancelled" in
  fun (e : Lock.observer_event) ->
    match e with
    | Lock.Acquired _ -> Registry.inc acquired
    | Lock.Wait_started _ -> ()
    | Lock.Wait_ended { obj; outcome; waited; _ } ->
      Registry.observe wait_h waited;
      Registry.inc
        (match outcome with
        | `Granted -> granted_c
        | `Timeout -> timeout_c
        | `Deadlock -> deadlock_c
        | `Cancelled -> cancelled_c);
      if Tracer.enabled t.tracer then
        Tracer.complete_lock t.tracer ~actor:table
          ~start:(Sim.now t.engine -. waited)
          ~wait:true ~table ~obj:(Symbol.name names obj)
    | Lock.Released { obj; held; _ } ->
      Registry.observe hold_h held;
      if Tracer.enabled t.tracer then
        Tracer.complete_lock t.tracer ~actor:table
          ~start:(Sim.now t.engine -. held)
          ~wait:false ~table ~obj:(Symbol.name names obj)

let observe_site t site_name site =
  let db = Site.db site in
  (* Wire events: per-(site, label) counters cached by the link's label
     slot, so the hot path is an array index, not a key allocation or a
     string hash. A counter is registered the first time its label is
     seen, as the registry call itself would. *)
  let sent_cache : Registry.counter option array ref = ref [||] in
  let dropped =
    Registry.counter t.registry ~labels:[ ("site", site_name) ]
      "icdb_messages_dropped_total"
  in
  Link.set_observer (Site.link site) (function
    | Link.Msg_sent { label; slot } ->
      let cache = !sent_cache in
      let c =
        match if slot < Array.length cache then cache.(slot) else None with
        | Some c -> c
        | None ->
          let c =
            Registry.counter t.registry
              ~labels:[ ("site", site_name); ("label", label) ]
              "icdb_messages_total"
          in
          if slot >= Array.length cache then
            sent_cache := Array.append cache (Array.make (slot + 8) None);
          !sent_cache.(slot) <- Some c;
          c
      in
      Registry.inc c;
      if Tracer.enabled t.tracer then
        Tracer.instant_message t.tracer ~actor:site_name ~label
          ~direction:Span.Send
    | Link.Msg_received { label } ->
      if Tracer.enabled t.tracer then
        Tracer.instant_message t.tracer ~actor:site_name ~label
          ~direction:Span.Recv
    | Link.Msg_dropped { label } ->
      Registry.inc dropped;
      if Tracer.enabled t.tracer then
        Tracer.instant_message t.tracer ~actor:site_name ~label
          ~direction:Span.Drop);
  (* Local lock table (survives restarts via the stored listener). *)
  Db.set_lock_observer db (lock_handler t ~table:site_name ~names:(Db.symbols db));
  (* WAL forces — the log object itself survives crashes, so wiring once is
     enough. *)
  let forces =
    Registry.counter t.registry ~labels:[ ("site", site_name) ]
      "icdb_wal_forces_total"
  in
  (* the kind is per-site constant: build it once, not per force *)
  let wal_kind = Span.Wal_force { site = site_name } in
  Log.set_force_hook (Db.wal db) (fun () ->
      Registry.inc forces;
      Tracer.instant t.tracer ~actor:site_name wal_kind);
  (* Site outages: crash opens the window, recovery closes it with a
     retrospective span. A crash with no later restart stays a bare mark. *)
  let crashes =
    Registry.counter t.registry ~labels:[ ("site", site_name) ]
      "icdb_site_crashes_total"
  in
  let down_since = ref nan in
  Db.set_state_hook db (function
    | `Crash ->
      Registry.inc crashes;
      down_since := Sim.now t.engine;
      Tracer.instant t.tracer ~actor:site_name (Span.Mark "crash")
    | `Recovered ->
      if not (Float.is_nan !down_since) then
        Tracer.complete t.tracer ~actor:site_name ~start:!down_since
          (Span.Outage { site = site_name });
      down_since := nan)

let install_observability t =
  List.iter (fun (name, site) -> observe_site t name site) t.sites;
  Lock.set_observer t.global_cc (lock_handler t ~table:"global-cc" ~names:t.syms);
  Lock.set_observer t.l1_locks (lock_handler t ~table:"l1" ~names:t.syms);
  (* Per-shard CC modules get their own table label, so lock metrics split
     by shard; unsharded federations have no shards and add no metrics. *)
  Array.iter
    (fun sh ->
      Lock.set_observer sh.sh_cc
        (lock_handler t ~table:(sh.sh_name ^ "-cc") ~names:t.syms);
      Lock.set_observer sh.sh_l1
        (lock_handler t ~table:(sh.sh_name ^ "-l1") ~names:t.syms))
    t.shards;
  let sim_events = Registry.counter t.registry "icdb_sim_events_total" in
  Sim.set_observer t.engine (fun () -> Registry.inc sim_events)

(* A window of 0 (or less) means "off": the feature must be byte-invisible
   unless positively enabled, so reports with the default config reproduce
   pre-batching output exactly. *)
let normalize_window = function
  | Some w when w > 0.0 -> Some w
  | Some _ | None -> None

let create engine ?(latency = 1.0) ?(loss = 0.0)
    ?(global_lock_timeout = Some 200.0) ?(conflict = default_conflict)
    ?registry ?tracer ?trace ?(msg_batch_window = None) ?(central_gc_window = None)
    ?(shards = 1) ?(decision_force_time = None) configs =
  let msg_batch_window = normalize_window msg_batch_window in
  let central_gc_window = normalize_window central_gc_window in
  let decision_force_time = normalize_window decision_force_time in
  if shards > List.length configs then
    invalid_arg "Federation.create: more shards than sites";
  let registry = match registry with Some r -> r | None -> Registry.create () in
  let tracer =
    match tracer with
    | Some tr -> tr
    | None -> Tracer.create ~clock:(fun () -> Sim.now engine) ()
  in
  let metrics = Metrics.create registry in
  let sites =
    List.map
      (fun (config : Db.config) ->
        let site = Site.create engine ~latency ~loss config in
        Db.set_hold_time_hook (Site.db site) (fun ~obj:_ ~duration ->
            Metrics.observe_hold_time metrics duration);
        (config.site_name, site))
      configs
  in
  let by_name = Strtbl.create 16 in
  List.iter (fun (name, site) -> Strtbl.replace by_name name site) sites;
  let syms = Symbol.create ~capacity:256 () in
  (* The L1 lock manager's compatibility checks run per acquisition; give
     the federation its own memoizing instance of the relation. *)
  let conflict = Conflict.memoized conflict in
  (* Shard layout: contiguous balanced blocks of sites in creation order
     (site i -> shard i*S/n), first member of each block is the shard
     coordinator. [shards = 1] builds nothing at all — the sharded code
     paths below are all behind [Array.length t.shards > 0], so unsharded
     federations take exactly the pre-sharding code. *)
  let shard_of_site = Strtbl.create 16 in
  let shards_arr =
    if shards <= 1 then [||]
    else begin
      let names = Array.of_list (List.map (fun (c : Db.config) -> c.site_name) configs) in
      let n = Array.length names in
      Array.iteri (fun i name -> Strtbl.replace shard_of_site name (i * shards / n)) names;
      Array.init shards (fun s ->
          let members =
            Array.to_list names
            |> List.filteri (fun i _ -> i * shards / n = s)
          in
          let sh_name = "shard-" ^ string_of_int s in
          {
            sh_id = s;
            sh_name;
            sh_coord = List.hd members;
            sh_sites = members;
            sh_journal = Hashtbl.create 64;
            sh_decision_log = Gid_store.Bool.create ();
            sh_cc =
              Lock.create engine ~syms ~compatible:Mode.compatible ~combine:Mode.combine;
            sh_l1 =
              Lock.create engine ~syms ~compatible:(Conflict.compatible conflict)
                ~combine:(Conflict.combine conflict);
            sh_forces = 0;
            sh_decisions = 0;
            sh_cgc_waiters = [];
            sh_cgc_scheduled = false;
            sh_busy_until = 0.0;
            sh_decided_c =
              Registry.counter registry ~labels:[ ("shard", sh_name) ]
                "icdb_shard_decisions_total";
            sh_forces_c =
              Registry.counter registry ~labels:[ ("shard", sh_name) ]
                "icdb_shard_decision_forces_total";
          })
    end
  in
  let t =
    {
      engine;
      sites;
      by_name;
      syms;
      trace =
        (match trace with Some tr -> tr | None -> Trace.create ~enabled:false engine);
      registry;
      tracer;
      metrics;
      global_cc = Lock.create engine ~syms ~compatible:Mode.compatible ~combine:Mode.combine;
      conflict;
      l1_locks =
        Lock.create engine ~syms ~compatible:(Conflict.compatible conflict)
          ~combine:(Conflict.combine conflict);
      redo_log = Action_log.create ();
      undo_log = Action_log.create ();
      mlt_undo_log = Action_log.create ();
      decision_log = Gid_store.Bool.create ();
      journal = Hashtbl.create 64;
      graph = Serialization_graph.create ();
      next_gid = 0;
      global_cc_enabled = true;
      central_fail = (fun ~gid:_ _ -> ());
      journal_hook = (fun _ -> ());
      global_lock_timeout;
      batchers = Strtbl.create 16;
      central_gc_window;
      cgc_waiters = [];
      cgc_scheduled = false;
      central_forces = 0;
      central_decisions = 0;
      central_force_hook = ignore;
      phase_hists = Strtbl.create 8;
      shards = shards_arr;
      shard_of_site;
      gid_route = Gid_store.create ();
      decision_force_time;
      central_busy_until = 0.0;
      decision_replicator = None;
      decision_recover = None;
      leader_failover = (fun ~gid:_ -> ());
    }
  in
  install_observability t;
  (* Batching wiring is lazy on purpose: registry metrics exist from the
     moment they are created, so creating them only when the feature is on
     keeps default-config metric snapshots identical to pre-batching ones. *)
  (match msg_batch_window with
  | None -> ()
  | Some window ->
    List.iter
      (fun (name, site) ->
        let b = Batcher.create engine (Site.link site) ~window in
        let h =
          Registry.histogram registry ~labels:[ ("site", name) ]
            "icdb_batch_occupancy"
        in
        Batcher.set_observer b (fun n -> Registry.observe h (float_of_int n));
        Strtbl.replace t.batchers name b)
      t.sites);
  (match central_gc_window with
  | None -> ()
  | Some _ ->
    let forces =
      Registry.counter registry ~labels:[ ("site", "central") ]
        "icdb_central_decision_forces_total"
    in
    let wal_kind = Span.Wal_force { site = "central" } in
    t.central_force_hook <-
      (fun () ->
        Registry.inc forces;
        Tracer.instant tracer ~actor:"central" wal_kind));
  t

let site t name =
  match Strtbl.find_opt t.by_name name with
  | Some s -> s
  | None -> raise Not_found

(* Intern a global lock-object name (global-CC "site/key" objects, L1
   objects) against the federation's symbol table. *)
let intern t s = Symbol.intern t.syms s

(* Pre-resolved [icdb_phase_time] handle for a (protocol, phase) pair.
   Slots fill lazily on first use so a run registers exactly the instruments
   it would have before — metric snapshots stay identical — while repeat
   observations skip the registry lookup and its label-list allocation. *)
let phase_histogram t ~protocol phase =
  let slots =
    match Strtbl.find_opt t.phase_hists protocol with
    | Some slots -> slots
    | None ->
      let slots = Array.make Span.num_phases None in
      Strtbl.replace t.phase_hists protocol slots;
      slots
  in
  let i = Span.phase_index phase in
  match slots.(i) with
  | Some h -> h
  | None ->
    let h =
      Registry.histogram t.registry
        ~labels:[ ("protocol", protocol); ("phase", Span.phase_name phase) ]
        "icdb_phase_time"
    in
    slots.(i) <- Some h;
    h

let site_names t = List.map fst t.sites

let fresh_gid t =
  t.next_gid <- t.next_gid + 1;
  t.next_gid

let log_decision t ~gid ~commit = Gid_store.Bool.replace t.decision_log gid commit

let sharded t = Array.length t.shards > 0

(* The participating shard ids a gid was opened with (sorted), or [None]
   when the federation is unsharded / the gid was opened without sites. *)
let route t gid = Gid_store.find_opt t.gid_route gid

let decision t ~gid =
  match Gid_store.Bool.find_opt t.decision_log gid with
  | Some d -> Some d
  | None ->
    let n = Array.length t.shards in
    let rec scan i =
      if i >= n then None
      else
        match Gid_store.Bool.find_opt t.shards.(i).sh_decision_log gid with
        | Some d -> Some d
        | None -> scan (i + 1)
    in
    scan 0

let decision_log_size t =
  Array.fold_left
    (fun acc sh -> acc + Gid_store.Bool.length sh.sh_decision_log)
    (Gid_store.Bool.length t.decision_log)
    t.shards

let journal_open_routed t ~sites ~gid ~protocol =
  let entry () = { j_protocol = protocol; j_branches = []; j_phase = Executing } in
  if not (sharded t) then Hashtbl.replace t.journal gid (entry ())
  else begin
    let route =
      List.filter_map (Strtbl.find_opt t.shard_of_site) sites
      |> List.sort_uniq compare |> Array.of_list
    in
    match route with
    (* no recognizable member sites: the central system coordinates, as it
       would have before sharding *)
    | [||] -> Hashtbl.replace t.journal gid (entry ())
    | [| s |] ->
      (* single-shard fast path: the journal entry lives at the shard
         coordinator only — no top-level state at all *)
      Gid_store.replace t.gid_route gid route;
      Hashtbl.replace t.shards.(s).sh_journal gid (entry ())
    | multi ->
      (* top-level transaction: a top entry plus one mirror per shard, each
         holding that shard's branches (what the shard coordinator would
         know as an L1 participant) *)
      Gid_store.replace t.gid_route gid route;
      Hashtbl.replace t.journal gid (entry ());
      Array.iter (fun s -> Hashtbl.replace t.shards.(s).sh_journal gid (entry ())) multi
  end;
  t.journal_hook (J_opened gid)

(* Legacy entry point: central coordinates (no route), exactly as before
   sharding existed. Tests and hand-built transactions use it. *)
let journal_open t ~gid ~protocol = journal_open_routed t ~sites:[] ~gid ~protocol

let journal_find t gid =
  match Hashtbl.find_opt t.journal gid with
  | Some entry -> entry
  | None -> failwith "Federation: no journal entry for this transaction"

let journal_branch t ~gid ~site ~txn_id =
  match route t gid with
  | None ->
    let entry = journal_find t gid in
    entry.j_branches <- entry.j_branches @ [ (site, txn_id) ]
  | Some [| s |] -> (
    match Hashtbl.find_opt t.shards.(s).sh_journal gid with
    | Some entry -> entry.j_branches <- entry.j_branches @ [ (site, txn_id) ]
    | None -> failwith "Federation: no shard journal entry for this transaction")
  | Some _ ->
    let entry = journal_find t gid in
    entry.j_branches <- entry.j_branches @ [ (site, txn_id) ];
    (match Strtbl.find_opt t.shard_of_site site with
    | Some s -> (
      match Hashtbl.find_opt t.shards.(s).sh_journal gid with
      | Some mirror -> mirror.j_branches <- mirror.j_branches @ [ (site, txn_id) ]
      | None -> ())
    | None -> ())

(* The decision log as a serial device: forces queue behind each other and
   each occupies the log head for [decision_force_time]. [None] keeps the
   pre-sharding model of an instantaneous force. The device state is one
   [busy_until] watermark per coordinator (central + each shard), so S
   shards really are S independent log heads — the resource the sharding
   experiment varies. *)
let serial_force t ~get ~set =
  match t.decision_force_time with
  | None -> ()
  | Some ft ->
    let now = Sim.now t.engine in
    let start = if get () > now then get () else now in
    let fin = start +. ft in
    set fin;
    Fiber.sleep t.engine (fin -. now)

(* Group commit for the central decision log: every decision made within one
   [central_gc_window] shares a single log force. The caller (always a
   protocol fiber) blocks until the shared force completes, so when
   [journal_decide] returns the decision is durable — same contract as
   today's instantaneous write, just paid for in one force per window
   instead of one per decision. Disabled ([None]): the force costs
   [decision_force_time] on the central log device (zero cost, zero delay
   when that is [None] too — the pre-sharding default). *)
let force_decision t =
  match t.central_gc_window with
  | None ->
    serial_force t
      ~get:(fun () -> t.central_busy_until)
      ~set:(fun v -> t.central_busy_until <- v)
  | Some window ->
    Fiber.await (fun resumer ->
        t.cgc_waiters <- resumer :: t.cgc_waiters;
        if not t.cgc_scheduled then begin
          t.cgc_scheduled <- true;
          ignore
            (Sim.schedule t.engine ~delay:window (fun () ->
                 let waiters = List.rev t.cgc_waiters in
                 t.cgc_waiters <- [];
                 t.cgc_scheduled <- false;
                 t.central_forces <- t.central_forces + 1;
                 t.central_force_hook ();
                 List.iter (fun r -> r (Ok ())) waiters))
        end)

(* Same contract per shard: group commit when the window is on, otherwise
   the shard's own serial log device. *)
let shard_force t sh =
  match t.central_gc_window with
  | None ->
    serial_force t
      ~get:(fun () -> sh.sh_busy_until)
      ~set:(fun v -> sh.sh_busy_until <- v)
  | Some window ->
    Fiber.await (fun resumer ->
        sh.sh_cgc_waiters <- resumer :: sh.sh_cgc_waiters;
        if not sh.sh_cgc_scheduled then begin
          sh.sh_cgc_scheduled <- true;
          ignore
            (Sim.schedule t.engine ~delay:window (fun () ->
                 let waiters = List.rev sh.sh_cgc_waiters in
                 sh.sh_cgc_waiters <- [];
                 sh.sh_cgc_scheduled <- false;
                 sh.sh_forces <- sh.sh_forces + 1;
                 Registry.inc sh.sh_forces_c;
                 List.iter (fun r -> r (Ok ())) waiters))
        end)

(* Record a decision at one shard coordinator: mirror entry (if any) flips
   to [Decided] and the shard's stable decision log and counters advance.
   Runs at the coordinator — callers reach it through
   {!shard_decide_round}'s RPC for top-level transactions, or directly (no
   wire hop) for the shard's own transactions; both force the shard log
   afterwards. *)
let shard_record_decision _t sh ~gid ~commit =
  (match Hashtbl.find_opt sh.sh_journal gid with
  | Some entry -> entry.j_phase <- Decided commit
  | None -> ());
  Gid_store.Bool.replace sh.sh_decision_log gid commit;
  sh.sh_decisions <- sh.sh_decisions + 1;
  Registry.inc sh.sh_decided_c

(* The top-level decision round of a cross-shard transaction: the central
   system pushes the (already durable) decision to every participating shard
   coordinator, which forces its own journal before acknowledging. A shard
   coordinator that is down past the RPC retry budget simply misses the
   round — the decision is durable at the top level, and per-shard recovery
   pushes it when the coordinator comes back ({!Central_recovery}). *)
let shard_decide_round t ~gid ~commit route =
  ignore
    (Fiber.all t.engine
       (List.map
          (fun s ->
            let sh = t.shards.(s) in
            let coord = Strtbl.find t.by_name sh.sh_coord in
            fun () ->
              try
                Link.rpc ~gid (Site.link coord) ~label:"shard-decide" (fun () ->
                    shard_record_decision t sh ~gid ~commit;
                    shard_force t sh;
                    ("shard-decided", ()))
              with Link.Unreachable _ -> ())
          (Array.to_list route)))

(* Durability step for a freshly recorded decision: the coordinator's own
   log force by default, or — with Paxos Commit installed — an accept round
   over the acceptor quorum (the coordinator's log is then just a cache and
   never forced). *)
let make_durable t ~gid ~commit ~force =
  match t.decision_replicator with
  | Some replicate -> replicate ~gid ~commit
  | None -> force ()

let journal_decide t ~gid ~commit =
  match route t gid with
  | Some [| s |] ->
    (* single-shard fast path: decided and forced entirely at the shard
       coordinator — no top-level journal write, no top-level force, no
       top-level message *)
    let sh = t.shards.(s) in
    shard_record_decision t sh ~gid ~commit;
    t.journal_hook (J_decided { gid; commit });
    make_durable t ~gid ~commit ~force:(fun () -> shard_force t sh)
  | Some multi ->
    (journal_find t gid).j_phase <- Decided commit;
    log_decision t ~gid ~commit;
    t.central_decisions <- t.central_decisions + 1;
    t.journal_hook (J_decided { gid; commit });
    make_durable t ~gid ~commit ~force:(fun () -> force_decision t);
    shard_decide_round t ~gid ~commit multi
  | None ->
    (journal_find t gid).j_phase <- Decided commit;
    log_decision t ~gid ~commit;
    t.central_decisions <- t.central_decisions + 1;
    t.journal_hook (J_decided { gid; commit });
    make_durable t ~gid ~commit ~force:(fun () -> force_decision t)

let journal_close t ~gid =
  (match route t gid with
  | None -> Hashtbl.remove t.journal gid
  | Some [| s |] -> Hashtbl.remove t.shards.(s).sh_journal gid
  | Some multi ->
    Hashtbl.remove t.journal gid;
    Array.iter (fun s -> Hashtbl.remove t.shards.(s).sh_journal gid) multi);
  Gid_store.remove t.gid_route gid;
  (* The transaction is finished at the coordinator: any receiver-side dedup
     state its wire exchanges left behind (orphans from capped retries) can
     never be consulted again — evict it. *)
  List.iter (fun (_, site) -> Link.evict_gid (Site.link site) ~gid) t.sites;
  (* fired after the removal so a monitor sees the post-close journal *)
  t.journal_hook (J_closed gid)

let batcher t name = Strtbl.find_opt t.batchers name

(* Central decision-log forces: with group commit on, the shared forces that
   actually happened; off, one (conceptual) force per decision — the §5
   baseline the group-commit numbers are compared against. Under Paxos
   Commit the central log is never forced at all (durability lives at the
   acceptor quorum; see [Paxos_commit.acceptor_forces]). *)
let central_log_forces t =
  if Option.is_some t.decision_replicator then 0
  else if t.central_gc_window <> None then t.central_forces
  else t.central_decisions

let batch_envelopes t =
  Strtbl.fold (fun _ b acc -> acc + Batcher.envelope_count b) t.batchers 0

let batch_occupancy_mean t =
  let members =
    Strtbl.fold (fun _ b acc -> acc + Batcher.member_count b) t.batchers 0
  in
  let envelopes = batch_envelopes t in
  if envelopes = 0 then 0.0 else float_of_int members /. float_of_int envelopes

let journal_open_entries t =
  if not (sharded t) then
    Hashtbl.fold (fun gid entry acc -> (gid, entry) :: acc) t.journal []
    |> List.sort compare
  else begin
    (* union over the shard journals and the top journal, one entry per gid;
       the top entry wins for cross-shard transactions (it has every branch
       and the authoritative phase, the mirrors only their shard's slice) *)
    let merged = Hashtbl.create 32 in
    Array.iter
      (fun sh -> Hashtbl.iter (fun gid e -> Hashtbl.replace merged gid e) sh.sh_journal)
      t.shards;
    Hashtbl.iter (fun gid e -> Hashtbl.replace merged gid e) t.journal;
    Hashtbl.fold (fun gid entry acc -> (gid, entry) :: acc) merged []
    |> List.sort compare
  end

(* Raw open-entry count across the top journal and every shard journal
   (cross-shard mirrors counted once per shard they live at) — zero exactly
   when every journal is empty, which is what the quiescence monitors and
   drain checks ask. *)
let total_journal_entries t =
  Array.fold_left
    (fun acc sh -> acc + Hashtbl.length sh.sh_journal)
    (Hashtbl.length t.journal)
    t.shards

(* {2 Sharded lock-table routing}

   The additional CC module and the L1 lock manager live at the shard
   coordinator owning the object's site; unsharded federations (and objects
   at unknown sites) keep the central tables. Lock objects are "site/key"
   strings, disjoint across shards, so routing changes which volatile table
   holds an entry — and therefore what a shard-coordinator crash wipes —
   without changing any grant decision. *)

let shard_for_site t site =
  if not (sharded t) then None else Strtbl.find_opt t.shard_of_site site

let cc_table t ~site =
  match shard_for_site t site with
  | Some s -> t.shards.(s).sh_cc
  | None -> t.global_cc

let l1_table t ~site =
  match shard_for_site t site with
  | Some s -> t.shards.(s).sh_l1
  | None -> t.l1_locks

(* Release everything a global transaction holds, wherever it holds it.
   [release_all] is a no-op per table when the owner holds nothing there. *)
let release_cc_owner t ~gid =
  Lock.release_all t.global_cc ~owner:gid;
  Array.iter (fun sh -> Lock.release_all sh.sh_cc ~owner:gid) t.shards

let release_l1_owner t ~gid =
  Lock.release_all t.l1_locks ~owner:gid;
  Array.iter (fun sh -> Lock.release_all sh.sh_l1 ~owner:gid) t.shards

(* Trace/span actor for a global transaction's coordinator: the shard
   coordinator on the single-shard fast path, the central system otherwise
   (always "central" when unsharded — traces are byte-identical). *)
let gid_actor t ~gid =
  match route t gid with
  | Some [| s |] -> t.shards.(s).sh_name
  | Some _ | None -> "central"

(* A shard-coordinator crash loses the shard's volatile lock state (its CC
   module and L1 manager), exactly as {!Central_recovery.crash} models for
   the central system; the shard's stable journal and decision log survive.
   Crashing the coordinator {e site} is the caller's separate decision. *)
let shard_crash t ~shard =
  let sh = t.shards.(shard) in
  Lock.reset sh.sh_cc;
  Lock.reset sh.sh_l1

(* Shard decision-log forces, summed: with group commit on, the shared
   forces that happened; off, one per shard decision (same convention as
   {!central_log_forces}, including the Paxos gate: replicated decisions
   count acceptor forces instead). *)
let shard_log_forces t =
  if Option.is_some t.decision_replicator then 0
  else
    Array.fold_left
      (fun acc sh ->
        acc + (if t.central_gc_window <> None then sh.sh_forces else sh.sh_decisions))
      0 t.shards

let shard_decisions t =
  Array.fold_left (fun acc sh -> acc + sh.sh_decisions) 0 t.shards

let total_messages t =
  List.fold_left (fun acc (_, site) -> acc + Link.message_count (Site.link site)) 0 t.sites

let messages_by_label t =
  let merged = Hashtbl.create 32 in
  List.iter
    (fun (_, site) ->
      List.iter
        (fun (label, n) ->
          let cur = Option.value ~default:0 (Hashtbl.find_opt merged label) in
          Hashtbl.replace merged label (cur + n))
        (Link.messages_by_label (Site.link site)))
    t.sites;
  Hashtbl.fold (fun label n acc -> (label, n) :: acc) merged [] |> List.sort compare

let reset_message_counters t =
  List.iter (fun (_, site) -> Link.reset_counters (Site.link site)) t.sites

let committed_total t =
  List.fold_left (fun acc (_, site) -> acc + Db.committed_total (Site.db site)) 0 t.sites
