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

(* One coordinator: the central system of Fig. 1, or a shard coordinator.
   Each keeps its own stable journal and decision log, its own volatile CC
   module and L1 lock manager, and its own serial decision-log device. A
   shard coordinator is the L1 transaction manager of the paper's two-level
   split, acting as L0 coordinator for the transactions confined to its
   shard; a crash of one coordinator loses exactly its lock tables. *)
type coordinator = {
  name : string;  (* "central" or "shard-<i>": trace actor, metric label *)
  members : string list;  (* its sites in creation order; the first hosts it *)
  journal : (int, journal_entry) Hashtbl.t;
  decision_log : Gid_store.Bool.t;
  cc : Mode.t Lock.t;
  l1 : Conflict.clazz Lock.t;
  mutable busy_until : float;  (* serial decision-log device *)
  mutable gc_waiters : unit Fiber.resumer list;
  mutable gc_scheduled : bool;
  mutable decisions : int;
  mutable forces : int;  (* group-commit forces *)
  on_decision : unit -> unit;
  on_force : unit -> unit;
}

type t = {
  engine : Sim.t;
  sites : (string * Site.t) list;
  by_name : Site.t Strtbl.t;
  syms : Symbol.table;
      (* federation-level interner: global-CC and L1 lock objects; one per
         federation, so no two federations share a table *)
  trace : Trace.t;
  registry : Registry.t;
  tracer : Tracer.t;
  metrics : Metrics.t;
  conflict : Conflict.t;
  redo_log : Action_log.t;
  undo_log : Action_log.t;
  mlt_undo_log : Action_log.t;
  graph : Serialization_graph.t;
  mutable next_gid : int;
  mutable global_cc_enabled : bool;
  mutable central_fail : gid:int -> string -> unit;
  mutable journal_hook : journal_event -> unit;
  global_lock_timeout : float option;
  batchers : Batcher.t Strtbl.t;
  central_gc_window : float option;
  (* protocol name -> per-phase [icdb_phase_time] histogram handles, filled
     lazily per slot so exactly the instruments the run uses exist — the
     hot path then skips the registry's per-call label-key allocation *)
  phase_hists : Registry.histogram option array Strtbl.t;
  central : coordinator;
  shards : coordinator array;  (* [||] = unsharded: every gid routes to [central] *)
  shard_of_site : int Strtbl.t;
  gid_route : int array Gid_store.t;
      (* gid -> sorted participating shard ids; a singleton routes the whole
         protocol round to that shard coordinator (the fast path), anything
         longer is a top-level transaction over the shard coordinators.
         Absent entries (and the whole table when unsharded) mean "central". *)
  decision_force_time : float option;
      (* service time of one decision-log force on its serial device; [None]
         models the force as instantaneous (the pre-sharding behavior) *)
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
        Tracer.complete_lock t.tracer ~actor:table ~dur:waited ~wait:true ~table
          ~obj:(Symbol.name names obj)
    | Lock.Released { obj; held; _ } ->
      Registry.observe hold_h held;
      if Tracer.enabled t.tracer then
        Tracer.complete_lock t.tracer ~actor:table ~dur:held ~wait:false ~table
          ~obj:(Symbol.name names obj)

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
  let observe_tables c ~cc ~l1 =
    Lock.set_observer c.cc (lock_handler t ~table:cc ~names:t.syms);
    Lock.set_observer c.l1 (lock_handler t ~table:l1 ~names:t.syms)
  in
  observe_tables t.central ~cc:"global-cc" ~l1:"l1";
  (* Shard coordinators get their own table labels, so lock metrics split
     by shard; unsharded federations have no shards and add no metrics. *)
  Array.iter
    (fun c -> observe_tables c ~cc:(c.name ^ "-cc") ~l1:(c.name ^ "-l1"))
    t.shards;
  let sim_events = Registry.counter t.registry "icdb_sim_events_total" in
  Sim.set_observer t.engine (fun () -> Registry.inc sim_events)

(* A window of 0 (or less) means "off": the feature must be byte-invisible
   unless positively enabled, so reports with the default config reproduce
   pre-batching output exactly. *)
let normalize_window = function
  | Some w when w > 0.0 -> Some w
  | Some _ | None -> None

let coordinator engine ~syms ~conflict ~name ~members ~on_decision ~on_force =
  {
    name;
    members;
    journal = Hashtbl.create 64;
    decision_log = Gid_store.Bool.create ();
    cc = Lock.create engine ~syms ~compatible:Mode.compatible ~combine:Mode.combine;
    l1 =
      Lock.create engine ~syms ~compatible:(Conflict.compatible conflict)
        ~combine:(Conflict.combine conflict);
    busy_until = 0.0;
    gc_waiters = [];
    gc_scheduled = false;
    decisions = 0;
    forces = 0;
    on_decision;
    on_force;
  }

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
  let coordinator = coordinator engine ~syms ~conflict in
  (* The central system's forces are counted and traced only with group
     commit on, so default-config snapshots keep their metric set. *)
  let central_on_force =
    match central_gc_window with
    | None -> ignore
    | Some _ ->
      let forces =
        Registry.counter registry ~labels:[ ("site", "central") ]
          "icdb_central_decision_forces_total"
      in
      let wal_kind = Span.Wal_force { site = "central" } in
      fun () ->
        Registry.inc forces;
        Tracer.instant tracer ~actor:"central" wal_kind
  in
  let names = List.map fst sites in
  let central =
    coordinator ~name:"central" ~members:names ~on_decision:ignore
      ~on_force:central_on_force
  in
  (* Shard layout: contiguous balanced blocks of sites in creation order
     (site i -> shard i*S/n), first member of each block is the shard
     coordinator. [shards = 1] builds none, and every gid routes to the
     central system. *)
  let shard_of_site = Strtbl.create 16 in
  let shards_arr =
    if shards <= 1 then [||]
    else begin
      let n = List.length names in
      List.iteri (fun i name -> Strtbl.replace shard_of_site name (i * shards / n)) names;
      Array.init shards (fun s ->
          let name = "shard-" ^ string_of_int s in
          let counter = Registry.counter registry ~labels:[ ("shard", name) ] in
          let decided = counter "icdb_shard_decisions_total" in
          let forced = counter "icdb_shard_decision_forces_total" in
          coordinator ~name
            ~members:(List.filteri (fun i _ -> i * shards / n = s) names)
            ~on_decision:(fun () -> Registry.inc decided)
            ~on_force:(fun () -> Registry.inc forced))
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
      conflict;
      redo_log = Action_log.create ();
      undo_log = Action_log.create ();
      mlt_undo_log = Action_log.create ();
      graph = Serialization_graph.create ();
      next_gid = 0;
      global_cc_enabled = true;
      central_fail = (fun ~gid:_ _ -> ());
      journal_hook = (fun _ -> ());
      global_lock_timeout;
      batchers = Strtbl.create 16;
      central_gc_window;
      phase_hists = Strtbl.create 8;
      central;
      shards = shards_arr;
      shard_of_site;
      gid_route = Gid_store.create ();
      decision_force_time;
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
  t

let site t name =
  match Strtbl.find_opt t.by_name name with
  | Some s -> s
  | None -> raise Not_found

let preload t rows = Db.preload (List.map (fun (_, site) -> Site.db site) t.sites) rows

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

let fresh_gid t =
  t.next_gid <- t.next_gid + 1;
  t.next_gid

let iter_coordinators t f =
  f t.central;
  Array.iter f t.shards

let sum_coordinators t f = Array.fold_left (fun acc c -> acc + f c) (f t.central) t.shards

(* The participating shard ids a gid was opened with (sorted), or [None]
   when the federation is unsharded / the gid was opened without sites. *)
let route t gid = Gid_store.find_opt t.gid_route gid

(* The one place a route picks a coordinator: the shard on the single-shard
   fast path, the central system for a top-level transaction or no route. *)
let owner t ~gid =
  match route t gid with
  | Some [| s |] -> t.shards.(s)
  | Some _ | None -> t.central

(* The shard coordinators holding a mirror of a top-level transaction's
   entry; none for a gid one coordinator owns outright. *)
let mirrors t gid =
  match route t gid with
  | Some r when Array.length r > 1 -> r
  | Some _ | None -> [||]

let site_coordinator t ~site =
  match Strtbl.find_opt t.shard_of_site site with
  | Some s -> t.shards.(s)
  | None -> t.central

(* A decision is a decision no matter which coordinator logged it. *)
let decision t ~gid =
  let logged c = Gid_store.Bool.find_opt c.decision_log gid in
  match logged t.central with
  | Some _ as d -> d
  | None ->
    Array.fold_left (fun d c -> if Option.is_some d then d else logged c) None t.shards

let decision_log_size t =
  sum_coordinators t (fun c -> Gid_store.Bool.length c.decision_log)

(* The distinct shards owning [sites], in any order. A plain recursion, so
   an unsharded federation (every lookup [None]) allocates nothing per
   transaction. *)
let rec shards_of t acc = function
  | [] -> acc
  | site :: rest -> (
    match Strtbl.find_opt t.shard_of_site site with
    | Some s when not (List.mem s acc) -> shards_of t (s :: acc) rest
    | Some _ | None -> shards_of t acc rest)

let journal_open_routed t ~sites ~gid ~protocol =
  let entry () = { j_protocol = protocol; j_branches = []; j_phase = Executing } in
  (* no site with a shard: no route, so [central] coordinates *)
  (match shards_of t [] sites with
  | [] -> ()
  | shards ->
    Gid_store.replace t.gid_route gid (Array.of_list (List.sort compare shards)));
  (* the owner's entry, plus a mirror at each shard of a top-level
     transaction holding that shard's branches (what the shard coordinator
     knows as an L1 participant) *)
  Hashtbl.replace (owner t ~gid).journal gid (entry ());
  let mirrors = mirrors t gid in
  if Array.length mirrors > 0 then
    Array.iter (fun s -> Hashtbl.replace t.shards.(s).journal gid (entry ())) mirrors;
  t.journal_hook (J_opened gid)

(* Legacy entry point: central coordinates (no route), exactly as before
   sharding existed. Tests and hand-built transactions use it. *)
let journal_open t ~gid ~protocol = journal_open_routed t ~sites:[] ~gid ~protocol

let journal_find c gid =
  match Hashtbl.find_opt c.journal gid with
  | Some entry -> entry
  | None -> failwith "Federation: no journal entry for this transaction"

let add_branch entry branch = entry.j_branches <- entry.j_branches @ [ branch ]

let journal_branch t ~gid ~site ~txn_id =
  add_branch (journal_find (owner t ~gid) gid) (site, txn_id);
  (* a top-level transaction also records the branch in its shard's mirror *)
  if Array.length (mirrors t gid) > 0 then
    match Strtbl.find_opt t.shard_of_site site with
    | Some s ->
      Option.iter
        (fun m -> add_branch m (site, txn_id))
        (Hashtbl.find_opt t.shards.(s).journal gid)
    | None -> ()

(* The decision log as a serial device: forces queue behind each other and
   each occupies the log head for [decision_force_time]. [None] keeps the
   pre-sharding model of an instantaneous force. The device state is one
   [busy_until] watermark per coordinator, so S shards really are S
   independent log heads — the resource the sharding experiment varies.

   Group commit ([central_gc_window]): every decision made at [c] within
   one window shares a single log force. The caller (always a protocol
   fiber) blocks until the shared force completes, so on return the
   decision is durable either way. *)
let force t c =
  match t.central_gc_window with
  | None -> (
    match t.decision_force_time with
    | None -> ()
    | Some ft ->
      let now = Sim.now t.engine in
      let start = if c.busy_until > now then c.busy_until else now in
      c.busy_until <- start +. ft;
      Fiber.sleep t.engine (c.busy_until -. now))
  | Some window ->
    Fiber.await (fun resumer ->
        c.gc_waiters <- resumer :: c.gc_waiters;
        if not c.gc_scheduled then begin
          c.gc_scheduled <- true;
          ignore
            (Sim.schedule t.engine ~delay:window (fun () ->
                 let waiters = List.rev c.gc_waiters in
                 c.gc_waiters <- [];
                 c.gc_scheduled <- false;
                 c.forces <- c.forces + 1;
                 c.on_force ();
                 List.iter (fun r -> r (Ok ())) waiters))
        end)

(* Record a decision in one coordinator's stable log and advance its
   counters. *)
let log_decision c ~gid ~commit =
  Gid_store.Bool.replace c.decision_log gid commit;
  c.decisions <- c.decisions + 1;
  c.on_decision ()

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
            let c = t.shards.(s) in
            let host = Strtbl.find t.by_name (List.hd c.members) in
            fun () ->
              try
                Link.rpc ~gid (Site.link host) ~label:"shard-decide" (fun () ->
                    (* the mirror is gone once shard recovery retired it *)
                    Option.iter
                      (fun e -> e.j_phase <- Decided commit)
                      (Hashtbl.find_opt c.journal gid);
                    log_decision c ~gid ~commit;
                    force t c;
                    ("shard-decided", ()))
              with Link.Unreachable _ -> ())
          (Array.to_list route)))

(* Decided and made durable at the gid's owner: the coordinator's own log
   force by default, or — with Paxos Commit installed — an accept round over
   the acceptor quorum (the coordinator's log is then just a cache and never
   forced). A top-level decision then runs the shard-decide round; the
   single-shard fast path has no top-level write, force or message. *)
let journal_decide t ~gid ~commit =
  let c = owner t ~gid in
  (journal_find c gid).j_phase <- Decided commit;
  log_decision c ~gid ~commit;
  t.journal_hook (J_decided { gid; commit });
  (match t.decision_replicator with
  | Some replicate -> replicate ~gid ~commit
  | None -> force t c);
  let mirrors = mirrors t gid in
  if Array.length mirrors > 0 then shard_decide_round t ~gid ~commit mirrors

let journal_close t ~gid =
  Hashtbl.remove (owner t ~gid).journal gid;
  let mirrors = mirrors t gid in
  if Array.length mirrors > 0 then
    Array.iter (fun s -> Hashtbl.remove t.shards.(s).journal gid) mirrors;
  Gid_store.remove t.gid_route gid;
  (* The transaction is finished at the coordinator: any receiver-side dedup
     state its wire exchanges left behind (orphans from capped retries) can
     never be consulted again — evict it. *)
  List.iter (fun (_, site) -> Link.evict_gid (Site.link site) ~gid) t.sites;
  (* fired after the removal so a monitor sees the post-close journal *)
  t.journal_hook (J_closed gid)

let batcher t name = Strtbl.find_opt t.batchers name

(* Decision-log forces at one coordinator: with group commit on, the shared
   forces that actually happened; off, one (conceptual) force per decision —
   the §5 baseline the group-commit numbers are compared against. Under
   Paxos Commit no coordinator log is ever forced (durability lives at the
   acceptor quorum; see [Paxos_commit.acceptor_forces]). *)
let log_forces t c =
  if Option.is_some t.decision_replicator then 0
  else if t.central_gc_window <> None then c.forces
  else c.decisions

let batch_envelopes t =
  Strtbl.fold (fun _ b acc -> acc + Batcher.envelope_count b) t.batchers 0

let batch_occupancy_mean t =
  let members =
    Strtbl.fold (fun _ b acc -> acc + Batcher.member_count b) t.batchers 0
  in
  let envelopes = batch_envelopes t in
  if envelopes = 0 then 0.0 else float_of_int members /. float_of_int envelopes

(* Union over the shard journals and the top journal, one entry per gid;
   the top entry wins for cross-shard transactions (it has every branch and
   the authoritative phase, the mirrors only their shard's slice). *)
let journal_open_entries t =
  let merged = Hashtbl.create 32 in
  Array.iter (fun c -> Hashtbl.iter (Hashtbl.replace merged) c.journal) t.shards;
  Hashtbl.iter (Hashtbl.replace merged) t.central.journal;
  Hashtbl.fold (fun gid entry acc -> (gid, entry) :: acc) merged [] |> List.sort compare

(* Raw open-entry count across every journal (cross-shard mirrors counted
   once per shard they live at) — zero exactly when every journal is empty,
   which is what the quiescence monitors and drain checks ask. *)
let total_journal_entries t = sum_coordinators t (fun c -> Hashtbl.length c.journal)

(* Release everything a global transaction holds in one kind of lock table,
   wherever it holds it. [release_all] is a no-op per table when the owner
   holds nothing there. *)
let release_owner t ~gid table =
  iter_coordinators t (fun c -> Lock.release_all (table c) ~owner:gid)

(* A coordinator crash loses its volatile lock state (CC module and L1
   manager); its stable journal and decision log survive. Crashing the
   coordinator's host site is the caller's separate decision. *)
let crash c =
  Lock.reset c.cc;
  Lock.reset c.l1

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

let committed_total t =
  List.fold_left (fun acc (_, site) -> acc + Db.committed_total (Site.db site)) 0 t.sites
