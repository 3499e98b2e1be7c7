module Sim = Icdb_sim.Engine
module Fiber = Icdb_sim.Fiber
module Trace = Icdb_sim.Trace
module Lock = Icdb_lock.Lock_table
module Mode = Icdb_lock.Mode
module Site = Icdb_net.Site
module Link = Icdb_net.Link
module Db = Icdb_localdb.Engine
module Program = Icdb_localdb.Program
module Registry = Icdb_obs.Registry
module Tracer = Icdb_obs.Tracer
module Span = Icdb_obs.Span

(* Plain concatenation, not [Printf.sprintf]: these run once or more per
   transaction and the format machinery allocates an order of magnitude more
   than the result string. *)
let commit_marker ~gid = "__cm:" ^ string_of_int gid
let undo_marker ~gid ~seq = "__um:" ^ string_of_int gid ^ ":" ^ string_of_int seq

let mode_of_intent = function
  | `Read -> Mode.Shared
  | `Increment -> Mode.Increment
  | `Write -> Mode.Exclusive

let release_global_locks (fed : Federation.t) ~gid =
  Federation.release_owner fed ~gid (fun c -> c.cc)

let acquire_global_locks (fed : Federation.t) ~gid (spec : Global.spec) =
  if not fed.global_cc_enabled then true
  else begin
    let wanted =
      List.concat_map
        (fun (b : Global.branch) ->
          List.map
            (fun (key, intent) -> (b.site ^ "/" ^ key, b.site, mode_of_intent intent))
            (Program.intents b.program))
        spec.branches
      (* sorted by (object, mode), as before sharding: the globally stable
         acquisition order is what prevents deadlocks between transactions
         spanning several shards' CC tables *)
      |> List.sort (fun (o1, _, m1) (o2, _, m2) -> compare (o1, m1) (o2, m2))
    in
    let rec go = function
      | [] -> true
      | (obj, site, mode) :: rest -> (
        (* sort on names (stable acquisition order), intern at the boundary;
           the table is the owning shard coordinator's (central when
           unsharded) *)
        match
          Lock.acquire (Federation.site_coordinator fed ~site).cc ~owner:gid
            ~obj:(Federation.intern fed obj) ~mode ?timeout:fed.global_lock_timeout ()
        with
        | Lock.Granted ->
          Metrics.global_lock_acquired fed.metrics;
          go rest
        | Lock.Timeout | Lock.Deadlock -> false
        (* A central (or shard-coordinator) crash resets the CC module and
           wakes every waiter with [Lock_revoked]; to this transaction that
           is just a denial — it must abort cleanly, not die with an
           escaping exception. *)
        | exception Lock.Lock_revoked -> false)
    in
    let ok = go wanted in
    if not ok then release_global_locks fed ~gid;
    ok
  end

let fanout (fed : Federation.t) thunks = Fiber.all fed.engine thunks

(* --- span-level observability -------------------------------------------

   Each protocol run opens one [Txn] span and nests its phases under it; the
   phase helper also feeds the per-(protocol, phase) latency histogram. All
   helpers are single-branch no-ops when the tracer is disabled.

   NB: phase bodies can raise — the A4 experiment's [fed.central_fail] hook
   throws [Central_crash] mid-protocol. [Fun.protect] is not effect-safe
   (the finaliser would not survive a fiber suspension), but an explicit
   exception match is: the body either returns or raises, and the span is
   closed on both paths. The enclosing [Txn] span is deliberately {e not}
   closed on exceptions — a dangling span is how a central crash looks in
   the trace. *)

type obs = { txn_span : int; obs_protocol : string; obs_actor : string }

let obs_begin (fed : Federation.t) ~gid ~protocol =
  (* the coordinator actor: "shard-<i>" when the gid routed to a single
     shard (the fast path), "central" otherwise — and always "central" in
     an unsharded federation, so existing traces are unchanged *)
  let actor = (Federation.owner fed ~gid).name in
  let txn_span =
    (* guard at the call site too: the [Span] argument is a record built
       before [begin_span] can decline it *)
    if Tracer.enabled fed.tracer then
      Tracer.begin_span fed.tracer ~actor (Span.Txn { gid; protocol })
    else -1
  in
  { txn_span; obs_protocol = protocol; obs_actor = actor }

let coordinator_actor obs = obs.obs_actor

let obs_phase (fed : Federation.t) obs ~gid ?actor phase f =
  let actor = match actor with Some a -> a | None -> obs.obs_actor in
  let start = Sim.now fed.engine in
  let span =
    if Tracer.enabled fed.tracer then
      Tracer.begin_span fed.tracer ~parent:obs.txn_span ~actor
        (Span.Phase { gid; phase })
    else -1
  in
  let fin () =
    Tracer.end_span fed.tracer span;
    let h = Federation.phase_histogram fed ~protocol:obs.obs_protocol phase in
    Registry.observe h (Sim.now fed.engine -. start)
  in
  match f span with
  | r ->
    fin ();
    r
  | exception e ->
    fin ();
    raise e

let obs_decision (fed : Federation.t) obs ~gid ~commit =
  if Tracer.enabled fed.tracer then
    Tracer.instant fed.tracer ~actor:obs.obs_actor (Span.Decision { gid; commit })

type exec_status = Exec_ok of Db.txn | Exec_failed of Db.abort_reason

let execute_branch (fed : Federation.t) ~gid ?(parent = -1) (b : Global.branch)
    ~extra_ops =
  let site = Federation.site fed b.site in
  let db = Site.db site in
  let bspan =
    if Tracer.enabled fed.tracer then
      Tracer.begin_span fed.tracer ~parent ~actor:b.site
        (Span.Branch { gid; site = b.site })
    else -1
  in
  let body () =
    Link.rpc ~gid (Site.link site) ~label:"execute" (fun () ->
        match Db.begin_txn_opt db with
        | None -> ("execute-failed", Exec_failed Db.Site_crashed)
        | Some txn -> (
          Federation.journal_branch fed ~gid ~site:b.site ~txn_id:(Db.txn_id txn);
          match Program.run db txn (b.program @ extra_ops) with
          | Ok () ->
            Trace.record_gid fed.trace ~actor:b.site ~gid "executed";
            ("executed", Exec_ok txn)
          | Error r ->
            Db.abort db txn;
            ("execute-failed", Exec_failed r)))
  in
  match body () with
  | r ->
    Tracer.end_span fed.tracer bspan;
    r
  | exception e ->
    Tracer.end_span fed.tracer bspan;
    raise e

(* --- decision-phase traffic ---------------------------------------------

   All post-decision coordinator->site traffic (commit/abort/undo requests
   and their "finished" acks) goes through these two helpers so that, when
   the federation has message batching on, same-window decisions to one site
   share a wire envelope. With batching off they are exactly the plain
   [Link.rpc]/[Link.send] the protocols used before. *)

let decision_rpc (fed : Federation.t) ~gid ~site ~label f =
  match Federation.batcher fed site with
  | Some b -> Icdb_net.Batcher.rpc b ~label f
  | None ->
    let s = Federation.site fed site in
    Link.rpc ~gid (Site.link s) ~label (fun () -> (f (), ()))

let decision_send (fed : Federation.t) ~gid ~site ~label f =
  match Federation.batcher fed site with
  | Some b -> Icdb_net.Batcher.send b ~label f
  | None ->
    let s = Federation.site fed site in
    Link.send ~gid (Site.link s) ~label f

let graph_local (fed : Federation.t) ~gid ~site ~compensation txn =
  Serialization_graph.record_local fed.graph ~gid ~site ~compensation (Db.accesses txn)

let persistently_apply (fed : Federation.t) ~gid ~site ~marker ~compensation ~on_attempt
    program =
  let site_t = Federation.site fed site in
  let db = Site.db site_t in
  let full_program = program @ [ Program.Write (marker, 1) ] in
  let rec loop did_work =
    Site.await_up site_t;
    if Db.committed_value db marker = Some 1 then did_work
    else begin
      (* [begin_txn_opt], not [begin_txn]: another crash event can fire at
         the very instant the restart woke this fiber, and the retry loop —
         not an escaping exception — is the § 3.2/3.3 answer to that. *)
      match Db.begin_txn_opt db with
      | None -> loop did_work
      | Some txn -> (
        on_attempt ();
        match Program.run db txn full_program with
        | Error _ -> loop true
        | Ok () -> (
          match Db.commit db txn with
          | Ok () ->
            graph_local fed ~gid ~site ~compensation txn;
            true
          | Error _ -> loop true))
    end
  in
  loop false

(* Deliver a global decision to a prepared local, riding out crashes: the
   paper's communication manager keeps the decision until the local system
   has durably applied it. [resolve_prepared] can fail if the site crashed
   again between the wake-up from [await_up] and this fiber's resumption
   (the in-doubt table is volatile until restart recovery rebuilds it from
   the log) — in that case wait the outage out and redeliver. A failure
   while the site is up is real (the transaction is already finished) and
   propagates. *)
let resolve_prepared_durably (fed : Federation.t) ~site ~txn_id ~commit =
  let site_t = Federation.site fed site in
  let db = Site.db site_t in
  let rec deliver () =
    Site.await_up site_t;
    match Db.resolve_prepared db ~txn_id ~commit with
    | () -> ()
    | exception Failure _ when not (Db.is_up db) -> deliver ()
  in
  deliver ()

let finish (fed : Federation.t) ~gid ~start ?obs outcome =
  let actor = match obs with Some o -> o.obs_actor | None -> "central" in
  (match obs with
  | Some o -> Tracer.end_span fed.tracer o.txn_span
  | None -> ());
  (match outcome with
  | Global.Committed ->
    Metrics.txn_committed fed.metrics ~response_time:(Sim.now fed.engine -. start);
    Serialization_graph.record_outcome fed.graph ~gid ~committed:true;
    Trace.record_gid fed.trace ~actor ~gid "committed"
  | Global.Aborted cause ->
    Metrics.txn_aborted fed.metrics;
    Serialization_graph.record_outcome fed.graph ~gid ~committed:false;
    if Trace.enabled fed.trace then
      Trace.record_gid fed.trace ~actor ~gid
        (Format.asprintf "aborted (%a)" Global.pp_abort_cause cause));
  outcome
