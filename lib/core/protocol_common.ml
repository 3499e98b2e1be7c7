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
let action_marker ~gid ~seq = "__am:" ^ string_of_int gid ^ ":" ^ string_of_int seq

let marker_of_key key =
  let pair g s =
    match (int_of_string_opt g, int_of_string_opt s) with
    | Some g, Some s -> Some (g, s)
    | _ -> None
  in
  match String.split_on_char ':' key with
  | [ "__cm"; g ] -> Option.map (fun g -> `Cm g) (int_of_string_opt g)
  | [ "__um"; g; s ] -> Option.map (fun gs -> `Um gs) (pair g s)
  | [ "__am"; g; s ] -> Option.map (fun gs -> `Am gs) (pair g s)
  | _ -> None

let mode_of_intent = function
  | `Read -> Mode.Shared
  | `Increment -> Mode.Increment
  | `Write -> Mode.Exclusive

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
    if not ok then Federation.release_owner fed ~gid (fun c -> c.cc);
    ok
  end

(* --- one run: open, phases, decision, close ------------------------------

   Each protocol run opens one [Txn] span and nests its phases under it; the
   phase helper also feeds the per-(protocol, phase) latency histogram. All
   span helpers are single-branch no-ops when the tracer is disabled.

   NB: phase bodies can raise — the A4 experiment's [fed.central_fail] hook
   throws [Central_crash] mid-protocol. [Fun.protect] is not effect-safe
   (the finaliser would not survive a fiber suspension), but an explicit
   exception match is: the body either returns or raises, and the span is
   closed on both paths. The enclosing [Txn] span is deliberately {e not}
   closed on exceptions — a dangling span is how a central crash looks in
   the trace. *)

type ctx = { gid : int; start : float; txn_span : int; protocol : string; coord : string }

let open_run (fed : Federation.t) ~gid ~sites ~protocol =
  let start = Sim.now fed.engine in
  Metrics.txn_started fed.metrics;
  Federation.journal_open_routed fed ~sites ~gid ~protocol;
  (* the coordinator actor: "shard-<i>" when the gid routed to a single
     shard (the fast path), "central" otherwise — and always "central" in
     an unsharded federation *)
  let coord = (Federation.owner fed ~gid).name in
  let txn_span =
    (* guard at the call site too: the [Span] argument is a record built
       before [begin_span] can decline it *)
    if Tracer.enabled fed.tracer then
      Tracer.begin_span fed.tracer ~actor:coord (Span.Txn { gid; protocol })
    else -1
  in
  Trace.record_gid fed.trace ~actor:coord ~gid "running";
  { gid; start; txn_span; protocol; coord }

let end_phase (fed : Federation.t) ctx ph span start =
  Tracer.end_span fed.tracer span;
  let h = Federation.phase_histogram fed ~protocol:ctx.protocol ph in
  Registry.observe h (Sim.now fed.engine -. start)

let phase (fed : Federation.t) ctx ?(actor = ctx.coord) ph f =
  let start = Sim.now fed.engine in
  let span =
    if Tracer.enabled fed.tracer then
      Tracer.begin_span fed.tracer ~parent:ctx.txn_span ~actor
        (Span.Phase { gid = ctx.gid; phase = ph })
    else -1
  in
  match f span with
  | r ->
    end_phase fed ctx ph span start;
    r
  | exception e ->
    end_phase fed ctx ph span start;
    raise e

let decide (fed : Federation.t) ctx ~presumed_abort ~commit =
  let gid = ctx.gid in
  Trace.record_gid fed.trace ~actor:ctx.coord ~gid
    (if commit then "decision:commit" else "decision:abort");
  if not presumed_abort then Federation.journal_decide fed ~gid ~commit;
  if Tracer.enabled fed.tracer then
    Tracer.instant fed.tracer ~actor:ctx.coord (Span.Decision { gid; commit });
  (* presumed abort: the instant comes first, and only commits are
     force-logged — aborts are presumed *)
  if presumed_abort && commit then Federation.journal_decide fed ~gid ~commit

let close (fed : Federation.t) ctx ?log ?locks outcome =
  let gid = ctx.gid and actor = ctx.coord in
  (match log with Some log -> Action_log.remove (log fed) ~gid | None -> ());
  Federation.journal_close fed ~gid;
  (match locks with Some locks -> Federation.release_owner fed ~gid locks | None -> ());
  Tracer.end_span fed.tracer ctx.txn_span;
  (match outcome with
  | Global.Committed ->
    Metrics.txn_committed fed.metrics ~response_time:(Sim.now fed.engine -. ctx.start);
    Serialization_graph.record_outcome fed.graph ~gid ~committed:true;
    Trace.record_gid fed.trace ~actor ~gid "committed"
  | Global.Aborted cause ->
    Metrics.txn_aborted fed.metrics;
    Serialization_graph.record_outcome fed.graph ~gid ~committed:false;
    if Trace.enabled fed.trace then
      Trace.record_gid fed.trace ~actor ~gid
        (Format.asprintf "aborted (%a)" Global.pp_abort_cause cause));
  outcome

(* --- decision-phase traffic ---------------------------------------------

   All post-decision coordinator->site traffic (commit/abort/undo requests
   and their "finished" acks) goes through these two helpers so that, when
   the federation has message batching on, same-window decisions to one site
   share a wire envelope. With batching off they are exactly the plain
   [Link.rpc]/[Link.send]. *)

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

let undo_program (fed : Federation.t) ~gid ~site =
  match
    List.find_opt
      (fun (e : Action_log.entry) -> e.site = site)
      (Action_log.entries fed.undo_log ~gid)
  with
  | Some e -> e.program
  | None -> failwith "Protocol_common.undo_program: missing undo-log entry"

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

(* --- the flat commit skeleton --------------------------------------------

   One run for every flat protocol: open → gate → execute → inquire →
   decide → apply → close. What differs between protocols is, per branch,
   where the local commit falls relative to the global decision (the leg),
   plus the two presumed-abort and 2PC quirks in the policy. *)

type leg = Middle | After | Before

type policy = {
  protocol : string;
  prepared : leg;
  unprepared : leg option;
  presumed_abort : bool;
  inquire_on_failure : bool;
}

(* A branch's progress. [Running]: a Middle or After leg executed, its
   local transaction left open (an After leg stays [Running] through its
   ready vote). [Committed]: a Before leg committed unilaterally, or a
   presumed-abort read-only Middle leg committed at prepare. *)
type state = Running of Db.txn | Prepared of Db.txn | Committed | Failed of Global.abort_cause

type branch_run = { branch : Global.branch; leg : leg; mutable state : state }

let local_abort (b : Global.branch) reason =
  Failed (Global.Local_abort { site = b.site; reason })

let prepare_capable (fed : Federation.t) site =
  (Db.capabilities (Site.db (Federation.site fed site))).supports_prepare

(* Send the branch's program to the site and run it in a fresh local
   transaction, with the commit-marker write [marker] appended for an After
   or Before leg. A Middle or After leg leaves it running, inside a
   [Branch] span under [parent]. A Before leg's communication manager
   commits it as soon as its last action finishes, the undo-log entry
   written first; the marker materialises "this local committed" inside the
   local database itself ([WV 90]), so recovery reads it instead of
   guessing. *)
let execute (fed : Federation.t) ~gid ~parent leg (b : Global.branch) ~marker =
  let site = Federation.site fed b.site in
  let db = Site.db site in
  let bspan =
    if leg <> Before && Tracer.enabled fed.tracer then
      Tracer.begin_span fed.tracer ~parent ~actor:b.site
        (Span.Branch { gid; site = b.site })
    else -1
  in
  let body () =
    Link.rpc ~gid (Site.link site) ~label:"execute" (fun () ->
        match Db.begin_txn_opt db with
        | None -> ("execute-failed", local_abort b Db.Site_crashed)
        | Some txn -> (
          Federation.journal_branch fed ~gid ~site:b.site ~txn_id:(Db.txn_id txn);
          let program = if leg = Middle then b.program else b.program @ marker in
          match (Program.run db txn program, leg) with
          | Error r, _ ->
            Db.abort db txn;
            ("execute-failed", local_abort b r)
          | Ok (), (Middle | After) ->
            Trace.record_gid fed.trace ~actor:b.site ~gid "executed";
            ("executed", Running txn)
          | Ok (), Before when not b.vote_commit ->
            Db.abort db txn;
            ("executed-aborted", Failed (Global.Voted_abort b.site))
          | Ok (), Before -> (
            let inverse = Program.inverse_of_accesses (Db.accesses txn) in
            Action_log.append fed.undo_log ~gid
              { site = b.site; program = inverse; tag = "inverse" };
            match Db.commit db txn with
            | Ok () ->
              graph_local fed ~gid ~site:b.site ~compensation:false txn;
              Trace.record_gid fed.trace ~actor:b.site ~gid "locally-committed";
              ("executed-committed", Committed)
            | Error r -> ("execute-failed", local_abort b r))))
  in
  match body () with
  | r ->
    Tracer.end_span fed.tracer bspan;
    r
  | exception e ->
    Tracer.end_span fed.tracer bspan;
    raise e

let abort_vote db txn (b : Global.branch) =
  Db.abort db txn;
  ("abort-vote", Failed (Global.Voted_abort b.site))

(* The inquiry for one branch. A Before leg reports its final state (a
   crashed site answers after recovery); a running leg votes: a Middle leg
   enters the ready state, an After leg only reports that its transaction
   is still alive — it may yet die. *)
let inquire (fed : Federation.t) ~gid ~presumed_abort r =
  let b = r.branch in
  let site = Federation.site fed b.site in
  let db = Site.db site in
  match (r.leg, r.state) with
  | Before, st ->
    Link.rpc ~gid (Site.link site) ~label:"prepare" (fun () ->
        Site.await_up site;
        ((match st with Committed -> "committed" | _ -> "aborted"), ()))
  | After, Running txn ->
    r.state <-
      Link.rpc ~gid (Site.link site) ~label:"prepare" (fun () ->
          if not b.vote_commit then abort_vote db txn b
          else
            match Db.state txn with
            | `Running ->
              Trace.record_gid fed.trace ~actor:b.site ~gid "ready";
              ("ready", r.state)
            | `Aborted reason -> ("abort-vote", local_abort b reason)
            | `Prepared | `Committed ->
              invalid_arg "Protocol_common: After leg in impossible state")
  | Middle, Running txn ->
    r.state <-
      Link.rpc ~gid (Site.link site) ~label:"prepare" (fun () ->
          if not b.vote_commit then abort_vote db txn b
          else if presumed_abort && Program.is_read_only b.program then begin
            (* Read-only optimization: commit right now, skip the second
               phase entirely. *)
            match Db.commit db txn with
            | Ok () ->
              graph_local fed ~gid ~site:b.site ~compensation:false txn;
              Trace.record_gid fed.trace ~actor:b.site ~gid "read-only";
              ("read-only-vote", Committed)
            | Error reason -> ("abort-vote", local_abort b reason)
          end
          else
            match Db.prepare db txn with
            | Ok () ->
              Trace.record_gid fed.trace ~actor:b.site ~gid "ready";
              ("ready", Prepared txn)
            | Error reason -> ("abort-vote", local_abort b reason))
  | (Middle | After), (Prepared _ | Committed | Failed _) -> ()

(* §3.2's repetition ([Redo]) or §3.3's and §4's compensation
   ([Compensate]) of one local transaction at [site], in its own phase span
   there: [program] until an incarnation commits, guarded by [marker]. *)
let repair (fed : Federation.t) ctx ~site ph ~marker ~label program =
  let gid = ctx.gid and compensation = ph = Span.Compensate in
  phase fed ctx ~actor:site ph (fun _ ->
      ignore
        (persistently_apply fed ~gid ~site ~marker ~compensation
           ~on_attempt:(fun () ->
             if compensation then Metrics.compensation fed.metrics
             else Metrics.repetition fed.metrics;
             Trace.record_gid fed.trace ~actor:site ~gid label)
           program))

(* The decision's work at one branch, if it has any. A crashed participant
   holding a prepared transaction in doubt gets the decision after its
   recovery. *)
let apply (fed : Federation.t) ctx ~presumed_abort ~commit r =
  let b = r.branch and gid = ctx.gid in
  match (r.leg, r.state) with
  | Middle, Running txn ->
    (* 2PC after an execution failure: no inquiry, abort the survivors *)
    Some
      (fun () ->
        decision_rpc fed ~gid ~site:b.site ~label:"abort" (fun () ->
            Db.abort (Site.db (Federation.site fed b.site)) txn;
            "finished"))
  | Middle, Prepared txn when presumed_abort && not commit ->
    (* no stable decision record, and the abort needs no acknowledgement *)
    Some
      (fun () ->
        decision_send fed ~gid ~site:b.site ~label:"abort" (fun () ->
            resolve_prepared_durably fed ~site:b.site ~txn_id:(Db.txn_id txn)
              ~commit:false;
            Trace.record_gid fed.trace ~actor:b.site ~gid "aborted"))
  | Middle, Prepared txn ->
    Some
      (fun () ->
        let label = if commit then "commit" else "abort" in
        decision_rpc fed ~gid ~site:b.site ~label (fun () ->
            resolve_prepared_durably fed ~site:b.site ~txn_id:(Db.txn_id txn) ~commit;
            if commit then graph_local fed ~gid ~site:b.site ~compensation:false txn;
            Trace.record_gid fed.trace ~actor:b.site ~gid
              (if commit then "committed" else "aborted");
            "finished"))
  | After, Running txn ->
    Some
      (fun () ->
        let db = Site.db (Federation.site fed b.site) in
        let label = if commit then "commit" else "abort" in
        decision_rpc fed ~gid ~site:b.site ~label (fun () ->
            if not commit then Db.abort db txn
            else begin
              match Db.commit db txn with
              | Ok () -> graph_local fed ~gid ~site:b.site ~compensation:false txn
              | Error _ ->
                (* erroneous abort after the ready answer: repeat it *)
                repair fed ctx ~site:b.site Span.Redo ~marker:(commit_marker ~gid)
                  ~label:"redo-execution" b.program
            end;
            Trace.record_gid fed.trace ~actor:b.site ~gid
              (if commit then "committed" else "aborted");
            "finished"))
  | Before, Committed when not commit ->
    Some
      (fun () ->
        decision_rpc fed ~gid ~site:b.site ~label:"undo" (fun () ->
            repair fed ctx ~site:b.site Span.Compensate ~marker:(undo_marker ~gid ~seq:0)
              ~label:"undo-execution" (undo_program fed ~gid ~site:b.site);
            Trace.record_gid fed.trace ~actor:b.site ~gid "undone";
            "finished"))
  | _ -> None

let first_failure runs =
  List.find_map (fun r -> match r.state with Failed c -> Some c | _ -> None) runs

let run policy =
  let uses leg = policy.prepared = leg || policy.unprepared = Some leg in
  let redo_log = uses After and undo_log = uses Before in
  (* After and Before legs need the additional global CC module (§3.2's and
     §3.3's serializability requirement) and the commit marker *)
  let global_cc = redo_log || undo_log in
  (* only Before legs have nothing to commit after the decision *)
  let local_commit_phase = uses Middle || uses After in
  let locks = if global_cc then Some (fun (c : Federation.coordinator) -> c.cc) else None in
  let log : (Federation.t -> Action_log.t) option =
    match (redo_log, undo_log) with
    | true, true -> invalid_arg "Protocol_common.run: After and Before legs in one policy"
    | true, false -> Some (fun fed -> fed.redo_log)
    | false, true -> Some (fun fed -> fed.undo_log)
    | false, false -> None
  in
  let presumed_abort = policy.presumed_abort in
  let leg_at fed (b : Global.branch) =
    match policy.unprepared with
    | Some leg when leg <> policy.prepared && not (prepare_capable fed b.site) -> leg
    | _ -> policy.prepared
  in
  fun (fed : Federation.t) (spec : Global.spec) ->
    let gid = spec.gid in
    let ctx =
      open_run fed ~gid
        ~sites:(List.map (fun (b : Global.branch) -> b.site) spec.branches)
        ~protocol:policy.protocol
    in
    let unsupported =
      if Option.is_some policy.unprepared then None
      else
        List.find_opt
          (fun (b : Global.branch) -> not (prepare_capable fed b.site))
          spec.branches
    in
    match unsupported with
    | Some b -> close fed ctx (Aborted (Unsupported_site b.site))
    | None when global_cc && not (acquire_global_locks fed ~gid spec) ->
      close fed ctx (Aborted Global_cc_denied)
    | None ->
      (* Stable redo-log entry per After leg, before anything executes. *)
      if redo_log then
        List.iter
          (fun (b : Global.branch) ->
            if leg_at fed b = After then
              Action_log.append fed.redo_log ~gid
                { site = b.site; program = b.program; tag = "branch" })
          spec.branches;
      let marker = if global_cc then [ Program.Write (commit_marker ~gid, 1) ] else [] in
      let runs =
        phase fed ctx Span.Execute (fun sp ->
            Fiber.all fed.engine
              (List.map
                 (fun (b : Global.branch) () ->
                   let leg = leg_at fed b in
                   { branch = b; leg; state = execute fed ~gid ~parent:sp leg b ~marker })
                 spec.branches))
      in
      fed.central_fail ~gid "executed";
      (* 2PC needs no commit protocol once a branch failed to execute *)
      let inquiry = policy.inquire_on_failure || Option.is_none (first_failure runs) in
      if inquiry then begin
        Trace.record_gid fed.trace ~actor:ctx.coord ~gid "inquire";
        phase fed ctx Span.Vote (fun _ ->
            ignore
              (Fiber.all fed.engine
                 (List.map (fun r () -> inquire fed ~gid ~presumed_abort r) runs)));
        fed.central_fail ~gid "voted"
      end;
      let cause = first_failure runs in
      let commit = Option.is_none cause in
      decide fed ctx ~presumed_abort ~commit;
      if inquiry && (commit || not presumed_abort) then fed.central_fail ~gid "decided";
      let applies = List.filter_map (apply fed ctx ~presumed_abort ~commit) runs in
      if local_commit_phase then
        phase fed ctx Span.Local_commit (fun _ -> ignore (Fiber.all fed.engine applies))
      else ignore (Fiber.all fed.engine applies);
      close fed ctx ?log ?locks
        (match cause with None -> Committed | Some cause -> Aborted cause)
