module Lock = Icdb_lock.Lock_table
module Site = Icdb_net.Site
module Db = Icdb_localdb.Engine
open Protocol_common

type summary = {
  entries_recovered : int;
  decisions_pushed : int;
  locals_aborted : int;
  branches_redone : int;
  branches_undone : int;
}

let pp_summary fmt s =
  Format.fprintf fmt
    "recovered %d entries: %d decisions pushed, %d locals aborted, %d redone, %d undone"
    s.entries_recovered s.decisions_pushed s.locals_aborted s.branches_redone
    s.branches_undone

(* A central crash takes the whole volatile CC state with it, the shard
   coordinators' tables included; a crash of one shard coordinator is
   {!Federation.crash} on that coordinator alone. *)
let crash (fed : Federation.t) = Federation.iter_coordinators fed Federation.crash

type tally = {
  mutable recovered : int;
  mutable pushed : int;
  mutable aborted : int;
  mutable redone : int;
  mutable undone : int;
}

let tally () = { recovered = 0; pushed = 0; aborted = 0; redone = 0; undone = 0 }

let summary t =
  {
    entries_recovered = t.recovered;
    decisions_pushed = t.pushed;
    locals_aborted = t.aborted;
    branches_redone = t.redone;
    branches_undone = t.undone;
  }

(* Push [decision] to the entry's branches and action-log records,
   restricted to sites satisfying [site_ok]. All paths are
   marker-guarded/idempotent, so overlapping recovery passes — or recovery
   racing the still-running top-level coordinator — converge on the same
   state. *)
let apply (fed : Federation.t) ~gid ~(entry : Federation.journal_entry) ~decision
    ~site_ok tally =
  let resolve_or_abort site_name txn_id =
    let site = Federation.site fed site_name in
    Site.await_up site;
    let db = Site.db site in
    if Db.abort_txn_id db ~txn_id then tally.aborted <- tally.aborted + 1
    else
      match Db.resolve_prepared db ~txn_id ~commit:decision with
      | () -> tally.pushed <- tally.pushed + 1
      | exception Failure _ -> () (* already finished before the crash *)
  in
  let undo_branch site_name =
    let site = Federation.site fed site_name in
    (* A down site's heap lacks what only its restart redoes, the commit
       marker included: read the marker once the site is back. *)
    Site.await_up site;
    let db = Site.db site in
    if Db.committed_value db (commit_marker ~gid) = Some 1 then begin
      if
        persistently_apply fed ~gid ~site:site_name ~marker:(undo_marker ~gid ~seq:0)
          ~compensation:true
          ~on_attempt:(fun () -> Metrics.compensation fed.metrics)
          (undo_program fed ~gid ~site:site_name)
      then tally.undone <- tally.undone + 1
    end
  in
  (* roll back whatever original still runs at [site] *)
  let abort_running db site =
    List.iter
      (fun (s, txn_id) ->
        if s = site && Db.abort_txn_id db ~txn_id then tally.aborted <- tally.aborted + 1)
      entry.j_branches
  in
  match entry.j_protocol with
  | "after" when decision ->
    (* Complete phase 2: any still-running original is rolled back and
       the branch re-executed from the redo-log unless its marker shows
       a commit already happened. *)
    List.iter
      (fun (e : Action_log.entry) ->
        if site_ok e.site then begin
          let site = Federation.site fed e.site in
          Site.await_up site;
          abort_running (Site.db site) e.site;
          if
            persistently_apply fed ~gid ~site:e.site ~marker:(commit_marker ~gid)
              ~compensation:false
              ~on_attempt:(fun () -> Metrics.repetition fed.metrics)
              e.program
          then tally.redone <- tally.redone + 1
        end)
      (Action_log.entries fed.redo_log ~gid)
  | "mlt" ->
    if not decision then begin
      (* Undo committed actions in reverse order; the per-action marker
         tells which ones committed. *)
      let actions = Action_log.entries fed.mlt_undo_log ~gid in
      List.rev (List.mapi (fun seq e -> (seq, e)) actions)
      |> List.iter (fun (seq, (e : Action_log.entry)) ->
             if site_ok e.site then begin
               let site = Federation.site fed e.site in
               Site.await_up site;
               let db = Site.db site in
               (* roll back a still-running action first *)
               abort_running db e.site;
               if Db.committed_value db (action_marker ~gid ~seq) = Some 1 then
                 if
                   persistently_apply fed ~gid ~site:e.site
                     ~marker:(undo_marker ~gid ~seq) ~compensation:true
                     ~on_attempt:(fun () -> Metrics.compensation fed.metrics)
                     e.program
                 then tally.undone <- tally.undone + 1
             end)
    end
  | _ ->
    (* 2pc and commitment-before shapes (incl. presumed-abort and hybrid
       variants): resolve prepared locals, abort orphaned running ones,
       and on a (presumed) abort compensate unilaterally committed
       commitment-before locals. *)
    List.iter
      (fun (site, txn_id) -> if site_ok site then resolve_or_abort site txn_id)
      entry.j_branches;
    if not decision then
      List.iter
        (fun (e : Action_log.entry) -> if site_ok e.site then undo_branch e.site)
        (Action_log.entries fed.undo_log ~gid)

(* What is known of [gid]'s decision: the entry's own phase, a decision
   logged at any coordinator (e.g. the top level decided but the
   shard-decide push was lost), or — with Paxos Commit installed — what the
   acceptor quorum accepted, a decision the crashed coordinator made durable
   even though its own journal never saw it. [None] when all are silent. *)
let known_decision (fed : Federation.t) ~gid (entry : Federation.journal_entry) =
  match entry.j_phase with
  | Federation.Decided d -> Some d
  | Federation.Executing -> (
    match Federation.decision fed ~gid with
    | Some d -> Some d
    | None -> ( match fed.decision_recover with Some read -> read ~gid | None -> None))

let presumed_abort fed ~gid entry =
  Option.value ~default:false (known_decision fed ~gid entry)

(* Apply [decision] at [coordinator] and retire [gid]'s entry there. The
   gid's owner completes the whole transaction: every branch, the action
   logs, the graph outcome and the journal close. Any other coordinator
   holds a cross-shard mirror: it pushes the decision to its own sites only
   and retires just the mirror, since the rest belongs to the top-level
   coordinator. [log_at], when given, records the decision in that
   coordinator's stable log. *)
let resolve (fed : Federation.t) ~(coordinator : Federation.coordinator) ~gid ~entry
    ~decision ?log_at tally =
  let owned = Federation.owner fed ~gid == coordinator in
  let site_ok site = owned || List.mem site coordinator.members in
  apply fed ~gid ~entry ~decision ~site_ok tally;
  tally.recovered <- tally.recovered + 1;
  Option.iter
    (fun (c : Federation.coordinator) ->
      Icdb_util.Gid_store.Bool.replace c.decision_log gid decision)
    log_at;
  if owned then begin
    Action_log.remove fed.redo_log ~gid;
    Action_log.remove fed.undo_log ~gid;
    Action_log.remove fed.mlt_undo_log ~gid;
    Serialization_graph.record_outcome fed.graph ~gid ~committed:decision;
    Federation.journal_close fed ~gid
  end
  else Hashtbl.remove coordinator.journal gid

let recover (fed : Federation.t) =
  let t = tally () in
  List.iter
    (fun (gid, entry) ->
      resolve fed ~coordinator:(Federation.owner fed ~gid) ~gid ~entry
        ~decision:(presumed_abort fed ~gid entry) t)
    (Federation.journal_open_entries fed);
  summary t

(* Restart recovery of one shard coordinator, independent of the others.

   Two kinds of entries can be open in a shard's journal:

   - The shard's own transactions (single-shard fast path): the shard
     coordinator is their only coordinator, so they are resolved exactly as
     {!recover} would — push a [Decided] phase, presume abort otherwise —
     and closed.

   - Mirrors of cross-shard transactions: the shard is an L1 participant;
     the authority is the top-level decision log. A recorded top decision
     (the crash hit between the top-level force and this shard's
     "shard-decide" ack) is pushed to this shard's branches and the mirror
     retired. No top decision yet means the transaction is in doubt at this
     shard — it stays open for the top-level coordinator to finish (its
     close retires the mirror), which is the blocking window atomic
     commitment cannot avoid.

   Either way the shard learns (and keeps) the decision it applied. *)
let recover_shard (fed : Federation.t) ~shard =
  if shard < 0 || shard >= Array.length fed.shards then
    invalid_arg "Central_recovery.recover_shard";
  let c = fed.shards.(shard) in
  let t = tally () in
  Hashtbl.fold (fun gid e acc -> (gid, e) :: acc) c.journal []
  |> List.sort compare
  |> List.iter (fun (gid, entry) ->
         let decision =
           if Federation.owner fed ~gid == c then Some (presumed_abort fed ~gid entry)
           else known_decision fed ~gid entry
         in
         Option.iter
           (fun decision -> resolve fed ~coordinator:c ~gid ~entry ~decision ~log_at:c t)
           decision);
  summary t

(* Completion of ONE in-doubt transaction by a freshly elected Paxos leader,
   without waiting for the crashed coordinator's full restart recovery. The
   caller ({!Paxos_commit}) has already driven the prepare/accept rounds, so
   by the time this runs the decision is durable at the acceptor quorum and
   {!Federation.t.decision_recover} can read it back. Everything below is
   the per-entry tail of {!recover}, restricted to [gid]; marker guards make
   it idempotent and safe to race a later whole-federation [recover]. The
   decision is recorded in the central log, also for a fast-path gid. *)
let takeover (fed : Federation.t) ~gid =
  let coordinator = Federation.owner fed ~gid in
  match Hashtbl.find_opt coordinator.journal gid with
  | None -> false (* already closed: nothing was in doubt *)
  | Some entry ->
    resolve fed ~coordinator ~gid ~entry ~decision:(presumed_abort fed ~gid entry)
      ~log_at:fed.central (tally ());
    true
