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

let crash (fed : Federation.t) =
  Lock.reset fed.global_cc;
  Lock.reset fed.l1_locks;
  (* a central crash takes the whole volatile CC state with it, the shard
     coordinators' tables included; per-shard crashes go through
     {!Federation.shard_crash} instead *)
  Array.iter
    (fun (sh : Federation.shard) ->
      Lock.reset sh.sh_cc;
      Lock.reset sh.sh_l1)
    fed.shards

(* Same marker scheme as Commit_before_mlt. *)
let action_marker ~gid ~seq = "__am:" ^ string_of_int gid ^ ":" ^ string_of_int seq

(* Shared per-entry resolution: push [decision] to the entry's branches and
   action-log records, restricted to sites satisfying [site_ok] (always
   true for whole-federation recovery; a shard's member set when a shard
   coordinator recovers a cross-shard mirror, so it only touches its own
   slice). All paths are marker-guarded/idempotent, so overlapping recovery
   passes — or recovery racing the still-running top-level coordinator —
   converge on the same state. *)
let resolve_entry (fed : Federation.t) ~gid ~(entry : Federation.journal_entry)
    ~decision ~site_ok ~pushed ~aborted ~redone ~undone =
  let resolve_or_abort site_name txn_id =
    let site = Federation.site fed site_name in
    Site.await_up site;
    let db = Site.db site in
    if Db.abort_txn_id db ~txn_id then incr aborted
    else
      match Db.resolve_prepared db ~txn_id ~commit:decision with
      | () -> incr pushed
      | exception Failure _ -> () (* already finished before the crash *)
  in
  let undo_branch site_name =
    let site = Federation.site fed site_name in
    (* A down site's heap lacks what only its restart redoes, the commit
       marker included: read the marker once the site is back. *)
    Site.await_up site;
    let db = Site.db site in
    if Db.committed_value db (commit_marker ~gid) = Some 1 then begin
      let inverse =
        match
          List.find_opt
            (fun (e : Action_log.entry) -> e.site = site_name)
            (Action_log.entries fed.undo_log ~gid)
        with
        | Some e -> e.program
        | None -> failwith "Central_recovery: missing undo-log entry"
      in
      if
        persistently_apply fed ~gid ~site:site_name ~marker:(undo_marker ~gid ~seq:0)
          ~compensation:true
          ~on_attempt:(fun () -> Metrics.compensation fed.metrics)
          inverse
      then incr undone
    end
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
          let db = Site.db site in
          List.iter
            (fun (s, txn_id) ->
              if s = e.site && Db.abort_txn_id db ~txn_id then incr aborted)
            entry.j_branches;
          if
            persistently_apply fed ~gid ~site:e.site ~marker:(commit_marker ~gid)
              ~compensation:false
              ~on_attempt:(fun () -> Metrics.repetition fed.metrics)
              e.program
          then incr redone
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
               List.iter
                 (fun (s, txn_id) ->
                   if s = e.site && Db.abort_txn_id db ~txn_id then incr aborted)
                 entry.j_branches;
               if Db.committed_value db (action_marker ~gid ~seq) = Some 1 then
                 if
                   persistently_apply fed ~gid ~site:e.site
                     ~marker:(undo_marker ~gid ~seq) ~compensation:true
                     ~on_attempt:(fun () -> Metrics.compensation fed.metrics)
                     e.program
                 then incr undone
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

(* The last word on an in-doubt gid before abort is presumed: with Paxos
   Commit installed, ask the acceptor quorum — an accepted value there is a
   decision the crashed coordinator made durable even though its own journal
   never saw it. *)
let quorum_decision (fed : Federation.t) ~gid =
  match fed.decision_recover with Some read -> read ~gid | None -> None

let recover (fed : Federation.t) =
  let pushed = ref 0 and aborted = ref 0 and redone = ref 0 and undone = ref 0 in
  let entries = Federation.journal_open_entries fed in
  List.iter
    (fun ((gid : int), (entry : Federation.journal_entry)) ->
      let decision =
        match entry.j_phase with
        | Federation.Decided d -> d
        | Federation.Executing -> (
          (* a decision forced at any coordinator (e.g. the top level, with
             the shard-decide push lost) beats the presumption of abort *)
          match Federation.decision fed ~gid with
          | Some d -> d
          | None -> (
            match quorum_decision fed ~gid with
            | Some d -> d
            | None -> false (* presumed abort *)))
      in
      resolve_entry fed ~gid ~entry ~decision
        ~site_ok:(fun _ -> true)
        ~pushed ~aborted ~redone ~undone;
      Action_log.remove fed.redo_log ~gid;
      Action_log.remove fed.undo_log ~gid;
      Action_log.remove fed.mlt_undo_log ~gid;
      Serialization_graph.record_outcome fed.graph ~gid ~committed:decision;
      Federation.journal_close fed ~gid)
    entries;
  {
    entries_recovered = List.length entries;
    decisions_pushed = !pushed;
    locals_aborted = !aborted;
    branches_redone = !redone;
    branches_undone = !undone;
  }

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
     commitment cannot avoid. *)
let recover_shard (fed : Federation.t) ~shard =
  if shard < 0 || shard >= Array.length fed.shards then
    invalid_arg "Central_recovery.recover_shard";
  let sh = fed.shards.(shard) in
  let pushed = ref 0 and aborted = ref 0 and redone = ref 0 and undone = ref 0 in
  let entries =
    Hashtbl.fold (fun gid e acc -> (gid, e) :: acc) sh.sh_journal []
    |> List.sort compare
  in
  let recovered = ref 0 in
  List.iter
    (fun ((gid : int), (entry : Federation.journal_entry)) ->
      let local = match Federation.route fed gid with Some [| _ |] -> true | _ -> false in
      let decision =
        match entry.j_phase with
        | Federation.Decided d -> Some d
        | Federation.Executing ->
          let logged =
            match Federation.decision fed ~gid with
            | Some d -> Some d
            | None -> quorum_decision fed ~gid
          in
          if local then Some (Option.value ~default:false logged) else logged
      in
      match decision with
      | None -> () (* cross-shard, in doubt: wait for the top level *)
      | Some d ->
        incr recovered;
        let site_ok site =
          local || List.mem site sh.sh_sites
        in
        resolve_entry fed ~gid ~entry ~decision:d ~site_ok ~pushed ~aborted ~redone
          ~undone;
        (* the shard learns (and keeps) the decision it just applied *)
        Icdb_util.Gid_store.Bool.replace sh.sh_decision_log gid d;
        if local then begin
          Action_log.remove fed.redo_log ~gid;
          Action_log.remove fed.undo_log ~gid;
          Action_log.remove fed.mlt_undo_log ~gid;
          Serialization_graph.record_outcome fed.graph ~gid ~committed:d;
          Federation.journal_close fed ~gid
        end
        else
          (* retire only this shard's mirror; the top-level entry, action
             logs and graph outcome belong to the top-level coordinator *)
          Hashtbl.remove sh.sh_journal gid)
    entries;
  {
    entries_recovered = !recovered;
    decisions_pushed = !pushed;
    locals_aborted = !aborted;
    branches_redone = !redone;
    branches_undone = !undone;
  }

(* Completion of ONE in-doubt transaction by a freshly elected Paxos leader,
   without waiting for the crashed coordinator's full restart recovery. The
   caller ({!Paxos_commit}) has already driven the prepare/accept rounds, so
   by the time this runs the decision is durable at the acceptor quorum and
   {!Federation.t.decision_recover} can read it back. Everything below is
   the per-entry tail of {!recover}, restricted to [gid]; marker guards make
   it idempotent and safe to race a later whole-federation [recover]. *)
let takeover (fed : Federation.t) ~gid =
  let entry_opt =
    match Federation.route fed gid with
    | Some [| s |] -> Hashtbl.find_opt fed.shards.(s).sh_journal gid
    | Some _ | None -> Hashtbl.find_opt fed.journal gid
  in
  match entry_opt with
  | None -> false (* already closed: nothing was in doubt *)
  | Some entry ->
    let decision =
      match entry.j_phase with
      | Federation.Decided d -> d
      | Federation.Executing -> (
        match Federation.decision fed ~gid with
        | Some d -> d
        | None -> (
          match quorum_decision fed ~gid with
          | Some d -> d
          | None -> false (* presumed abort, as [recover] would *)))
    in
    let pushed = ref 0 and aborted = ref 0 and redone = ref 0 and undone = ref 0 in
    resolve_entry fed ~gid ~entry ~decision
      ~site_ok:(fun _ -> true)
      ~pushed ~aborted ~redone ~undone;
    Action_log.remove fed.redo_log ~gid;
    Action_log.remove fed.undo_log ~gid;
    Action_log.remove fed.mlt_undo_log ~gid;
    Federation.log_decision fed ~gid ~commit:decision;
    Serialization_graph.record_outcome fed.graph ~gid ~committed:decision;
    Federation.journal_close fed ~gid;
    true
