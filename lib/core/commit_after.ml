module Sim = Icdb_sim.Engine
module Fiber = Icdb_sim.Fiber
module Trace = Icdb_sim.Trace
module Site = Icdb_net.Site
module Link = Icdb_net.Link
module Db = Icdb_localdb.Engine
module Program = Icdb_localdb.Program
module Span = Icdb_obs.Span
open Protocol_common

type vote = Ready of Db.txn | No of Global.abort_cause

(* Repeat the branch's local transaction until one incarnation commits. The
   commit marker written inside the transaction makes the loop idempotent:
   if a previous incarnation did commit (e.g. the crash hit after commit),
   no second execution happens. *)
let redo_until_committed (fed : Federation.t) ~gid ~obs (b : Global.branch) =
  obs_phase fed obs ~gid ~actor:b.site Span.Redo (fun _ ->
      ignore
        (persistently_apply fed ~gid ~site:b.site ~marker:(commit_marker ~gid)
           ~compensation:false
           ~on_attempt:(fun () ->
             Metrics.repetition fed.metrics;
             Trace.record_gid fed.trace ~actor:b.site ~gid "redo-execution")
           b.program))

let run (fed : Federation.t) (spec : Global.spec) =
  let gid = spec.gid in
  let start = Sim.now fed.engine in
  Metrics.txn_started fed.metrics;
  Federation.journal_open_routed fed
    ~sites:(List.map (fun (b : Global.branch) -> b.site) spec.branches)
    ~gid ~protocol:"after";
  let obs = obs_begin fed ~gid ~protocol:"after" in
  let coord = coordinator_actor obs in
  Trace.record_gid fed.trace ~actor:coord ~gid "running";
  if not (acquire_global_locks fed ~gid spec) then begin
    Federation.journal_close fed ~gid;
    finish fed ~gid ~start ~obs (Aborted Global_cc_denied)
  end
  else begin
    (* Stable redo-log entry per branch, before anything executes. *)
    List.iter
      (fun (b : Global.branch) ->
        Action_log.append fed.redo_log ~gid
          { site = b.site; program = b.program; tag = "branch" })
      spec.branches;
    let marker_op = [ Program.Write (commit_marker ~gid, 1) ] in
    let results =
      obs_phase fed obs ~gid Span.Execute (fun sp ->
          fanout fed
            (List.map
               (fun (b : Global.branch) ->
                 (fun () ->
                     (b, execute_branch fed ~gid ~parent:sp b ~extra_ops:marker_op)))
               spec.branches))
    in
    fed.central_fail ~gid "executed";
    (* The inquiry: communication managers answer from the running state. *)
    Trace.record_gid fed.trace ~actor:coord ~gid "inquire";
    let votes =
      obs_phase fed obs ~gid Span.Vote @@ fun _ ->
      fanout fed
        (List.map
           (fun (result : Global.branch * exec_status) ->
             (fun () ->
             let b, status = result in
             let site = Federation.site fed b.site in
             let db = Site.db site in
             match status with
             | Exec_failed r -> (b, No (Global.Local_abort { site = b.site; reason = r }))
             | Exec_ok txn ->
               Link.rpc ~gid (Site.link site) ~label:"prepare" (fun () ->
                   if not b.vote_commit then begin
                     Db.abort db txn;
                     ("abort-vote", (b, No (Global.Voted_abort b.site)))
                   end
                   else
                     (* No ready state: the vote only reports that the local
                        transaction is still alive. It may yet die. *)
                     match Db.state txn with
                     | `Running ->
                       Trace.record_gid fed.trace ~actor:b.site ~gid "ready";
                       ("ready", (b, Ready txn))
                     | `Aborted r ->
                       ( "abort-vote",
                         (b, No (Global.Local_abort { site = b.site; reason = r })) )
                     | `Prepared | `Committed ->
                       invalid_arg "Commit_after: local transaction in impossible state"))
             )
           results)
    in
    let abort_cause =
      List.find_map (function _, No cause -> Some cause | _, Ready _ -> None) votes
    in
    fed.central_fail ~gid "voted";
    let decide_commit = Option.is_none abort_cause in
    Trace.record_gid fed.trace ~actor:coord ~gid
      (if decide_commit then "decision:commit" else "decision:abort");
    Federation.journal_decide fed ~gid ~commit:decide_commit;
    obs_decision fed obs ~gid ~commit:decide_commit;
    fed.central_fail ~gid "decided";
    obs_phase fed obs ~gid Span.Local_commit (fun _ ->
        ignore
          (fanout fed
             (List.filter_map
                (function
                  | (b : Global.branch), Ready txn ->
                    Some
                      (fun () ->
                          let site = Federation.site fed b.site in
                          let db = Site.db site in
                          if decide_commit then
                            decision_rpc fed ~gid ~site:b.site ~label:"commit"
                              (fun () ->
                                (match Db.commit db txn with
                                | Ok () ->
                                  graph_local fed ~gid ~site:b.site
                                    ~compensation:false txn
                                | Error _ ->
                                  (* Erroneous abort after the ready answer: the
                                     §3.2 repair — repetition from the redo-log. *)
                                  redo_until_committed fed ~gid ~obs b);
                                Trace.record_gid fed.trace ~actor:b.site ~gid "committed";
                                "finished")
                          else
                            decision_rpc fed ~gid ~site:b.site ~label:"abort"
                              (fun () ->
                                Db.abort db txn;
                                Trace.record_gid fed.trace ~actor:b.site ~gid "aborted";
                                "finished"))
                  | _, No _ -> None)
                votes)));
    Action_log.remove fed.redo_log ~gid;
    Federation.journal_close fed ~gid;
    release_global_locks fed ~gid;
    let outcome =
      if decide_commit then Global.Committed else Global.Aborted (Option.get abort_cause)
    in
    finish fed ~gid ~start ~obs outcome
  end
