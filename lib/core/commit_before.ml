module Sim = Icdb_sim.Engine
module Fiber = Icdb_sim.Fiber
module Trace = Icdb_sim.Trace
module Site = Icdb_net.Site
module Link = Icdb_net.Link
module Db = Icdb_localdb.Engine
module Program = Icdb_localdb.Program
module Span = Icdb_obs.Span
open Protocol_common

type local_state = Locally_committed | Locally_aborted of Global.abort_cause

(* Run the inverse transaction for a branch until it commits, guarded by the
   undo marker (idempotence across crashes: §3.3's "doubly undone" hazard). *)
let undo_until_done (fed : Federation.t) ~gid ~obs (b : Global.branch) =
  let inverse =
    match
      List.find_opt
        (fun (e : Action_log.entry) -> e.site = b.site)
        (Action_log.entries fed.undo_log ~gid)
    with
    | Some entry -> entry.program
    | None -> failwith "Commit_before: missing undo-log entry"
  in
  obs_phase fed obs ~gid ~actor:b.site Span.Compensate (fun _ ->
      ignore
        (persistently_apply fed ~gid ~site:b.site ~marker:(undo_marker ~gid ~seq:0)
           ~compensation:true
           ~on_attempt:(fun () ->
             Metrics.compensation fed.metrics;
             Trace.record_gid fed.trace ~actor:b.site ~gid "undo-execution")
           inverse))

let run (fed : Federation.t) (spec : Global.spec) =
  let gid = spec.gid in
  let start = Sim.now fed.engine in
  Metrics.txn_started fed.metrics;
  Federation.journal_open_routed fed
    ~sites:(List.map (fun (b : Global.branch) -> b.site) spec.branches)
    ~gid ~protocol:"before";
  let obs = obs_begin fed ~gid ~protocol:"before" in
  let coord = coordinator_actor obs in
  Trace.record_gid fed.trace ~actor:coord ~gid "running";
  if not (acquire_global_locks fed ~gid spec) then begin
    Federation.journal_close fed ~gid;
    finish fed ~gid ~start ~obs (Aborted Global_cc_denied)
  end
  else begin
    (* Execute every branch; the communication manager commits the local
       transaction as soon as its last action finishes. *)
    let results =
      obs_phase fed obs ~gid Span.Execute @@ fun _ ->
      fanout fed
        (List.map
           (fun (b : Global.branch) ->
             (fun () ->
             let site = Federation.site fed b.site in
             let db = Site.db site in
             Link.rpc ~gid (Site.link site) ~label:"execute" (fun () ->
                 match Db.begin_txn_opt db with
                 | None ->
                   ( "execute-failed",
                     ( b,
                       Locally_aborted
                         (Global.Local_abort { site = b.site; reason = Db.Site_crashed })
                     ) )
                 | Some txn -> (
                   Federation.journal_branch fed ~gid ~site:b.site
                     ~txn_id:(Db.txn_id txn);
                   (* The commit marker materialises "this local committed"
                      inside the local database itself ([WV 90]); recovery —
                      site or central — reads it instead of guessing. *)
                   match
                     Program.run db txn
                       (b.program @ [ Program.Write (commit_marker ~gid, 1) ])
                   with
                   | Error r ->
                     Db.abort db txn;
                     ( "execute-failed",
                       (b, Locally_aborted (Global.Local_abort { site = b.site; reason = r }))
                     )
                   | Ok () ->
                     if not b.vote_commit then begin
                       Db.abort db txn;
                       ("executed-aborted", (b, Locally_aborted (Global.Voted_abort b.site)))
                     end
                     else begin
                       (* Undo-log entry first, then the unilateral local
                          commit. *)
                       let inverse = Program.inverse_of_accesses (Db.accesses txn) in
                       Action_log.append fed.undo_log ~gid
                         { site = b.site; program = inverse; tag = "inverse" };
                       match Db.commit db txn with
                       | Ok () ->
                         graph_local fed ~gid ~site:b.site ~compensation:false txn;
                         Trace.record_gid fed.trace ~actor:b.site ~gid "locally-committed";
                         ("executed-committed", (b, Locally_committed))
                       | Error r ->
                         ( "execute-failed",
                           ( b,
                             Locally_aborted
                               (Global.Local_abort { site = b.site; reason = r }) ) )
                     end))))
           spec.branches)
    in
    fed.central_fail ~gid "executed";
    (* The inquiry: ask every site for the final state of its local. A
       crashed site answers after recovery. *)
    Trace.record_gid fed.trace ~actor:coord ~gid "inquire";
    let states =
      obs_phase fed obs ~gid Span.Vote @@ fun _ ->
      fanout fed
        (List.map
           (fun (result : Global.branch * local_state) ->
             let b, st = result in
             (fun () ->
                 let site = Federation.site fed b.site in
                 Link.rpc ~gid (Site.link site) ~label:"prepare" (fun () ->
                     Site.await_up site;
                     match st with
                     | Locally_committed -> ("committed", (b, st))
                     | Locally_aborted _ -> ("aborted", (b, st)))))
           results)
    in
    let abort_cause =
      List.find_map
        (function _, Locally_aborted cause -> Some cause | _, Locally_committed -> None)
        states
    in
    fed.central_fail ~gid "voted";
    let decide_commit = Option.is_none abort_cause in
    Trace.record_gid fed.trace ~actor:coord ~gid
      (if decide_commit then "decision:commit" else "decision:abort");
    Federation.journal_decide fed ~gid ~commit:decide_commit;
    obs_decision fed obs ~gid ~commit:decide_commit;
    fed.central_fail ~gid "decided";
    if not decide_commit then
      (* Mixed outcome: compensate every locally-committed branch. *)
      ignore
        (fanout fed
           (List.filter_map
              (function
                | (b : Global.branch), Locally_committed ->
                  Some
                    (fun () ->
                        decision_rpc fed ~gid ~site:b.site ~label:"undo" (fun () ->
                            undo_until_done fed ~gid ~obs b;
                            Trace.record_gid fed.trace ~actor:b.site ~gid "undone";
                            "finished"))
                | _, Locally_aborted _ -> None)
              states));
    Action_log.remove fed.undo_log ~gid;
    Federation.journal_close fed ~gid;
    release_global_locks fed ~gid;
    let outcome =
      if decide_commit then Global.Committed else Global.Aborted (Option.get abort_cause)
    in
    finish fed ~gid ~start ~obs outcome
  end
