module Sim = Icdb_sim.Engine
module Fiber = Icdb_sim.Fiber
module Trace = Icdb_sim.Trace
module Site = Icdb_net.Site
module Link = Icdb_net.Link
module Db = Icdb_localdb.Engine
module Program = Icdb_localdb.Program
module Span = Icdb_obs.Span
open Protocol_common

type vote =
  | Ready of Db.txn
  | Read_only  (** already committed at prepare time; no second phase *)
  | No of Global.abort_cause

let run (fed : Federation.t) (spec : Global.spec) =
  let gid = spec.gid in
  let start = Sim.now fed.engine in
  Metrics.txn_started fed.metrics;
  Federation.journal_open_routed fed
    ~sites:(List.map (fun (b : Global.branch) -> b.site) spec.branches)
    ~gid ~protocol:"2pc-pa";
  let obs = obs_begin fed ~gid ~protocol:"2pc-pa" in
  let coord = coordinator_actor obs in
  Trace.record_gid fed.trace ~actor:coord ~gid "running";
  let unsupported =
    List.find_opt
      (fun (b : Global.branch) ->
        not (Db.capabilities (Site.db (Federation.site fed b.site))).supports_prepare)
      spec.branches
  in
  match unsupported with
  | Some b ->
    Federation.journal_close fed ~gid;
    finish fed ~gid ~start ~obs (Aborted (Unsupported_site b.site))
  | None ->
    let results =
      obs_phase fed obs ~gid Span.Execute (fun sp ->
          fanout fed
            (List.map
               (fun (b : Global.branch) ->
                 (fun () -> (b, execute_branch fed ~gid ~parent:sp b ~extra_ops:[])))
               spec.branches))
    in
    fed.central_fail ~gid "executed";
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
                   else if Program.is_read_only b.program then begin
                     (* Read-only optimization: commit right now, skip the
                        second phase entirely. *)
                     match Db.commit db txn with
                     | Ok () ->
                       graph_local fed ~gid ~site:b.site ~compensation:false txn;
                       Trace.record_gid fed.trace ~actor:b.site ~gid "read-only";
                       ("read-only-vote", (b, Read_only))
                     | Error r ->
                       ( "abort-vote",
                         (b, No (Global.Local_abort { site = b.site; reason = r })) )
                   end
                   else
                     match Db.prepare db txn with
                     | Ok () ->
                       Trace.record_gid fed.trace ~actor:b.site ~gid "ready";
                       ("ready", (b, Ready txn))
                     | Error r ->
                       ( "abort-vote",
                         (b, No (Global.Local_abort { site = b.site; reason = r })) ))))
           results)
    in
    let abort_cause =
      List.find_map
        (function _, No cause -> Some cause | _, (Ready _ | Read_only) -> None)
        votes
    in
    fed.central_fail ~gid "voted";
    let decide_commit = Option.is_none abort_cause in
    Trace.record_gid fed.trace ~actor:coord ~gid
      (if decide_commit then "decision:commit" else "decision:abort");
    obs_decision fed obs ~gid ~commit:decide_commit;
    if decide_commit then begin
      (* Only commits are force-logged — aborts are presumed. *)
      Federation.journal_decide fed ~gid ~commit:true;
      fed.central_fail ~gid "decided";
      obs_phase fed obs ~gid Span.Local_commit @@ fun _ ->
      ignore
        (fanout fed
           (List.filter_map
              (function
                | (b : Global.branch), Ready txn ->
                  Some
                    (fun () ->
                        decision_rpc fed ~gid ~site:b.site ~label:"commit" (fun () ->
                            resolve_prepared_durably fed ~site:b.site
                              ~txn_id:(Db.txn_id txn) ~commit:true;
                            graph_local fed ~gid ~site:b.site ~compensation:false
                              txn;
                            Trace.record_gid fed.trace ~actor:b.site ~gid "committed";
                            "finished"))
                | _, (Read_only | No _) -> None)
              votes))
    end
    else
      (* Presumed abort: no stable decision record, and the abort messages
         need no acknowledgement. *)
      obs_phase fed obs ~gid Span.Local_commit (fun _ ->
          ignore
            (fanout fed
               (List.filter_map
                  (function
                    | (b : Global.branch), Ready txn ->
                      Some
                        (fun () ->
                            decision_send fed ~gid ~site:b.site ~label:"abort"
                              (fun () ->
                                resolve_prepared_durably fed ~site:b.site
                                  ~txn_id:(Db.txn_id txn) ~commit:false;
                                Trace.record_gid fed.trace ~actor:b.site ~gid "aborted"))
                    | _, (Read_only | No _) -> None)
                  votes)));
    Federation.journal_close fed ~gid;
    let outcome =
      if decide_commit then Global.Committed else Global.Aborted (Option.get abort_cause)
    in
    finish fed ~gid ~start ~obs outcome
