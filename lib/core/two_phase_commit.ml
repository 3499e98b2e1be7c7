module Sim = Icdb_sim.Engine
module Fiber = Icdb_sim.Fiber
module Trace = Icdb_sim.Trace
module Site = Icdb_net.Site
module Link = Icdb_net.Link
module Db = Icdb_localdb.Engine
module Span = Icdb_obs.Span
open Protocol_common

type vote = Ready | No of Global.abort_cause

let run (fed : Federation.t) (spec : Global.spec) =
  let gid = spec.gid in
  let start = Sim.now fed.engine in
  Metrics.txn_started fed.metrics;
  Federation.journal_open_routed fed
    ~sites:(List.map (fun (b : Global.branch) -> b.site) spec.branches)
    ~gid ~protocol:"2pc";
  let obs = obs_begin fed ~gid ~protocol:"2pc" in
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
    (* Data phase: ship and run every branch's local transaction. *)
    let results =
      obs_phase fed obs ~gid Span.Execute (fun sp ->
          fanout fed
            (List.map
               (fun (b : Global.branch) ->
                 (fun () -> (b, execute_branch fed ~gid ~parent:sp b ~extra_ops:[])))
               spec.branches))
    in
    fed.central_fail ~gid "executed";
    let exec_failure =
      List.find_map
        (function
          | (b : Global.branch), Exec_failed r ->
            Some (Global.Local_abort { site = b.site; reason = r })
          | _, Exec_ok _ -> None)
        results
    in
    (match exec_failure with
    | Some cause ->
      (* No commit protocol needed: abort the survivors directly. *)
      Trace.record_gid fed.trace ~actor:coord ~gid "decision:abort";
      Federation.journal_decide fed ~gid ~commit:false;
      obs_decision fed obs ~gid ~commit:false;
      obs_phase fed obs ~gid Span.Local_commit (fun _ ->
          ignore
            (fanout fed
               (List.filter_map
                  (function
                    | (b : Global.branch), Exec_ok txn ->
                      Some
                        (fun () ->
                            let site = Federation.site fed b.site in
                            decision_rpc fed ~gid ~site:b.site ~label:"abort"
                              (fun () ->
                                Db.abort (Site.db site) txn;
                                "finished"))
                    | _, Exec_failed _ -> None)
                  results)));
      Federation.journal_close fed ~gid;
      finish fed ~gid ~start ~obs (Aborted cause)
    | None ->
      (* Phase 1: the inquiry. Locals enter the ready state. *)
      Trace.record_gid fed.trace ~actor:coord ~gid "inquire";
      let votes =
        obs_phase fed obs ~gid Span.Vote (fun _ ->
            fanout fed
              (List.map
                 (fun (result : Global.branch * exec_status) ->
                   (fun () ->
                   let b, status = result in
                   let site = Federation.site fed b.site in
                   let db = Site.db site in
                   match status with
                   | Exec_failed r ->
                     (b, No (Global.Local_abort { site = b.site; reason = r }))
                   | Exec_ok txn ->
                     Link.rpc ~gid (Site.link site) ~label:"prepare" (fun () ->
                         if not b.vote_commit then begin
                           Db.abort db txn;
                           ("abort-vote", (b, No (Global.Voted_abort b.site)))
                         end
                         else
                           match Db.prepare db txn with
                           | Ok () ->
                             Trace.record_gid fed.trace ~actor:b.site ~gid "ready";
                             ("ready", (b, Ready))
                           | Error r ->
                             ( "abort-vote",
                               (b, No (Global.Local_abort { site = b.site; reason = r }))
                             ))))
                 results))
      in
      let abort_cause =
        List.find_map (function _, No cause -> Some cause | _, Ready -> None) votes
      in
      fed.central_fail ~gid "voted";
      let decide_commit = Option.is_none abort_cause in
      Trace.record_gid fed.trace ~actor:coord ~gid
        (if decide_commit then "decision:commit" else "decision:abort");
      Federation.journal_decide fed ~gid ~commit:decide_commit;
      obs_decision fed obs ~gid ~commit:decide_commit;
      fed.central_fail ~gid "decided";
      (* Phase 2: apply the decision at every site in the ready state. A
         crashed participant holds the transaction in doubt; the decision
         waits for its recovery. *)
      obs_phase fed obs ~gid Span.Local_commit (fun _ ->
          ignore
            (fanout fed
               (List.filter_map
                  (function
                    | (b : Global.branch), Ready ->
                      Some
                        (fun () ->
                            let txn =
                              List.find_map
                                (function
                                  | b', Exec_ok txn when b' == b -> Some txn
                                  | _ -> None)
                                results
                              |> Option.get
                            in
                            let label = if decide_commit then "commit" else "abort" in
                            decision_rpc fed ~gid ~site:b.site ~label (fun () ->
                                resolve_prepared_durably fed ~site:b.site
                                  ~txn_id:(Db.txn_id txn) ~commit:decide_commit;
                                if decide_commit then begin
                                  graph_local fed ~gid ~site:b.site
                                    ~compensation:false txn;
                                  Trace.record_gid fed.trace ~actor:b.site ~gid "committed"
                                end
                                else
                                  Trace.record_gid fed.trace ~actor:b.site ~gid "aborted";
                                "finished"))
                    | _, No _ -> None)
                  votes)));
      Federation.journal_close fed ~gid;
      let outcome =
        if decide_commit then Global.Committed
        else Global.Aborted (Option.get abort_cause)
      in
      finish fed ~gid ~start ~obs outcome)
