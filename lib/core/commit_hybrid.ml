module Sim = Icdb_sim.Engine
module Fiber = Icdb_sim.Fiber
module Trace = Icdb_sim.Trace
module Site = Icdb_net.Site
module Link = Icdb_net.Link
module Db = Icdb_localdb.Engine
module Program = Icdb_localdb.Program
module Span = Icdb_obs.Span
open Protocol_common

(* Per-branch progress after the execution/inquiry rounds. *)
type leg =
  | Prepared_leg of Db.txn  (** 2PC leg in the ready state *)
  | Committed_leg  (** commitment-before leg, locally committed *)
  | Failed_leg of Global.abort_cause

let prepare_capable fed site_name =
  (Db.capabilities (Site.db (Federation.site fed site_name))).supports_prepare

(* Same undo path as Commit_before. *)
let undo_leg (fed : Federation.t) ~gid ~obs (b : Global.branch) =
  let inverse =
    match
      List.find_opt
        (fun (e : Action_log.entry) -> e.site = b.site)
        (Action_log.entries fed.undo_log ~gid)
    with
    | Some entry -> entry.program
    | None -> failwith "Commit_hybrid: missing undo-log entry"
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
    ~gid ~protocol:"hybrid";
  let obs = obs_begin fed ~gid ~protocol:"hybrid" in
  let coord = coordinator_actor obs in
  Trace.record_gid fed.trace ~actor:coord ~gid "running";
  if not (acquire_global_locks fed ~gid spec) then begin
    Federation.journal_close fed ~gid;
    finish fed ~gid ~start ~obs (Aborted Global_cc_denied)
  end
  else begin
    (* Execution: 2PC legs leave the transaction running; commit-before
       legs commit unilaterally (with marker and undo-log entry). *)
    let results =
      obs_phase fed obs ~gid Span.Execute @@ fun exec_span ->
      fanout fed
        (List.map
           (fun (b : Global.branch) ->
             (fun () ->
             let site = Federation.site fed b.site in
             let db = Site.db site in
             if prepare_capable fed b.site then
               (b, `Tpc (execute_branch fed ~gid ~parent:exec_span b ~extra_ops:[]))
             else
               ( b,
                 `Before
                   (Link.rpc ~gid (Site.link site) ~label:"execute" (fun () ->
                        match Db.begin_txn_opt db with
                        | None ->
                          ( "execute-failed",
                            Failed_leg
                              (Global.Local_abort
                                 { site = b.site; reason = Db.Site_crashed }) )
                        | Some txn -> (
                          Federation.journal_branch fed ~gid ~site:b.site
                            ~txn_id:(Db.txn_id txn);
                          match
                            Program.run db txn
                              (b.program @ [ Program.Write (commit_marker ~gid, 1) ])
                          with
                          | Error r ->
                            Db.abort db txn;
                            ( "execute-failed",
                              Failed_leg
                                (Global.Local_abort { site = b.site; reason = r }) )
                          | Ok () ->
                            if not b.vote_commit then begin
                              Db.abort db txn;
                              ("executed-aborted", Failed_leg (Global.Voted_abort b.site))
                            end
                            else begin
                              let inverse =
                                Program.inverse_of_accesses (Db.accesses txn)
                              in
                              Action_log.append fed.undo_log ~gid
                                { site = b.site; program = inverse; tag = "inverse" };
                              match Db.commit db txn with
                              | Ok () ->
                                graph_local fed ~gid ~site:b.site ~compensation:false txn;
                                Trace.record_gid fed.trace ~actor:b.site ~gid
                                  "locally-committed";
                                ("executed-committed", Committed_leg)
                              | Error r ->
                                ( "execute-failed",
                                  Failed_leg
                                    (Global.Local_abort { site = b.site; reason = r }) )
                            end))))))
           spec.branches)
    in
    fed.central_fail ~gid "executed";
    (* Inquiry: prepare the 2PC legs; ask the others for their final state. *)
    Trace.record_gid fed.trace ~actor:coord ~gid "inquire";
    let legs =
      obs_phase fed obs ~gid Span.Vote @@ fun _ ->
      fanout fed
        (List.map
           (fun (result : Global.branch * [ `Tpc of exec_status | `Before of leg ]) ->
             (fun () ->
             let b, progress = result in
             let site = Federation.site fed b.site in
             let db = Site.db site in
             match progress with
             | `Tpc (Exec_failed r) ->
               (b, Failed_leg (Global.Local_abort { site = b.site; reason = r }))
             | `Tpc (Exec_ok txn) ->
               Link.rpc ~gid (Site.link site) ~label:"prepare" (fun () ->
                   if not b.vote_commit then begin
                     Db.abort db txn;
                     ("abort-vote", (b, Failed_leg (Global.Voted_abort b.site)))
                   end
                   else
                     match Db.prepare db txn with
                     | Ok () ->
                       Trace.record_gid fed.trace ~actor:b.site ~gid "ready";
                       ("ready", (b, Prepared_leg txn))
                     | Error r ->
                       ( "abort-vote",
                         (b, Failed_leg (Global.Local_abort { site = b.site; reason = r }))
                       ))
             | `Before leg ->
               Link.rpc ~gid (Site.link site) ~label:"prepare" (fun () ->
                   Site.await_up site;
                   match leg with
                   | Committed_leg -> ("committed", (b, leg))
                   | Failed_leg _ -> ("aborted", (b, leg))
                   | Prepared_leg _ -> assert false))
             )
           results)
    in
    let abort_cause =
      List.find_map
        (function
          | _, Failed_leg cause -> Some cause | _, (Prepared_leg _ | Committed_leg) -> None)
        legs
    in
    fed.central_fail ~gid "voted";
    let decide_commit = Option.is_none abort_cause in
    Trace.record_gid fed.trace ~actor:coord ~gid
      (if decide_commit then "decision:commit" else "decision:abort");
    Federation.journal_decide fed ~gid ~commit:decide_commit;
    obs_decision fed obs ~gid ~commit:decide_commit;
    fed.central_fail ~gid "decided";
    (* Apply the decision: resolve the ready legs, compensate committed
       commit-before legs on abort. *)
    obs_phase fed obs ~gid Span.Local_commit (fun _ ->
        ignore
          (fanout fed
             (List.filter_map
                (function
                  | (b : Global.branch), Prepared_leg txn ->
                    Some
                      (fun () ->
                          let label = if decide_commit then "commit" else "abort" in
                          decision_rpc fed ~gid ~site:b.site ~label (fun () ->
                              resolve_prepared_durably fed ~site:b.site
                                ~txn_id:(Db.txn_id txn) ~commit:decide_commit;
                              if decide_commit then begin
                                graph_local fed ~gid ~site:b.site ~compensation:false
                                  txn;
                                Trace.record_gid fed.trace ~actor:b.site ~gid "committed"
                              end
                              else
                                Trace.record_gid fed.trace ~actor:b.site ~gid "aborted";
                              "finished"))
                  | b, Committed_leg when not decide_commit ->
                    Some
                      (fun () ->
                          decision_rpc fed ~gid ~site:b.site ~label:"undo" (fun () ->
                              undo_leg fed ~gid ~obs b;
                              Trace.record_gid fed.trace ~actor:b.site ~gid "undone";
                              "finished"))
                  | _, (Committed_leg | Failed_leg _) -> None)
                legs)));
    Action_log.remove fed.undo_log ~gid;
    Federation.journal_close fed ~gid;
    release_global_locks fed ~gid;
    let outcome =
      if decide_commit then Global.Committed else Global.Aborted (Option.get abort_cause)
    in
    finish fed ~gid ~start ~obs outcome
  end
