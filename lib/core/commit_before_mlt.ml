module Trace = Icdb_sim.Trace
module Lock = Icdb_lock.Lock_table
module Site = Icdb_net.Site
module Link = Icdb_net.Link
module Db = Icdb_localdb.Engine
module Program = Icdb_localdb.Program
module Action = Icdb_mlt.Action
module Span = Icdb_obs.Span
open Protocol_common

(* The crash-point label after action [seq], built once for the first few
   sequence numbers: the hook it feeds is a no-op in most runs. *)
let action_labels = Array.init 16 (fun seq -> "action-" ^ string_of_int seq)

let action_label seq =
  if seq < Array.length action_labels then action_labels.(seq)
  else "action-" ^ string_of_int seq

let execute_action (fed : Federation.t) ~gid ~seq (action : Action.t) =
  let site = Federation.site fed action.site in
  let db = Site.db site in
  Link.rpc ~gid (Site.link site) ~label:"execute-action" (fun () ->
      match Db.begin_txn_opt db with
      | None ->
        ( "action-failed",
          Error (Global.Local_abort { site = action.site; reason = Db.Site_crashed }) )
      | Some txn -> (
        Federation.journal_branch fed ~gid ~site:action.site ~txn_id:(Db.txn_id txn);
        match
          Program.run db txn
            (action.program @ [ Program.Write (action_marker ~gid ~seq, 1) ])
        with
        | Error r ->
          Db.abort db txn;
          ("action-failed", Error (Global.Local_abort { site = action.site; reason = r }))
        | Ok () -> (
          (* The L1 undo-log write — inherent to the transaction model, not
             an addition of the commitment protocol. *)
          Action_log.append fed.mlt_undo_log ~gid
            { site = action.site; program = action.inverse; tag = action.name };
          match Db.commit db txn with
          | Ok () ->
            graph_local fed ~gid ~site:action.site ~compensation:false txn;
            if Trace.enabled fed.trace then
              Trace.record_gid fed.trace ~actor:action.site ~gid ("done:" ^ action.name);
            ("action-done", Ok ())
          | Error r ->
            ( "action-failed",
              Error (Global.Local_abort { site = action.site; reason = r }) ))))

(* What a run holds until it ends: its L1 undo-log entries and L1 locks. *)
let l1_undo_log = Some (fun (fed : Federation.t) -> fed.mlt_undo_log)
let l1_locks = Some (fun (c : Federation.coordinator) -> c.l1)

let run ?(action_retries = 0) (fed : Federation.t) (spec : Global.mlt_spec) =
  let gid = spec.mlt_gid in
  let ctx =
    open_run fed ~gid
      ~sites:(List.map (fun (a : Action.t) -> a.site) spec.actions)
      ~protocol:"mlt"
  in
  let completed = ref [] in
  (* L1 actions run in program order; each one is an L0 transaction that
     commits before the global decision exists. *)
  let rec step seq = function
    | [] -> Ok ()
    | action :: rest ->
      if spec.abort_after = Some seq then Error Global.Intended_abort
      else begin
        match
          (* the L1 manager responsible for the action's site — the owning
             shard coordinator's in a sharded federation, central otherwise *)
          Lock.acquire
            (Federation.site_coordinator fed ~site:action.Action.site).l1
            ~owner:gid
            ~obj:(Federation.intern fed (Action.l1_object action))
            ~mode:action.Action.clazz ?timeout:fed.global_lock_timeout ()
        with
        | Lock.Timeout | Lock.Deadlock -> Error Global.Global_cc_denied
        | exception Lock.Lock_revoked -> Error Global.Global_cc_denied
        | Lock.Granted ->
          Metrics.l1_lock_acquired fed.metrics;
          (* An aborted L0 action left no trace, so it can simply be
             re-submitted; only after [action_retries] failures does the
             global transaction abort and compensate. *)
          let rec attempt tries_left =
            match execute_action fed ~gid ~seq action with
            | Ok () ->
              completed := (seq, action) :: !completed;
              fed.central_fail ~gid (action_label seq);
              step (seq + 1) rest
            | Error cause ->
              if tries_left > 0 then begin
                Metrics.repetition fed.metrics;
                Trace.record_gid fed.trace ~actor:action.Action.site ~gid "action-retry";
                Site.await_up (Federation.site fed action.Action.site);
                attempt (tries_left - 1)
              end
              else Error cause
          in
          attempt action_retries
      end
  in
  let result = phase fed ctx Span.Execute (fun _ -> step 0 spec.actions) in
  decide fed ctx ~presumed_abort:false ~commit:(Result.is_ok result);
  fed.central_fail ~gid "decided";
  let outcome =
    match result with
    | Ok () -> Global.Committed
    | Error cause ->
      (* Undo completed actions in reverse order via inverse actions. *)
      List.iter
        (fun (seq, action) ->
          decision_rpc fed ~gid ~site:action.Action.site ~label:"undo-action" (fun () ->
              (* the L1 recovery component's "inverse of inverse" is
                 avoided by the marker's idempotence *)
              repair fed ctx ~site:action.Action.site Span.Compensate
                ~marker:(undo_marker ~gid ~seq) ~label:"inverse-action"
                action.Action.inverse;
              "finished"))
        !completed;
      Global.Aborted cause
  in
  close fed ctx ?log:l1_undo_log ?locks:l1_locks outcome
