module Bp = Icdb_storage.Buffer_pool
module Page = Icdb_storage.Page
module Record = Icdb_storage.Record

type outcome = {
  rolled_back : Log.txn_id list;
  in_doubt : (Log.txn_id * Log.lsn) list;
  committed : Log.txn_id list;
  redo_count : int;
  undo_count : int;
}

let inverse = function
  | Log.Insert { rid; key; value } -> Log.Delete { rid; key; value }
  | Log.Delete { rid; key; value } -> Log.Insert { rid; key; value }
  | Log.Update { rid; key; before; after } -> Log.Update { rid; key; before = after; after = before }
  | Log.Incr { rid; key; delta } -> Log.Incr { rid; key; delta = -delta }

let rid_of = function
  | Log.Insert { rid; _ } | Log.Delete { rid; _ } | Log.Update { rid; _ } | Log.Incr { rid; _ } ->
    rid

(* Applies the physical effect directly at the page level. The engine
   guarantees ops are well-formed against the state they were logged in, so
   a failed page primitive here indicates log corruption. *)
let apply_unconditionally page (op : Log.op) =
  let ok =
    match op with
    | Insert { rid; key; value } ->
      Page.insert_at page ~slot:rid.slot ~payload:(Record.encode ~key ~value)
    | Delete { rid; _ } -> Page.delete page ~slot:rid.slot
    | Update { rid; key; after; _ } ->
      Page.update page ~slot:rid.slot ~payload:(Record.encode ~key ~value:after)
    | Incr { rid; key; delta } -> (
      match Page.read page ~slot:rid.slot with
      | None -> false
      | Some payload ->
        let _, current = Record.decode payload in
        Page.update page ~slot:rid.slot ~payload:(Record.encode ~key ~value:(current + delta)))
  in
  if not ok then failwith "Recovery: physical operation not applicable (corrupt log?)"

let apply_op pool ~lsn op =
  let rid = rid_of op in
  Bp.with_page pool rid.page ~write:true (fun page ->
      if Int64.to_int (Page.lsn page) < lsn then begin
        apply_unconditionally page op;
        Page.set_lsn page (Int64.of_int lsn)
      end)

let undo_chain log pool ~txn ~from =
  let undone = ref 0 in
  let cursor = ref from in
  while !cursor <> Log.null_lsn do
    match Log.get log !cursor with
    | Op { txn = t; op; prev } ->
      assert (t = txn);
      let comp = inverse op in
      let clr_lsn = Log.append log (Clr { txn; op = comp; next_undo = prev }) in
      apply_op pool ~lsn:clr_lsn comp;
      incr undone;
      cursor := prev
    | Clr { txn = t; next_undo; _ } ->
      assert (t = txn);
      cursor := next_undo
    | Begin _ | Commit _ | Abort _ | Prepare _ | Checkpoint _ ->
      failwith "Recovery.undo_chain: chain points at a non-undoable record"
  done;
  ignore (Log.append log (Abort txn));
  Log.flush log;
  !undone

type status = Active of Log.lsn | Prepared of Log.lsn

(* Analysis and redo share one pass over the log: redo replays history
   whatever each transaction's fate, and analysis touches no page, so the
   pages see the same accesses in the same order as with two passes. The
   page-LSN condition skips effects that reached the disk before the
   crash. *)
let restart log pool =
  let table : (Log.txn_id, status) Hashtbl.t = Hashtbl.create 64 in
  let committed = ref [] in
  let redo_count = ref 0 in
  (* One fetch per record: the page is dirtied only when the record is
     applied. *)
  let redo lsn op =
    let rid = rid_of op in
    let applied =
      Bp.with_page_opt pool rid.page (fun page ->
          if Int64.to_int (Page.lsn page) < lsn then begin
            apply_unconditionally page op;
            Page.set_lsn page (Int64.of_int lsn);
            Some ()
          end
          else None)
    in
    if Option.is_some applied then incr redo_count
  in
  Log.iter log (fun lsn record ->
      match record with
      | Begin txn -> Hashtbl.replace table txn (Active Log.null_lsn)
      | Op { txn; op; _ } ->
        Hashtbl.replace table txn (Active lsn);
        redo lsn op
      | Clr { txn; next_undo; op } ->
        Hashtbl.replace table txn (Active next_undo);
        redo lsn op
      | Prepare { txn; last } -> Hashtbl.replace table txn (Prepared last)
      | Commit txn ->
        Hashtbl.remove table txn;
        committed := txn :: !committed
      | Abort txn -> Hashtbl.remove table txn
      | Checkpoint _ -> ());
  (* Undo the losers; keep the in-doubt transactions suspended. *)
  let losers, in_doubt =
    Hashtbl.fold
      (fun txn status (losers, doubt) ->
        match status with
        | Active last -> ((txn, last) :: losers, doubt)
        | Prepared last -> (losers, (txn, last) :: doubt))
      table ([], [])
  in
  let losers = List.sort compare losers in
  let undo_count = ref 0 in
  List.iter
    (fun (txn, last) -> undo_count := !undo_count + undo_chain log pool ~txn ~from:last)
    losers;
  Log.flush log;
  {
    rolled_back = List.map fst losers;
    in_doubt = List.sort compare in_doubt;
    committed = List.sort compare !committed;
    redo_count = !redo_count;
    undo_count = !undo_count;
  }
