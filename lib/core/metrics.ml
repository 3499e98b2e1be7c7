module Registry = Icdb_obs.Registry

(* Handles into one shared registry: recording here and exporting a snapshot
   through {!Icdb_obs.Export} read the same cells. *)
type t = {
  registry : Registry.t;
  started : Registry.counter;
  committed : Registry.counter;
  aborted : Registry.counter;
  repetitions : Registry.counter;
  compensations : Registry.counter;
  global_locks : Registry.counter;
  l1_locks : Registry.counter;
  hold : Registry.histogram;
  response : Registry.histogram;
}

let create registry =
  let c name = Registry.counter registry name in
  let h name = Registry.histogram registry name in
  {
    registry;
    started = c "icdb_txns_started_total";
    committed = c "icdb_txns_committed_total";
    aborted = c "icdb_txns_aborted_total";
    repetitions = c "icdb_repetitions_total";
    compensations = c "icdb_compensations_total";
    global_locks = c "icdb_global_lock_acquisitions_total";
    l1_locks = c "icdb_l1_lock_acquisitions_total";
    hold = h "icdb_lock_hold_time";
    response = h "icdb_txn_response_time";
  }

let registry t = t.registry

let reset t =
  List.iter Registry.clear_counter
    [
      t.started; t.committed; t.aborted; t.repetitions; t.compensations;
      t.global_locks; t.l1_locks;
    ];
  Registry.clear_histogram t.hold;
  Registry.clear_histogram t.response

let txn_started t = Registry.inc t.started

let txn_committed t ~response_time =
  Registry.inc t.committed;
  Registry.observe t.response response_time

let txn_aborted t = Registry.inc t.aborted
let repetition t = Registry.inc t.repetitions
let compensation t = Registry.inc t.compensations
let global_lock_acquired t = Registry.inc t.global_locks
let l1_lock_acquired t = Registry.inc t.l1_locks
let observe_hold_time t d = Registry.observe t.hold d

let started t = Registry.count t.started
let committed t = Registry.count t.committed
let aborted t = Registry.count t.aborted
let repetitions t = Registry.count t.repetitions
let compensations t = Registry.count t.compensations
let global_lock_acquisitions t = Registry.count t.global_locks
let l1_lock_acquisitions t = Registry.count t.l1_locks

let safe_stat f h = if Registry.hist_count h = 0 then 0.0 else f h

let mean_hold_time t = safe_stat Registry.hist_mean t.hold
let p95_hold_time t = safe_stat (fun h -> Registry.hist_percentile h 95.0) t.hold
let mean_response_time t = safe_stat Registry.hist_mean t.response
let p95_response_time t = safe_stat (fun h -> Registry.hist_percentile h 95.0) t.response
