module Sim = Icdb_sim.Engine
module Fiber = Icdb_sim.Fiber
module Disk = Icdb_storage.Disk
module Bp = Icdb_storage.Buffer_pool
module Heap = Icdb_storage.Heap
module Log = Icdb_wal.Log
module Recovery = Icdb_wal.Recovery
module Lock = Icdb_lock.Lock_table
module Mode = Icdb_lock.Mode
module Rng = Icdb_util.Rng
module Btree = Icdb_util.Btree
module Symbol = Icdb_util.Symbol

type abort_reason =
  | Deadlock_victim
  | Lock_timeout
  | Validation_failed
  | Site_crashed
  | Injected
  | Requested

let abort_reason_to_string = function
  | Deadlock_victim -> "deadlock"
  | Lock_timeout -> "lock-timeout"
  | Validation_failed -> "validation-failed"
  | Site_crashed -> "site-crashed"
  | Injected -> "injected"
  | Requested -> "requested"

let pp_abort_reason fmt r = Format.pp_print_string fmt (abort_reason_to_string r)

type cc_scheme = Locking of { wait_timeout : float option } | Optimistic

type granularity = Record_level | Page_level

type capabilities = {
  supports_prepare : bool;
  supports_increment_locks : bool;
  granularity : granularity;
  cc : cc_scheme;
}

let default_capabilities =
  {
    supports_prepare = false;
    supports_increment_locks = true;
    granularity = Record_level;
    cc = Locking { wait_timeout = Some 50.0 };
  }

type spontaneous_abort = {
  probability : float;
  min_delay : float;
  max_delay : float;
}

type config = {
  site_name : string;
  capabilities : capabilities;
  op_delay : float;
  commit_delay : float;
  buffer_capacity : int;
  spontaneous : spontaneous_abort option;
  seed : int64;
  group_commit_window : float option;
  checkpoint_interval : float option;
}

let default_config ~site_name =
  {
    site_name;
    capabilities = default_capabilities;
    op_delay = 1.0;
    commit_delay = 2.0;
    buffer_capacity = 64;
    spontaneous = None;
    seed = 1L;
    group_commit_window = None;
    checkpoint_interval = None;
  }

type access =
  | Read of { key : string; value : int option }
  | Wrote of { key : string; before : int option; after : int option }
  | Incremented of { key : string; delta : int }

type 'a outcome = ('a, abort_reason) result

type txn_state = Running | Prepared | Committed | Aborted of abort_reason

(* Deferred effect of an optimistic transaction. *)
type buf_entry = Put of int | Del | Add of int

(* A record location: a rid packed into an int by [Heap.pack], so the index
   and [locs] hold no block per record. A [Heap.rid] is built only at a
   [Heap] or [Log] call. *)
type loc = int

(* Sentinel locations for [t.locs]; packed rids are non-negative. *)
let loc_unknown : loc = -1
let loc_absent : loc = -2

(* Index maintenance performed by a locking transaction, replayed in reverse
   when the transaction rolls back. *)
type index_op = Indexed of string * loc | Unindexed of string * loc

type txn = {
  id : int;
  mutable tstate : txn_state;
  mutable committing : bool;
      (* commit record appended; outcome now decided by log durability, not
         by rollback paths (kill/injection must leave it alone) *)
  mutable last_lsn : Log.lsn;
  mutable acc : access list; (* reversed *)
  mutable index_ops : index_op list; (* reversed *)
  (* optimistic state; keys are interned against the engine's symbol table *)
  start_serial : int;
  reads : (Symbol.t, unit) Hashtbl.t;
  buf : (Symbol.t, buf_entry) Hashtbl.t;
  mutable buf_keys : Symbol.t list; (* first-touch order, reversed *)
}

type gc_waiter = { gw_lsn : int; gw_txn : txn; gw_resume : unit Fiber.resumer }

type t = {
  engine : Sim.t;
  config : config;
  (* per-site interner: every lock object and optimistic read/write-set key
     is a dense int against this table; strings come back only at report
     and trace boundaries *)
  syms : Symbol.table;
  (* page number -> interned "page:N" symbol, so page-granularity sites
     don't rebuild the string on every access *)
  page_syms : (int, Symbol.t) Hashtbl.t;
  page_alloc_sym : Symbol.t;
  rng : Rng.t;
  mutable disk : Disk.t;
  log : Log.t;
  mutable pool : Bp.t;
  mutable heap : Heap.t;
  mutable locks : Mode.t Lock.t;
  mutable index : loc Btree.t;
  (* Key locations by symbol: [locs.(sym)] is the location [index] maps the
     key [sym] names to, [loc_absent] when the index has no such key, or
     [loc_unknown] when not yet looked up. Locations are packed ints (see
     [loc]), so neither the index nor this array holds a block per
     record. Record-level locking sites hold
     the key's symbol from [lock], so their reads and writes index this
     array instead of descending the B+-tree. The invariant, checked by
     [check_key_locations]: an entry that is not [loc_unknown] equals the
     index's binding. On record-level locking sites every index mutation
     of an interned key updates its entry ([do_insert], [do_delete],
     [fix_index_after_undo]); [rebuild_index] (restart, undo of an
     in-doubt transaction) and the end of a bulk [load] set every entry
     back to [loc_unknown]. Page-level and optimistic sites never read the
     array, skip its upkeep and leave every entry at [loc_unknown]. *)
  mutable locs : loc array;
  mutable up : bool;
  mutable next_txn : int;
  live : (int, txn) Hashtbl.t; (* running and prepared *)
  in_doubt_tbl : (int, Log.lsn) Hashtbl.t;
  (* optimistic bookkeeping: per-key serial of the last committed writer.
     First-committer-wins only ever compares a read key against the *newest*
     committed write of that key, so the full (serial, write-set) history the
     seed kept — and rescanned per commit — collapses into one table probe
     per read-set key. *)
  mutable commit_serial : int;
  last_writer : (Symbol.t, int) Hashtbl.t;
  (* the read set and write buffer every transaction of a locking site
     carries: nothing writes them there, so one empty pair serves all *)
  no_reads : (Symbol.t, unit) Hashtbl.t;
  no_buf : (Symbol.t, buf_entry) Hashtbl.t;
  mutable commits : int;
  abort_tally : (abort_reason, int) Hashtbl.t;
  mutable hold_hook : obj:Symbol.t -> duration:float -> unit;
  (* stored so [restart]'s fresh lock table keeps feeding the same listener *)
  mutable lock_observer : Lock.observer_event -> unit;
  mutable state_hook : [ `Crash | `Recovered ] -> unit;
  (* online money-conservation monitor: net user-visible value change of
     every local commit, including in-doubt commits resolved after a crash *)
  mutable commit_delta_hook : (txn_id:int -> delta:int -> unit) option;
  (* group commit: committers waiting for the next batched log force *)
  mutable gc_waiters : gc_waiter list;
  mutable gc_scheduled : bool;
}

exception Local_abort of abort_reason

(* Protocol metadata keys ("__cm:...", "__um:...", ...): the commitment
   protocols' database-resident markers, the "additional relation" of
   [WV 90]. Unique per global transaction, they get their own record-level
   locks even on page-granularity sites and are not charged an operation
   delay — otherwise marker traffic would distort the very concurrency
   behaviour the experiments measure. *)
let internal_key key = String.length key >= 2 && key.[0] = '_' && key.[1] = '_'

(* Forward reference: [checkpoint] is defined after the transaction
   machinery but the periodic scheduler in [create] needs it. *)
let checkpoint_impl : (t -> unit) ref = ref (fun _ -> ())

let name t = t.config.site_name
let capabilities t = t.config.capabilities

let new_lock_table t_engine syms hold_hook =
  let locks =
    Lock.create t_engine ~syms ~compatible:Mode.compatible ~combine:Mode.combine
  in
  Lock.set_hold_time_hook locks (fun ~obj ~duration -> hold_hook ~obj ~duration);
  locks

let install_wal_hook t =
  Bp.set_wal_hook t.pool (fun ~lsn -> Log.flush_to t.log (Int64.to_int lsn))

let create engine config =
  (match (config.capabilities.supports_prepare, config.capabilities.cc) with
  | true, Optimistic ->
    invalid_arg "Engine.create: prepare support requires the locking scheme"
  | _ -> ());
  let disk = Disk.create () in
  let pool = Bp.create ~capacity:config.buffer_capacity disk in
  let heap = Heap.create disk pool in
  let hold_hook = ref (fun ~obj:_ ~duration:_ -> ()) in
  let syms = Symbol.create ~capacity:256 () in
  let t =
    {
      engine;
      config;
      syms;
      page_syms = Hashtbl.create 16;
      page_alloc_sym = Symbol.intern syms "page:alloc";
      rng = Rng.create config.seed;
      disk;
      log = Log.create ();
      pool;
      heap;
      locks = new_lock_table engine syms (fun ~obj ~duration -> !hold_hook ~obj ~duration);
      index = Btree.create ();
      locs = Array.make 256 loc_unknown;
      up = true;
      next_txn = 0;
      live = Hashtbl.create 64;
      in_doubt_tbl = Hashtbl.create 8;
      commit_serial = 0;
      last_writer = Hashtbl.create 64;
      no_reads = Hashtbl.create 1;
      no_buf = Hashtbl.create 1;
      commits = 0;
      abort_tally = Hashtbl.create 8;
      hold_hook = (fun ~obj:_ ~duration:_ -> ());
      lock_observer = (fun _ -> ());
      state_hook = (fun _ -> ());
      commit_delta_hook = None;
      gc_waiters = [];
      gc_scheduled = false;
    }
  in
  (hold_hook := fun ~obj ~duration -> t.hold_hook ~obj ~duration);
  Lock.set_observer t.locks (fun e -> t.lock_observer e);
  install_wal_hook t;
  (match config.checkpoint_interval with
  | None -> ()
  | Some period ->
    let rec tick () =
      ignore
        (Sim.schedule engine ~delay:period (fun () ->
             if t.up then !checkpoint_impl t;
             tick ()))
    in
    tick ());
  t

let record_abort t reason =
  let current = Option.value ~default:0 (Hashtbl.find_opt t.abort_tally reason) in
  Hashtbl.replace t.abort_tally reason (current + 1)

let is_locking t = match t.config.capabilities.cc with Locking _ -> true | Optimistic -> false

let fresh_txn t =
  t.next_txn <- t.next_txn + 1;
  {
    id = t.next_txn;
    tstate = Running;
    committing = false;
    last_lsn = Log.null_lsn;
    acc = [];
    index_ops = [];
    start_serial = t.commit_serial;
    reads = (if is_locking t then t.no_reads else Hashtbl.create 8);
    buf = (if is_locking t then t.no_buf else Hashtbl.create 8);
    buf_keys = [];
  }

let wait_timeout t =
  match t.config.capabilities.cc with
  | Locking { wait_timeout } -> wait_timeout
  | Optimistic -> None

let txn_id txn = txn.id

let state txn =
  match txn.tstate with
  | Running -> `Running
  | Prepared -> `Prepared
  | Committed -> `Committed
  | Aborted r -> `Aborted r

let accesses txn = List.rev txn.acc
let note txn a = txn.acc <- a :: txn.acc

(* --- key locations ------------------------------------------------------ *)

(* [no_sym] stands for "the key's symbol is not at hand". *)
let no_sym = -1

let set_loc t sym loc =
  let size = Array.length t.locs in
  if sym >= size then begin
    let bigger = Array.make (max (2 * size) (sym + 1)) loc_unknown in
    Array.blit t.locs 0 bigger 0 size;
    t.locs <- bigger
  end;
  t.locs.(sym) <- loc

(* Only record-level locking sites read [locs] (see [key_loc]'s callers). *)
let tracks_locs t =
  match t.config.capabilities with
  | { cc = Locking _; granularity = Record_level; _ } -> true
  | { cc = Optimistic; _ } | { granularity = Page_level; _ } -> false

(* Record [key]'s new location, if the site tracks locations and the key is
   interned. *)
let note_loc t ~sym key loc =
  if tracks_locs t then
    if sym <> no_sym then set_loc t sym loc
    else match Symbol.find t.syms key with Some sym -> set_loc t sym loc | None -> ()

let forget_locs t = Array.fill t.locs 0 (Array.length t.locs) loc_unknown

let index_loc t key =
  match Btree.find t.index key with Some loc -> loc | None -> loc_absent

(* Where [key] lives ([loc_absent] if nowhere): an array index when the
   caller holds the key's symbol and the entry is known, the B+-tree
   otherwise (filling the entry). *)
let key_loc t ~sym key =
  if sym = no_sym then index_loc t key
  else
    let loc = if sym < Array.length t.locs then t.locs.(sym) else loc_unknown in
    if loc <> loc_unknown then loc
    else begin
      let loc = index_loc t key in
      set_loc t sym loc;
      loc
    end

let check_key_locations t =
  let rec scan sym =
    if sym >= min (Symbol.count t.syms) (Array.length t.locs) then None
    else
      let loc = t.locs.(sym) in
      let key = Symbol.name t.syms sym in
      let ok =
        loc = loc_unknown
        ||
        match Btree.find t.index key with
        | Some l -> loc = l
        | None -> loc = loc_absent
      in
      if ok then scan (sym + 1)
      else
        let show l =
          if l = loc_absent then "absent" else Format.asprintf "%a" Heap.pp_rid (Heap.unpack l)
        in
        Some
          ( key,
            Printf.sprintf "location %s, index %s" (show loc)
              (match Btree.find t.index key with Some r -> show r | None -> "absent") )
  in
  scan 0

(* --- forward logging and application (locking scheme) ----------------- *)

(* In-simulation, the sequence "mutate page; append matching log record" is
   atomic (no yield point in between), so reserving the next LSN before the
   heap placement preserves the WAL invariant observably. [place] is
   [Heap.insert] or a [Heap.bulk_insert] placer. Returns the packed rid. *)
let log_insert t txn place ~key ~value =
  let lsn = Log.last_lsn t.log + 1 in
  let rid = place ~lsn:(Int64.of_int lsn) ~key ~value in
  let lsn' = Log.append_insert t.log ~txn:txn.id ~prev:txn.last_lsn ~rid ~key ~value in
  assert (lsn' = lsn);
  txn.last_lsn <- lsn;
  Heap.pack rid

(* [insert_row] leaves the key's location entry alone; [do_insert] updates
   it. *)
let insert_row t txn ~key ~value =
  let loc = log_insert t txn (Heap.insert t.heap) ~key ~value in
  Btree.insert t.index key loc;
  txn.index_ops <- Indexed (key, loc) :: txn.index_ops;
  loc

let do_insert t txn ~sym ~key ~value = note_loc t ~sym key (insert_row t txn ~key ~value)

let log_and_apply t txn op =
  let lsn = Log.append t.log (Op { txn = txn.id; op; prev = txn.last_lsn }) in
  Recovery.apply_op t.pool ~lsn op;
  txn.last_lsn <- lsn

let do_update t txn loc ~key ~before ~after =
  log_and_apply t txn (Update { rid = Heap.unpack loc; key; before; after })

let do_delete t txn loc ~sym ~key ~value =
  log_and_apply t txn (Delete { rid = Heap.unpack loc; key; value });
  ignore (Btree.remove t.index key);
  note_loc t ~sym key loc_absent;
  txn.index_ops <- Unindexed (key, loc) :: txn.index_ops

let do_incr t txn loc ~key ~delta = log_and_apply t txn (Incr { rid = Heap.unpack loc; key; delta })

let value_at t loc = if loc = loc_absent then None else Heap.value t.heap (Heap.unpack loc)
let heap_value t key = value_at t (index_loc t key)

let fix_index_after_undo t txn =
  List.iter
    (function
      | Indexed (key, _) ->
        ignore (Btree.remove t.index key);
        note_loc t ~sym:no_sym key loc_absent
      | Unindexed (key, loc) ->
        Btree.insert t.index key loc;
        note_loc t ~sym:no_sym key loc)
    txn.index_ops;
  txn.index_ops <- []

(* --- rollback ---------------------------------------------------------- *)

let do_rollback t txn reason =
  (match t.config.capabilities.cc with
  | Locking _ ->
    ignore (Recovery.undo_chain t.log t.pool ~txn:txn.id ~from:txn.last_lsn);
    fix_index_after_undo t txn
  | Optimistic -> ());
  txn.tstate <- Aborted reason;
  Hashtbl.remove t.live txn.id;
  Lock.release_all t.locks ~owner:txn.id;
  record_abort t reason

let begin_txn t =
  if not t.up then failwith "Engine.begin_txn: site is down";
  let txn = fresh_txn t in
  Hashtbl.replace t.live txn.id txn;
  if is_locking t then ignore (Log.append t.log (Begin txn.id));
  (match t.config.spontaneous with
  | Some { probability; min_delay; max_delay } when Rng.bernoulli t.rng probability ->
    let delay = min_delay +. Rng.float t.rng (Float.max 0.0 (max_delay -. min_delay)) in
    ignore
      (Sim.schedule t.engine ~delay (fun () ->
           if t.up && txn.tstate = Running && not txn.committing then
             do_rollback t txn Injected))
  | Some _ | None -> ());
  txn

(* Crash-race-safe begin: a caller resumed by a restart can be overtaken by
   another crash event at the same instant, so "the site was up when I was
   woken" does not imply "the site is up now". Returning [None] instead of
   raising lets protocol code turn that race into an ordinary branch
   failure. *)
let begin_txn_opt t = if not t.up then None else Some (begin_txn t)

(* --- guarded operation plumbing ---------------------------------------- *)

let check_alive t txn =
  if not t.up then raise (Local_abort Site_crashed);
  match txn.tstate with
  | Running -> ()
  | Aborted r -> raise (Local_abort r)
  | Committed | Prepared -> invalid_arg "Engine: operation on a finished transaction"

let consume t txn d =
  Fiber.sleep t.engine d;
  check_alive t txn

(* Operation cost: protocol metadata writes (marker records) piggyback on
   the transaction's existing log traffic and are not charged an operation
   delay of their own. *)
let op_cost t key = if internal_key key then 0.0 else t.config.op_delay

let page_sym t page =
  match Hashtbl.find_opt t.page_syms page with
  | Some s -> s
  | None ->
    let s = Symbol.intern t.syms ("page:" ^ string_of_int page) in
    Hashtbl.replace t.page_syms page s;
    s

(* Maps a key access to the lock object and mode the site's granularity
   dictates. Page-level sites have no record or increment locks: everything
   but a read takes an exclusive page lock. *)
let lock_target t key mode =
  match t.config.capabilities.granularity with
  | Record_level -> (Symbol.intern t.syms key, mode)
  | Page_level when internal_key key -> (Symbol.intern t.syms key, mode)
  | Page_level ->
    let obj =
      match Btree.find t.index key with
      | Some loc -> page_sym t (Heap.unpack loc).page
      | None -> t.page_alloc_sym
    in
    let mode =
      match mode with
      | Mode.Shared -> Mode.Shared
      | Mode.Exclusive | Mode.Increment -> Mode.Exclusive
    in
    (obj, mode)

(* Returns the key's symbol on record-level sites, [no_sym] on page-level
   ones (whose lock object is the page). *)
let lock t txn ~key ~mode =
  let obj, mode = lock_target t key mode in
  match Lock.acquire t.locks ~owner:txn.id ~obj ~mode ?timeout:(wait_timeout t) () with
  | Granted ->
    check_alive t txn;
    (match t.config.capabilities.granularity with
    | Record_level -> obj
    | Page_level -> no_sym)
  | Timeout ->
    do_rollback t txn Lock_timeout;
    raise (Local_abort Lock_timeout)
  | Deadlock ->
    do_rollback t txn Deadlock_victim;
    raise (Local_abort Deadlock_victim)

let run_op t txn f =
  try
    check_alive t txn;
    Ok (f ())
  with
  | Local_abort r -> Error r
  | Lock.Lock_revoked -> (
    (* The wait was torn down by [kill] or a crash; the rollback already
       happened on the other side. *)
    match txn.tstate with
    | Aborted r -> Error r
    | Running | Prepared | Committed -> Error Injected)

(* --- optimistic-path helpers ------------------------------------------- *)

let buf_note txn key entry =
  if not (Hashtbl.mem txn.buf key) then txn.buf_keys <- key :: txn.buf_keys;
  Hashtbl.replace txn.buf key entry

(* [key] is the raw string (for the heap/index lookup), [sym] its interned
   id — callers intern once per operation. *)
let occ_visible t txn ~key ~sym =
  match Hashtbl.find_opt txn.buf sym with
  | Some (Put v) -> Some v
  | Some Del -> None
  | Some (Add d) -> (
    Hashtbl.replace txn.reads sym ();
    match heap_value t key with Some v -> Some (v + d) | None -> Some d)
  | None ->
    Hashtbl.replace txn.reads sym ();
    heap_value t key

(* --- public operations -------------------------------------------------- *)

let read t txn key =
  run_op t txn (fun () ->
      let sym =
        match t.config.capabilities.cc with
        | Locking _ -> lock t txn ~key ~mode:Mode.Shared
        | Optimistic -> no_sym
      in
      consume t txn (op_cost t key);
      let value =
        match t.config.capabilities.cc with
        | Locking _ -> value_at t (key_loc t ~sym key)
        | Optimistic -> occ_visible t txn ~key ~sym:(Symbol.intern t.syms key)
      in
      note txn (Read { key; value });
      value)

let write t txn ~key ~value =
  run_op t txn (fun () ->
      let sym =
        match t.config.capabilities.cc with
        | Locking _ -> lock t txn ~key ~mode:Mode.Exclusive
        | Optimistic -> no_sym
      in
      consume t txn (op_cost t key);
      let before =
        match t.config.capabilities.cc with
        | Locking _ ->
          let loc = key_loc t ~sym key in
          let before = value_at t loc in
          if loc = loc_absent then do_insert t txn ~sym ~key ~value
          else do_update t txn loc ~key ~before:(Option.get before) ~after:value;
          before
        | Optimistic ->
          (* A blind write must stay blind: looking up the before-image for
             the access record must not enlarge the validation read set. *)
          let sym = Symbol.intern t.syms key in
          let was_read = Hashtbl.mem txn.reads sym in
          let before = occ_visible t txn ~key ~sym in
          if not was_read then Hashtbl.remove txn.reads sym;
          buf_note txn sym (Put value);
          before
      in
      note txn (Wrote { key; before; after = Some value }))

let delete t txn key =
  run_op t txn (fun () ->
      let sym =
        match t.config.capabilities.cc with
        | Locking _ -> lock t txn ~key ~mode:Mode.Exclusive
        | Optimistic -> no_sym
      in
      consume t txn (op_cost t key);
      (match t.config.capabilities.cc with
      | Locking _ -> (
        match Btree.find t.index key with
        | Some loc ->
          let value = Option.get (value_at t loc) in
          do_delete t txn loc ~sym ~key ~value;
          note txn (Wrote { key; before = Some value; after = None })
        | None -> note txn (Wrote { key; before = None; after = None }))
      | Optimistic ->
        let sym = Symbol.intern t.syms key in
        let was_read = Hashtbl.mem txn.reads sym in
        let before = occ_visible t txn ~key ~sym in
        if not was_read then Hashtbl.remove txn.reads sym;
        buf_note txn sym Del;
        note txn (Wrote { key; before; after = None })))

let increment t txn ~key ~delta =
  run_op t txn (fun () ->
      let sym =
        match t.config.capabilities.cc with
        | Locking _ ->
          let mode =
            if t.config.capabilities.supports_increment_locks then Mode.Increment
            else Mode.Exclusive
          in
          lock t txn ~key ~mode
        | Optimistic -> no_sym
      in
      consume t txn (op_cost t key);
      (match t.config.capabilities.cc with
      | Locking _ ->
        let loc = key_loc t ~sym key in
        if loc = loc_absent then invalid_arg "Engine.increment: unknown key"
        else do_incr t txn loc ~key ~delta
      | Optimistic ->
        let sym = Symbol.intern t.syms key in
        let entry =
          match Hashtbl.find_opt txn.buf sym with
          | Some (Add d) -> Add (d + delta)
          | Some (Put v) -> Put (v + delta)
          | Some Del -> Put delta
          | None -> Add delta
        in
        buf_note txn sym entry);
      note txn (Incremented { key; delta }))

(* Backward validation: fail if any transaction that committed after we
   started wrote something we read. Only the newest committed write of each
   key matters (an older one implies a newer-or-equal serial in the table),
   so this is one probe per read-set key instead of a scan over the
   committed-write history. *)
let occ_validate t txn =
  not
    (Hashtbl.fold
       (fun k () hit ->
         hit
         ||
         match Hashtbl.find_opt t.last_writer k with
         | Some serial -> serial > txn.start_serial
         | None -> false)
       txn.reads false)

let occ_apply t txn =
  ignore (Log.append t.log (Begin txn.id));
  List.iter
    (fun sym ->
      let key = Symbol.name t.syms sym in
      match Hashtbl.find txn.buf sym with
      | Put value -> (
        match Btree.find t.index key with
        | Some loc ->
          let before = Option.get (value_at t loc) in
          do_update t txn loc ~key ~before ~after:value
        | None -> do_insert t txn ~sym ~key ~value)
      | Del -> (
        match Btree.find t.index key with
        | Some loc ->
          let value = Option.get (value_at t loc) in
          do_delete t txn loc ~sym ~key ~value
        | None -> ())
      | Add delta -> (
        match Btree.find t.index key with
        | Some loc -> do_incr t txn loc ~key ~delta
        | None -> do_insert t txn ~sym ~key ~value:delta))
    (List.rev txn.buf_keys);
  t.commit_serial <- t.commit_serial + 1;
  List.iter (fun sym -> Hashtbl.replace t.last_writer sym t.commit_serial) txn.buf_keys

(* Make the transaction's commit record durable. With group commit the
   caller blocks until the batch's single force; a crash inside the window
   aborts the waiters whose commit records were still volatile — and
   confirms those whose records had already reached stable storage through
   an earlier WAL-rule force. *)
let force_commit_record t txn ~lsn =
  match t.config.group_commit_window with
  | None -> Log.flush t.log
  | Some window ->
    Fiber.await (fun resume ->
        t.gc_waiters <- { gw_lsn = lsn; gw_txn = txn; gw_resume = resume } :: t.gc_waiters;
        if not t.gc_scheduled then begin
          t.gc_scheduled <- true;
          ignore
            (Sim.schedule t.engine ~delay:window (fun () ->
                 t.gc_scheduled <- false;
                 if t.up then begin
                   Log.flush t.log;
                   let waiters = List.rev t.gc_waiters in
                   t.gc_waiters <- [];
                   List.iter (fun w -> w.gw_resume (Ok ())) waiters
                 end))
        end)

(* Net user-visible value change of a committing transaction — writes
   telescope (each [Wrote] carries before/after), so the sum over the
   access list is final minus initial. Internal marker keys are excluded:
   they are protocol bookkeeping, not money. Computed only when the
   monitor hook is installed. *)
let committed_delta txn =
  List.fold_left
    (fun acc a ->
      match a with
      | Incremented { key; delta } -> if internal_key key then acc else acc + delta
      | Wrote { key; before; after } ->
        if internal_key key then acc
        else acc + Option.value ~default:0 after - Option.value ~default:0 before
      | Read _ -> acc)
    0 txn.acc

let notify_commit_delta t ~txn_id ~delta =
  match t.commit_delta_hook with None -> () | Some f -> f ~txn_id ~delta

let finish_commit t txn =
  txn.committing <- true;
  let lsn = Log.append t.log (Commit txn.id) in
  force_commit_record t txn ~lsn;
  txn.tstate <- Committed;
  Hashtbl.remove t.live txn.id;
  t.commits <- t.commits + 1;
  (match t.commit_delta_hook with
  | None -> ()
  | Some f -> f ~txn_id:txn.id ~delta:(committed_delta txn));
  Lock.release_all t.locks ~owner:txn.id

let commit t txn =
  run_op t txn (fun () ->
      consume t txn t.config.commit_delay;
      match t.config.capabilities.cc with
      | Locking _ -> finish_commit t txn
      | Optimistic ->
        if occ_validate t txn then begin
          occ_apply t txn;
          finish_commit t txn
        end
        else begin
          do_rollback t txn Validation_failed;
          raise (Local_abort Validation_failed)
        end)

let abort t txn =
  match txn.tstate with
  | Running when not txn.committing -> do_rollback t txn Requested
  | Running | Prepared | Committed | Aborted _ -> ()

let kill t txn =
  match txn.tstate with
  | Running when not txn.committing -> do_rollback t txn Injected
  | Running | Prepared | Committed | Aborted _ -> ()

(* --- prepare / in-doubt -------------------------------------------------- *)

let prepare t txn =
  if not t.config.capabilities.supports_prepare then
    failwith "Engine.prepare: this local system has no ready state";
  run_op t txn (fun () ->
      consume t txn t.config.commit_delay;
      ignore (Log.append t.log (Prepare { txn = txn.id; last = txn.last_lsn }));
      Log.flush t.log;
      txn.tstate <- Prepared)

(* Index consistency after restart, or after undoing a transaction
   recovered from the log: simplest correct answer is a full rebuild from
   the heap, in its iteration order (a later live record of a key wins). *)
let rebuild_index t =
  t.index <- Btree.of_bindings (Heap.bindings t.heap);
  forget_locs t

(* In-doubt transactions lost their in-memory access list to the crash;
   their net value change is recovered by walking the log's per-transaction
   [prev] chain from the Prepare record's [last] LSN. A prepared chain is
   pure [Op] records (no undo ran). Stops early if a checkpoint truncated
   the prefix — impossible while the transaction is in doubt, since
   truncation keeps everything its rollback could need. *)
let chain_delta t ~from =
  let rec walk lsn acc =
    if lsn = Log.null_lsn then acc
    else
      match Log.get t.log lsn with
      | Log.Op { op; prev; _ } ->
        let d =
          match op with
          | Log.Insert { key; value; _ } -> if internal_key key then 0 else value
          | Log.Delete { key; value; _ } -> if internal_key key then 0 else -value
          | Log.Update { key; before; after; _ } ->
            if internal_key key then 0 else after - before
          | Log.Incr { key; delta; _ } -> if internal_key key then 0 else delta
        in
        walk prev (acc + d)
      | _ -> acc
      | exception Invalid_argument _ -> acc
  in
  walk from 0

let resolve_prepared t ~txn_id ~commit:decide_commit =
  match Hashtbl.find_opt t.live txn_id with
  | Some txn when txn.tstate = Prepared ->
    if decide_commit then finish_commit t txn else do_rollback t txn Requested
  | Some _ -> failwith "Engine.resolve_prepared: transaction is not prepared"
  | None -> (
    match Hashtbl.find_opt t.in_doubt_tbl txn_id with
    | None -> failwith "Engine.resolve_prepared: unknown transaction"
    | Some last ->
      Hashtbl.remove t.in_doubt_tbl txn_id;
      if decide_commit then begin
        ignore (Log.append t.log (Commit txn_id));
        Log.flush t.log;
        t.commits <- t.commits + 1;
        if t.commit_delta_hook <> None then
          notify_commit_delta t ~txn_id ~delta:(chain_delta t ~from:last)
      end
      else begin
        ignore (Recovery.undo_chain t.log t.pool ~txn:txn_id ~from:last);
        rebuild_index t;
        record_abort t Requested
      end;
      Lock.release_all t.locks ~owner:txn_id)

let in_doubt t = Hashtbl.fold (fun id _ acc -> id :: acc) t.in_doubt_tbl [] |> List.sort compare

let running_transactions t =
  Hashtbl.fold (fun _ txn acc -> if txn.tstate = Running then txn :: acc else acc) t.live []

let abort_txn_id t ~txn_id =
  match Hashtbl.find_opt t.live txn_id with
  | Some txn when txn.tstate = Running ->
    do_rollback t txn Requested;
    true
  | Some _ | None -> false

(* --- crash / restart ----------------------------------------------------- *)

let crash t =
  if t.up then begin
    t.up <- false;
    t.state_hook `Crash;
    Log.crash t.log;
    Bp.drop_all t.pool;
    (* Group-commit waiters first: a commit record that reached stable
       storage (e.g. through a WAL-rule force) means the transaction
       committed despite the crash; a volatile one means it did not. *)
    let waiters = List.rev t.gc_waiters in
    t.gc_waiters <- [];
    List.iter
      (fun w ->
        if w.gw_lsn <= Log.flushed_lsn t.log then begin
          w.gw_txn.tstate <- Committed;
          w.gw_resume (Ok ())
        end
        else begin
          w.gw_txn.tstate <- Aborted Site_crashed;
          record_abort t Site_crashed;
          w.gw_resume (Error (Local_abort Site_crashed))
        end)
      waiters;
    Hashtbl.iter
      (fun _ txn ->
        match txn.tstate with
        | Running ->
          txn.tstate <- Aborted Site_crashed;
          record_abort t Site_crashed
        | Prepared | Committed | Aborted _ -> ())
      t.live;
    Hashtbl.reset t.live;
    Hashtbl.reset t.in_doubt_tbl;
    Hashtbl.reset t.last_writer;
    Lock.reset t.locks
  end

let reacquire_in_doubt_locks t txn_id =
  Log.iter t.log (fun _ record ->
      match record with
      | Op { txn; op; _ } when txn = txn_id ->
        let key =
          match op with
          | Insert { key; _ } | Delete { key; _ } | Update { key; _ } | Incr { key; _ } -> key
        in
        let obj, mode = lock_target t key Mode.Exclusive in
        ignore (Lock.try_acquire t.locks ~owner:txn_id ~obj ~mode)
      | _ -> ())

let restart t =
  if t.up then invalid_arg "Engine.restart: site is up";
  t.pool <- Bp.create ~capacity:t.config.buffer_capacity t.disk;
  install_wal_hook t;
  t.heap <- Heap.recover t.disk t.pool;
  let outcome = Recovery.restart t.log t.pool in
  rebuild_index t;
  t.locks <- new_lock_table t.engine t.syms (fun ~obj ~duration -> t.hold_hook ~obj ~duration);
  Lock.set_observer t.locks (fun e -> t.lock_observer e);
  List.iter
    (fun (txn_id, last) ->
      Hashtbl.replace t.in_doubt_tbl txn_id last;
      reacquire_in_doubt_locks t txn_id)
    outcome.in_doubt;
  t.up <- true;
  t.state_hook `Recovered;
  outcome

let is_up t = t.up

(* --- inspection & metrics ------------------------------------------------ *)

let committed_value t key = heap_value t key

let committed_keys t =
  Btree.keys t.index

let committed_total t =
  Btree.fold t.index ~init:0 ~f:(fun acc key loc ->
      if internal_key key || loc = loc_absent then acc
      else acc + Heap.packed_value_or t.heap loc ~default:0)

(* The bulk path: the same log records, LSNs, page images and rids as one
   [insert_row] per row, but the heap places rows without rescanning older
   pages, the index is built once from the placed rows, and no per-row
   undo entry is kept (nothing rolls the load back). Key locations are
   reset once instead of probed per row. *)
let load t rows =
  let txn = fresh_txn t in
  ignore (Log.append t.log (Begin txn.id));
  let placed = Array.make (List.length rows) ("", loc_absent) in
  Heap.bulk_insert t.heap (fun place ->
      List.iteri
        (fun i (key, value) -> placed.(i) <- (key, log_insert t txn place ~key ~value))
        rows);
  let bindings =
    if Btree.is_empty t.index then placed
    else Array.append (Array.of_list (Btree.to_list t.index)) placed
  in
  t.index <- Btree.of_bindings bindings;
  forget_locs t;
  ignore (Log.append t.log (Commit txn.id));
  Log.flush t.log

(* A fresh engine has begun no transaction and holds no record, force or
   page. *)
let is_fresh t =
  t.up && t.next_txn = 0 && Log.record_count t.log = 0 && Log.force_count t.log = 0
  && Disk.page_count t.disk = 0

(* [r] takes a copy of everything [load] changed in [src]: the storage,
   the index and the transaction counter. The heap owns every page of its
   disk, so [Heap.recover] over the copied disk is [src]'s heap. [load]
   leaves every key location unknown, as a fresh [r]'s already are. *)
let replicate ~src r =
  r.disk <- Disk.copy src.disk;
  r.pool <- Bp.copy src.pool r.disk;
  install_wal_hook r;
  r.heap <- Heap.recover r.disk r.pool;
  r.index <- Btree.copy src.index;
  r.next_txn <- src.next_txn;
  Log.replicate ~src:src.log r.log

let preload ts rows =
  match ts with
  | [] -> ()
  | src :: replicas ->
    if not (List.for_all is_fresh ts) then invalid_arg "Engine.preload: a site is not fresh";
    let capacity = src.config.buffer_capacity in
    if List.exists (fun r -> r.config.buffer_capacity <> capacity) replicas then
      invalid_arg "Engine.preload: sites differ in buffer capacity";
    load src rows;
    List.iter (replicate ~src) replicas

let index_bindings t =
  List.map (fun (key, loc) -> (key, Heap.unpack loc)) (Btree.to_list t.index)

(* A sharp checkpoint: force pages (log first via the WAL hook), log the
   checkpoint record, then drop the log prefix nobody can need — the oldest
   record still reachable from any live, prepared or in-doubt transaction
   bounds the truncation. *)
let checkpoint t =
  if not t.up then invalid_arg "Engine.checkpoint: site is down";
  Bp.flush_all t.pool;
  let active =
    Hashtbl.fold (fun id txn acc -> (id, txn.last_lsn) :: acc) t.live []
    |> List.sort compare
  in
  let ck_lsn = Log.append t.log (Checkpoint { active; dirty = [] }) in
  Log.flush t.log;
  let active_ids = Hashtbl.create 16 in
  Hashtbl.iter (fun id _ -> Hashtbl.replace active_ids id ()) t.live;
  Hashtbl.iter (fun id _ -> Hashtbl.replace active_ids id ()) t.in_doubt_tbl;
  let bound = ref ck_lsn in
  Log.iter t.log (fun lsn record ->
      let touch id = if Hashtbl.mem active_ids id && lsn < !bound then bound := lsn in
      match record with
      | Begin id | Commit id | Abort id -> touch id
      | Op { txn; _ } | Clr { txn; _ } | Prepare { txn; _ } -> touch txn
      | Checkpoint _ -> ());
  Log.truncate_prefix t.log ~keep_from:!bound

let () = checkpoint_impl := checkpoint

let commit_count t = t.commits

let abort_count t = Hashtbl.fold (fun _ n acc -> acc + n) t.abort_tally 0

let abort_counts t =
  Hashtbl.fold (fun reason n acc -> (reason, n) :: acc) t.abort_tally []
  |> List.sort compare

let wal t = t.log
let symbols t = t.syms
let flush_buffers t = Bp.flush_all t.pool
let buffer_pins t = Bp.pin_count t.pool
let set_hold_time_hook t f = t.hold_hook <- f
let set_lock_observer t f = t.lock_observer <- f
let set_state_hook t f = t.state_hook <- f
let set_commit_delta_hook t f = t.commit_delta_hook <- Some f
let live_txn_count t = Hashtbl.length t.live
let in_doubt_count t = Hashtbl.length t.in_doubt_tbl
let lock_held_count t = Lock.held_count t.locks
let buffer_pool t = t.pool
let lock_wait_count t = Lock.wait_count t.locks
let lock_deadlock_count t = Lock.deadlock_count t.locks
let lock_timeout_count t = Lock.timeout_count t.locks
