module Engine = Icdb_sim.Engine
module Fiber = Icdb_sim.Fiber
module Symbol = Icdb_util.Symbol
module Strtbl = Icdb_util.Strtbl

type outcome = Granted | Timeout | Deadlock

exception Lock_revoked

(* Objects are interned symbols: callers intern once (typically at workload
   generation or at the operation boundary) and every structure below is
   int-keyed — the dense-id [entries] array makes the per-acquire lookup an
   array index instead of a string hash. Observer events carry the symbol;
   listeners resolve it to a string only when they actually materialize a
   label (e.g. with tracing on). *)

type observer_event =
  | Wait_started of { owner : int; obj : Symbol.t }
  | Wait_ended of {
      owner : int;
      obj : Symbol.t;
      outcome : [ `Granted | `Timeout | `Deadlock | `Cancelled ];
      waited : float;
    }
  | Acquired of { owner : int; obj : Symbol.t }
  | Released of { owner : int; obj : Symbol.t; held : float }

type 'mode holder = { h_owner : int; mutable h_mode : 'mode; mutable acquired_at : float }

type 'mode waiter = {
  w_owner : int;
  w_mode : 'mode;
  w_upgrade : bool;
  w_since : float;
  mutable w_active : bool;
  w_resume : outcome Fiber.resumer;
}

type 'mode entry = { mutable holders : 'mode holder list; waiters : 'mode waiter Queue.t }

type 'mode t = {
  engine : Engine.t;
  syms : Symbol.table;
  compatible : 'mode -> 'mode -> bool;
  combine : 'mode -> 'mode -> 'mode;
  (* dense symbol id -> entry; symbols come from one per-federation (or
     per-site) table, so the array stays compact *)
  mutable entries : 'mode entry option array;
  (* owner -> objects held. The inner table is keyed by the object's
     *string* name (mapping to its symbol) on purpose: release order during
     [release_all] is this table's iteration order, which feeds fiber
     wake-ups — keeping the seed's string-keyed layout keeps simulation
     schedules, and therefore reports, byte-identical. *)
  owned : (int, Symbol.t Strtbl.t) Hashtbl.t;
  (* owner sets emptied by [release_all], reset and ready for the next
     owner: a reset set has a fresh one's bucket count, so it iterates like
     one. Per table, never shared, because tables of concurrent simulations
     live on different domains. *)
  mutable spare_sets : Symbol.t Strtbl.t list;
  (* owner -> the single wait it is currently blocked in *)
  waiting_on : (int, Symbol.t * 'mode waiter) Hashtbl.t;
  (* scratch visited-set for [would_deadlock], generation-stamped so checks
     reuse it without a per-check allocation or clear *)
  dd_visited : (int, int) Hashtbl.t;
  mutable dd_gen : int;
  mutable hold_time_hook : obj:Symbol.t -> duration:float -> unit;
  mutable observer : observer_event -> unit;
  mutable acquisitions : int;
  mutable waits : int;
  mutable deadlocks : int;
  mutable timeouts : int;
  mutable held_total : int; (* live (owner, object) holder pairs *)
}

let create engine ~syms ~compatible ~combine =
  {
    engine;
    syms;
    compatible;
    combine;
    entries = Array.make 256 None;
    owned = Hashtbl.create 64;
    spare_sets = [];
    waiting_on = Hashtbl.create 64;
    dd_visited = Hashtbl.create 64;
    dd_gen = 0;
    hold_time_hook = (fun ~obj:_ ~duration:_ -> ());
    observer = (fun _ -> ());
    acquisitions = 0;
    waits = 0;
    deadlocks = 0;
    timeouts = 0;
    held_total = 0;
  }

let symbols t = t.syms
let intern t s = Symbol.intern t.syms s
let obj_name t obj = Symbol.name t.syms obj

let entry_slot t obj =
  if obj >= Array.length t.entries then begin
    let n = Array.length t.entries in
    let bigger = Array.make (max (2 * n) (obj + 1)) None in
    Array.blit t.entries 0 bigger 0 n;
    t.entries <- bigger
  end;
  t.entries.(obj)

let find_entry t obj = if obj < Array.length t.entries then t.entries.(obj) else None

let entry_of t obj =
  match entry_slot t obj with
  | Some e -> e
  | None ->
    let e = { holders = []; waiters = Queue.create () } in
    t.entries.(obj) <- Some e;
    e

let find_holder entry owner = List.find_opt (fun h -> h.h_owner = owner) entry.holders

let note_owned t owner obj =
  let objs =
    match Hashtbl.find_opt t.owned owner with
    | Some objs -> objs
    | None ->
      let objs =
        match t.spare_sets with
        | objs :: rest ->
          t.spare_sets <- rest;
          objs
        | [] -> Strtbl.create 8
      in
      Hashtbl.replace t.owned owner objs;
      objs
  in
  Strtbl.replace objs (obj_name t obj) obj

let active_waiters entry =
  Queue.fold (fun acc w -> if w.w_active then w :: acc else acc) [] entry.waiters
  |> List.rev

(* A request is grantable when every *other* holder's mode is compatible
   with the (possibly combined) requested mode. *)
let grantable t entry ~owner ~mode ~upgrade =
  let want =
    if upgrade then
      match find_holder entry owner with
      | Some h -> t.combine h.h_mode mode
      | None -> mode
    else mode
  in
  List.for_all
    (fun h -> h.h_owner = owner || t.compatible h.h_mode want)
    entry.holders

let grant t entry ~obj ~owner ~mode =
  (match find_holder entry owner with
  | Some h -> h.h_mode <- t.combine h.h_mode mode
  | None ->
    entry.holders <-
      { h_owner = owner; h_mode = mode; acquired_at = Engine.now t.engine } :: entry.holders;
    t.held_total <- t.held_total + 1);
  note_owned t owner obj;
  t.acquisitions <- t.acquisitions + 1;
  t.observer (Acquired { owner; obj })

(* Wake newly grantable waiters: upgrades first (they hold part of the lock
   already — making them wait behind ordinary requests invites needless
   deadlocks), then the FIFO prefix of ordinary waiters. *)
let grant_pass t obj entry =
  let wake w =
    w.w_active <- false;
    Hashtbl.remove t.waiting_on w.w_owner;
    t.observer
      (Wait_ended
         { owner = w.w_owner; obj; outcome = `Granted;
           waited = Engine.now t.engine -. w.w_since });
    grant t entry ~obj ~owner:w.w_owner ~mode:w.w_mode;
    w.w_resume (Ok Granted)
  in
  Queue.iter
    (fun w ->
      if w.w_active && w.w_upgrade
         && grantable t entry ~owner:w.w_owner ~mode:w.w_mode ~upgrade:true
      then wake w)
    entry.waiters;
  let continue = ref true in
  while !continue do
    match Queue.peek_opt entry.waiters with
    | None -> continue := false
    | Some w ->
      if not w.w_active then ignore (Queue.pop entry.waiters)
      else if grantable t entry ~owner:w.w_owner ~mode:w.w_mode ~upgrade:w.w_upgrade then begin
        ignore (Queue.pop entry.waiters);
        wake w
      end
      else continue := false
  done;
  if entry.holders = [] && Queue.is_empty entry.waiters then t.entries.(obj) <- None

(* Waits-for edges of a blocked owner: the holders of the object it waits
   on, plus active waiters queued ahead of it (they will be granted first). *)
let blockers t owner =
  match Hashtbl.find_opt t.waiting_on owner with
  | None -> []
  | Some (obj, w) -> (
    match find_entry t obj with
    | None -> []
    | Some entry ->
      let from_holders =
        List.filter_map
          (fun h -> if h.h_owner <> owner then Some h.h_owner else None)
          entry.holders
      in
      let ahead = ref [] in
      (try
         Queue.iter
           (fun w' ->
             if w' == w then raise Exit
             else if w'.w_active && w'.w_owner <> owner then ahead := w'.w_owner :: !ahead)
           entry.waiters
       with Exit -> ());
      from_holders @ List.rev !ahead)

(* Would blocking [owner] on [entry] close a waits-for cycle back to it?
   The visited-set is the table's generation-stamped scratch table, so the
   check allocates nothing beyond the transient blocker lists. *)
let would_deadlock t entry ~owner ~upgrade =
  let initial =
    let from_holders =
      List.filter_map
        (fun h -> if h.h_owner <> owner then Some h.h_owner else None)
        entry.holders
    in
    if upgrade then from_holders
    else
      from_holders
      @ List.filter_map
          (fun w -> if w.w_owner <> owner then Some w.w_owner else None)
          (active_waiters entry)
  in
  t.dd_gen <- t.dd_gen + 1;
  let gen = t.dd_gen in
  let rec reaches_owner node =
    if node = owner then true
    else if Hashtbl.find_opt t.dd_visited node = Some gen then false
    else begin
      Hashtbl.replace t.dd_visited node gen;
      List.exists reaches_owner (blockers t node)
    end
  in
  List.exists reaches_owner initial

let acquire t ~owner ~obj ~mode ?timeout () =
  let entry = entry_of t obj in
  let upgrade, already_covered =
    match find_holder entry owner with
    | Some h ->
      let want = t.combine h.h_mode mode in
      (true, want = h.h_mode)
    | None -> (false, false)
  in
  if already_covered then Granted
  else if
    grantable t entry ~owner ~mode ~upgrade
    && (upgrade || Queue.fold (fun acc w -> acc && not w.w_active) true entry.waiters)
  then begin
    grant t entry ~obj ~owner ~mode;
    Granted
  end
  else begin
    t.waits <- t.waits + 1;
    if would_deadlock t entry ~owner ~upgrade then begin
      t.deadlocks <- t.deadlocks + 1;
      t.observer (Wait_started { owner; obj });
      t.observer (Wait_ended { owner; obj; outcome = `Deadlock; waited = 0.0 });
      Deadlock
    end
    else begin
      t.observer (Wait_started { owner; obj });
      Fiber.await (fun resume ->
          let w =
            { w_owner = owner; w_mode = mode; w_upgrade = upgrade;
              w_since = Engine.now t.engine; w_active = true; w_resume = resume }
          in
          Queue.add w entry.waiters;
          Hashtbl.replace t.waiting_on owner (obj, w);
          match timeout with
          | None -> ()
          | Some d ->
            ignore
              (Engine.schedule t.engine ~delay:d (fun () ->
                   if w.w_active then begin
                     w.w_active <- false;
                     Hashtbl.remove t.waiting_on owner;
                     t.timeouts <- t.timeouts + 1;
                     t.observer
                       (Wait_ended
                          { owner; obj; outcome = `Timeout;
                            waited = Engine.now t.engine -. w.w_since });
                     resume (Ok Timeout)
                   end)))
    end
  end

let try_acquire t ~owner ~obj ~mode =
  let entry = entry_of t obj in
  let upgrade = Option.is_some (find_holder entry owner) in
  if
    grantable t entry ~owner ~mode ~upgrade
    && (upgrade || Queue.fold (fun acc w -> acc && not w.w_active) true entry.waiters)
  then begin
    grant t entry ~obj ~owner ~mode;
    true
  end
  else begin
    if entry.holders = [] && Queue.is_empty entry.waiters then t.entries.(obj) <- None;
    false
  end

let drop_holder t obj entry owner =
  match find_holder entry owner with
  | None -> ()
  | Some h ->
    entry.holders <- List.filter (fun h' -> h'.h_owner <> owner) entry.holders;
    t.held_total <- t.held_total - 1;
    let held = Engine.now t.engine -. h.acquired_at in
    t.hold_time_hook ~obj ~duration:held;
    t.observer (Released { owner; obj; held })

let release t ~owner ~obj =
  match find_entry t obj with
  | None -> ()
  | Some entry ->
    drop_holder t obj entry owner;
    (match Hashtbl.find_opt t.owned owner with
    | Some objs -> Strtbl.remove objs (obj_name t obj)
    | None -> ());
    grant_pass t obj entry

let cancel_wait t owner =
  match Hashtbl.find_opt t.waiting_on owner with
  | None -> ()
  | Some (obj, w) ->
    w.w_active <- false;
    Hashtbl.remove t.waiting_on owner;
    t.observer
      (Wait_ended
         { owner; obj; outcome = `Cancelled;
           waited = Engine.now t.engine -. w.w_since });
    w.w_resume (Error Lock_revoked);
    (match find_entry t obj with
    | Some entry -> grant_pass t obj entry
    | None -> ())

let release_all t ~owner =
  cancel_wait t owner;
  match Hashtbl.find_opt t.owned owner with
  | None -> ()
  | Some objs ->
    Hashtbl.remove t.owned owner;
    Strtbl.iter
      (fun _name obj ->
        match find_entry t obj with
        | None -> ()
        | Some entry ->
          drop_holder t obj entry owner;
          grant_pass t obj entry)
      objs;
    Strtbl.reset objs;
    t.spare_sets <- objs :: t.spare_sets

let reset t =
  let pending =
    Hashtbl.fold (fun _ (_, w) acc -> w :: acc) t.waiting_on []
  in
  Array.fill t.entries 0 (Array.length t.entries) None;
  Hashtbl.reset t.owned;
  Hashtbl.reset t.waiting_on;
  t.held_total <- 0;
  List.iter
    (fun w ->
      if w.w_active then begin
        w.w_active <- false;
        w.w_resume (Error Lock_revoked)
      end)
    pending

let held t ~owner =
  match Hashtbl.find_opt t.owned owner with
  | None -> []
  | Some objs ->
    Strtbl.fold
      (fun name obj acc ->
        match find_entry t obj with
        | None -> acc
        | Some entry -> (
          match find_holder entry owner with
          | Some h -> (name, h.h_mode) :: acc
          | None -> acc))
      objs []
    |> List.sort compare

let holders t ~obj =
  match find_entry t obj with
  | None -> []
  | Some entry ->
    List.map (fun h -> (h.h_owner, h.h_mode)) entry.holders |> List.sort compare

let set_hold_time_hook t f = t.hold_time_hook <- f
let set_observer t f = t.observer <- f
let acquisition_count t = t.acquisitions
let wait_count t = t.waits
let deadlock_count t = t.deadlocks
let timeout_count t = t.timeouts
let blocked_count t = Hashtbl.length t.waiting_on
let held_count t = t.held_total
let spare_set_count t = List.length t.spare_sets
