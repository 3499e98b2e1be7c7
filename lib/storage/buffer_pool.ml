type frame = {
  pid : Disk.page_id;
  page : Page.t;
  mutable dirty : bool;
  mutable pins : int;
  mutable last_used : int; (* logical clock for LRU *)
}

type t = {
  disk : Disk.t;
  capacity : int;
  frames : (Disk.page_id, frame) Hashtbl.t;
  mutable wal_hook : lsn:int64 -> unit;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~capacity disk =
  if capacity <= 0 then invalid_arg "Buffer_pool.create: capacity must be positive";
  {
    disk;
    capacity;
    frames = Hashtbl.create (2 * capacity);
    wal_hook = (fun ~lsn:_ -> ());
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let set_wal_hook t f = t.wal_hook <- f

let write_back t frame =
  if frame.dirty then begin
    t.wal_hook ~lsn:(Page.lsn frame.page);
    Disk.write t.disk frame.pid frame.page;
    frame.dirty <- false
  end

let evict_one t =
  let victim =
    Hashtbl.fold
      (fun _ frame best ->
        if frame.pins > 0 then best
        else
          match best with
          | None -> Some frame
          | Some b -> if frame.last_used < b.last_used then Some frame else best)
      t.frames None
  in
  match victim with
  | None -> failwith "Buffer_pool: all frames pinned"
  | Some frame ->
    write_back t frame;
    Hashtbl.remove t.frames frame.pid;
    t.evictions <- t.evictions + 1

let fetch t pid =
  match Hashtbl.find_opt t.frames pid with
  | Some frame ->
    t.hits <- t.hits + 1;
    frame
  | None ->
    t.misses <- t.misses + 1;
    if Hashtbl.length t.frames >= t.capacity then evict_one t;
    let frame = { pid; page = Disk.read t.disk pid; dirty = false; pins = 0; last_used = 0 } in
    Hashtbl.replace t.frames pid frame;
    frame

(* Unpin via an explicit exception match, not [Fun.protect]: the finaliser
   pattern is not effect-safe (a fiber suspending inside [f] would leave the
   pin held if the continuation were dropped), and [Finally_raised] would
   mask the original exception. [f] either returns or raises; the pin is
   balanced on both paths. Under [write] the frame is marked dirty on a
   raise (its content may have been touched) and on a return for which
   [dirty] holds. *)
let pinned t pid ~write ~dirty f =
  let frame = fetch t pid in
  frame.pins <- frame.pins + 1;
  t.tick <- t.tick + 1;
  frame.last_used <- t.tick;
  match f frame.page with
  | v ->
    frame.pins <- frame.pins - 1;
    if write && dirty v then frame.dirty <- true;
    v
  | exception e ->
    frame.pins <- frame.pins - 1;
    if write then frame.dirty <- true;
    raise e

let with_page t pid ~write f = pinned t pid ~write ~dirty:(fun _ -> true) f
let with_page_opt t pid f = pinned t pid ~write:true ~dirty:Option.is_some f

let flush_page t pid =
  match Hashtbl.find_opt t.frames pid with
  | Some frame -> write_back t frame
  | None -> ()

let flush_all t = Hashtbl.iter (fun _ frame -> write_back t frame) t.frames

let drop_all t = Hashtbl.reset t.frames

let dirty_pages t =
  Hashtbl.fold (fun pid frame acc -> if frame.dirty then pid :: acc else acc) t.frames []
  |> List.sort compare

(* Outstanding pins across every frame. Steady-state invariant: zero — every
   pin is scoped to a [with_page] call, so a nonzero count between
   operations is a leak. *)
let pin_count t = Hashtbl.fold (fun _ frame acc -> acc + frame.pins) t.frames 0

let capacity t = t.capacity
let hit_count t = t.hits
let miss_count t = t.misses
let eviction_count t = t.evictions
