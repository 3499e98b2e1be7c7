type event = {
  time : float;
  seq : int; (* tie-breaker: FIFO among same-time events *)
  thunk : unit -> unit;
  mutable cancelled : bool; (* also set when the event fires: dead either way *)
}

type event_id = event

(* Binary min-heap ordered by (time, seq). *)
type t = {
  mutable heap : event array;
  mutable size : int;
  mutable now : float;
  mutable next_seq : int;
  mutable live : int; (* pending minus cancelled *)
  mutable observer : unit -> unit; (* called once per executed event *)
}

let dummy = { time = 0.0; seq = -1; thunk = (fun () -> ()); cancelled = true }

let create () =
  {
    heap = Array.make 64 dummy;
    size = 0;
    now = 0.0;
    next_seq = 0;
    live = 0;
    observer = (fun () -> ());
  }

let set_observer t f = t.observer <- f

let now t = t.now

let earlier a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if earlier t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && earlier t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.size && earlier t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t ev =
  if t.size = Array.length t.heap then begin
    let bigger = Array.make (2 * t.size) dummy in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger
  end;
  t.heap.(t.size) <- ev;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

(* Keep the backing array within 4x of the live size so a burst of
   scheduling (e.g. a retry storm) does not pin memory for the rest of
   the run. 64 matches the initial capacity. *)
let maybe_shrink t =
  let cap = Array.length t.heap in
  if cap > 64 && t.size < cap / 4 then begin
    let smaller = Array.make (max 64 (cap / 2)) dummy in
    Array.blit t.heap 0 smaller 0 t.size;
    t.heap <- smaller
  end

let pop t =
  let ev = t.heap.(0) in
  (* Refill the root from the tail. Cancelled tail events are dead weight:
     drop them here instead of sifting them to the root one pop at a time.
     Sound because (time, seq) is a strict total order, so the heap shape
     never affects which live event is the minimum. *)
  let rec refill () =
    t.size <- t.size - 1;
    let last = t.heap.(t.size) in
    t.heap.(t.size) <- dummy;
    if t.size > 0 then
      if last.cancelled then refill ()
      else begin
        t.heap.(0) <- last;
        sift_down t 0
      end
  in
  refill ();
  maybe_shrink t;
  ev

let schedule t ~delay thunk =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  let ev = { time = t.now +. delay; seq = t.next_seq; thunk; cancelled = false } in
  t.next_seq <- t.next_seq + 1;
  push t ev;
  t.live <- t.live + 1;
  ev

let cancel t ev =
  if not ev.cancelled then begin
    ev.cancelled <- true;
    t.live <- t.live - 1
  end

(* Pops cancelled events lazily; returns the next live event if any. *)
let rec next_live t =
  if t.size = 0 then None
  else
    let ev = pop t in
    if ev.cancelled then next_live t else Some ev

let step t =
  match next_live t with
  | None -> false
  | Some ev ->
    ev.cancelled <- true;
    t.now <- ev.time;
    t.live <- t.live - 1;
    t.observer ();
    ev.thunk ();
    true

let run t =
  while step t do
    ()
  done

let run_until t horizon =
  let continue = ref true in
  while !continue do
    match next_live t with
    | None -> continue := false
    | Some ev ->
      if ev.time > horizon then begin
        (* Put it back: not yet due. *)
        push t ev;
        continue := false
      end
      else begin
        ev.cancelled <- true;
        t.now <- ev.time;
        t.live <- t.live - 1;
        t.observer ();
        ev.thunk ()
      end
  done;
  if t.now < horizon then t.now <- horizon

let pending t = t.live
