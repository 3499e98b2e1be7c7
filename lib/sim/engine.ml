(* Event timestamps are non-negative floats ([now + delay], both >= 0), so
   they are kept bit-encoded as immediate ints: for non-negative IEEE
   doubles the raw bit pattern is monotone in the value, and shifting it
   down by 2^62 lands it exactly in OCaml's 63-bit int range. The encoding
   is an order-preserving bijection, so comparisons on keys equal
   comparisons on times — and the event record stays pointer-free apart
   from the thunk, instead of dragging a boxed float behind every record
   that every heap comparison would have to dereference. *)
let bias = 0x4000000000000000L
let encode tm = Int64.to_int (Int64.sub (Int64.bits_of_float tm) bias)
let decode k = Int64.float_of_bits (Int64.add (Int64.of_int k) bias)

type event = {
  key : int; (* order-preserving bit encoding of the fire time *)
  seq : int; (* tie-breaker: FIFO among same-time events *)
  thunk : unit -> unit;
  mutable cancelled : bool; (* also set when the event fires: dead either way *)
  (* intrusive chain for the same-instant lane. [dummy] is the nil
     sentinel; events in the heap keep [next = dummy] so dead events are
     never pinned through stale links. *)
  mutable next : event;
}

type event_id = event

(* Binary min-heap plus same-instant lane.

   An event whose encoded fire time equals the current clock (a fiber's
   resume hop, a [spawn], any zero delay) goes to the [lane]: a FIFO
   chained through [next], pushed at the tail and popped at the head, with
   no comparisons. Such an event was scheduled at [now], so its [seq] is
   larger than that of every event already queued for [now] — those were
   scheduled before the clock reached [now]. Hence the lane is in
   ([time], [seq]) order, every heap event at [now] precedes it, and
   [peek] takes from the heap while the heap's minimum is at [now] and
   from the lane otherwise: pop order is the exact order of a single heap.
   Every other event lives in [heap], ordered by the strict ([time], [seq])
   total order. *)
type t = {
  mutable heap : event array;
  mutable size : int;
  mutable now : float;
  mutable next_seq : int;
  mutable live : int; (* pending minus cancelled *)
  (* same-instant lane: FIFO of events at the current clock *)
  mutable lane_head : event; (* [dummy] when empty *)
  mutable lane_tail : event; (* [dummy] when empty *)
  mutable lane_count : int; (* events in the lane (incl. cancelled) *)
  mutable executed : int;
  mutable observer : unit -> unit; (* called once per executed event *)
}

let rec dummy =
  { key = encode 0.0; seq = -1; thunk = (fun () -> ()); cancelled = true; next = dummy }

let create () =
  {
    heap = Array.make 64 dummy;
    size = 0;
    now = 0.0;
    next_seq = 0;
    live = 0;
    lane_head = dummy;
    lane_tail = dummy;
    lane_count = 0;
    executed = 0;
    observer = (fun () -> ());
  }

let set_observer t f = t.observer <- f
let now t = t.now
let pending t = t.live
let executed t = t.executed
let stored t = t.size + t.lane_count

let earlier a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

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

let heap_push t ev =
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

(* The lane's two ends; [dummy] links nothing, so it is never written. *)
let lane_push t ev =
  if t.lane_tail == dummy then t.lane_head <- ev else t.lane_tail.next <- ev;
  t.lane_tail <- ev;
  t.lane_count <- t.lane_count + 1

let lane_pop t =
  let ev = t.lane_head in
  t.lane_head <- ev.next;
  if ev == t.lane_tail then t.lane_tail <- dummy;
  ev.next <- dummy;
  t.lane_count <- t.lane_count - 1

let schedule t ~delay thunk =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  let ev =
    { key = encode (t.now +. delay); seq = t.next_seq; thunk; cancelled = false; next = dummy }
  in
  t.next_seq <- t.next_seq + 1;
  if ev.key = encode t.now then lane_push t ev else heap_push t ev;
  t.live <- t.live + 1;
  ev

(* Sweep cancelled events out of the heap and the lane. O(stored),
   amortized by the [stored > 2 * live + 64] trigger in [cancel]: at least
   half of what we scan is garbage. Pop order is unaffected — (time, seq)
   is a strict total order, so dropping dead events never changes which
   live event is the minimum. *)
let compact t =
  let m = ref 0 in
  for i = 0 to t.size - 1 do
    let ev = t.heap.(i) in
    if not ev.cancelled then begin
      t.heap.(!m) <- ev;
      incr m
    end
  done;
  for i = !m to t.size - 1 do
    t.heap.(i) <- dummy
  done;
  t.size <- !m;
  (* Floyd heapify: the surviving prefix is not heap-ordered anymore *)
  for i = (t.size / 2) - 1 downto 0 do
    sift_down t i
  done;
  maybe_shrink t;
  (* relink the lane's survivors in their FIFO order *)
  let p = ref t.lane_head in
  t.lane_head <- dummy;
  t.lane_tail <- dummy;
  t.lane_count <- 0;
  while !p != dummy do
    let ev = !p in
    p := ev.next;
    ev.next <- dummy;
    if not ev.cancelled then lane_push t ev
  done

let cancel t ev =
  if not ev.cancelled then begin
    ev.cancelled <- true;
    t.live <- t.live - 1;
    if stored t > (2 * t.live) + 64 then compact t
  end

(* The next live event, left in place; [dummy] when drained. Drops dead
   heads as it goes. The heap's minimum goes before the lane while it is
   at the lane's instant (the heap never holds an earlier key): this one
   comparison is the engine's whole same-time tie-break. *)
let rec peek t =
  let l = t.lane_head in
  if l == dummy then
    if t.size = 0 then dummy
    else
      let h = t.heap.(0) in
      if h.cancelled then begin
        ignore (pop t);
        peek t
      end
      else h
  else if l.cancelled then begin
    lane_pop t;
    peek t
  end
  else if t.size = 0 then l
  else
    let h = t.heap.(0) in
    if h.key > l.key then l
    else if h.cancelled then begin
      ignore (pop t);
      peek t
    end
    else h

(* Remove [ev], the event [peek] just returned, and run it. *)
let fire t ev =
  if ev == t.lane_head then lane_pop t else ignore (pop t);
  ev.cancelled <- true;
  t.now <- decode ev.key;
  t.live <- t.live - 1;
  t.executed <- t.executed + 1;
  t.observer ();
  ev.thunk ()

let step t =
  let ev = peek t in
  if ev == dummy then false
  else begin
    fire t ev;
    true
  end

let run t =
  while step t do
    ()
  done

let run_until t horizon =
  let continue = ref true in
  while !continue do
    let ev = peek t in
    if ev == dummy || decode ev.key > horizon then continue := false else fire t ev
  done;
  if t.now < horizon then t.now <- horizon
