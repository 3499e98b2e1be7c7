(* Event timestamps are non-negative floats ([now + delay], both >= 0), so
   they are kept bit-encoded as immediate ints: for non-negative IEEE
   doubles the raw bit pattern is monotone in the value, and shifting it
   down by 2^62 lands it exactly in OCaml's 63-bit int range. The encoding
   is an order-preserving bijection, so comparisons on keys equal
   comparisons on times — and the event record stays pointer-free apart
   from the thunk, instead of dragging a boxed float behind every record.
   At 10^6+ pending events that box is a second cold cache line per
   comparison; removing it is most of the calendar's speed at scale. *)
let bias = 0x4000000000000000L
let encode tm = Int64.to_int (Int64.sub (Int64.bits_of_float tm) bias)
let decode k = Int64.float_of_bits (Int64.add (Int64.of_int k) bias)

type event = {
  key : int; (* order-preserving bit encoding of the fire time *)
  seq : int; (* tie-breaker: FIFO among same-time events *)
  thunk : unit -> unit;
  mutable cancelled : bool; (* also set when the event fires: dead either way *)
  (* intrusive chain for the same-instant lane, calendar buckets and the
     overflow list: a day bucket is just a head pointer, so inserting
     far-future events touches one cold cache line (the head slot) instead
     of a bucket record plus a growable array. [dummy] is the nil sentinel;
     events in the heap keep [next = dummy] so dead events are never pinned
     through stale links. *)
  mutable next : event;
}

type event_id = event

(* Same-instant lane plus hybrid calendar queue.

   An event whose encoded fire time equals the current clock (a fiber's
   resume hop, a [spawn], any zero delay) goes to the [lane]: a FIFO
   chained through [next], pushed at the tail and popped at the head, with
   no comparisons. Such an event was scheduled at [now], so its [seq] is
   larger than that of every event already queued for [now] — those were
   scheduled before the clock reached [now]. Hence the lane is in
   ([time], [seq]) order, every heap or calendar event at [now] precedes
   it, and [peek] takes from the heap while the heap's minimum is at [now]
   and from the lane otherwise: pop order is the exact order of a single
   heap.

   Everything else lives in one of two regimes sharing one API:

   - Below [threshold] pending events the engine is exactly the binary
     min-heap it has always been: every event lives in [heap], ordered by
     the strict ([time], [seq]) total order, and [frontier] is [infinity].
     This is the exact fallback — seed-scale runs never leave it.

   - Past [threshold] the far future moves out of the heap into a calendar:
     an array of day [buckets] of equal [width], auto-tuned at each rebuild
     from the observed mean inter-event gap so a bucket holds a handful of
     events. The heap then only holds events with [time < frontier] (the
     start of the first undrained day); buckets are unsorted and are sorted
     lazily — when the heap runs dry the next non-empty bucket is dumped
     into it (dropping cancelled events), and [frontier] advances one day.
     Events beyond the calendar's end land in [overflow] and are
     redistributed into a fresh calendar (again dropping cancelled events)
     once the buckets are spent.

   Pop order is fully determined by the ([time], [seq]) total order, so the
   two regimes — and any switching between them — produce identical
   schedules; only the constant factors differ. The routing invariants that
   keep this exact under floating point are:

   - every heap event satisfies [time < frontier] (float compare),
   - every event in bucket [b] satisfies [day_start b <= time] (same
     expression as [frontier]), and
   - [frontier = day_start cur] with [cur] the first undrained bucket,

   so no bucket can hold an event that should pop before something in the
   heap. Bucket indices are settled by direct comparison against
   [day_start], not trusted from float division. *)

(* Shared state of a coupled engine group (see {!attach}): one sequence
   counter and one clock for every engine in the group, so the global
   (time, seq) order of a partitioned run is the same strict total order a
   single engine would have produced. [current] is the partition whose
   events are being executed right now (-1 outside a parallel run);
   [on_cross] fires when an event is scheduled onto a partition other than
   the current one — the parallel scheduler uses it to shrink the running
   window's bound. Only one domain executes events at any moment (the
   scheduler serializes execution through a mutex handoff), so plain
   mutable fields are race-free. *)
type couple = {
  mutable gseq : int;
  mutable gnow : float;
  mutable current : int;
  mutable on_cross : int -> int -> int -> unit; (* owner, key, seq *)
}

type t = {
  mutable heap : event array;
  mutable size : int;
  mutable now : float;
  mutable next_seq : int;
  mutable owner : int; (* partition id within a couple; 0 when alone *)
  mutable couple : couple option;
  mutable live : int; (* pending minus cancelled *)
  (* same-instant lane: FIFO of events at the current clock *)
  mutable lane_head : event; (* [dummy] when empty *)
  mutable lane_tail : event; (* [dummy] when empty *)
  mutable lane_count : int; (* events in the lane (incl. cancelled) *)
  mutable executed : int;
  mutable observer : unit -> unit; (* called once per executed event *)
  threshold : int;
  (* calendar state; meaningful only when [cal_on] *)
  mutable cal_on : bool;
  mutable cal_ok : bool; (* false after a non-finite timestamp poisons tuning *)
  mutable frontier : int; (* heap holds key < frontier; encoded infinity when off *)
  mutable buckets : event array; (* chain heads; [dummy] = empty day *)
  mutable width : float;
  mutable cal_start : float;
  mutable cur : int; (* first undrained bucket *)
  mutable cal_count : int; (* events stored in buckets (incl. cancelled) *)
  mutable overflow : event; (* chain of events past the calendar end *)
  mutable ov_count : int;
  mutable resize_hook : buckets:int -> width:float -> events:int -> unit;
}

let rec dummy =
  { key = encode 0.0; seq = -1; thunk = (fun () -> ()); cancelled = true; next = dummy }

let create ?(threshold = 16384) () =
  {
    heap = Array.make 64 dummy;
    size = 0;
    now = 0.0;
    next_seq = 0;
    owner = 0;
    couple = None;
    live = 0;
    lane_head = dummy;
    lane_tail = dummy;
    lane_count = 0;
    executed = 0;
    observer = (fun () -> ());
    threshold = max 64 threshold;
    cal_on = false;
    cal_ok = true;
    frontier = encode infinity;
    buckets = [||];
    width = 1.0;
    cal_start = 0.0;
    cur = 0;
    cal_count = 0;
    overflow = dummy;
    ov_count = 0;
    resize_hook = (fun ~buckets:_ ~width:_ ~events:_ -> ());
  }

let set_observer t f = t.observer <- f
let set_resize_hook t f = t.resize_hook <- f
let now t = match t.couple with Some c -> c.gnow | None -> t.now

let couple_create () =
  { gseq = 0; gnow = 0.0; current = -1; on_cross = (fun _ _ _ -> ()) }

let attach t c ~owner =
  if t.next_seq > 0 || t.executed > 0 || t.live > 0 then
    invalid_arg "Engine.attach: engine already in use";
  t.owner <- owner;
  t.couple <- Some c

let set_current c i = c.current <- i
let set_on_cross c f = c.on_cross <- f
let pending t = t.live
let executed t = t.executed
let stored t = t.size + t.lane_count + t.cal_count + t.ov_count
let calendar_active t = t.cal_on

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

(* -- calendar ----------------------------------------------------------- *)

let day_start t i = t.cal_start +. (float_of_int i *. t.width)

(* Precondition: calendar on and not (ev.key < t.frontier). *)
let calendar_insert t ev =
  let nb = Array.length t.buckets in
  let tm = decode ev.key in
  if not (tm < day_start t nb) then begin
    ev.next <- t.overflow;
    t.overflow <- ev;
    t.ov_count <- t.ov_count + 1
  end
  else begin
    (* Start from the float-division estimate, then settle onto the day
       whose [day_start] brackets the time under the same comparisons the
       drain path uses — a raw truncation can be off by one at a day
       boundary, which would break the heap/bucket ordering invariant. *)
    let raw = int_of_float ((tm -. t.cal_start) /. t.width) in
    let idx = ref (if raw < t.cur then t.cur else if raw >= nb then nb - 1 else raw) in
    while !idx > t.cur && tm < day_start t !idx do
      decr idx
    done;
    while !idx < nb - 1 && not (tm < day_start t (!idx + 1)) do
      incr idx
    done;
    ev.next <- t.buckets.(!idx);
    t.buckets.(!idx) <- ev;
    t.cal_count <- t.cal_count + 1
  end

(* Rebuild the calendar from the overflow staging bucket: drop cancelled
   events, re-tune the day width from the observed mean inter-event gap
   (about 8 live events per day) and redistribute. Degenerate inputs —
   non-finite timestamps, or a magnitude so large the width is absorbed by
   rounding — fall back to the plain heap. *)
let rebuild t =
  (* filter the overflow chain — drop cancelled events, track the key
     extrema (min/max over keys equals min/max over times: the encoding is
     monotone) *)
  let live = ref dummy and m = ref 0 in
  let mnk = ref max_int and mxk = ref min_int in
  let p = ref t.overflow in
  t.overflow <- dummy;
  t.ov_count <- 0;
  while !p != dummy do
    let ev = !p in
    p := ev.next;
    if ev.cancelled then ev.next <- dummy
    else begin
      ev.next <- !live;
      live := ev;
      incr m;
      if ev.key < !mnk then mnk := ev.key;
      if ev.key > !mxk then mxk := ev.key
    end
  done;
  let m = !m in
  if m > 0 then begin
    let mn = decode !mnk and mx = decode !mxk in
    let gap = (mx -. mn) /. float_of_int (max 1 (m - 1)) in
    let width = ref (if gap > 0.0 then 8.0 *. gap else 1.0) in
    if (not (Float.is_finite mn && Float.is_finite mx)) || not (mn +. !width > mn)
    then begin
      (* heap fallback; [cal_ok <- false] stops activation from thrashing *)
      let p = ref !live in
      while !p != dummy do
        let ev = !p in
        p := ev.next;
        ev.next <- dummy;
        heap_push t ev
      done;
      t.cal_on <- false;
      t.cal_ok <- false;
      t.frontier <- encode infinity
    end
    else begin
      let nb = max 16 ((m + 7) / 8) in
      while not (mx < mn +. (float_of_int nb *. !width)) do
        width := !width *. 2.0
      done;
      t.buckets <- Array.make nb dummy;
      t.width <- !width;
      t.cal_start <- mn;
      t.cur <- 0;
      t.cal_count <- 0;
      t.frontier <- encode (day_start t 0);
      let p = ref !live in
      while !p != dummy do
        let ev = !p in
        p := ev.next;
        calendar_insert t ev
      done;
      t.resize_hook ~buckets:nb ~width:!width ~events:m
    end
  end

(* Refill the heap from the calendar: skip empty days, dump the next
   non-empty bucket (this is where a bucket gets sorted — by pushing its
   live events into the near heap), advance the frontier one day. When the
   buckets are spent, rebuild from overflow; when that is empty too, the
   calendar shuts off and the engine is a plain heap again. Only called
   with an empty heap. *)
let rec advance t =
  if t.cal_count > 0 then begin
    while t.buckets.(t.cur) == dummy do
      t.cur <- t.cur + 1
    done;
    let p = ref t.buckets.(t.cur) in
    t.buckets.(t.cur) <- dummy;
    while !p != dummy do
      let ev = !p in
      p := ev.next;
      ev.next <- dummy;
      t.cal_count <- t.cal_count - 1;
      if not ev.cancelled then heap_push t ev
    done;
    t.cur <- t.cur + 1;
    t.frontier <- encode (day_start t (min t.cur (Array.length t.buckets)));
    if t.size = 0 then advance t (* the whole bucket was cancelled *)
  end
  else if t.ov_count > 0 then begin
    rebuild t;
    if t.size = 0 && t.cal_on then advance t
  end
  else begin
    t.cal_on <- false;
    t.frontier <- encode infinity
  end

(* Move everything onto the overflow staging chain (dropping cancelled
   events) and build the first calendar from it. *)
let activate t =
  let head = ref dummy and m = ref 0 in
  for i = 0 to t.size - 1 do
    let ev = t.heap.(i) in
    t.heap.(i) <- dummy;
    if not ev.cancelled then begin
      ev.next <- !head;
      head := ev;
      incr m
    end
  done;
  t.heap <- Array.make 64 dummy;
  t.size <- 0;
  t.overflow <- !head;
  t.ov_count <- !m;
  t.cal_on <- true;
  rebuild t

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

(* [now] is the clock the event's time was computed from. *)
let insert t ev now =
  if ev.key = encode now then lane_push t ev
  else if (not t.cal_on) || ev.key < t.frontier then begin
    heap_push t ev;
    if (not t.cal_on) && t.cal_ok && t.size >= t.threshold then activate t
  end
  else calendar_insert t ev

let schedule t ~delay thunk =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  match t.couple with
  | None ->
    let ev =
      {
        key = encode (t.now +. delay);
        seq = t.next_seq;
        thunk;
        cancelled = false;
        next = dummy;
      }
    in
    t.next_seq <- t.next_seq + 1;
    insert t ev t.now;
    t.live <- t.live + 1;
    ev
  | Some c ->
    (* Coupled: the timestamp comes from the shared clock and the
       tie-breaker from the shared sequence counter, so the (time, seq)
       pair is exactly what a single engine would have assigned to this
       same call. *)
    let ev =
      {
        key = encode (c.gnow +. delay);
        seq = c.gseq;
        thunk;
        cancelled = false;
        next = dummy;
      }
    in
    c.gseq <- c.gseq + 1;
    insert t ev c.gnow;
    t.live <- t.live + 1;
    if t.owner <> c.current then c.on_cross t.owner ev.key ev.seq;
    ev

(* Unlink cancelled events from a chain; returns the new head and the
   count of survivors. Reverses the chain — bucket chains are unsorted, so
   order within one is irrelevant. *)
let compact_chain head =
  let h = ref dummy and n = ref 0 in
  let p = ref head in
  while !p != dummy do
    let ev = !p in
    p := ev.next;
    if ev.cancelled then ev.next <- dummy
    else begin
      ev.next <- !h;
      h := ev;
      incr n
    end
  done;
  (!h, !n)

(* Sweep cancelled events out of every store. O(stored), amortized by the
   [stored > 2 * live + 64] trigger in [cancel]: at least half of what we
   scan is garbage. Pop order is unaffected — (time, seq) is a strict
   total order, so dropping dead events never changes which live event is
   the minimum. *)
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
  done;
  if t.cal_on then begin
    let cnt = ref 0 in
    for i = t.cur to Array.length t.buckets - 1 do
      let h, n = compact_chain t.buckets.(i) in
      t.buckets.(i) <- h;
      cnt := !cnt + n
    done;
    t.cal_count <- !cnt;
    let h, n = compact_chain t.overflow in
    t.overflow <- h;
    t.ov_count <- n
  end

let cancel t ev =
  if not ev.cancelled then begin
    ev.cancelled <- true;
    t.live <- t.live - 1;
    if stored t > (2 * t.live) + 64 then compact t
  end

(* The next live event, left in place; [dummy] when drained. Drops dead
   heads and advances the calendar as needed, so any later [insert] still
   lands correctly. The heap's minimum goes before the lane while it is at
   the lane's instant (the heap never holds an earlier key). With the heap
   empty, a calendar whose frontier is not past the lane's instant may
   hold events at that instant too, so it advances first: activation moves
   them out of the heap, and a coupled engine's clock moves on while its
   own queue idles. The parallel scheduler compares [head] pairs across
   partitions to bound windows. *)
let rec peek t =
  let l = t.lane_head in
  if l == dummy then begin
    if t.size = 0 && t.cal_on then advance t;
    if t.size = 0 then dummy
    else
      let h = t.heap.(0) in
      if h.cancelled then begin
        ignore (pop t);
        peek t
      end
      else h
  end
  else if l.cancelled then begin
    lane_pop t;
    peek t
  end
  else if t.size = 0 then
    if t.cal_on && t.frontier <= l.key then begin
      advance t;
      peek t
    end
    else l
  else
    let h = t.heap.(0) in
    if h.key > l.key then l
    else if h.cancelled then begin
      ignore (pop t);
      peek t
    end
    else h

let head t =
  let ev = peek t in
  if ev == dummy then None else Some (ev.key, ev.seq)

(* Remove [ev], the event [peek] just returned, and run it. *)
let fire t ev =
  if ev == t.lane_head then lane_pop t else ignore (pop t);
  ev.cancelled <- true;
  let tm = decode ev.key in
  t.now <- tm;
  (match t.couple with Some c -> c.gnow <- tm | None -> ());
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
  (* A coupled engine has no private clock to advance; draining a coupled
     group is the parallel scheduler's job. *)
  if t.couple <> None then invalid_arg "Engine.run_until: engine is coupled";
  let continue = ref true in
  while !continue do
    let ev = peek t in
    if ev == dummy || decode ev.key > horizon then continue := false else fire t ev
  done;
  if t.now < horizon then t.now <- horizon
