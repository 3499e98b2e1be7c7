type event =
  | Begin of { id : int; parent : int; actor : string; time : float; kind : Span.kind }
  | End of { id : int; time : float }
  | Complete of { actor : string; start : float; stop : float; kind : Span.kind }
  | Instant of { actor : string; time : float; kind : Span.kind }

(* Flight-recorder ring storage, unboxed and strided.

   Storing boxed [event] values into a long-lived ring array looks cheap
   but is not: each event is young at the store and dead [cap] pushes
   later, yet every minor GC in between promotes the entire surviving ring
   contents (event records plus their [Span.kind] payloads) into the major
   heap, where they immediately become garbage the major collector has to
   find. On the 12k-transaction bench kernel that churn alone costs more
   than the pushes themselves.

   So the ring holds no event values. Each slot is a fixed stride in three
   flat arrays — ints (event tag, span kind tag and small enums packed into
   one word, plus id/parent/gid), unboxed floats (start/stop times), and
   pointers to strings that are already long-lived (actor names,
   protocol/phase/site/label atoms). A push writes a few adjacent words in
   three cache lines, crosses no write barrier, and leaves nothing for the
   GC to promote. Events are re-boxed only on the cold read side ({!iter}
   and friends). *)
type ring = {
  (* stride 4: packed (tag lor ktag<<2 lor kint2<<6), id, parent, kint *)
  r_int : int array;
  (* stride 2: t0 (Begin/Instant time, Complete start), t1 (Complete stop) *)
  r_flt : float array;
  (* stride 3: actor, kstr, kstr2 *)
  r_str : string array;
}

type t = {
  mutable clock : unit -> float;
  mutable enabled : bool;
  mutable events : event array; (* growable store (unbounded mode only) *)
  mutable len : int;
  mutable next_id : int;
  mutable cap : int; (* ring capacity; 0 = unbounded growable array *)
  mutable head : int; (* ring read position (oldest retained event) *)
  mutable dropped : int; (* events overwritten by ring wraparound *)
  ring : ring option; (* Some iff cap > 0 *)
  mutable sink : (event -> unit) option; (* streaming tap, fed every event *)
  mutable store : bool; (* false = sink-only, nothing retained *)
  mutable sampler : (Span.kind -> bool) option; (* None = keep everything *)
}

let dummy = Instant { actor = ""; time = 0.0; kind = Span.Mark "" }
let no_str = ""

let make_ring cap =
  {
    r_int = Array.make (4 * cap) 0;
    r_flt = Array.make (2 * cap) 0.0;
    r_str = Array.make (3 * cap) no_str;
  }

let create ?(enabled = false) ?limit ~clock () =
  let cap = match limit with None -> 0 | Some n -> max n 1 in
  {
    clock;
    enabled;
    events = (if cap > 0 then [||] else Array.make 256 dummy);
    len = 0;
    next_id = 0;
    cap;
    head = 0;
    dropped = 0;
    ring = (if cap > 0 then Some (make_ring cap) else None);
    sink = None;
    store = true;
    sampler = None;
  }

let enabled t = t.enabled
let set_clock t clock = t.clock <- clock

let set_sink t sink = t.sink <- sink
let set_store t store = t.store <- store
let set_sampler t sampler = t.sampler <- sampler
let dropped t = t.dropped
let capacity t = if t.cap > 0 then Some t.cap else None

let sampled t kind =
  match t.sampler with None -> true | Some keep -> keep kind

(* Claim the next ring slot: overwrite the oldest event when full. Indices
   advance one step at a time, so a compare-and-reset wrap replaces the
   integer division. *)
let ring_pos t =
  if t.len = t.cap then begin
    let h = t.head in
    t.head <- (let h' = h + 1 in if h' = t.cap then 0 else h');
    t.dropped <- t.dropped + 1;
    h
  end
  else begin
    let i = t.head + t.len in
    let i = if i >= t.cap then i - t.cap else i in
    t.len <- t.len + 1;
    i
  end

(* Event tags (bits 0-1 of the packed word). *)
let tag_begin = 0
and tag_end = 1
and tag_complete = 2
and tag_instant = 3

(* [store_kind r ~ib ~sb ~tag kind] fills the kind slots of event [ib/sb]
   and writes the packed word: event tag, kind constructor index (bits
   2-5) and any small enum payload — direction, commit flag, phase index —
   in the bits above. Indices come from {!ring_pos}, hence in bounds. *)
let store_kind r ~ib ~sb ~tag (kind : Span.kind) =
  match kind with
  | Span.Txn { gid; protocol } ->
    Array.unsafe_set r.r_int ib tag;
    Array.unsafe_set r.r_int (ib + 3) gid;
    Array.unsafe_set r.r_str (sb + 1) protocol
  | Span.Phase { gid; phase } ->
    Array.unsafe_set r.r_int ib (tag lor (1 lsl 2) lor (Span.phase_index phase lsl 6));
    Array.unsafe_set r.r_int (ib + 3) gid
  | Span.Branch { gid; site } ->
    Array.unsafe_set r.r_int ib (tag lor (2 lsl 2));
    Array.unsafe_set r.r_int (ib + 3) gid;
    Array.unsafe_set r.r_str (sb + 1) site
  | Span.Lock_wait { table; obj } ->
    Array.unsafe_set r.r_int ib (tag lor (3 lsl 2));
    Array.unsafe_set r.r_str (sb + 1) table;
    Array.unsafe_set r.r_str (sb + 2) obj
  | Span.Lock_hold { table; obj } ->
    Array.unsafe_set r.r_int ib (tag lor (4 lsl 2));
    Array.unsafe_set r.r_str (sb + 1) table;
    Array.unsafe_set r.r_str (sb + 2) obj
  | Span.Message { label; direction } ->
    let dir = match direction with Span.Send -> 0 | Span.Recv -> 1 | Span.Drop -> 2 in
    Array.unsafe_set r.r_int ib (tag lor (5 lsl 2) lor (dir lsl 6));
    Array.unsafe_set r.r_str (sb + 1) label
  | Span.Wal_force { site } ->
    Array.unsafe_set r.r_int ib (tag lor (6 lsl 2));
    Array.unsafe_set r.r_str (sb + 1) site
  | Span.Outage { site } ->
    Array.unsafe_set r.r_int ib (tag lor (7 lsl 2));
    Array.unsafe_set r.r_str (sb + 1) site
  | Span.Decision { gid; commit } ->
    Array.unsafe_set r.r_int ib (tag lor (8 lsl 2) lor (Bool.to_int commit lsl 6));
    Array.unsafe_set r.r_int (ib + 3) gid
  | Span.Mark s ->
    Array.unsafe_set r.r_int ib (tag lor (9 lsl 2));
    Array.unsafe_set r.r_str (sb + 1) s

let phase_of_index : int -> Span.phase = function
  | 0 -> Span.Execute
  | 1 -> Span.Vote
  | 2 -> Span.Decide
  | 3 -> Span.Local_commit
  | 4 -> Span.Redo
  | _ -> Span.Compensate

let load_kind r ~ib ~sb ~packed : Span.kind =
  let kint2 = packed lsr 6 in
  match (packed lsr 2) land 15 with
  | 0 -> Span.Txn { gid = r.r_int.(ib + 3); protocol = r.r_str.(sb + 1) }
  | 1 -> Span.Phase { gid = r.r_int.(ib + 3); phase = phase_of_index kint2 }
  | 2 -> Span.Branch { gid = r.r_int.(ib + 3); site = r.r_str.(sb + 1) }
  | 3 -> Span.Lock_wait { table = r.r_str.(sb + 1); obj = r.r_str.(sb + 2) }
  | 4 -> Span.Lock_hold { table = r.r_str.(sb + 1); obj = r.r_str.(sb + 2) }
  | 5 ->
    Span.Message
      {
        label = r.r_str.(sb + 1);
        direction = (match kint2 with 0 -> Span.Send | 1 -> Span.Recv | _ -> Span.Drop);
      }
  | 6 -> Span.Wal_force { site = r.r_str.(sb + 1) }
  | 7 -> Span.Outage { site = r.r_str.(sb + 1) }
  | 8 -> Span.Decision { gid = r.r_int.(ib + 3); commit = kint2 = 1 }
  | _ -> Span.Mark r.r_str.(sb + 1)

let ring_nth r i =
  let ib = 4 * i and fb = 2 * i and sb = 3 * i in
  let packed = r.r_int.(ib) in
  match packed land 3 with
  | 0 ->
    Begin
      {
        id = r.r_int.(ib + 1);
        parent = r.r_int.(ib + 2);
        actor = r.r_str.(sb);
        time = r.r_flt.(fb);
        kind = load_kind r ~ib ~sb ~packed;
      }
  | 1 -> End { id = r.r_int.(ib + 1); time = r.r_flt.(fb) }
  | 2 ->
    Complete
      {
        actor = r.r_str.(sb);
        start = r.r_flt.(fb);
        stop = r.r_flt.(fb + 1);
        kind = load_kind r ~ib ~sb ~packed;
      }
  | _ ->
    Instant
      { actor = r.r_str.(sb); time = r.r_flt.(fb); kind = load_kind r ~ib ~sb ~packed }

let ring_store t r ev =
  let i = ring_pos t in
  let ib = 4 * i and fb = 2 * i and sb = 3 * i in
  match ev with
  | Begin { id; parent; actor; time; kind } ->
    Array.unsafe_set r.r_int (ib + 1) id;
    Array.unsafe_set r.r_int (ib + 2) parent;
    Array.unsafe_set r.r_str sb actor;
    Array.unsafe_set r.r_flt fb time;
    store_kind r ~ib ~sb ~tag:tag_begin kind
  | End { id; time } ->
    Array.unsafe_set r.r_int ib tag_end;
    Array.unsafe_set r.r_int (ib + 1) id;
    Array.unsafe_set r.r_flt fb time
  | Complete { actor; start; stop; kind } ->
    Array.unsafe_set r.r_str sb actor;
    Array.unsafe_set r.r_flt fb start;
    Array.unsafe_set r.r_flt (fb + 1) stop;
    store_kind r ~ib ~sb ~tag:tag_complete kind
  | Instant { actor; time; kind } ->
    Array.unsafe_set r.r_str sb actor;
    Array.unsafe_set r.r_flt fb time;
    store_kind r ~ib ~sb ~tag:tag_instant kind

let push t ev =
  (match t.sink with None -> () | Some f -> f ev);
  if t.store then begin
    match t.ring with
    | Some r -> ring_store t r ev
    | None ->
      if t.len = Array.length t.events then begin
        let bigger = Array.make (2 * t.len) dummy in
        Array.blit t.events 0 bigger 0 t.len;
        t.events <- bigger
      end;
      t.events.(t.len) <- ev;
      t.len <- t.len + 1
  end

(* The four recording entry points write the ring directly when no sink is
   attached — the common (chaos flight-recorder) configuration — so the
   steady-state path never allocates the boxed [event] at all. Any other
   configuration falls back to {!push}, which needs the boxed value for the
   sink anyway. *)

let begin_span t ?(parent = -1) ~actor kind =
  if not t.enabled then -1
  else if not (sampled t kind) then -1
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let time = t.clock () in
    (match (t.ring, t.sink) with
    | Some r, None ->
      if t.store then begin
        let i = ring_pos t in
        let ib = 4 * i and sb = 3 * i in
        Array.unsafe_set r.r_int (ib + 1) id;
        Array.unsafe_set r.r_int (ib + 2) parent;
        Array.unsafe_set r.r_str sb actor;
        Array.unsafe_set r.r_flt (2 * i) time;
        store_kind r ~ib ~sb ~tag:tag_begin kind
      end
    | _ -> push t (Begin { id; parent; actor; time; kind }));
    id
  end

let end_span t id =
  if t.enabled && id >= 0 then begin
    match (t.ring, t.sink) with
    | Some r, None ->
      if t.store then begin
        let i = ring_pos t in
        let ib = 4 * i in
        Array.unsafe_set r.r_int ib tag_end;
        Array.unsafe_set r.r_int (ib + 1) id;
        Array.unsafe_set r.r_flt (2 * i) (t.clock ())
      end
    | _ -> push t (End { id; time = t.clock () })
  end

let complete t ~actor ~start ?stop kind =
  if t.enabled && sampled t kind then begin
    let stop = match stop with Some s -> s | None -> t.clock () in
    match (t.ring, t.sink) with
    | Some r, None ->
      if t.store then begin
        let i = ring_pos t in
        let ib = 4 * i and fb = 2 * i and sb = 3 * i in
        Array.unsafe_set r.r_str sb actor;
        Array.unsafe_set r.r_flt fb start;
        Array.unsafe_set r.r_flt (fb + 1) stop;
        store_kind r ~ib ~sb ~tag:tag_complete kind
      end
    | _ -> push t (Complete { actor; start; stop; kind })
  end

let instant t ~actor kind =
  if t.enabled && sampled t kind then begin
    match (t.ring, t.sink) with
    | Some r, None ->
      if t.store then begin
        let i = ring_pos t in
        let ib = 4 * i and sb = 3 * i in
        Array.unsafe_set r.r_str sb actor;
        Array.unsafe_set r.r_flt (2 * i) (t.clock ());
        store_kind r ~ib ~sb ~tag:tag_instant kind
      end
    | _ -> push t (Instant { actor; time = t.clock (); kind })
  end

(* Allocation-free entry points for the two event kinds that dominate a
   protocol run's stream (message instants and lock-interval completes —
   together ~3/4 of all events): the kind payload arrives as primitive
   arguments and is written straight into the ring slots, so the hot
   (flight-recorder) configuration never materialises the [Span.kind]
   record at all. Any attachment that needs a boxed kind — a sink, a
   sampler — falls back to the general path. *)

let instant_message t ~actor ~label ~(direction : Span.direction) =
  if t.enabled then begin
    match (t.ring, t.sink, t.sampler) with
    | Some r, None, None ->
      if t.store then begin
        let i = ring_pos t in
        let ib = 4 * i and sb = 3 * i in
        let dir = match direction with Span.Send -> 0 | Span.Recv -> 1 | Span.Drop -> 2 in
        Array.unsafe_set r.r_str sb actor;
        Array.unsafe_set r.r_str (sb + 1) label;
        Array.unsafe_set r.r_flt (2 * i) (t.clock ());
        Array.unsafe_set r.r_int ib (tag_instant lor (5 lsl 2) lor (dir lsl 6))
      end
    | _ -> instant t ~actor (Span.Message { label; direction })
  end

let complete_lock t ~actor ~dur ~wait ~table ~obj =
  if t.enabled then begin
    match (t.ring, t.sink, t.sampler) with
    | Some r, None, None ->
      if t.store then begin
        let i = ring_pos t in
        let ib = 4 * i and fb = 2 * i and sb = 3 * i in
        let stop = t.clock () in
        Array.unsafe_set r.r_str sb actor;
        Array.unsafe_set r.r_str (sb + 1) table;
        Array.unsafe_set r.r_str (sb + 2) obj;
        Array.unsafe_set r.r_flt fb (stop -. dur);
        Array.unsafe_set r.r_flt (fb + 1) stop;
        Array.unsafe_set r.r_int ib (tag_complete lor ((if wait then 3 else 4) lsl 2))
      end
    | _ ->
      complete t ~actor ~start:(t.clock () -. dur)
        (if wait then Span.Lock_wait { table; obj } else Span.Lock_hold { table; obj })
  end

let length t = t.len

let clear t =
  t.len <- 0;
  t.head <- 0;
  t.dropped <- 0

let iter t f =
  match t.ring with
  | Some r ->
    for k = 0 to t.len - 1 do
      let i = t.head + k in
      let i = if i >= t.cap then i - t.cap else i in
      f (ring_nth r i)
    done
  | None ->
    for i = 0 to t.len - 1 do
      f t.events.(i)
    done

let events t =
  let out = ref [] in
  iter t (fun ev -> out := ev :: !out);
  List.rev !out

(* --- span reconstruction ------------------------------------------------- *)

type span = {
  s_id : int;  (* -1 for Complete spans *)
  s_parent : int;
  s_actor : string;
  s_kind : Span.kind;
  s_start : float;
  s_stop : float option;
}

let spans t =
  let open_tbl = Hashtbl.create 64 in
  let out = ref [] in
  let order = ref 0 in
  iter t (fun ev ->
      incr order;
      match ev with
      | Begin { id; parent; actor; time; kind } ->
        Hashtbl.replace open_tbl id
          (!order, { s_id = id; s_parent = parent; s_actor = actor; s_kind = kind; s_start = time; s_stop = None })
      | End { id; time } -> (
        match Hashtbl.find_opt open_tbl id with
        | None -> ()
        | Some (ord, s) ->
          Hashtbl.remove open_tbl id;
          out := (ord, { s with s_stop = Some time }) :: !out)
      | Complete { actor; start; stop; kind } ->
        out :=
          ( !order,
            { s_id = -1; s_parent = -1; s_actor = actor; s_kind = kind; s_start = start; s_stop = Some stop } )
          :: !out
      | Instant _ -> ());
  (* Spans still open at the end of the run dangle without a stop. *)
  Hashtbl.iter (fun _ (ord, s) -> out := (ord, s) :: !out) open_tbl;
  List.sort compare !out |> List.map snd

let instants t =
  let out = ref [] in
  iter t (function
    | Instant { actor; time; kind } -> out := (time, actor, kind) :: !out
    | _ -> ());
  List.rev !out
