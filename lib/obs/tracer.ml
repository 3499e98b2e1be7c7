type event =
  | Begin of { id : int; parent : int; actor : string; time : float; kind : Span.kind }
  | End of { id : int; time : float }
  | Complete of { actor : string; start : float; stop : float; kind : Span.kind }
  | Instant of { actor : string; time : float; kind : Span.kind }

(* The event store, unboxed and strided.

   Storing boxed [event] values into a long-lived array looks cheap but is
   not: each event is young at the store, yet every minor GC promotes the
   surviving events (records plus their [Span.kind] payloads) into the
   major heap, where a ring overwrites them [limit] events later and the
   major collector has to find the garbage. On the 12k-transaction bench
   kernel that churn alone cost more than the pushes themselves, and an
   unbounded store of boxed events allocated 7.6 minor words per event.

   So the store holds no event values. Each slot is a fixed stride in three
   flat arrays — ints (event tag, span kind tag and small enums packed into
   one word, plus id/parent/gid), unboxed floats (start/stop times), and
   pointers to strings that are already long-lived (actor names,
   protocol/phase/site/label atoms). A store writes a few adjacent words in
   three cache lines and leaves nothing for the GC to promote. With a [limit] the columns are a ring that overwrites its
   oldest event; without one they double when full. Events are re-boxed
   only on the cold read side ({!iter} and friends) and for a sink. *)
type t = {
  mutable clock : unit -> float;
  mutable enabled : bool;
  bounded : bool; (* a ring of [size] slots; otherwise the columns grow *)
  mutable size : int; (* slots allocated *)
  (* stride 4: packed (tag lor ktag<<2 lor kint2<<6), id, parent, kint *)
  mutable ints : int array;
  (* stride 2: t0 (Begin/Instant time, Complete start), t1 (Complete stop) *)
  mutable flts : float array;
  (* stride 3: actor, kstr, kstr2 *)
  mutable strs : string array;
  mutable len : int;
  mutable head : int; (* slot of the oldest retained event *)
  mutable dropped : int; (* events overwritten by ring wraparound *)
  mutable next_id : int;
  mutable sink : (event -> unit) option; (* streaming tap, fed every event *)
  mutable store : bool; (* false = sink-only, nothing retained *)
  mutable sampler : (Span.kind -> bool) option; (* None = keep everything *)
}

(* An unbounded store allocates its columns on its first event, so the
   disabled tracer every federation carries costs nothing. *)
let create ?(enabled = false) ?limit ~clock () =
  let size = match limit with None -> 0 | Some n -> max n 1 in
  {
    clock;
    enabled;
    bounded = limit <> None;
    size;
    ints = Array.make (4 * size) 0;
    flts = Array.make (2 * size) 0.0;
    strs = Array.make (3 * size) "";
    len = 0;
    head = 0;
    dropped = 0;
    next_id = 0;
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
let capacity t = if t.bounded then Some t.size else None

let sampled t kind =
  match t.sampler with None -> true | Some keep -> keep kind

(* Double an unbounded store's columns; its events start at slot 0. *)
let grow t =
  let size = max 256 (2 * t.size) in
  let widen stride a fill =
    let b = Array.make (stride * size) fill in
    Array.blit a 0 b 0 (stride * t.len);
    b
  in
  t.ints <- widen 4 t.ints 0;
  t.flts <- widen 2 t.flts 0.0;
  t.strs <- widen 3 t.strs "";
  t.size <- size

(* Claim the next slot: a full ring overwrites its oldest event, a full
   unbounded store grows. Indices advance one step at a time, so a
   compare-and-reset wrap replaces the integer division. *)
let slot t =
  if t.len = t.size && not t.bounded then grow t;
  if t.len = t.size then begin
    let h = t.head in
    t.head <- (let h' = h + 1 in if h' = t.size then 0 else h');
    t.dropped <- t.dropped + 1;
    h
  end
  else begin
    let i = t.head + t.len in
    t.len <- t.len + 1;
    if i >= t.size then i - t.size else i
  end

(* Event tags (bits 0-1 of the packed word). *)
let tag_begin = 0
and tag_end = 1
and tag_complete = 2
and tag_instant = 3

let direction_index : Span.direction -> int = function
  | Span.Send -> 0
  | Span.Recv -> 1
  | Span.Drop -> 2

(* [store_kind t ~ib ~sb ~tag kind] fills the kind slots of event [ib/sb]
   and writes the packed word: event tag, kind constructor index (bits
   2-5) and any small enum payload — direction, commit flag, phase index —
   in the bits above. Indices come from {!slot}, hence in bounds. *)
let store_kind t ~ib ~sb ~tag (kind : Span.kind) =
  let ints = t.ints and strs = t.strs in
  match kind with
  | Span.Txn { gid; protocol } ->
    Array.unsafe_set ints ib tag;
    Array.unsafe_set ints (ib + 3) gid;
    Array.unsafe_set strs (sb + 1) protocol
  | Span.Phase { gid; phase } ->
    Array.unsafe_set ints ib (tag lor (1 lsl 2) lor (Span.phase_index phase lsl 6));
    Array.unsafe_set ints (ib + 3) gid
  | Span.Branch { gid; site } ->
    Array.unsafe_set ints ib (tag lor (2 lsl 2));
    Array.unsafe_set ints (ib + 3) gid;
    Array.unsafe_set strs (sb + 1) site
  | Span.Lock_wait { table; obj } ->
    Array.unsafe_set ints ib (tag lor (3 lsl 2));
    Array.unsafe_set strs (sb + 1) table;
    Array.unsafe_set strs (sb + 2) obj
  | Span.Lock_hold { table; obj } ->
    Array.unsafe_set ints ib (tag lor (4 lsl 2));
    Array.unsafe_set strs (sb + 1) table;
    Array.unsafe_set strs (sb + 2) obj
  | Span.Message { label; direction } ->
    Array.unsafe_set ints ib (tag lor (5 lsl 2) lor (direction_index direction lsl 6));
    Array.unsafe_set strs (sb + 1) label
  | Span.Wal_force { site } ->
    Array.unsafe_set ints ib (tag lor (6 lsl 2));
    Array.unsafe_set strs (sb + 1) site
  | Span.Outage { site } ->
    Array.unsafe_set ints ib (tag lor (7 lsl 2));
    Array.unsafe_set strs (sb + 1) site
  | Span.Decision { gid; commit } ->
    Array.unsafe_set ints ib (tag lor (8 lsl 2) lor (Bool.to_int commit lsl 6));
    Array.unsafe_set ints (ib + 3) gid
  | Span.Mark s ->
    Array.unsafe_set ints ib (tag lor (9 lsl 2));
    Array.unsafe_set strs (sb + 1) s

let phase_of_index : int -> Span.phase = function
  | 0 -> Span.Execute
  | 1 -> Span.Vote
  | 2 -> Span.Decide
  | 3 -> Span.Local_commit
  | 4 -> Span.Redo
  | _ -> Span.Compensate

let load_kind t ~ib ~sb ~packed : Span.kind =
  let kint2 = packed lsr 6 in
  match (packed lsr 2) land 15 with
  | 0 -> Span.Txn { gid = t.ints.(ib + 3); protocol = t.strs.(sb + 1) }
  | 1 -> Span.Phase { gid = t.ints.(ib + 3); phase = phase_of_index kint2 }
  | 2 -> Span.Branch { gid = t.ints.(ib + 3); site = t.strs.(sb + 1) }
  | 3 -> Span.Lock_wait { table = t.strs.(sb + 1); obj = t.strs.(sb + 2) }
  | 4 -> Span.Lock_hold { table = t.strs.(sb + 1); obj = t.strs.(sb + 2) }
  | 5 ->
    Span.Message
      {
        label = t.strs.(sb + 1);
        direction = (match kint2 with 0 -> Span.Send | 1 -> Span.Recv | _ -> Span.Drop);
      }
  | 6 -> Span.Wal_force { site = t.strs.(sb + 1) }
  | 7 -> Span.Outage { site = t.strs.(sb + 1) }
  | 8 -> Span.Decision { gid = t.ints.(ib + 3); commit = kint2 = 1 }
  | _ -> Span.Mark t.strs.(sb + 1)

let nth t i =
  let ib = 4 * i and fb = 2 * i and sb = 3 * i in
  let packed = t.ints.(ib) in
  match packed land 3 with
  | 0 ->
    Begin
      {
        id = t.ints.(ib + 1);
        parent = t.ints.(ib + 2);
        actor = t.strs.(sb);
        time = t.flts.(fb);
        kind = load_kind t ~ib ~sb ~packed;
      }
  | 1 -> End { id = t.ints.(ib + 1); time = t.flts.(fb) }
  | 2 ->
    Complete
      {
        actor = t.strs.(sb);
        start = t.flts.(fb);
        stop = t.flts.(fb + 1);
        kind = load_kind t ~ib ~sb ~packed;
      }
  | _ ->
    Instant { actor = t.strs.(sb); time = t.flts.(fb); kind = load_kind t ~ib ~sb ~packed }

(* The four recording entry points write the columns directly whenever
   [store] is on. They box an [event] only to hand it to a sink. *)

let begin_span t ?(parent = -1) ~actor kind =
  if not t.enabled then -1
  else if not (sampled t kind) then -1
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let time = t.clock () in
    (match t.sink with None -> () | Some f -> f (Begin { id; parent; actor; time; kind }));
    if t.store then begin
      let i = slot t in
      let ib = 4 * i and sb = 3 * i in
      Array.unsafe_set t.ints (ib + 1) id;
      Array.unsafe_set t.ints (ib + 2) parent;
      Array.unsafe_set t.strs sb actor;
      Array.unsafe_set t.flts (2 * i) time;
      store_kind t ~ib ~sb ~tag:tag_begin kind
    end;
    id
  end

let end_span t id =
  if t.enabled && id >= 0 then begin
    let time = t.clock () in
    (match t.sink with None -> () | Some f -> f (End { id; time }));
    if t.store then begin
      let i = slot t in
      let ib = 4 * i in
      Array.unsafe_set t.ints ib tag_end;
      Array.unsafe_set t.ints (ib + 1) id;
      Array.unsafe_set t.flts (2 * i) time
    end
  end

let complete t ~actor ~start ?stop kind =
  if t.enabled && sampled t kind then begin
    let stop = match stop with Some s -> s | None -> t.clock () in
    (match t.sink with None -> () | Some f -> f (Complete { actor; start; stop; kind }));
    if t.store then begin
      let i = slot t in
      let ib = 4 * i and fb = 2 * i and sb = 3 * i in
      Array.unsafe_set t.strs sb actor;
      Array.unsafe_set t.flts fb start;
      Array.unsafe_set t.flts (fb + 1) stop;
      store_kind t ~ib ~sb ~tag:tag_complete kind
    end
  end

let instant t ~actor kind =
  if t.enabled && sampled t kind then begin
    let time = t.clock () in
    (match t.sink with None -> () | Some f -> f (Instant { actor; time; kind }));
    if t.store then begin
      let i = slot t in
      let ib = 4 * i and sb = 3 * i in
      Array.unsafe_set t.strs sb actor;
      Array.unsafe_set t.flts (2 * i) time;
      store_kind t ~ib ~sb ~tag:tag_instant kind
    end
  end

(* Allocation-free entry points for the two event kinds that dominate a
   protocol run's stream (message instants and lock-interval completes —
   together ~3/4 of all events): the kind payload arrives as primitive
   arguments and is written straight into the columns, so a tracer with
   no sink and no sampler never materialises the [Span.kind] record at
   all. Either attachment needs the boxed kind, so it takes the general
   path. *)

let instant_message t ~actor ~label ~(direction : Span.direction) =
  if t.enabled then begin
    match (t.sink, t.sampler) with
    | None, None ->
      if t.store then begin
        let i = slot t in
        let ib = 4 * i and sb = 3 * i in
        Array.unsafe_set t.strs sb actor;
        Array.unsafe_set t.strs (sb + 1) label;
        Array.unsafe_set t.flts (2 * i) (t.clock ());
        Array.unsafe_set t.ints ib
          (tag_instant lor (5 lsl 2) lor (direction_index direction lsl 6))
      end
    | _ -> instant t ~actor (Span.Message { label; direction })
  end

let complete_lock t ~actor ~dur ~wait ~table ~obj =
  if t.enabled then begin
    match (t.sink, t.sampler) with
    | None, None ->
      if t.store then begin
        let i = slot t in
        let ib = 4 * i and fb = 2 * i and sb = 3 * i in
        let stop = t.clock () in
        Array.unsafe_set t.strs sb actor;
        Array.unsafe_set t.strs (sb + 1) table;
        Array.unsafe_set t.strs (sb + 2) obj;
        Array.unsafe_set t.flts fb (stop -. dur);
        Array.unsafe_set t.flts (fb + 1) stop;
        Array.unsafe_set t.ints ib (tag_complete lor ((if wait then 3 else 4) lsl 2))
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
  for k = 0 to t.len - 1 do
    let i = t.head + k in
    f (nth t (if i >= t.size then i - t.size else i))
  done

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
