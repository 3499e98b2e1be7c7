type rid = { page : Disk.page_id; slot : int }

let pp_rid fmt rid = Format.fprintf fmt "(%d,%d)" rid.page rid.slot
let rid_equal a b = a.page = b.page && a.slot = b.slot

let pack rid =
  if rid.slot < 0 || rid.slot > 0xffff || rid.page < 0 || rid.page > max_int lsr 16 then
    invalid_arg "Heap.pack: rid out of range";
  (rid.page lsl 16) lor rid.slot

let unpack loc = { page = loc lsr 16; slot = loc land 0xffff }

type t = {
  disk : Disk.t;
  pool : Buffer_pool.t;
  mutable pages : Disk.page_id list; (* newest first *)
}

let create disk pool = { disk; pool; pages = [] }

let recover disk pool =
  let pages = List.init (Disk.page_count disk) Fun.id |> List.rev in
  { disk; pool; pages }

let stamp page lsn = if Int64.compare lsn (Page.lsn page) > 0 then Page.set_lsn page lsn

(* Checked before any page is skipped or allocated: an oversized payload
   fits no page and would otherwise allocate a fresh one to fail on. *)
let encode ~key ~value =
  let payload = Record.encode ~key ~value in
  let len = Bytes.length payload in
  if len = 0 || len > Page.max_payload then invalid_arg "Heap.insert: bad payload size";
  payload

let try_page t ~lsn ~payload pid =
  Buffer_pool.with_page_opt t.pool pid (fun page ->
      match Page.insert page ~payload with
      | Some slot ->
        stamp page lsn;
        Some { page = pid; slot }
      | None -> None)

(* An older page is fetched only when its free space, read without a pin,
   says it fits, and [Page.insert] succeeds exactly then. *)
let fill t ~lsn ~payload pid =
  match try_page t ~lsn ~payload pid with
  | Some rid -> rid
  | None -> failwith "Heap.insert: a page with room refused the record"

(* First fit: the newest page through the pool, then [into_older ()], the
   first older page (newest to oldest) that fits, then a fresh page.
   [retire] sees the newest page just before a fresh one replaces it. *)
let place t ~lsn ~payload ~into_older ~retire =
  let on_newest = match t.pages with [] -> None | pid :: _ -> try_page t ~lsn ~payload pid in
  match on_newest with
  | Some rid -> rid
  | None -> (
    match into_older () with
    | Some rid -> rid
    | None ->
      (match t.pages with pid :: _ -> retire pid | [] -> ());
      let pid = Disk.allocate t.disk in
      t.pages <- pid :: t.pages;
      (match try_page t ~lsn ~payload pid with
      | Some rid -> rid
      | None -> failwith "Heap.insert: record does not fit an empty page"))

let insert t ~lsn ~key ~value =
  let payload = encode ~key ~value in
  let len = Bytes.length payload in
  let into_older () =
    match t.pages with
    | [] -> None
    | _ :: older ->
      List.find_opt (fun pid -> Buffer_pool.free_space t.pool pid >= len) older
      |> Option.map (fill t ~lsn ~payload)
  in
  place t ~lsn ~payload ~into_older ~retire:ignore

(* The older pages of a bulk insert, oldest first, with the free space of
   each. Only the bulk insert writes while it runs, so free space only
   shrinks, and [largest < len] proves no older page fits [len] bytes. *)
type older = {
  mutable pids : Disk.page_id array;
  mutable free : int array;
  mutable n : int;
  mutable largest : int;
}

let bulk_insert t f =
  let pids = match t.pages with [] -> [||] | _ :: older -> Array.of_list (List.rev older) in
  let free = Array.map (Buffer_pool.free_space t.pool) pids in
  let o = { pids; free; n = Array.length pids; largest = Array.fold_left max min_int free } in
  let retire pid =
    if o.n = Array.length o.pids then begin
      let grow a = Array.append a (Array.make (max 16 o.n) 0) in
      o.pids <- grow o.pids;
      o.free <- grow o.free
    end;
    o.pids.(o.n) <- pid;
    o.free.(o.n) <- Buffer_pool.free_space t.pool pid;
    o.largest <- max o.largest o.free.(o.n);
    o.n <- o.n + 1
  in
  let into_older ~lsn ~payload () =
    let len = Bytes.length payload in
    if o.largest < len then None
    else begin
      let i = ref (o.n - 1) in
      while o.free.(!i) < len do
        decr i
      done;
      let rid = fill t ~lsn ~payload o.pids.(!i) in
      let was = o.free.(!i) in
      o.free.(!i) <- Buffer_pool.free_space t.pool o.pids.(!i);
      if was = o.largest then begin
        o.largest <- min_int;
        for j = 0 to o.n - 1 do
          o.largest <- max o.largest o.free.(j)
        done
      end;
      Some rid
    end
  in
  f (fun ~lsn ~key ~value ->
      let payload = encode ~key ~value in
      place t ~lsn ~payload ~into_older:(into_older ~lsn ~payload) ~retire)

let insert_at t ~lsn rid ~key ~value =
  let payload = Record.encode ~key ~value in
  Buffer_pool.with_page t.pool rid.page ~write:true (fun page ->
      let ok = Page.insert_at page ~slot:rid.slot ~payload in
      if ok then stamp page lsn;
      ok)

let read t rid =
  Buffer_pool.with_page t.pool rid.page ~write:false (fun page ->
      Option.map Record.decode (Page.read page ~slot:rid.slot))

let value t rid =
  Buffer_pool.with_page t.pool rid.page ~write:false (fun page -> Page.value page ~slot:rid.slot)

let packed_value_or t loc ~default =
  Page.value_or (Buffer_pool.unpinned t.pool (loc lsr 16)) ~slot:(loc land 0xffff) ~default

let update t ~lsn rid ~value =
  Buffer_pool.with_page t.pool rid.page ~write:true (fun page ->
      match Page.read page ~slot:rid.slot with
      | None -> false
      | Some payload ->
        let key, _ = Record.decode payload in
        let ok = Page.update page ~slot:rid.slot ~payload:(Record.encode ~key ~value) in
        if ok then stamp page lsn;
        ok)

let delete t ~lsn rid =
  Buffer_pool.with_page t.pool rid.page ~write:true (fun page ->
      let ok = Page.delete page ~slot:rid.slot in
      if ok then stamp page lsn;
      ok)

let iter t f =
  List.iter
    (fun pid ->
      Buffer_pool.with_page t.pool pid ~write:false (fun page ->
          List.iter
            (fun (slot, payload) ->
              let key, value = Record.decode payload in
              f { page = pid; slot } key value)
            (Page.live page)))
    (List.rev t.pages)

(* One pin per page, in [iter]'s order, so the pool sees what [iter]
   would make it see. *)
let bindings t =
  let of_page pid =
    Buffer_pool.with_page t.pool pid ~write:false (fun page ->
        let out = Array.make (Page.live_count page) ("", 0) and i = ref 0 in
        for slot = 0 to Page.slot_count page - 1 do
          match Page.key page ~slot with
          | Some key ->
            out.(!i) <- (key, pack { page = pid; slot });
            incr i
          | None -> ()
        done;
        out)
  in
  Array.concat (List.map of_page (List.rev t.pages))

let count t =
  let n = ref 0 in
  iter t (fun _ _ _ -> incr n);
  !n

let page_ids t = List.rev t.pages
