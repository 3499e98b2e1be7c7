type rid = { page : Disk.page_id; slot : int }

let pp_rid fmt rid = Format.fprintf fmt "(%d,%d)" rid.page rid.slot
let rid_equal a b = a.page = b.page && a.slot = b.slot

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

let insert t ~lsn ~key ~value =
  let payload = Record.encode ~key ~value in
  let try_page pid =
    Buffer_pool.with_page_opt t.pool pid (fun page ->
        match Page.insert page ~payload with
        | Some slot ->
          stamp page lsn;
          Some { page = pid; slot }
        | None -> None)
  in
  (* Try the most recently used page first, then the rest, then allocate. *)
  let rec scan = function
    | [] ->
      let pid = Disk.allocate t.disk in
      t.pages <- pid :: t.pages;
      (match try_page pid with
      | Some rid -> rid
      | None -> failwith "Heap.insert: record does not fit an empty page")
    | pid :: rest -> (
      match try_page pid with
      | Some rid -> rid
      | None -> scan rest)
  in
  scan t.pages

let insert_at t ~lsn rid ~key ~value =
  let payload = Record.encode ~key ~value in
  Buffer_pool.with_page t.pool rid.page ~write:true (fun page ->
      let ok = Page.insert_at page ~slot:rid.slot ~payload in
      if ok then stamp page lsn;
      ok)

let read t rid =
  Buffer_pool.with_page t.pool rid.page ~write:false (fun page ->
      Option.map Record.decode (Page.read page ~slot:rid.slot))

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

let count t =
  let n = ref 0 in
  iter t (fun _ _ _ -> incr n);
  !n

let page_ids t = List.rev t.pages
