(* [b] is the page image. [live] caches the sum of live payload lengths so
   fit checks are O(1); [set_slot_entry] is the only writer of directory
   entries and keeps it current. *)
type t = { b : bytes; mutable live : int }

let size = 4096
let header_bytes = 12
let dir_entry_bytes = 4

let lsn t = Bytes.get_int64_be t.b 0
let set_lsn t v = Bytes.set_int64_be t.b 0 v

let slot_count t = Bytes.get_uint16_be t.b 8
let set_slot_count t n = Bytes.set_uint16_be t.b 8 n

(* Lowest byte occupied by payload data; free space is
   [dir_end, data_floor). *)
let data_floor t = Bytes.get_uint16_be t.b 10
let set_data_floor t v = Bytes.set_uint16_be t.b 10 v

let create () =
  let t = { b = Bytes.make size '\000'; live = 0 } in
  set_data_floor t size;
  t

let copy t = { b = Bytes.copy t.b; live = t.live }

let dir_offset slot = header_bytes + (slot * dir_entry_bytes)
let dir_end t = dir_offset (slot_count t)

let slot_off t slot = Bytes.get_uint16_be t.b (dir_offset slot)
let slot_len t slot = Bytes.get_uint16_be t.b (dir_offset slot + 2)

(* Entries at or past [slot_count] may hold stale bytes, so only an entry
   inside the directory counts towards [live] before it is overwritten. *)
let set_slot_entry t slot ~off ~len =
  if slot < slot_count t && slot_off t slot <> 0 then t.live <- t.live - slot_len t slot;
  Bytes.set_uint16_be t.b (dir_offset slot) off;
  Bytes.set_uint16_be t.b (dir_offset slot + 2) len;
  if off <> 0 then t.live <- t.live + len

let is_live t slot = slot >= 0 && slot < slot_count t && slot_off t slot <> 0

let read t ~slot =
  if not (is_live t slot) then None else Some (Bytes.sub t.b (slot_off t slot) (slot_len t slot))

(* Rewrites all live payloads against the end of the page, eliminating the
   holes left by deletes and relocating updates. Slot numbers are stable. *)
let compact t =
  let records =
    List.filter_map
      (fun s ->
        if slot_off t s = 0 then None else Some (s, Bytes.sub t.b (slot_off t s) (slot_len t s)))
      (List.init (slot_count t) Fun.id)
  in
  let floor = ref size in
  List.iter
    (fun (s, payload) ->
      let len = Bytes.length payload in
      floor := !floor - len;
      Bytes.blit payload 0 t.b !floor len;
      set_slot_entry t s ~off:!floor ~len)
    records;
  set_data_floor t !floor

let free_space t = size - dir_end t - dir_entry_bytes - t.live

let contiguous_free t = data_floor t - dir_end t

(* Places a payload in [want_slot] (revival by rollback/redo) or in a fresh
   directory slot. Returns [None] if even compaction cannot make room. *)
let place t ~payload ~want_slot =
  let len = Bytes.length payload in
  if len = 0 || len > size - header_bytes - dir_entry_bytes then
    invalid_arg "Page.insert: bad payload size";
  (* Fresh inserts never reuse a dead slot: a tombstoned slot may still be
     the target of some transaction's rollback or of restart redo
     ([insert_at]), so it stays reserved forever (ghost-record rule). *)
  let slot, needs_dir_entry =
    match want_slot with
    | Some s -> (s, s >= slot_count t)
    | None -> (slot_count t, true)
  in
  let dir_growth =
    if needs_dir_entry then dir_entry_bytes * (slot + 1 - slot_count t) else 0
  in
  let usable = size - dir_end t - dir_growth - t.live in
  if usable < len then None
  else begin
    if contiguous_free t - dir_growth < len then compact t;
    if needs_dir_entry then begin
      (* Zero any intermediate new slots so they read as dead. *)
      for s = slot_count t to slot do
        set_slot_entry t s ~off:0 ~len:0
      done;
      set_slot_count t (slot + 1)
    end;
    let floor = data_floor t - len in
    Bytes.blit payload 0 t.b floor len;
    set_slot_entry t slot ~off:floor ~len;
    set_data_floor t floor;
    Some slot
  end

let insert t ~payload = place t ~payload ~want_slot:None

let insert_at t ~slot ~payload =
  if slot < 0 then invalid_arg "Page.insert_at: negative slot";
  if is_live t slot then false
  else
    match place t ~payload ~want_slot:(Some slot) with
    | Some _ -> true
    | None -> false

let delete t ~slot =
  if not (is_live t slot) then false
  else begin
    set_slot_entry t slot ~off:0 ~len:0;
    true
  end

let update t ~slot ~payload =
  if not (is_live t slot) then false
  else begin
    let off = slot_off t slot and len = slot_len t slot in
    let new_len = Bytes.length payload in
    if new_len = len then begin
      Bytes.blit payload 0 t.b off len;
      true
    end
    else begin
      (* Relocate within the page; roll back the tombstone on failure. *)
      set_slot_entry t slot ~off:0 ~len:0;
      match place t ~payload ~want_slot:(Some slot) with
      | Some _ -> true
      | None ->
        set_slot_entry t slot ~off ~len;
        false
    end
  end

let live t =
  List.filter_map
    (fun s ->
      match read t ~slot:s with
      | Some payload -> Some (s, payload)
      | None -> None)
    (List.init (slot_count t) Fun.id)
