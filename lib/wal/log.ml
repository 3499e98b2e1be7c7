type lsn = int

let null_lsn = 0

type txn_id = int

type op =
  | Insert of { rid : Icdb_storage.Heap.rid; key : string; value : int }
  | Delete of { rid : Icdb_storage.Heap.rid; key : string; value : int }
  | Update of { rid : Icdb_storage.Heap.rid; key : string; before : int; after : int }
  | Incr of { rid : Icdb_storage.Heap.rid; key : string; delta : int }

type record =
  | Begin of txn_id
  | Op of { txn : txn_id; op : op; prev : lsn }
  | Commit of txn_id
  | Abort of txn_id
  | Clr of { txn : txn_id; op : op; next_undo : lsn }
  | Prepare of { txn : txn_id; last : lsn }
  | Checkpoint of { active : (txn_id * lsn) list; dirty : Icdb_storage.Disk.page_id list }

(* --- encoding --------------------------------------------------------------

   A record is a tag byte and varints (7 bits a byte, low group first, high
   bit set on all but the last byte); signed fields are zigzagged first.
   Links ([prev], [next_undo], [last]) are stored as the distance back from
   the record's own LSN, so a record's bytes do not depend on where it
   sits. An op record is: tag, txn, link, rid page, rid slot, key length,
   key bytes, then the op's one or two ints. *)

let tag_begin = 0
let tag_commit = 1
let tag_abort = 2
let tag_prepare = 3

(* The payload is kept boxed in [checkpoints], under the record's LSN. *)
let tag_checkpoint = 4

(* [tag_op + kind] / [tag_clr + kind], kind being one of the [kind_*]. *)
let tag_op = 8
let tag_clr = 12
let kind_insert = 0
let kind_delete = 1
let kind_update = 2
let kind_incr = 3

(* Marks the unused rest of a chunk. *)
let tag_end = '\255'

let chunk_bytes = 2040

(* An op record takes at most [op_bytes + key length] bytes: six 9-byte
   varints, the tag and a key length of at most 2 bytes (a key that fits a
   chunk is shorter than 2^14 bytes). *)
let op_bytes = 57
let max_varint = 9

(* A record's location is [chunk lsl loc_bits lor offset]; the offset table
   stores it in 4 bytes. *)
let loc_bits = 11
let loc_mask = (1 lsl loc_bits) - 1
let max_chunks = 1 lsl (32 - loc_bits)

(* The offset table holds the location of every [1 lsl stride_bits]th
   retained record only; a record between two entries is found by skipping
   forward from the entry before it. *)
let stride_bits = 4
let stride_mask = (1 lsl stride_bits) - 1

(* The offset table's chunks hold [1 lsl offs_bits] entries (1 KiB). *)
let offs_bits = 8
let offs_mask = (1 lsl offs_bits) - 1

let zigzag n = (n lsl 1) lxor (n asr (Sys.int_size - 1))
let unzigzag z = (z lsr 1) lxor -(z land 1)

(* Writes [n] as an unsigned varint at [p]; returns the end position. *)
let put_varint b p n =
  let n = ref n and p = ref p in
  while !n lsr 7 <> 0 do
    Bytes.set b !p (Char.unsafe_chr (!n land 0x7f lor 0x80));
    n := !n lsr 7;
    incr p
  done;
  Bytes.set b !p (Char.unsafe_chr !n);
  !p + 1

let put_int b p n = put_varint b p (zigzag n)

(* [chunks.(0 .. cur)] hold the retained records, the first at offset 0 of
   chunk 0; [pos] is the write cursor in [chunks.(cur)]. Chunks past [cur]
   are spares left by {!crash}, reused by later appends. A new log has no
   chunk yet ([cur = -1], [pos] at the end), so creating one allocates no
   chunk. The record with LSN [l] is the [i = l - base - 1]th retained one;
   [len] counts them. Entry [i lsr stride_bits] of [offs] holds the location
   of retained record [i land lnot stride_mask].

   A chunk below the one that holds the first unflushed record (below
   [cur] when every record is flushed) is never written again: appends
   write at the cursor, [next_chunk] marks the end of chunk [cur] only, and
   [crash] moves the cursor back no further than the first unflushed
   record. [truncate_prefix] moves to fresh chunks. The same holds for an
   [offs] chunk whose every entry locates a flushed record. [replicate]
   shares exactly these chunks. *)
type t = {
  mutable chunks : bytes array;
  mutable cur : int;
  mutable pos : int;
  mutable offs : bytes array;
  mutable checkpoints : (lsn, record) Hashtbl.t;
  mutable base : int;
  mutable len : int;
  mutable flushed : lsn;
  mutable forces : int;
  mutable force_hook : unit -> unit;
}

let create () =
  {
    chunks = [| Bytes.empty |];
    cur = -1;
    pos = chunk_bytes;
    offs = [| Bytes.empty |];
    checkpoints = Hashtbl.create 1;
    base = 0;
    len = 0;
    flushed = 0;
    forces = 0;
    force_hook = (fun () -> ());
  }

let last_lsn t = t.base + t.len

let grow a =
  let bigger = Array.make (2 * Array.length a) Bytes.empty in
  Array.blit a 0 bigger 0 (Array.length a);
  bigger

let stride_loc t e =
  let b = t.offs.(e lsr offs_bits) and p = 4 * (e land offs_mask) in
  Bytes.get_uint16_le b p lor (Bytes.get_uint16_le b (p + 2) lsl 16)

let set_stride_loc t e loc =
  let c = e lsr offs_bits in
  if c = Array.length t.offs then t.offs <- grow t.offs;
  if Bytes.length t.offs.(c) = 0 then t.offs.(c) <- Bytes.create (4 lsl offs_bits);
  let b = t.offs.(c) and p = 4 * (e land offs_mask) in
  Bytes.set_uint16_le b p (loc land 0xffff);
  Bytes.set_uint16_le b (p + 2) (loc lsr 16)

let next_chunk t =
  if t.pos < chunk_bytes then Bytes.set t.chunks.(t.cur) t.pos tag_end;
  if t.cur + 1 = max_chunks then failwith "Log.append: log exceeds its chunk table";
  t.cur <- t.cur + 1;
  t.pos <- 0;
  if t.cur = Array.length t.chunks then t.chunks <- grow t.chunks;
  if Bytes.length t.chunks.(t.cur) = 0 then t.chunks.(t.cur) <- Bytes.create chunk_bytes

(* Starts a record of at most [need] bytes: writes its tag, and its location
   when it opens a stride, and returns the position after the tag. [finish]
   closes it at [p]. *)
let start t ~need tag =
  if t.pos + need > chunk_bytes then next_chunk t;
  if t.len land stride_mask = 0 then
    set_stride_loc t (t.len lsr stride_bits) ((t.cur lsl loc_bits) lor t.pos);
  Bytes.set t.chunks.(t.cur) t.pos (Char.unsafe_chr tag);
  t.pos + 1

let finish t p =
  t.pos <- p;
  t.len <- t.len + 1;
  last_lsn t

let append_checkpoint t r =
  let p = start t ~need:1 tag_checkpoint in
  Hashtbl.replace t.checkpoints (last_lsn t + 1) r;
  finish t p

let append_txn t tag txn =
  let p = start t ~need:(1 + max_varint) tag in
  finish t (put_int t.chunks.(t.cur) p txn)

(* [y] is written for updates only. *)
let append_op t tag ~txn ~link ~(rid : Icdb_storage.Heap.rid) ~key x y =
  let lsn = last_lsn t + 1 in
  let klen = String.length key in
  if op_bytes + klen > chunk_bytes then invalid_arg "Log.append: key too long";
  let p = start t ~need:(op_bytes + klen) tag in
  let b = t.chunks.(t.cur) in
  let p = put_int b p txn in
  let p = put_varint b p (lsn - link) in
  let p = put_int b p rid.page in
  let p = put_int b p rid.slot in
  let p = put_varint b p klen in
  Bytes.blit_string key 0 b p klen;
  let p = put_int b (p + klen) x in
  finish t (if tag land 3 = kind_update then put_int b p y else p)

let append_any_op t tag ~txn ~link = function
  | Insert { rid; key; value } -> append_op t (tag + kind_insert) ~txn ~link ~rid ~key value 0
  | Delete { rid; key; value } -> append_op t (tag + kind_delete) ~txn ~link ~rid ~key value 0
  | Update { rid; key; before; after } ->
    append_op t (tag + kind_update) ~txn ~link ~rid ~key before after
  | Incr { rid; key; delta } -> append_op t (tag + kind_incr) ~txn ~link ~rid ~key delta 0

let append t r =
  match r with
  | Begin txn -> append_txn t tag_begin txn
  | Commit txn -> append_txn t tag_commit txn
  | Abort txn -> append_txn t tag_abort txn
  | Prepare { txn; last } ->
    let p = start t ~need:(1 + (2 * max_varint)) tag_prepare in
    let b = t.chunks.(t.cur) in
    let p = put_int b p txn in
    finish t (put_varint b p (last_lsn t + 1 - last))
  | Op { txn; op; prev } -> append_any_op t tag_op ~txn ~link:prev op
  | Clr { txn; op; next_undo } -> append_any_op t tag_clr ~txn ~link:next_undo op
  | Checkpoint _ -> append_checkpoint t r

let append_insert t ~txn ~prev ~rid ~key ~value =
  append_op t (tag_op + kind_insert) ~txn ~link:prev ~rid ~key value 0

(* --- decoding ------------------------------------------------------------- *)

(* Position [p] in chunk number [chunk], whose bytes are [b]. *)
type cursor = { mutable chunk : int; mutable b : bytes; mutable p : int }

let get_varint c =
  let b = c.b in
  let rec go p shift acc =
    let byte = Char.code (Bytes.get b p) in
    let acc = acc lor ((byte land 0x7f) lsl shift) in
    if byte < 0x80 then begin
      c.p <- p + 1;
      acc
    end
    else go (p + 1) (shift + 7) acc
  in
  go c.p 0 0

let get_int c = unzigzag (get_varint c)

let skip_varint c =
  while Char.code (Bytes.get c.b c.p) >= 0x80 do
    c.p <- c.p + 1
  done;
  c.p <- c.p + 1

(* Moves [c] past the record at [c] without building it: the fields
   [decode] reads, in the same order. *)
let skip c =
  let tag = Char.code (Bytes.get c.b c.p) in
  c.p <- c.p + 1;
  if tag = tag_prepare then begin
    skip_varint c;
    skip_varint c
  end
  else if tag < tag_checkpoint then skip_varint c
  else if tag > tag_checkpoint then begin
    (* txn, link, rid page, rid slot *)
    for _ = 1 to 4 do
      skip_varint c
    done;
    let klen = get_varint c in
    c.p <- c.p + klen;
    skip_varint c;
    if tag land 3 = kind_update then skip_varint c
  end

(* A chunk ends at its last byte or at [tag_end]; a record that did not fit
   starts the next chunk. Moves [c] there when the next record does. *)
let turn_chunk t c =
  if c.p = chunk_bytes || Bytes.get c.b c.p = tag_end then begin
    c.chunk <- c.chunk + 1;
    c.b <- t.chunks.(c.chunk);
    c.p <- 0
  end

(* A cursor at retained record [i]: its stride's entry, then [i land
   stride_mask] records skipped, at most 15. *)
let seek t i =
  let l = stride_loc t (i lsr stride_bits) in
  let chunk = l lsr loc_bits in
  let c = { chunk; b = t.chunks.(chunk); p = l land loc_mask } in
  for _ = 1 to i land stride_mask do
    skip c;
    turn_chunk t c
  done;
  c

(* Decodes the record with LSN [lsn] at [c], leaving [c] after it. *)
let decode t c lsn =
  let tag = Char.code (Bytes.get c.b c.p) in
  c.p <- c.p + 1;
  if tag = tag_begin then Begin (get_int c)
  else if tag = tag_commit then Commit (get_int c)
  else if tag = tag_abort then Abort (get_int c)
  else if tag = tag_prepare then
    let txn = get_int c in
    let last = lsn - get_varint c in
    Prepare { txn; last }
  else if tag = tag_checkpoint then Hashtbl.find t.checkpoints lsn
  else begin
    let txn = get_int c in
    let link = lsn - get_varint c in
    let page = get_int c in
    let slot = get_int c in
    let klen = get_varint c in
    let key = Bytes.sub_string c.b c.p klen in
    c.p <- c.p + klen;
    let rid = { Icdb_storage.Heap.page; slot } in
    let x = get_int c in
    let kind = tag land 3 in
    let op =
      if kind = kind_insert then Insert { rid; key; value = x }
      else if kind = kind_delete then Delete { rid; key; value = x }
      else if kind = kind_update then Update { rid; key; before = x; after = get_int c }
      else Incr { rid; key; delta = x }
    in
    if tag < tag_clr then Op { txn; op; prev = link } else Clr { txn; op; next_undo = link }
  end

let flush t =
  if t.flushed < last_lsn t then begin
    t.flushed <- last_lsn t;
    t.forces <- t.forces + 1;
    t.force_hook ()
  end

let flush_to t lsn =
  if lsn > t.flushed then begin
    t.flushed <- min lsn (last_lsn t);
    t.forces <- t.forces + 1;
    t.force_hook ()
  end

let flushed_lsn t = t.flushed

let get t lsn =
  if lsn <= t.base || lsn > last_lsn t then invalid_arg "Log.get: LSN out of range";
  decode t (seek t (lsn - t.base - 1)) lsn

(* The write cursor goes back to where the first lost record starts; the
   bytes past it are dead and later appends overwrite them, stride entries
   included. *)
let crash t =
  let kept = max 0 (t.flushed - t.base) in
  if kept < t.len then begin
    let c = seek t kept in
    t.cur <- c.chunk;
    t.pos <- c.p;
    t.len <- kept;
    if Hashtbl.length t.checkpoints > 0 then
      Hashtbl.filter_map_inplace
        (fun lsn r -> if lsn <= t.flushed then Some r else None)
        t.checkpoints
  end

let first_lsn t = t.base + 1

(* Decodes retained records [first ..] in order, chunk after chunk. [f] may
   append; it sees only the records retained when the walk began. *)
let iter_from t first f =
  let n = t.len in
  if first < n then begin
    let c = seek t first in
    for i = first to n - 1 do
      turn_chunk t c;
      let lsn = t.base + i + 1 in
      f lsn (decode t c lsn)
    done
  end

let iter t f = iter_from t 0 f

(* Re-encodes the retained suffix into fresh chunks. A record's bytes are
   position-independent, so it re-encodes to the same bytes. *)
let truncate_prefix t ~keep_from =
  let keep_from = max keep_from (first_lsn t) in
  let keep_from = min keep_from (last_lsn t + 1) in
  if keep_from > first_lsn t then begin
    let fresh = create () in
    fresh.base <- keep_from - 1;
    iter_from t (keep_from - t.base - 1) (fun _ r -> ignore (append fresh r));
    t.chunks <- fresh.chunks;
    t.cur <- fresh.cur;
    t.pos <- fresh.pos;
    t.offs <- fresh.offs;
    t.checkpoints <- fresh.checkpoints;
    t.base <- fresh.base;
    t.len <- fresh.len;
    if t.flushed < t.base then t.flushed <- t.base
  end

(* Shares [src]'s frozen chunks (see [t]) and copies the rest, so appends
   and crashes on either log never reach the other. The forces are
   replayed through [t]'s own hook. *)
let replicate ~src t =
  if last_lsn t > 0 || t.forces > 0 then invalid_arg "Log.replicate: target log is not fresh";
  let flushed = min src.len (max 0 (src.flushed - src.base)) in
  let frozen =
    if src.cur < 0 then 0 else if flushed = src.len then src.cur else (seek src flushed).chunk
  in
  let own frozen i b = if i < frozen || Bytes.length b = 0 then b else Bytes.copy b in
  t.chunks <- Array.mapi (own frozen) src.chunks;
  t.offs <- Array.mapi (own (flushed lsr (stride_bits + offs_bits))) src.offs;
  t.cur <- src.cur;
  t.pos <- src.pos;
  t.checkpoints <- Hashtbl.copy src.checkpoints;
  t.base <- src.base;
  t.len <- src.len;
  t.flushed <- src.flushed;
  for _ = 1 to src.forces do
    t.forces <- t.forces + 1;
    t.force_hook ()
  done

let set_force_hook t f = t.force_hook <- f
let force_count t = t.forces
let record_count t = last_lsn t
let retained_count t = t.len
