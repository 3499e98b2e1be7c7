(* Tests for Icdb_storage: slotted pages, record codec, disk, buffer pool,
   heap files. *)

module Page = Icdb_storage.Page
module Disk = Icdb_storage.Disk
module Bp = Icdb_storage.Buffer_pool
module Record = Icdb_storage.Record
module Heap = Icdb_storage.Heap

let payload s = Bytes.of_string s

let bytes_testable =
  Alcotest.testable (fun fmt b -> Format.fprintf fmt "%S" (Bytes.to_string b)) Bytes.equal

(* --- Page --- *)

let test_page_insert_read () =
  let p = Page.create () in
  let s0 = Option.get (Page.insert p ~payload:(payload "hello")) in
  let s1 = Option.get (Page.insert p ~payload:(payload "world!")) in
  Alcotest.(check bool) "distinct slots" true (s0 <> s1);
  Alcotest.(check (option bytes_testable)) "read s0" (Some (payload "hello"))
    (Page.read p ~slot:s0);
  Alcotest.(check (option bytes_testable)) "read s1" (Some (payload "world!"))
    (Page.read p ~slot:s1)

let test_page_read_invalid () =
  let p = Page.create () in
  Alcotest.(check (option bytes_testable)) "out of range" None (Page.read p ~slot:3);
  Alcotest.(check (option bytes_testable)) "negative" None (Page.read p ~slot:(-1))

let test_page_delete_no_reuse () =
  let p = Page.create () in
  let s0 = Option.get (Page.insert p ~payload:(payload "aaa")) in
  let _s1 = Option.get (Page.insert p ~payload:(payload "bbb")) in
  Alcotest.(check bool) "delete live" true (Page.delete p ~slot:s0);
  Alcotest.(check bool) "delete dead" false (Page.delete p ~slot:s0);
  Alcotest.(check (option bytes_testable)) "dead reads None" None (Page.read p ~slot:s0);
  (* A dead slot is never reused by a fresh insert (it may still be the
     target of somebody's rollback); the directory grows instead. *)
  let s2 = Option.get (Page.insert p ~payload:(payload "ccc")) in
  Alcotest.(check bool) "fresh slot" true (s2 <> s0);
  Alcotest.(check int) "directory grew" 3 (Page.slot_count p);
  (* Only an explicit insert_at (rollback/redo) may revive it. *)
  Alcotest.(check bool) "insert_at revives" true
    (Page.insert_at p ~slot:s0 ~payload:(payload "zzz"))

let test_page_update_same_size () =
  let p = Page.create () in
  let s = Option.get (Page.insert p ~payload:(payload "12345")) in
  Alcotest.(check bool) "update ok" true (Page.update p ~slot:s ~payload:(payload "54321"));
  Alcotest.(check (option bytes_testable)) "new value" (Some (payload "54321"))
    (Page.read p ~slot:s)

let test_page_update_resize () =
  let p = Page.create () in
  let s = Option.get (Page.insert p ~payload:(payload "short")) in
  let other = Option.get (Page.insert p ~payload:(payload "other")) in
  Alcotest.(check bool) "grow" true
    (Page.update p ~slot:s ~payload:(payload "a much longer payload"));
  Alcotest.(check (option bytes_testable)) "grown value"
    (Some (payload "a much longer payload"))
    (Page.read p ~slot:s);
  Alcotest.(check (option bytes_testable)) "neighbour untouched" (Some (payload "other"))
    (Page.read p ~slot:other)

let test_page_update_dead () =
  let p = Page.create () in
  Alcotest.(check bool) "update dead slot" false (Page.update p ~slot:0 ~payload:(payload "x"))

let test_page_fill_until_full () =
  let p = Page.create () in
  let n = ref 0 in
  let body = String.make 100 'x' in
  (try
     while true do
       match Page.insert p ~payload:(payload body) with
       | Some _ -> incr n
       | None -> raise Exit
     done
   with Exit -> ());
  (* 4096 bytes, 12 header, 104 per record (100 payload + 4 dir entry). *)
  Alcotest.(check bool) "fits roughly 39 records" true (!n >= 38 && !n <= 40);
  Alcotest.(check bool) "page reports little space" true (Page.free_space p < 104)

(* [free_space] is the exact fit bound [Heap.insert] skips pages by. *)
let test_page_insert_fits_exactly () =
  let p = Page.create () in
  let body = String.make 100 'x' in
  while Page.insert p ~payload:(payload body) <> None do
    ()
  done;
  let free = Page.free_space p in
  Alcotest.(check bool) "one byte too many" true
    (Page.insert (Page.copy p) ~payload:(payload (String.make (free + 1) 'y')) = None);
  Alcotest.(check bool) "exactly free_space" true
    (Page.insert p ~payload:(payload (String.make free 'y')) <> None);
  Alcotest.(check bool) "nothing more fits" true (Page.insert p ~payload:(payload "z") = None)

let test_page_compaction_recovers_space () =
  let p = Page.create () in
  let slots = ref [] in
  let body = String.make 100 'x' in
  (try
     while true do
       match Page.insert p ~payload:(payload body) with
       | Some s -> slots := s :: !slots
       | None -> raise Exit
     done
   with Exit -> ());
  (* Delete every other record: space is fragmented 100-byte holes. *)
  List.iteri (fun i s -> if i mod 2 = 0 then ignore (Page.delete p ~slot:s)) !slots;
  (* A 150-byte record only fits after compaction. *)
  let s = Page.insert p ~payload:(payload (String.make 150 'y')) in
  Alcotest.(check bool) "insert after compaction" true (Option.is_some s);
  Alcotest.(check (option bytes_testable)) "compacted read intact"
    (Some (payload (String.make 150 'y')))
    (Page.read p ~slot:(Option.get s))

let test_page_insert_at () =
  let p = Page.create () in
  Alcotest.(check bool) "place at slot 3" true (Page.insert_at p ~slot:3 ~payload:(payload "x"));
  Alcotest.(check int) "directory grew" 4 (Page.slot_count p);
  Alcotest.(check bool) "live slot refused" false
    (Page.insert_at p ~slot:3 ~payload:(payload "y"));
  Alcotest.(check bool) "intermediate slot dead" true (Page.read p ~slot:1 = None);
  Alcotest.(check bool) "fill intermediate" true (Page.insert_at p ~slot:1 ~payload:(payload "z"));
  Alcotest.(check (option bytes_testable)) "read back" (Some (payload "z")) (Page.read p ~slot:1)

let test_page_lsn () =
  let p = Page.create () in
  Alcotest.(check int64) "fresh lsn" 0L (Page.lsn p);
  Page.set_lsn p 42L;
  Alcotest.(check int64) "set lsn" 42L (Page.lsn p);
  let q = Page.copy p in
  Page.set_lsn p 50L;
  Alcotest.(check int64) "copy isolated" 42L (Page.lsn q)

let test_page_live () =
  let p = Page.create () in
  let s0 = Option.get (Page.insert p ~payload:(payload "a")) in
  let s1 = Option.get (Page.insert p ~payload:(payload "b")) in
  ignore (Page.delete p ~slot:s0);
  Alcotest.(check (list (pair int bytes_testable))) "only live" [ (s1, payload "b") ]
    (Page.live p)

(* Reference model of a page: the directory as an array of optional
   payloads, with live bytes recomputed by a full directory scan on every
   query — the computation the page's cached count replaced. A record fits
   when it and the directory entries it adds fit in what the header, the
   directory and the live payloads leave free; compaction hides
   fragmentation. *)
module Page_model = struct
  type t = { mutable dir : bytes option array }

  let header = 12
  let entry = 4
  let create () = { dir = [||] }
  let slot_count m = Array.length m.dir

  let live_bytes m =
    Array.fold_left
      (fun acc e -> match e with Some p -> acc + Bytes.length p | None -> acc)
      0 m.dir

  let free_space m = Page.size - header - (entry * (slot_count m + 1)) - live_bytes m
  let is_live m s = s >= 0 && s < slot_count m && Option.is_some m.dir.(s)

  let fits m ~slot ~len =
    let slots = max (slot_count m) (slot + 1) in
    Page.size - header - (entry * slots) - live_bytes m >= len

  let place m ~slot payload =
    if slot >= slot_count m then
      m.dir <- Array.init (slot + 1) (fun s -> if s < slot_count m then m.dir.(s) else None);
    m.dir.(slot) <- Some payload

  let insert m payload =
    let slot = slot_count m in
    if fits m ~slot ~len:(Bytes.length payload) then (place m ~slot payload; Some slot) else None

  let insert_at m ~slot payload =
    (not (is_live m slot))
    && fits m ~slot ~len:(Bytes.length payload)
    && (place m ~slot payload; true)

  let update m ~slot payload =
    if not (is_live m slot) then false
    else begin
      let old = m.dir.(slot) in
      m.dir.(slot) <- None;
      let ok = fits m ~slot ~len:(Bytes.length payload) in
      m.dir.(slot) <- (if ok then Some payload else old);
      ok
    end

  let delete m ~slot = is_live m slot && (m.dir.(slot) <- None; true)

  let live m =
    List.filter_map
      (fun s -> Option.map (fun p -> (s, p)) m.dir.(s))
      (List.init (slot_count m) Fun.id)
end

type page_op =
  | Insert of int
  | Insert_at of int * int  (* slot offset from the directory end, length *)
  | Update of int * int  (* slot, length; 0 keeps the current length *)
  | Delete of int
  | Disk_round_trip

let page_op_gen =
  QCheck2.Gen.(
    frequency
      [
        (4, map (fun n -> Insert n) (int_range 1 400));
        (2, map2 (fun d n -> Insert_at (d, n)) (int_range (-6) 3) (int_range 1 200));
        (2, map2 (fun s n -> Update (s, n)) (int_range 0 40) (oneof [ pure 0; int_range 1 300 ]));
        (3, map (fun s -> Delete s) (int_range 0 40));
        (1, pure Disk_round_trip);
      ])

let pp_page_op = function
  | Insert n -> Printf.sprintf "insert %d" n
  | Insert_at (d, n) -> Printf.sprintf "insert_at end%+d %d" d n
  | Update (s, n) -> Printf.sprintf "update %d %d" s n
  | Delete s -> Printf.sprintf "delete %d" s
  | Disk_round_trip -> "disk round trip"

(* The cached live-byte count must track the full scan through inserts
   (compacting after deletes), revivals of dead and past-the-end slots,
   in-place and relocating updates, deletes, and the copies [Disk] keeps. *)
let prop_page_model =
  QCheck2.Test.make ~name:"page agrees with a directory-scan reference model" ~count:300
    ~print:QCheck2.Print.(list pp_page_op)
    QCheck2.Gen.(list_size (int_range 1 200) page_op_gen)
    (fun ops ->
      let d = Disk.create () in
      let pid = Disk.allocate d in
      let p = ref (Page.create ()) in
      let m = Page_model.create () in
      List.for_all
        (fun (step, op) ->
          let body n = Bytes.init n (fun i -> Char.chr ((step * 31 + i) land 0xff)) in
          let agree =
            match op with
            | Insert n -> Page.insert !p ~payload:(body n) = Page_model.insert m (body n)
            | Insert_at (delta, n) ->
              let slot = max 0 (Page.slot_count !p + delta) in
              Page.insert_at !p ~slot ~payload:(body n) = Page_model.insert_at m ~slot (body n)
            | Update (slot, n) ->
              let n =
                if n > 0 then n
                else match Page.read !p ~slot with Some b -> Bytes.length b | None -> 1
              in
              Page.update !p ~slot ~payload:(body n) = Page_model.update m ~slot (body n)
            | Delete slot -> Page.delete !p ~slot = Page_model.delete m ~slot
            | Disk_round_trip ->
              Disk.write d pid !p;
              p := Disk.read d pid;
              true
          in
          agree
          && Page.free_space !p = Page_model.free_space m
          && Page.slot_count !p = Page_model.slot_count m
          && Page.live !p = Page_model.live m)
        (List.mapi (fun i op -> (i, op)) ops))

let prop_page_insert_iff_free_space =
  QCheck2.Test.make ~name:"page insert succeeds iff free_space >= payload length" ~count:300
    ~print:QCheck2.Print.(list pp_page_op)
    QCheck2.Gen.(list_size (int_range 1 200) page_op_gen)
    (fun ops ->
      let p = Page.create () in
      List.for_all
        (fun op ->
          let body n = Bytes.make n 'p' in
          match op with
          | Insert n ->
            let fits = Page.free_space p >= n in
            Option.is_some (Page.insert p ~payload:(body n)) = fits
          | Insert_at (delta, n) ->
            ignore (Page.insert_at p ~slot:(max 0 (Page.slot_count p + delta)) ~payload:(body n));
            true
          | Update (slot, n) ->
            ignore (Page.update p ~slot ~payload:(body (max n 1)));
            true
          | Delete slot ->
            ignore (Page.delete p ~slot);
            true
          | Disk_round_trip -> true)
        ops)

(* --- Record --- *)

let test_record_roundtrip () =
  let b = Record.encode ~key:"account-17" ~value:12345 in
  Alcotest.(check (pair string int)) "roundtrip" ("account-17", 12345) (Record.decode b);
  let b = Record.encode ~key:"k" ~value:(-99) in
  Alcotest.(check (pair string int)) "negative value" ("k", -99) (Record.decode b)

let test_record_invalid () =
  Alcotest.check_raises "empty key" (Invalid_argument "Record: key must be 1..255 bytes")
    (fun () -> ignore (Record.encode ~key:"" ~value:0));
  Alcotest.check_raises "long key" (Invalid_argument "Record: key must be 1..255 bytes")
    (fun () -> ignore (Record.encode ~key:(String.make 256 'k') ~value:0))

let prop_record_roundtrip =
  QCheck2.Test.make ~name:"record encode/decode roundtrip" ~count:500
    QCheck2.Gen.(pair (string_size ~gen:printable (int_range 1 255)) int)
    (fun (key, value) -> Record.decode (Record.encode ~key ~value) = (key, value))

(* --- Disk --- *)

let test_disk_copy_semantics () =
  let d = Disk.create () in
  let pid = Disk.allocate d in
  let p = Page.create () in
  ignore (Page.insert p ~payload:(payload "v1"));
  Disk.write d pid p;
  (* Mutating the in-memory page must not change the stable image. *)
  ignore (Page.update p ~slot:0 ~payload:(payload "v2"));
  let stable = Disk.read d pid in
  Alcotest.(check (option bytes_testable)) "stable kept v1" (Some (payload "v1"))
    (Page.read stable ~slot:0)

let test_disk_bounds () =
  let d = Disk.create () in
  Alcotest.check_raises "read unallocated" (Invalid_argument "Disk: unallocated page id")
    (fun () -> ignore (Disk.read d 0))

let test_disk_counters () =
  let d = Disk.create () in
  let pid = Disk.allocate d in
  ignore (Disk.read d pid);
  Disk.write d pid (Page.create ());
  Alcotest.(check int) "reads" 1 (Disk.read_count d);
  Alcotest.(check int) "writes" 1 (Disk.write_count d);
  Disk.reset_counters d;
  Alcotest.(check int) "reset" 0 (Disk.read_count d + Disk.write_count d)

let test_disk_free_space () =
  let d = Disk.create () in
  let pid = Disk.allocate d in
  let p = Page.create () in
  ignore (Page.insert p ~payload:(payload "abc"));
  Disk.write d pid p;
  Alcotest.(check int) "stable image's free space" (Page.free_space p) (Disk.free_space d pid);
  Alcotest.(check int) "no read counted" 0 (Disk.read_count d);
  Alcotest.check_raises "unallocated" (Invalid_argument "Disk: unallocated page id") (fun () ->
      ignore (Disk.free_space d 1))

(* Fresh pages share one empty image: writing one of them, or mutating a
   read copy, leaves the others empty, and every read is a distinct copy. *)
let test_disk_shared_empty_pages () =
  let d = Disk.create () in
  (* 20 pages: past the initial 16-entry array, so its growth is covered *)
  let pids = List.init 20 (fun _ -> Disk.allocate d) in
  let p = Disk.read d 3 in
  ignore (Page.insert p ~payload:(payload "v"));
  Disk.write d 3 p;
  let scribbled = Disk.read d 5 in
  ignore (Page.insert scribbled ~payload:(payload "w"));
  let empty_free = Page.free_space (Page.create ()) in
  List.iter
    (fun pid ->
      let img = Disk.read d pid in
      let expect = if pid = 3 then 1 else 0 in
      Alcotest.(check int) (Printf.sprintf "page %d slots" pid) expect (Page.slot_count img);
      if pid <> 3 then
        Alcotest.(check int) (Printf.sprintf "page %d free" pid) empty_free (Disk.free_space d pid))
    pids;
  let a = Disk.read d 7 and b = Disk.read d 7 in
  Alcotest.(check bool) "distinct copies" true (a != b);
  ignore (Page.insert a ~payload:(payload "x"));
  Alcotest.(check int) "sibling copy untouched" 0 (Page.slot_count b);
  Alcotest.(check (option bytes_testable)) "written page kept" (Some (payload "v"))
    (Page.read (Disk.read d 3) ~slot:0)

(* --- Buffer pool --- *)

let test_pool_caches () =
  let d = Disk.create () in
  let pid = Disk.allocate d in
  let pool = Bp.create ~capacity:4 d in
  Bp.with_page pool pid ~write:false (fun _ -> ());
  Bp.with_page pool pid ~write:false (fun _ -> ());
  Alcotest.(check int) "one miss" 1 (Bp.miss_count pool);
  Alcotest.(check int) "one hit" 1 (Bp.hit_count pool)

exception Boom

(* Regression: an exception out of [f] used to leave the frame pinned (and
   undirtied), so the page could never be evicted again. *)
let test_pool_pin_balance_on_exception () =
  let d = Disk.create () in
  let pid = Disk.allocate d in
  let pool = Bp.create ~capacity:4 d in
  Alcotest.check_raises "exception propagates" Boom (fun () ->
      Bp.with_page pool pid ~write:true (fun _ -> raise Boom));
  Alcotest.(check int) "no pin leaked" 0 (Bp.pin_count pool);
  (* The page must still be evictable: touching [capacity] other pages from
     a full pool only works if the first frame's pin was released. *)
  let others = List.init 4 (fun _ -> Disk.allocate d) in
  List.iter (fun p -> Bp.with_page pool p ~write:false (fun _ -> ())) others;
  Alcotest.(check int) "balanced after traffic" 0 (Bp.pin_count pool)

let test_pool_eviction_writes_dirty () =
  let d = Disk.create () in
  let pids = List.init 5 (fun _ -> Disk.allocate d) in
  let pool = Bp.create ~capacity:2 d in
  (match pids with
  | p0 :: _ ->
    Bp.with_page pool p0 ~write:true (fun page ->
        ignore (Page.insert page ~payload:(payload "dirty")))
  | [] -> assert false);
  (* Touch the rest to force eviction of p0. *)
  List.iteri (fun i pid -> if i > 0 then Bp.with_page pool pid ~write:false (fun _ -> ())) pids;
  Alcotest.(check bool) "evictions happened" true (Bp.eviction_count pool > 0);
  let stable = Disk.read d (List.hd pids) in
  Alcotest.(check (option bytes_testable)) "dirty page reached disk" (Some (payload "dirty"))
    (Page.read stable ~slot:0)

let test_pool_wal_hook_fires_before_write () =
  let d = Disk.create () in
  let pid = Disk.allocate d in
  let pool = Bp.create ~capacity:1 d in
  let calls = ref [] in
  Bp.set_wal_hook pool (fun ~lsn -> calls := lsn :: !calls);
  Bp.with_page pool pid ~write:true (fun page ->
      ignore (Page.insert page ~payload:(payload "x"));
      Page.set_lsn page 7L);
  Bp.flush_page pool pid;
  Alcotest.(check (list int64)) "hook saw the page lsn" [ 7L ] !calls;
  (* Flushing a clean page again must not re-invoke the hook. *)
  Bp.flush_page pool pid;
  Alcotest.(check int) "no duplicate hook" 1 (List.length !calls)

let test_pool_drop_all_discards () =
  let d = Disk.create () in
  let pid = Disk.allocate d in
  let pool = Bp.create ~capacity:2 d in
  Bp.with_page pool pid ~write:true (fun page ->
      ignore (Page.insert page ~payload:(payload "volatile")));
  Bp.drop_all pool;
  let stable = Disk.read d pid in
  Alcotest.(check (option bytes_testable)) "write lost on crash" None (Page.read stable ~slot:0)

let test_pool_dirty_pages () =
  let d = Disk.create () in
  let p0 = Disk.allocate d and p1 = Disk.allocate d in
  let pool = Bp.create ~capacity:4 d in
  Bp.with_page pool p0 ~write:true (fun _ -> ());
  Bp.with_page pool p1 ~write:false (fun _ -> ());
  Alcotest.(check (list int)) "only written page dirty" [ p0 ] (Bp.dirty_pages pool);
  Bp.flush_all pool;
  Alcotest.(check (list int)) "clean after flush" [] (Bp.dirty_pages pool)

let test_pool_all_pinned () =
  let d = Disk.create () in
  let p0 = Disk.allocate d and p1 = Disk.allocate d in
  let pool = Bp.create ~capacity:1 d in
  Alcotest.check_raises "cannot evict pinned" (Failure "Buffer_pool: all frames pinned")
    (fun () ->
      Bp.with_page pool p0 ~write:false (fun _ ->
          Bp.with_page pool p1 ~write:false (fun _ -> ())))

(* [free_space] reads the resident frame (newer than its disk image while
   dirty) or else the disk, and leaves every pool counter and the LRU
   order alone. *)
let test_pool_free_space_side_effect_free () =
  let d = Disk.create () in
  let a = Disk.allocate d and b = Disk.allocate d in
  let pool = Bp.create ~capacity:1 d in
  Bp.with_page pool a ~write:true (fun page ->
      ignore (Page.insert page ~payload:(payload (String.make 100 'a'))));
  let resident = Bp.with_page pool a ~write:false Page.free_space in
  let counters () =
    (Bp.hit_count pool, Bp.miss_count pool, Bp.eviction_count pool, Disk.read_count d)
  in
  let before = counters () in
  Alcotest.(check int) "dirty frame read" resident (Bp.free_space pool a);
  Alcotest.(check bool) "disk image is older" true (Disk.free_space d a > resident);
  Alcotest.(check int) "uncached page read from disk" (Page.free_space (Page.create ()))
    (Bp.free_space pool b);
  Alcotest.(check bool) "no hit, miss, eviction or read" true (counters () = before);
  Alcotest.(check (list int)) "frame still cached and dirty" [ a ] (Bp.dirty_pages pool);
  Alcotest.(check int) "no pin" 0 (Bp.pin_count pool)

(* [Page.value] reads the trailing 8 bytes in place; it must agree with a
   full decode of the payload for every slot, live or dead, through
   relocating updates and with negative values. *)
type value_op = Put of int * int  (* key length, value *) | Set of int * int * int | Kill of int

let value_op_gen =
  let value = QCheck2.Gen.(oneof [ int; int_range (-5) 5; oneofl [ min_int; max_int ] ]) in
  QCheck2.Gen.(
    frequency
      [
        (4, map2 (fun k v -> Put (k, v)) (int_range 1 60) value);
        (2, map3 (fun s k v -> Set (s, k, v)) (int_range 0 40) (int_range 1 60) value);
        (2, map (fun s -> Kill s) (int_range 0 40));
      ])

let pp_value_op = function
  | Put (k, v) -> Printf.sprintf "put %d-byte key=%d" k v
  | Set (s, k, v) -> Printf.sprintf "set %d %d-byte key=%d" s k v
  | Kill s -> Printf.sprintf "delete %d" s

let prop_page_value =
  QCheck2.Test.make ~name:"Page.value = value of the decoded payload" ~count:300
    ~print:QCheck2.Print.(list pp_value_op)
    QCheck2.Gen.(list_size (int_range 1 120) value_op_gen)
    (fun ops ->
      let p = Page.create () in
      let payload k v = Record.encode ~key:(String.make k 'k') ~value:v in
      List.iter
        (function
          | Put (k, v) -> ignore (Page.insert p ~payload:(payload k v))
          | Set (s, k, v) -> ignore (Page.update p ~slot:s ~payload:(payload k v))
          | Kill s -> ignore (Page.delete p ~slot:s))
        ops;
      List.for_all
        (fun slot ->
          Page.value p ~slot
          = Option.map (fun payload -> snd (Record.decode payload)) (Page.read p ~slot))
        (List.init (Page.slot_count p + 3) (fun i -> i - 1)))

(* --- Heap --- *)

let test_heap_insert_read_update_delete () =
  let d = Disk.create () in
  let pool = Bp.create ~capacity:8 d in
  let h = Heap.create d pool in
  let rid = Heap.insert h ~lsn:1L ~key:"a" ~value:10 in
  Alcotest.(check (option (pair string int))) "read" (Some ("a", 10)) (Heap.read h rid);
  Alcotest.(check bool) "update" true (Heap.update h ~lsn:2L rid ~value:20);
  Alcotest.(check (option (pair string int))) "updated" (Some ("a", 20)) (Heap.read h rid);
  Alcotest.(check bool) "delete" true (Heap.delete h ~lsn:3L rid);
  Alcotest.(check (option (pair string int))) "gone" None (Heap.read h rid);
  Alcotest.(check bool) "double delete" false (Heap.delete h ~lsn:4L rid)

let test_heap_value () =
  let d = Disk.create () in
  let pool = Bp.create ~capacity:8 d in
  let h = Heap.create d pool in
  let rid = Heap.insert h ~lsn:1L ~key:"a" ~value:(-10) in
  Alcotest.(check (option int)) "live" (Some (-10)) (Heap.value h rid);
  ignore (Heap.delete h ~lsn:2L rid);
  Alcotest.(check (option int)) "dead" None (Heap.value h rid)

let prop_rid_pack_roundtrip =
  QCheck2.Test.make ~name:"Heap.unpack (Heap.pack rid) = rid" ~count:1000
    QCheck2.Gen.(
      pair
        (oneof [ int_range 0 100_000; int_range 0 (max_int lsr 16); pure (max_int lsr 16) ])
        (oneof [ int_range 0 1024; int_range 0 0xffff; pure 0xffff ]))
    (fun (page, slot) ->
      let rid : Heap.rid = { page; slot } in
      let loc = Heap.pack rid in
      loc >= 0 && Heap.rid_equal (Heap.unpack loc) rid)

let test_rid_pack_refuses () =
  List.iter
    (fun (page, slot) ->
      Alcotest.check_raises
        (Printf.sprintf "(%d,%d)" page slot)
        (Invalid_argument "Heap.pack: rid out of range")
        (fun () -> ignore (Heap.pack { page; slot })))
    [ (0, 65536); (0, -1); (-1, 0); (3, max_int); (max_int, 0) ]

let test_heap_colocation_and_growth () =
  let d = Disk.create () in
  let pool = Bp.create ~capacity:8 d in
  let h = Heap.create d pool in
  let r0 = Heap.insert h ~lsn:1L ~key:"x" ~value:1 in
  let r1 = Heap.insert h ~lsn:2L ~key:"y" ~value:2 in
  Alcotest.(check int) "consecutive inserts share a page" r0.Heap.page r1.Heap.page;
  (* Insert enough records to spill onto more pages. *)
  for i = 0 to 400 do
    ignore (Heap.insert h ~lsn:(Int64.of_int (i + 3)) ~key:(Printf.sprintf "k%03d" i) ~value:i)
  done;
  Alcotest.(check bool) "multiple pages" true (List.length (Heap.page_ids h) > 1);
  Alcotest.(check int) "count" 403 (Heap.count h)

let test_heap_insert_at_restores_rid () =
  let d = Disk.create () in
  let pool = Bp.create ~capacity:8 d in
  let h = Heap.create d pool in
  let rid = Heap.insert h ~lsn:1L ~key:"a" ~value:1 in
  ignore (Heap.delete h ~lsn:2L rid);
  Alcotest.(check bool) "restore" true (Heap.insert_at h ~lsn:3L rid ~key:"a" ~value:1);
  Alcotest.(check (option (pair string int))) "restored" (Some ("a", 1)) (Heap.read h rid);
  Alcotest.(check bool) "live slot refused" false
    (Heap.insert_at h ~lsn:4L rid ~key:"a" ~value:2)

let test_heap_recover_scans_disk () =
  let d = Disk.create () in
  let pool = Bp.create ~capacity:8 d in
  let h = Heap.create d pool in
  for i = 0 to 99 do
    ignore (Heap.insert h ~lsn:(Int64.of_int (i + 1)) ~key:(Printf.sprintf "k%d" i) ~value:i)
  done;
  Bp.flush_all pool;
  (* Fresh pool + recovered heap sees the same records. *)
  let pool2 = Bp.create ~capacity:8 d in
  let h2 = Heap.recover d pool2 in
  Alcotest.(check int) "recovered count" 100 (Heap.count h2);
  let found = ref 0 in
  Heap.iter h2 (fun _ key value ->
      if key = Printf.sprintf "k%d" value then incr found);
  Alcotest.(check int) "keys consistent" 100 !found

(* Regression: every failed fit used to mark the probed page dirty, so a
   page fill re-dirtied every older page and the next flush wrote them all
   back. Only the page that takes the record may become dirty. *)
let test_heap_failed_fit_stays_clean () =
  let d = Disk.create () in
  let pool = Bp.create ~capacity:8 d in
  let h = Heap.create d pool in
  (* 11-byte keys: 21-byte records plus a 4-byte slot, 163 to a page. *)
  let insert i =
    Heap.insert h ~lsn:(Int64.of_int (i + 1)) ~key:(Printf.sprintf "acct-%06d" i) ~value:i
  in
  for i = 0 to (2 * 163) - 1 do
    ignore (insert i)
  done;
  Alcotest.(check (list int)) "two full pages" [ 0; 1 ] (Heap.page_ids h);
  Bp.flush_all pool;
  let writes = Disk.write_count d in
  let rid = insert (2 * 163) in
  Alcotest.(check int) "third page allocated" 2 rid.Heap.page;
  Alcotest.(check (list int)) "only the new page is dirty" [ 2 ] (Bp.dirty_pages pool);
  Bp.flush_all pool;
  Alcotest.(check int) "one write-back" (writes + 1) (Disk.write_count d)

let test_heap_bad_payload_allocates_nothing () =
  let d = Disk.create () in
  let pool = Bp.create ~capacity:4 d in
  let h = Heap.create d pool in
  let raises key =
    match Heap.insert h ~lsn:1L ~key ~value:0 with
    | _ -> false
    | exception Invalid_argument _ -> Disk.page_count d = List.length (Heap.page_ids h)
  in
  Alcotest.(check bool) "empty key, empty heap" true (raises "");
  Alcotest.(check int) "no page allocated" 0 (Disk.page_count d);
  ignore (Heap.insert h ~lsn:2L ~key:"a" ~value:1);
  Alcotest.(check bool) "oversized key" true (raises (String.make 256 'k'));
  Alcotest.(check int) "still one page" 1 (Disk.page_count d)

let test_heap_iter_order_stable () =
  let d = Disk.create () in
  let pool = Bp.create ~capacity:8 d in
  let h = Heap.create d pool in
  ignore (Heap.insert h ~lsn:1L ~key:"a" ~value:1);
  ignore (Heap.insert h ~lsn:2L ~key:"b" ~value:2);
  let keys = ref [] in
  Heap.iter h (fun _ key _ -> keys := key :: !keys);
  Alcotest.(check (list string)) "iteration order" [ "a"; "b" ] (List.rev !keys)

(* Model-based property: random heap mutations agree with a Map model, and
   the heap recovered from a cold disk (after flushing) agrees too. *)
module StrMap = Map.Make (String)

let prop_heap_model =
  QCheck2.Test.make ~name:"heap agrees with a Map model (and across recover)" ~count:60
    QCheck2.Gen.(list_size (int_range 1 150) (triple (int_range 0 2) (int_range 0 40) int))
    (fun ops ->
      let d = Disk.create () in
      let pool = Bp.create ~capacity:4 d in
      let h = Heap.create d pool in
      let model = ref StrMap.empty in
      let rids = Hashtbl.create 16 in
      let lsn = ref 0L in
      let next_lsn () =
        lsn := Int64.add !lsn 1L;
        !lsn
      in
      List.iter
        (fun (op, ki, v) ->
          let key = Printf.sprintf "k%02d" ki in
          match op with
          | 0 ->
            if not (StrMap.mem key !model) then begin
              let rid = Heap.insert h ~lsn:(next_lsn ()) ~key ~value:v in
              Hashtbl.replace rids key rid;
              model := StrMap.add key v !model
            end
          | 1 -> (
            match Hashtbl.find_opt rids key with
            | Some rid when StrMap.mem key !model ->
              ignore (Heap.update h ~lsn:(next_lsn ()) rid ~value:v);
              model := StrMap.add key v !model
            | _ -> ())
          | _ -> (
            match Hashtbl.find_opt rids key with
            | Some rid when StrMap.mem key !model ->
              ignore (Heap.delete h ~lsn:(next_lsn ()) rid);
              model := StrMap.remove key !model
            | _ -> ()))
        ops;
      let agree heap =
        let found = ref StrMap.empty in
        Heap.iter heap (fun _ key value -> found := StrMap.add key value !found);
        StrMap.equal ( = ) !found !model
      in
      let live_ok = agree h in
      (* Cold restart: flush, fresh pool, recover. *)
      Bp.flush_all pool;
      let pool2 = Bp.create ~capacity:4 d in
      let h2 = Heap.recover d pool2 in
      live_ok && agree h2)

type heap_op =
  | H_insert of int (* key length *)
  | H_exact of int (* a record exactly as long as page [i]'s free space *)
  | H_delete of int (* index into the inserted records *)
  | H_update of int
  | H_undo of int (* index into the deleted records: [insert_at] at its rid *)
  | H_flush
  | H_crash (* [drop_all], then [Heap.recover] *)

let heap_op_gen =
  QCheck2.Gen.(
    frequency
      [
        (6, map (fun n -> H_insert n) (int_range 1 255));
        (3, map (fun i -> H_exact i) (int_bound 1000));
        (2, map (fun i -> H_delete i) (int_bound 1000));
        (2, map (fun i -> H_update i) (int_bound 1000));
        (2, map (fun i -> H_undo i) (int_bound 1000));
        (1, pure H_flush);
        (1, pure H_crash);
      ])

let pp_heap_op = function
  | H_insert n -> Printf.sprintf "insert %d" n
  | H_exact i -> Printf.sprintf "exact %d" i
  | H_delete i -> Printf.sprintf "delete %d" i
  | H_update i -> Printf.sprintf "update %d" i
  | H_undo i -> Printf.sprintf "undo %d" i
  | H_flush -> "flush"
  | H_crash -> "crash"

(* The placement oracle: the first-fit loop [Heap.insert] had before it
   skipped pages by free space, pinning every page newest to oldest and
   trying the insert, here on a copy so the probe changes nothing. [None]
   means a fresh page. *)
let reference_first_fit pool pages_newest_first ~payload =
  List.find_map
    (fun pid ->
      Bp.with_page pool pid ~write:false (fun page ->
          Option.map (fun slot -> { Heap.page = pid; slot }) (Page.insert (Page.copy page) ~payload)))
    pages_newest_first

let nth_opt l i = match l with [] -> None | _ -> List.nth_opt l (i mod List.length l)

let prop_heap_first_fit =
  QCheck2.Test.make ~name:"heap placement equals the reference first-fit scan" ~count:100
    ~print:QCheck2.Print.(list pp_heap_op)
    QCheck2.Gen.(list_size (int_range 1 400) heap_op_gen)
    (fun ops ->
      let d = Disk.create () in
      let pool = Bp.create ~capacity:4 d in
      let h = ref (Heap.create d pool) in
      let lsn = ref 0L in
      let next_lsn () =
        lsn := Int64.succ !lsn;
        !lsn
      in
      let inserted = ref [] and deleted = ref [] in
      (* A record of [n] key bytes has a payload of [n + 10]. *)
      let key_length = function
        | H_insert n -> Some n
        | H_exact i ->
          Option.bind (nth_opt (Heap.page_ids !h) i) (fun pid ->
              let free = Bp.with_page pool pid ~write:false Page.free_space in
              if free >= 11 && free <= 265 then Some (free - 10) else None)
        | _ -> None
      in
      List.for_all
        (fun (step, op) ->
          match (key_length op, op) with
          | Some n, _ ->
            let key = String.make n (Char.chr (Char.code 'a' + (step mod 26))) in
            let expected =
              match
                reference_first_fit pool
                  (List.rev (Heap.page_ids !h))
                  ~payload:(Record.encode ~key ~value:step)
              with
              | Some rid -> rid
              | None -> { Heap.page = Disk.page_count d; slot = 0 }
            in
            let probes () = Bp.hit_count pool + Bp.miss_count pool in
            let before = probes () in
            let rid = Heap.insert !h ~lsn:(next_lsn ()) ~key ~value:step in
            inserted := (rid, key, step) :: !inserted;
            Heap.rid_equal rid expected && probes () - before <= 2
          | _, H_delete i ->
            Option.iter
              (fun ((rid, _, _) as r) ->
                if Heap.delete !h ~lsn:(next_lsn ()) rid then deleted := r :: !deleted)
              (nth_opt !inserted i);
            true
          | _, H_update i ->
            Option.iter
              (fun (rid, _, v) -> ignore (Heap.update !h ~lsn:(next_lsn ()) rid ~value:(v + 1)))
              (nth_opt !inserted i);
            true
          | _, H_undo i ->
            Option.iter
              (fun ((rid, key, value) as r) ->
                if Heap.insert_at !h ~lsn:(next_lsn ()) rid ~key ~value then
                  deleted := List.filter (fun x -> x != r) !deleted)
              (nth_opt !deleted i);
            true
          | _, H_flush ->
            Bp.flush_all pool;
            true
          | _, H_crash ->
            Bp.drop_all pool;
            h := Heap.recover d pool;
            true
          | None, (H_insert _ | H_exact _) -> true)
        (List.mapi (fun i op -> (i, op)) ops)
      && Bp.pin_count pool = 0)

type bulk_row =
  | B_insert of int (* key length *)
  | B_exact of int (* a record exactly as long as page [i]'s free space *)

let pp_bulk_row = function
  | B_insert n -> Printf.sprintf "insert %d" n
  | B_exact i -> Printf.sprintf "exact %d" i

(* [Heap.bulk_insert] against one [Heap.insert] per row, in lockstep on two
   copies of the same heap. The history leaves long records with holes
   from deletes, and the rows are mostly shorter, so later rows fit older
   pages; exact fits take an older page's last byte. Rids, every page's
   stable image and the pool's hit, miss and eviction counts must agree. *)
let prop_heap_bulk_insert =
  QCheck2.Test.make ~name:"bulk insert places rows like one insert per row" ~count:100
    ~print:QCheck2.Print.(pair (list (pair int int)) (list pp_bulk_row))
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 150) (pair (int_range 0 2) (int_range 100 255)))
        (list_size (int_range 1 400)
           (frequency
              [
                (4, map (fun n -> B_insert n) (int_range 1 60));
                (2, map (fun n -> B_insert n) (int_range 61 255));
                (2, map (fun i -> B_exact i) (int_bound 1000));
              ])))
    (fun (history, rows) ->
      let fresh () =
        let d = Disk.create () in
        let pool = Bp.create ~capacity:4 d in
        (d, pool, Heap.create d pool)
      in
      let ((d1, pool1, h1) as one) = fresh () and ((d2, pool2, h2) as bulk) = fresh () in
      let lsn = ref 0L in
      let next_lsn () =
        lsn := Int64.succ !lsn;
        !lsn
      in
      (* History: op 0 deletes an earlier record, others insert. *)
      let live = ref [] in
      List.iteri
        (fun i (op, n) ->
          let lsn = next_lsn () in
          match (op, !live) with
          | 0, _ :: _ ->
            let rid = List.nth !live (n mod List.length !live) in
            List.iter (fun (_, _, h) -> ignore (Heap.delete h ~lsn rid)) [ one; bulk ];
            live := List.filter (fun r -> not (Heap.rid_equal r rid)) !live
          | _ ->
            let key = String.make n 'h' in
            let rid = Heap.insert h1 ~lsn ~key ~value:i in
            ignore (Heap.insert h2 ~lsn ~key ~value:i);
            live := rid :: !live)
        history;
      let key_length = function
        | B_insert n -> Some n
        | B_exact i ->
          let pids = Heap.page_ids h1 in
          if pids = [] then None
          else
            let free = Bp.free_space pool1 (List.nth pids (i mod List.length pids)) in
            if free >= 11 && free <= 265 then Some (free - 10) else None
      in
      let same_rids =
        Heap.bulk_insert h2 (fun place ->
            List.for_all
              (fun (step, row) ->
                match key_length row with
                | None -> true
                | Some n ->
                  let key = String.make n (Char.chr (Char.code 'a' + (step mod 26))) in
                  let lsn = next_lsn () in
                  let rid = Heap.insert h1 ~lsn ~key ~value:step in
                  Heap.rid_equal rid (place ~lsn ~key ~value:step))
              (List.mapi (fun i row -> (i, row)) rows))
      in
      let counters pool = (Bp.hit_count pool, Bp.miss_count pool, Bp.eviction_count pool) in
      let same_counters = counters pool1 = counters pool2 in
      Bp.flush_all pool1;
      Bp.flush_all pool2;
      let image d pid =
        let p = Disk.read d pid in
        (Page.lsn p, Page.slot_count p, Page.live p)
      in
      same_rids && same_counters
      && Heap.page_ids h1 = Heap.page_ids h2
      && List.for_all (fun pid -> image d1 pid = image d2 pid) (Heap.page_ids h1)
      && Bp.pin_count pool2 = 0)

(* A tiny 2-frame pool under a scattered access pattern must still persist
   every write once flushed. *)
let test_pool_thrashing_durability () =
  let d = Disk.create () in
  let pids = List.init 12 (fun _ -> Disk.allocate d) in
  let pool = Bp.create ~capacity:2 d in
  List.iteri
    (fun i pid ->
      Bp.with_page pool pid ~write:true (fun page ->
          ignore (Page.insert page ~payload:(payload (Printf.sprintf "v%d" i)))))
    pids;
  Bp.flush_all pool;
  List.iteri
    (fun i pid ->
      let stable = Disk.read d pid in
      Alcotest.(check (option bytes_testable))
        (Printf.sprintf "page %d durable" pid)
        (Some (payload (Printf.sprintf "v%d" i)))
        (Page.read stable ~slot:0))
    pids;
  Alcotest.(check bool) "evictions happened" true (Bp.eviction_count pool >= 10)

let () =
  Alcotest.run "storage"
    [
      ( "page",
        [
          Alcotest.test_case "insert/read" `Quick test_page_insert_read;
          Alcotest.test_case "read invalid" `Quick test_page_read_invalid;
          Alcotest.test_case "delete never reuses slots" `Quick test_page_delete_no_reuse;
          Alcotest.test_case "update same size" `Quick test_page_update_same_size;
          Alcotest.test_case "update resize" `Quick test_page_update_resize;
          Alcotest.test_case "update dead" `Quick test_page_update_dead;
          Alcotest.test_case "fill until full" `Quick test_page_fill_until_full;
          Alcotest.test_case "insert fits exactly" `Quick test_page_insert_fits_exactly;
          Alcotest.test_case "compaction" `Quick test_page_compaction_recovers_space;
          Alcotest.test_case "insert_at" `Quick test_page_insert_at;
          Alcotest.test_case "lsn" `Quick test_page_lsn;
          Alcotest.test_case "live listing" `Quick test_page_live;
          QCheck_alcotest.to_alcotest prop_page_model;
          QCheck_alcotest.to_alcotest prop_page_insert_iff_free_space;
          QCheck_alcotest.to_alcotest prop_page_value;
        ] );
      ( "record",
        [
          Alcotest.test_case "roundtrip" `Quick test_record_roundtrip;
          Alcotest.test_case "invalid keys" `Quick test_record_invalid;
          QCheck_alcotest.to_alcotest prop_record_roundtrip;
        ] );
      ( "disk",
        [
          Alcotest.test_case "copy semantics" `Quick test_disk_copy_semantics;
          Alcotest.test_case "bounds" `Quick test_disk_bounds;
          Alcotest.test_case "counters" `Quick test_disk_counters;
          Alcotest.test_case "free space" `Quick test_disk_free_space;
          Alcotest.test_case "shared empty pages" `Quick test_disk_shared_empty_pages;
        ] );
      ( "buffer_pool",
        [
          Alcotest.test_case "caches" `Quick test_pool_caches;
          Alcotest.test_case "pin balance on exception" `Quick
            test_pool_pin_balance_on_exception;
          Alcotest.test_case "eviction writes dirty" `Quick test_pool_eviction_writes_dirty;
          Alcotest.test_case "wal hook" `Quick test_pool_wal_hook_fires_before_write;
          Alcotest.test_case "drop_all discards" `Quick test_pool_drop_all_discards;
          Alcotest.test_case "dirty pages" `Quick test_pool_dirty_pages;
          Alcotest.test_case "all pinned" `Quick test_pool_all_pinned;
          Alcotest.test_case "free space is side-effect free" `Quick
            test_pool_free_space_side_effect_free;
        ] );
      ( "heap",
        [
          Alcotest.test_case "crud" `Quick test_heap_insert_read_update_delete;
          Alcotest.test_case "colocation and growth" `Quick test_heap_colocation_and_growth;
          Alcotest.test_case "insert_at restores rid" `Quick test_heap_insert_at_restores_rid;
          Alcotest.test_case "recover" `Quick test_heap_recover_scans_disk;
          Alcotest.test_case "iter order" `Quick test_heap_iter_order_stable;
          Alcotest.test_case "failed fit leaves page clean" `Quick
            test_heap_failed_fit_stays_clean;
          Alcotest.test_case "bad payload allocates nothing" `Quick
            test_heap_bad_payload_allocates_nothing;
          QCheck_alcotest.to_alcotest prop_heap_model;
          QCheck_alcotest.to_alcotest prop_heap_first_fit;
          QCheck_alcotest.to_alcotest prop_heap_bulk_insert;
          Alcotest.test_case "value in place" `Quick test_heap_value;
          QCheck_alcotest.to_alcotest prop_rid_pack_roundtrip;
          Alcotest.test_case "pack refuses out-of-range rids" `Quick test_rid_pack_refuses;
        ] );
      ( "stress",
        [ Alcotest.test_case "pool thrashing durability" `Quick test_pool_thrashing_durability ]
      );
    ]
