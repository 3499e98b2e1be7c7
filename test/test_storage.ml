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
          Alcotest.test_case "compaction" `Quick test_page_compaction_recovers_space;
          Alcotest.test_case "insert_at" `Quick test_page_insert_at;
          Alcotest.test_case "lsn" `Quick test_page_lsn;
          Alcotest.test_case "live listing" `Quick test_page_live;
          QCheck_alcotest.to_alcotest prop_page_model;
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
          QCheck_alcotest.to_alcotest prop_heap_model;
        ] );
      ( "stress",
        [ Alcotest.test_case "pool thrashing durability" `Quick test_pool_thrashing_durability ]
      );
    ]
