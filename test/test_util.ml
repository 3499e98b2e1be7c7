(* Tests for Icdb_util: PRNG, Zipf sampling, statistics, table rendering. *)

module Rng = Icdb_util.Rng
module Btree = Icdb_util.Btree
module Zipf = Icdb_util.Zipf
module Stats = Icdb_util.Stats
module Table = Icdb_util.Table
module Pool = Icdb_util.Pool

let check_float = Alcotest.(check (float 1e-9))

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1L and b = Rng.create 2L in
  Alcotest.(check bool) "different seeds differ" false (Rng.bits64 a = Rng.bits64 b)

let test_rng_copy () =
  let a = Rng.create 7L in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_split_independent () =
  let a = Rng.create 7L in
  let b = Rng.split a in
  (* The split stream must not equal the parent's continuation. *)
  Alcotest.(check bool) "split differs" false (Rng.bits64 a = Rng.bits64 b)

let test_rng_int_bounds () =
  let rng = Rng.create 3L in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done

let test_rng_int_invalid () =
  let rng = Rng.create 3L in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_int_in_range () =
  let rng = Rng.create 3L in
  for _ = 1 to 1000 do
    let v = Rng.int_in_range rng ~lo:(-5) ~hi:5 in
    Alcotest.(check bool) "in [-5,5]" true (v >= -5 && v <= 5)
  done;
  Alcotest.(check int) "singleton range" 9 (Rng.int_in_range rng ~lo:9 ~hi:9)

let test_rng_int_covers_range () =
  let rng = Rng.create 11L in
  let seen = Array.make 5 false in
  for _ = 1 to 1000 do
    seen.(Rng.int rng 5) <- true
  done;
  Array.iteri (fun i s -> Alcotest.(check bool) (Printf.sprintf "value %d seen" i) true s) seen

let test_rng_float_bounds () =
  let rng = Rng.create 5L in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_bernoulli_extremes () =
  let rng = Rng.create 5L in
  Alcotest.(check bool) "p=0 never" false (Rng.bernoulli rng 0.0);
  Alcotest.(check bool) "p=1 always" true (Rng.bernoulli rng 1.0)

let test_rng_bernoulli_rate () =
  let rng = Rng.create 5L in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "rate near 0.3" true (rate > 0.27 && rate < 0.33)

let test_rng_exponential () =
  let rng = Rng.create 5L in
  let sum = ref 0.0 in
  let n = 50_000 in
  for _ = 1 to n do
    let v = Rng.exponential rng ~mean:4.0 in
    Alcotest.(check bool) "positive" true (v >= 0.0);
    sum := !sum +. v
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 4" true (mean > 3.8 && mean < 4.2)

let test_rng_shuffle_permutes () =
  let rng = Rng.create 5L in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 Fun.id) sorted

let test_rng_sample_distinct () =
  let rng = Rng.create 5L in
  let s = Rng.sample_distinct rng ~n:10 ~bound:12 in
  Alcotest.(check int) "10 values" 10 (List.length s);
  Alcotest.(check int) "distinct" 10 (List.length (List.sort_uniq compare s));
  List.iter (fun v -> Alcotest.(check bool) "in bound" true (v >= 0 && v < 12)) s;
  let all = Rng.sample_distinct rng ~n:5 ~bound:5 in
  Alcotest.(check (list int)) "exhaustive sample" [ 0; 1; 2; 3; 4 ]
    (List.sort compare all)

(* --- Zipf --- *)

let test_zipf_uniform () =
  let z = Zipf.create ~n:4 ~theta:0.0 in
  for k = 0 to 3 do
    check_float "uniform prob" 0.25 (Zipf.probability z k)
  done

let test_zipf_probabilities_sum () =
  let z = Zipf.create ~n:100 ~theta:0.99 in
  let sum = ref 0.0 in
  for k = 0 to 99 do
    sum := !sum +. Zipf.probability z k
  done;
  Alcotest.(check (float 1e-9)) "sums to 1" 1.0 !sum

let test_zipf_skew_ordering () =
  let z = Zipf.create ~n:10 ~theta:1.0 in
  for k = 0 to 8 do
    Alcotest.(check bool) "monotone decreasing" true
      (Zipf.probability z k > Zipf.probability z (k + 1))
  done

(* Regression for the fused single-array CDF build: it must reproduce the
   original three-array construction (weights array, fold, cdf fill)
   bit-for-bit — probabilities, and therefore every sample drawn through
   the shared Rng stream, may not move at all. *)
let test_zipf_matches_reference_build () =
  List.iter
    (fun (n, theta) ->
      let z = Zipf.create ~n ~theta in
      let weights =
        Array.init n (fun k -> 1.0 /. (float_of_int (k + 1) ** theta))
      in
      let total = Array.fold_left ( +. ) 0.0 weights in
      let cdf = Array.make n 0.0 in
      let acc = ref 0.0 in
      for k = 0 to n - 1 do
        acc := !acc +. (weights.(k) /. total);
        cdf.(k) <- !acc
      done;
      cdf.(n - 1) <- 1.0;
      for k = 0 to n - 1 do
        let expected = if k = 0 then cdf.(0) else cdf.(k) -. cdf.(k - 1) in
        Alcotest.(check bool)
          (Printf.sprintf "prob bit-identical n=%d theta=%g k=%d" n theta k)
          true
          (Zipf.probability z k = expected)
      done;
      (* and the sample stream is unchanged: binary search over an equal
         cdf consumes the same draws and lands on the same ranks *)
      let rng = Rng.create 123L in
      let reference_sample () =
        let u = Rng.float rng 1.0 in
        let rec search lo hi =
          if lo >= hi then lo
          else
            let mid = (lo + hi) / 2 in
            if cdf.(mid) > u then search lo mid else search (mid + 1) hi
        in
        search 0 (n - 1)
      in
      let rng' = Rng.create 123L in
      for _ = 1 to 500 do
        Alcotest.(check int) "sample stream unchanged" (reference_sample ())
          (Zipf.sample z rng')
      done)
    [ (1, 0.5); (7, 0.0); (100, 0.6); (1000, 0.99); (4096, 1.3) ]

let test_zipf_sample_range_and_skew () =
  let z = Zipf.create ~n:10 ~theta:1.2 in
  let rng = Rng.create 9L in
  let counts = Array.make 10 0 in
  for _ = 1 to 20_000 do
    let k = Zipf.sample z rng in
    Alcotest.(check bool) "in range" true (k >= 0 && k < 10);
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check bool) "rank 0 hottest" true (counts.(0) > counts.(9) * 3)

(* --- Stats --- *)

let test_summary_basic () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check int) "count" 8 (Stats.Summary.count s);
  check_float "mean" 5.0 (Stats.Summary.mean s);
  check_float "min" 2.0 (Stats.Summary.min s);
  check_float "max" 9.0 (Stats.Summary.max s);
  check_float "total" 40.0 (Stats.Summary.total s);
  (* population variance is 4; sample variance = 32/7 *)
  Alcotest.(check (float 1e-9)) "variance" (32.0 /. 7.0) (Stats.Summary.variance s)

let test_summary_empty () =
  let s = Stats.Summary.create () in
  check_float "mean of empty" 0.0 (Stats.Summary.mean s);
  check_float "variance of empty" 0.0 (Stats.Summary.variance s);
  Alcotest.check_raises "min of empty" (Invalid_argument "Stats.Summary.min: empty")
    (fun () -> ignore (Stats.Summary.min s))

let test_sample_percentiles () =
  let s = Stats.Sample.create () in
  List.iter (Stats.Sample.add s) [ 15.0; 20.0; 35.0; 40.0; 50.0 ];
  check_float "p0 = min" 15.0 (Stats.Sample.percentile s 0.0);
  check_float "p100 = max" 50.0 (Stats.Sample.percentile s 100.0);
  check_float "median" 35.0 (Stats.Sample.median s);
  check_float "p25 interpolated" 20.0 (Stats.Sample.percentile s 25.0);
  check_float "p90 interpolated" 46.0 (Stats.Sample.percentile s 90.0)

let test_sample_grows () =
  let s = Stats.Sample.create () in
  for i = 1 to 1000 do
    Stats.Sample.add s (float_of_int i)
  done;
  Alcotest.(check int) "count" 1000 (Stats.Sample.count s);
  check_float "mean" 500.5 (Stats.Sample.mean s)

let test_histogram () =
  let values = Array.init 100 float_of_int in
  let h = Stats.histogram ~buckets:10 values in
  Alcotest.(check int) "10 buckets" 10 (Array.length h);
  Array.iter (fun (_, c) -> Alcotest.(check int) "10 per bucket" 10 c) h;
  Alcotest.(check int) "empty input" 0 (Array.length (Stats.histogram ~buckets:4 [||]))

(* --- Table --- *)

let test_table_render () =
  let t = Table.create ~title:"demo" [ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "beta"; "22" ];
  let out = Table.render t in
  Alcotest.(check bool) "has title" true (String.length out > 0 && String.sub out 0 4 = "demo");
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has header" true (contains "name" out);
  Alcotest.(check bool) "has row" true (contains "alpha" out);
  Alcotest.(check bool) "right-aligns numbers" true (contains "22" out)

let test_table_arity () =
  let t = Table.create ~title:"x" [ "a"; "b" ] in
  Alcotest.check_raises "row arity" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Table.add_row t [ "only-one" ])

let test_table_fmt () =
  Alcotest.(check string) "float" "3.14" (Table.fmt_float ~decimals:2 3.14159);
  Alcotest.(check string) "int" "42" (Table.fmt_int 42);
  Alcotest.(check string) "ratio" "2.00x" (Table.fmt_ratio 4.0 2.0);
  Alcotest.(check string) "ratio by zero" "-" (Table.fmt_ratio 4.0 0.0)

(* --- Btree --- *)

let test_btree_empty () =
  let t : int Btree.t = Btree.create () in
  Alcotest.(check bool) "empty" true (Btree.is_empty t);
  Alcotest.(check int) "size" 0 (Btree.size t);
  Alcotest.(check (option int)) "find" None (Btree.find t "k");
  Alcotest.(check bool) "remove missing" false (Btree.remove t "k");
  Alcotest.(check (option (pair string int))) "min" None (Btree.min_binding t);
  Alcotest.(check (option (pair string int))) "max" None (Btree.max_binding t);
  Btree.invariant_check t

let test_btree_insert_find_replace () =
  let t = Btree.create () in
  Btree.insert t "b" 2;
  Btree.insert t "a" 1;
  Btree.insert t "c" 3;
  Alcotest.(check int) "size" 3 (Btree.size t);
  Alcotest.(check (option int)) "find b" (Some 2) (Btree.find t "b");
  Btree.insert t "b" 20;
  Alcotest.(check int) "replace keeps size" 3 (Btree.size t);
  Alcotest.(check (option int)) "replaced" (Some 20) (Btree.find t "b");
  Alcotest.(check (list (pair string int))) "ordered"
    [ ("a", 1); ("b", 20); ("c", 3) ] (Btree.to_list t);
  Btree.invariant_check t

let test_btree_many_inserts_balanced () =
  let t = Btree.create () in
  for i = 0 to 4999 do
    Btree.insert t (Printf.sprintf "%05d" i) i
  done;
  Btree.invariant_check t;
  Alcotest.(check int) "size" 5000 (Btree.size t);
  (* height must be logarithmic: order 16 -> 5000 keys fit in height <= 5 *)
  Alcotest.(check bool) "balanced height" true (Btree.height t <= 5);
  Alcotest.(check (option (pair string int))) "min" (Some ("00000", 0)) (Btree.min_binding t);
  Alcotest.(check (option (pair string int))) "max" (Some ("04999", 4999))
    (Btree.max_binding t)

let test_btree_delete_everything () =
  let t = Btree.create () in
  let n = 2000 in
  for i = 0 to n - 1 do
    Btree.insert t (Printf.sprintf "%05d" (i * 7 mod n)) i
  done;
  (* Delete in a different order than insertion. *)
  for i = n - 1 downto 0 do
    Alcotest.(check bool) "removed" true (Btree.remove t (Printf.sprintf "%05d" i));
    if i mod 97 = 0 then Btree.invariant_check t
  done;
  Alcotest.(check int) "empty again" 0 (Btree.size t);
  Btree.invariant_check t

let test_btree_iter_order () =
  let t = Btree.create () in
  let rng = Rng.create 3L in
  for _ = 1 to 500 do
    Btree.insert t (Printf.sprintf "%06d" (Rng.int rng 100000)) 0
  done;
  let keys = Btree.keys t in
  Alcotest.(check (list string)) "keys sorted" (List.sort compare keys) keys;
  Alcotest.(check int) "keys = size" (Btree.size t) (List.length keys)

let test_btree_range () =
  let t = Btree.create () in
  for i = 0 to 99 do
    Btree.insert t (Printf.sprintf "%03d" i) i
  done;
  let collect lo hi =
    let acc = ref [] in
    Btree.range t ~lo ~hi (fun _ v -> acc := v :: !acc);
    List.rev !acc
  in
  Alcotest.(check (list int)) "closed range" [ 10; 11; 12 ]
    (collect (Some "010") (Some "012"));
  Alcotest.(check int) "open low" 13 (List.length (collect None (Some "012")));
  Alcotest.(check int) "open high" 10 (List.length (collect (Some "090") None));
  Alcotest.(check (list int)) "empty range" [] (collect (Some "500") (Some "600"))

module StrMap = Map.Make (String)

(* Model-based property: a random op sequence applied to the tree and to a
   Map agrees at every step, and the tree stays structurally valid. Keys are
   variable-length with a shared prefix, so byte order and numeric order
   disagree ([acct-999] > [acct-1000]) and some keys prefix others
   ([acct-1] < [acct-10]); at least 2000 ops keep the tree three levels
   deep, so internal-node search and splits are exercised. *)
let prop_btree_model =
  QCheck2.Test.make ~name:"btree agrees with Map under random ops" ~count:60
    QCheck2.Gen.(
      list_size (int_range 2000 2500)
        (triple (frequency [ (4, pure 0); (1, pure 1); (1, pure 2); (1, pure 3) ])
           (int_range 0 2499) (int_range (-1) 2499)))
    (fun ops ->
      let t = Btree.create () in
      let model = ref StrMap.empty in
      let ok = ref true in
      let key k = Printf.sprintf "acct-%d" k in
      List.iteri
        (fun step (op, k, k2) ->
          match op with
          | 0 ->
            Btree.insert t (key k) step;
            model := StrMap.add (key k) step !model
          | 1 ->
            let removed = Btree.remove t (key k) in
            let expected = StrMap.mem (key k) !model in
            if removed <> expected then ok := false;
            model := StrMap.remove (key k) !model
          | 2 -> if Btree.find t (key k) <> StrMap.find_opt (key k) !model then ok := false
          | _ ->
            let lo = if k mod 7 = 0 then None else Some (key k) in
            let hi = if k2 < 0 then None else Some (key k2) in
            let got = ref [] in
            Btree.range t ~lo ~hi (fun key v -> got := (key, v) :: !got);
            let within (key, _) =
              Option.fold ~none:true ~some:(fun b -> key >= b) lo
              && Option.fold ~none:true ~some:(fun b -> key <= b) hi
            in
            if List.rev !got <> List.filter within (StrMap.bindings !model) then ok := false)
        ops;
      Btree.invariant_check t;
      !ok
      && Btree.height t >= 3
      && Btree.size t = StrMap.cardinal !model
      && Btree.to_list t = StrMap.bindings !model)

(* --- property tests --- *)

let prop_rng_int_in_bounds =
  QCheck2.Test.make ~name:"rng int stays in bounds" ~count:500
    QCheck2.Gen.(pair (int_range 1 1_000_000) int)
    (fun (bound, seed) ->
      let rng = Rng.create (Int64.of_int seed) in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_percentile_within_extremes =
  QCheck2.Test.make ~name:"percentile lies within [min,max]" ~count:200
    QCheck2.Gen.(list_size (int_range 1 50) (float_bound_inclusive 1000.0))
    (fun values ->
      let s = Stats.Sample.create () in
      List.iter (Stats.Sample.add s) values;
      let lo = List.fold_left Float.min infinity values in
      let hi = List.fold_left Float.max neg_infinity values in
      List.for_all
        (fun p ->
          let v = Stats.Sample.percentile s p in
          v >= lo -. 1e-9 && v <= hi +. 1e-9)
        [ 0.0; 10.0; 50.0; 90.0; 100.0 ])

let prop_zipf_sample_in_range =
  QCheck2.Test.make ~name:"zipf sample in range" ~count:200
    QCheck2.Gen.(triple (int_range 1 500) (float_bound_inclusive 2.0) int)
    (fun (n, theta, seed) ->
      let z = Zipf.create ~n ~theta in
      let rng = Rng.create (Int64.of_int seed) in
      let k = Zipf.sample z rng in
      k >= 0 && k < n)

(* --- Pool --- *)

let test_pool_preserves_order () =
  List.iter
    (fun jobs ->
      let tasks = List.init 50 (fun i () -> i * i) in
      Alcotest.(check (list int))
        (Printf.sprintf "results in task order (jobs=%d)" jobs)
        (List.init 50 (fun i -> i * i))
        (Pool.run ~jobs tasks))
    [ 1; 2; 4; 64 ]

let test_pool_jobs_one_inline () =
  (* jobs <= 1 must run on the calling domain, in order: observable through
     sequenced side effects. *)
  let log = ref [] in
  let tasks = List.init 5 (fun i () -> log := i :: !log; i) in
  Alcotest.(check (list int)) "results" [ 0; 1; 2; 3; 4 ] (Pool.run ~jobs:1 tasks);
  Alcotest.(check (list int)) "sequential effects" [ 4; 3; 2; 1; 0 ] !log;
  Alcotest.(check (list int)) "empty task list" [] (Pool.run ~jobs:1 [])

let test_pool_propagates_exception () =
  List.iter
    (fun jobs ->
      let tasks =
        List.init 8 (fun i () -> if i = 3 then failwith "task 3 failed" else i)
      in
      Alcotest.check_raises
        (Printf.sprintf "first failure re-raised (jobs=%d)" jobs)
        (Failure "task 3 failed")
        (fun () -> ignore (Pool.run ~jobs tasks)))
    [ 1; 4 ];
  (* With several failures, the lowest-indexed one wins deterministically. *)
  let tasks = List.init 8 (fun i () -> if i >= 2 then failwith (string_of_int i) else i) in
  Alcotest.check_raises "lowest index wins" (Failure "2") (fun () ->
      ignore (Pool.run ~jobs:4 tasks))

let test_pool_more_jobs_than_tasks () =
  Alcotest.(check (list int)) "jobs > tasks" [ 7 ] (Pool.run ~jobs:16 [ (fun () -> 7) ])

(* --- Symbol interner --- *)

module Symbol = Icdb_util.Symbol

let test_symbol_roundtrip () =
  let tbl = Symbol.create () in
  let keys = [ "alpha"; "beta"; "gamma"; "site-a/x"; "" ] in
  let ids = List.map (Symbol.intern tbl) keys in
  List.iter2
    (fun key id -> Alcotest.(check string) "name round-trips" key (Symbol.name tbl id))
    keys ids;
  Alcotest.(check int) "count" (List.length keys) (Symbol.count tbl)

let test_symbol_dedup_and_density () =
  let tbl = Symbol.create ~capacity:2 () in
  let a = Symbol.intern tbl "a" in
  let b = Symbol.intern tbl "b" in
  Alcotest.(check int) "first id is 0" 0 a;
  Alcotest.(check int) "ids are dense" 1 b;
  Alcotest.(check int) "re-intern returns same id" a (Symbol.intern tbl "a");
  Alcotest.(check int) "no growth on re-intern" 2 (Symbol.count tbl);
  Alcotest.(check (option int)) "find existing" (Some b) (Symbol.find tbl "b");
  Alcotest.(check (option int)) "find missing assigns nothing" None (Symbol.find tbl "c");
  Alcotest.(check bool) "mem" true (Symbol.mem tbl "a");
  Alcotest.(check bool) "mem missing" false (Symbol.mem tbl "c")

let test_symbol_snapshot () =
  let tbl = Symbol.create () in
  List.iter (fun s -> ignore (Symbol.intern tbl s)) [ "x"; "y"; "z" ];
  let snap = Symbol.snapshot tbl in
  Alcotest.(check (array string)) "snapshot in id order" [| "x"; "y"; "z" |] snap;
  (* The snapshot is a copy: later interns must not show up in it. *)
  ignore (Symbol.intern tbl "w");
  Alcotest.(check int) "snapshot unchanged" 3 (Array.length snap)

let test_symbol_unknown_id () =
  let tbl = Symbol.create () in
  ignore (Symbol.intern tbl "only");
  Alcotest.(check bool) "unknown id raises" true
    (match Symbol.name tbl 7 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* The property the parallel sweep relies on: each domain builds its own
   table, and the same intern sequence yields the same ids everywhere. *)
let test_symbol_deterministic_across_domains () =
  let keys = List.init 200 (fun i -> Printf.sprintf "obj-%d/p%d" (i mod 17) i) in
  let intern_all () =
    let tbl = Symbol.create () in
    List.map (Symbol.intern tbl) keys
  in
  let d1 = Domain.spawn intern_all and d2 = Domain.spawn intern_all in
  let ids1 = Domain.join d1 and ids2 = Domain.join d2 in
  Alcotest.(check (list int)) "same ids on every domain" (intern_all ()) ids1;
  Alcotest.(check (list int)) "domains agree" ids1 ids2

(* --- Sample sort cache --- *)

let test_sample_percentile_cache_invalidation () =
  let s = Stats.Sample.create () in
  List.iter (Stats.Sample.add s) [ 3.0; 1.0; 2.0 ];
  check_float "median before add" 2.0 (Stats.Sample.median s);
  check_float "median cached" 2.0 (Stats.Sample.median s);
  Stats.Sample.add s 10.0;
  check_float "p100 sees new value" 10.0 (Stats.Sample.percentile s 100.0);
  check_float "median after add" 2.5 (Stats.Sample.median s);
  (* The cache must not disturb insertion order. *)
  Alcotest.(check (array (float 1e-9)))
    "values keep insertion order" [| 3.0; 1.0; 2.0; 10.0 |] (Stats.Sample.values s)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          Alcotest.test_case "int_in_range" `Quick test_rng_int_in_range;
          Alcotest.test_case "int covers range" `Quick test_rng_int_covers_range;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "bernoulli rate" `Quick test_rng_bernoulli_rate;
          Alcotest.test_case "exponential" `Quick test_rng_exponential;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "sample_distinct" `Quick test_rng_sample_distinct;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "theta=0 uniform" `Quick test_zipf_uniform;
          Alcotest.test_case "probabilities sum to 1" `Quick test_zipf_probabilities_sum;
          Alcotest.test_case "skew ordering" `Quick test_zipf_skew_ordering;
          Alcotest.test_case "sample range and skew" `Quick test_zipf_sample_range_and_skew;
          Alcotest.test_case "matches pre-fusion reference build" `Quick
            test_zipf_matches_reference_build;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary basic" `Quick test_summary_basic;
          Alcotest.test_case "summary empty" `Quick test_summary_empty;
          Alcotest.test_case "sample percentiles" `Quick test_sample_percentiles;
          Alcotest.test_case "sample grows" `Quick test_sample_grows;
          Alcotest.test_case "percentile cache invalidation" `Quick
            test_sample_percentile_cache_invalidation;
          Alcotest.test_case "histogram" `Quick test_histogram;
        ] );
      ( "symbol",
        [
          Alcotest.test_case "round-trip" `Quick test_symbol_roundtrip;
          Alcotest.test_case "dedup + dense ids" `Quick test_symbol_dedup_and_density;
          Alcotest.test_case "snapshot" `Quick test_symbol_snapshot;
          Alcotest.test_case "unknown id" `Quick test_symbol_unknown_id;
          Alcotest.test_case "deterministic across domains" `Quick
            test_symbol_deterministic_across_domains;
        ] );
      ( "pool",
        [
          Alcotest.test_case "preserves order" `Quick test_pool_preserves_order;
          Alcotest.test_case "jobs=1 runs inline" `Quick test_pool_jobs_one_inline;
          Alcotest.test_case "exception propagation" `Quick test_pool_propagates_exception;
          Alcotest.test_case "more jobs than tasks" `Quick test_pool_more_jobs_than_tasks;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity errors" `Quick test_table_arity;
          Alcotest.test_case "formatters" `Quick test_table_fmt;
        ] );
      ( "btree",
        [
          Alcotest.test_case "empty" `Quick test_btree_empty;
          Alcotest.test_case "insert/find/replace" `Quick test_btree_insert_find_replace;
          Alcotest.test_case "many inserts balanced" `Quick test_btree_many_inserts_balanced;
          Alcotest.test_case "delete everything" `Quick test_btree_delete_everything;
          Alcotest.test_case "iter order" `Quick test_btree_iter_order;
          Alcotest.test_case "range" `Quick test_btree_range;
          QCheck_alcotest.to_alcotest prop_btree_model;
        ] );
      ( "properties",
        qc [ prop_rng_int_in_bounds; prop_percentile_within_extremes; prop_zipf_sample_in_range ]
      );
    ]
