(* Tests for Icdb_util: PRNG, Zipf sampling, table rendering, btree, symbols. *)

module Rng = Icdb_util.Rng
module Btree = Icdb_util.Btree
module Zipf = Icdb_util.Zipf
module Table = Icdb_util.Table
module Strtbl = Icdb_util.Strtbl
module Gid_store = Icdb_util.Gid_store

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

let btree_key k = Printf.sprintf "acct-%d" k

(* Bindings for a bulk-built start: [n] keys, values their array index.
   Shapes: 0 random, 1 sorted, 2 reversed, 3 two to seven ascending runs,
   4 heavy duplicates (keys drawn from [n / 4] values). Random keys repeat
   too, since 4000 values are drawn from. *)
let bulk_bindings ~shape ~n ~seed =
  let st = Random.State.make [| seed |] in
  let range = if shape = 4 then max 1 (n / 4) else 4000 in
  let keys = Array.init n (fun _ -> btree_key (Random.State.int st range)) in
  (match shape with
  | 1 -> Array.stable_sort String.compare keys
  | 2 -> Array.stable_sort (fun a b -> String.compare b a) keys
  | 3 ->
    let runs = 2 + Random.State.int st 6 in
    let len = (n + runs - 1) / runs in
    for r = 0 to runs - 1 do
      let lo = min n (r * len) in
      let run = Array.sub keys lo (min n (lo + len) - lo) in
      Array.stable_sort String.compare run;
      Array.blit run 0 keys lo (Array.length run)
    done
  | _ -> ());
  Array.mapi (fun i k -> (k, i)) keys

(* Model-based property: a random op sequence applied to the tree and to a
   Map agrees at every step, and the tree stays structurally valid. Keys are
   variable-length with a shared prefix, so byte order and numeric order
   disagree ([acct-999] > [acct-1000]) and some keys prefix others
   ([acct-1] < [acct-10]). Half the cases start empty and run at least 2000
   ops, which keeps the tree three levels deep, so internal-node search and
   splits are exercised. The other half start from [of_bindings] over 0 to
   3000 bindings (trees one to three levels high) in one of
   [bulk_bindings]'s shapes, checked right after the build and again after
   a shorter op sequence. *)
let prop_btree_model =
  let op = QCheck2.Gen.(
      triple (frequency [ (4, pure 0); (1, pure 1); (1, pure 2); (1, pure 3) ])
        (int_range 0 2499) (int_range (-1) 2499))
  in
  QCheck2.Test.make ~name:"btree agrees with Map under random ops" ~count:100
    ~print:(fun (start, ops) ->
      Printf.sprintf "%s, %d ops"
        (match start with
        | None -> "empty start"
        | Some (shape, n, seed) -> Printf.sprintf "of_bindings shape %d n %d seed %d" shape n seed)
        (List.length ops))
    QCheck2.Gen.(
      oneof
        [
          pair (pure None) (list_size (int_range 2000 2500) op);
          pair
            (map Option.some
               (triple (int_bound 4)
                  (frequency [ (1, int_bound 16); (2, int_range 17 300); (3, int_range 301 3000) ])
                  int))
            (list_size (int_bound 600) op);
        ])
    (fun (start, ops) ->
      let t, model =
        match start with
        | None -> (Btree.create (), StrMap.empty)
        | Some (shape, n, seed) ->
          let bindings = bulk_bindings ~shape ~n ~seed in
          let before = Array.copy bindings in
          let model =
            Array.fold_left (fun m (key, v) -> StrMap.add key v m) StrMap.empty bindings
          in
          let t = Btree.of_bindings bindings in
          if bindings <> before then failwith "of_bindings wrote its input";
          (t, model)
      in
      let model = ref model in
      let agrees () =
        Btree.invariant_check t;
        Btree.size t = StrMap.cardinal !model && Btree.to_list t = StrMap.bindings !model
      in
      let built_ok = agrees () in
      let ok = ref true and key = btree_key in
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
      built_ok && !ok && agrees () && (start <> None || Btree.height t >= 3))

(* A copy and its original, changed by their own interleaved inserts (of
   fresh and present keys, so a value is replaced in place) and removes,
   each end equal to their own model: neither sees the other's changes,
   through a node or through the leaf chain. *)
let prop_btree_copy =
  QCheck2.Test.make ~name:"btree copy changes apart from its original" ~count:100
    QCheck2.Gen.(
      triple (int_range 0 700)
        (list_size (int_bound 400) (pair bool (int_range 0 899)))
        (list_size (int_bound 400) (pair bool (int_range 0 899))))
    (fun (n, ops_t, ops_c) ->
      let t = Btree.of_bindings (Array.init n (fun i -> (btree_key i, i))) in
      let c = Btree.copy t in
      let model_t = ref (StrMap.of_seq (List.to_seq (Btree.to_list t))) in
      let model_c = ref !model_t in
      let apply tree model side step = function
        | true, k ->
          Btree.insert tree (btree_key k) (side + step);
          model := StrMap.add (btree_key k) (side + step) !model
        | false, k ->
          ignore (Btree.remove tree (btree_key k));
          model := StrMap.remove (btree_key k) !model
      in
      for step = 0 to max (List.length ops_t) (List.length ops_c) - 1 do
        Option.iter (apply t model_t (-1_000_000) step) (List.nth_opt ops_t step);
        Option.iter (apply c model_c 1_000_000 step) (List.nth_opt ops_c step)
      done;
      let agrees tree model =
        Btree.invariant_check tree;
        Btree.size tree = StrMap.cardinal model && Btree.to_list tree = StrMap.bindings model
      in
      agrees t !model_t && agrees c !model_c)

(* The bulk build's height on sizes that straddle each level boundary:
   one leaf holds 16 keys, two levels 17 leaves. *)
let test_btree_of_bindings_heights () =
  List.iter
    (fun (n, height) ->
      let t = Btree.of_bindings (Array.init n (fun i -> (Printf.sprintf "%05d" i, i))) in
      Btree.invariant_check t;
      Alcotest.(check int) (Printf.sprintf "height of %d keys" n) height (Btree.height t);
      Alcotest.(check int) (Printf.sprintf "size of %d keys" n) n (Btree.size t))
    [ (0, 1); (1, 1); (16, 1); (17, 2); (272, 2); (273, 3); (4624, 3); (4625, 4) ];
  let t = Btree.of_bindings [| ("b", 1); ("a", 2); ("b", 3); ("a", 4); ("c", 5) |] in
  Alcotest.(check (list (pair string int)))
    "last duplicate wins" [ ("a", 4); ("b", 3); ("c", 5) ] (Btree.to_list t)

(* --- property tests --- *)

let prop_rng_int_in_bounds =
  QCheck2.Test.make ~name:"rng int stays in bounds" ~count:500
    QCheck2.Gen.(pair (int_range 1 1_000_000) int)
    (fun (bound, seed) ->
      let rng = Rng.create (Int64.of_int seed) in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_zipf_sample_in_range =
  QCheck2.Test.make ~name:"zipf sample in range" ~count:200
    QCheck2.Gen.(triple (int_range 1 500) (float_bound_inclusive 2.0) int)
    (fun (n, theta, seed) ->
      let z = Zipf.create ~n ~theta in
      let rng = Rng.create (Int64.of_int seed) in
      let k = Zipf.sample z rng in
      k >= 0 && k < n)

(* The hash-set version of [sample_distinct] (Floyd's algorithm) that the
   list version replaced: same draws, so same output and same RNG state. *)
let reference_sample_distinct t ~n ~bound =
  let seen = Hashtbl.create (2 * n) in
  let acc = ref [] in
  for j = bound - n to bound - 1 do
    let v = Rng.int t (j + 1) in
    let v = if Hashtbl.mem seen v then j else v in
    Hashtbl.replace seen v ();
    acc := v :: !acc
  done;
  !acc

let prop_sample_distinct_matches_reference =
  QCheck2.Test.make ~name:"sample_distinct = hash-set reference" ~count:500
    QCheck2.Gen.(triple (int_range 1 64) (int_range 0 64) int)
    (fun (bound, n, seed) ->
      let n = n mod (bound + 1) in
      let a = Rng.create (Int64.of_int seed) in
      let b = Rng.copy a in
      let got = Rng.sample_distinct a ~n ~bound in
      let want = reference_sample_distinct b ~n ~bound in
      got = want && Rng.bits64 a = Rng.bits64 b)

(* [Strtbl] against the polymorphic [Hashtbl] it replaces: the same
   operation sequence (enough keys to force several resizes, plus resets
   and clears) must leave both with the same bindings in the same
   iteration order, after every operation. *)
type strtbl_op = Add of int * int | Replace of int * int | Remove of int | Reset | Clear

let prop_strtbl_iterates_like_hashtbl =
  QCheck2.Test.make ~name:"Strtbl iterates like a generic Hashtbl" ~count:200
    QCheck2.Gen.(
      list_size (int_range 0 400)
        (frequency
           [
             (6, map2 (fun k v -> Add (k, v)) (int_range 0 299) small_nat);
             (6, map2 (fun k v -> Replace (k, v)) (int_range 0 299) small_nat);
             (3, map (fun k -> Remove k) (int_range 0 299));
             (1, pure Reset);
             (1, pure Clear);
           ]))
    (fun ops ->
      let key i =
        if i mod 3 = 0 then Printf.sprintf "acct-%03d" i else "site-" ^ string_of_int i
      in
      let g = Hashtbl.create 8 and s = Strtbl.create 8 in
      List.for_all
        (fun op ->
          (match op with
          | Add (k, v) ->
            Hashtbl.add g (key k) v;
            Strtbl.add s (key k) v
          | Replace (k, v) ->
            Hashtbl.replace g (key k) v;
            Strtbl.replace s (key k) v
          | Remove k ->
            Hashtbl.remove g (key k);
            Strtbl.remove s (key k)
          | Reset ->
            Hashtbl.reset g;
            Strtbl.reset s
          | Clear ->
            Hashtbl.clear g;
            Strtbl.clear s);
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) g []
          = Strtbl.fold (fun k v acc -> (k, v) :: acc) s [])
        ops)

(* [Gid_store] (dense and byte-per-gid) against [Hashtbl] references: a
   random replace/remove/find sequence over gids reaching far past the
   initial capacity of 64, so the stores grow several times (by doubling,
   and by jumping straight to a large gid). The dense store takes every
   step; the bool store, whose entries are never removed, takes the
   replaces. Both must agree with their reference, in bindings and in
   count, after every step. *)
type gid_op = G_replace of int * int | G_remove of int | G_find of int

let prop_gid_store_matches_hashtbl =
  QCheck2.Test.make ~name:"Gid_store = Hashtbl reference" ~count:300
    QCheck2.Gen.(
      let gid = frequency [ (8, int_range 0 100); (2, int_range 0 600); (1, int_range 0 5000) ] in
      list_size (int_range 0 300)
        (frequency
           [
             (5, map2 (fun g v -> G_replace (g, v)) gid small_nat);
             (2, map (fun g -> G_remove g) gid);
             (3, map (fun g -> G_find g) gid);
           ]))
    (fun ops ->
      let dense = Gid_store.create ()
      and bools = Gid_store.Bool.create ()
      and reference = Hashtbl.create 8
      and bool_reference = Hashtbl.create 8 in
      let agree g =
        Gid_store.find_opt dense g = Hashtbl.find_opt reference g
        && Gid_store.Bool.find_opt bools g = Hashtbl.find_opt bool_reference g
        && Gid_store.Bool.length bools = Hashtbl.length bool_reference
      in
      List.for_all
        (fun op ->
          match op with
          | G_replace (g, v) ->
            Hashtbl.replace reference g v;
            Hashtbl.replace bool_reference g (v mod 2 = 0);
            Gid_store.replace dense g v;
            Gid_store.Bool.replace bools g (v mod 2 = 0);
            agree g
          | G_remove g ->
            Hashtbl.remove reference g;
            Gid_store.remove dense g;
            agree g
          | G_find g -> agree g)
        ops)

let test_gid_store_rejects_negative () =
  let dense = Gid_store.create () and bools = Gid_store.Bool.create () in
  let rejects name f =
    Alcotest.check_raises name (Invalid_argument "Gid_store: negative gid") (fun () ->
        ignore (f ()))
  in
  rejects "replace" (fun () -> Gid_store.replace dense (-1) 0);
  rejects "find_opt" (fun () -> Gid_store.find_opt dense (-1));
  rejects "remove" (fun () -> Gid_store.remove dense (-1));
  rejects "bool replace" (fun () -> Gid_store.Bool.replace bools (-1) true);
  rejects "bool find_opt" (fun () -> Gid_store.Bool.find_opt bools min_int);
  Alcotest.(check int) "nothing stored" 0 (Gid_store.Bool.length bools)

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
      ( "symbol",
        [
          Alcotest.test_case "round-trip" `Quick test_symbol_roundtrip;
          Alcotest.test_case "dedup + dense ids" `Quick test_symbol_dedup_and_density;
          Alcotest.test_case "snapshot" `Quick test_symbol_snapshot;
          Alcotest.test_case "unknown id" `Quick test_symbol_unknown_id;
          Alcotest.test_case "deterministic across domains" `Quick
            test_symbol_deterministic_across_domains;
        ] );
      ( "gid store",
        [ Alcotest.test_case "negative gid rejected" `Quick test_gid_store_rejects_negative ] );
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
          Alcotest.test_case "of_bindings heights" `Quick test_btree_of_bindings_heights;
          QCheck_alcotest.to_alcotest prop_btree_model;
          QCheck_alcotest.to_alcotest prop_btree_copy;
        ] );
      ( "properties",
        qc
          [
            prop_rng_int_in_bounds;
            prop_zipf_sample_in_range;
            prop_sample_distinct_matches_reference;
            prop_strtbl_iterates_like_hashtbl;
            prop_gid_store_matches_hashtbl;
          ]
      );
    ]
