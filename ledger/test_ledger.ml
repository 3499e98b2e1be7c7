open Ledger_lib
module Runner = Icdb_workload.Runner

(* The standard output of [ledger.exe --smoke], run once. *)
let smoke_output =
  lazy
    (let ic = Unix.open_process_args_in "./ledger.exe" [| "./ledger.exe"; "--smoke" |] in
     let out = In_channel.input_all ic in
     match Unix.close_process_in ic with
     | Unix.WEXITED 0 -> out
     | _ -> Alcotest.fail ("ledger.exe --smoke failed:\n" ^ out))

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* The phase hooks the ledger times a rep with must not change the run:
   a report made with no-op hooks equals one made without them. *)
let hooks_are_transparent () =
  List.iter
    (fun w ->
      let cfg = (Workloads.smoke w).Workloads.config in
      let plain = Runner.run cfg in
      let hooked = Runner.run ~on_setup:(fun _ _ -> ()) ~on_drain:(fun () -> ()) cfg in
      Alcotest.(check bool) (w.Workloads.name ^ " report unchanged") true (plain = hooked))
    (Workloads.all ~seed:42L)

let smoke_rep_is_correct_and_repeats () =
  List.iter
    (fun w ->
      let cfg = (Workloads.smoke w).Workloads.config in
      let a = Rep.run cfg and b = Rep.run cfg in
      Alcotest.(check (list string)) (w.Workloads.name ^ " no failures") [] a.failures;
      List.iter
        (fun (k, v) ->
          if not (Rep.is_host k) then
            Alcotest.(check (float 0.0)) (w.name ^ " " ^ k ^ " repeats") v (List.assoc k b.values))
        a.values)
    (Workloads.all ~seed:42L)

(* Every workload and metric BENCHMARK.json names is one the ledger
   defines with the same unit and direction, and the smoke run prints it.
   The bounds differ on purpose: see README.md. *)
let benchmark_json_names () =
  let bench = Json.of_file "../BENCHMARK.json" in
  let smoke = Lazy.force smoke_output in
  let names key = List.map (fun j -> Json.to_str (Json.member "name" j)) (Json.to_list (Json.member key bench)) in
  Alcotest.(check (list string)) "workloads" Workloads.names (names "workloads");
  List.iter (fun w -> Alcotest.(check bool) ("smoke prints " ^ w) true (contains ~sub:("== " ^ w ^ ":") smoke))
    (names "workloads");
  List.iter
    (fun j ->
      let name = Json.to_str (Json.member "name" j) in
      let m = List.find (fun (m : Metrics.e2e) -> m.name = name) Metrics.end_to_end in
      Alcotest.(check string) (name ^ " unit") m.unit (Json.to_str (Json.member "unit" j));
      Alcotest.(check string) (name ^ " better") (Metrics.better_name m.better) (Json.to_str (Json.member "better" j));
      Alcotest.(check bool) ("smoke prints " ^ name) true (contains ~sub:name smoke))
    (Json.to_list (Json.member "end_to_end" bench));
  Alcotest.(check (list string)) "per-layer metrics"
    (List.map (fun (l : Metrics.layer_metric) -> l.lname) Metrics.per_layer)
    (names "per_layer");
  List.iter
    (fun j ->
      let name = Json.to_str (Json.member "name" j) in
      let l = List.find (fun (l : Metrics.layer_metric) -> l.lname = name) Metrics.per_layer in
      Alcotest.(check string) (name ^ " unit") l.lunit (Json.to_str (Json.member "unit" j));
      Alcotest.(check string) (name ^ " better") (Metrics.better_name l.lbetter) (Json.to_str (Json.member "better" j));
      Alcotest.(check bool) ("smoke prints " ^ name) true (contains ~sub:name smoke))
    (Json.to_list (Json.member "per_layer" bench));
  let last = List.hd (List.rev (String.split_on_char '\n' (String.trim smoke))) in
  let line = Json.of_string last in
  Alcotest.(check bool) "smoke run correct" true (Json.member "correct" line = Bool true)

(* Python's statistics.quantiles(values, n=4), the exclusive method. *)
let quartiles_match_python () =
  let check name values expected =
    let q1, m, q3 = Gate.quartiles values in
    Alcotest.(check (list (float 1e-12))) name expected [ q1; m; q3 ]
  in
  check "1..10" (List.init 10 (fun i -> float_of_int (i + 1))) [ 2.75; 5.5; 8.25 ];
  check "1..5 unsorted" [ 5.; 1.; 4.; 2.; 3. ] [ 1.5; 3.0; 4.5 ];
  check "two values" [ 1.; 2. ] [ 0.75; 1.5; 2.25 ]

let json_roundtrip () =
  let v =
    Json.Obj
      [ ("a", Num 1.0); ("b", Num 0.1); ("s", Str "x\"y\n"); ("l", Arr [ Bool true; Null; Num (-2.5e-7) ]) ]
  in
  Alcotest.(check bool) "compact" true (Json.of_string (Json.to_string v) = v);
  Alcotest.(check bool) "indented" true (Json.of_string (Json.to_string ~indent:true v) = v)

let verdicts a b =
  List.map (fun (r : Gate.row) -> (r.metric, Gate.verdict_name r.verdict)) (Gate.rows a b)

let compare_regression () =
  let parent = Json.of_file "testdata/parent.json" and change = Json.of_file "testdata/regressed.json" in
  Alcotest.(check bool) "comparable" true (Gate.comparable parent change = Ok ());
  let v = verdicts parent change in
  Alcotest.(check string) "txn_per_s" "REGRESSED" (List.assoc "txn_per_s" v);
  Alcotest.(check string) "run_s within" "within" (List.assoc "run_s" v);
  (* +20% of 0.05 s is under the 0.05 s floor *)
  Alcotest.(check string) "check_s under floor" "within" (List.assoc "check_s" v);
  Alcotest.(check string) "exact" "same" (List.assoc "vt_txn_per_ktu" v);
  Alcotest.(check int) "exit code" 1 (Gate.main "testdata/parent.json" "testdata/regressed.json");
  Alcotest.(check int) "self compare" 0 (Gate.main "testdata/parent.json" "testdata/parent.json")

let compare_unresolved () =
  let parent = Json.of_file "testdata/parent.json" and change = Json.of_file "testdata/unresolved.json" in
  Alcotest.(check string) "txn_per_s" "unresolved" (List.assoc "txn_per_s" (verdicts parent change));
  Alcotest.(check int) "unresolved alone passes" 0 (Gate.main "testdata/parent.json" "testdata/unresolved.json");
  (* wide spread, but every change rep beats every parent rep *)
  Alcotest.(check bool) "clear win" true
    (Gate.judge_host ~better:Higher ~bound:0.1 ~floor:0.0 [ 100.; 120.; 140. ] [ 150.; 180.; 210. ] = Better)

let compare_exact_and_refusals () =
  Alcotest.(check bool) "equal at 3 decimals" true (Gate.judge_exact ~better:Lower 8.0001 8.0004 = Same);
  Alcotest.(check bool) "lower is better" true (Gate.judge_exact ~better:Lower 8.5 8.0 = Better);
  Alcotest.(check bool) "lower regressed" true (Gate.judge_exact ~better:Lower 8.0 8.5 = Regressed);
  Alcotest.(check bool) "higher regressed" true (Gate.judge_exact ~better:Higher 8.5 8.0 = Regressed);
  Alcotest.(check bool) "higher is better" true (Gate.judge_exact ~better:Higher 8.0 8.5 = Better);
  let parent = Json.of_file "testdata/parent.json" in
  Alcotest.(check bool) "other seed refused" true
    (Result.is_error (Gate.comparable parent (Json.of_file "testdata/other_seed.json")));
  Alcotest.(check int) "refusal exit code" 2 (Gate.main "testdata/parent.json" "testdata/other_seed.json");
  let other_config =
    match parent with
    | Obj fields ->
      Json.Obj
        (List.map
           (function
             | "workloads", Json.Arr [ Obj w ] ->
               ( "workloads",
                 Json.Arr [ Obj (List.map (function "config", _ -> ("config", Json.Obj [])| f -> f) w) ] )
             | f -> f)
           fields)
    | _ -> assert false
  in
  Alcotest.(check bool) "other config refused" true (Result.is_error (Gate.comparable parent other_config))

let kernels_report_costs () =
  List.iter
    (fun (name, ns) ->
      Alcotest.(check bool) (name ^ " is finite") true (Float.is_finite ns);
      Alcotest.(check bool) (name ^ " > 0") true (ns > 0.0))
    (Kernels.run ~pending:16 ~quota:0.005)

(* The clock leaves the probes' time out of the program's and counts the
   program's CPU seconds at the reference over the probes' speed. *)
let clock_scales_by_probe_speed () =
  Clock.start ();
  let a = Clock.read () in
  let x = ref 0 and last = ref a in
  while !last.cpu -. a.cpu < 0.2 do
    x := !x + Hashtbl.hash !x;
    let r = Clock.read () in
    Alcotest.(check bool) "monotone" true (r.cpu >= !last.cpu && r.reference_s >= !last.reference_s);
    last := r
  done;
  Clock.stop ();
  let probe = Clock.mean_probe_s () in
  Alcotest.(check bool) "probes ran" true (Float.is_finite probe && probe > 0.0);
  let scale = (!last.reference_s -. a.reference_s) /. (!last.cpu -. a.cpu) in
  let expected = Clock.reference_probe_s /. probe in
  Alcotest.(check bool)
    (Printf.sprintf "scale %.3f near %.3f" scale expected)
    true
    (Float.abs ((scale /. expected) -. 1.0) < 0.3)

let () =
  Alcotest.run "ledger"
    [
      ( "rep",
        [
          Alcotest.test_case "runner hooks are transparent" `Quick hooks_are_transparent;
          Alcotest.test_case "smoke rep correct and deterministic" `Quick smoke_rep_is_correct_and_repeats;
        ] );
      ( "benchmark",
        [
          Alcotest.test_case "BENCHMARK.json names match the smoke run" `Quick benchmark_json_names;
          Alcotest.test_case "kernels report costs" `Quick kernels_report_costs;
          Alcotest.test_case "clock scales by probe speed" `Quick clock_scales_by_probe_speed;
        ] );
      ( "gate",
        [
          Alcotest.test_case "quartiles match python" `Quick quartiles_match_python;
          Alcotest.test_case "json roundtrip" `Quick json_roundtrip;
          Alcotest.test_case "regression" `Quick compare_regression;
          Alcotest.test_case "unresolved" `Quick compare_unresolved;
          Alcotest.test_case "exact metrics and refusals" `Quick compare_exact_and_refusals;
        ] );
    ]
