(* [ledger.exe compare PARENT.json CHANGE.json]: the noise-aware gate.

   For each (workload, end-to-end metric) present in both files:
   - a host metric is "unresolved" when either side's quartile spread
     exceeds the bound, unless every change rep beats every parent rep
     ("better"); otherwise it is "regressed" when the change's median is
     worse than the parent's by more than the bound, "better" when it is
     better by more than the bound, and "within" else. The bound is a
     share of the parent's median, never less than the metric's floor;
   - an exact metric is "same" when equal at three decimals, else "better"
     or "regressed" by the metric's direction.

   Only a regression fails the gate.

   Files whose seeds or workload configs differ are refused: their numbers
   measure different inputs. *)

(* Quartiles as Python's [statistics.quantiles(values, n=4)] gives them
   (the "exclusive" method); one value is its own quartiles. *)
let quartiles values =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let at i =
      let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
      let delta = (i * (n + 1)) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (at 1, at 2, at 3)

let median values =
  let _, m, _ = quartiles values in
  m

type verdict = Within | Better | Regressed | Unresolved | Same

let verdict_name = function
  | Within -> "within"
  | Better -> "better"
  | Regressed -> "REGRESSED"
  | Unresolved -> "unresolved"
  | Same -> "same"

let fails = function Regressed -> true | Within | Better | Unresolved | Same -> false

let judge_host ~better ~bound ~floor parent change =
  let pq1, pm, pq3 = quartiles parent and cq1, cm, cq3 = quartiles change in
  let allow base = Float.max (bound *. Float.abs base) floor in
  let beats c p = match better with Metrics.Lower -> c < p | Higher -> c > p in
  let worse = match better with Metrics.Lower -> cm -. pm | Higher -> pm -. cm in
  if pq3 -. pq1 > allow pm || cq3 -. cq1 > allow cm then
    if List.for_all (fun c -> List.for_all (beats c) parent) change then Better else Unresolved
  else if worse > allow pm then Regressed
  else if -.worse > allow pm then Better
  else Within

let judge_exact ~better parent change =
  let p = Printf.sprintf "%.3f" parent and c = Printf.sprintf "%.3f" change in
  if p = c then Same
  else
    match better with
    | Metrics.Lower -> if change < parent then Better else Regressed
    | Higher -> if change > parent then Better else Regressed

type row = {
  workload : string;
  metric : string;
  parent : string;
  change : string;
  delta_pct : float;
  verdict : verdict;
}

let workloads j = List.map (fun w -> (Json.to_str (Json.member "name" w), w)) (Json.to_list (Json.member "workloads" j))

(* [Error msg] when the two files measure different inputs. *)
let comparable a b =
  let seed j = Json.member "seed" j in
  if seed a <> seed b then Error "the files were made with different seeds"
  else
    let wa = workloads a and wb = workloads b in
    match
      List.find_opt
        (fun (name, w) ->
          match List.assoc_opt name wb with
          | Some w' -> Json.member "config" w <> Json.member "config" w'
          | None -> false)
        wa
    with
    | Some (name, _) -> Error (Printf.sprintf "workload %s has different configs" name)
    | None -> Ok ()

let rows a b =
  let wb = workloads b in
  List.concat_map
    (fun (name, wa) ->
      match List.assoc_opt name wb with
      | None -> []
      | Some wb ->
        List.filter_map
          (fun (m : Metrics.e2e) ->
            let get w = Json.member m.name (Json.member "end_to_end" w) in
            let pa = get wa and pb = get wb in
            if pa = Json.Null || pb = Json.Null then None
            else
              let values j = List.map Json.to_num (Json.to_list (Json.member "values" j)) in
              let pct p c = if p <> 0.0 then (c -. p) /. Float.abs p *. 100.0 else 0.0 in
              Some
                (match m.kind with
                | Exact ->
                  let p = Json.to_num (Json.member "value" pa)
                  and c = Json.to_num (Json.member "value" pb) in
                  {
                    workload = name;
                    metric = m.name;
                    parent = Printf.sprintf "%.3f" p;
                    change = Printf.sprintf "%.3f" c;
                    delta_pct = pct p c;
                    verdict = judge_exact ~better:m.better p c;
                  }
                | Host { bound; floor } ->
                  let pv = values pa and cv = values pb in
                  let show v =
                    let q1, med, q3 = quartiles v in
                    Printf.sprintf "%.4g [%.4g, %.4g]" med q1 q3
                  in
                  {
                    workload = name;
                    metric = m.name;
                    parent = show pv;
                    change = show cv;
                    delta_pct = pct (median pv) (median cv);
                    verdict = judge_host ~better:m.better ~bound ~floor pv cv;
                  }))
          Metrics.end_to_end)
    (workloads a)

(* Per-layer values side by side: no verdict (layers have no bound), but
   the evidence a change claiming a layer gain points at. *)
let layer_rows a b =
  let wb = workloads b in
  List.concat_map
    (fun (name, wa) ->
      match List.assoc_opt name wb with
      | None -> []
      | Some wb ->
        List.filter_map
          (fun (l : Metrics.layer_metric) ->
            let get w = Json.member "value" (Json.member l.lname (Json.member "per_layer" w)) in
            match (get wa, get wb) with
            | Json.Num p, Json.Num c -> Some (name, l.lname, p, c)
            | _ -> None)
          Metrics.per_layer)
    (workloads a)

let print_rows rows =
  Printf.printf "%-14s %-18s %-32s %-32s %8s  %s\n" "workload" "metric" "parent median [q1, q3]"
    "change median [q1, q3]" "delta" "verdict";
  List.iter
    (fun r ->
      Printf.printf "%-14s %-18s %-32s %-32s %+7.2f%%  %s\n" r.workload r.metric r.parent r.change
        r.delta_pct (verdict_name r.verdict))
    rows

let main parent_path change_path =
  let a = Json.of_file parent_path and b = Json.of_file change_path in
  match comparable a b with
  | Error msg ->
    Printf.eprintf "compare: refusing to compare %s and %s: %s\n" parent_path change_path msg;
    2
  | Ok () ->
    let rows = rows a b in
    print_rows rows;
    print_newline ();
    print_endline "per-layer (no bound; evidence for a claimed layer):";
    List.iter
      (fun (w, name, p, c) -> Printf.printf "  %-14s %-32s %14.4f -> %14.4f\n" w name p c)
      (layer_rows a b);
    let bad = List.filter (fun r -> fails r.verdict) rows in
    let unresolved = List.filter (fun r -> r.verdict = Unresolved) rows in
    Printf.printf "\n%d rows: %d regressed, %d unresolved\n" (List.length rows)
      (List.length bad) (List.length unresolved);
    if bad = [] then 0 else 1
