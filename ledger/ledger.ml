(* The performance ledger: the repository's benchmark.

   It runs named workloads through [Icdb_workload.Runner.run], each rep in
   a fresh child process (this executable re-run with [rep]), one at a time
   on one OCaml domain. A rep's host times are CPU seconds at a reference
   host speed ([Clock]): the rep probes the host's speed every 10 ms of
   its CPU time, so that drift in a shared host's speed cancels. End-to-end
   metrics come from untraced reps, as the median and quartiles of the host
   metrics and the exact value of the deterministic ones. Per-layer metrics
   come from one further traced rep (flight-ring tracer, the benchmark's
   own spans) and from the layer kernels ([kernels], also a child). Every
   rep is checked: money is
   conserved, the history is serializable, every started transaction has
   an outcome, and the deterministic metrics repeat exactly across reps.

   usage:
     ledger.exe [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
                [--out FILE] [--smoke]
     ledger.exe compare PARENT.json CHANGE.json

   Without --workload every workload runs, rounds interleaving them so host
   drift spreads evenly. Without --seconds it runs 5 rounds; --seconds S
   instead keeps starting rounds while they fit in S seconds per workload
   (at least 2). --smoke runs one round at a few hundred transactions per
   workload and skips the kernels. --trace 0 measures the end-to-end
   metrics only; --trace 1 spends half the budget on them and adds the
   traced rep and kernels, and its last line reports the per-layer metrics;
   without --trace both are measured and reported. The last line of
   standard output is one JSON object: correct, attempted, failed, metrics.
   The exit code is 1 when any correctness check failed. *)

open Ledger_lib

let now = Unix.gettimeofday
let default_rounds = 5
let min_rounds = 2

type opts = {
  workloads : string list;
  seed : int64;
  seconds : float option;
  trace : int option;
  out : string option;
  smoke : bool;
}

let usage () =
  prerr_endline
    "usage: ledger.exe [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--out FILE] \
     [--smoke]\n\
    \       ledger.exe compare PARENT.json CHANGE.json";
  exit 2

let parse args =
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest -> go { o with workloads = o.workloads @ [ w ] } rest
    | "--seed" :: s :: rest -> go { o with seed = Int64.of_string s } rest
    | "--seconds" :: s :: rest -> go { o with seconds = Some (float_of_string s) } rest
    | "--trace" :: ("0" | "1" as t) :: rest -> go { o with trace = Some (int_of_string t) } rest
    | "--out" :: f :: rest -> go { o with out = Some f } rest
    | "--smoke" :: rest -> go { o with smoke = true } rest
    | a :: _ ->
      Printf.eprintf "ledger: unknown argument %s\n" a;
      usage ()
  in
  let o =
    try go { workloads = []; seed = 42L; seconds = None; trace = None; out = None; smoke = false } args
    with Failure _ -> usage ()
  in
  List.iter
    (fun w ->
      if not (List.mem w Workloads.names) then begin
        Printf.eprintf "ledger: unknown workload %s (known: %s)\n" w (String.concat ", " Workloads.names);
        exit 2
      end)
    o.workloads;
  { o with workloads = (if o.workloads = [] then Workloads.names else o.workloads) }

let workload ~seed ~smoke name =
  let w = Option.get (Workloads.find ~seed name) in
  if smoke then Workloads.smoke w else w

(* --- children ------------------------------------------------------------- *)

(* Runs this executable with [args] and waits for it; the child's last
   stdout line is its JSON result. [None] when it failed. *)
let child args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let last = ref None in
  (try
     while true do
       last := Some (input_line ic)
     done
   with End_of_file -> ());
  match (Unix.close_process_in ic, !last) with
  | Unix.WEXITED 0, Some line -> ( try Some (Json.of_string line) with Json.Parse_error _ -> None)
  | _ -> None

let child_main = function
  | "rep" :: name :: rest ->
    let rec flags (seed, smoke, traced) = function
      | "--seed" :: s :: r -> flags (Int64.of_string s, smoke, traced) r
      | "--smoke" :: r -> flags (seed, true, traced) r
      | "--traced" :: r -> flags (seed, smoke, true) r
      | [] -> (seed, smoke, traced)
      | _ -> usage ()
    in
    let seed, smoke, traced = flags (42L, false, false) rest in
    let w = workload ~seed ~smoke name in
    let r = Rep.run ~traced w.config in
    print_endline
      (Json.to_string (Json.Obj (Json.to_assoc (Rep.to_json r) @ [ ("spans", Spans.to_json (Spans.all ())) ])))
  | [ "kernels"; "--pending"; p; "--quota"; q ] ->
    let values = Kernels.run ~pending:(int_of_string p) ~quota:(float_of_string q) in
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ("values", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) values));
              ("spans", Spans.to_json (Spans.all ()));
            ]))
  | _ -> usage ()

(* --- measuring ------------------------------------------------------------ *)

type wstate = {
  w : Workloads.t;
  mutable reps : Rep.result list;  (** untraced, newest first *)
  mutable traced : Rep.result option;
  mutable kernels : (string * float) list;
  mutable failures : string list;
  mutable attempted : int;
  mutable failed : int;
}

let value (r : Rep.result) key = Option.value ~default:nan (List.assoc_opt key r.values)

let run_rep o ws ~traced =
  let n = List.length ws.reps + 1 in
  let label = if traced then "traced rep" else Printf.sprintf "rep %d" n in
  let args =
    [ "rep"; ws.w.name; "--seed"; Int64.to_string o.seed ]
    @ (if o.smoke then [ "--smoke" ] else [])
    @ if traced then [ "--traced" ] else []
  in
  let fail msg txns =
    ws.failures <- ws.failures @ [ Printf.sprintf "%s %s: %s" ws.w.name label msg ];
    ws.attempted <- ws.attempted + txns;
    ws.failed <- ws.failed + txns
  in
  let result =
    if traced then Spans.within (ws.w.name ^ ".traced_rep") (fun () -> child args) else child args
  in
  match result with
  | None -> fail "the rep process failed" ws.w.config.n_txns
  | Some j ->
    let r = Rep.of_json j in
    if traced then Spans.adopt (Json.member "spans" j);
    let started = int_of_float (value r "started") in
    if r.failures = [] then ws.attempted <- ws.attempted + started
    else fail (String.concat "; " r.failures) started;
    if traced then ws.traced <- Some r else ws.reps <- r :: ws.reps

(* The deterministic values of every rep must equal the first rep's; a rep
   that differs counts its transactions as failed. *)
let check_repeats ws =
  match List.rev ws.reps with
  | [] | [ _ ] -> ()
  | first :: rest ->
    List.iteri
      (fun i (r : Rep.result) ->
        let differing =
          List.filter (fun (k, v) -> (not (Rep.is_host k)) && value r k <> v) first.values
        in
        List.iter
          (fun (k, v) ->
            ws.failures <-
              ws.failures
              @ [
                  Printf.sprintf "%s rep %d: %s = %.17g differs from rep 1's %.17g" ws.w.name (i + 2) k
                    (value r k) v;
                ])
          differing;
        if differing <> [] then ws.failed <- ws.failed + int_of_float (value r "started"))
      rest

let measure o =
  let states =
    List.map
      (fun name ->
        { w = workload ~seed:o.seed ~smoke:o.smoke name; reps = []; traced = None; kernels = []; failures = []; attempted = 0; failed = 0 })
      o.workloads
  in
  let layers = o.trace <> Some 0 in
  let start = now () in
  let rounds = ref 0 in
  let more () =
    match o.seconds with
    | _ when o.smoke -> !rounds < 1
    | None -> !rounds < default_rounds
    | Some s ->
      let budget = (if o.trace = Some 1 then s /. 2.0 else s) *. float_of_int (List.length states) in
      let elapsed = now () -. start in
      !rounds < min_rounds || elapsed +. (elapsed /. float_of_int !rounds) <= budget
  in
  while more () do
    incr rounds;
    List.iter (fun ws -> run_rep o ws ~traced:false) states
  done;
  List.iter check_repeats states;
  if layers then
    List.iter
      (fun ws ->
        run_rep o ws ~traced:true;
        if not o.smoke then
          let pending =
            match ws.traced with Some r -> int_of_float (Float.round (value r "sim.mean_pending")) | None -> 16
          in
          match
            Spans.within (ws.w.name ^ ".kernels") (fun () ->
                child [ "kernels"; "--pending"; string_of_int (max 1 pending); "--quota"; "0.25" ])
          with
          | None -> ws.failures <- ws.failures @ [ ws.w.name ^ " kernels: the kernel process failed" ]
          | Some j ->
            Spans.adopt (Json.member "spans" j);
            ws.kernels <- List.map (fun (k, v) -> (k, Json.to_num v)) (Json.to_assoc (Json.member "values" j)))
      states;
  states

(* --- summarizing ---------------------------------------------------------- *)

let host_values ws key = List.rev_map (fun r -> value r key) ws.reps

(* Host metrics: (median, q1, q3, values). Exact metrics: the first rep's. *)
let end_to_end ws =
  List.map
    (fun (m : Metrics.e2e) ->
      match (m.kind, ws.reps) with
      | _, [] -> (m, nan, nan, nan, [])
      | Metrics.Exact, _ ->
        let v = value (List.hd (List.rev ws.reps)) m.name in
        (m, v, v, v, [ v ])
      | Host _, _ ->
        let vs = host_values ws m.name in
        let q1, med, q3 = Gate.quartiles vs in
        (m, med, q1, q3, vs))
    Metrics.end_to_end

(* Per-layer metrics: the first untraced rep's counters, the traced rep's
   timings and the kernels' ns per operation. A layer the workload never
   enters reads 0; a metric whose source did not run reads nan. *)
let per_layer ws =
  let counted k = match List.rev ws.reps with r :: _ -> value r k | [] -> nan in
  let traced k = match ws.traced with Some r -> value r k | None -> nan in
  let kernel k = Option.value ~default:nan (List.assoc_opt k ws.kernels) in
  (* kernels time raw host nanoseconds, so shares divide by raw time *)
  let ns_per_txn = Gate.median (host_values ws "raw.txn_s") *. 1e9 /. counted "started" in
  let txn_s = Gate.median (host_values ws "txn_s") in
  let share ops ns = ns *. ops /. ns_per_txn in
  let local_txns = counted "localdb.local_txns_per_txn" and msgs = counted "net.msgs_per_txn" in
  (* the events the localdb and net kernels already include *)
  let loose_events =
    counted "sim.events_per_txn"
    -. (local_txns *. kernel "localdb.events_per_local_txn")
    -. (msgs *. kernel "net.events_per_msg")
  in
  let shares =
    [
      ("sim.share", share (Float.max 0.0 loose_events) (kernel "sim.ns_per_event"));
      ("lock.share", share (counted "lock.acquires_per_txn") (kernel "lock.ns_per_acquire"));
      ("localdb.share", share local_txns (kernel "localdb.ns_per_local_txn"));
      ("wal.share", share (counted "wal.records_per_txn") (kernel "wal.ns_per_append"));
      ("net.share", share msgs (kernel "net.ns_per_msg"));
      ("mlt.share", share (counted "mlt.l1_acquires_per_txn") (kernel "mlt.ns_per_compatible"));
      ("graph.share", share (counted "graph.locals_per_txn") (kernel "graph.ns_per_local"));
    ]
  in
  let derived =
    shares
    @ [
        ("other.share", 1.0 -. List.fold_left (fun acc (_, s) -> acc +. s) 0.0 shares);
        ("graph.check_share", traced "graph.violations_s" /. traced "raw.check_s");
        ("obs.trace_overhead_pct", (traced "txn_s" -. txn_s) /. txn_s *. 100.0);
        ("obs.trace_events_per_txn", traced "obs.trace_events_per_txn");
        ("gc.major_collections", Gate.median (host_values ws "gc.major_collections"));
      ]
  in
  List.map
    (fun (l : Metrics.layer_metric) ->
      let v =
        match List.assoc_opt l.lname derived with
        | Some v -> v
        | None -> (
          match List.assoc_opt l.lname ws.kernels with Some v -> v | None -> counted l.lname)
      in
      (l, v))
    Metrics.per_layer

let print_workload o ws =
  let c = ws.w.config in
  Printf.printf "\n== %s: %s\n" ws.w.name ws.w.why;
  Printf.printf "   %s, %d sites x %d accounts, %d txns, %d clients, seed %Ld; %d untraced reps%s\n"
    (Icdb_workload.Protocol.name c.protocol) c.n_sites c.accounts_per_site c.n_txns c.concurrency o.seed
    (List.length ws.reps)
    (if ws.traced <> None then " + 1 traced rep" else "");
  Printf.printf
    "   host: probe median %.4f ms (reference %.2f ms); as measured, txn_per_s %.6g, run_s %.6g\n"
    (Gate.median (host_values ws "probe_s") *. 1e3)
    (Clock.reference_probe_s *. 1e3)
    (Gate.median (host_values ws "raw.txn_per_s"))
    (Gate.median (host_values ws "raw.run_s"));
  if o.trace <> Some 1 then begin
    Printf.printf "   %-18s %14s %14s %14s %-6s %-6s %s\n" "end-to-end" "median" "q1" "q3" "unit" "better"
      "bound";
    List.iter
      (fun ((m : Metrics.e2e), med, q1, q3, _) ->
        match m.kind with
        | Metrics.Exact ->
          Printf.printf "   %-18s %14.3f %14s %14s %-6s %-6s exact\n" m.name med "" "" m.unit
            (Metrics.better_name m.better)
        | Host { bound; floor } ->
          Printf.printf "   %-18s %14.6g %14.6g %14.6g %-6s %-6s %.0f%%%s\n" m.name med q1 q3 m.unit
            (Metrics.better_name m.better) (bound *. 100.0)
            (if floor > 0.0 then Printf.sprintf ", floor %g %s" floor m.unit else ""))
      (end_to_end ws)
  end;
  if o.trace <> Some 0 then begin
    Printf.printf "   %-32s %14s %-6s %s\n" "per-layer" "value" "unit" "should move";
    List.iter
      (fun ((l : Metrics.layer_metric), v) ->
        Printf.printf "   %-32s %14.4f %-6s %s\n" l.lname v l.lunit l.moves)
      (per_layer ws)
  end;
  List.iter (Printf.printf "   FAILED: %s\n") ws.failures

let print_spans () =
  let spans = Spans.self_times (Spans.all ()) in
  if spans <> [] then begin
    print_endline "\nspans (the benchmark's own, wall-clock seconds):";
    Printf.printf "   %-28s %6s %12s %12s\n" "name" "count" "total" "self";
    let names = List.sort_uniq compare (List.map (fun ((s : Spans.t), _) -> s.name) spans) in
    List.iter
      (fun name ->
        let mine = List.filter (fun ((s : Spans.t), _) -> s.name = name) spans in
        let total = List.fold_left (fun acc ((s : Spans.t), _) -> acc +. (s.stop -. s.start)) 0.0 mine in
        let self = List.fold_left (fun acc (_, x) -> acc +. x) 0.0 mine in
        Printf.printf "   %-28s %6d %12.4f %12.4f\n" name (List.length mine) total self)
      names
  end

let num f = Json.Num f

let workload_json ws =
  Json.Obj
    [
      ("name", Str ws.w.name);
      ("why", Str ws.w.why);
      ("config", Workloads.config_json ws.w.config);
      ("reps", num (float_of_int (List.length ws.reps)));
      ("probe_s", Arr (List.map num (host_values ws "probe_s")));
      ( "end_to_end",
        Obj
          (List.map
             (fun ((m : Metrics.e2e), med, q1, q3, vs) ->
               let common =
                 [ ("what", Json.Str m.what); ("unit", Str m.unit); ("better", Str (Metrics.better_name m.better)) ]
               in
               (* the host values as measured, before the clock's scaling *)
               let raw =
                 match ws.reps with
                 | r :: _ when List.mem_assoc ("raw." ^ m.name) r.values ->
                   [ ("raw_values", Json.Arr (List.map num (host_values ws ("raw." ^ m.name)))) ]
                 | _ -> []
               in
               ( m.name,
                 Json.Obj
                   (match m.kind with
                   | Exact -> common @ [ ("kind", Str "exact"); ("value", num med) ]
                   | Host { bound; floor } ->
                     common
                     @ [
                         ("kind", Json.Str "host");
                         ("bound", num bound);
                         ("floor", num floor);
                         ("median", num med);
                         ("q1", num q1);
                         ("q3", num q3);
                         ("values", Arr (List.map num vs));
                       ]
                     @ raw) ))
             (end_to_end ws)) );
      ( "per_layer",
        Obj
          (List.map
             (fun ((l : Metrics.layer_metric), v) ->
               ( l.lname,
                 Json.Obj [ ("unit", Str l.lunit); ("value", num v); ("moves", Str l.moves) ] ))
             (per_layer ws)) );
      ("failures", Arr (List.map (fun s -> Json.Str s) ws.failures));
    ]

(* The last stdout line. One workload: plain metric names; several: the
   names are prefixed "workload:". *)
let summary_line o states =
  let prefix ws = if List.length states = 1 then "" else ws.w.name ^ ":" in
  let metric ws name v unit = (prefix ws ^ name, Json.Obj [ ("value", num v); ("unit", Str unit) ]) in
  let metrics =
    List.concat_map
      (fun ws ->
        (if o.trace <> Some 1 then
           List.map (fun ((m : Metrics.e2e), med, _, _, _) -> metric ws m.name med m.unit) (end_to_end ws)
         else [])
        @
        if o.trace <> Some 0 then
          List.map (fun ((l : Metrics.layer_metric), v) -> metric ws l.lname v l.lunit) (per_layer ws)
        else [])
      states
  in
  let sum f = List.fold_left (fun acc ws -> acc + f ws) 0 states in
  Json.Obj
    [
      ("correct", Bool (List.for_all (fun ws -> ws.failures = []) states));
      ("attempted", num (float_of_int (sum (fun ws -> ws.attempted))));
      ("failed", num (float_of_int (sum (fun ws -> ws.failed))));
      ("metrics", Obj metrics);
    ]

let main o =
  let states = Spans.within "ledger" (fun () -> measure o) in
  List.iter (print_workload o) states;
  if o.trace <> Some 0 then print_spans ();
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc
        (Json.to_string ~indent:true
           (Json.Obj
              [
                ("format", Str "icdb-ledger/1");
                ("seed", Str (Int64.to_string o.seed));
                ("smoke", Bool o.smoke);
                ("ocaml", Str Sys.ocaml_version);
                ("workloads", Arr (List.map workload_json states));
                ("trace", Spans.to_json (Spans.all ()));
              ]));
      output_char oc '\n';
      close_out oc)
    o.out;
  let line = summary_line o states in
  print_endline (Json.to_string line);
  if Json.member "correct" line = Bool true then 0 else 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "compare"; parent; change ] -> exit (Gate.main parent change)
  | ("rep" | "kernels") :: _ as args -> child_main args
  | args -> exit (main (parse args))
