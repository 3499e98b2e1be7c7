(* Benchmark harness.

   Two parts:
   1. Bechamel micro-benchmarks — one [Test.make] per reproduced experiment
      (F2-F8, V1-V7), each running a reduced-size kernel of that experiment's
      simulation, so regressions in any protocol path show up as wall-clock
      changes.
   2. The full experiment tables (Icdb_workload.Experiments), regenerating
      every figure and validation claim of the paper. EXPERIMENTS.md quotes
      this output. *)

open Bechamel
open Toolkit
module Runner = Icdb_workload.Runner
module Protocol = Icdb_workload.Protocol
module Experiments = Icdb_workload.Experiments
module Overhead = Icdb_workload.Overhead
module Sharding = Icdb_workload.Sharding

let small ?(n_txns = 30) ?(p_intended_abort = 0.0) ?(p_spontaneous = 0.0)
    ?(crash_rate = 0.0) ?(use_increments = true) protocol () =
  ignore
    (Runner.run
       {
         Runner.default with
         protocol;
         n_txns;
         concurrency = 6;
         accounts_per_site = 8;
         p_intended_abort;
         p_spontaneous;
         crash_rate;
         use_increments;
       })

(* Commit-overhead batching kernel: the fixed-spec lab at a reduced size,
   with one window setting driving message piggybacking, central decision-log
   group commit and local group commit. *)
let overhead_kernel window () =
  ignore
    (Overhead.run
       {
         Overhead.default with
         n_txns = 40;
         concurrency = 8;
         msg_batch_window = window;
         central_gc_window = window;
         group_commit_window = window;
       })

(* One kernel per experiment id; figure kernels regenerate the figure
   itself, claim kernels run a reduced instance of the swept workload. *)
let kernels =
  [
    ("f2", fun () -> ignore (Experiments.run "f2"));
    ("f3", fun () -> ignore (Experiments.run "f3"));
    ("f4", fun () -> ignore (Experiments.run "f4"));
    ("f5", fun () -> ignore (Experiments.run "f5"));
    ("f6", fun () -> ignore (Experiments.run "f6"));
    ("f7", fun () -> ignore (Experiments.run "f7"));
    ("f8", fun () -> ignore (Experiments.run "f8"));
    ("v1", small ~use_increments:false Protocol.Two_phase);
    ("v2", small ~p_spontaneous:0.2 Protocol.After);
    ("v3", small ~p_intended_abort:0.2 Protocol.Before);
    ("v4", small Protocol.Before_mlt);
    ("v5", small Protocol.Before);
    ("v6", small ~crash_rate:5.0 Protocol.After);
    ("v7", fun () -> ignore (Experiments.run "v7"));
    ("a1", small ~use_increments:false Protocol.Presumed_abort);
    ("a2", small Protocol.Hybrid);
    ("a3", small ~p_spontaneous:0.2 Protocol.Before_mlt);
    ("a4", fun () -> ignore (Experiments.run "a4"));
    ("a5", small Protocol.Before);
    ("a6", small Protocol.Before);
    ("o1-unbatched", overhead_kernel None);
    ("o1-batched", overhead_kernel (Some 3.0));
  ]

(* Reduced kernel set for the CI smoke run: one representative per protocol
   family plus the batching pair, so a perf regression in any hot path still
   shows up without the full sweep's runtime. *)
let smoke_kernels =
  let keep = [ "f2"; "v1"; "v4"; "a1"; "o1-unbatched"; "o1-batched" ] in
  List.filter (fun (name, _) -> List.mem name keep) kernels

(* --- allocation trajectory ----------------------------------------------

   Wall clock alone hides a class of regressions the interning work targets:
   code that is no slower on a warm cache but allocates more per
   transaction. For the kernels whose transaction count is fixed by
   construction we report minor words per transaction and major collections
   per run, from [Gc.quick_stat] deltas around a measured batch (one warmup
   run first so interner/registry growth is not billed to the steady
   state). *)

type alloc_row = {
  a_name : string;
  a_minor_words_per_txn : float;
  a_major_per_run : float;
}

let alloc_kernels =
  let txns name = if String.length name >= 2 && String.sub name 0 2 = "o1" then 40 else 30 in
  List.filter_map
    (fun (name, f) ->
      match name.[0] with
      | 'v' | 'a' | 'o' -> Some (name, f, txns name)
      | _ -> None)
    kernels

let alloc_snapshot kernels =
  List.map
    (fun (name, f, n_txns) ->
      f ();
      (* warmup *)
      let runs = 5 in
      Gc.full_major ();
      let before = Gc.quick_stat () in
      (* [quick_stat]'s minor_words only advances at minor collections (256k
         word quanta); [Gc.minor_words] reads the allocation pointer and is
         word-exact. *)
      let minor_before = Gc.minor_words () in
      for _ = 1 to runs do
        f ()
      done;
      let after = Gc.quick_stat () in
      let minor = Gc.minor_words () -. minor_before in
      let majors = after.Gc.major_collections - before.Gc.major_collections in
      {
        a_name = "icdb/" ^ name;
        a_minor_words_per_txn = minor /. float_of_int (runs * n_txns);
        a_major_per_run = float_of_int majors /. float_of_int runs;
      })
    kernels

let print_alloc rows =
  print_endline "Allocation per kernel (Gc.quick_stat deltas, warm, 5 runs)";
  print_endline "----------------------------------------------------------";
  List.iter
    (fun r ->
      Printf.printf "%-17s %12.0f minor words/txn %8.1f major collections/run\n" r.a_name
        r.a_minor_words_per_txn r.a_major_per_run)
    rows;
  print_newline ()

let benchmark kernels =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 0.25) ~kde:None ~stabilize:false ()
  in
  let tests =
    Test.make_grouped ~name:"icdb"
      (List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) kernels)
  in
  let raw = Benchmark.all cfg instances tests in
  Analyze.all ols Instance.monotonic_clock raw

let rows_of results =
  Hashtbl.fold
    (fun name ols acc ->
      let ns =
        match Analyze.OLS.estimates ols with Some (t :: _) -> t | _ -> Float.nan
      in
      (name, ns) :: acc)
    results []
  |> List.sort compare

let print_benchmark rows =
  print_endline "Bechamel micro-benchmarks (one kernel per experiment, wall clock per run)";
  print_endline "--------------------------------------------------------------------------";
  List.iter
    (fun (name, ns) -> Printf.printf "%-12s %10.3f ms/run\n" name (ns /. 1e6))
    rows;
  print_newline ()

(* Per-protocol phase-latency snapshot for BENCH.json: one fixed-seed
   workload per protocol on a shared metrics registry. *)
let phase_snapshot () =
  let registry = Icdb_obs.Registry.create () in
  List.iter
    (fun protocol ->
      ignore
        (Runner.run ~registry
           {
             Runner.default with
             protocol;
             n_txns = 60;
             concurrency = 6;
             accounts_per_site = 8;
             p_intended_abort = 0.1;
           }))
    Protocol.all;
  Icdb_obs.Registry.histograms_named registry "icdb_phase_time"
  |> List.filter_map (fun (key, h) ->
         match
           ( Icdb_obs.Registry.label key "protocol",
             Icdb_obs.Registry.label key "phase" )
         with
         | Some protocol, Some phase ->
           Some (protocol, phase, Icdb_obs.Registry.hist_snapshot h)
         | _ -> None)

(* Per-protocol commit-overhead trajectory for BENCH.json: the fixed-spec lab
   unbatched and at window 3, so messages and stable writes per commit are
   tracked per PR next to the wall-clock kernels. *)
let overhead_snapshot () =
  List.map
    (fun protocol ->
      let run window =
        Overhead.run
          {
            Overhead.default with
            protocol;
            msg_batch_window = window;
            central_gc_window = window;
            group_commit_window = window;
          }
      in
      (protocol, run None, run (Some 3.0)))
    Protocol.all

(* --- Paxos Commit decision-log cost --------------------------------------

   Per-protocol fixed-spec lab with a single-coordinator decision log
   ([acceptors = 1]) and a 2F+1 acceptor group ([acceptors = 3]). Every
   column is virtual-time and fixed-seed, so like "sharding" this section
   is byte-stable: any drift against BASELINE.json is a behavior change,
   not noise. [forces] counts decision-record stable writes — central log
   plus acceptor logs — per commit, the write amplification replication
   pays for non-blocking recovery. *)

type paxos_row = {
  x_protocol : string;
  x_acceptors : int;
  x_msgs_per_commit : float;
  x_decision_forces_per_commit : float;
  x_committed : int;
}

let paxos_snapshot () =
  List.concat_map
    (fun protocol ->
      List.map
        (fun acceptors ->
          let r = Overhead.run { Overhead.default with protocol; acceptors } in
          let forces = r.Overhead.central_log_forces + r.Overhead.paxos_acceptor_forces in
          {
            x_protocol = Protocol.name protocol;
            x_acceptors = acceptors;
            x_msgs_per_commit = r.messages_per_committed;
            x_decision_forces_per_commit =
              (if r.committed > 0 then float_of_int forces /. float_of_int r.committed
               else 0.0);
            x_committed = r.committed;
          })
        [ 1; 3 ])
    Protocol.all

let print_paxos rows =
  print_endline "Paxos Commit decision-log cost (fixed specs, virtual time)";
  print_endline "----------------------------------------------------------";
  List.iter
    (fun r ->
      Printf.printf "%-10s acceptors=%d %8.2f msg/commit %6.2f decision forces/commit %5d committed\n"
        r.x_protocol r.x_acceptors r.x_msgs_per_commit r.x_decision_forces_per_commit
        r.x_committed)
    rows;
  print_newline ()

(* --- tracing overhead ----------------------------------------------------

   What does observability cost when it is on? One fixed 12k-transaction
   kernel (2k in smoke) run three ways: tracing disabled, the chaos
   campaign's flight-recorder ring (512 events, constant memory), and a
   sampled streaming sink (5% head sampling into a byte-counting writer).
   The flight-recorder column is the one with a budget: the campaign flies
   it on every run, so it must stay within a few percent of disabled. *)

type trace_row = {
  t_mode : string;
  t_events : int; (* events that reached the tracer (stored + overwritten) *)
  t_wall : float; (* best host seconds across interleaved rounds *)
  t_overhead_pct : float; (* vs the disabled run *)
}

let trace_overhead_config n_txns =
  {
    Runner.default with
    protocol = Protocol.Before;
    n_txns;
    concurrency = 16;
    accounts_per_site = 64;
    zipf_theta = 0.6;
  }

let trace_overhead_snapshot ~smoke =
  let n_txns = if smoke then 2_000 else 12_000 in
  let cfg = trace_overhead_config n_txns in
  let module Tracer = Icdb_obs.Tracer in
  (* The overhead under measurement is a few percent, smaller than the
     drift of this host's clock frequency over a multi-second benchmark.
     Measuring each mode in its own block would fold that drift into the
     comparison, so instead the three modes run interleaved — one round =
     one run of each — and each mode keeps its minimum across rounds. The
     kernels are deterministic, so the minimum is the least-noise estimate
     of the real cost. *)
  let rounds = 7 in
  let make_off () = None in
  let make_flight () =
    Some (Tracer.create ~enabled:true ~limit:512 ~clock:(fun () -> 0.0) ())
  in
  let last_sink = ref None in
  let make_stream () =
    let bytes = ref 0 in
    let sink = Icdb_obs.Sink.create ~write:(fun s -> bytes := !bytes + String.length s) in
    last_sink := Some sink;
    let tr = Tracer.create ~enabled:true ~clock:(fun () -> 0.0) () in
    Tracer.set_store tr false;
    Tracer.set_sink tr (Some (Icdb_obs.Sink.on_event sink));
    Tracer.set_sampler tr
      (Some (Icdb_obs.Sampling.kind_filter ~seed:cfg.Runner.seed ~rate:0.05));
    Some tr
  in
  let once make =
    let tracer = make () in
    let t0 = Sys.time () in
    ignore (Runner.run ?tracer cfg);
    (Sys.time () -. t0, tracer)
  in
  ignore (once make_off);
  ignore (once make_flight);
  ignore (once make_stream);
  let best = [| infinity; infinity; infinity |] in
  let flight_tr = ref None in
  for _ = 1 to rounds do
    let w, _ = once make_off in
    if w < best.(0) then best.(0) <- w;
    let w, tr = once make_flight in
    if w < best.(1) then best.(1) <- w;
    flight_tr := tr;
    let w, _ = once make_stream in
    if w < best.(2) then best.(2) <- w
  done;
  let off_wall = best.(0) and flight_wall = best.(1) and stream_wall = best.(2) in
  (* Event counts are deterministic run to run; read the last run's state. *)
  let stream_events =
    match !last_sink with Some s -> Icdb_obs.Sink.event_count s | None -> 0
  in
  let pct w = (if off_wall > 0.0 then (w -. off_wall) /. off_wall *. 100.0 else 0.0) in
  let flight_events =
    match !flight_tr with
    | Some tr -> Tracer.length tr + Tracer.dropped tr
    | None -> 0
  in
  [
    { t_mode = "off"; t_events = 0; t_wall = off_wall; t_overhead_pct = 0.0 };
    {
      t_mode = "flight-512";
      t_events = flight_events;
      t_wall = flight_wall;
      t_overhead_pct = pct flight_wall;
    };
    {
      t_mode = "stream-0.05";
      t_events = stream_events;
      t_wall = stream_wall;
      t_overhead_pct = pct stream_wall;
    };
  ]

let print_trace_overhead n_txns rows =
  Printf.printf "Tracing overhead (%d-txn kernel, best of 7 interleaved rounds)\n"
    n_txns;
  print_endline "------------------------------------------------------------";
  List.iter
    (fun r ->
      Printf.printf "%-12s %9d events %9.3f s %+7.1f%%\n" r.t_mode r.t_events r.t_wall
        r.t_overhead_pct)
    rows;
  print_newline ()

(* --- sharded-federation throughput ---------------------------------------

   The S2 grid (committed txns per 1000 virtual time units over shards x
   cross-shard fraction). Every column is a deterministic virtual-time
   measurement, so unlike the wall-clock sections this one is byte-stable:
   any drift against BASELINE.json is a behavior change, not noise. *)

let sharding_snapshot ~smoke = Sharding.run_cells ~smoke ()

let print_sharding rows =
  print_endline "Sharded federation (committed txns per 1000 virtual time units)";
  print_endline "----------------------------------------------------------------";
  List.iter
    (fun (r : Sharding.row) ->
      Printf.printf
        "%d shards cross %3.0f%% %5d committed %10.2f txn/1000tu %6.1f msg/commit %5d top forces\n"
        r.sh_shards (r.sh_cross *. 100.0) r.sh_committed r.sh_throughput
        r.sh_msgs_per_commit r.sh_top_forces)
    rows;
  print_newline ()

(* Machine-readable companion to the human table: kernel name -> ms/run plus
   the virtual-time phase-latency breakdown, so future changes have both a
   perf and a behavior trajectory to compare against. *)
let write_bench_json path rows phases overhead alloc trace sharding paxos =
  let esc = Icdb_obs.Export.json_escape in
  let oc = open_out path in
  output_string oc "{\n  \"kernels\": {\n";
  let last = List.length rows - 1 in
  List.iteri
    (fun i (name, ns) ->
      let value =
        if Float.is_nan ns then "null" else Printf.sprintf "%.6f" (ns /. 1e6)
      in
      Printf.fprintf oc "    \"%s\": %s%s\n" (esc name) value (if i < last then "," else ""))
    rows;
  output_string oc "  },\n  \"phase_time\": [\n";
  let last = List.length phases - 1 in
  List.iteri
    (fun i (protocol, phase, (h : Icdb_obs.Registry.hsnap)) ->
      Printf.fprintf oc
        "    {\"protocol\":\"%s\",\"phase\":\"%s\",\"count\":%d,\"mean\":%.3f,\"p50\":%.3f,\"p95\":%.3f,\"max\":%.3f}%s\n"
        (esc protocol) (esc phase) h.h_count h.h_mean h.h_p50 h.h_p95 h.h_max
        (if i < last then "," else ""))
    phases;
  output_string oc "  ],\n  \"overhead\": [\n";
  let last = List.length overhead - 1 in
  List.iteri
    (fun i (protocol, (base : Overhead.result), (batched : Overhead.result)) ->
      Printf.fprintf oc
        "    {\"protocol\":\"%s\",\"msgs_per_commit\":%.3f,\"forces_per_commit\":%.3f,\"msgs_per_commit_batched\":%.3f,\"forces_per_commit_batched\":%.3f,\"batch_occupancy\":%.3f}%s\n"
        (esc (Protocol.name protocol))
        base.messages_per_committed base.log_forces_per_commit
        batched.messages_per_committed batched.log_forces_per_commit
        batched.batch_occupancy_mean
        (if i < last then "," else ""))
    overhead;
  output_string oc "  ],\n  \"alloc\": [\n";
  let last = List.length alloc - 1 in
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"kernel\":\"%s\",\"minor_words_per_txn\":%.1f,\"major_collections_per_run\":%.2f}%s\n"
        (esc r.a_name) r.a_minor_words_per_txn r.a_major_per_run
        (if i < last then "," else ""))
    alloc;
  output_string oc "  ],\n  \"trace_overhead\": [\n";
  let last = List.length trace - 1 in
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"mode\":\"%s\",\"events\":%d,\"wall_s\":%.4f,\"overhead_pct\":%.2f}%s\n"
        (esc r.t_mode) r.t_events r.t_wall r.t_overhead_pct
        (if i < last then "," else ""))
    trace;
  output_string oc "  ],\n  \"sharding\": [\n";
  let last = List.length sharding - 1 in
  List.iteri
    (fun i (r : Sharding.row) ->
      Printf.fprintf oc
        "    {\"shards\":%d,\"cross_pct\":%.0f,\"committed\":%d,\"throughput\":%.2f,\"msgs_per_commit\":%.2f,\"top_forces\":%d,\"shard_forces\":%d}%s\n"
        r.sh_shards (r.sh_cross *. 100.0) r.sh_committed r.sh_throughput
        r.sh_msgs_per_commit r.sh_top_forces r.sh_shard_forces
        (if i < last then "," else ""))
    sharding;
  output_string oc "  ],\n  \"paxos\": [\n";
  let last = List.length paxos - 1 in
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"protocol\":\"%s\",\"acceptors\":%d,\"msgs_per_commit\":%.3f,\"decision_forces_per_commit\":%.3f,\"committed\":%d}%s\n"
        (esc r.x_protocol) r.x_acceptors r.x_msgs_per_commit
        r.x_decision_forces_per_commit r.x_committed
        (if i < last then "," else ""))
    paxos;
  output_string oc "  ]\n}\n";
  close_out oc

(* Sweep parallelism: `-j N` on the command line, ICDB_JOBS in the
   environment as the fallback. *)
let jobs () =
  let parse s = match int_of_string_opt s with Some n when n >= 1 -> Some n | _ -> None in
  let rec from_argv i =
    if i >= Array.length Sys.argv then None
    else if Sys.argv.(i) = "-j" && i + 1 < Array.length Sys.argv then
      parse Sys.argv.(i + 1)
    else from_argv (i + 1)
  in
  match from_argv 1 with
  | Some n -> n
  | None -> (
    match Option.bind (Sys.getenv_opt "ICDB_JOBS") parse with Some n -> n | None -> 1)

let smoke () = Array.exists (fun a -> a = "--smoke") Sys.argv

(* `--smoke` (CI): reduced kernel set, BENCH.json, no experiment sweep. *)
let () =
  let smoke = smoke () in
  let active = if smoke then smoke_kernels else kernels in
  let rows = rows_of (benchmark active) in
  print_benchmark rows;
  let alloc =
    alloc_snapshot
      (List.filter (fun (n, _, _) -> List.mem_assoc n active) alloc_kernels)
  in
  print_alloc alloc;
  let trace = trace_overhead_snapshot ~smoke in
  print_trace_overhead (if smoke then 2_000 else 12_000) trace;
  let sharding = sharding_snapshot ~smoke in
  print_sharding sharding;
  let paxos = paxos_snapshot () in
  print_paxos paxos;
  write_bench_json "BENCH.json" rows (phase_snapshot ()) (overhead_snapshot ()) alloc
    trace sharding paxos;
  if not smoke then print_string (Experiments.run_all ~jobs:(jobs ()) ())
