(* Tests for Icdb_obs: the metrics registry, the span tracer, the
   exporters (golden outputs), and the end-to-end properties of a traced
   workload — span well-formedness and cross-domain determinism. *)

module Registry = Icdb_obs.Registry
module Tracer = Icdb_obs.Tracer
module Span = Icdb_obs.Span
module Export = Icdb_obs.Export
module Runner = Icdb_workload.Runner
module Protocol = Icdb_workload.Protocol

(* --- registry ------------------------------------------------------------- *)

let test_counter_get_or_create () =
  let r = Registry.create () in
  let a = Registry.counter r "icdb_a_total" in
  let a' = Registry.counter r "icdb_a_total" in
  Registry.inc a;
  Registry.inc a' ~by:4;
  Alcotest.(check int) "same cell" 5 (Registry.count a);
  (* Label order is irrelevant: keys are (name, sorted labels). *)
  let l1 = Registry.counter r ~labels:[ ("x", "1"); ("y", "2") ] "icdb_b_total" in
  let l2 = Registry.counter r ~labels:[ ("y", "2"); ("x", "1") ] "icdb_b_total" in
  Registry.inc l1;
  Alcotest.(check int) "label order irrelevant" 1 (Registry.count l2);
  (* Distinct label values are distinct cells. *)
  let l3 = Registry.counter r ~labels:[ ("x", "other") ] "icdb_b_total" in
  Alcotest.(check int) "distinct labels distinct" 0 (Registry.count l3)

let test_histogram_stats () =
  let r = Registry.create () in
  let h = Registry.histogram r "icdb_h" in
  List.iter (fun i -> Registry.observe h (float_of_int i)) (List.init 100 (fun i -> i + 1));
  let s = Registry.hist_snapshot h in
  Alcotest.(check int) "count" 100 s.h_count;
  Alcotest.(check (float 1e-9)) "sum" 5050.0 s.h_sum;
  Alcotest.(check (float 1e-9)) "mean" 50.5 s.h_mean;
  Alcotest.(check (float 1e-9)) "max" 100.0 s.h_max;
  Alcotest.(check bool) "p50 sane" true (s.h_p50 >= 50.0 && s.h_p50 <= 51.0);
  Alcotest.(check bool) "p95 sane" true (s.h_p95 >= 95.0 && s.h_p95 <= 96.0);
  let empty = Registry.hist_snapshot (Registry.histogram r "icdb_empty") in
  Alcotest.(check int) "empty count" 0 empty.h_count;
  Alcotest.(check (float 0.0)) "empty mean" 0.0 empty.h_mean

let test_histogram_bucketing () =
  (* Log-bucketed backend: count/sum/mean/max exact, quantiles within one
     sub-bucket (upper bound, <= 1/32 relative error) across magnitudes. *)
  let r = Registry.create () in
  let h = Registry.histogram r "icdb_wide" in
  List.iter
    (fun i -> Registry.observe h (float_of_int i))
    (List.init 10_000 (fun i -> i + 1));
  let s = Registry.hist_snapshot h in
  Alcotest.(check int) "count" 10_000 s.h_count;
  Alcotest.(check (float 1e-6)) "sum" 50_005_000.0 s.h_sum;
  Alcotest.(check (float 1e-9)) "max exact" 10_000.0 s.h_max;
  Alcotest.(check bool) "p50 within a bucket" true
    (s.h_p50 >= 5_000.0 && s.h_p50 <= 5_000.0 *. 1.04);
  Alcotest.(check bool) "p95 within a bucket" true
    (s.h_p95 >= 9_500.0 && s.h_p95 <= 9_500.0 *. 1.04);
  (* Tiny magnitudes land in the negative-exponent octaves, same bound. *)
  let tiny = Registry.histogram r "icdb_tiny" in
  List.iter
    (fun i -> Registry.observe tiny (float_of_int i *. 1e-6))
    (List.init 1_000 (fun i -> i + 1));
  let st = Registry.hist_snapshot tiny in
  Alcotest.(check bool) "small p50 within a bucket" true
    (st.h_p50 >= 5.0e-4 && st.h_p50 <= 5.0e-4 *. 1.04);
  (* Non-positive observations count but sit below every bucket. *)
  let np = Registry.histogram r "icdb_nonpos" in
  Registry.observe np (-3.0);
  Registry.observe np 0.0;
  Registry.observe np 8.0;
  let sn = Registry.hist_snapshot np in
  Alcotest.(check int) "nonpos counted" 3 sn.h_count;
  Alcotest.(check (float 1e-9)) "min is the negative" (-3.0)
    (Registry.hist_percentile np 1.0);
  Alcotest.(check (float 1e-9)) "top is the positive" 8.0 sn.h_max;
  Registry.clear_histogram np;
  Alcotest.(check int) "clear resets" 0 (Registry.hist_count np)

let test_snapshot_sorted () =
  let r = Registry.create () in
  ignore (Registry.counter r "zzz_total");
  ignore (Registry.counter r "aaa_total");
  ignore (Registry.counter r ~labels:[ ("k", "b") ] "mmm_total");
  ignore (Registry.counter r ~labels:[ ("k", "a") ] "mmm_total");
  let names =
    List.map
      (fun ((k : Registry.key), _) -> (k.name, k.labels))
      (Registry.snapshot r).Registry.counters
  in
  Alcotest.(check bool) "sorted" true (names = List.sort compare names)

(* --- tracer --------------------------------------------------------------- *)

let test_disabled_tracer () =
  let t = Tracer.create ~clock:(fun () -> 0.0) () in
  let id = Tracer.begin_span t ~actor:"central" (Span.Mark "x") in
  Alcotest.(check int) "no-op handle" (-1) id;
  Tracer.end_span t id;
  Tracer.instant t ~actor:"central" (Span.Mark "y");
  Tracer.complete t ~actor:"central" ~start:0.0 (Span.Mark "z");
  Alcotest.(check int) "nothing recorded" 0 (Tracer.length t)

let test_ring_wraparound () =
  let now = ref 0.0 in
  let t = Tracer.create ~enabled:true ~limit:8 ~clock:(fun () -> !now) () in
  Alcotest.(check (option int)) "capacity" (Some 8) (Tracer.capacity t);
  for i = 1 to 20 do
    now := float_of_int i;
    Tracer.instant t ~actor:"central" (Span.Mark (Printf.sprintf "m%d" i))
  done;
  Alcotest.(check int) "ring full" 8 (Tracer.length t);
  Alcotest.(check int) "overwrites counted" 12 (Tracer.dropped t);
  (* The ring holds exactly the newest eight, oldest first. *)
  let names = ref [] in
  Tracer.iter t (fun ev ->
      match ev with
      | Tracer.Instant { kind = Span.Mark m; _ } -> names := m :: !names
      | _ -> ());
  Alcotest.(check (list string)) "newest events survive"
    (List.init 8 (fun i -> Printf.sprintf "m%d" (20 - i)))
    !names;
  Tracer.clear t;
  Alcotest.(check int) "clear empties" 0 (Tracer.length t);
  Alcotest.(check int) "clear resets drop count" 0 (Tracer.dropped t)

let test_sampler_gates_spans () =
  let t = Tracer.create ~enabled:true ~clock:(fun () -> 0.0) () in
  Tracer.set_sampler t (Some (function Span.Mark _ -> false | _ -> true));
  let id = Tracer.begin_span t ~actor:"a" (Span.Mark "dropped") in
  Alcotest.(check int) "sampled-out begin is a no-op handle" (-1) id;
  Tracer.end_span t id;
  Tracer.instant t ~actor:"a" (Span.Mark "dropped too");
  Alcotest.(check int) "nothing stored" 0 (Tracer.length t);
  let kept = Tracer.begin_span t ~actor:"a" (Span.Txn { gid = 1; protocol = "2pc" }) in
  Alcotest.(check int) "kept span ids start at 0" 0 kept;
  Tracer.end_span t kept;
  Alcotest.(check int) "kept span stored" 2 (Tracer.length t)

(* A small hand-built trace shared by the exporter golden tests. *)
let golden_tracer () =
  let now = ref 0.0 in
  let t = Tracer.create ~enabled:true ~clock:(fun () -> !now) () in
  let root = Tracer.begin_span t ~actor:"central" (Span.Txn { gid = 1; protocol = "2pc" }) in
  now := 1.0;
  let ph = Tracer.begin_span t ~parent:root ~actor:"central" (Span.Phase { gid = 1; phase = Span.Vote }) in
  Tracer.instant t ~actor:"s0" (Span.Message { label = "prepare"; direction = Span.Send });
  now := 2.0;
  Tracer.end_span t ph;
  Tracer.complete t ~actor:"s0" ~start:0.5 (Span.Lock_hold { table = "s0"; obj = "x" });
  Tracer.instant t ~actor:"central" (Span.Decision { gid = 1; commit = true });
  now := 3.0;
  Tracer.end_span t root;
  t

let test_golden_chrome_trace () =
  let expected =
    "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\
     {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"icdb\"}},\n\
     {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"central\"}},\n\
     {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"s0\"}},\n\
     {\"cat\":\"txn\",\"name\":\"g1 2pc\",\"ph\":\"b\",\"id\":0,\"pid\":1,\"tid\":0,\"ts\":0.000},\n\
     {\"cat\":\"phase\",\"name\":\"g1 vote\",\"ph\":\"b\",\"id\":1,\"pid\":1,\"tid\":0,\"ts\":1.000},\n\
     {\"cat\":\"msg\",\"name\":\"send prepare\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":1,\"ts\":1.000},\n\
     {\"cat\":\"phase\",\"name\":\"g1 vote\",\"ph\":\"e\",\"id\":1,\"pid\":1,\"tid\":0,\"ts\":2.000},\n\
     {\"cat\":\"lock\",\"name\":\"lock-hold x\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0.500,\"dur\":1.500},\n\
     {\"cat\":\"decision\",\"name\":\"g1 decision:commit\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":0,\"ts\":2.000},\n\
     {\"cat\":\"txn\",\"name\":\"g1 2pc\",\"ph\":\"e\",\"id\":0,\"pid\":1,\"tid\":0,\"ts\":3.000}\n\
     ]}\n"
  in
  Alcotest.(check string) "chrome trace" expected (Export.chrome_trace (golden_tracer ()))

let golden_registry () =
  let r = Registry.create () in
  let txns = Registry.counter r "icdb_txns_total" in
  Registry.inc txns;
  Registry.inc txns;
  let msgs = Registry.counter r ~labels:[ ("site", "s0") ] "icdb_messages_total" in
  Registry.inc msgs ~by:3;
  let h =
    Registry.histogram r ~labels:[ ("phase", "vote"); ("protocol", "2pc") ] "icdb_phase_time"
  in
  Registry.observe h 2.5;
  r

let test_golden_metrics_json () =
  let expected =
    "{\n\
    \  \"counters\": [\n\
    \    {\"name\":\"icdb_messages_total\",\"labels\":{\"site\":\"s0\"},\"value\":3},\n\
    \    {\"name\":\"icdb_txns_total\",\"labels\":{},\"value\":2}\n\
    \  ],\n\
    \  \"histograms\": [\n\
    \    {\"name\":\"icdb_phase_time\",\"labels\":{\"phase\":\"vote\",\"protocol\":\"2pc\"},\"count\":1,\"sum\":2.500,\"mean\":2.500,\"p50\":2.500,\"p95\":2.500,\"max\":2.500}\n\
    \  ]\n\
     }\n"
  in
  Alcotest.(check string) "metrics json" expected (Export.metrics_json (golden_registry ()))

let test_golden_prometheus () =
  let expected =
    "# TYPE icdb_messages_total counter\n\
     icdb_messages_total{site=\"s0\"} 3\n\
     # TYPE icdb_txns_total counter\n\
     icdb_txns_total 2\n\
     # TYPE icdb_phase_time summary\n\
     icdb_phase_time{phase=\"vote\",protocol=\"2pc\",quantile=\"0.5\"} 2.500\n\
     icdb_phase_time{phase=\"vote\",protocol=\"2pc\",quantile=\"0.95\"} 2.500\n\
     icdb_phase_time{phase=\"vote\",protocol=\"2pc\",quantile=\"1\"} 2.500\n\
     icdb_phase_time_sum{phase=\"vote\",protocol=\"2pc\"} 2.500\n\
     icdb_phase_time_count{phase=\"vote\",protocol=\"2pc\"} 1\n"
  in
  Alcotest.(check string) "prometheus" expected (Export.prometheus (golden_registry ()))

let test_json_escape () =
  Alcotest.(check string) "escape" "a\\\"b\\\\c\\nd" (Icdb_obs.Sink.json_escape "a\"b\\c\nd")

(* --- streaming sink ------------------------------------------------------- *)

(* Replay a tracer's stored events through a sink into a buffer. *)
let stream_of_tracer t =
  let b = Buffer.create 256 in
  let sink = Icdb_obs.Sink.create ~write:(Buffer.add_string b) in
  Tracer.iter t (Icdb_obs.Sink.on_event sink);
  Icdb_obs.Sink.close sink;
  (Buffer.contents b, sink)

let test_streaming_sink_golden () =
  (* Same events as the batch golden; thread_name metadata is interleaved at
     first actor sight instead of hoisted (single-pass, still spec-valid). *)
  let expected =
    "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\
     {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"icdb\"}},\n\
     {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"central\"}},\n\
     {\"cat\":\"txn\",\"name\":\"g1 2pc\",\"ph\":\"b\",\"id\":0,\"pid\":1,\"tid\":0,\"ts\":0.000},\n\
     {\"cat\":\"phase\",\"name\":\"g1 vote\",\"ph\":\"b\",\"id\":1,\"pid\":1,\"tid\":0,\"ts\":1.000},\n\
     {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"s0\"}},\n\
     {\"cat\":\"msg\",\"name\":\"send prepare\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":1,\"ts\":1.000},\n\
     {\"cat\":\"phase\",\"name\":\"g1 vote\",\"ph\":\"e\",\"id\":1,\"pid\":1,\"tid\":0,\"ts\":2.000},\n\
     {\"cat\":\"lock\",\"name\":\"lock-hold x\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0.500,\"dur\":1.500},\n\
     {\"cat\":\"decision\",\"name\":\"g1 decision:commit\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":0,\"ts\":2.000},\n\
     {\"cat\":\"txn\",\"name\":\"g1 2pc\",\"ph\":\"e\",\"id\":0,\"pid\":1,\"tid\":0,\"ts\":3.000}\n\
     ]}\n"
  in
  let out, sink = stream_of_tracer (golden_tracer ()) in
  Alcotest.(check string) "streamed trace" expected out;
  Alcotest.(check int) "event count" 7 (Icdb_obs.Sink.event_count sink);
  Alcotest.(check int) "byte count" (String.length out)
    (Icdb_obs.Sink.byte_count sink)

(* A trace whose transaction span never ends (crashed coordinator). *)
let truncated_tracer () =
  let now = ref 0.0 in
  let t = Tracer.create ~enabled:true ~clock:(fun () -> !now) () in
  let root = Tracer.begin_span t ~actor:"central" (Span.Txn { gid = 9; protocol = "2pc" }) in
  now := 1.0;
  let ph =
    Tracer.begin_span t ~parent:root ~actor:"central"
      (Span.Phase { gid = 9; phase = Span.Vote })
  in
  now := 2.5;
  Tracer.end_span t ph;
  (* root never ends *)
  t

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_crash_truncated_spans () =
  let t = truncated_tracer () in
  let chrome = Export.chrome_trace t in
  Alcotest.(check bool) "batch export marks truncation" true
    (contains chrome "crash-truncated");
  (* The synthetic end closes the span at the last recorded time. *)
  Alcotest.(check bool) "synthetic end at last time" true
    (contains chrome
       "{\"cat\":\"txn\",\"name\":\"g9 2pc\",\"ph\":\"e\",\"id\":0,\"pid\":1,\"tid\":0,\"ts\":2.500}");
  let tree = Export.span_tree t in
  Alcotest.(check bool) "span tree marks truncation" true
    (contains tree "(crash-truncated)");
  let streamed, _ = stream_of_tracer t in
  Alcotest.(check bool) "sink closes dangling spans" true
    (contains streamed "crash-truncated");
  Alcotest.(check bool) "sink output well-terminated" true
    (let n = String.length streamed in
     n >= 4 && String.sub streamed (n - 4) 4 = "\n]}\n")

let test_flight_dump_format () =
  let t = truncated_tracer () in
  let dump = Export.flight_dump t in
  Alcotest.(check bool) "header" true (contains dump "flight recorder: 3 events retained");
  Alcotest.(check bool) "txn event present" true (contains dump "g9 2pc");
  Alcotest.(check bool) "dangling span reported" true (contains dump "1 span(s) still open")

(* --- sampling ------------------------------------------------------------- *)

let test_sampling_deterministic_and_bounded () =
  let module Sampling = Icdb_obs.Sampling in
  (* Pure in (seed, rate, gid): the same triple always agrees. *)
  for gid = 0 to 99 do
    Alcotest.(check bool) "keep is a pure function"
      (Sampling.keep ~seed:42L ~rate:0.3 gid)
      (Sampling.keep ~seed:42L ~rate:0.3 gid)
  done;
  Alcotest.(check bool) "rate 1 keeps everything" true
    (List.for_all (Sampling.keep ~seed:7L ~rate:1.0) (List.init 100 Fun.id));
  Alcotest.(check bool) "rate 0 keeps nothing" true
    (List.for_all
       (fun g -> not (Sampling.keep ~seed:7L ~rate:0.0 g))
       (List.init 100 Fun.id));
  let kept = ref 0 in
  for gid = 0 to 9_999 do
    if Icdb_obs.Sampling.keep ~seed:42L ~rate:0.25 gid then incr kept
  done;
  let frac = float_of_int !kept /. 10_000.0 in
  Alcotest.(check bool) "kept fraction near the rate" true
    (frac > 0.22 && frac < 0.28);
  (* The kind filter keeps whole transactions: a kept gid keeps its txn,
     phase, branch and decision spans; outages and marks always pass;
     per-message spam never does at rate < 1. *)
  let f = Sampling.kind_filter ~seed:42L ~rate:0.25 in
  let some_kept = ref false and some_dropped = ref false in
  for gid = 0 to 99 do
    let txn = f (Span.Txn { gid; protocol = "2pc" }) in
    Alcotest.(check bool) "phase follows txn" txn
      (f (Span.Phase { gid; phase = Span.Vote }));
    Alcotest.(check bool) "decision follows txn" txn
      (f (Span.Decision { gid; commit = true }));
    if txn then some_kept := true else some_dropped := true
  done;
  Alcotest.(check bool) "some transactions kept" true !some_kept;
  Alcotest.(check bool) "some transactions dropped" true !some_dropped;
  Alcotest.(check bool) "outages always kept" true (f (Span.Outage { site = "s0" }));
  Alcotest.(check bool) "marks always kept" true (f (Span.Mark "note"));
  Alcotest.(check bool) "messages dropped when sampling" false
    (f (Span.Message { label = "prepare"; direction = Span.Send }))

(* --- end-to-end: a traced chaos workload ---------------------------------- *)

let traced_run ?(seed = 7L) () =
  let registry = Registry.create () in
  let tracer = Tracer.create ~enabled:true ~clock:(fun () -> 0.0) () in
  let report =
    Runner.run ~registry ~tracer
      {
        Runner.default with
        protocol = Protocol.Before;
        seed;
        n_txns = 40;
        concurrency = 6;
        accounts_per_site = 8;
        p_intended_abort = 0.1;
        p_spontaneous = 0.1;
        crash_rate = 2.0;
        crash_duration = 20.0;
      }
  in
  (report, registry, tracer)

let test_span_well_formedness () =
  let _, _, tracer = traced_run () in
  Alcotest.(check bool) "trace non-empty" true (Tracer.length tracer > 0);
  (* Every End matches an earlier Begin, at most once. *)
  let open_ids = Hashtbl.create 64 in
  let last = ref neg_infinity in
  Tracer.iter tracer (fun ev ->
      let record_time =
        match ev with
        | Tracer.Begin { id; time; _ } ->
          Alcotest.(check bool) "fresh id" false (Hashtbl.mem open_ids id);
          Hashtbl.replace open_ids id ();
          time
        | Tracer.End { id; time } ->
          Alcotest.(check bool) "end has open begin" true (Hashtbl.mem open_ids id);
          Hashtbl.remove open_ids id;
          time
        | Tracer.Complete { start; stop; _ } ->
          Alcotest.(check bool) "complete ordered" true (start <= stop);
          stop
        | Tracer.Instant { time; _ } -> time
      in
      (* The recorder only ever reads the engine clock, so record order is
         time order. *)
      Alcotest.(check bool) "monotone record times" true (record_time >= !last);
      last := record_time);
  Alcotest.(check int) "all spans closed" 0 (Hashtbl.length open_ids);
  (* Children nest within their parents. *)
  let spans = Tracer.spans tracer in
  let by_id = Hashtbl.create 64 in
  List.iter
    (fun (s : Tracer.span) -> if s.s_id >= 0 then Hashtbl.replace by_id s.s_id s)
    spans;
  List.iter
    (fun (s : Tracer.span) ->
      if s.s_id >= 0 && s.s_parent >= 0 then begin
        match Hashtbl.find_opt by_id s.s_parent with
        | None -> Alcotest.fail "child without recorded parent"
        | Some p ->
          Alcotest.(check bool) "child starts in parent" true (s.s_start >= p.s_start);
          (match (s.s_stop, p.s_stop) with
          | Some cs, Some ps ->
            Alcotest.(check bool) "child ends in parent" true (cs <= ps)
          | _ -> ())
      end)
    spans

let test_phase_breakdown_reported () =
  let report, _, _ = traced_run () in
  Alcotest.(check bool) "has execute phase" true
    (List.mem_assoc "execute" report.Runner.phase_breakdown);
  let execute = List.assoc "execute" report.Runner.phase_breakdown in
  Alcotest.(check int) "one execute span per txn" report.Runner.started
    execute.Registry.h_count

let test_deterministic_same_seed () =
  let _, reg1, tr1 = traced_run () in
  let _, reg2, tr2 = traced_run () in
  Alcotest.(check string) "identical trace" (Export.chrome_trace tr1)
    (Export.chrome_trace tr2);
  Alcotest.(check string) "identical metrics" (Export.metrics_json reg1)
    (Export.metrics_json reg2)

let test_deterministic_across_domains () =
  (* The same two seeds, run sequentially and on two parallel domains: every
     export is byte-identical. *)
  let export seed =
    let _, reg, tr = traced_run ~seed () in
    (Export.chrome_trace tr, Export.metrics_json reg)
  in
  let sequential = List.map export [ 7L; 8L ] in
  let parallel =
    let d = Domain.spawn (fun () -> export 8L) in
    let first = export 7L in
    [ first; Domain.join d ]
  in
  List.iter2
    (fun (t1, m1) (t2, m2) ->
      Alcotest.(check string) "trace identical across domains" t1 t2;
      Alcotest.(check string) "metrics identical across domains" m1 m2)
    sequential parallel

let ring_run ?(seed = 7L) () =
  (* The traced chaos workload flown with a flight-recorder ring: far more
     events than capacity, so the ring wraps many times. *)
  let tracer = Tracer.create ~enabled:true ~limit:64 ~clock:(fun () -> 0.0) () in
  let _ =
    Runner.run ~tracer
      {
        Runner.default with
        protocol = Protocol.Before;
        seed;
        n_txns = 40;
        concurrency = 6;
        accounts_per_site = 8;
        p_intended_abort = 0.1;
        p_spontaneous = 0.1;
        crash_rate = 2.0;
        crash_duration = 20.0;
      }
  in
  tracer

let test_ring_deterministic_dump () =
  let t1 = ring_run () and t2 = ring_run () in
  Alcotest.(check bool) "the ring wrapped" true (Tracer.dropped t1 > 0);
  Alcotest.(check int) "ring at capacity" 64 (Tracer.length t1);
  Alcotest.(check string) "same seed, byte-identical flight dump"
    (Export.flight_dump t1) (Export.flight_dump t2);
  Alcotest.(check int) "same drop count" (Tracer.dropped t1) (Tracer.dropped t2)

(* The recording budget, counted in minor words instead of wall time so
   that it is deterministic: one fixed run with no tracer, then with the
   512-event ring every chaos run flies and with the unbounded store
   [--trace-out] and [icdb trace] use, and the extra allocation per
   recorded event. Message instants and lock-interval completes are most
   of the stream; recorded through the generic [instant]/[complete] path
   each would allocate its [Span.kind] record. Measured over 10,476
   events: 0.457 words per event for the ring, 0.461 unbounded (its
   columns grow in the major heap). The ring once read 0.432 because the
   untraced baseline's disabled tracer then allocated a 256-slot array
   (0.024 per event here); its recording cost did not change. The
   budget, 0.54, is that 0.432 plus a 25% margin; with
   [instant_message] on the generic path the ring measured 1.831, with
   [complete_lock] on it 1.875, with the lock interval's start time
   computed (and boxed) by the caller 1.00, and an unbounded store of
   boxed events 7.60. *)
let test_flight_ring_budget () =
  let cfg =
    {
      Runner.default with
      protocol = Protocol.Before;
      n_txns = 300;
      concurrency = 16;
      accounts_per_site = 64;
      zipf_theta = 0.6;
    }
  in
  let words tracer =
    let w0 = Gc.minor_words () in
    ignore (Runner.run ?tracer cfg);
    Gc.minor_words () -. w0
  in
  (* A first run takes any one-time initialisation out of the count. *)
  ignore (words None);
  let off = words None in
  let check store tracer =
    let on = words (Some tracer) in
    let events = Tracer.length tracer + Tracer.dropped tracer in
    let per_event = (on -. off) /. float_of_int events in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.3f minor words per recorded event (%d events), budget 0.54"
         store per_event events)
      true (per_event <= 0.54)
  in
  let ring = Tracer.create ~enabled:true ~limit:512 ~clock:(fun () -> 0.0) () in
  check "512-event ring" ring;
  Alcotest.(check bool) "the ring wrapped" true (Tracer.dropped ring > 0);
  check "unbounded" (Tracer.create ~enabled:true ~clock:(fun () -> 0.0) ())

let sampled_stream seed =
  let b = Buffer.create 4096 in
  let sink = Icdb_obs.Sink.create ~write:(Buffer.add_string b) in
  let tracer = Tracer.create ~enabled:true ~clock:(fun () -> 0.0) () in
  Tracer.set_store tracer false;
  Tracer.set_sink tracer (Some (Icdb_obs.Sink.on_event sink));
  Tracer.set_sampler tracer (Some (Icdb_obs.Sampling.kind_filter ~seed ~rate:0.3));
  let _ =
    Runner.run ~tracer
      { Runner.default with protocol = Protocol.Two_phase; seed; n_txns = 30 }
  in
  Icdb_obs.Sink.close sink;
  Buffer.contents b

let test_sampled_stream_across_domains () =
  (* Head sampling keys on (seed, gid) only, so the streamed trace is
     byte-identical run to run and across parallel domains. *)
  let sequential = List.map sampled_stream [ 7L; 8L ] in
  let parallel =
    let d = Domain.spawn (fun () -> sampled_stream 8L) in
    let first = sampled_stream 7L in
    [ first; Domain.join d ]
  in
  List.iter2
    (fun s p -> Alcotest.(check string) "sampled stream identical across domains" s p)
    sequential parallel;
  (* And sampling genuinely thinned the stream. *)
  let full = sampled_stream 7L in
  Alcotest.(check bool) "non-trivial output" true (String.length full > 200)

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counter get-or-create + labels" `Quick
            test_counter_get_or_create;
          Alcotest.test_case "histogram statistics" `Quick test_histogram_stats;
          Alcotest.test_case "histogram log bucketing" `Quick test_histogram_bucketing;
          Alcotest.test_case "snapshot sorted" `Quick test_snapshot_sorted;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "disabled tracer records nothing" `Quick test_disabled_tracer;
          Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "sampler gates spans" `Quick test_sampler_gates_spans;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace golden" `Quick test_golden_chrome_trace;
          Alcotest.test_case "metrics json golden" `Quick test_golden_metrics_json;
          Alcotest.test_case "prometheus golden" `Quick test_golden_prometheus;
          Alcotest.test_case "json escaping" `Quick test_json_escape;
          Alcotest.test_case "streaming sink golden" `Quick test_streaming_sink_golden;
          Alcotest.test_case "crash-truncated spans" `Quick test_crash_truncated_spans;
          Alcotest.test_case "flight dump format" `Quick test_flight_dump_format;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "deterministic and bounded" `Quick
            test_sampling_deterministic_and_bounded;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "span well-formedness" `Quick test_span_well_formedness;
          Alcotest.test_case "phase breakdown in report" `Quick
            test_phase_breakdown_reported;
          Alcotest.test_case "same seed, same trace" `Quick test_deterministic_same_seed;
          Alcotest.test_case "identical across domains" `Quick
            test_deterministic_across_domains;
          Alcotest.test_case "ring dump deterministic" `Quick test_ring_deterministic_dump;
          Alcotest.test_case "flight ring budget" `Quick test_flight_ring_budget;
          Alcotest.test_case "sampled stream across domains" `Quick
            test_sampled_stream_across_domains;
        ] );
    ]
