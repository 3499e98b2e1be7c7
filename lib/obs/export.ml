(* Exporters: Chrome trace-event JSON (chrome://tracing, Perfetto) through
   {!Sink}, a JSON metrics snapshot, a Prometheus-style text dump, a
   human-readable span tree and the flight-recorder dump. All output is
   deterministic: times are fixed-precision, listings are sorted, and no
   wall-clock state leaks in. *)

(* --- Chrome trace-event JSON --------------------------------------------- *)

(* The streaming writer fed the stored trace. Declaring every actor
   first, in order of appearance, makes the thread_name records lead the
   file. *)
let chrome_trace tracer =
  let buf = Buffer.create 4096 in
  let sink = Sink.create ~write:(Buffer.add_string buf) in
  Tracer.iter tracer (function
    | Tracer.Begin { actor; _ } | Tracer.Complete { actor; _ } | Tracer.Instant { actor; _ } ->
      Sink.declare_actor sink actor
    | Tracer.End _ -> ());
  Tracer.iter tracer (Sink.on_event sink);
  Sink.close sink;
  Buffer.contents buf

(* --- JSON metrics snapshot ------------------------------------------------ *)

let labels_json labels =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (Sink.json_escape k) (Sink.json_escape v))
         labels)
  ^ "}"

let metrics_json registry =
  let snap = Registry.snapshot registry in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"counters\": [\n";
  let n = List.length snap.Registry.counters in
  List.iteri
    (fun i ((k : Registry.key), v) ->
      Buffer.add_string buf
        (Printf.sprintf "    {\"name\":\"%s\",\"labels\":%s,\"value\":%d}%s\n"
           (Sink.json_escape k.name) (labels_json k.labels) v
           (if i < n - 1 then "," else "")))
    snap.Registry.counters;
  Buffer.add_string buf "  ],\n  \"histograms\": [\n";
  let n = List.length snap.Registry.histograms in
  List.iteri
    (fun i ((k : Registry.key), (h : Registry.hsnap)) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\":\"%s\",\"labels\":%s,\"count\":%d,\"sum\":%s,\"mean\":%s,\"p50\":%s,\"p95\":%s,\"max\":%s}%s\n"
           (Sink.json_escape k.name) (labels_json k.labels) h.h_count (Sink.fnum h.h_sum)
           (Sink.fnum h.h_mean)
           (Sink.fnum h.h_p50) (Sink.fnum h.h_p95) (Sink.fnum h.h_max)
           (if i < n - 1 then "," else "")))
    snap.Registry.histograms;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

(* --- Prometheus text ------------------------------------------------------ *)

let prom_labels labels =
  if labels = [] then ""
  else
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (Sink.json_escape v)) labels)
    ^ "}"

let prometheus registry =
  let snap = Registry.snapshot registry in
  let buf = Buffer.create 4096 in
  let last_type = ref "" in
  let type_line name kind =
    if !last_type <> name then begin
      last_type := name;
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
    end
  in
  List.iter
    (fun ((k : Registry.key), v) ->
      type_line k.name "counter";
      Buffer.add_string buf (Printf.sprintf "%s%s %d\n" k.name (prom_labels k.labels) v))
    snap.Registry.counters;
  List.iter
    (fun ((k : Registry.key), (h : Registry.hsnap)) ->
      type_line k.name "summary";
      let q quantile value =
        Buffer.add_string buf
          (Printf.sprintf "%s%s %s\n" k.name
             (prom_labels (k.labels @ [ ("quantile", quantile) ]))
             (Sink.fnum value))
      in
      q "0.5" h.h_p50;
      q "0.95" h.h_p95;
      q "1" h.h_max;
      Buffer.add_string buf
        (Printf.sprintf "%s_sum%s %s\n" k.name (prom_labels k.labels) (Sink.fnum h.h_sum));
      Buffer.add_string buf
        (Printf.sprintf "%s_count%s %d\n" k.name (prom_labels k.labels) h.h_count))
    snap.Registry.histograms;
  Buffer.contents buf

(* --- span tree ------------------------------------------------------------ *)

let event_time = function
  | Tracer.Begin { time; _ } | Tracer.End { time; _ } | Tracer.Instant { time; _ } -> time
  | Tracer.Complete { stop; _ } -> stop

(* Latest timestamp recorded anywhere in the trace — the time a span a
   crash left open is pinned to. *)
let last_recorded tracer =
  let last = ref 0.0 in
  Tracer.iter tracer (fun ev -> if event_time ev > !last then last := event_time ev);
  !last

let span_tree tracer =
  let spans = Tracer.spans tracer in
  let buf = Buffer.create 2048 in
  let children = Hashtbl.create 64 in
  let roots = ref [] in
  let ids = Hashtbl.create 64 in
  List.iter (fun (s : Tracer.span) -> if s.s_id >= 0 then Hashtbl.replace ids s.s_id ()) spans;
  List.iter
    (fun (s : Tracer.span) ->
      if s.s_parent >= 0 && Hashtbl.mem ids s.s_parent then
        Hashtbl.replace children s.s_parent
          (s :: Option.value ~default:[] (Hashtbl.find_opt children s.s_parent))
      else roots := s :: !roots)
    spans;
  let by_start l = List.sort (fun (a : Tracer.span) b -> compare (a.s_start, a.s_id) (b.s_start, b.s_id)) l in
  let last = last_recorded tracer in
  let rec print depth (s : Tracer.span) =
    (* A span with no stop was cut off by a crash: pin it to the last
       recorded time and say so, instead of the old silent "open". *)
    let stop, marker =
      match s.s_stop with
      | Some st -> (Printf.sprintf "%8.2f" st, "")
      | None -> (Printf.sprintf "%8.2f" last, " (crash-truncated)")
    in
    Buffer.add_string buf
      (Printf.sprintf "%s[%8.2f .. %s] %-12s %s%s\n" (String.make (2 * depth) ' ') s.s_start stop
         s.s_actor (Span.name s.s_kind) marker);
    if s.s_id >= 0 then
      List.iter (print (depth + 1))
        (by_start (Option.value ~default:[] (Hashtbl.find_opt children s.s_id)))
  in
  List.iter (print 0) (by_start !roots);
  let instants = Tracer.instants tracer in
  if instants <> [] then begin
    Buffer.add_string buf "instants:\n";
    List.iter
      (fun (time, actor, kind) ->
        Buffer.add_string buf (Printf.sprintf "  t=%8.2f  [%-12s] %s\n" time actor (Span.name kind)))
      instants
  end;
  Buffer.contents buf

(* --- flight-recorder dump ------------------------------------------------- *)

(* Plain-text rendering of a (usually ring-limited) tracer: one line per
   retained event, oldest first — the forensics file written next to a
   chaos reproducer. Deterministic: same seed, same dump. *)
let flight_dump tracer =
  let buf = Buffer.create 4096 in
  let cap =
    match Tracer.capacity tracer with
    | Some c -> Printf.sprintf "%d" c
    | None -> "unbounded"
  in
  Buffer.add_string buf
    (Printf.sprintf "flight recorder: %d events retained, %d dropped (capacity %s)\n"
       (Tracer.length tracer) (Tracer.dropped tracer) cap);
  (* End events carry only an id; remember Begins (including ones whose
     Begin was overwritten by the ring — rendered as "?"). *)
  let open_spans = Hashtbl.create 64 in
  Tracer.iter tracer (fun ev ->
      let line =
        match ev with
        | Tracer.Begin { id; actor; time; kind; parent = _ } ->
          Hashtbl.replace open_spans id (Span.name kind);
          Printf.sprintf "t=%10.2f  %-12s  begin  %s (#%d)" time actor (Span.name kind) id
        | Tracer.End { id; time } ->
          let name =
            match Hashtbl.find_opt open_spans id with Some n -> n | None -> "?"
          in
          Hashtbl.remove open_spans id;
          Printf.sprintf "t=%10.2f  %-12s  end    %s (#%d)" time "" name id
        | Tracer.Complete { actor; start; stop; kind } ->
          Printf.sprintf "t=%10.2f  %-12s  span   %s [%.2f .. %.2f]" stop actor
            (Span.name kind) start stop
        | Tracer.Instant { actor; time; kind } ->
          Printf.sprintf "t=%10.2f  %-12s  mark   %s" time actor (Span.name kind)
      in
      Buffer.add_string buf line;
      Buffer.add_char buf '\n');
  if Hashtbl.length open_spans > 0 then
    Buffer.add_string buf
      (Printf.sprintf "%d span(s) still open at the end of the recording\n"
         (Hashtbl.length open_spans));
  Buffer.contents buf
